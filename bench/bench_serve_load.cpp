/**
 * @file
 * Serving load bench: drives an in-process SimServer (the exact engine
 * behind `diserun --serve`) through a closed-loop client swarm and an
 * open-loop arrival sweep, and emits the "service" BENCH JSON artifact.
 *
 * Phase 1 (closed loop, deterministic): N clients each send a fixed
 * request mix — well-formed runs with per-request instruction budgets,
 * malformed lines, and invalid requests — one at a time, waiting for
 * each response. The status counts (requests / ok / error / malformed /
 * shed / deadline) depend only on the mix, never on host speed, so two
 * runs of this phase must produce identical counts: CI diffs them with
 * validate_bench_json.py --compare. Client-observed latencies feed the
 * p50/p99 section (host-dependent, stripped in compares).
 *
 * Phase 2 (open loop): a sender paces requests at escalating arrival
 * rates without waiting for responses (10% of them deadline-busting),
 * while a reader drains. The sweep stops once the daemon sheds a
 * significant fraction — that is the saturation point, and the whole
 * point of admission control is that the daemon reaches it shedding
 * structured "overloaded" responses instead of queueing unboundedly.
 * Everything measured here is host-dependent and lives under
 * "open_loop".
 *
 * Artifact: BENCH_serve_load.json, kind "service", one entry under
 * workload "twolf" regime "serve". Honors the usual harness knobs
 * (--jobs / --json / DISE_BENCH_*).
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "src/service/server.hpp"

using namespace dise;
using namespace dise::bench;

namespace {

/** Blocking NDJSON client on one loopback connection. Nagle is off
 *  so the open loop's pipelined sends measure the server, not a
 *  client-side wait for the server's delayed ACK. */
class LoadClient
{
  public:
    explicit LoadClient(int port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            fatal("loadgen: socket() failed");
        sockaddr_in addr = {};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(uint16_t(port));
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0)
            fatal("loadgen: connect() failed");
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }

    ~LoadClient()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    void
    sendLine(const std::string &body)
    {
        const std::string line = body + "\n";
        size_t off = 0;
        while (off < line.size()) {
            const ssize_t n = ::send(fd_, line.data() + off,
                                     line.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                fatal("loadgen: send() failed");
            off += size_t(n);
        }
    }

    /** One newline-terminated response; empty on connection close. */
    std::string
    readLine()
    {
        for (;;) {
            const size_t pos = buf_.find('\n');
            if (pos != std::string::npos) {
                std::string line = buf_.substr(0, pos);
                buf_.erase(0, pos + 1);
                return line;
            }
            char chunk[16384];
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0)
                return std::string();
            buf_.append(chunk, size_t(n));
        }
    }

  private:
    int fd_ = -1;
    std::string buf_;
};

/** Status counters shared by both phases. */
struct Tally
{
    uint64_t requests = 0;
    uint64_t ok = 0;
    uint64_t error = 0;
    uint64_t malformed = 0;
    uint64_t shed = 0;     ///< "overloaded"
    uint64_t deadline = 0; ///< "deadline_exceeded"
    uint64_t insts = 0;    ///< guest insts across ok responses

    void
    count(const Json &resp)
    {
        const std::string status = resp.at("status").asString();
        if (status == "ok") {
            ++ok;
            if (resp.contains("run"))
                insts += resp.at("run").at("dyn_insts").asUInt();
        } else if (status == "overloaded") {
            ++shed;
        } else if (status == "deadline_exceeded") {
            ++deadline;
        } else if (status == "malformed" || status == "oversized") {
            ++malformed;
        } else {
            ++error;
        }
    }
};

/**
 * The closed-loop request mix, indexed by a per-client sequence
 * number: every 10th line is malformed, every 10th+5 is an invalid
 * request, the rest are well-formed runs whose instruction budget
 * varies with the index so they miss the idempotency cache and do
 * real work.
 */
std::string
mixLine(int client, int i)
{
    if (i % 10 == 3)
        return "{ this is not json";
    Json doc = Json::object();
    doc["id"] = Json("c" + std::to_string(client) + "-" +
                     std::to_string(i));
    if (i % 10 == 7) {
        doc["workload"] = Json(std::string("no_such_workload"));
    } else {
        doc["workload"] = Json(std::string("twolf"));
        doc["max_insts"] =
            Json(uint64_t(50000 + 1000 * client + 10 * i));
    }
    return doc.dump();
}

/** Latency percentile over a sorted sample set, in milliseconds. */
double
percentile(std::vector<double> &samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const size_t idx = std::min(
        samples.size() - 1,
        size_t(p / 100.0 * double(samples.size())));
    return samples[idx];
}

struct ClosedLoopResult
{
    Tally tally;
    std::vector<double> latenciesMs;
    double seconds = 0.0;
};

ClosedLoopResult
runClosedLoop(int port, int clients, int perClient)
{
    const size_t lanes = size_t(clients);
    std::vector<Tally> tallies(lanes);
    std::vector<std::vector<double>> latencies(lanes);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            LoadClient client(port);
            for (int i = 0; i < perClient; ++i) {
                const auto sent = std::chrono::steady_clock::now();
                client.sendLine(mixLine(c, i));
                const std::string line = client.readLine();
                if (line.empty())
                    fatal("loadgen: server closed mid-phase");
                latencies[size_t(c)].push_back(
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - sent)
                        .count());
                ++tallies[size_t(c)].requests;
                tallies[size_t(c)].count(Json::parse(line));
            }
        });
    }
    for (auto &t : threads)
        t.join();
    ClosedLoopResult result;
    result.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    for (int c = 0; c < clients; ++c) {
        const Tally &t = tallies[size_t(c)];
        result.tally.requests += t.requests;
        result.tally.ok += t.ok;
        result.tally.error += t.error;
        result.tally.malformed += t.malformed;
        result.tally.shed += t.shed;
        result.tally.deadline += t.deadline;
        result.tally.insts += t.insts;
        result.latenciesMs.insert(result.latenciesMs.end(),
                                  latencies[size_t(c)].begin(),
                                  latencies[size_t(c)].end());
    }
    return result;
}

struct OpenLoopStep
{
    double offeredRps = 0.0;
    double completedRps = 0.0;
    Tally tally;
};

/**
 * Pace requests at @p rps for @p seconds on one connection (10%
 * deadline-busting), reading replies from a drain thread. Returns the
 * step's tally; every request gets exactly one response, so the drain
 * joins deterministically.
 */
OpenLoopStep
runOpenLoopStep(int port, double rps, double seconds, int step)
{
    LoadClient client(port);
    OpenLoopStep result;
    result.offeredRps = rps;
    const int total = std::max(1, int(rps * seconds));

    std::thread drain([&client, &result, total] {
        for (int i = 0; i < total; ++i) {
            const std::string line = client.readLine();
            if (line.empty())
                fatal("loadgen: server closed mid-sweep");
            result.tally.count(Json::parse(line));
        }
    });

    const auto t0 = std::chrono::steady_clock::now();
    const auto gap =
        std::chrono::duration<double>(seconds / double(total));
    for (int i = 0; i < total; ++i) {
        Json doc = Json::object();
        doc["id"] =
            Json("o" + std::to_string(step) + "-" + std::to_string(i));
        if (i % 10 == 9) {
            // Deadline-busting: an expensive run with a 1 ms budget.
            doc["workload"] = Json(std::string("mcf"));
            doc["deadline_ms"] = Json(uint64_t(1));
        } else {
            doc["workload"] = Json(std::string("twolf"));
            doc["max_insts"] = Json(
                uint64_t(40000 + 100000 * step + 10 * i));
        }
        ++result.tally.requests;
        client.sendLine(doc.dump());
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<
                     std::chrono::steady_clock::duration>(gap * (i + 1)));
    }
    const auto sendEnd = std::chrono::steady_clock::now();
    drain.join();
    const double sendSeconds =
        std::chrono::duration<double>(sendEnd - t0).count();
    result.completedRps =
        sendSeconds > 0.0
            ? double(result.tally.ok + result.tally.deadline) /
                  sendSeconds
            : 0.0;
    return result;
}

void
runServeLoad()
{
    ServerConfig config;
    config.listen = ":0";
    config.workers = benchJobs();
    config.executors = std::max(2u, benchJobs());
    config.maxPending = 32;
    config.maxPendingPerClient = 16;
    SimServer server(config);
    server.start();
    std::printf("serve_load: daemon on 127.0.0.1:%d, %u executors\n",
                server.port(), config.executors);

    // Phase 1: deterministic closed loop.
    const int clients = 4;
    const int perClient = 25;
    ClosedLoopResult closed =
        runClosedLoop(server.port(), clients, perClient);
    const double p50 = percentile(closed.latenciesMs, 50.0);
    const double p99 = percentile(closed.latenciesMs, 99.0);
    std::printf("closed loop: %llu requests (%llu ok, %llu error, "
                "%llu malformed) in %.2fs, p50 %.2fms, p99 %.2fms\n",
                (unsigned long long)closed.tally.requests,
                (unsigned long long)closed.tally.ok,
                (unsigned long long)closed.tally.error,
                (unsigned long long)closed.tally.malformed,
                closed.seconds, p50, p99);
    if (closed.tally.shed != 0) {
        fatal("BENCH FAILURE: closed loop shed requests (clients never "
              "overlap enough to hit admission control)");
    }

    // Phase 2: open-loop arrival sweep until the daemon sheds hard.
    std::vector<OpenLoopStep> steps;
    double saturationRps = 0.0;
    for (int step = 0; step < 6; ++step) {
        const double rps = 100.0 * double(1 << step);
        OpenLoopStep s =
            runOpenLoopStep(server.port(), rps, 0.25, step);
        std::printf("open loop: offered %.0f rps -> completed %.0f "
                    "rps, %llu ok, %llu shed, %llu deadline\n",
                    s.offeredRps, s.completedRps,
                    (unsigned long long)s.tally.ok,
                    (unsigned long long)s.tally.shed,
                    (unsigned long long)s.tally.deadline);
        saturationRps = std::max(saturationRps, s.completedRps);
        const bool saturated =
            s.tally.shed * 5 >= s.tally.requests; // >= 20% shed
        steps.push_back(std::move(s));
        if (saturated)
            break;
    }

    // Artifact entry: deterministic counts at top level, everything
    // host-dependent under "latency"/"open_loop"/"host" (stripped by
    // validate_bench_json.py --compare).
    Json entry = Json::object();
    entry["requests"] = Json(closed.tally.requests);
    entry["ok"] = Json(closed.tally.ok);
    entry["error"] = Json(closed.tally.error);
    entry["malformed"] = Json(closed.tally.malformed);
    entry["shed"] = Json(closed.tally.shed);
    entry["deadline"] = Json(closed.tally.deadline);
    Json latency = Json::object();
    latency["p50_ms"] = Json(p50);
    latency["p99_ms"] = Json(p99);
    entry["latency"] = std::move(latency);
    Json open = Json::object();
    open["saturation_rps"] = Json(saturationRps);
    Json stepDocs = Json::array();
    for (const OpenLoopStep &s : steps) {
        Json doc = Json::object();
        doc["offered_rps"] = Json(s.offeredRps);
        doc["completed_rps"] = Json(s.completedRps);
        doc["requests"] = Json(s.tally.requests);
        doc["ok"] = Json(s.tally.ok);
        doc["shed"] = Json(s.tally.shed);
        doc["deadline"] = Json(s.tally.deadline);
        doc["error"] = Json(s.tally.error);
        stepDocs.push_back(std::move(doc));
    }
    open["steps"] = std::move(stepDocs);
    entry["open_loop"] = std::move(open);
    entry["host"] = hostSection(closed.seconds, closed.tally.insts);
    BenchJson::instance().record("twolf", "serve", std::move(entry));
    BenchJson::instance().write("serve_load", "service");

    server.requestShutdown();
    const int code = server.wait();
    if (code != 0)
        fatal(strFormat("BENCH FAILURE: daemon exited %d", code));
    std::printf("serve_load: daemon drained cleanly\n");
}

} // namespace

int
main(int argc, char **argv)
{
    benchInit(argc, argv, "serve_load");
    return benchGuard([] { runServeLoad(); });
}
