/**
 * @file
 * The repository benchmark driver.
 *
 *   perfbench_driver gen --workload W --seed N --seconds S --out FILE
 *   perfbench_driver run --workload W --requests FILE --seconds S
 *                        --trace 0|1 [--trace-out FILE] [--work-out FILE]
 *
 * `gen` writes one workload's RunRequest lines (see gen.hpp). `run`
 * measures them in five steps:
 *
 *  1. Set-up, nine times (median = setup_s): a fresh SimSession, or a
 *     started SimServer for the open-loop workload, warmed by one
 *     one-instruction request per distinct workload program. Each
 *     round is divided by the host slowdown HostProbe measures just
 *     before and after it.
 *  2. The timed phase. Closed loop: the lines are cycled in whole
 *     passes until the run's time is up; each request goes through
 *     Json::parse, RunRequest::fromJson, SimSession::run and
 *     RunResponse::toJson().dump(), and a HostProbe sample between
 *     every two requests scales each request's time to the reference
 *     host speed. Open loop: the lines are sent once at a fixed rate
 *     over loopback to the in-process SimServer, each timed from the
 *     moment it was due to be sent.
 *  3. With --trace 1, a traced pass over the same requests that
 *     replaces SimSession::run with the public calls it makes
 *     (buildWorkload, assemble, prepareJob, runFunctionalSim /
 *     runTimingSim / runCampaign), one span per call, plus probes of
 *     the layers a request does not call separately (AcfRegistry::build
 *     per ACF kind, parseProductions, DiseController::install, the
 *     functional and full-detail twins of timing requests).
 *  4. The output oracle: every distinct request once more on its
 *     reference tier (functional: trace_cache off; timing: trace_feed
 *     off; sampled: full-detail timing on the step feed; campaign:
 *     snapshots off). Architectural results and counters must be
 *     identical; every repeat and every traced response must equal the
 *     request's first response bit for bit (host sections excluded).
 *  5. The result: the last stdout line is one JSON object with
 *     correct / attempted / failed / metrics. --trace 0 reports the
 *     end-to-end metrics, --trace 1 the per-layer ones. A line
 *     "work {...}" before it holds the deterministic work counters.
 *
 * Exit codes: 0 on a correct run, 1 when an output check failed (the
 * result line says correct: false), 3 when an open-loop run was
 * invalid (the sender fell behind or the backlog grew; no result is
 * printed, because such a run is not a slow result), 2 on usage or
 * set-up errors.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/gen.hpp"
#include "perfbench/hostprobe.hpp"
#include "perfbench/tracer.hpp"
#include "src/acf/registry.hpp"
#include "src/assembler/assembler.hpp"
#include "src/common/logging.hpp"
#include "src/dise/controller.hpp"
#include "src/dise/parser.hpp"
#include "src/faults/campaign.hpp"
#include "src/service/runner.hpp"
#include "src/service/server.hpp"
#include "src/service/session.hpp"

using namespace dise;

namespace perfbench {

using Clock = std::chrono::steady_clock;

namespace {

/** Set-up repetitions per run (setup_s is their median). */
constexpr int kSetupRounds = 9;
/** Open loop: the sender may run this late at p99 before the run is
 *  invalid. Latency counts from the scheduled send time, so a late
 *  sender does not hide waiting; a sender this late no longer offers
 *  the workload's rate. */
constexpr double kMaxLagMs = 50.0;
/** Open loop: server executors (the SimSession has one worker). */
constexpr unsigned kExecutors = 2;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Nearest-rank percentile (@p pct in [0, 100]); 0 when empty. */
double
percentile(std::vector<double> values, double pct)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(pct / 100.0 * double(values.size()));
    const size_t idx = size_t(std::max(1.0, rank)) - 1;
    return values[std::min(idx, values.size() - 1)];
}

double
median(const std::vector<double> &values)
{
    return percentile(values, 50.0);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
mean(const std::vector<double> &values)
{
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    return ratio(sum, double(values.size()));
}

/** @name JSON helpers. */
/// @{
/** @p doc without the members named in @p drop, at every depth. */
Json
without(const Json &doc, const std::set<std::string> &drop)
{
    if (doc.isObject()) {
        Json out = Json::object();
        for (const auto &kv : doc.members()) {
            if (!drop.count(kv.first))
                out[kv.first] = without(kv.second, drop);
        }
        return out;
    }
    if (doc.isArray()) {
        Json out = Json::array();
        for (const Json &item : doc.items())
            out.push_back(without(item, drop));
        return out;
    }
    return doc;
}

/** The member at a dotted path, or null when any step is missing. */
const Json *
find(const Json &doc, const std::string &path)
{
    const Json *at = &doc;
    size_t start = 0;
    while (start <= path.size()) {
        const size_t dot = std::min(path.find('.', start), path.size());
        const std::string key = path.substr(start, dot - start);
        if (!at->isObject() || !at->contains(key))
            return nullptr;
        at = &at->at(key);
        start = dot + 1;
    }
    return at;
}

uint64_t
count(const Json &doc, const std::string &path)
{
    const Json *v = find(doc, path);
    return v && v->type() == Json::Type::UInt ? v->asUInt() : 0;
}

double
number(const Json &doc, const std::string &path)
{
    const Json *v = find(doc, path);
    return v && v->isNumeric() ? v->asDouble() : 0.0;
}

/** A response with everything host- or transport-dependent removed:
 *  the host sections, the serving envelope, and the id. */
std::string
canonicalResponse(const Json &doc)
{
    return without(doc, {"host", "seq", "status", "latency_ms", "id"})
        .dump();
}
/// @}

/** What a request line asks for, as the metrics group it. */
enum class Kind : uint8_t {
    Functional,
    Timing,
    Sampled,
    Campaign,
    Inline,
    Warmstart,
    Cached, ///< an exact repeat of an earlier line of the stream
};

const char *
kindName(Kind kind)
{
    switch (kind) {
      case Kind::Functional:
        return "functional";
      case Kind::Timing:
        return "timing";
      case Kind::Sampled:
        return "sampled";
      case Kind::Campaign:
        return "campaign";
      case Kind::Inline:
        return "inline";
      case Kind::Warmstart:
        return "warmstart";
      case Kind::Cached:
        return "cached";
    }
    return "?";
}

/** One generated line, pre-analysed (untimed). */
struct Line
{
    std::string text;
    Json doc;
    /** The request body without its id: the result-cache key. */
    std::string key;
    Kind kind = Kind::Functional;
    /** Program-cache key "<workload>@<scale>"; empty for inline. */
    std::string programKey;
};

std::vector<Line>
analyse(const std::vector<std::string> &texts)
{
    std::vector<Line> lines;
    std::set<std::string> seen;
    for (const std::string &text : texts) {
        Line line;
        line.text = text;
        line.doc = Json::parse(text);
        const RunRequest req = RunRequest::fromJson(line.doc);
        line.key = without(line.doc, {"id"}).dump();
        if (!req.workload.empty())
            line.programKey =
                req.workload + "@" + std::to_string(req.scale);
        if (!seen.insert(line.key).second)
            line.kind = Kind::Cached;
        else if (req.mode == RunMode::Campaign)
            line.kind = Kind::Campaign;
        else if (req.mode == RunMode::Timing)
            line.kind = req.samplePeriod ? Kind::Sampled : Kind::Timing;
        else if (!req.source.empty())
            line.kind = Kind::Inline;
        else if (req.warmupInsts > 0)
            line.kind = Kind::Warmstart;
        lines.push_back(std::move(line));
    }
    return lines;
}

/** Distinct program keys in first-appearance order. */
std::vector<std::string>
programKeys(const std::vector<Line> &lines)
{
    std::vector<std::string> keys;
    for (const Line &line : lines) {
        if (!line.programKey.empty() &&
            std::find(keys.begin(), keys.end(), line.programKey) ==
                keys.end())
            keys.push_back(line.programKey);
    }
    return keys;
}

Program
buildProgramKey(const std::string &key)
{
    const size_t at = key.find('@');
    return buildWorkload(scaledSpec(workloadSpec(key.substr(0, at)),
                                    std::stod(key.substr(at + 1))));
}

/** One-instruction request that makes a session build @p key. */
std::string
warmLine(const std::string &key)
{
    const size_t at = key.find('@');
    Json doc = Json::object();
    doc["id"] = Json("warm/" + key);
    doc["workload"] = Json(key.substr(0, at));
    doc["scale"] = Json(std::stod(key.substr(at + 1)));
    doc["max_insts"] = Json(uint64_t(1));
    return doc.dump();
}

/** One measured request. */
struct Record
{
    size_t line = 0;
    /** Client-observed ms: closed loop parse start to serialized
     *  response; open loop scheduled send to response read. */
    double latencyMs = 0.0;
    /** Closed loop: latencyMs over the host slowdown HostProbe
     *  measured just before and just after the request, i.e. the time
     *  at the reference host speed. Open loop: latencyMs. */
    double refMs = 0.0;
    std::string response;
};

/** The whole in-process request path the batch front-end uses. */
std::string
serveInProcess(SimSession &session, const std::string &text)
{
    RunResponse resp;
    try {
        const RunRequest req = RunRequest::fromJson(Json::parse(text));
        resp.id = req.label();
        resp.mode = req.mode;
        resp = session.run(req);
    } catch (const FatalError &e) {
        resp.ok = false;
        resp.error = e.what();
    }
    return resp.toJson().dump();
}

/** @name The timed phase. */
/// @{
struct Phase
{
    std::vector<Record> records;
    /** Closed loop: the sum of request times, without the host probes
     *  between requests. Open loop: first send to last response. */
    double wallMs = 0.0;
    /** Open loop only. */
    std::vector<double> lagMs;
    std::vector<double> wireMs;
    uint64_t cacheHits = 0;
    bool valid = true;
    std::string invalidReason;
};

uint64_t
dynInsts(const std::string &response)
{
    const Json doc = Json::parse(response);
    const Json *ok = find(doc, "ok");
    if (!ok || !ok->asBool())
        return 0;
    return count(doc, "run.dyn_insts");
}

/**
 * Cycle whole passes over the list until @p seconds have passed, so
 * every run executes the same request mix. A HostProbe sample between
 * requests brackets each one. Each pass's raw guest MIPS and median
 * host slowdown go to stderr: they show how much host speed drifted
 * within the run.
 */
Phase
runClosed(SimSession &session, const std::vector<Line> &lines,
          double seconds, HostProbe &probe)
{
    Phase phase;
    std::vector<double> passMs, passSlowdown;
    double before = probe.sample();
    const auto start = Clock::now();
    do {
        const auto passStart = Clock::now();
        std::vector<double> slowdowns;
        for (size_t i = 0; i < lines.size(); ++i) {
            Record rec;
            rec.line = i;
            const auto t0 = Clock::now();
            rec.response = serveInProcess(session, lines[i].text);
            rec.latencyMs = msBetween(t0, Clock::now());
            const double after = probe.sample();
            rec.refMs = rec.latencyMs / (0.5 * (before + after));
            before = after;
            slowdowns.push_back(after);
            phase.wallMs += rec.latencyMs;
            phase.records.push_back(std::move(rec));
        }
        passMs.push_back(msBetween(passStart, Clock::now()));
        passSlowdown.push_back(median(slowdowns));
    } while (msBetween(start, Clock::now()) < seconds * 1000.0);

    uint64_t passInsts = 0;
    for (size_t r = 0; r < lines.size(); ++r)
        passInsts += dynInsts(phase.records[r].response);
    std::fprintf(stderr, "perfbench: per pass, raw guest MIPS / host "
                         "slowdown:");
    for (size_t p = 0; p < passMs.size(); ++p)
        std::fprintf(stderr, " %.1f/%.2f",
                     ratio(double(passInsts), passMs[p] * 1e3),
                     passSlowdown[p]);
    std::fprintf(stderr, "\n");
    return phase;
}

/** Blocking NDJSON client on one loopback connection. */
class Client
{
  public:
    explicit Client(int port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            fatal("perfbench: socket() failed");
        sockaddr_in addr = {};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(uint16_t(port));
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd_);
            fatal("perfbench: connect() failed");
        }
        // A wedged server must fail the run, not hang it; and the
        // client's own small writes must not wait on Nagle's algorithm.
        timeval tv = {60, 0};
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    ~Client() { ::close(fd_); }
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    void
    send(const std::string &body)
    {
        const std::string line = body + "\n";
        size_t off = 0;
        while (off < line.size()) {
            const ssize_t n = ::send(fd_, line.data() + off,
                                     line.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                fatal("perfbench: send() failed");
            off += size_t(n);
        }
    }

    /** One response line; fatal() when the server closes or stalls. */
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
            char chunk[65536];
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0)
                fatal("perfbench: server closed or stalled");
            buf_.append(chunk, size_t(n));
        }
    }

    /** Unblock a reader waiting in readLine(). */
    void shutdown() { ::shutdown(fd_, SHUT_RDWR); }

  private:
    int fd_ = -1;
    std::string buf_;
};

uint64_t
serverCacheHits(const SimServer &server)
{
    return count(server.statsJson(), "server.cache_hits");
}

Phase
runOpen(SimServer &server, const std::vector<Line> &lines, double rate)
{
    Phase phase;
    const size_t n = lines.size();
    std::vector<Clock::time_point> due(n), sent(n), received(n);
    std::vector<std::string> responses(n);
    std::vector<size_t> backlog(n);
    std::atomic<size_t> receivedCount{0};
    const uint64_t hitsBefore = serverCacheHits(server);

    Client client(server.port());
    std::string readError;
    std::thread reader([&] {
        try {
            for (size_t i = 0; i < n; ++i) {
                std::string line = client.readLine();
                const auto now = Clock::now();
                const size_t seq =
                    size_t(Json::parse(line).at("seq").asUInt());
                if (seq < 1 || seq > n || !responses[seq - 1].empty())
                    fatal("perfbench: bad response seq");
                received[seq - 1] = now;
                responses[seq - 1] = std::move(line);
                receivedCount.fetch_add(1, std::memory_order_release);
            }
        } catch (const std::exception &e) {
            readError = e.what();
        }
    });
    const auto start = Clock::now();
    std::string sendError;
    try {
        for (size_t i = 0; i < n; ++i) {
            due[i] = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     double(i) / rate));
            std::this_thread::sleep_until(due[i]);
            sent[i] = Clock::now();
            client.send(lines[i].text);
            backlog[i] =
                i + 1 - receivedCount.load(std::memory_order_acquire);
        }
    } catch (const std::exception &e) {
        sendError = e.what();
        client.shutdown(); // wakes the reader
    }
    reader.join();
    if (!sendError.empty() || !readError.empty())
        fatal(sendError.empty() ? readError : sendError);
    const auto end = *std::max_element(received.begin(), received.end());
    phase.wallMs = msBetween(start, end);
    phase.cacheHits = serverCacheHits(server) - hitsBefore;

    for (size_t i = 0; i < n; ++i) {
        Record rec;
        rec.line = i;
        rec.latencyMs = msBetween(due[i], received[i]);
        rec.refMs = rec.latencyMs;
        rec.response = responses[i];
        const Json doc = Json::parse(rec.response);
        phase.lagMs.push_back(msBetween(due[i], sent[i]));
        if (doc.contains("latency_ms")) {
            phase.wireMs.push_back(msBetween(sent[i], received[i]) -
                                   doc.at("latency_ms").asDouble());
        }
        phase.records.push_back(std::move(rec));
    }

    // Open-loop honesty: a sender behind schedule or a growing backlog
    // means the offered rate was not delivered; such a run is invalid,
    // never a slow result.
    const double lagP99 = percentile(phase.lagMs, 99.0);

    double firstHalf = 0.0, secondHalf = 0.0;
    for (size_t i = 0; i < n; ++i)
        (i < n / 2 ? firstHalf : secondHalf) += double(backlog[i]);
    firstHalf /= double(std::max<size_t>(1, n / 2));
    secondHalf /= double(std::max<size_t>(1, n - n / 2));
    std::fprintf(stderr,
                 "perfbench: open loop: sender lag p99 %.3f ms, mean "
                 "backlog %.2f (first half) %.2f (second half)\n",
                 lagP99, firstHalf, secondHalf);
    if (lagP99 > kMaxLagMs) {
        phase.valid = false;
        phase.invalidReason = strFormat(
            "sender lag p99 %.2f ms > %.2f ms", lagP99, kMaxLagMs);
    } else if (secondHalf > 2.0 * firstHalf + 2.0 * kExecutors) {
        phase.valid = false;
        phase.invalidReason = strFormat(
            "backlog grew: mean %.1f queued in the first half, %.1f in "
            "the second",
            firstHalf, secondHalf);
    }
    return phase;
}
/// @}

/** @name The traced pass. */
/// @{
struct Traced
{
    Tracer tracer;
    std::vector<Record> records;
    double wallMs = 0.0;
    /** Per distinct request (first occurrence): its execution span,
     *  its production set, and for timing requests the prepared job
     *  and the spans of its functional and full-detail twins. */
    std::map<std::string, int> runSpan;
    std::map<std::string, std::shared_ptr<const ProductionSet>> productions;
    std::map<std::string, PreparedJob> timingJobs;
    std::map<std::string, int> functionalTwin;
    std::map<std::string, int> fullDetailTwin;
    /** Functional run spans and the instructions they retired. */
    std::vector<std::pair<int, uint64_t>> functionalRuns;
    uint64_t campaignTrials = 0;
};

/** The warm-start snapshot identity SimSession keys on. */
std::string
snapshotKey(const RunRequest &req)
{
    RunRequest norm = req;
    norm.id.clear();
    norm.mode = RunMode::Functional;
    norm.maxInsts = ~uint64_t(0);
    norm.maxCycles = 0;
    norm.seed = RunRequest().seed;
    norm.trials = RunRequest().trials;
    norm.faultTargets = RunRequest().faultTargets;
    norm.snapshots = true;
    return norm.toJson().dump();
}

/**
 * Execute the request list decomposed into public calls, one span per
 * call. This is SimSession::run taken apart (the program cache, the
 * warm-start snapshot cache and the per-mode execution); the responses
 * must come out identical. For the served workload, exact repeats are
 * answered from an idempotent result cache as the server does, and the
 * short-budget functional runs get their own span name.
 */
void
runTraced(Traced &t, const std::vector<Line> &lines,
          const std::vector<size_t> &order, bool served)
{
    Tracer &tr = t.tracer;
    std::map<std::string, std::unique_ptr<Program>> programs;
    for (const std::string &key : programKeys(lines)) {
        auto s = tr.span("workloads.build", -1);
        programs[key] = std::make_unique<Program>(buildProgramKey(key));
    }
    SimScheduler scheduler(1);
    std::map<std::string, std::shared_ptr<const SimSnapshot>> snapshots;
    std::map<std::string, std::string> results;

    const auto start = Clock::now();
    for (size_t r = 0; r < order.size(); ++r) {
        const Line &line = lines[order[r]];
        const int64_t id = int64_t(r);
        Record rec;
        rec.line = order[r];
        const auto t0 = Clock::now();
        auto request = tr.span("request", id);
        RunResponse resp;
        std::string out;
        try {
            Json doc;
            {
                auto s = tr.span("common.json_parse", id);
                doc = Json::parse(line.text);
            }
            RunRequest req;
            {
                auto s = tr.span("service.decode", id);
                req = RunRequest::fromJson(doc);
            }
            resp.id = req.label();
            resp.mode = req.mode;
            if (served && results.count(line.key)) {
                Json cached;
                {
                    auto s = tr.span("service.result_cache", id);
                    cached = Json::parse(results[line.key]);
                    cached["id"] = Json(req.label());
                }
                auto s = tr.span("common.json_dump", id);
                out = cached.dump();
            } else {
                const Program *base = nullptr;
                Program inlineProg;
                if (!line.programKey.empty()) {
                    base = programs.at(line.programKey).get();
                } else {
                    auto s = tr.span("assembler.assemble", id);
                    inlineProg = assemble(req.source);
                    base = &inlineProg;
                }
                PreparedJob job;
                {
                    auto s = tr.span("service.prepare", id);
                    job = prepareJob(req, base);
                }
                int runSpan = -1;
                switch (req.mode) {
                  case RunMode::Functional: {
                    SimOptions opts;
                    opts.registry = true;
                    if (req.warmupInsts > 0) {
                        std::shared_ptr<const SimSnapshot> &warm =
                            snapshots[snapshotKey(req)];
                        if (!warm) {
                            auto s = tr.span("sim.warmup", id);
                            warm = std::make_shared<const SimSnapshot>(
                                takeWarmupSnapshot(job,
                                                   req.warmupInsts));
                        }
                        opts.resume = warm.get();
                    }
                    const char *name = opts.resume ? "sim.resume"
                                       : served ? "sim.short_run"
                                                   : "sim.run";
                    auto s = tr.span(name, id);
                    runSpan = s.index();
                    const FunctionalOutcome o = runFunctionalSim(job, opts);
                    resp.arch = o.arch;
                    resp.hostSeconds = o.hostSeconds;
                    resp.detail = o.registry;
                    break;
                  }
                  case RunMode::Timing: {
                    SimOptions opts;
                    opts.benchEntry = true;
                    auto s = tr.span(req.samplePeriod ? "pipeline.sampled_run"
                                                      : "pipeline.run",
                                     id);
                    runSpan = s.index();
                    const TimingOutcome o = runTimingSim(job, opts);
                    resp.arch = o.timing.arch;
                    resp.cycles = o.timing.cycles;
                    resp.hostSeconds = o.hostSeconds;
                    resp.detail = o.benchEntry;
                    break;
                  }
                  case RunMode::Campaign: {
                    CampaignSetup setup;
                    setup.prog = job.prog;
                    if (job.productions)
                        setup.makeAcf = [set = job.productions] {
                            return set;
                        };
                    setup.initCore = job.initCore;
                    setup.diseConfig = job.dise;
                    CampaignConfig cfg;
                    cfg.seed = req.seed;
                    cfg.trials = req.trials;
                    cfg.targets = req.faultTargets;
                    cfg.useSnapshots = req.snapshots;
                    if (req.maxInsts != ~uint64_t(0))
                        cfg.maxGoldenInsts = req.maxInsts;
                    auto s = tr.span("faults.campaign", id);
                    runSpan = s.index();
                    const auto c0 = Clock::now();
                    const CampaignResult c =
                        runCampaign(setup, cfg, &scheduler);
                    resp.hostSeconds = msBetween(c0, Clock::now()) / 1e3;
                    resp.arch = c.golden;
                    Json detail = campaignToJson(c);
                    detail["host"] =
                        hostSection(resp.hostSeconds, c.totalDynInsts);
                    resp.detail = std::move(detail);
                    t.campaignTrials += req.trials;
                    break;
                  }
                }
                if (!t.runSpan.count(line.key)) {
                    t.runSpan[line.key] = runSpan;
                    t.productions[line.key] = job.productions;
                    if (req.mode == RunMode::Timing)
                        t.timingJobs.emplace(line.key, job);
                }
                if (req.mode == RunMode::Functional)
                    t.functionalRuns.push_back(
                        {runSpan, resp.arch.dynInsts});
                Json encoded;
                {
                    auto s = tr.span("service.encode", id);
                    encoded = resp.toJson();
                }
                auto s = tr.span("common.json_dump", id);
                out = encoded.dump();
            }
        } catch (const FatalError &e) {
            resp.ok = false;
            resp.error = e.what();
            out = resp.toJson().dump();
        }
        if (served && !results.count(line.key) && resp.ok)
            results[line.key] = out;
        rec.latencyMs = msBetween(t0, Clock::now());
        rec.response = std::move(out);
        t.records.push_back(std::move(rec));
    }
    t.wallMs = msBetween(start, Clock::now());
}

/** Probes: layers a request calls only inside prepareJob or run. */
void
runProbes(Traced &t, const std::vector<Line> &lines)
{
    Tracer &tr = t.tracer;
    std::map<std::string, std::unique_ptr<Program>> programs;
    std::set<std::string> done;
    for (const Line &line : lines) {
        if (!t.runSpan.count(line.key) || !done.insert(line.key).second)
            continue;
        const RunRequest req = RunRequest::fromJson(line.doc);
        Program base;
        if (!line.programKey.empty()) {
            std::unique_ptr<Program> &prog = programs[line.programKey];
            if (!prog)
                prog = std::make_unique<Program>(
                    buildProgramKey(line.programKey));
            base = *prog;
        } else {
            base = assemble(req.source);
        }
        for (const AcfSpec &spec : req.normalizedAcfs()) {
            if (spec.kind == "watchpoint")
                continue; // composes over mfi; not buildable alone
            AcfSpec alone = spec;
            alone.compose = AcfCompose::Append;
            Program copy = base;
            auto s = tr.span("acf.build." + spec.kind, -1);
            AcfRegistry::instance().build({alone}, req.productions, copy);
        }
        if (!req.productions.empty()) {
            auto s = tr.span("dise.parse", -1);
            parseProductions(req.productions, base.symbols);
        }
        if (const auto &set = t.productions.at(line.key)) {
            DiseController controller(req.dise);
            auto s = tr.span("dise.install", -1);
            controller.install(set);
        }
        if (req.mode == RunMode::Timing) {
            const PreparedJob &job = t.timingJobs.at(line.key);
            {
                auto s = tr.span("probe.functional", -1);
                t.functionalTwin[line.key] = s.index();
                runFunctionalSim(job);
            }
            if (job.samplePeriod != 0) {
                PreparedJob full = job;
                full.samplePeriod = 0;
                full.sampleDetail = 0;
                auto s = tr.span("probe.full_detail", -1);
                t.fullDetailTwin[line.key] = s.index();
                runTimingSim(full);
            }
        }
    }
}
/// @}

/** Reference-tier twin of a request (see the file header). */
Json
referenceRequest(const Line &line)
{
    Json doc = without(line.doc, {"sample_period", "sample_detail"});
    switch (line.kind) {
      case Kind::Campaign:
        doc["snapshots"] = Json(false);
        break;
      case Kind::Timing:
      case Kind::Sampled:
        doc["trace_feed"] = Json(false);
        break;
      default:
        doc["trace_cache"] = Json(false);
        break;
    }
    return doc;
}

/** What the reference tier must reproduce of a response. */
std::string
oracleView(const Json &resp, Kind kind)
{
    // Sampled timing estimates cycles, so only the architectural
    // result is comparable with full detail; campaign replay
    // accounting differs between snapshot and full replay by design.
    if (kind == Kind::Sampled)
        return resp.contains("run") ? resp.at("run").dump() : "{}";
    return without(Json::parse(canonicalResponse(resp)), {"replay"})
        .dump();
}

struct Checks
{
    uint64_t attempted = 0;
    uint64_t oracleChecked = 0;
    uint64_t oracleMismatched = 0;
    /** First response of each distinct request, in stream order. */
    std::vector<std::string> order;
    std::map<std::string, Json> first;
    std::set<std::string> badKeys;
    /** Sampled requests: sum of |estimated - full| and full cycles. */
    double cpiAbsError = 0.0;
    double cpiFullCycles = 0.0;
};

/** Every response must be ok and equal its request's first response. */
void
checkRecords(Checks &c, const std::vector<Line> &lines,
             const std::vector<Record> &records)
{
    std::map<std::string, std::string> canon;
    for (const auto &kv : c.first)
        canon[kv.first] = canonicalResponse(kv.second);
    for (const Record &rec : records) {
        ++c.attempted;
        const Line &line = lines[rec.line];
        const Json doc = Json::parse(rec.response);
        const Json *ok = find(doc, "ok");
        const Json *status = find(doc, "status");
        bool good = ok && ok->asBool() &&
                    (!status || status->asString() == "ok");
        const std::string mine = canonicalResponse(doc);
        if (good) {
            auto it = canon.find(line.key);
            if (it == canon.end()) {
                canon[line.key] = mine;
                c.first[line.key] = doc;
                c.order.push_back(line.key);
            } else if (it->second != mine) {
                good = false;
                std::fprintf(stderr,
                             "perfbench: response to %s differs from "
                             "its first run\n",
                             line.doc.at("id").asString().c_str());
            }
        } else {
            std::fprintf(stderr, "perfbench: request %s failed: %s\n",
                         line.doc.at("id").asString().c_str(),
                         rec.response.substr(0, 300).c_str());
        }
        if (!good)
            c.badKeys.insert(line.key);
    }
}

void
runOracle(Checks &c, const std::vector<Line> &lines)
{
    SimSession reference(SessionConfig{1});
    std::map<std::string, const Line *> byKey;
    for (const Line &line : lines)
        byKey.emplace(line.key, &line);
    for (const std::string &key : c.order) {
        const Line &line = *byKey.at(key);
        const Json ref = Json::parse(
            serveInProcess(reference, referenceRequest(line).dump()));
        const Json &mine = c.first.at(key);
        ++c.oracleChecked;
        if (oracleView(ref, line.kind) != oracleView(mine, line.kind) ||
            !find(ref, "ok") || !ref.at("ok").asBool()) {
            ++c.oracleMismatched;
            c.badKeys.insert(key);
            std::fprintf(stderr,
                         "perfbench: ORACLE MISMATCH on %s\n  fast: %s\n"
                         "  reference: %s\n",
                         line.doc.at("id").asString().c_str(),
                         oracleView(mine, line.kind).c_str(),
                         oracleView(ref, line.kind).c_str());
        }
        if (line.kind == Kind::Sampled) {
            const double full = double(count(ref, "cycles"));
            c.cpiAbsError += std::fabs(
                number(mine, "detail.sampling.estimated_cycles") - full);
            c.cpiFullCycles += full;
        }
    }
}

/** The deterministic work counters over each distinct request once. */
Json
workCounters(const Checks &c, uint64_t resultCacheHits)
{
    std::map<std::string, uint64_t> sums;
    const std::vector<std::pair<const char *, std::vector<std::string>>>
        fields = {
            {"dyn_insts", {"run.dyn_insts"}},
            {"app_insts", {"run.app_insts"}},
            {"dise_insts", {"run.dise_insts"}},
            {"expansions", {"run.expansions"}},
            {"memo_hits",
             {"detail.dise.expand_cache_hits",
              "detail.counters.dise.expand_cache_hits"}},
            {"pt_misses",
             {"detail.dise.pt_misses", "detail.counters.dise.pt_misses"}},
            {"rt_misses",
             {"detail.dise.rt_misses", "detail.counters.dise.rt_misses"}},
            {"cycles", {"cycles"}},
            {"l1i_accesses", {"detail.counters.mem.l1i.accesses"}},
            {"l1i_misses", {"detail.counters.mem.l1i.misses"}},
            {"l1d_accesses", {"detail.counters.mem.l1d.accesses"}},
            {"l1d_misses", {"detail.counters.mem.l1d.misses"}},
            {"l2_accesses", {"detail.counters.mem.l2.accesses"}},
            {"l2_misses", {"detail.counters.mem.l2.misses"}},
            {"bpred_predictions", {"detail.counters.bpred.predictions"}},
            {"warmed_insts", {"detail.sampling.warmed_insts"}},
            {"sampled_insts", {"detail.sampling.sampled_insts"}},
            {"replayed_insts", {"detail.replay.replayed_insts"}},
            {"saved_insts", {"detail.replay.saved_insts"}},
            {"faults_injected", {"detail.injected"}},
        };
    for (const std::string &key : c.order) {
        const Json &doc = c.first.at(key);
        ++sums["requests"];
        // The predictor reports its rate, not its miss count; the
        // product restores the integer count exactly.
        sums["bpred_mispredicts"] += uint64_t(std::llround(
            number(doc, "detail.counters.bpred.mispredict_rate") *
            double(count(doc, "detail.counters.bpred.predictions"))));
        for (const auto &field : fields) {
            for (const std::string &path : field.second)
                sums[field.first] += count(doc, path);
        }
    }
    Json work = Json::object();
    for (const auto &kv : sums)
        work[kv.first] = Json(kv.second);
    work["result_cache_hits"] = Json(resultCacheHits);
    work["oracle_checked"] = Json(c.oracleChecked);
    work["oracle_mismatched"] = Json(c.oracleMismatched);
    return work;
}

/** @name Set-up. */
/// @{
double
setupSession(std::unique_ptr<SimSession> &session,
             const std::vector<std::string> &keys)
{
    const auto t0 = Clock::now();
    session = std::make_unique<SimSession>(SessionConfig{1});
    for (const std::string &key : keys)
        serveInProcess(*session, warmLine(key));
    return msBetween(t0, Clock::now()) / 1e3;
}

double
setupServer(std::unique_ptr<SimServer> &server,
            const std::vector<std::string> &keys)
{
    if (server) {
        server->requestShutdown();
        server->wait();
        server.reset();
    }
    const auto t0 = Clock::now();
    ServerConfig config;
    config.listen = ":0";
    config.workers = 1;
    config.executors = kExecutors;
    config.maxPending = 256;
    config.maxPendingPerClient = 256;
    server = std::make_unique<SimServer>(config);
    server->start();
    Client client(server->port());
    for (const std::string &key : keys)
        client.send(warmLine(key));
    for (size_t i = 0; i < keys.size(); ++i)
        client.readLine();
    return msBetween(t0, Clock::now()) / 1e3;
}
/// @}

/**
 * The untraced twin of an open-loop run: the same requests in process,
 * one after another, so traced and untraced time compare alike.
 * Repeats are answered from a result cache, as the server and the
 * traced pass answer them.
 */
Phase
runTwin(const std::vector<Line> &lines, const std::vector<std::string> &keys,
        const std::vector<size_t> &order)
{
    Phase twin;
    std::unique_ptr<SimSession> session;
    setupSession(session, keys);
    std::map<std::string, std::string> results;
    const auto start = Clock::now();
    for (size_t i : order) {
        Record rec;
        rec.line = i;
        auto hit = results.find(lines[i].key);
        if (hit == results.end()) {
            rec.response = serveInProcess(*session, lines[i].text);
            results.emplace(lines[i].key, rec.response);
        } else {
            Json cached = Json::parse(hit->second);
            cached["id"] = lines[i].doc.at("id");
            rec.response = cached.dump();
        }
        twin.records.push_back(std::move(rec));
    }
    twin.wallMs = msBetween(start, Clock::now());
    return twin;
}

double
peakRssMb()
{
    rusage usage = {};
    ::getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0;
}

/** Median duration (ms) of the spans named @p name. */
double
spanMedianMs(const Tracer &tr, const std::string &name)
{
    std::vector<double> durs;
    for (const Span &s : tr.spans()) {
        if (s.name == name)
            durs.push_back(s.durMs());
    }
    return median(durs);
}

/** Per-layer self time (stderr table) and the span coverage share. */
double
reportSelfTime(const Tracer &tr)
{
    const std::vector<double> self = tr.selfMs();
    std::map<std::string, std::pair<uint64_t, double>> byName;
    double requestMs = 0.0, requestSelfMs = 0.0;
    for (size_t i = 0; i < tr.spans().size(); ++i) {
        const Span &s = tr.spans()[i];
        if (s.name == "request") {
            requestMs += s.durMs();
            requestSelfMs += self[i];
        }
        if (s.request < 0)
            continue; // set-up and probes: not part of any request
        auto &entry = byName[s.name];
        ++entry.first;
        entry.second += self[i];
    }
    std::fprintf(stderr, "%-24s %8s %12s %10s\n", "layer (self time)",
                 "spans", "self ms", "of request");
    for (const auto &kv : byName) {
        std::fprintf(stderr, "%-24s %8llu %12.3f %9.2f%%\n",
                     kv.first.c_str(),
                     (unsigned long long)kv.second.first,
                     kv.second.second,
                     100.0 * ratio(kv.second.second, requestMs));
    }
    return ratio(requestMs - requestSelfMs, requestMs);
}

/** Chrome trace-event JSON (complete events, microseconds). */
std::string
chromeTrace(const Tracer &tr)
{
    Json events = Json::array();
    for (size_t i = 0; i < tr.spans().size(); ++i) {
        const Span &s = tr.spans()[i];
        Json ev = Json::object();
        ev["name"] = Json(s.name);
        ev["ph"] = Json("X");
        ev["ts"] = Json(s.startUs);
        ev["dur"] = Json(s.endUs - s.startUs);
        ev["pid"] = Json(1);
        ev["tid"] = Json(1);
        Json args = Json::object();
        args["span"] = Json(uint64_t(i));
        args["parent"] = Json(double(s.parent));
        args["request"] = Json(double(s.request));
        ev["args"] = std::move(args);
        events.push_back(std::move(ev));
    }
    Json doc = Json::object();
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = Json("ms");
    return doc.dump();
}

struct Metrics
{
    Json doc = Json::object();

    void
    add(const std::string &name, double value, const char *unit)
    {
        Json m = Json::object();
        m["value"] = Json(std::isfinite(value) ? value : 0.0);
        m["unit"] = Json(unit);
        doc[name] = std::move(m);
    }
};

/** Per-layer metrics computed from response counters. */
void
counterMetrics(Metrics &m, const Json &work, const Checks &c)
{
    auto w = [&work](const char *key) {
        return double(count(work, key));
    };
    m.add("dise.expansions_per_kinst",
          1000.0 * ratio(w("expansions"), w("app_insts")), "count");
    m.add("dise.memo_hit_ratio", ratio(w("memo_hits"), w("expansions")),
          "ratio");
    m.add("dise.pt_misses", w("pt_misses"), "count");
    m.add("dise.rt_misses", w("rt_misses"), "count");
    // Cache and predictor rates over full-detail responses only: a
    // sampled run also counts the accesses of its warming phases.
    std::map<std::string, double> detail;
    double detailInsts = 0.0, sampledInsts = 0.0;
    for (const std::string &key : c.order) {
        const Json &doc = c.first.at(key);
        if (!doc.contains("cycles"))
            continue;
        const double insts = double(count(doc, "run.dyn_insts"));
        if (find(doc, "detail.sampling")) {
            sampledInsts += insts;
            continue;
        }
        detailInsts += insts;
        for (const char *level : {"l1i", "l1d", "l2"}) {
            const std::string base = std::string("mem.") + level;
            detail[base + ".accesses"] += double(
                count(doc, "detail.counters." + base + ".accesses"));
            detail[base + ".misses"] += double(
                count(doc, "detail.counters." + base + ".misses"));
        }
        const double predictions =
            double(count(doc, "detail.counters.bpred.predictions"));
        detail["predictions"] += predictions;
        detail["mispredicts"] +=
            predictions *
            number(doc, "detail.counters.bpred.mispredict_rate");
    }
    for (const char *level : {"l1i", "l1d", "l2"}) {
        const std::string base = std::string("mem.") + level;
        m.add(base + ".accesses_per_inst",
              ratio(detail[base + ".accesses"], detailInsts), "count");
        m.add(base + ".miss_rate",
              ratio(detail[base + ".misses"], detail[base + ".accesses"]),
              "ratio");
    }
    m.add("branch.predictions_per_inst",
          ratio(detail["predictions"], detailInsts), "count");
    m.add("branch.mispredict_rate",
          ratio(detail["mispredicts"], detail["predictions"]), "ratio");
    m.add("pipeline.warmed_frac", ratio(w("warmed_insts"), sampledInsts),
          "ratio");
    m.add("pipeline.cpi_error_pct",
          100.0 * ratio(c.cpiAbsError, c.cpiFullCycles), "%");
    m.add("faults.replayed_frac",
          ratio(w("replayed_insts"),
                w("replayed_insts") + w("saved_insts")),
          "ratio");
    m.add("service.result_cache_hits", w("result_cache_hits"), "count");
}

/** Per-layer metrics computed from the traced pass's spans. */
void
spanMetrics(Metrics &m, const Traced &t, const Checks &c,
            const std::vector<Line> &lines)
{
    const Tracer &tr = t.tracer;
    std::map<std::string, const Line *> byKey;
    for (const Line &line : lines)
        byKey.emplace(line.key, &line);
    m.add("common.json_parse_us",
          1000.0 * spanMedianMs(tr, "common.json_parse"), "us");
    m.add("common.json_dump_us",
          1000.0 * spanMedianMs(tr, "common.json_dump"), "us");
    m.add("service.decode_us", 1000.0 * spanMedianMs(tr, "service.decode"),
          "us");
    m.add("service.encode_us", 1000.0 * spanMedianMs(tr, "service.encode"),
          "us");
    m.add("service.prepare_ms", spanMedianMs(tr, "service.prepare"), "ms");
    m.add("workloads.build_ms", spanMedianMs(tr, "workloads.build"), "ms");
    m.add("assembler.assemble_ms",
          spanMedianMs(tr, "assembler.assemble"), "ms");
    for (const char *kind :
         {"mfi", "compress", "rewrite_mfi", "fusion", "productions"}) {
        m.add(std::string("acf.build_ms.") + kind,
              spanMedianMs(tr, std::string("acf.build.") + kind), "ms");
    }
    m.add("dise.parse_ms", spanMedianMs(tr, "dise.parse"), "ms");
    m.add("dise.install_ms", spanMedianMs(tr, "dise.install"), "ms");
    m.add("sim.run_ms", spanMedianMs(tr, "sim.run"), "ms");
    m.add("sim.short_run_ms", spanMedianMs(tr, "sim.short_run"), "ms");
    m.add("sim.resume_ms", spanMedianMs(tr, "sim.resume"), "ms");
    double funcMs = 0.0, funcInsts = 0.0;
    for (const auto &run : t.functionalRuns) {
        funcMs += tr.spans()[size_t(run.first)].durMs();
        funcInsts += double(run.second);
    }
    m.add("sim.mips", ratio(funcInsts, funcMs * 1000.0), "Minst/s");
    m.add("pipeline.run_ms", spanMedianMs(tr, "pipeline.run"), "ms");

    // Timing twins: model time, sampling speed-up, warming speed.
    std::vector<double> modelMs;
    double sampledMs = 0.0, fullMs = 0.0, warmMs = 0.0, warmInsts = 0.0;
    double twinFuncMs = 0.0, twinInsts = 0.0;
    auto dur = [&tr](int span) { return tr.spans()[size_t(span)].durMs(); };
    for (const std::string &key : c.order) {
        const Line &line = *byKey.at(key);
        if (!t.runSpan.count(key) ||
            (line.kind != Kind::Timing && line.kind != Kind::Sampled))
            continue;
        const double runMs = dur(t.runSpan.at(key));
        const double func = dur(t.functionalTwin.at(key));
        if (line.kind == Kind::Timing) {
            modelMs.push_back(runMs - func);
            continue;
        }
        // Sampled: warm time = sampled time minus the detail
        // instructions at this request's full-detail rate.
        const Json &doc = c.first.at(key);
        const double full = dur(t.fullDetailTwin.at(key));
        const double insts = double(count(doc, "run.dyn_insts"));
        const double detail =
            double(count(doc, "detail.sampling.sampled_insts"));
        sampledMs += runMs;
        fullMs += full;
        twinFuncMs += func;
        twinInsts += insts;
        warmInsts += double(count(doc, "detail.sampling.warmed_insts"));
        warmMs += runMs - ratio(detail * full, insts);
    }
    m.add("pipeline.model_ms", median(modelMs), "ms");
    m.add("pipeline.sampled_speedup", ratio(fullMs, sampledMs), "ratio");
    m.add("pipeline.warm_vs_functional",
          ratio(ratio(warmInsts, warmMs), ratio(twinInsts, twinFuncMs)),
          "ratio");

    m.add("faults.campaign_ms", spanMedianMs(tr, "faults.campaign"), "ms");
    double campaignMs = 0.0;
    for (const Span &s : tr.spans()) {
        if (s.name == "faults.campaign")
            campaignMs += s.durMs();
    }
    m.add("faults.trial_ms", ratio(campaignMs, double(t.campaignTrials)),
          "ms");
}

/** Per-layer metrics from the untraced timed phase. */
void
phaseMetrics(Metrics &m, const Phase &phase, const std::vector<Line> &lines)
{
    std::vector<double> server, queue, byKind[7];
    for (const Record &rec : phase.records) {
        const Line &line = lines[rec.line];
        byKind[size_t(line.kind)].push_back(rec.latencyMs);
        const Json doc = Json::parse(rec.response);
        if (!doc.contains("latency_ms"))
            continue;
        const double latency = doc.at("latency_ms").asDouble();
        server.push_back(latency);
        if (line.kind != Kind::Cached)
            queue.push_back(latency - 1000.0 * number(doc, "host.seconds"));
    }
    // The server reports latency_ms in whole (truncated) milliseconds,
    // so these three are means: a median of sub-ms values would read 0.
    m.add("service.server_ms", mean(server), "ms");
    m.add("service.queue_wait_ms", mean(queue), "ms");
    m.add("service.wire_ms", mean(phase.wireMs), "ms");
    for (const Kind kind : {Kind::Functional, Kind::Inline,
                            Kind::Warmstart, Kind::Campaign,
                            Kind::Cached}) {
        m.add(std::string("service.") + kindName(kind) + "_ms_p50",
              median(byKind[size_t(kind)]), "ms");
    }
    m.add("loadgen.lag_ms_p99", percentile(phase.lagMs, 99.0), "ms");
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver gen --workload W --seed N "
                 "--seconds S --out FILE\n"
                 "       perfbench_driver run --workload W --requests "
                 "FILE --seconds S --trace 0|1 [--trace-out FILE] "
                 "[--work-out FILE]\n");
    std::exit(2);
}

std::map<std::string, std::string>
parseFlags(int argc, char **argv)
{
    std::map<std::string, std::string> flags;
    for (int i = 2; i < argc; i += 2) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0 || i + 1 >= argc)
            usage();
        flags[arg.substr(2)] = argv[i + 1];
    }
    return flags;
}

std::string
need(const std::map<std::string, std::string> &flags,
     const std::string &name)
{
    auto it = flags.find(name);
    if (it == flags.end())
        usage();
    return it->second;
}

int
cmdGen(const std::map<std::string, std::string> &flags)
{
    const WorkloadDef &def = workloadDef(need(flags, "workload"));
    const std::vector<std::string> lines = generateRequests(
        def, std::stoull(need(flags, "seed")),
        std::stod(need(flags, "seconds")));
    std::ofstream out(need(flags, "out"));
    for (const std::string &line : lines)
        out << line << "\n";
    if (!out)
        fatal("perfbench: cannot write the request file");
    return 0;
}

int
cmdRun(const std::map<std::string, std::string> &flags)
{
    const WorkloadDef &def = workloadDef(need(flags, "workload"));
    const double seconds = std::stod(need(flags, "seconds"));
    const bool trace = need(flags, "trace") == "1";
    std::vector<std::string> texts;
    {
        std::ifstream in(need(flags, "requests"));
        if (!in)
            fatal("perfbench: cannot read the request file");
        std::string text;
        while (std::getline(in, text)) {
            if (!text.empty())
                texts.push_back(text);
        }
    }
    const std::vector<Line> lines = analyse(texts);
    const std::vector<std::string> keys = programKeys(lines);

    // 1. Set-up, each round timed at the reference host speed.
    HostProbe probe;
    std::unique_ptr<SimSession> session;
    std::unique_ptr<SimServer> server;
    std::vector<double> setups, rawSetups;
    for (int round = 0; round < kSetupRounds; ++round) {
        const double before = probe.sample();
        rawSetups.push_back(def.loop == Loop::Open
                                ? setupServer(server, keys)
                                : setupSession(session, keys));
        setups.push_back(rawSetups.back() /
                         (0.5 * (before + probe.sample())));
    }

    // 2. The timed phase.
    Phase phase = def.loop == Loop::Open
                      ? runOpen(*server, lines, def.rate)
                      : runClosed(*session, lines, seconds, probe);
    const double rssMb = peakRssMb();
    if (server) {
        server->requestShutdown();
        if (server->wait() != 0)
            fatal("perfbench: server exited nonzero");
    }
    if (!phase.valid) {
        std::fprintf(stderr, "perfbench: INVALID open-loop run: %s\n",
                     phase.invalidReason.c_str());
        return 3;
    }

    Checks checks;
    checkRecords(checks, lines, phase.records);

    // 3. The traced pass over the same requests.
    Traced traced;
    Phase untracedTwin;
    if (trace) {
        std::vector<size_t> order;
        for (const Record &rec : phase.records)
            order.push_back(rec.line);
        if (def.loop == Loop::Open) {
            untracedTwin = runTwin(lines, keys, order);
            checkRecords(checks, lines, untracedTwin.records);
        }
        runTraced(traced, lines, order, def.loop == Loop::Open);
        runProbes(traced, lines);
        checkRecords(checks, lines, traced.records);
        if (flags.count("trace-out")) {
            std::ofstream out(flags.at("trace-out"));
            out << chromeTrace(traced.tracer) << "\n";
        }
    }

    // 4. The output oracle.
    runOracle(checks, lines);

    const Json work = workCounters(checks, phase.cacheHits);
    std::printf("work %s\n", work.dump().c_str());
    if (flags.count("work-out")) {
        std::ofstream out(flags.at("work-out"));
        out << work.dump(2) << "\n";
    }

    // 5. The result. A failed check on one request (its own failure,
    // a repeat or traced response differing from its first, or an
    // oracle mismatch) fails every measured request that carried it.
    const uint64_t attempted = checks.attempted;
    uint64_t failed = 0;
    for (const std::vector<Record> *records :
         {&phase.records, &untracedTwin.records, &traced.records}) {
        for (const Record &rec : *records)
            failed += checks.badKeys.count(lines[rec.line].key);
    }

    Metrics m;
    if (!trace) {
        std::vector<double> latencies;
        uint64_t insts = 0;
        double refMs = 0.0;
        for (const Record &rec : phase.records) {
            latencies.push_back(rec.refMs);
            insts += dynInsts(rec.response);
            refMs += rec.refMs;
        }
        // The open loop's time is its schedule's, not the host's.
        const double timedMs =
            def.loop == Loop::Open ? phase.wallMs : refMs;
        m.add("setup_s", median(setups), "s");
        m.add("guest_mips", ratio(double(insts), timedMs * 1000.0),
              "Minst/s");
        m.add("request_ms_p50", median(latencies), "ms");
        m.add("request_ms_tail", percentile(latencies, def.tailPct), "ms");
        m.add("peak_rss_mb", rssMb, "MiB");
        const double beyond =
            double(latencies.size()) * (100.0 - def.tailPct) / 100.0;
        std::fprintf(stderr,
                     "perfbench: %s: %zu requests, tail = p%g (%.0f "
                     "samples beyond%s), failed_frac %.4f; at the host's "
                     "own speed: guest MIPS %.2f, setup %.4f s\n",
                     def.name.c_str(), latencies.size(), def.tailPct,
                     beyond, beyond < 10.0 ? ": TOO FEW" : "",
                     ratio(double(failed), double(attempted)),
                     ratio(double(insts), phase.wallMs * 1000.0),
                     median(rawSetups));
    } else {
        counterMetrics(m, work, checks);
        spanMetrics(m, traced, checks, lines);
        phaseMetrics(m, phase, lines);
        const double untracedMs = def.loop == Loop::Open
                                      ? untracedTwin.wallMs
                                      : phase.wallMs;
        m.add("trace.overhead_frac", ratio(traced.wallMs, untracedMs) - 1.0,
              "ratio");
        m.add("trace.coverage_frac", reportSelfTime(traced.tracer),
              "ratio");
    }

    const bool correct = checks.badKeys.empty();
    Json result = Json::object();
    result["correct"] = Json(correct);
    result["attempted"] = Json(attempted);
    result["failed"] = Json(failed);
    result["metrics"] = m.doc;
    std::printf("%s\n", result.dump().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    if (argc < 2)
        perfbench::usage();
    const std::string cmd = argv[1];
    try {
        const auto flags = perfbench::parseFlags(argc, argv);
        if (cmd == "gen")
            return perfbench::cmdGen(flags);
        if (cmd == "run")
            return perfbench::cmdRun(flags);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
    perfbench::usage();
}
