/**
 * @file
 * SimServer — a hardened multi-tenant simulation daemon.
 *
 * `diserun --serve --listen <addr:port|unix:path>` starts a
 * long-running process that accepts newline-delimited JSON (NDJSON)
 * requests over a socket and multiplexes every client onto one
 * process-wide SimSession, so concurrent clients share the workload
 * program cache, the warm-start snapshot cache, and the scheduler's
 * worker pool instead of paying cold-start costs per request.
 *
 * ## Wire protocol
 *
 * Each request is one line: a RunRequest JSON object plus optional
 * envelope keys, which are stripped before RunRequest parsing:
 *
 *   - "kind": "run" (default) executes the request; "stats" returns
 *     the live server StatsRegistry without queuing.
 *   - "deadline_ms": wall-clock budget for this request, measured
 *     from admission. 0 or absent falls back to the server default.
 *
 * Each response is one line, correlated by "seq" (the 1-based line
 * number on that connection) and carrying "status":
 *
 *   - "ok"                the run's RunResponse fields, plus
 *                         "latency_ms" (admission to response, in
 *                         fractional milliseconds)
 *   - "error"             the request was structurally valid JSON but
 *                         failed validation or execution (FatalError);
 *                         carries ok=false and the error text
 *   - "overloaded"        admission control shed the request; carries
 *                         "retry_after_ms" (grows with queue depth)
 *   - "deadline_exceeded" the deadline passed while queued, or the
 *                         cooperative cancel flag ended the run early
 *   - "malformed"         the line was not a JSON object (parse error,
 *                         bad envelope types)
 *   - "oversized"         the line exceeded the byte cap; the rest of
 *                         the line is discarded, the connection lives
 *   - "shutting_down"     received or still queued during drain
 *
 * ## Robustness properties
 *
 *   - Admission control and backpressure: bounded per-client and
 *     global pending queues; over either bound the request is shed
 *     immediately with a structured "overloaded" response. Admitted
 *     work is scheduled by deficit round-robin across connections
 *     (a campaign costs its trial count, capped), so one client
 *     flooding cheap or expensive requests cannot starve another.
 *   - Deadlines: a monitor thread trips each job's atomic cancel
 *     flag at its deadline; the simulator polls the flag at basic-
 *     block boundaries (ExecCore::setCancelFlag), so a runaway or
 *     hostile guest ends within microseconds of its budget without
 *     any non-cooperative thread kill.
 *   - Fault isolation: FatalError (bad request, trapped warmup,
 *     failed golden run) fails only that request; the connection and
 *     daemon live on. PanicError (a simulator invariant violation)
 *     writes a crash report, cancels all in-flight work, and stops
 *     the server; wait() then returns 2, matching the CLI convention.
 *   - Graceful drain: requestShutdown() (SIGTERM/SIGINT in diserun)
 *     stops accepting, finishes in-flight and queued work within the
 *     drain timeout, cancels whatever remains, flushes responses, and
 *     closes connections.
 *   - Idempotent retries: results are cached in a single-flight map
 *     keyed on the canonical request body (id excluded), so a client
 *     retrying after a lost response gets the cached result instead
 *     of a re-execution, and concurrent identical requests execute
 *     once. Failures are never cached (retryFailures), so a request
 *     cancelled at its deadline does not poison the key. The cache is
 *     bounded (maxCachedResults, LRU eviction): entries only need to
 *     live long enough to cover client retry windows, so a flood of
 *     unique request bodies cannot grow memory without bound.
 *
 * Responses for well-formed, in-budget requests are bit-identical to
 * the NDJSON lines `diserun --batch` emits for the same requests,
 * modulo the serving envelope (seq/status/latency_ms) and the
 * host-dependent host section — the serve_gauntlet CI job asserts
 * exactly this.
 */

#ifndef DISE_SERVICE_SERVER_HPP
#define DISE_SERVICE_SERVER_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "src/common/singleflight.hpp"
#include "src/common/stats.hpp"
#include "src/service/session.hpp"

namespace dise {

/** Serving configuration (all knobs have serving-safe defaults). */
struct ServerConfig
{
    /** "host:port" (":0" = loopback, ephemeral) or "unix:/path". */
    std::string listen = ":0";
    /** SimSession worker threads (campaign trial fan-out). */
    unsigned workers = 1;
    /** Concurrent request executors (jobs running at once). */
    unsigned executors = 2;
    /** Global admitted-but-not-finished cap (queued + in-flight);
     *  at it, further requests shed. */
    size_t maxPending = 64;
    /** Per-connection queued cap; above it that client sheds. */
    size_t maxPendingPerClient = 16;
    /** Default wall-clock budget for requests that carry none;
     *  0 = unlimited. */
    uint64_t defaultDeadlineMs = 0;
    /** Cycle/instruction budget imposed on requests that carry none
     *  (maxInsts left at its unlimited default); 0 = leave as-is. */
    uint64_t defaultMaxInsts = 0;
    /** Drain budget for in-flight + queued work at shutdown. */
    uint64_t drainTimeoutMs = 5000;
    /** Request-line byte cap; longer lines get "oversized". */
    size_t maxLineBytes = 1 << 20;
    /** Deficit round-robin quantum added per scheduling visit. */
    uint32_t drrQuantum = 4;
    /** Idempotent result-cache entry cap (LRU eviction beyond it);
     *  entries only need to outlive client retry windows. 0 = never
     *  evict. */
    size_t maxCachedResults = 1024;
};

/**
 * The daemon. start() binds and spawns the listener, executor,
 * and deadline-monitor threads; requestShutdown() begins a graceful
 * drain (idempotent, callable from any thread); wait() blocks until
 * the drain completes and returns the process exit code (0 clean,
 * 2 after a PanicError). Tests drive it in-process: start(), connect
 * to port(), exchange NDJSON, requestShutdown(), wait().
 */
class SimServer
{
  public:
    explicit SimServer(const ServerConfig &config);
    ~SimServer();

    SimServer(const SimServer &) = delete;
    SimServer &operator=(const SimServer &) = delete;

    /** Bind the listen address and spawn threads; fatal() on error. */
    void start();

    /** Resolved TCP port (after start(); 0 for unix sockets). */
    int port() const { return port_; }

    /** Actually-bound TCP address, e.g. "127.0.0.1" or "0.0.0.0"
     *  (after start(); empty for unix sockets). */
    const std::string &host() const { return host_; }

    /** True once a drain has begun (signal, panic, or shutdown). */
    bool stopping() const;

    /** Begin a graceful drain; safe to call more than once. */
    void requestShutdown();

    /** Join everything; returns the exit code. Call exactly once. */
    int wait();

    /** The live stats document the "stats" request kind returns. */
    Json statsJson() const;

  private:
    struct Connection;

    /** One admitted request, owned jointly by the queues, the
     *  deadline heap, and the executor running it. */
    struct Job
    {
        RunRequest req;
        uint64_t seq = 0;
        std::string cacheKey;
        uint32_t cost = 1;
        std::shared_ptr<Connection> conn;
        std::chrono::steady_clock::time_point admitted;
        std::chrono::steady_clock::time_point deadline;
        std::atomic<bool> cancel{false};
    };

    void listenerLoop();
    void readerLoop(std::shared_ptr<Connection> conn);
    void executorLoop();
    void deadlineLoop();

    /** Parse/dispatch one request line from @p conn. */
    void handleLine(const std::shared_ptr<Connection> &conn,
                    uint64_t seq, const std::string &line);
    /** Admission control; responds immediately when shedding. */
    void admit(const std::shared_ptr<Connection> &conn,
               std::shared_ptr<Job> job);
    /** Execute one admitted job and write its response. */
    void executeJob(const std::shared_ptr<Job> &job);

    /** Serialize @p doc as one NDJSON line to the connection. */
    void respond(const std::shared_ptr<Connection> &conn,
                 const Json &doc);
    /** Status-only response envelope. */
    Json envelope(uint64_t seq, const char *status) const;
    void bumpStat(const char *key, uint64_t delta = 1);

    const ServerConfig config_;
    SimSession session_;

    int listenFd_ = -1;
    int port_ = 0;
    std::string host_; ///< bound TCP address (empty for unix sockets)
    std::string unixPath_; ///< bound unix socket path (unlinked on exit)
    int wakePipe_[2] = {-1, -1}; ///< nudges the listener's poll()

    mutable std::mutex mutex_;
    std::condition_variable execCv_;    ///< executors wait for work
    std::condition_variable drainCv_;   ///< wait() waits for quiesce
    std::condition_variable deadlineCv_; ///< deadline monitor waits

    bool draining_ = false;  ///< stop accepting, finish what's queued
    bool abandon_ = false;   ///< drain timed out: shed queued, cancel
    bool stopThreads_ = false;
    bool panicked_ = false;

    size_t pending_ = 0;  ///< admitted, not yet picked by an executor
    size_t inflight_ = 0; ///< currently executing
    /** Connections with nonempty queues, in DRR visit order. */
    std::deque<std::shared_ptr<Connection>> ready_;
    std::vector<std::shared_ptr<Connection>> connections_;
    std::vector<Job *> running_; ///< jobs to cancel on abandon
    uint64_t nextConnId_ = 0;

    /** Deadline min-heap: earliest deadline on top. */
    using DeadlineEntry =
        std::pair<std::chrono::steady_clock::time_point,
                  std::weak_ptr<Job>>;
    struct DeadlineLater
    {
        bool
        operator()(const DeadlineEntry &a, const DeadlineEntry &b) const
        {
            return a.first > b.first;
        }
    };
    std::priority_queue<DeadlineEntry, std::vector<DeadlineEntry>,
                        DeadlineLater>
        deadlines_;

    /** Idempotent result cache: canonical request body -> response
     *  JSON. Failures retry (a deadline-cancelled run must not poison
     *  its key); bounded at config_.maxCachedResults with LRU
     *  eviction, so read only via getCopy(). Sized in the
     *  constructor. */
    SingleFlightCache<std::string, std::string> results_;

    mutable std::mutex statsMutex_;
    mutable StatGroup stats_{"server"}; ///< statsJson() sets gauges

    std::thread listener_;
    std::vector<std::thread> executors_;
    std::thread deadliner_;
    std::vector<std::thread> readers_;
};

} // namespace dise

#endif // DISE_SERVICE_SERVER_HPP
