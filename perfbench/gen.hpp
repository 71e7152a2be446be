/**
 * @file
 * The benchmark's seeded request generator and workload table.
 *
 * Each workload is a list of RunRequest JSON lines. generateRequests()
 * derives every choice from the seed (profile order, ACF mix, budget
 * jitter, campaign seeds, random-program seeds), so one seed always
 * yields byte-identical lines. `perfbench_driver gen` writes them to a
 * file before `perfbench_driver run` starts, so the measured process
 * sees only the generated lines.
 */

#ifndef PERFBENCH_GEN_HPP
#define PERFBENCH_GEN_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** How a workload's requests reach the simulator. */
enum class Loop : uint8_t {
    Closed, ///< one in-process client, next request after the reply
    Open,   ///< fixed-rate sender to an in-process SimServer
};

/** The fixed shape of one named workload. */
struct WorkloadDef
{
    std::string name;
    Loop loop = Loop::Closed;
    /** Tail percentile reported as request_ms_tail. */
    double tailPct = 90.0;
    /** Open loop: offered requests per second. */
    double rate = 0.0;
};

/** The named workload's shape; fatal() on an unknown name. */
const WorkloadDef &workloadDef(const std::string &name);

/**
 * The request lines of one run. Closed-loop lists are cycled whole
 * until the run's time is up; the open-loop list is sent once, so it
 * holds rate x seconds lines.
 */
std::vector<std::string> generateRequests(const WorkloadDef &def,
                                          uint64_t seed,
                                          double seconds);

} // namespace perfbench

#endif // PERFBENCH_GEN_HPP
