#include "perfbench/gen.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/json.hpp"
#include "src/common/logging.hpp"
#include "src/common/rng.hpp"
#include "src/workloads/generator.hpp"
#include "src/workloads/workloads.hpp"

using dise::Json;
using dise::Rng;

namespace perfbench {

namespace {

/** @name Workload shape constants. */
/// @{
/** functional_suite: whole-program runs, long enough that steady-state
 *  interpretation dominates translation. */
constexpr double kSuiteScale = 0.5;
constexpr uint64_t kSuiteBudget = 1500000;
/** timing. */
constexpr double kTimingScale = 0.5;
constexpr uint64_t kTimingBudget = 400000;
constexpr uint64_t kSamplePeriod = 10000;
constexpr uint64_t kSampleDetail = 2000;
/** serve_mixed. */
constexpr uint64_t kWarmupInsts = 60000;
constexpr double kCampaignScale = 0.02;
constexpr uint64_t kCampaignTrials = 6;
/// @}

/** The timing profiles: text inside the 32 KB L1I (bzip2, twolf),
 *  text overflowing it (crafty, vpr, gzip), pointer chasing (mcf). */
const std::vector<std::string> kTimingProfiles = {
    "bzip2", "twolf", "crafty", "vpr", "gzip", "mcf"};

/** A production set for inline programs: count stores in $dr1. It
 *  leaves the program's architectural output unchanged. */
const char *const kCountStores = "P1: class == store -> R1\n"
                                 "R1: addq $dr1, #1, $dr1\n"
                                 "    T.INSN\n";

Json
acf(const char *kind, const char *variant = nullptr,
    const char *compose = nullptr)
{
    Json spec = Json::object();
    spec["kind"] = Json(kind);
    if (variant)
        spec["variant"] = Json(variant);
    if (compose)
        spec["compose"] = Json(compose);
    return spec;
}

Json
acfList(std::initializer_list<Json> specs)
{
    Json list = Json::array();
    for (const Json &spec : specs)
        list.push_back(spec);
    return list;
}

/** Budget jittered by +-5% around @p budget. */
uint64_t
jitter(Rng &rng, uint64_t budget)
{
    return uint64_t(std::llround(double(budget) *
                                 (0.95 + 0.1 * rng.uniform())));
}

template <typename T>
void
shuffle(Rng &rng, std::vector<T> &items)
{
    for (size_t i = 0; i + 1 < items.size(); ++i) {
        const size_t j = i + size_t(rng.below(items.size() - i));
        std::swap(items[i], items[j]);
    }
}

std::vector<std::string>
dumpAll(std::vector<Json> &docs)
{
    std::vector<std::string> lines;
    for (size_t i = 0; i < docs.size(); ++i) {
        docs[i]["id"] = Json("r" + std::to_string(i));
        lines.push_back(docs[i].dump());
    }
    return lines;
}

std::vector<std::string>
functionalSuite(Rng &rng)
{
    const std::vector<Json> envs = {
        Json::array(),
        acfList({acf("mfi", "dise3")}),
        acfList({acf("mfi", "dise4"), acf("watchpoint", nullptr, "merged")}),
        acfList({acf("compress")}),
        acfList({acf("rewrite_mfi")}),
        acfList({acf("fusion")}),
    };
    std::vector<Json> docs;
    for (const dise::WorkloadSpec &spec : dise::spec2000()) {
        for (const Json &env : envs) {
            Json doc = Json::object();
            doc["workload"] = Json(spec.name);
            doc["scale"] = Json(kSuiteScale);
            doc["acfs"] = env;
            docs.push_back(std::move(doc));
        }
    }
    shuffle(rng, docs);
    for (Json &doc : docs)
        doc["max_insts"] = Json(jitter(rng, kSuiteBudget));
    return dumpAll(docs);
}

/**
 * Full-detail requests (mfi or fusion) and sampled requests (mfi or no
 * ACFs: fusion cannot be sampled, because sampling units count single
 * retired instructions) over the same profiles, interleaved.
 */
std::vector<std::string>
timing(Rng &rng)
{
    std::vector<Json> docs;
    for (const std::string &name : kTimingProfiles) {
        for (const bool sampled : {false, true}) {
            for (const bool mfi : {true, false}) {
                Json doc = Json::object();
                doc["workload"] = Json(name);
                doc["scale"] = Json(kTimingScale);
                doc["mode"] = Json("timing");
                if (mfi)
                    doc["acfs"] = acfList({acf("mfi", "dise3")});
                else if (!sampled)
                    doc["acfs"] = acfList({acf("fusion")});
                if (sampled) {
                    doc["sample_period"] = Json(kSamplePeriod);
                    doc["sample_detail"] = Json(kSampleDetail);
                }
                docs.push_back(std::move(doc));
            }
        }
    }
    shuffle(rng, docs);
    for (Json &doc : docs)
        doc["max_insts"] = Json(jitter(rng, kTimingBudget));
    return dumpAll(docs);
}

std::vector<std::string>
serveMixed(Rng &rng, uint64_t seed, size_t count)
{
    const std::vector<dise::WorkloadSpec> &profiles = dise::spec2000();
    const std::vector<std::string> warmProfiles = {"bzip2", "gcc",
                                                   "parser"};
    // Campaign profiles whose golden runs are short at this scale, so a
    // campaign costs a few milliseconds and the tail reflects serving,
    // not one unlucky trial plan.
    const std::vector<std::string> campaignProfiles = {"bzip2", "twolf",
                                                       "parser", "mcf"};
    std::vector<Json> docs;
    for (size_t i = 0; i < count; ++i) {
        const double pick = rng.uniform();
        Json doc = Json::object();
        if (pick < 0.15 && !docs.empty()) {
            // Exact repeat of an earlier request: an idempotent
            // result-cache hit on the server.
            doc = docs[size_t(rng.below(docs.size()))];
        } else if (pick < 0.50) {
            doc["workload"] =
                Json(profiles[size_t(rng.below(profiles.size()))].name);
            if (rng.chance(0.5))
                doc["acfs"] = acfList({acf("mfi", "dise3")});
            // Distinct budgets so these miss the result cache.
            doc["max_insts"] =
                Json(uint64_t(20000 + 1000 * rng.below(80) + i));
        } else if (pick < 0.75) {
            dise::GeneratorOptions opts;
            opts.seed = Rng::deriveSeed(seed, i);
            doc["source"] = Json(dise::generateRandomSource(opts));
            if (rng.chance(0.5))
                doc["productions"] = Json(kCountStores);
        } else if (pick < 0.90) {
            doc["workload"] = Json(
                warmProfiles[size_t(rng.below(warmProfiles.size()))]);
            doc["warmup_insts"] = Json(kWarmupInsts);
            doc["max_insts"] = Json(
                uint64_t(kWarmupInsts + 20000 + 100 * rng.below(200) + i));
        } else {
            doc["workload"] = Json(campaignProfiles[size_t(
                rng.below(campaignProfiles.size()))]);
            doc["scale"] = Json(kCampaignScale);
            doc["mode"] = Json("campaign");
            doc["trials"] = Json(uint64_t(kCampaignTrials));
            doc["seed"] = Json(uint64_t(1 + rng.below(1u << 20)));
        }
        docs.push_back(std::move(doc));
    }
    return dumpAll(docs);
}

} // namespace

const WorkloadDef &
workloadDef(const std::string &name)
{
    static const std::vector<WorkloadDef> table = {
        {"functional_suite", Loop::Closed, 97.0, 0.0},
        {"timing", Loop::Closed, 97.0, 0.0},
        {"serve_mixed", Loop::Open, 97.0, 100.0},
    };
    for (const WorkloadDef &def : table) {
        if (def.name == name)
            return def;
    }
    dise::fatal("perfbench: unknown workload \"" + name + "\"");
}

std::vector<std::string>
generateRequests(const WorkloadDef &def, uint64_t seed, double seconds)
{
    uint64_t salt = 0;
    for (const char c : def.name)
        salt = salt * 131 + uint8_t(c);
    Rng rng(Rng::deriveSeed(seed, salt));
    if (def.name == "functional_suite")
        return functionalSuite(rng);
    if (def.name == "timing")
        return timing(rng);
    const size_t count =
        size_t(std::max(1.0, std::ceil(def.rate * seconds)));
    return serveMixed(rng, seed, count);
}

} // namespace perfbench
