/**
 * @file
 * Golden timing registries: the full --stats-json registry (everything
 * but the host section) of a few small timing runs, pinned to values
 * recorded from an earlier build in tests/golden/timing_registries.json.
 *
 * The trace feed and the step-driven reference share every cache,
 * predictor and register accessor, so feed-vs-step identity alone
 * cannot catch a change to what those accessors compute or count. These
 * fixed registries can: any drift in cycles, buckets, cache or
 * predictor counters, or in which keys a registry carries, fails here.
 *
 * The JSON file was written by `diserun --stats-json` with the host
 * section dropped; regenerate it only for a deliberate timing-model
 * change, and say so where the change is described.
 */

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/common/json.hpp"
#include "src/common/logging.hpp"
#include "src/service/runner.hpp"

namespace dise {
namespace {

/** The golden document: one registry per case name. */
const Json &
golden()
{
    static const Json doc = [] {
        std::ifstream in(DISE_GOLDEN_DIR "/timing_registries.json");
        EXPECT_TRUE(in.good()) << "cannot read the golden registries";
        std::stringstream text;
        text << in.rdbuf();
        return Json::parse(text.str());
    }();
    return doc;
}

/** Flatten a registry to "dotted.path" -> rendered leaf value. */
void
flatten(const Json &node, const std::string &path,
        std::map<std::string, std::string> &out)
{
    if (node.isObject()) {
        for (const auto &kv : node.members())
            flatten(kv.second, path.empty() ? kv.first
                                            : path + "." + kv.first,
                    out);
    } else {
        out[path] = node.dump();
    }
}

/** The registry of one timing run, minus its host section. */
std::map<std::string, std::string>
timingRegistry(const RunRequest &req)
{
    const PreparedJob job = prepareJob(req);
    SimOptions opts;
    opts.registry = true;
    const TimingOutcome out = runTimingSim(job, opts);
    std::map<std::string, std::string> flat;
    for (const auto &kv : out.registry.members())
        if (kv.first != "host")
            flatten(kv.second, kv.first, flat);
    return flat;
}

void
expectGolden(const std::string &name, const RunRequest &req)
{
    SCOPED_TRACE(name);
    std::map<std::string, std::string> want;
    flatten(golden().at(name), "", want);
    ASSERT_FALSE(want.empty());
    const std::map<std::string, std::string> got = timingRegistry(req);
    for (const auto &kv : want) {
        const auto it = got.find(kv.first);
        if (it == got.end())
            ADD_FAILURE() << "missing key " << kv.first;
        else
            EXPECT_EQ(it->second, kv.second) << kv.first;
    }
    for (const auto &kv : got)
        EXPECT_TRUE(want.count(kv.first)) << "extra key " << kv.first;
}

RunRequest
workloadRequest(const std::string &workload)
{
    RunRequest req;
    req.workload = workload;
    req.scale = 0.05;
    req.mode = RunMode::Timing;
    return req;
}

RunRequest
withAcf(RunRequest req, const std::string &kind)
{
    req.acfs = {AcfSpec{kind, "", AcfCompose::Append}};
    req.acfsExplicit = true;
    return req;
}

TEST(TimingGolden, FullDetailMfi)
{
    for (const char *w : {"bzip2", "mcf", "crafty"})
        expectGolden(std::string(w) + "/mfi", withAcf(workloadRequest(w),
                                                      "mfi"));
}

TEST(TimingGolden, FullDetailFusion)
{
    for (const char *w : {"bzip2", "mcf", "crafty"})
        expectGolden(std::string(w) + "/fusion",
                     withAcf(workloadRequest(w), "fusion"));
}

TEST(TimingGolden, SampledNoAcf)
{
    for (const char *w : {"bzip2", "mcf", "crafty"}) {
        RunRequest req = workloadRequest(w);
        req.samplePeriod = 10000;
        req.sampleDetail = 2000;
        expectGolden(std::string(w) + "/sampled", req);
    }
}

/**
 * A store-free, branch-free program still reports the L1D's accesses
 * and writes and the predictor's predictions and updates, at zero, on
 * both delivery paths: the registry's key set does not depend on what
 * the program happened to exercise.
 */
TEST(TimingGolden, ZeroCountersKeptOnStraightLineCode)
{
    RunRequest req;
    req.mode = RunMode::Timing;
    req.source = ".text\n"
                 "main:\n"
                 "    li 7, t0\n"
                 "    li 5, t1\n"
                 "    addq t0, t1, t2\n"
                 "    mulq t2, t1, t3\n"
                 "    subq t3, t0, t4\n"
                 "    xor t4, t2, t5\n"
                 "    li 0, v0\n"
                 "    li 0, a0\n"
                 "    syscall\n";
    for (const bool feed : {true, false}) {
        SCOPED_TRACE(feed ? "trace feed" : "step-driven");
        req.traceFeed = feed;
        expectGolden("straight", req);
        const auto got = timingRegistry(req);
        for (const char *key :
             {"mem.l1d.accesses", "mem.l1d.writes", "bpred.predictions",
              "bpred.updates"}) {
            ASSERT_TRUE(got.count(key)) << key;
            EXPECT_EQ(got.at(key), "0") << key;
        }
        EXPECT_TRUE(got.count("mem.l1i.accesses"));
    }
}

} // namespace
} // namespace dise
