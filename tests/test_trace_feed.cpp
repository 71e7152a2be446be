/**
 * @file
 * Trace-feed correctness tests: the batched retire-trace sink must be
 * a bit-identical replacement for step()-per-instruction delivery —
 * record-by-record at the ExecCore level, and cycles / buckets / every
 * registry stat at the PipelineSim level — across budgets expiring
 * mid-batch, snapshots at batch and sample boundaries, and sampled
 * runs. Also pins the inline fast register helpers the feed's hazard
 * walk uses to their out-of-line reference implementations over the
 * whole opcode space.
 */

#include <gtest/gtest.h>

#include "src/acf/mfi.hpp"
#include "src/assembler/assembler.hpp"
#include "src/common/logging.hpp"
#include "src/common/stats.hpp"
#include "src/pipeline/pipeline.hpp"
#include "src/service/runner.hpp"
#include "src/service/session.hpp"
#include "src/sim/snapshot.hpp"
#include "src/workloads/workloads.hpp"

namespace dise {
namespace {

const char *kEpilogue = "    li 0, v0\n    li 0, a0\n    syscall\n"
                        "error:\n"
                        "    li 0, v0\n    li 42, a0\n    syscall\n";

std::unique_ptr<DiseController>
mfiController(const Program &prog)
{
    auto controller = std::make_unique<DiseController>(DiseConfig{});
    controller->install(std::make_shared<const ProductionSet>(
        makeMfiProductions(prog, MfiOptions{})));
    return controller;
}

/**
 * Loads, stores (to a legal .data buffer — MFI checks them), a
 * multiply, a call/return pair, and a data-dependent branch that flips
 * direction as the stored value evolves: every DynInst field class and
 * both predictor outcomes get exercised.
 */
Program
mixedProgramWithHelper(int iters)
{
    return assemble(
        strFormat(".text\nmain:\n    laq buf, t5\n    li %d, t0\n",
                  iters) +
        "loop:\n"
        "    ldq t2, 0(t5)\n"
        "    mulq t2, 3, t3\n"
        "    stq t3, 0(t5)\n"
        "    cmplt t3, 100, t4\n"
        "    beq t4, skip\n"
        "    addq t6, 1, t6\n"
        "skip:\n"
        "    bsr ra, helper\n"
        "    subq t0, 1, t0\n"
        "    bne t0, loop\n" +
        std::string(kEpilogue) +
        "helper:\n"
        "    xor t7, t6, t7\n"
        "    ret\n"
        ".data\nbuf:\n    .quad 1\n");
}

bool
sameRecord(const DynInst &a, const DynInst &b)
{
    // Field-wise, not encode(): DISE-synthesized instructions use
    // dedicated registers that have no application encoding.
    return a.pc == b.pc && a.memAddr == b.memAddr &&
           a.actualTarget == b.actualTarget &&
           a.inst.op == b.inst.op && a.inst.cls == b.inst.cls &&
           a.inst.ra == b.inst.ra && a.inst.rb == b.inst.rb &&
           a.inst.rc == b.inst.rc && a.inst.useLit == b.inst.useLit &&
           a.inst.imm == b.inst.imm && a.inst.tag == b.inst.tag &&
           a.inst.raw == b.inst.raw && a.missPenalty == b.missPenalty &&
           a.disepc == b.disepc && a.seqLen == b.seqLen &&
           a.diseTarget == b.diseTarget &&
           a.seqPredClass == b.seqPredClass &&
           a.expanded == b.expanded && a.triggerSlot == b.triggerSlot &&
           a.firstOfSeq == b.firstOfSeq && a.lastOfSeq == b.lastOfSeq &&
           a.ptMiss == b.ptMiss && a.rtMiss == b.rtMiss &&
           a.isAppControl == b.isAppControl && a.taken == b.taken &&
           a.isMem == b.isMem && a.isStore == b.isStore &&
           a.isSyscall == b.isSyscall;
}

/** Drain a core through fillTrace with the given ring capacity. */
std::vector<DynInst>
drainViaFill(ExecCore &core, size_t cap)
{
    std::vector<DynInst> out;
    std::vector<DynInst> ring(cap);
    while (true) {
        const size_t n = core.fillTrace(ring.data(), cap);
        if (n == 0)
            break;
        out.insert(out.end(), ring.begin(), ring.begin() + n);
    }
    return out;
}

std::vector<DynInst>
drainViaStep(ExecCore &core)
{
    std::vector<DynInst> out;
    DynInst dyn;
    while (core.step(dyn))
        out.push_back(dyn);
    return out;
}

/**
 * The feed's records must equal step()'s. Batches that stop mid-block
 * re-enter the stopped block through the resume cursor, so the feed
 * also translates exactly the blocks a functional run() does.
 */
void
expectSameStream(const Program &prog, bool mfi, size_t ringCap)
{
    std::unique_ptr<DiseController> cf, cs, cr;
    if (mfi) {
        cf = mfiController(prog);
        cs = mfiController(prog);
        cr = mfiController(prog);
    }
    ExecCore feed(prog, cf.get());
    ExecCore step(prog, cs.get());
    ExecCore ran(prog, cr.get());
    if (mfi) {
        initMfiRegisters(feed, prog);
        initMfiRegisters(step, prog);
        initMfiRegisters(ran, prog);
    }
    const std::vector<DynInst> a = drainViaFill(feed, ringCap);
    const std::vector<DynInst> b = drainViaStep(step);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(sameRecord(a[i], b[i]))
            << "record " << i << " pc 0x" << std::hex << a[i].pc
            << " vs 0x" << b[i].pc;
    }
    EXPECT_EQ(feed.result().dynInsts, step.result().dynInsts);
    EXPECT_EQ(feed.result().outcome, step.result().outcome);
    ran.run();
    EXPECT_EQ(feed.traceCacheStats().blocksTranslated,
              ran.traceCacheStats().blocksTranslated);
    EXPECT_GT(feed.traceCacheStats().cursorResumes, 0u);
}

TEST(TraceFeed, FillMatchesStepPlain)
{
    expectSameStream(mixedProgramWithHelper(300), false, 7);
}

TEST(TraceFeed, FillMatchesStepMfi)
{
    // Ring smaller than a replacement sequence forces mid-sequence
    // ring-full exits; a sequence must never be torn.
    expectSameStream(mixedProgramWithHelper(300), true, 3);
    expectSameStream(mixedProgramWithHelper(300), true, 64);
}

// ---------------------------------------------------------------------
// Resume cursor: batches that stop mid-block re-enter the same block.
// ---------------------------------------------------------------------

TEST(TraceFeed, CursorFillMatchesStepOnProfiles)
{
    for (const char *name :
         {"bzip2", "crafty", "gzip", "mcf", "twolf", "vpr"}) {
        const Program prog =
            buildWorkload(scaledSpec(workloadSpec(name), 0.02));
        for (const bool mfi : {false, true}) {
            for (const size_t cap : {size_t(1), size_t(7), size_t(64)}) {
                SCOPED_TRACE(strFormat("%s%s cap %zu", name,
                                       mfi ? " mfi:dise3" : "", cap));
                expectSameStream(prog, mfi, cap);
            }
        }
    }
}

/**
 * A long straight-line loop body (one block per iteration) with a load
 * and a store MFI can expand: a 7-record batch always stops mid-block.
 */
Program
straightLineLoop()
{
    return assemble(".text\nmain:\n    laq buf, t5\n    li 100000, t0\n"
                    "loop:\n"
                    "    addq t1, 1, t1\n"
                    "    addq t2, t1, t2\n"
                    "    xor t3, t2, t3\n"
                    "    ldq t4, 0(t5)\n"
                    "    addq t4, t3, t4\n"
                    "    stq t4, 0(t5)\n"
                    "    sll t1, 3, t6\n"
                    "    or t6, t2, t7\n"
                    "    subq t7, t1, t7\n"
                    "    cmpult t7, t2, t8\n"
                    "    subq t0, 1, t0\n"
                    "    bne t0, loop\n" +
                    std::string(kEpilogue) + ".data\nbuf:\n    .quad 1\n");
}

/**
 * The translated feed and a trace-cache-off twin driven through the
 * same calls: the twin's fillTrace is step() straight into the ring,
 * so every batch must match it record for record.
 */
struct CursorPair
{
    explicit CursorPair(const Program &p)
        : prog(p), cf(std::make_unique<DiseController>(DiseConfig{})),
          cr(std::make_unique<DiseController>(DiseConfig{})),
          feed(prog, cf.get()), ref(prog, cr.get())
    {
        ref.setTraceCacheEnabled(false);
        initMfiRegisters(feed, prog);
        initMfiRegisters(ref, prog);
    }

    /** One batch on both cores; the records must agree. */
    void
    fillBoth(size_t cap)
    {
        std::vector<DynInst> a(cap), b(cap);
        const size_t na = feed.fillTrace(a.data(), cap);
        const size_t nb = ref.fillTrace(b.data(), cap);
        ASSERT_EQ(na, nb);
        ASSERT_EQ(na, cap);
        for (size_t i = 0; i < na; ++i) {
            ASSERT_TRUE(sameRecord(a[i], b[i]))
                << "record " << i << " pc 0x" << std::hex << a[i].pc
                << " vs 0x" << b[i].pc;
        }
    }

    uint64_t resumes() const
    {
        return feed.traceCacheStats().cursorResumes;
    }

    const Program &prog;
    std::unique_ptr<DiseController> cf, cr;
    ExecCore feed, ref;
};

/** Rewrite the text word at @p addr on @p core (decoders flushed). */
void
patchText(ExecCore &core, Addr addr, Word w)
{
    core.memory().write(addr, w, 4);
    core.invalidateDecodeCache();
}

/** The encoding of one instruction. */
Word
encodeOne(const std::string &inst)
{
    return assemble(".text\nmain:\n    " + inst + "\n").text.at(0);
}

TEST(TraceFeed, CursorResumesWhenNothingChanged)
{
    const Program prog = straightLineLoop();
    CursorPair p(prog);
    p.fillBoth(7);
    const uint64_t before = p.resumes();
    for (int i = 0; i < 20; ++i)
        p.fillBoth(7);
    EXPECT_EQ(p.resumes(), before + 20);
}

TEST(TraceFeed, CursorDroppedOnProductionInstall)
{
    // The loop block runs untransformed, then MFI is installed between
    // two batches that split the block: a stale re-entry would run the
    // block's load and store without their expansions.
    const Program prog = straightLineLoop();
    CursorPair p(prog);
    p.fillBoth(7);
    p.fillBoth(7);
    const uint64_t before = p.resumes();
    const auto set = std::make_shared<const ProductionSet>(
        makeMfiProductions(prog, MfiOptions{}));
    p.cf->install(set);
    p.cr->install(set);
    p.fillBoth(7);
    EXPECT_EQ(p.resumes(), before);
    for (int i = 0; i < 20; ++i)
        p.fillBoth(7);
}

TEST(TraceFeed, CursorDroppedOnTextStore)
{
    // Rewrite every word of the loop body between two batches: the
    // stopped block's remaining slots are all stale.
    const Program prog = straightLineLoop();
    CursorPair p(prog);
    p.fillBoth(7);
    p.fillBoth(7);
    const uint64_t before = p.resumes();
    const Addr loop = prog.symbols.at("loop");
    const Word w = encodeOne("addq t9, 7, t9");
    for (Addr a = loop; a < loop + 11 * 4; a += 4) {
        patchText(p.feed, a, w);
        patchText(p.ref, a, w);
    }
    p.fillBoth(7);
    EXPECT_EQ(p.resumes(), before);
    for (int i = 0; i < 20; ++i)
        p.fillBoth(7);
}

TEST(TraceFeed, CursorDroppedOnRestoreSnapshot)
{
    // Restore a snapshot taken at the cursor's own PC but holding
    // different text: the PC matches, the epoch does not.
    const Program prog = straightLineLoop();
    CursorPair p(prog);
    p.fillBoth(7);
    p.fillBoth(7);
    ASSERT_TRUE(p.feed.atAppBoundary());
    const uint64_t before = p.resumes();
    SimSnapshot snap;
    p.feed.saveSnapshot(snap);
    const Addr loop = prog.symbols.at("loop");
    const Word w = encodeOne("addq t9, 7, t9");
    for (Addr a = loop; a < loop + 11 * 4; a += 4)
        snap.memory.write(a, w, 4);
    p.feed.restoreSnapshot(snap);
    p.ref.restoreSnapshot(snap);
    ASSERT_EQ(p.feed.pc(), p.ref.pc());
    p.fillBoth(7);
    EXPECT_EQ(p.resumes(), before);
    for (int i = 0; i < 20; ++i)
        p.fillBoth(7);
}

TEST(TraceFeed, CursorDroppedOnEviction)
{
    // With a one-block cap, a dispatcher lookup between two batches
    // evicts (and, at the next fill, frees) the stopped block. One
    // whole iteration brings pc_ back to the cursor's PC, so only the
    // epoch stamp keeps the feed out of the freed block.
    const Program prog = straightLineLoop();
    CursorPair p(prog);
    for (int i = 0; i < 3; ++i)
        p.fillBoth(7);
    const Addr stopped = p.feed.pc();
    const uint64_t before = p.resumes();
    const uint64_t evictions = p.feed.traceCacheStats().evictions;
    p.feed.setTraceBlockCap(1);
    const uint64_t iter = 12; // loop body length
    p.feed.advanceToAppInst(p.feed.result().appInsts + iter);
    p.ref.advanceToAppInst(p.ref.result().appInsts + iter);
    ASSERT_EQ(p.feed.pc(), stopped);
    EXPECT_GT(p.feed.traceCacheStats().evictions, evictions);
    p.fillBoth(7);
    EXPECT_EQ(p.resumes(), before);
    for (int i = 0; i < 20; ++i)
        p.fillBoth(7);
}

// ---------------------------------------------------------------------
// PipelineSim: feed vs step, full registry equality.
// ---------------------------------------------------------------------

/**
 * Full registry document minus the "sampling" group: its presence is
 * the one legitimate difference between a sampled run and its
 * full-detail reference (sampling fields are compared explicitly where
 * a test cares about them).
 */
std::string
registryDump(PipelineSim &sim)
{
    StatsRegistry reg;
    sim.registerStats(reg);
    const Json full = reg.toJson();
    Json doc = Json::object();
    for (const auto &kv : full.members()) {
        if (kv.first != "sampling")
            doc[kv.first] = kv.second;
    }
    return doc.dump();
}

struct TimingRun
{
    TimingResult t;
    std::string registry;
};

/** Small caches: real miss traffic. */
PipelineParams
feedParams()
{
    PipelineParams params;
    params.mem.l1dSize = 2048;
    params.mem.l1iSize = 2048;
    return params;
}

/**
 * One-cycle L2 and memory, a one-wide machine and a one-stage front
 * end: a per-instruction cycle bound small enough that a cycle budget
 * spanning several feed batches of run-ahead stays a short test.
 */
PipelineParams
tightParams()
{
    PipelineParams params = feedParams();
    params.width = 1;
    params.frontendDepth = 1;
    params.syscallLatency = 1;
    params.mem.l2Latency = 1;
    params.mem.memLatency = 2;
    return params;
}

constexpr unsigned long long kBatch = PipelineSim::kFeedBatch;

/**
 * One timing run of @p prog. A nonzero @p chunk runs it as a series of
 * run(chunk) calls, each shorter than a feed batch so every record is
 * filled inline, until the program ends or the cycle budget expires:
 * the single-threaded oracle for runs (sampled ones) that have no
 * step-driven reference.
 */
TimingRun
runPipeline(const Program &prog, bool traceFeed, bool mfi,
            uint64_t maxInsts = ~uint64_t(0), uint64_t maxCycles = 0,
            uint64_t period = 0, uint64_t detail = 0,
            const PipelineParams &params = feedParams(),
            uint64_t chunk = 0)
{
    std::unique_ptr<DiseController> controller;
    if (mfi)
        controller = mfiController(prog);
    PipelineSim sim(prog, params, controller.get());
    sim.setTraceFeed(traceFeed);
    if (period != 0)
        sim.setSampling(period, detail);
    if (mfi)
        initMfiRegisters(sim.core(), prog);
    TimingRun run;
    if (chunk == 0) {
        run.t = sim.run(maxInsts, maxCycles);
    } else {
        EXPECT_LT(chunk, kBatch);
        do {
            run.t = sim.run(chunk, maxCycles);
        } while (run.t.arch.outcome == RunOutcome::Hang &&
                 (maxCycles == 0 || run.t.cycles <= maxCycles));
    }
    run.registry = registryDump(sim);
    return run;
}

void
expectSameTiming(const TimingRun &feed, const TimingRun &step)
{
    EXPECT_EQ(feed.t.cycles, step.t.cycles);
    EXPECT_EQ(feed.t.arch.dynInsts, step.t.arch.dynInsts);
    EXPECT_EQ(feed.t.arch.outcome, step.t.arch.outcome);
    EXPECT_EQ(feed.t.buckets.issue, step.t.buckets.issue);
    EXPECT_EQ(feed.t.buckets.imissStall, step.t.buckets.imissStall);
    EXPECT_EQ(feed.t.buckets.dmissStall, step.t.buckets.dmissStall);
    EXPECT_EQ(feed.t.buckets.branchFlush, step.t.buckets.branchFlush);
    EXPECT_EQ(feed.t.buckets.diseStall, step.t.buckets.diseStall);
    EXPECT_EQ(feed.t.buckets.hazard, step.t.buckets.hazard);
    EXPECT_EQ(feed.t.buckets.drain, step.t.buckets.drain);
    EXPECT_EQ(feed.t.mispredicts, step.t.mispredicts);
    EXPECT_EQ(feed.t.decodeRedirects, step.t.decodeRedirects);
    EXPECT_EQ(feed.t.diseMispredicts, step.t.diseMispredicts);
    EXPECT_EQ(feed.t.expansionStalls, step.t.expansionStalls);
    EXPECT_EQ(feed.t.missStallCycles, step.t.missStallCycles);
    EXPECT_EQ(feed.registry, step.registry);
}

TEST(TraceFeed, PipelineFeedMatchesStep)
{
    // 100 iterations fit in one feed batch (filled inline); 400 and
    // 1500 span several, filled on the helper thread.
    for (const int iters : {100, 400, 1500}) {
        const Program prog = mixedProgramWithHelper(iters);
        for (const bool mfi : {false, true}) {
            SCOPED_TRACE(strFormat("%d iters%s", iters, mfi ? " mfi" : ""));
            const TimingRun feed = runPipeline(prog, true, mfi);
            const TimingRun step = runPipeline(prog, false, mfi);
            ASSERT_EQ(feed.t.arch.outcome, RunOutcome::Exit);
            expectSameTiming(feed, step);
        }
    }
    EXPECT_LT(runPipeline(mixedProgramWithHelper(100), true, true)
                  .t.arch.dynInsts,
              kBatch);

    // Sampling phase switches on batch edges (no MFI: every record is
    // an application boundary, so a switch lands exactly on its
    // count). detail == period == kBatch re-arms a detailed window at
    // each edge, which is full detail, so the step path is the
    // reference; period 2 * kBatch alternates detail and warming
    // windows at every edge, checked against the same run filled
    // inline in sub-batch chunks.
    const Program prog = mixedProgramWithHelper(1500);
    const TimingRun step = runPipeline(prog, false, false);
    ASSERT_GT(step.t.arch.dynInsts, 3 * kBatch);
    expectSameTiming(
        runPipeline(prog, true, false, ~uint64_t(0), 0, kBatch, kBatch),
        step);
    const TimingRun sampled = runPipeline(prog, true, false, ~uint64_t(0),
                                          0, 2 * kBatch, kBatch);
    const TimingRun chunked =
        runPipeline(prog, true, false, ~uint64_t(0), 0, 2 * kBatch, kBatch,
                    feedParams(), 1000);
    expectSameTiming(sampled, chunked);
    EXPECT_EQ(sampled.t.sampling.sampledInsts,
              chunked.t.sampling.sampledInsts);
    EXPECT_EQ(sampled.t.sampling.warmedInsts,
              chunked.t.sampling.warmedInsts);
    EXPECT_GT(sampled.t.sampling.warmedInsts, 0u);
}

TEST(TraceFeed, MaxInstsExpiresMidBatch)
{
    // Caps inside, on and just past one and two feed batches, and 501,
    // which is no batch multiple: the feed must stop on exactly the
    // same instruction as the per-step reference.
    const Program prog = mixedProgramWithHelper(1500);
    for (const uint64_t cap : {501ull, 63ull, 64ull, 65ull, 1ull,
                               kBatch - 1, kBatch, kBatch + 1,
                               2 * kBatch + 1}) {
        SCOPED_TRACE(strFormat("cap %llu", (unsigned long long)cap));
        const TimingRun feed = runPipeline(prog, true, true, cap);
        const TimingRun step = runPipeline(prog, false, true, cap);
        ASSERT_EQ(feed.t.arch.dynInsts, cap);
        ASSERT_EQ(feed.t.arch.outcome, RunOutcome::Hang);
        expectSameTiming(feed, step);
    }
}

TEST(TraceFeed, MaxCyclesExpiresMidBatch)
{
    const Program prog = mixedProgramWithHelper(400);
    for (const uint64_t budget : {97ull, 501ull, 1999ull}) {
        const TimingRun feed =
            runPipeline(prog, true, true, ~uint64_t(0), budget);
        const TimingRun step =
            runPipeline(prog, false, true, ~uint64_t(0), budget);
        ASSERT_EQ(feed.t.arch.outcome, RunOutcome::Hang);
        expectSameTiming(feed, step);
    }

    // Budgets measured in run-ahead grants: the helper may only fill a
    // batch the headroom provably covers (headroom / bound records).
    // kBatch grants fill everything inline; kBatch + 1 lets the helper
    // fill exactly one batch before the grant stops covering the next
    // (the grant edge); 3 * kBatch runs the helper for several batches.
    // Every budget expires in the inline tail, on the reference's
    // instruction.
    const PipelineParams tight = tightParams();
    const uint64_t bound = PipelineSim(prog, tight).perInstCycleBound();
    const Program big = mixedProgramWithHelper(80000);
    const TimingRun whole = runPipeline(big, true, false, ~uint64_t(0), 0,
                                        0, 0, tight);
    ASSERT_EQ(whole.t.arch.outcome, RunOutcome::Exit);
    for (const uint64_t grants : {kBatch, kBatch + 1, 3 * kBatch}) {
        const uint64_t budget = grants * bound;
        SCOPED_TRACE(strFormat("budget %llu", (unsigned long long)budget));
        ASSERT_GT(whole.t.cycles, budget);
        const TimingRun feed =
            runPipeline(big, true, false, ~uint64_t(0), budget, 0, 0, tight);
        const TimingRun step = runPipeline(big, false, false, ~uint64_t(0),
                                           budget, 0, 0, tight);
        ASSERT_EQ(feed.t.arch.outcome, RunOutcome::Hang);
        expectSameTiming(feed, step);
    }

    // A budget the clock has already passed when run() starts: one
    // record, as on the step path (the headroom is zero, not negative).
    for (const bool traceFeed : {true, false}) {
        PipelineSim sim(prog, feedParams());
        sim.setTraceFeed(traceFeed);
        const TimingResult first = sim.run(700);
        const TimingResult second = sim.run(~uint64_t(0), first.cycles / 2);
        EXPECT_EQ(second.arch.outcome, RunOutcome::Hang);
        EXPECT_EQ(second.arch.dynInsts, 701u);
    }

    // Sampled: the run stops on the first record whose commit passes
    // the budget however the records were batched.
    const uint64_t budget = 3 * kBatch * bound / 2;
    const TimingRun sampled = runPipeline(big, true, false, ~uint64_t(0),
                                          budget, 3000, 2000, tight);
    const TimingRun chunked = runPipeline(big, true, false, ~uint64_t(0),
                                          budget, 3000, 2000, tight, 1000);
    ASSERT_EQ(sampled.t.arch.outcome, RunOutcome::Hang);
    EXPECT_GT(sampled.t.cycles, budget);
    expectSameTiming(sampled, chunked);
    EXPECT_EQ(sampled.t.sampling.sampledInsts,
              chunked.t.sampling.sampledInsts);
    EXPECT_EQ(sampled.t.sampling.warmedInsts,
              chunked.t.sampling.warmedInsts);
}

// ---------------------------------------------------------------------
// TimingSnapshot across batch and sample boundaries.
// ---------------------------------------------------------------------

TEST(TraceFeed, SnapshotMidBatchMatchesUninterrupted)
{
    // Stop at instruction counts that land inside (501) and exactly on
    // (512, kBatch, 2 * kBatch) a feed batch, snapshot, restore into a
    // fresh simulator, finish there (on the helper thread), and require
    // the uninterrupted numbers. The batch multiples run without MFI: a
    // split must be an application boundary, and with MFI those counts
    // land inside a replacement sequence.
    const Program prog = mixedProgramWithHelper(1500);
    const PipelineParams params = feedParams();
    for (const bool mfi : {true, false}) {
        const TimingRun want = runPipeline(prog, true, mfi);
        ASSERT_EQ(want.t.arch.outcome, RunOutcome::Exit);
        ASSERT_GT(want.t.arch.dynInsts, 3 * kBatch);
        const std::vector<unsigned long long> splits =
            mfi ? std::vector<unsigned long long>{501, 512}
                : std::vector<unsigned long long>{501, kBatch, 2 * kBatch};
        for (const unsigned long long splitAt : splits) {
            SCOPED_TRACE(strFormat("split %llu%s", splitAt,
                                   mfi ? " mfi" : ""));
            std::unique_ptr<DiseController> c1, c2;
            if (mfi) {
                c1 = mfiController(prog);
                c2 = mfiController(prog);
            }
            PipelineSim split(prog, params, c1.get());
            if (mfi)
                initMfiRegisters(split.core(), prog);
            const TimingResult mid = split.run(splitAt);
            ASSERT_EQ(mid.arch.outcome, RunOutcome::Hang);
            TimingSnapshot snap;
            split.saveSnapshot(snap);

            PipelineSim fresh(prog, params, c2.get());
            TimingRun got;
            fresh.restoreSnapshot(snap);
            got.t = fresh.run();
            got.registry = registryDump(fresh);
            expectSameTiming(got, want);
        }
    }
}

TEST(TraceFeed, SnapshotAtSampleBoundaryMatchesUninterrupted)
{
    // No MFI here: a dyn-inst split point may land inside a replacement
    // sequence, where saveSnapshot (correctly) refuses to run. The
    // sampling phase machine is what's under test and is orthogonal.
    const Program prog = mixedProgramWithHelper(400);
    const uint64_t period = 300, detail = 100;
    const TimingRun want =
        runPipeline(prog, true, false, ~uint64_t(0), 0, period, detail);
    ASSERT_EQ(want.t.arch.outcome, RunOutcome::Exit);

    // Split exactly at a phase edge (detail -> warm at 100) and inside
    // a warm gap (170): the phase machine state must survive the
    // snapshot so the resumed run samples the same windows.
    for (const uint64_t splitAt : {100ull, 170ull, 350ull}) {
        PipelineParams params;
        params.mem.l1dSize = 2048;
        params.mem.l1iSize = 2048;
        PipelineSim split(prog, params);
        split.setTraceFeed(true);
        split.setSampling(period, detail);
        const TimingResult mid = split.run(splitAt);
        ASSERT_EQ(mid.arch.outcome, RunOutcome::Hang);
        TimingSnapshot snap;
        split.saveSnapshot(snap);

        PipelineSim fresh(prog, params);
        fresh.setTraceFeed(true);
        fresh.setSampling(period, detail);
        TimingRun got;
        fresh.restoreSnapshot(snap);
        got.t = fresh.run();
        got.registry = registryDump(fresh);
        expectSameTiming(got, want);
        EXPECT_EQ(got.t.sampling.sampledInsts, want.t.sampling.sampledInsts);
        EXPECT_EQ(got.t.sampling.warmedInsts, want.t.sampling.warmedInsts);
        EXPECT_EQ(got.t.sampling.measuredCycles,
                  want.t.sampling.measuredCycles);
    }
}

// ---------------------------------------------------------------------
// Sampling semantics.
// ---------------------------------------------------------------------

TEST(TraceFeed, SampledEqualsFullWhenFirstWindowCoversRun)
{
    // detail == period and period >= run length: every instruction is
    // timed in detail, so the "sampled" run IS the full run — same
    // cycles, same buckets, same registry.
    const Program prog = mixedProgramWithHelper(200);
    const TimingRun full = runPipeline(prog, true, true);
    ASSERT_EQ(full.t.arch.outcome, RunOutcome::Exit);
    const uint64_t huge = 1ull << 40;
    const TimingRun sampled =
        runPipeline(prog, true, true, ~uint64_t(0), 0, huge, huge);
    EXPECT_EQ(sampled.t.arch.outcome, RunOutcome::Exit);
    EXPECT_EQ(sampled.t.cycles, full.t.cycles);
    EXPECT_EQ(sampled.t.buckets.issue, full.t.buckets.issue);
    EXPECT_EQ(sampled.t.mispredicts, full.t.mispredicts);
    EXPECT_EQ(sampled.t.sampling.warmedInsts, 0u);
    EXPECT_EQ(sampled.t.sampling.sampledInsts, sampled.t.arch.dynInsts);
    EXPECT_EQ(sampled.t.estimatedCycles(), full.t.cycles);
    EXPECT_EQ(sampled.registry, full.registry);
}

TEST(TraceFeed, SampledRetirementMatchesFull)
{
    // Sampling changes timing only: the architectural stream (and
    // therefore retirement counts and the run outcome) is untouched.
    const Program prog = mixedProgramWithHelper(300);
    const TimingRun full = runPipeline(prog, true, true);
    const TimingRun sampled =
        runPipeline(prog, true, true, ~uint64_t(0), 0, 500, 100);
    EXPECT_EQ(sampled.t.arch.dynInsts, full.t.arch.dynInsts);
    EXPECT_EQ(sampled.t.arch.outcome, full.t.arch.outcome);
    EXPECT_EQ(sampled.t.sampling.sampledInsts +
                  sampled.t.sampling.warmedInsts,
              sampled.t.arch.dynInsts);
    EXPECT_LT(sampled.t.cycles, full.t.cycles);
}

/** Detail JSON with the wall-clock-dependent "host" section removed. */
Json
stripHost(const Json &detail)
{
    Json out = Json::object();
    for (const auto &kv : detail.members()) {
        if (kv.first != "host")
            out[kv.first] = kv.second;
    }
    return out;
}

TEST(TraceFeed, SampledBatchDeterministicAcrossWorkers)
{
    // The same sampled timing job must produce identical results under
    // --jobs 1 and --jobs 4 (sampling state is per-simulator, never
    // shared): run a 4-job batch serially and in parallel and compare
    // everything but the host section.
    std::vector<RunRequest> reqs(4);
    for (size_t i = 0; i < reqs.size(); ++i) {
        RunRequest &req = reqs[i];
        req.id = strFormat("sampled-%zu", i);
        req.workload = "bzip2";
        req.scale = 0.02;
        req.mode = RunMode::Timing;
        req.mfi = true;
        req.samplePeriod = 1000;
        req.sampleDetail = 200;
    }
    SessionConfig serial{1};
    SessionConfig parallel{4};
    const std::vector<RunResponse> a = SimSession(serial).runBatch(reqs);
    const std::vector<RunResponse> b =
        SimSession(parallel).runBatch(reqs);
    ASSERT_EQ(a.size(), reqs.size());
    ASSERT_EQ(b.size(), reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
        ASSERT_TRUE(a[i].ok) << a[i].error;
        ASSERT_TRUE(b[i].ok) << b[i].error;
        EXPECT_EQ(a[i].cycles, b[i].cycles);
        EXPECT_EQ(a[i].arch.dynInsts, b[i].arch.dynInsts);
        EXPECT_EQ(stripHost(a[i].detail).dump(),
                  stripHost(b[i].detail).dump());
        // And the batch is internally deterministic: same job, same
        // sampled result.
        EXPECT_EQ(a[i].cycles, a[0].cycles);
    }
    // The sampling section made it into the artifact entry.
    ASSERT_TRUE(a[0].detail.isObject());
    const Json &sampling = a[0].detail.at("sampling");
    EXPECT_EQ(sampling.at("period").asUInt(), 1000u);
    EXPECT_EQ(sampling.at("detail").asUInt(), 200u);
}

} // namespace
} // namespace dise
