/**
 * @file
 * Translated basic-block engine tests (src/sim/trace.hpp, DESIGN.md
 * section 9): self-modifying code invalidation inside one block and
 * across block boundaries, engine-generation invalidation on table
 * installs and injected table corruption, and full fast-vs-slow-path
 * bit-identity (architectural result, engine counters, register file,
 * memory image) on a generated MFI workload.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/acf/mfi.hpp"
#include "src/assembler/assembler.hpp"
#include "src/common/scheduler.hpp"
#include "src/dise/controller.hpp"
#include "src/dise/parser.hpp"
#include "src/sim/core.hpp"
#include "src/workloads/workloads.hpp"

namespace dise {
namespace {

/**
 * A program that patches a later instruction of its own basic block:
 * the stq overwrites both words of `target`'s li expansion (still
 * straight-line ahead of the store — no intervening control), so a
 * stale translated block would execute the original `li 0, a0` and
 * exit 0 instead of 42.
 */
constexpr const char *kSmcInBlock = R"(.text
main:
    laq donor, t0
    laq target, t1
    ldq t2, 0(t0)
    stq t2, 0(t1)
target:
    li 0, a0
    li 0, v0
    syscall
donor:
    li 42, a0
)";

/**
 * A program that patches an already-executed *other* block: `target` is
 * called once (so its block is translated and cached), then an 8-byte
 * stq rewrites both of its first two instructions, and it is called
 * again. Correct invalidation yields s1 = 0 + 5 = 5; a stale block
 * replays the original add-zero pair and exits 0.
 */
constexpr const char *kSmcCrossBlock = R"(.text
main:
    laq donor, t0
    laq target, t1
    li 0, s0
    li 0, s1
again:
    call target
    addq s0, 1, s0
    cmpeq s0, 2, t2
    beq t2, patch
    mov s1, a0
    li 0, v0
    syscall
patch:
    ldq t2, 0(t0)
    stq t2, 0(t1)
    br zero, again
target:
    addq s1, 0, s1
    addq s1, 0, s1
    ret
donor:
    addq s1, 5, s1
    addq s1, 0, s1
)";

/** Everything two runs must agree on to count as bit-identical. */
struct RunSnapshot
{
    RunResult result;
    std::map<std::string, uint64_t> engineStats;
    std::vector<uint64_t> regs;
    uint64_t memChecksum = 0;
};

void
expectIdentical(const RunSnapshot &fast, const RunSnapshot &slow)
{
    EXPECT_EQ(fast.result.outcome, slow.result.outcome);
    EXPECT_EQ(fast.result.exitCode, slow.result.exitCode);
    EXPECT_EQ(fast.result.output, slow.result.output);
    EXPECT_EQ(fast.result.dynInsts, slow.result.dynInsts);
    EXPECT_EQ(fast.result.appInsts, slow.result.appInsts);
    EXPECT_EQ(fast.result.diseInsts, slow.result.diseInsts);
    EXPECT_EQ(fast.result.expansions, slow.result.expansions);
    EXPECT_EQ(fast.result.loads, slow.result.loads);
    EXPECT_EQ(fast.result.stores, slow.result.stores);
    EXPECT_EQ(fast.result.acfDetections, slow.result.acfDetections);
    EXPECT_EQ(fast.result.trap.cause, slow.result.trap.cause);
    EXPECT_EQ(fast.engineStats, slow.engineStats);
    EXPECT_EQ(fast.regs, slow.regs);
    EXPECT_EQ(fast.memChecksum, slow.memChecksum);
}

/**
 * Run @p prog under MFI productions with the trace cache on or off.
 * When @p midRun is set, the run pauses after @p phase1Insts retired
 * instructions and the callback mutates the engine (table install,
 * corruption, ...) before the run finishes — at an identical point on
 * both paths, since the budget counts retired instructions.
 */
RunSnapshot
runMfi(const Program &prog, bool traceCache,
       const std::function<void(ExecCore &, DiseController &)> &midRun =
           nullptr,
       uint64_t phase1Insts = 0, size_t blockCap = 0)
{
    MfiOptions opts;
    opts.variant = MfiVariant::Dise3;
    auto set = std::make_shared<const ProductionSet>(
        makeMfiProductions(prog, opts));
    DiseController controller;
    controller.install(set);
    ExecCore core(prog, &controller);
    initMfiRegisters(core, prog);
    core.setTraceCacheEnabled(traceCache);
    if (blockCap)
        core.setTraceBlockCap(blockCap); // nonzero: force evictions
    if (midRun) {
        core.run(phase1Insts);
        midRun(core, controller);
    }
    RunSnapshot snap;
    snap.result = core.run();
    snap.engineStats = controller.engine().stats().counters();
    for (RegIndex r = 0; r < kNumLogicalRegs; ++r)
        snap.regs.push_back(core.reg(r));
    snap.memChecksum =
        core.memory().checksum(prog.dataBase, uint64_t(1) << 20);
    return snap;
}

Program
smallWorkload(const char *name)
{
    WorkloadSpec spec = workloadSpec(name);
    spec.targetDynInsts = 60000;
    spec.kernelIters = std::max(1u, spec.kernelIters / 16);
    return buildWorkload(spec);
}

TEST(Trace, SmcWithinBlockReexecutesPatchedCode)
{
    const Program prog = assemble(kSmcInBlock);

    ExecCore fast(prog);
    EXPECT_EQ(fast.run().exitCode, 42);

    ExecCore slow(prog);
    slow.setTraceCacheEnabled(false);
    const RunResult ref = slow.run();
    EXPECT_EQ(ref.exitCode, 42);
    EXPECT_EQ(fast.result().dynInsts, ref.dynInsts);
}

TEST(Trace, SmcAcrossBlockBoundaryInvalidatesCachedBlock)
{
    const Program prog = assemble(kSmcCrossBlock);

    ExecCore fast(prog);
    EXPECT_EQ(fast.run().exitCode, 5);

    ExecCore slow(prog);
    slow.setTraceCacheEnabled(false);
    const RunResult ref = slow.run();
    EXPECT_EQ(ref.exitCode, 5);
    EXPECT_EQ(fast.result().dynInsts, ref.dynInsts);
}

TEST(Trace, FastAndSlowPathsBitIdenticalOnMfiWorkload)
{
    const Program prog = smallWorkload("bzip2");
    const RunSnapshot fast = runMfi(prog, true);
    const RunSnapshot slow = runMfi(prog, false);
    EXPECT_GT(fast.result.expansions, 0u);
    expectIdentical(fast, slow);
}

TEST(Trace, NoControllerFastSlowParity)
{
    const Program prog = smallWorkload("gzip");

    ExecCore fast(prog);
    const RunResult a = fast.run();
    ExecCore slow(prog);
    slow.setTraceCacheEnabled(false);
    const RunResult b = slow.run();

    EXPECT_EQ(a.exitCode, b.exitCode);
    EXPECT_EQ(a.dynInsts, b.dynInsts);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(fast.memory().checksum(prog.dataBase, uint64_t(1) << 20),
              slow.memory().checksum(prog.dataBase, uint64_t(1) << 20));
}

TEST(Trace, ProductionInstallBumpsGenerationAndStaysIdentical)
{
    const Program prog = smallWorkload("bzip2");

    // Swap the installed production set mid-run (Dise3 -> Dise4): the
    // engine generation must advance, stale traces must be dropped,
    // and both paths must agree on everything that follows.
    uint64_t genBefore = 0, genAfter = 0;
    const auto swapSet = [&](ExecCore &core, DiseController &controller) {
        (void)core;
        genBefore = controller.engine().generation();
        MfiOptions opts;
        opts.variant = MfiVariant::Dise4;
        controller.install(std::make_shared<const ProductionSet>(
            makeMfiProductions(prog, opts)));
        genAfter = controller.engine().generation();
    };

    const RunSnapshot fast = runMfi(prog, true, swapSet, 20000);
    EXPECT_GT(genAfter, genBefore);
    const RunSnapshot slow = runMfi(prog, false, swapSet, 20000);
    expectIdentical(fast, slow);
}

TEST(Trace, ReplacementCorruptionBumpsGenerationAndStaysIdentical)
{
    const Program prog = smallWorkload("bzip2");

    // Flip a bit in a resident RT entry mid-run. The generation bump
    // orphans every translated block, so the garbled replacement is
    // delivered through a fresh expansion on both paths alike.
    uint64_t genBefore = 0, genAfter = 0;
    bool corrupted = false;
    const auto corrupt = [&](ExecCore &core, DiseController &controller) {
        (void)core;
        genBefore = controller.engine().generation();
        corrupted = controller.engine().corruptReplacementEntry(0, 7);
        genAfter = controller.engine().generation();
    };

    const RunSnapshot fast = runMfi(prog, true, corrupt, 20000);
    EXPECT_TRUE(corrupted); // 20k MFI insts leave resident RT entries
    EXPECT_GT(genAfter, genBefore);
    const RunSnapshot slow = runMfi(prog, false, corrupt, 20000);
    expectIdentical(fast, slow);
}

TEST(Trace, FlushTablesBumpsGenerationAndStaysIdentical)
{
    const Program prog = smallWorkload("bzip2");

    uint64_t genBefore = 0, genAfter = 0;
    const auto flush = [&](ExecCore &core, DiseController &controller) {
        (void)core;
        genBefore = controller.engine().generation();
        controller.engine().flushTables();
        genAfter = controller.engine().generation();
    };

    const RunSnapshot fast = runMfi(prog, true, flush, 20000);
    EXPECT_GT(genAfter, genBefore);
    const RunSnapshot slow = runMfi(prog, false, flush, 20000);
    expectIdentical(fast, slow);
}

TEST(Trace, SequenceTrapsIdenticalAcrossPaths)
{
    // A production whose DISE branch jumps out of range when taken:
    // the pre-translated sequence path must raise the same trap at the
    // same retirement point as the generic path.
    const Program prog = assemble(".text\n"
                                  "main:\n"
                                  "    laq buf, t5\n"
                                  "    ldq t0, 0(t5)\n"
                                  "    li 0, v0\n    li 0, a0\n"
                                  "    syscall\n"
                                  ".data\n"
                                  "buf:\n    .quad 7\n");
    auto set = std::make_shared<ProductionSet>(parseProductions(
        "P1: class == load -> R1\n"
        "R1: lda $dr1, 1(zero)\n"
        "    dbne $dr1, +9\n"
        "    T.INSN\n",
        prog.symbols));

    RunResult results[2];
    for (int traceCache = 0; traceCache < 2; ++traceCache) {
        DiseController controller;
        controller.install(set);
        ExecCore core(prog, &controller);
        core.setTraceCacheEnabled(traceCache != 0);
        results[traceCache] = core.run();
    }
    EXPECT_EQ(results[1].outcome, RunOutcome::Trap);
    EXPECT_EQ(results[1].trap.cause, results[0].trap.cause);
    EXPECT_EQ(results[1].trap.pc, results[0].trap.pc);
    EXPECT_EQ(results[1].trap.disepc, results[0].trap.disepc);
    EXPECT_EQ(results[1].dynInsts, results[0].dynInsts);
}

TEST(Trace, ChainingEngagesAndMatchesSlowPath)
{
    const Program prog = smallWorkload("bzip2");

    const RunSnapshot chained = runMfi(prog, true);
    const RunSnapshot slow = runMfi(prog, false);
    expectIdentical(chained, slow);

    // The stats counters prove the chained run followed patched edges.
    ExecCore probe(prog);
    probe.run();
    EXPECT_GT(probe.traceCacheStats().chainFollows, 0u);
    EXPECT_GT(probe.traceCacheStats().blocksTranslated, 0u);
}

TEST(Trace, SmcInChainedSuccessorRepatchesStaleEdge)
{
    // kSmcCrossBlock under chaining: the `call target` edge is patched
    // on the first call; the patch loop then rewrites target's first
    // two instructions (epoch bump), so the second call must fail the
    // edge's epoch check and re-translate instead of following the
    // stale block.
    const Program prog = assemble(kSmcCrossBlock);

    ExecCore fast(prog);
    const RunResult r = fast.run();
    EXPECT_EQ(r.exitCode, 5);
    EXPECT_GT(fast.traceCacheStats().chainFollows, 0u);
    // The rewrite forces a second translation of the target block.
    EXPECT_GT(fast.traceCacheStats().blocksTranslated,
              uint64_t(4)); // distinct static blocks alone would be ~4

    ExecCore slow(prog);
    slow.setTraceCacheEnabled(false);
    const RunResult ref = slow.run();
    EXPECT_EQ(ref.exitCode, 5);
    EXPECT_EQ(r.dynInsts, ref.dynInsts);
}

TEST(Trace, EvictionPressureMidChainStaysIdentical)
{
    // A two-block trace cache capacity forces a whole-cache eviction
    // on nearly every translation — including from chainTarget, i.e.
    // *inside* a live chain, where the interpreter still holds raw
    // pointers into the just-evicted blocks (kept alive by the
    // graveyard). Everything must still be bit-identical.
    const Program prog = smallWorkload("bzip2");

    const RunSnapshot fast = runMfi(prog, true, nullptr, 0, 2);
    const RunSnapshot slow = runMfi(prog, false);
    expectIdentical(fast, slow);

    ExecCore probe(prog);
    probe.setTraceBlockCap(2);
    probe.run();
    EXPECT_GT(probe.traceCacheStats().evictions, 0u);
}

TEST(Trace, MidRunTraceCacheToggleStaysIdentical)
{
    const Program prog = smallWorkload("bzip2");
    const RunSnapshot slow = runMfi(prog, false);

    // Fast start, drop to the slow path mid-run: dispatch state and
    // chain edges become unreachable and must not leak into the rest
    // of the run.
    const RunSnapshot fastThenSlow = runMfi(
        prog, true,
        [](ExecCore &core, DiseController &) {
            core.setTraceCacheEnabled(false);
        },
        20000);
    expectIdentical(fastThenSlow, slow);

    // Slow start, enable the trace cache mid-run: blocks translate
    // and chains form from a mid-program machine state.
    const RunSnapshot slowThenFast = runMfi(
        prog, false,
        [](ExecCore &core, DiseController &) {
            core.setTraceCacheEnabled(true);
        },
        20000);
    expectIdentical(slowThenFast, slow);
}

TEST(Trace, CancelDeadlineStopsTightChainedLoop)
{
    // A two-instruction infinite loop that chains into itself: without
    // the bounded-interval cancel poll, run() would never return (the
    // chain never revisits the dispatcher). ~1k-retirement polling
    // must observe the flag and classify the run as a Hang.
    const Program prog = assemble(".text\n"
                                  "main:\n"
                                  "    li 0, s0\n"
                                  "loop:\n"
                                  "    addq s0, 1, s0\n"
                                  "    br zero, loop\n");
    ExecCore core(prog);
    std::atomic<bool> cancel{false};
    core.setCancelFlag(&cancel);
    std::thread killer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
        cancel.store(true, std::memory_order_relaxed);
    });
    const RunResult r = core.run(); // unbounded budget
    killer.join();
    EXPECT_EQ(r.outcome, RunOutcome::Hang);
    EXPECT_FALSE(r.exited);
    EXPECT_GT(r.dynInsts, 0u);
}

TEST(Trace, CancelDeadlineStopsDiseBranchLoop)
{
    // A replacement sequence that is itself an infinite loop (dbr
    // self-branch): the per-slot poll inside the sequence interpreter
    // must observe the deadline — chain-boundary polling alone never
    // fires because the sequence never ends.
    const Program prog = assemble(".text\n"
                                  "main:\n"
                                  "    laq buf, t5\n"
                                  "    ldq t0, 0(t5)\n"
                                  "    li 0, v0\n    li 0, a0\n"
                                  "    syscall\n"
                                  ".data\n"
                                  "buf:\n    .quad 7\n");
    auto set = std::make_shared<ProductionSet>(parseProductions(
        "P1: class == load -> R1\n"
        "R1: dbr zero, -1\n"
        "    T.INSN\n",
        prog.symbols));
    DiseController controller;
    controller.install(set);
    ExecCore core(prog, &controller);
    std::atomic<bool> cancel{false};
    core.setCancelFlag(&cancel);
    std::thread killer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
        cancel.store(true, std::memory_order_relaxed);
    });
    const RunResult r = core.run();
    killer.join();
    EXPECT_EQ(r.outcome, RunOutcome::Hang);
    EXPECT_GT(r.diseInsts, 0u);
}

TEST(Trace, FastSlowIdentityAcrossWorkerCounts)
{
    // The chained fast path keeps all its state (trace cache, chain
    // edges, graveyard, memo slots) inside the core, so concurrent
    // cores on a worker pool must reproduce the single-threaded
    // snapshot exactly.
    const Program prog = smallWorkload("gcc");
    const RunSnapshot referenceFast = runMfi(prog, true);
    const RunSnapshot referenceSlow = runMfi(prog, false);
    expectIdentical(referenceFast, referenceSlow);

    for (unsigned workers : {1u, 4u}) {
        SimScheduler scheduler(workers);
        const std::vector<int> lanes = {0, 1, 2, 3};
        const auto snaps = scheduler.map(lanes, [&](int lane) {
            return runMfi(prog, (lane & 1) == 0);
        });
        for (const RunSnapshot &snap : snaps)
            expectIdentical(snap, referenceFast);
    }
}

} // namespace
} // namespace dise
