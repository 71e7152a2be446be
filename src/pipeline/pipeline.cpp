#include "src/pipeline/pipeline.hpp"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>

#include "src/common/bits.hpp"
#include "src/common/logging.hpp"

namespace dise {

namespace {

/**
 * Batch slots between the feed's helper thread and the timing loop.
 * Batches cross cores, so no slot stays cache-resident either way; a
 * batch is large enough (PipelineSim::kFeedBatch) that one handoff per
 * batch is noise, and three slots let the helper fill one while the
 * timing loop reads another with one spare to absorb jitter.
 */
constexpr size_t kFeedSlots = 3;

/** Commit-clock advance between deadline-cancel polls (step path). */
constexpr uint64_t kCancelPollCycles = 0x10000;

} // namespace

PipelineSim::PipelineSim(const Program &prog, const PipelineParams &params,
                         DiseController *controller)
    : params_(params), controller_(controller), core_(prog, controller),
      mem_(params.mem), bpred_(params.bpred)
{
    feDepth_ = params_.frontendDepth;
    uint64_t missPenMax = 0;
    if (controller_) {
        const DiseConfig &cfg = controller_->engine().config();
        if (cfg.placement == DisePlacement::Pipe)
            feDepth_ += 1;
        stallPerExpansion_ = cfg.placement == DisePlacement::Stall;
        missPenMax = std::max<uint64_t>(cfg.missPenalty,
                                        cfg.composedMissPenalty);
    }
    commitRing_.assign(params_.robEntries, 0);
    issueRing_.assign(params_.rsEntries, 0);
    regReady_.fill(0);

    DISE_ASSERT(isPow2(params_.mem.lineBytes), "line size must be pow2");
    feLineShift_ = log2i(params_.mem.lineBytes);

    // Worst-case commit-clock advance for one instruction: a PT/RT fill
    // stall, plus an I-side and a D-side full miss chain (each at most
    // L1 + fill-from-L2 + fill-from-memory, doubled for the writeback
    // recursion), plus the deepest redirect refill and the longest
    // execution latency, all doubled with fixed slop so the bound stays
    // safe against bandwidth/occupancy rounding. Only batch sizing near
    // a cycle budget uses it; it is asserted, never trusted silently.
    const MemHierarchyParams &m = params_.mem;
    const uint64_t missChain =
        uint64_t(m.l1Latency) + 2 * (uint64_t(m.l2Latency) + m.memLatency);
    perInstCycleBound_ =
        2 * (missPenMax + 2 * missChain + feDepth_ +
             params_.syscallLatency + params_.intMultLatency +
             params_.decodeRedirectPenalty + params_.width + 16);

    // A timing registry carries these counters even when they stay zero
    // (a program without loads, stores or branches).
    mem_.icache().stats().add("accesses", 0);
    mem_.dcache().stats().add("accesses", 0);
    mem_.dcache().stats().add("writes", 0);
    bpred_.stats().add("predictions", 0);
    bpred_.stats().add("updates", 0);
}

void
PipelineSim::setSampling(uint64_t period, uint64_t detail)
{
    if (period == 0) {
        samplePeriod_ = 0;
        sampleDetail_ = 0;
        phaseDetail_ = true;
        phaseLeft_ = 0;
        result_.sampling = SamplingInfo{};
        return;
    }
    DISE_ASSERT(detail > 0 && detail <= period,
                "sampling detail must be in [1, period]");
    samplePeriod_ = period;
    sampleDetail_ = detail;
    phaseDetail_ = true;
    phaseLeft_ = detail;
    result_.sampling.enabled = true;
    result_.sampling.period = period;
    result_.sampling.detail = detail;
}

// ---------------------------------------------------------------------
// The timing model proper (shared between both delivery paths).
// ---------------------------------------------------------------------

void
PipelineSim::newFetchGroup(uint64_t cycle, Addr pc, bool accessICache)
{
    feCycle_ = std::max(feCycle_, cycle);
    feSlots_ = 0;
    const uint64_t line = fetchLine(pc);
    if (accessICache || line != curLine_) {
        const uint32_t lat = mem_.fetchAccess(pc);
        if (lat > params_.mem.l1Latency) {
            feCycle_ += lat - params_.mem.l1Latency;
            pend_.imiss += lat - params_.mem.l1Latency;
        }
        curLine_ = line;
    }
}

void
PipelineSim::raiseRedirect(uint64_t cycle, StallCause cause)
{
    if (cycle > pendingRedirect_) {
        pendingRedirect_ = cycle;
        redirectCause_ = cause;
    }
}

// Inline: timeInst is its only caller, and a call per instruction
// costs the model measurable time.
inline uint64_t
PipelineSim::frontend(const DynInst &dyn)
{
    const bool appBoundary = !dyn.expanded || dyn.firstOfSeq;

    if (appBoundary) {
        // Honour any pending redirect (mispredict resolution, flush).
        if (pendingRedirect_ > 0) {
            if (pendingRedirect_ > feCycle_) {
                const uint64_t wait = pendingRedirect_ - feCycle_;
                switch (redirectCause_) {
                  case StallCause::Branch:
                    pend_.branch += wait;
                    break;
                  case StallCause::Dise:
                    pend_.dise += wait;
                    break;
                  case StallCause::Drain:
                    pend_.drain += wait;
                    break;
                  case StallCause::None:
                    break;
                }
            }
            newFetchGroup(std::max(pendingRedirect_, feCycle_), dyn.pc,
                          true);
            pendingRedirect_ = 0;
            redirectCause_ = StallCause::None;
        }
        // PT/RT miss: flush the front end and stall for the fill.
        if (dyn.missPenalty > 0) {
            result_.missStallCycles += dyn.missPenalty;
            pend_.dise += dyn.missPenalty;
            newFetchGroup(feCycle_ + dyn.missPenalty, dyn.pc, true);
        }
        // Expansion stall placement: one bubble per expansion.
        if (dyn.firstOfSeq && stallPerExpansion_) {
            ++result_.expansionStalls;
            pend_.dise += 1;
            feCycle_ += 1;
        }
        const uint64_t line = fetchLine(dyn.pc);
        if (line != curLine_) {
            // Line crossing: new fetch group with an I-cache access.
            newFetchGroup(feSlots_ > 0 ? feCycle_ + 1 : feCycle_, dyn.pc,
                          true);
        } else if (feSlots_ >= params_.width) {
            newFetchGroup(feCycle_ + 1, dyn.pc, false);
        }
    } else {
        // Replacement instruction: consumes a decode slot, no fetch.
        if (feSlots_ >= params_.width) {
            feCycle_ += 1;
            feSlots_ = 0;
        }
    }

    ++feSlots_;
    return feCycle_;
}

uint32_t
PipelineSim::instLatency(const DynInst &dyn) const
{
    switch (dyn.inst.cls) {
      case OpClass::IntMult:
        return params_.intMultLatency;
      case OpClass::Syscall:
        return params_.syscallLatency;
      default:
        return params_.intAluLatency;
    }
}

void
PipelineSim::resolveControl(Addr pc, OpClass cls, bool taken, Addr target,
                            uint64_t resolveCycle, uint64_t decodeCycle,
                            const BranchPredictor::Prediction &pred)
{
    const bool wrongDir = pred.taken != taken;
    const bool wrongTarget =
        taken && (!pred.targetKnown || pred.target != target);
    if (wrongDir || wrongTarget) {
        if ((cls == OpClass::UncondBranch || cls == OpClass::Call) &&
            !wrongDir) {
            // Direct target computable at decode: cheap redirect.
            ++result_.decodeRedirects;
            raiseRedirect(decodeCycle + params_.decodeRedirectPenalty,
                          StallCause::Branch);
        } else {
            ++result_.mispredicts;
            raiseRedirect(resolveCycle + 1, StallCause::Branch);
        }
    } else if (taken) {
        // Correctly predicted taken: fetch continues at the target in
        // the next cycle.
        feCycle_ += 1;
        feSlots_ = 0;
        curLine_ = ~uint64_t(0);
    }
    train(pc, cls, taken, target);
}

void
PipelineSim::train(Addr pc, OpClass cls, bool taken, Addr target)
{
    if (cls == OpClass::Nop)
        return; // a sequence with no trigger-PC prediction
    bpred_.update(pc, cls, taken, target);
    if (cls == OpClass::Call || cls == OpClass::CallIndirect)
        bpred_.pushReturn(pc + 4);
}

void
PipelineSim::beginSequence(const DynInst &dyn)
{
    seqPredCls_ = dyn.seqPredClass;
    seqTriggerPC_ = dyn.pc;
    seqTrigTaken_ = false;
    seqTrigTarget_ = 0;
    seqRedirected_ = false;
    seqRedirTarget_ = 0;
    if (seqPredCls_ != OpClass::Nop) {
        seqPred_ = bpred_.predict(dyn.pc, seqPredCls_, dyn.pc + 4);
    } else {
        seqPred_ = BranchPredictor::Prediction{};
        seqPred_.target = dyn.pc + 4;
        seqPred_.targetKnown = true;
    }
}

void
PipelineSim::noteSeqTransfer(const DynInst &dyn)
{
    if (!dyn.isAppControl || !dyn.taken)
        return;
    if (dyn.triggerSlot) {
        // Deferred: applied at sequence end unless a later non-trigger
        // branch redirects first.
        seqTrigTaken_ = true;
        seqTrigTarget_ = dyn.actualTarget;
    } else {
        seqRedirected_ = true;
        seqRedirTarget_ = dyn.actualTarget;
    }
}

void
PipelineSim::timeInst(const DynInst &dyn)
{
    // ---- Front end: decode timestamp. ----
    const uint64_t decodeCycle = frontend(dyn);

    // ---- Dispatch. ----
    uint64_t dispatch = decodeCycle + feDepth_;
    // ROB entry must be free.
    const uint64_t robFree = commitRing_[robIdx_];
    if (robFree > dispatch) {
        pend_.hazard += robFree - dispatch;
        dispatch = robFree;
    }
    // RS entry must be free (freed at issue).
    const uint64_t rsFree = issueRing_[rsIdx_] + 1;
    if (rsFree > dispatch) {
        pend_.hazard += rsFree - dispatch;
        dispatch = rsFree;
    }
    // In-order dispatch, width per cycle.
    if (dispatch < dispatchCycleCur_)
        dispatch = dispatchCycleCur_;
    if (dispatch == dispatchCycleCur_) {
        if (dispatchSlots_ >= params_.width) {
            ++dispatch;
            dispatchCycleCur_ = dispatch;
            dispatchSlots_ = 0;
        }
    } else {
        dispatchCycleCur_ = dispatch;
        dispatchSlots_ = 0;
    }
    ++dispatchSlots_;

    // ---- Issue: dataflow-limited. ----
    uint64_t ready = dispatch + 1;
    for (const RegIndex src : dyn.inst.srcRegList())
        ready = std::max(ready, regReady_[src]);
    if (ready > dispatch + 1)
        pend_.hazard += ready - (dispatch + 1);
    const uint64_t issue = ready;
    issueRing_[rsIdx_] = issue;

    // ---- Complete. ----
    uint64_t complete = issue + instLatency(dyn);
    if (dyn.isMem && !dyn.isStore) {
        // Loads: AGU + D-cache access.
        const uint32_t lat = mem_.dataAccess(dyn.memAddr, false);
        if (lat > params_.mem.l1Latency)
            pend_.dmiss += lat - params_.mem.l1Latency;
        complete = issue + 1 + lat;
    }
    const RegIndex dest = dyn.inst.destReg();
    if (dest != kZeroReg)
        regReady_[dest] = complete;

    // ---- Commit: in order, width per cycle. ----
    const uint64_t prevCommitClock = lastCommit_;
    uint64_t commit = std::max(complete + 1, lastCommit_);
    if (commit == commitCycleCur_) {
        if (commitSlots_ >= params_.width) {
            ++commit;
            commitCycleCur_ = commit;
            commitSlots_ = 0;
        }
    } else {
        commitCycleCur_ = commit;
        commitSlots_ = 0;
    }
    ++commitSlots_;
    lastCommit_ = commit;
    commitRing_[robIdx_] = commit;

    // ---- Cycle accounting (see CycleBreakdown): charge this
    // instruction's commit-clock advance to its observed stall
    // causes in priority order; the remainder is base issue work.
    // Amounts left unconsumed overlapped older work — drop them.
    {
        uint64_t remaining = commit - prevCommitClock;
        // Most instructions observe no stall at all: every charge below
        // would be a no-op, so short-circuit straight to the issue
        // bucket (bit-identical — charging zeros changes nothing).
        const uint64_t anyStall = pend_.dise | pend_.imiss |
                                  pend_.branch | pend_.drain |
                                  pend_.dmiss | pend_.hazard;
        if (anyStall == 0) {
            result_.buckets.issue += remaining;
        } else {
            const auto charge = [&remaining](uint64_t &bucket,
                                             uint64_t amount) {
                const uint64_t take = std::min(remaining, amount);
                bucket += take;
                remaining -= take;
            };
            charge(result_.buckets.diseStall, pend_.dise);
            charge(result_.buckets.imissStall, pend_.imiss);
            charge(result_.buckets.branchFlush, pend_.branch);
            charge(result_.buckets.drain, pend_.drain);
            charge(result_.buckets.dmissStall, pend_.dmiss);
            charge(result_.buckets.hazard, pend_.hazard);
            result_.buckets.issue += remaining;
            pend_ = PendingStalls{};
        }
    }

    if (dyn.isStore) {
        // Store buffer: D-cache updated at commit, off the critical
        // path.
        mem_.dataAccess(dyn.memAddr, true);
    }
    if (dyn.isSyscall) {
        // Syscalls serialize the pipeline.
        raiseRedirect(commit + 1, StallCause::Drain);
    }

    // ---- Control flow and prediction. ----
    //
    // The front end predicts once per fetched (application-level)
    // PC. For an expansion, that single prediction covers the whole
    // replacement sequence: internal branches are never predicted
    // separately (paper Section 2.2) — a sequence whose outcome
    // differs from the trigger-PC prediction costs a mispredict
    // resolved when its deciding branch executes.
    if (!dyn.expanded) {
        if (dyn.isAppControl) {
            const auto pred = bpred_.predict(dyn.pc, dyn.inst.cls, dyn.pc + 4);
            resolveControl(dyn.pc, dyn.inst.cls, dyn.taken, dyn.actualTarget,
                           complete, decodeCycle, pred);
        }
    } else {
        if (dyn.firstOfSeq) {
            beginSequence(dyn);
            seqResolve_ = complete;
        }
        if (dyn.inst.isDiseBranch() && dyn.taken) {
            // Taken DISE branch: fetch restarts at the same PC, new
            // DISEPC — interpreted as a misprediction.
            ++result_.diseMispredicts;
            raiseRedirect(complete + 1, StallCause::Dise);
        }
        if (dyn.isAppControl)
            seqResolve_ = std::max(seqResolve_, complete);
        noteSeqTransfer(dyn);
        if (dyn.lastOfSeq) {
            resolveControl(seqTriggerPC_, seqPredCls_, seqTaken(),
                           seqNextPC(dyn.pc + 4),
                           std::max(seqResolve_, complete), decodeCycle,
                           seqPred_);
        }
    }

    ++instIndex_;
    if (++robIdx_ == params_.robEntries)
        robIdx_ = 0;
    if (++rsIdx_ == params_.rsEntries)
        rsIdx_ = 0;
}

// ---------------------------------------------------------------------
// Functional warming (sampling gaps).
// ---------------------------------------------------------------------

void
PipelineSim::warmInst(const DynInst &dyn)
{
    // I-side: the detailed front end touches the I-cache once per
    // fetched line plus once per redirect target; a redirect (branch
    // flush, PT/RT fill, syscall drain) re-accesses even a same-line
    // target. Model that by invalidating the current-line latch on
    // every redirect cause and accessing on line change.
    const bool appBoundary = !dyn.expanded || dyn.firstOfSeq;
    if (appBoundary) {
        if (dyn.missPenalty > 0)
            curLine_ = ~uint64_t(0); // PT/RT fill flushes the front end
        const uint64_t line = fetchLine(dyn.pc);
        if (line != curLine_) {
            mem_.fetchAccess(dyn.pc);
            curLine_ = line;
        }
    }

    // D-side: loads and stores in program order, exactly as the
    // detailed model orders its calls (loads at issue, stores at
    // commit, both within the same per-instruction pass).
    if (dyn.isMem)
        mem_.dataAccess(dyn.memAddr, dyn.isStore);

    // Branch predictor: replicate the detailed model's predict/update/
    // RAS traffic, including sequence-level prediction for expansions.
    // A refetch happens iff the branch was taken (actual redirect or
    // correctly predicted taken) or predicted taken (wrong-direction
    // flush) — in all three cases the detailed front end starts a new
    // fetch group with an unconditional I-cache access.
    if (!dyn.expanded) {
        if (dyn.isAppControl) {
            const auto pred = bpred_.predict(dyn.pc, dyn.inst.cls, dyn.pc + 4);
            train(dyn.pc, dyn.inst.cls, dyn.taken, dyn.actualTarget);
            if (dyn.taken || pred.taken)
                curLine_ = ~uint64_t(0);
        }
    } else {
        if (dyn.firstOfSeq)
            beginSequence(dyn);
        if (dyn.inst.isDiseBranch() && dyn.taken)
            curLine_ = ~uint64_t(0); // unpredicted redirect, refetch
        noteSeqTransfer(dyn);
        if (dyn.lastOfSeq) {
            const bool taken = seqTaken();
            train(seqTriggerPC_, seqPredCls_, taken, seqNextPC(dyn.pc + 4));
            if (taken || seqPred_.taken)
                curLine_ = ~uint64_t(0);
        }
    }
    if (dyn.isSyscall)
        curLine_ = ~uint64_t(0); // drain forces a refetch
}

// ---------------------------------------------------------------------
// Delivery loops.
// ---------------------------------------------------------------------

PipelineSim::RunStop
PipelineSim::runStepDriven(uint64_t maxInsts, uint64_t maxCycles)
{
    DynInst dyn;
    RunStop stop;
    while (stop.steps < maxInsts && core_.step(dyn)) {
        ++stop.steps;
        timeInst(dyn);
        if (maxCycles != 0 && lastCommit_ > maxCycles) {
            stop.cycleBudgetExpired = true;
            break;
        }
        // External wall-clock deadline (the serving daemon): polled at
        // the same instruction cadence as the functional slow path, and
        // additionally whenever the commit clock has advanced far since
        // the last poll — miss-heavy regions cover many cycles (and
        // much wall time) per instruction, which would otherwise
        // stretch the poll interval. A trip is the cycle-watchdog
        // outcome.
        if ((stop.steps & 0x3ff) == 0 ||
            lastCommit_ - lastCancelPollCommit_ >= kCancelPollCycles) {
            lastCancelPollCommit_ = lastCommit_;
            if (core_.cancelRequested()) {
                stop.cycleBudgetExpired = true;
                break;
            }
        }
    }
    return stop;
}

/**
 * The feed's batch handoff. Batch k lives in slot k % kFeedSlots of
 * feedBufs_: the helper publishes it by bumping @c filled, the timing
 * loop frees it by bumping @c consumed. One mutex guards every field
 * and one condition variable wakes whichever side waits — the helper
 * for a free slot (or a larger grant), the timing loop for a batch (or
 * the helper's end). The two never wait at the same time: while no
 * batch is pending the helper has a free slot or quits. Destroying the
 * channel stops and joins the helper, so no thread outlives a throw.
 */
struct PipelineSim::FeedChannel
{
    std::mutex m;
    std::condition_variable cv;
    uint64_t filled = 0;   ///< batches published by the helper
    uint64_t consumed = 0; ///< batches the timing loop is done with
    std::array<size_t, kFeedSlots> count{}; ///< records in each slot
    /** Records the helper may produce in this run: the cycle budget's
     *  run-ahead grant, unlimited without a budget. */
    uint64_t grant = ~uint64_t(0);
    bool stop = false; ///< the timing loop asks the helper to quit
    bool done = false; ///< the helper has quit
    std::exception_ptr error; ///< what the helper threw, if anything
    std::thread helper;

    FeedChannel() = default;
    FeedChannel(const FeedChannel &) = delete;
    FeedChannel &operator=(const FeedChannel &) = delete;

    /** Stop the helper (if running) and wait for it. */
    void
    join()
    {
        if (!helper.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(m);
            stop = true;
        }
        cv.notify_one();
        helper.join();
    }

    ~FeedChannel() { join(); }
};

void
PipelineSim::produceFeed(FeedChannel &ch, uint64_t maxInsts)
{
    std::unique_lock<std::mutex> lock(ch.m, std::defer_lock);
    try {
        lock.lock();
        uint64_t produced = 0;
        while (produced < maxInsts) {
            const uint64_t want =
                std::min<uint64_t>(kFeedBatch, maxInsts - produced);
            // A free slot and a grant covering the whole batch. Once
            // every published batch is consumed the grant cannot grow
            // any more: the rest is the timing loop's inline tail.
            ch.cv.wait(lock, [&] {
                return ch.stop || ch.filled == ch.consumed ||
                       (ch.filled - ch.consumed < kFeedSlots &&
                        produced + want <= ch.grant);
            });
            if (ch.stop || produced + want > ch.grant)
                break;
            const size_t slot = size_t(ch.filled % kFeedSlots);
            lock.unlock();
            const size_t n = core_.fillTrace(
                feedBufs_.data() + slot * kFeedBatch, size_t(want));
            // A cancel ends the stream here; the timing loop drains
            // what was published and reports it.
            const bool end = n == 0 || core_.cancelRequested();
            lock.lock();
            if (n != 0) {
                ch.count[slot] = n;
                ++ch.filled;
                produced += n;
                ch.cv.notify_one();
            }
            if (end)
                break;
        }
    } catch (...) {
        if (!lock.owns_lock())
            lock.lock();
        ch.error = std::current_exception();
    }
    ch.done = true;
    ch.cv.notify_one();
}

PipelineSim::RunStop
PipelineSim::runFeed(uint64_t maxInsts, uint64_t maxCycles)
{
    const bool sampling = samplePeriod_ != 0;
    // Records the stream may run ahead of the last timed one: that many
    // cannot pass the cycle budget (unlimited without one).
    const auto runAhead = [&]() -> uint64_t {
        if (maxCycles == 0)
            return ~uint64_t(0);
        return lastCommit_ < maxCycles
                   ? (maxCycles - lastCommit_) / perInstCycleBound_
                   : 0;
    };

    // A run that spans more than one batch fills on a helper thread;
    // one that fits in a batch (or cannot start one) fills inline.
    FeedChannel ch;
    ch.grant = runAhead();
    bool helper = std::min(maxInsts, ch.grant) > kFeedBatch &&
                  !core_.exited() && !core_.trapped() &&
                  !core_.cancelRequested();
    const size_t slots = helper ? kFeedSlots : 1;
    if (feedBufs_.size() < slots * kFeedBatch)
        feedBufs_.resize(slots * kFeedBatch);
    if (helper) {
        try {
            ch.helper = std::thread(&PipelineSim::produceFeed, this,
                                    std::ref(ch), maxInsts);
        } catch (const std::system_error &) {
            helper = false;
        }
    }

    RunStop stop;
    while (stop.steps < maxInsts) {
        const DynInst *batch = feedBufs_.data();
        size_t n = 0;
        // A helper batch always lies within the grant; an inline batch
        // is sized from the headroom, and once that is under one
        // per-instruction bound the tail runs record-at-a-time so the
        // budget check below stops on exactly the same instruction as
        // the per-step reference.
        bool bounded = maxCycles != 0;
        if (helper) {
            std::unique_lock<std::mutex> lock(ch.m);
            ch.cv.wait(lock,
                       [&] { return ch.filled != ch.consumed || ch.done; });
            if (ch.done && (ch.error || ch.filled == ch.consumed)) {
                lock.unlock();
                ch.join();
                helper = false;
                if (ch.error)
                    std::rethrow_exception(ch.error);
                continue; // the rest, if any, fills inline
            }
            const size_t slot = size_t(ch.consumed % kFeedSlots);
            batch += slot * kFeedBatch;
            n = ch.count[slot];
        } else {
            if (core_.cancelRequested()) {
                stop.cycleBudgetExpired = true;
                break;
            }
            uint64_t want =
                std::min<uint64_t>(kFeedBatch, maxInsts - stop.steps);
            const uint64_t ahead = runAhead();
            if (ahead == 0) {
                want = 1;
                bounded = false;
            } else {
                want = std::min(want, ahead);
            }
            n = core_.fillTrace(feedBufs_.data(), size_t(want));
            if (n == 0) {
                // Program exit/trap, or a cancel before any progress.
                if (core_.cancelRequested())
                    stop.cycleBudgetExpired = true;
                break;
            }
        }
        if (!sampling) {
            // Dedicated full-detail loop: no per-record mode dispatch in
            // the common (unsampled) configuration.
            for (size_t i = 0; i < n; ++i)
                timeInst(batch[i]);
        } else {
            for (size_t i = 0; i < n; ++i) {
                const DynInst &dyn = batch[i];
                // Phase switches wait for an application boundary so a
                // replacement sequence is never split across modes.
                if (phaseLeft_ == 0 &&
                    (!dyn.expanded || dyn.firstOfSeq)) {
                    if (phaseDetail_) {
                        const uint64_t warmLen =
                            samplePeriod_ - sampleDetail_;
                        if (warmLen > 0) {
                            phaseDetail_ = false;
                            phaseLeft_ = warmLen;
                        } else {
                            phaseLeft_ = sampleDetail_; // detail==period
                        }
                    } else {
                        phaseDetail_ = true;
                        phaseLeft_ = sampleDetail_;
                    }
                }
                if (phaseLeft_ > 0)
                    --phaseLeft_;
                if (phaseDetail_) {
                    timeInst(dyn);
                    ++result_.sampling.sampledInsts;
                } else {
                    warmInst(dyn);
                    ++result_.sampling.warmedInsts;
                }
            }
        }
        stop.steps += n;
        if (helper) {
            {
                std::lock_guard<std::mutex> lock(ch.m);
                ++ch.consumed;
                if (maxCycles != 0)
                    ch.grant = stop.steps + runAhead();
            }
            ch.cv.notify_one();
        }
        if (bounded) {
            // The batch was sized from perInstCycleBound_; a trip here
            // means the bound is wrong — fail loudly rather than stop
            // on a different instruction than the reference would.
            DISE_ASSERT(lastCommit_ <= maxCycles,
                        "per-instruction cycle bound violated by a "
                        "trace-feed batch");
        } else if (maxCycles != 0 && lastCommit_ > maxCycles) {
            stop.cycleBudgetExpired = true;
            break;
        }
        lastCancelPollCommit_ = lastCommit_;
    }
    ch.join();
    if (ch.error)
        std::rethrow_exception(ch.error);
    return stop;
}

TimingResult
PipelineSim::run(uint64_t maxInsts, uint64_t maxCycles)
{
    DISE_ASSERT(samplePeriod_ == 0 || traceFeed_,
                "sampled timing requires the trace feed");
    // The ring cursors are derived here rather than checkpointed, so the
    // snapshot layout does not depend on them.
    robIdx_ = size_t(instIndex_ % params_.robEntries);
    rsIdx_ = size_t(instIndex_ % params_.rsEntries);
    const RunStop stop = traceFeed_ ? runFeed(maxInsts, maxCycles)
                                    : runStepDriven(maxInsts, maxCycles);

    result_.cycles = lastCommit_;
    result_.arch = core_.result();
    // Watchdog expiry (instruction cap or cycle budget) with the core
    // still live is a Hang outcome, mirroring ExecCore::run.
    if (result_.arch.outcome == RunOutcome::Running &&
        (stop.cycleBudgetExpired || stop.steps >= maxInsts)) {
        result_.arch.outcome = RunOutcome::Hang;
    }
    result_.icacheMisses = mem_.icache().misses();
    result_.dcacheMisses = mem_.dcache().misses();
    result_.l2Misses = mem_.l2().misses();
    if (result_.sampling.enabled) {
        // Warming never advances the commit clock, so the cycle count
        // is exactly the cycles measured inside the detailed windows.
        result_.sampling.measuredCycles = lastCommit_;
    }
    // The accounting identity: every commit-clock advance was charged
    // to exactly one bucket, so the buckets partition the cycle count.
    DISE_ASSERT(result_.buckets.total() == result_.cycles,
                strFormat("cycle buckets sum to %llu, not total %llu",
                          (unsigned long long)result_.buckets.total(),
                          (unsigned long long)result_.cycles));
    return result_;
}

void
PipelineSim::saveSnapshot(TimingSnapshot &out) const
{
    core_.saveSnapshot(out.core);
    out.result = result_;
    out.mem = std::make_unique<MemHierarchy>(params_.mem);
    out.mem->adoptState(mem_);
    out.bpred = std::make_unique<BranchPredictor>(bpred_);
    out.scalars = {feCycle_,
                   feSlots_,
                   curLine_,
                   pendingRedirect_,
                   uint64_t(redirectCause_),
                   pend_.imiss,
                   pend_.dise,
                   pend_.branch,
                   pend_.drain,
                   pend_.dmiss,
                   pend_.hazard,
                   instIndex_,
                   dispatchCycleCur_,
                   dispatchSlots_,
                   commitCycleCur_,
                   commitSlots_,
                   lastCommit_,
                   uint64_t(seqPredCls_),
                   seqPred_.taken,
                   seqPred_.target,
                   seqPred_.targetKnown,
                   seqTriggerPC_,
                   seqTrigTaken_,
                   seqTrigTarget_,
                   seqRedirected_,
                   seqRedirTarget_,
                   seqResolve_,
                   uint64_t(phaseDetail_),
                   phaseLeft_,
                   lastCancelPollCommit_};
    out.scalars.insert(out.scalars.end(), regReady_.begin(),
                       regReady_.end());
    out.scalars.insert(out.scalars.end(), commitRing_.begin(),
                       commitRing_.end());
    out.scalars.insert(out.scalars.end(), issueRing_.begin(),
                       issueRing_.end());
}

void
PipelineSim::restoreSnapshot(const TimingSnapshot &snap)
{
    core_.restoreSnapshot(snap.core);
    result_ = snap.result;
    mem_.adoptState(*snap.mem);
    bpred_ = *snap.bpred;
    const uint64_t *p = snap.scalars.data();
    DISE_ASSERT(snap.scalars.size() == 30 + regReady_.size() +
                                           commitRing_.size() +
                                           issueRing_.size(),
                "timing snapshot shape mismatch (different machine "
                "configuration?)");
    feCycle_ = *p++;
    feSlots_ = uint32_t(*p++);
    curLine_ = *p++;
    pendingRedirect_ = *p++;
    redirectCause_ = StallCause(*p++);
    pend_.imiss = *p++;
    pend_.dise = *p++;
    pend_.branch = *p++;
    pend_.drain = *p++;
    pend_.dmiss = *p++;
    pend_.hazard = *p++;
    instIndex_ = *p++;
    dispatchCycleCur_ = *p++;
    dispatchSlots_ = uint32_t(*p++);
    commitCycleCur_ = *p++;
    commitSlots_ = uint32_t(*p++);
    lastCommit_ = *p++;
    seqPredCls_ = OpClass(*p++);
    seqPred_.taken = *p++ != 0;
    seqPred_.target = *p++;
    seqPred_.targetKnown = *p++ != 0;
    seqTriggerPC_ = *p++;
    seqTrigTaken_ = *p++ != 0;
    seqTrigTarget_ = *p++;
    seqRedirected_ = *p++ != 0;
    seqRedirTarget_ = *p++;
    seqResolve_ = *p++;
    phaseDetail_ = *p++ != 0;
    phaseLeft_ = *p++;
    lastCancelPollCommit_ = *p++;
    for (uint64_t &r : regReady_)
        r = *p++;
    for (uint64_t &r : commitRing_)
        r = *p++;
    for (uint64_t &r : issueRing_)
        r = *p++;
}

void
PipelineSim::registerStats(StatsRegistry &reg)
{
    // Materialize the pipeline's own counters from the timing result.
    pipeStats_.set("cycles", result_.cycles);
    pipeStats_.set("bucket.issue", result_.buckets.issue);
    pipeStats_.set("bucket.imiss_stall", result_.buckets.imissStall);
    pipeStats_.set("bucket.dmiss_stall", result_.buckets.dmissStall);
    pipeStats_.set("bucket.branch_flush", result_.buckets.branchFlush);
    pipeStats_.set("bucket.dise_stall", result_.buckets.diseStall);
    pipeStats_.set("bucket.hazard", result_.buckets.hazard);
    pipeStats_.set("bucket.drain", result_.buckets.drain);
    pipeStats_.set("mispredicts", result_.mispredicts);
    pipeStats_.set("decode_redirects", result_.decodeRedirects);
    pipeStats_.set("dise_mispredicts", result_.diseMispredicts);
    pipeStats_.set("expansion_stalls", result_.expansionStalls);
    pipeStats_.set("miss_stall_cycles", result_.missStallCycles);

    // Architectural run counters (trap/outcome scalars are strings and
    // are added by the caller, e.g. diserun, via reg.set()).
    const RunResult &arch = result_.arch;
    runStats_.set("dyn_insts", arch.dynInsts);
    runStats_.set("app_insts", arch.appInsts);
    runStats_.set("dise_insts", arch.diseInsts);
    runStats_.set("expansions", arch.expansions);
    runStats_.set("loads", arch.loads);
    runStats_.set("stores", arch.stores);
    runStats_.set("acf_detections", arch.acfDetections);

    reg.add("pipeline", &pipeStats_);
    reg.add("run", &runStats_);
    reg.add("mem.l1i", &mem_.icache().stats());
    reg.add("mem.l1d", &mem_.dcache().stats());
    reg.add("mem.l2", &mem_.l2().stats());
    reg.add("bpred", &bpred_.stats());
    if (controller_)
        reg.add("dise", &controller_->engine().stats());
    if (core_.fusionEnabled())
        reg.add("acf.fusion", &core_.fusionStatGroup());

    // Only present for sampled runs: full-detail feed and step-driven
    // runs must serialize identically.
    if (result_.sampling.enabled) {
        const SamplingInfo &s = result_.sampling;
        samplingStats_.set("period", s.period);
        samplingStats_.set("detail", s.detail);
        samplingStats_.set("sampled_insts", s.sampledInsts);
        samplingStats_.set("warmed_insts", s.warmedInsts);
        samplingStats_.set("measured_cycles", s.measuredCycles);
        samplingStats_.set("estimated_cycles", result_.estimatedCycles());
        reg.add("sampling", &samplingStats_);
        reg.addRatio("sampling.measured_cpi", "sampling.measured_cycles",
                     "sampling.sampled_insts");
    }

    reg.addRatio("mem.l1i.miss_rate", "mem.l1i.misses",
                 "mem.l1i.accesses");
    reg.addRatio("mem.l1d.miss_rate", "mem.l1d.misses",
                 "mem.l1d.accesses");
    reg.addRatio("mem.l2.miss_rate", "mem.l2.misses", "mem.l2.accesses");
    reg.addRatio("bpred.mispredict_rate", "pipeline.mispredicts",
                 "bpred.predictions");
    reg.addRatio("pipeline.ipc", "run.dyn_insts", "pipeline.cycles");
    reg.addRatio("pipeline.cpi", "pipeline.cycles", "run.dyn_insts");
    if (controller_) {
        reg.addRatio("dise.expansion_rate", "dise.expansions",
                     "dise.inspected");
    }
}

} // namespace dise
