#include "src/faults/campaign.hpp"

#include <algorithm>
#include <map>

#include "src/common/logging.hpp"
#include "src/common/stats.hpp"
#include "src/sim/snapshot.hpp"

namespace dise {

const char *
trialOutcomeName(TrialOutcome outcome)
{
    switch (outcome) {
      case TrialOutcome::Benign:
        return "benign";
      case TrialOutcome::DetectedByAcf:
        return "detected-acf";
      case TrialOutcome::DetectedByTrap:
        return "detected-trap";
      case TrialOutcome::Hang:
        return "hang";
      case TrialOutcome::SilentCorruption:
        return "silent-corruption";
      case TrialOutcome::NotInjected:
        return "not-injected";
      case TrialOutcome::SimError:
        return "sim-error";
    }
    return "?";
}

double
CampaignResult::detectedFraction() const
{
    return safeRatio(double(count(TrialOutcome::DetectedByAcf) +
                            count(TrialOutcome::DetectedByTrap)),
                     double(injected));
}

double
CampaignResult::silentFraction() const
{
    return safeRatio(double(count(TrialOutcome::SilentCorruption)),
                     double(injected));
}

TrialOutcome
classifyTrialOutcome(const RunResult &trial, const RunResult &golden,
                     bool injected)
{
    if (!injected)
        return TrialOutcome::NotInjected;
    if (trial.acfDetections > 0)
        return TrialOutcome::DetectedByAcf;
    if (trial.outcome == RunOutcome::Trap)
        return TrialOutcome::DetectedByTrap;
    if (trial.outcome != RunOutcome::Exit)
        return TrialOutcome::Hang;
    if (trial.exitCode == golden.exitCode &&
        trial.output == golden.output) {
        return TrialOutcome::Benign;
    }
    return TrialOutcome::SilentCorruption;
}

Json
campaignToJson(const CampaignResult &result)
{
    Json outcomes = Json::object();
    for (size_t i = 0; i < kNumTrialOutcomes; ++i)
        outcomes[trialOutcomeName(static_cast<TrialOutcome>(i))] =
            Json(uint64_t(result.counts[i]));
    Json entry = Json::object();
    entry["injected"] = Json(uint64_t(result.injected));
    entry["outcomes"] = std::move(outcomes);
    entry["detected_fraction"] = Json(result.detectedFraction());
    entry["parity_detected"] = Json(uint64_t(result.parityDetected));
    entry["parity_recovered"] = Json(uint64_t(result.parityRecovered));
    // Replay accounting differs by design between snapshot and
    // full-replay campaigns (that difference IS the O(delta) claim), so
    // it lives in its own section that determinism comparisons strip,
    // like "host".
    Json replay = Json::object();
    replay["replayed_insts"] = Json(result.replayedInsts);
    replay["saved_insts"] = Json(result.savedInsts);
    entry["replay"] = std::move(replay);
    return entry;
}

namespace {

/** One run's worth of machinery (controller optional). */
struct RunContext
{
    std::unique_ptr<DiseController> controller;
    std::unique_ptr<ExecCore> core;
};

RunContext
makeRun(const CampaignSetup &setup, const std::atomic<bool> *cancel)
{
    RunContext ctx;
    if (setup.makeAcf) {
        ctx.controller =
            std::make_unique<DiseController>(setup.diseConfig);
        ctx.controller->install(setup.makeAcf());
    }
    ctx.core =
        std::make_unique<ExecCore>(*setup.prog, ctx.controller.get());
    ctx.core->setCancelFlag(cancel);
    if (setup.initCore)
        setup.initCore(*ctx.core);
    return ctx;
}

uint64_t
parityDetections(const DiseController *controller)
{
    if (!controller)
        return 0;
    const StatGroup &stats = controller->engine().stats();
    return stats.get("pt_parity_detected") +
           stats.get("rt_parity_detected");
}

/** Everything one trial produces; aggregated in trial order. */
struct TrialData
{
    TrialRecord rec;
    /** Guest instructions this trial actually executed (the suffix
     *  only, when it restored a snapshot). */
    uint64_t execInsts = 0;
    /** Guest instructions a from-reset replay of this trial covers
     *  (prefix + suffix); what execInsts is measured against. */
    uint64_t fullDynInsts = 0;
    bool injectedBit = false;
    bool simError = false;
};

/**
 * Run and classify one trial. Thread-safe: each trial owns a fresh
 * controller/core and reads only const campaign state — the setup, the
 * golden run, its precomputed plan, and (snapshot mode) a frozen
 * SimSnapshot, which restores never mutate.
 *
 * Faults inject at the first application-instruction boundary with
 * plan.triggerAppInst application instructions retired — identically
 * in both modes: the full-replay step loop gates on atAppBoundary(),
 * and snapshots are taken at exactly that boundary.
 */
TrialData
runTrial(const CampaignSetup &setup, const FaultPlan &plan,
         const RunResult &gold, uint64_t hangBudget,
         const SimSnapshot *snap, const std::atomic<bool> *cancel)
{
    TrialData data;
    data.rec.plan = plan;

    try {
        RunContext run = makeRun(setup, cancel);
        uint64_t restoredInsts = 0;
        if (snap) {
            // O(delta): adopt the golden prefix (COW memory fork, full
            // engine state) and execute only the divergent suffix,
            // through the translated fast path.
            run.core->restoreSnapshot(*snap);
            restoredInsts = snap->result.dynInsts;
            if (!run.core->exited() && !run.core->trapped()) {
                data.injectedBit = applyFault(*run.core,
                                              run.controller.get(),
                                              *setup.prog, plan);
            }
            run.core->run(hangBudget);
        } else {
            // Reference configuration: replay the prefix from reset on
            // the step path.
            bool triggered = false;
            DynInst dyn;
            uint64_t steps = 0;
            while (steps < hangBudget) {
                if (!triggered &&
                    run.core->result().appInsts >= plan.triggerAppInst &&
                    run.core->atAppBoundary()) {
                    data.injectedBit = applyFault(*run.core,
                                                  run.controller.get(),
                                                  *setup.prog, plan);
                    triggered = true;
                }
                if (!run.core->step(dyn))
                    break;
                ++steps;
                if ((steps & 0x3ff) == 0 && run.core->cancelRequested())
                    break;
            }
        }

        const RunResult &r = run.core->result();
        data.execInsts = r.dynInsts - restoredInsts;
        data.fullDynInsts = r.dynInsts;
        data.rec.parityDetections = parityDetections(run.controller.get());
        data.rec.outcome = classifyTrialOutcome(r, gold, data.injectedBit);
    } catch (const std::exception &) {
        // The simulator must never throw at a guest fault; anything
        // escaping here is a host-level bug the bench asserts on.
        data.simError = true;
        data.injectedBit = false;
        data.rec.outcome = TrialOutcome::SimError;
    }
    return data;
}

} // namespace

CampaignResult
runCampaign(const CampaignSetup &setup, const CampaignConfig &config,
            SimScheduler *scheduler)
{
    DISE_ASSERT(setup.prog != nullptr, "campaign without a program");
    DISE_ASSERT(!config.targets.empty(), "campaign without targets");

    CampaignResult result;

    // Golden (fault-free) run: the classification baseline.
    RunContext golden = makeRun(setup, config.cancel);
    const RunResult gold = golden.core->run(config.maxGoldenInsts);
    // A deadline cancel ends the golden run as a Hang: reported as a
    // cancel, not as a broken program.
    if (gold.outcome == RunOutcome::Hang && golden.core->cancelRequested())
        fatal("fault campaign: cancelled during golden run");
    if (gold.outcome != RunOutcome::Exit || gold.exitCode != 0) {
        fatal(strFormat("fault campaign: golden run did not exit "
                        "cleanly (outcome=%s code=%d)",
                        runOutcomeName(gold.outcome), gold.exitCode));
    }
    result.golden = gold;
    result.goldenDynInsts = gold.dynInsts;
    result.goldenAppInsts = gold.appInsts;
    result.totalDynInsts += gold.dynInsts;

    const uint64_t hangBudget = std::max<uint64_t>(
        static_cast<uint64_t>(double(gold.dynInsts) *
                              config.hangBudgetFactor),
        gold.dynInsts + 10000);

    // Every trial's plan is derived up front from its per-trial seed —
    // the same derivation the trials themselves used before plans were
    // hoisted, so plan streams are unchanged for a given campaign seed.
    std::vector<FaultPlan> plans;
    plans.reserve(config.trials);
    for (uint32_t t = 0; t < config.trials; ++t) {
        Rng rng(Rng::deriveSeed(config.seed, t));
        const FaultTarget target =
            config.targets[t % config.targets.size()];
        plans.push_back(makeFaultPlan(rng, target, gold.appInsts));
    }

    // Snapshot pass: one core walks the golden path once (translated
    // fast path), freezing a COW snapshot at every distinct trigger
    // boundary. Trials sharing a trigger share one snapshot; restores
    // from a frozen snapshot are thread-safe.
    std::map<uint64_t, std::shared_ptr<const SimSnapshot>> snapshots;
    uint64_t snapshotterInsts = 0;
    if (config.useSnapshots) {
        RunContext pass = makeRun(setup, config.cancel);
        for (const FaultPlan &plan : plans)
            snapshots.emplace(plan.triggerAppInst, nullptr);
        for (auto &kv : snapshots) {
            pass.core->advanceToAppInst(kv.first);
            // A cancelled advance leaves the core short of the trigger
            // boundary — the snapshot would misposition every trial
            // sharing it, so abandon the campaign here.
            if (pass.core->cancelRequested())
                fatal("fault campaign: cancelled during snapshot pass");
            auto snap = std::make_shared<SimSnapshot>();
            pass.core->saveSnapshot(*snap);
            kv.second = std::move(snap);
        }
        snapshotterInsts = pass.core->result().dynInsts;
        result.totalDynInsts += snapshotterInsts;
    }

    // Run the trials — fanned out across the scheduler when one is
    // provided, serially otherwise. Either way each trial writes its
    // own TrialData slot, and the aggregation below walks the slots in
    // trial order, so the result is bit-identical at any worker count.
    std::vector<uint32_t> indices(config.trials);
    for (uint32_t t = 0; t < config.trials; ++t)
        indices[t] = t;
    std::vector<TrialData> data;
    const auto trial = [&](uint32_t t) {
        const SimSnapshot *snap = nullptr;
        if (config.useSnapshots)
            snap = snapshots.at(plans[t].triggerAppInst).get();
        return runTrial(setup, plans[t], gold, hangBudget, snap,
                        config.cancel);
    };
    if (scheduler && scheduler->workers() > 1)
        data = scheduler->map(indices, trial);
    else {
        data.reserve(config.trials);
        for (const uint32_t t : indices)
            data.push_back(trial(t));
    }

    uint64_t fullReplayInsts = 0;
    result.replayedInsts = snapshotterInsts;
    for (const TrialData &d : data) {
        result.totalDynInsts += d.execInsts;
        result.replayedInsts += d.execInsts;
        fullReplayInsts += d.fullDynInsts;
        if (d.injectedBit)
            ++result.injected;
        if (d.simError)
            ++result.uncaughtExceptions;
        result.parityDetected += d.rec.parityDetections;
        if (d.rec.parityDetections > 0 &&
            d.rec.outcome == TrialOutcome::Benign) {
            ++result.parityRecovered;
        }
        ++result.counts[static_cast<size_t>(d.rec.outcome)];
        result.trials.push_back(d.rec);
    }
    result.savedInsts = fullReplayInsts > result.replayedInsts
                            ? fullReplayInsts - result.replayedInsts
                            : 0;
    return result;
}

} // namespace dise
