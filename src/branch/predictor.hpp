/**
 * @file
 * Branch prediction: gshare direction predictor, set-associative BTB,
 * and a return-address stack. Matches the "aggressive branch speculation"
 * of the paper's simulated MIPS R10000-like machine.
 *
 * DISE interaction (paper Section 2.2): DISE-internal branches and
 * non-trigger application branches inside replacement sequences are never
 * predicted and must not update the BTB; the pipeline model enforces this
 * by simply not consulting the predictor for them.
 */

#ifndef DISE_BRANCH_PREDICTOR_HPP
#define DISE_BRANCH_PREDICTOR_HPP

#include <cstdint>
#include <vector>

#include "src/common/stats.hpp"
#include "src/isa/inst.hpp"

namespace dise {

/** Predictor configuration. */
struct PredictorParams
{
    uint32_t gshareEntries = 4096; ///< 2-bit counters
    uint32_t historyBits = 8;
    uint32_t btbEntries = 2048;
    uint32_t btbAssoc = 4;
    uint32_t rasEntries = 16;
};

/** Combined direction + target predictor. */
class BranchPredictor
{
  public:
    explicit BranchPredictor(const PredictorParams &params = {});

    /** A complete front-end prediction for one control instruction. */
    struct Prediction
    {
        bool taken = false;
        Addr target = 0;
        bool targetKnown = false; ///< BTB/RAS supplied a target
    };

    /**
     * Predict a control instruction at @p pc.
     * @param cls Its opcode class (drives direction/target policy).
     * @param fallThrough pc + 4.
     */
    Prediction predict(Addr pc, OpClass cls, Addr fallThrough);

    /**
     * Train on the resolved outcome.
     * @param pc Branch PC.
     * @param cls Opcode class.
     * @param taken Actual direction.
     * @param target Actual target.
     */
    void update(Addr pc, OpClass cls, bool taken, Addr target);

    /** Push a return address (on calls). */
    void pushReturn(Addr returnAddr);

    const StatGroup &stats() const { return stats_; }
    /** For an owner that creates keys up front; hold no cell() pointer
     *  from it, since copy-assignment replaces the group. */
    StatGroup &stats() { return stats_; }

  private:
    struct BtbEntry
    {
        bool valid = false;
        uint64_t tag = 0;
        Addr target = 0;
        uint64_t lastUse = 0;
    };

    unsigned gshareIndex(Addr pc) const;
    BtbEntry *btbLookup(Addr pc);
    void btbInsert(Addr pc, Addr target);

    PredictorParams params_;
    std::vector<uint8_t> counters_;
    uint64_t history_ = 0;
    std::vector<BtbEntry> btb_;
    /** BTB set count - 1 and log2(set count): index and tag of
     *  (pc >> 2) by mask and shift (the set count is a power of two). */
    uint64_t btbSetMask_ = 0;
    uint32_t btbTagShift_ = 0;
    std::vector<Addr> ras_;
    size_t rasTop_ = 0;
    uint64_t useCounter_ = 0;
    StatGroup stats_;
    /** stats_ counters; a copy starts with them unbound (StatCell), so
     *  its bumps land in its own stats_. */
    StatCell predictions_;
    StatCell updates_;
};

} // namespace dise

#endif // DISE_BRANCH_PREDICTOR_HPP
