#include "src/branch/predictor.hpp"

#include "src/common/bits.hpp"
#include "src/common/logging.hpp"

namespace dise {

BranchPredictor::BranchPredictor(const PredictorParams &params)
    : params_(params), stats_("bpred")
{
    DISE_ASSERT(isPow2(params_.gshareEntries), "gshare size must be pow2");
    DISE_ASSERT(isPow2(params_.btbEntries / params_.btbAssoc),
                "btb sets must be pow2");
    const uint32_t sets = params_.btbEntries / params_.btbAssoc;
    btbSetMask_ = sets - 1;
    btbTagShift_ = log2i(sets);
    counters_.assign(params_.gshareEntries, 1); // weakly not-taken
    btb_.assign(params_.btbEntries, BtbEntry());
    ras_.assign(params_.rasEntries, 0);
}

unsigned
BranchPredictor::gshareIndex(Addr pc) const
{
    const uint64_t hist = history_ & ((uint64_t(1) << params_.historyBits) - 1);
    return static_cast<unsigned>(((pc >> 2) ^ hist) &
                                 (params_.gshareEntries - 1));
}

BranchPredictor::BtbEntry *
BranchPredictor::btbLookup(Addr pc)
{
    const uint64_t set = (pc >> 2) & btbSetMask_;
    const uint64_t tag = (pc >> 2) >> btbTagShift_;
    BtbEntry *way = &btb_[set * params_.btbAssoc];
    for (uint32_t w = 0; w < params_.btbAssoc; ++w)
        if (way[w].valid && way[w].tag == tag)
            return &way[w];
    return nullptr;
}

void
BranchPredictor::btbInsert(Addr pc, Addr target)
{
    const uint64_t set = (pc >> 2) & btbSetMask_;
    const uint64_t tag = (pc >> 2) >> btbTagShift_;
    BtbEntry *way = &btb_[set * params_.btbAssoc];
    BtbEntry *victim = &way[0];
    for (uint32_t w = 0; w < params_.btbAssoc; ++w) {
        if (way[w].valid && way[w].tag == tag) {
            victim = &way[w];
            break;
        }
        if (!way[w].valid || way[w].lastUse < victim->lastUse)
            victim = &way[w];
    }
    victim->valid = true;
    victim->tag = tag;
    victim->target = target;
    victim->lastUse = ++useCounter_;
}

BranchPredictor::Prediction
BranchPredictor::predict(Addr pc, OpClass cls, Addr fallThrough)
{
    predictions_.bump(stats_, "predictions");
    Prediction pred;
    pred.target = fallThrough;

    switch (cls) {
      case OpClass::CondBranch: {
        const unsigned idx = gshareIndex(pc);
        pred.taken = counters_[idx] >= 2;
        if (pred.taken) {
            if (BtbEntry *entry = btbLookup(pc)) {
                entry->lastUse = ++useCounter_;
                pred.target = entry->target;
                pred.targetKnown = true;
            } else {
                // Taken prediction without a target is useless; fetch
                // falls through and the branch resolves as a mispredict.
                pred.taken = false;
            }
        } else {
            pred.targetKnown = true;
        }
        break;
      }
      case OpClass::UncondBranch:
      case OpClass::Call:
        pred.taken = true;
        if (BtbEntry *entry = btbLookup(pc)) {
            entry->lastUse = ++useCounter_;
            pred.target = entry->target;
            pred.targetKnown = true;
        }
        break;
      case OpClass::Return:
        pred.taken = true;
        if (rasTop_ > 0) {
            --rasTop_;
            pred.target = ras_[rasTop_ % params_.rasEntries];
            pred.targetKnown = true;
        } else if (BtbEntry *entry = btbLookup(pc)) {
            pred.target = entry->target;
            pred.targetKnown = true;
        }
        break;
      case OpClass::Jump:
      case OpClass::CallIndirect:
        pred.taken = true;
        if (BtbEntry *entry = btbLookup(pc)) {
            entry->lastUse = ++useCounter_;
            pred.target = entry->target;
            pred.targetKnown = true;
        }
        break;
      default:
        break;
    }
    return pred;
}

void
BranchPredictor::update(Addr pc, OpClass cls, bool taken, Addr target)
{
    updates_.bump(stats_, "updates");
    if (cls == OpClass::CondBranch) {
        const unsigned idx = gshareIndex(pc);
        uint8_t &counter = counters_[idx];
        if (taken && counter < 3)
            ++counter;
        else if (!taken && counter > 0)
            --counter;
        history_ = (history_ << 1) | (taken ? 1 : 0);
    }
    if (taken && cls != OpClass::Return)
        btbInsert(pc, target);
}

void
BranchPredictor::pushReturn(Addr returnAddr)
{
    ras_[rasTop_ % params_.rasEntries] = returnAddr;
    ++rasTop_;
}

} // namespace dise
