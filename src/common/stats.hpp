/**
 * @file
 * Lightweight statistics counters and registries.
 *
 * Every simulation component exposes its counters through a StatGroup so
 * that tests and benches can introspect them by name without knowing the
 * component's concrete type. A StatsRegistry aggregates the groups of a
 * whole simulator instance under hierarchical dotted names ("mem.l1i",
 * "dise", "pipeline"), adds registry-owned scalars (host wall clock,
 * run metadata) and derived ratios (miss rates, CPI), and serializes
 * everything to JSON for machine-readable artifacts.
 */

#ifndef DISE_COMMON_STATS_HPP
#define DISE_COMMON_STATS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/json.hpp"

namespace dise {

/** A named group of scalar counters. */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    /** Increment (creating if necessary) the counter @p key. */
    void add(const std::string &key, uint64_t delta = 1);

    /** Set a counter to an absolute value. */
    void set(const std::string &key, uint64_t value);

    /** Read a counter; returns 0 when absent. */
    uint64_t get(const std::string &key) const;

    /**
     * Stable pointer to the counter cell for @p key (created at 0 if
     * absent). Hot paths bump the cell directly, skipping the map
     * lookup and string construction of add(); map nodes never move,
     * so the pointer stays valid until the map itself is replaced
     * (copy-assignment from another StatGroup, e.g. a snapshot
     * restore) — holders must re-derive their cells after that.
     */
    uint64_t *cell(const std::string &key) { return &counters_[key]; }

    /** All counters in insertion-independent (sorted) order. */
    const std::map<std::string, uint64_t> &counters() const
    {
        return counters_;
    }

    /** Reset every counter to zero. */
    void reset();

    /** Render as "group.key value" lines. */
    std::string dump() const;

  private:
    std::string name_;
    std::map<std::string, uint64_t> counters_;
};

/**
 * One counter of a StatGroup, bumped through a pointer bound on first
 * use: after the first bump, a bump is a compare and an increment with
 * no string or map lookup, and the key appears in the group exactly
 * when add() would have created it. The pointer aims into one group's
 * map, so a copy starts unbound, and a holder whose group is replaced
 * (copy-assigned from another) must unbind() it.
 */
class StatCell
{
  public:
    StatCell() = default;
    StatCell(const StatCell &) {}
    StatCell &
    operator=(const StatCell &)
    {
        cell_ = nullptr;
        return *this;
    }

    void
    bump(StatGroup &group, const char *key)
    {
        if (cell_ == nullptr) [[unlikely]]
            cell_ = bind(group, key);
        ++*cell_;
    }

    void unbind() { cell_ = nullptr; }

  private:
    /** Out of line: keeps the string construction off inlined paths. */
    static uint64_t *bind(StatGroup &group, const char *key);

    uint64_t *cell_ = nullptr;
};

/** Ratio helper that tolerates zero denominators. */
double safeRatio(double num, double den);

/**
 * A view over the StatGroups of one simulator instance.
 *
 * Components register their groups under hierarchical dotted paths; the
 * registry does not own them and reads their counters lazily, so it must
 * be serialized while the components are still alive. Registry-owned
 * scalars carry values that live outside any component (wall-clock time,
 * run outcome), and derived ratios are computed from two counter paths
 * at serialization time.
 */
class StatsRegistry
{
  public:
    /** Register @p group under @p path (e.g. "mem.l1i"); not owned. */
    void add(const std::string &path, const StatGroup *group);

    /** Set a registry-owned scalar (number, string, bool...). */
    void set(const std::string &path, Json value);

    /**
     * Define a derived ratio at @p path computed as the counter (or
     * scalar) at @p numPath over the one at @p denPath; a zero
     * denominator yields 0 (safeRatio).
     */
    void addRatio(const std::string &path, const std::string &numPath,
                  const std::string &denPath);

    /**
     * Read one value by full dotted path — a group counter
     * ("mem.l1i.misses"), a registry scalar, or a derived ratio.
     * Returns 0 for unknown paths (mirrors StatGroup::get).
     */
    double value(const std::string &path) const;

    /**
     * Serialize to a JSON object nested along the dotted paths:
     * {"mem": {"l1i": {"misses": 63, "miss_rate": 0.0027, ...}}}.
     */
    Json toJson() const;

    /** Flat "path value" text lines, sorted by path (debugging). */
    std::string dump() const;

  private:
    /** Numeric lookup without ratio resolution (ratio inputs). */
    bool rawValue(const std::string &path, double &out) const;

    struct Ratio
    {
        std::string path;
        std::string numPath;
        std::string denPath;
    };

    std::map<std::string, const StatGroup *> groups_;
    std::map<std::string, Json> scalars_;
    std::vector<Ratio> ratios_;
};

} // namespace dise

#endif // DISE_COMMON_STATS_HPP
