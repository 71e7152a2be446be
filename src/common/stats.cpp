#include "src/common/stats.hpp"

#include <sstream>

namespace dise {

void
StatGroup::add(const std::string &key, uint64_t delta)
{
    counters_[key] += delta;
}

void
StatGroup::set(const std::string &key, uint64_t value)
{
    counters_[key] = value;
}

uint64_t
StatGroup::get(const std::string &key) const
{
    const auto it = counters_.find(key);
    return it == counters_.end() ? 0 : it->second;
}

uint64_t *
StatCell::bind(StatGroup &group, const char *key)
{
    return group.cell(key);
}

void
StatGroup::reset()
{
    for (auto &kv : counters_)
        kv.second = 0;
}

std::string
StatGroup::dump() const
{
    std::ostringstream os;
    for (const auto &kv : counters_)
        os << name_ << '.' << kv.first << ' ' << kv.second << '\n';
    return os.str();
}

double
safeRatio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

// ---- StatsRegistry. ----

void
StatsRegistry::add(const std::string &path, const StatGroup *group)
{
    groups_[path] = group;
}

void
StatsRegistry::set(const std::string &path, Json value)
{
    scalars_[path] = std::move(value);
}

void
StatsRegistry::addRatio(const std::string &path,
                        const std::string &numPath,
                        const std::string &denPath)
{
    ratios_.push_back({path, numPath, denPath});
}

bool
StatsRegistry::rawValue(const std::string &path, double &out) const
{
    const auto sit = scalars_.find(path);
    if (sit != scalars_.end() && sit->second.isNumeric()) {
        out = sit->second.asDouble();
        return true;
    }
    // Group counters: the path is "<group path>.<counter key>"; try
    // every '.' split from the right so group paths may contain dots.
    // Only a counter that actually exists counts as found — a ratio
    // may live at "<group path>.<name>" without shadowing.
    for (size_t dot = path.rfind('.'); dot != std::string::npos;
         dot = dot == 0 ? std::string::npos : path.rfind('.', dot - 1)) {
        const auto git = groups_.find(path.substr(0, dot));
        if (git != groups_.end()) {
            const auto &counters = git->second->counters();
            const auto cit = counters.find(path.substr(dot + 1));
            if (cit != counters.end()) {
                out = double(cit->second);
                return true;
            }
        }
    }
    return false;
}

double
StatsRegistry::value(const std::string &path) const
{
    double out = 0;
    if (rawValue(path, out))
        return out;
    for (const Ratio &ratio : ratios_) {
        if (ratio.path != path)
            continue;
        double num = 0, den = 0;
        rawValue(ratio.numPath, num);
        rawValue(ratio.denPath, den);
        return safeRatio(num, den);
    }
    return 0;
}

namespace {

/** Insert @p value at the dotted @p path inside the object @p root. */
void
insertAtPath(Json &root, const std::string &path, Json value)
{
    Json *node = &root;
    size_t start = 0;
    for (size_t dot = path.find('.'); dot != std::string::npos;
         dot = path.find('.', start)) {
        node = &(*node)[path.substr(start, dot - start)];
        start = dot + 1;
    }
    (*node)[path.substr(start)] = std::move(value);
}

} // namespace

Json
StatsRegistry::toJson() const
{
    Json root = Json::object();
    for (const auto &kv : groups_) {
        for (const auto &counter : kv.second->counters())
            insertAtPath(root, kv.first + "." + counter.first,
                         Json(counter.second));
    }
    for (const auto &kv : scalars_)
        insertAtPath(root, kv.first, kv.second);
    for (const Ratio &ratio : ratios_) {
        double num = 0, den = 0;
        rawValue(ratio.numPath, num);
        rawValue(ratio.denPath, den);
        insertAtPath(root, ratio.path, Json(safeRatio(num, den)));
    }
    return root;
}

std::string
StatsRegistry::dump() const
{
    // Collect into a sorted map so group counters, scalars and ratios
    // interleave by path.
    std::map<std::string, std::string> lines;
    for (const auto &kv : groups_) {
        for (const auto &counter : kv.second->counters())
            lines[kv.first + "." + counter.first] =
                std::to_string(counter.second);
    }
    for (const auto &kv : scalars_)
        lines[kv.first] = kv.second.dump();
    for (const Ratio &ratio : ratios_) {
        double num = 0, den = 0;
        rawValue(ratio.numPath, num);
        rawValue(ratio.denPath, den);
        lines[ratio.path] = Json(safeRatio(num, den)).dump();
    }
    std::ostringstream os;
    for (const auto &kv : lines)
        os << kv.first << ' ' << kv.second << '\n';
    return os.str();
}

} // namespace dise
