/**
 * @file
 * In-memory span recorder for the benchmark's traced pass.
 *
 * A span is one call into a layer's public function: name, start, end,
 * the span that was open when it started (its parent), and the id of
 * the request it served. Spans stay in memory and are written once, at
 * exit, as Chrome trace-event JSON (chrome://tracing, Perfetto).
 * Single-threaded: the traced pass runs requests one after another.
 */

#ifndef PERFBENCH_TRACER_HPP
#define PERFBENCH_TRACER_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span
{
    std::string name;
    int64_t request = -1; ///< request index; -1 = setup or probe
    int parent = -1;      ///< index into Tracer::spans(); -1 = root
    double startUs = 0.0;
    double endUs = 0.0;

    double durMs() const { return (endUs - startUs) / 1000.0; }
};

class Tracer
{
  public:
    /** Closes its span when it leaves scope. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, int index) : tracer_(tracer), index_(index)
        {
        }
        ~Scope() { tracer_.close(index_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        int index() const { return index_; }

      private:
        Tracer &tracer_;
        int index_;
    };

    Tracer() : epoch_(std::chrono::steady_clock::now()) {}

    /** Open a span under the innermost open one. */
    [[nodiscard]] Scope
    span(const std::string &name, int64_t request)
    {
        Span s;
        s.name = name;
        s.request = request;
        s.parent = open_.empty() ? -1 : open_.back();
        s.startUs = nowUs();
        spans_.push_back(std::move(s));
        open_.push_back(int(spans_.size()) - 1);
        return Scope(*this, open_.back());
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time per span: duration minus its children's durations. */
    std::vector<double>
    selfMs() const
    {
        std::vector<double> self(spans_.size());
        for (size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].durMs();
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                self[size_t(s.parent)] -= s.durMs();
        }
        return self;
    }

  private:
    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    void
    close(int index)
    {
        spans_[size_t(index)].endUs = nowUs();
        open_.pop_back();
    }

    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HPP
