/**
 * @file
 * A fixed reference workload that measures how fast the host runs now.
 *
 * The benchmark's host is a VM that shares its cores and caches with
 * other tenants. When they load the machine, the simulator slows down
 * by up to 45% within seconds, with CPU time tracking wall time, and a
 * whole 25-s run can land in a slow or a fast stretch. Two small
 * kernels slow down with it: a switch-dispatched bytecode interpreter
 * over 1 MiB of data, and lookups in a 1 MiB open-addressing table
 * that the caches have to refetch. Recorded next to every request of
 * the closed-loop workloads, each slowed by about two thirds of the
 * simulator's slowdown (in logarithms), so the product of the two
 * follows it; a plain arithmetic loop hardly slowed at all. Dividing
 * each request's time by that product took the spread of ten runs'
 * guest MIPS from 0.2-0.4 to 0.02 (perfbench/METRICS.md).
 *
 * sample() first streams through a buffer twice the size of the L2,
 * so each sample starts from the same cache state whatever ran before
 * it, then times the two kernels. The kernels depend on nothing in
 * src/, so a change to the simulator does not move them.
 */

#ifndef PERFBENCH_HOSTPROBE_HPP
#define PERFBENCH_HOSTPROBE_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

class HostProbe
{
  public:
    HostProbe()
        : sweep_(kSweepWords), memory_(kMemoryWords),
          program_(kProgramLen), table_(kTableLen)
    {
        uint64_t s = 5;
        for (uint8_t &op : program_)
            op = uint8_t(next(s) % 16);
        for (uint64_t &slot : table_)
            slot = next(s);
        for (size_t i = 0; i < sweep_.size(); ++i)
            sweep_[i] = i;
    }

    /** Host slowdown against the reference speed (1 = reference). */
    double
    sample()
    {
        uint64_t sum = 0;
        for (const uint64_t v : sweep_)
            sum += v;
        sink_ = sum;
        std::fill(memory_.begin(), memory_.end(), 0u);
        const double interp = timeNs([this] { interpret(); });
        const double lookups = timeNs([this] { lookup(); });
        return interp / (kInterpOps * kInterpRefNs) *
               (lookups / (kLookups * kLookupRefNs));
    }

  private:
    static constexpr size_t kSweepWords = size_t(1) << 19;  // 4 MiB
    static constexpr uint32_t kMemoryWords = 1u << 18;      // 1 MiB
    static constexpr uint32_t kProgramLen = 1u << 16;
    static constexpr uint32_t kTableLen = 1u << 17;         // 1 MiB
    static constexpr uint32_t kInterpOps = 50000;
    static constexpr uint32_t kLookups = 20000;
    /** Per-operation times on the reference host: a 4-vCPU Xeon
     *  Sapphire Rapids VM at 2.0 GHz, in a calm stretch. */
    static constexpr double kInterpRefNs = 15.5;
    static constexpr double kLookupRefNs = 14.0;

    static uint64_t
    next(uint64_t &s)
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }

    template <typename F>
    static double
    timeNs(F &&kernel)
    {
        const auto t0 = std::chrono::steady_clock::now();
        kernel();
        return std::chrono::duration<double, std::nano>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    }

    /** Sixteen handlers, data-dependent jumps, loads and stores. */
    void
    interpret()
    {
        uint32_t r[16];
        for (uint32_t i = 0; i < 16; ++i)
            r[i] = i + 1;
        constexpr uint32_t kMask = kMemoryWords - 1;
        constexpr uint32_t kPcMask = kProgramLen - 1;
        uint32_t pc = 0;
        for (uint32_t i = 0; i < kInterpOps; ++i) {
            const uint32_t a = i & 15, b = (i + 5) & 15;
            switch (program_[pc]) {
            case 0: r[a] += r[b]; break;
            case 1: r[a] ^= r[b] << 3; break;
            case 2: r[a] = memory_[(r[b] * 2654435761u) & kMask]; break;
            case 3: memory_[(r[b] * 40503u) & kMask] = r[a]; break;
            case 4: if (r[a] & 1) pc = (pc + 7) & kPcMask; break;
            case 5: r[a] = r[a] * 3 + 1; break;
            case 6: r[a] -= r[b]; break;
            case 7: if (r[b] & 2) pc = (pc + 13) & kPcMask; break;
            case 8: r[a] = r[a] >> 1 | r[b] << 31; break;
            case 9: r[a] = memory_[(r[a] + i) & kMask] + 1; break;
            case 10: if ((r[a] ^ r[b]) & 4) pc = (pc + 29) & kPcMask; break;
            case 11: r[a] = r[b] * r[a] + 7; break;
            case 12: memory_[(r[a] * 7) & kMask] += r[b]; break;
            case 13: r[a] = r[a] < r[b] ? r[b] : r[a] + 1; break;
            case 14: r[a] = ~r[b]; break;
            default: if (r[a] > r[b]) pc = (pc + 3) & kPcMask; break;
            }
            pc = (pc + 1) & kPcMask;
        }
        sink_ = r[0] + r[9];
    }

    /** Random-key probes with linear stepping on a tag mismatch. */
    void
    lookup()
    {
        constexpr uint64_t kMask = kTableLen - 1;
        uint64_t s = 42, acc = 0;
        for (uint32_t i = 0; i < kLookups; ++i) {
            const uint64_t key = next(s);
            for (uint64_t h = (key * 0x9e3779b97f4a7c15ull) >> 47;; ++h) {
                const uint64_t slot = table_[h & kMask];
                if ((slot & 7) != (key & 7) || (slot >> 60) == (key >> 60)) {
                    acc += slot;
                    break;
                }
            }
        }
        sink_ = acc;
    }

    std::vector<uint64_t> sweep_;
    std::vector<uint32_t> memory_;
    std::vector<uint8_t> program_;
    std::vector<uint64_t> table_;
    volatile uint64_t sink_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_HOSTPROBE_HPP
