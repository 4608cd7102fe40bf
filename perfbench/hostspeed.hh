/**
 * @file
 * Host speed probe: converts host seconds into reference seconds.
 *
 * On a shared virtual machine the speed of one core at throughput-bound
 * work changes by up to 2x from one second to the next and for minutes
 * at a time, because other guests share the physical core and its
 * caches. A latency-bound multiply chain runs at the same speed
 * throughout; Matrix Market parsing runs at half speed in the contended
 * phases. No number of repeats makes a host-seconds median steady under
 * that, so the benchmark measures the host's speed alongside the work.
 *
 * A probe runs one fixed kernel of the benchmark's own (never the
 * library's, so a change to the library cannot move it) in the gaps
 * between measured runs, and times it in thread CPU seconds, so that
 * threads left running by the program cannot slow it down. Its speed is
 * the kernel's reference time per call over its measured time per call.
 *
 * Contention slows kinds of work unequally, so the kernel matches the
 * kind of work it stands for:
 *
 *   Text  parse Matrix Market text with iostreams and sort the entries
 *         (cli_replay, which is nearly all parsing);
 *   Sort  sort 64-bit keys and histogram them (the fleets' CSC
 *         conversion, symbolic pass and fingerprinting, and set-up's
 *         operand generation).
 *
 * and a sensitivity says how strongly the measured work follows it: the
 * slope of log(work time) on log(kernel time) across contention phases,
 * as measured on the reference host. A host time multiplied by
 * speed^sensitivity, with the speed of the gaps on both sides of it, is
 * in reference seconds: what it would have taken on the uncontended
 * reference core.
 */

#ifndef PERFBENCH_HOSTSPEED_HH
#define PERFBENCH_HOSTSPEED_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpeedKernel
{
    Text,
    Sort,
};

class HostSpeed
{
  public:
    HostSpeed(SpeedKernel kernel, double sensitivity);

    /**
     * Run the kernel for about `budget_s` thread CPU seconds, and at
     * least once, and record its speed for this gap.
     */
    void sample(double budget_s);

    /**
     * Mean speed of the last two gaps: the one before and the one after
     * the interval between them. Needs two samples.
     */
    double speed() const;

    /** Reference seconds per host second for that interval. */
    double scale() const;

  private:
    /** One kernel call; returns its thread CPU seconds. */
    double runOnce();

    SpeedKernel kernel_;
    double sensitivity_;
    std::string text_;                ///< Text: the Matrix Market lines.
    std::vector<std::uint64_t> keys_; ///< Sort: the keys.
    std::vector<double> gaps_;        ///< Speed of each gap, in order.
    std::uint64_t sink_ = 0;          ///< Keeps results observable.
};

} // namespace perfbench

#endif // PERFBENCH_HOSTSPEED_HH
