/**
 * @file
 * A fixed-work probe of the host's current speed.
 *
 * A shared host runs the same code at speeds that differ by tens of
 * percent from minute to minute, through contention for caches, memory
 * and cores the benchmark does not control. Timed next to the work, a
 * fixed piece of code shows how fast the host ran at that moment: the
 * benchmark scales each pass's times by kReferenceSeconds / (median
 * probe time during the pass), so its times read as on a host running
 * at the reference speed, and a change in the simulator still moves
 * them in full.
 *
 * The probe is a small interpreter of its own (not the simulator's
 * code, so no change to the simulator can move it), with loads over a
 * 512 KiB table. Half of each slice interprets a 4096-op random
 * program whose control flow follows the data, so no predictor learns
 * it; the other half loops over 256 of its ops with a fixed flow, which
 * predictors do learn.
 * Contention on a shared host slows the two halves by different
 * amounts, and the simulator, whose branches are partly predictable,
 * lies between them: on the serial workloads, pass time against probe
 * time has a log-log slope near 1 (README.md, Steadiness).
 */

#ifndef NWBENCH_PROBE_HH
#define NWBENCH_PROBE_HH

#include <cstddef>
#include <vector>

#include "common/types.hh"

namespace nwbench
{

using nwsim::u32;
using nwsim::u64;
using nwsim::u8;

class HostProbe
{
  public:
    /**
     * One slice's time in the fastest state seen on the 4-vCPU Xeon VM
     * the benchmark was built on (GCC 12.2, Release): the speed scaled
     * times are expressed at.
     */
    static constexpr double kReferenceSeconds = 0.00225;

    HostProbe();

    /** Run one slice of fixed work; returns its seconds. */
    double slice();

    /**
     * kReferenceSeconds / the median of @p slices, each weighted by its
     * entry of @p weights (the time of the work it stands for) or
     * equally when @p weights is empty; 1 when there are no slices.
     */
    static double scale(const std::vector<double> &slices,
                        const std::vector<double> &weights = {});

  private:
    /** Run the half-slice ops over the first @p code_ops of code. */
    template <bool kFixedFlow>
    void interpret(std::size_t code_ops);

    struct Op
    {
        u8 kind, a, b, c;
        u32 imm;
    };
    std::vector<Op> code;
    std::vector<u64> table, scratch;
    u64 initialRegs[16], regs[16];
};

} // namespace nwbench

#endif // NWBENCH_PROBE_HH
