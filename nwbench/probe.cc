#include "probe.hh"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/rng.hh"
#include "spans.hh"

namespace nwbench
{

namespace
{

constexpr size_t kCodeOps = 4096;
/** Ops of the fixed flow: a loop short enough for predictors to learn. */
constexpr size_t kFixedFlowOps = 256;
constexpr size_t kTableWords = size_t{1} << 16; // 512 KiB
constexpr size_t kScratchWords = 512;
/** Ops of each half of a slice. */
constexpr size_t kHalfSliceOps = 400'000;

} // namespace

HostProbe::HostProbe()
    : code(kCodeOps), table(kTableWords), scratch(kScratchWords)
{
    nwsim::SplitMix64 rng(0x70726f6265ULL);
    for (Op &op : code) {
        const u64 r = rng.next();
        op = {static_cast<u8>(r & 7), static_cast<u8>((r >> 8) & 15),
              static_cast<u8>((r >> 16) & 15),
              static_cast<u8>((r >> 24) & 15), static_cast<u32>(r >> 32)};
    }
    for (u64 &w : table)
        w = rng.next();
    for (u64 &r : initialRegs)
        r = rng.next();
}

template <bool kFixedFlow>
void
HostProbe::interpret(size_t code_ops)
{
    constexpr u64 mask = kTableWords - 1;
    size_t pc = 0;
    for (size_t i = 0; i < kHalfSliceOps; ++i) {
        const Op &op = code[pc];
        u64 &d = regs[op.a];
        const u64 b = regs[op.b];
        const u64 c = regs[op.c];
        switch (op.kind) {
        case 0: d = b + c; break;
        case 1: d = b ^ (c >> (op.imm & 63)); break;
        case 2: d = b * (c | 1); break;
        case 3: d = table[(b + op.imm) & mask]; break;
        case 4: scratch[(b + op.imm) & (kScratchWords - 1)] = c; break;
        case 5:
            if (kFixedFlow) {
                if (op.imm & 1)
                    d = b + 1;
            } else if (b & 1) {
                pc = (pc + op.imm) & (code_ops - 1);
            }
            break;
        case 6: d = scratch[(b ^ op.imm) & (kScratchWords - 1)]; break;
        default: d = b - op.imm; break;
        }
        pc = (pc + 1) & (code_ops - 1);
    }
}

double
HostProbe::slice()
{
    // Every slice starts from the same state, so it does the same work.
    std::fill(scratch.begin(), scratch.end(), 0);
    std::copy(std::begin(initialRegs), std::end(initialRegs), regs);
    const u64 t0 = nowNs();
    interpret<false>(kCodeOps);
    interpret<true>(kFixedFlowOps);
    return (nowNs() - t0) * 1e-9;
}

double
HostProbe::scale(const std::vector<double> &slices,
                 const std::vector<double> &weights)
{
    if (slices.empty())
        return 1.0;
    std::vector<std::pair<double, double>> v;
    double total = 0.0;
    for (size_t i = 0; i < slices.size(); ++i) {
        const double w = weights.empty() ? 1.0 : weights[i];
        v.emplace_back(slices[i], w);
        total += w;
    }
    std::sort(v.begin(), v.end());
    double below = 0.0;
    for (const auto &[slice, w] : v) {
        below += w;
        if (below >= total / 2)
            return kReferenceSeconds / slice;
    }
    return kReferenceSeconds / v.back().first;
}

} // namespace nwbench

