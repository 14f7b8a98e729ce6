/**
 * @file
 * The benchmark's three workloads: what set-up builds for each, and the
 * campaign one timed pass runs.
 *
 *  - grid-detailed: the Figure 10/11 grid (14 proxies + 2 generated
 *    programs x 4 machines), 50k fast-forward + 400k detailed per job,
 *    one job at a time. Host time is mostly OutOfOrderCore::run.
 *  - stream-sampled: 14 proxies + 4 long generated programs on 2
 *    machines, each run to HALT under +sample=400000:2000:8000, one job
 *    at a time. Host time is mostly fastForward.
 *  - sweep-isolated: 14 proxies + 10 small generated programs x 8
 *    machine specs (presets, .cfg files, +ckpt, +sample), 2k+20k
 *    windows, forked children on 2 workers with a journal and JSON/CSV
 *    sinks. Host time is mostly fixed per-job cost.
 *
 * All three are closed loops: a job starts only when a worker is free.
 * The seed derives every generated program's RNG seed; the simulator
 * only ever sees the generated programs.
 */

#ifndef NWBENCH_PLAN_HH
#define NWBENCH_PLAN_HH

#include <memory>
#include <string>
#include <vector>

#include "cfg/loader.hh"
#include "exp/campaign.hh"
#include "probe.hh"

namespace nwbench
{

using nwsim::i64;
using nwsim::u64;

enum class WorkloadKind
{
    GridDetailed,
    StreamSampled,
    SweepIsolated,
};

/** Workload names as the command line spells them. */
const char *workloadName(WorkloadKind kind);
bool parseWorkloadKind(const std::string &name, WorkloadKind &out);

/** One program of a workload. */
struct BenchProgram
{
    /** Proxy name, or the canonical wgen spec of a generated program. */
    std::string name;
    /** Assembly text of a generated program ("" for proxies). */
    std::string asmText;
    /** Image built during set-up; null where each job builds its own. */
    std::shared_ptr<const nwsim::Program> image;
};

/** What set-up produces: everything the timed phase runs. */
struct Plan
{
    WorkloadKind kind = WorkloadKind::GridDetailed;
    u64 seed = 0;
    std::vector<BenchProgram> programs;
    std::vector<nwsim::cfg::MachineSpec> machines;
    nwsim::RunOptions opts;
};

/**
 * Resolve the machine specs and build or assemble the programs: the
 * work setup_s times. With recording on, each call gets a span.
 */
Plan setUp(WorkloadKind kind, u64 seed);

/**
 * The host probe of a serial workload's passes: each job runs one probe
 * slice just before its simulation, recorded under the job's index.
 */
struct JobProbe
{
    HostProbe probe;
    std::vector<double> sliceSeconds;
};

/**
 * Campaign options of one pass. @p scratch holds the sweep's journal
 * and checkpoint files.
 */
nwsim::exp::CampaignOptions campaignOptions(const Plan &plan,
                                            const std::string &scratch);

/**
 * The jobs of one pass, machine-major. Traced jobs make the same public
 * calls as the untraced path, each inside a span; a forked sweep child
 * writes its spans to @p span_dir before it exits. With @p probe, every
 * job of a serial workload first runs one probe slice.
 */
nwsim::exp::Campaign makeCampaign(const Plan &plan,
                                  const nwsim::exp::CampaignOptions &copts,
                                  bool traced, const std::string &span_dir,
                                  JobProbe *probe = nullptr);

/**
 * runProgram's public call sequence (Program::load, the OutOfOrderCore
 * constructor, fastForward, resetStats, run, collectRunResult), one
 * span per call, all tagged with job @p id. Gives the same RunResult.
 */
nwsim::RunResult tracedRunProgram(const nwsim::Program &program,
                                  const nwsim::exp::SimJob &job, i64 id);

/** sample::runSampledProgram inside one span. */
nwsim::RunResult tracedSampled(const nwsim::Program &program,
                               const nwsim::exp::SimJob &job, i64 id);

/**
 * Digest of a fixed list of simulated fields: cycles, committed,
 * squashed, packed instructions, replay traps, gated ops, the mW sums
 * and the L1 miss rates. Counters added to RunResult later do not
 * change it.
 */
u64 resultDigest(const nwsim::RunResult &r);

/** Instructions a job fast-forwarded (functional tier only). */
u64 fastForwardedInsts(const nwsim::RunResult &r,
                       const nwsim::RunOptions &opts);

/** Instructions a job ran on the detailed core, warmup included. */
u64 detailedInsts(const nwsim::RunResult &r, const nwsim::RunOptions &opts);

} // namespace nwbench

#endif // NWBENCH_PLAN_HH
