/**
 * @file
 * nwbench: the repository's benchmark program (see README.md here).
 *
 *     nwbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--out-dir DIR] [--commit SHA]
 *     nwbench --list-metrics
 *
 * One invocation sets the workload up several times (setup_s is their
 * 10% trimmed mean), checks every proxy's checksum, then runs passes of the
 * workload's job list for S seconds. Set-up times, and the pass and job
 * times of the serial workloads, are scaled to the reference speed of a
 * host probe timed next to them (probe.hh). With --trace 1 half the time
 * runs untraced and half traced, followed by a short probe of the layers the
 * workload's own jobs do not reach. The last line of stdout is one JSON
 * object: the end-to-end metrics (--trace 0) or the per-layer metrics
 * (--trace 1), a correctness verdict, and the operation counts.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "asm/textasm.hh"
#include "ckpt/checkpoint.hh"
#include "exp/journal.hh"
#include "exp/json.hh"
#include "exp/wire.hh"
#include "func/func_sim.hh"
#include "func/superblock.hh"
#include "plan.hh"
#include "spans.hh"
#include "workloads/kernels.hh"

namespace nwbench
{
namespace
{

using namespace nwsim;
namespace fs = std::filesystem;

constexpr u64 kDefaultSeed = 1;
/**
 * Set-up takes milliseconds, so one repetition is noise: it repeats for
 * kSetupSliceSeconds (at least kMinSetupReps times) before the checks
 * and again before every untraced pass, so its repetitions sample the
 * host over the whole run like the passes do. setup_s is their 10%
 * trimmed mean: shared hosts switch between speed states that last
 * about a second, and a median of such two-humped samples jumps from
 * one hump to the other from run to run, where a mean moves smoothly.
 */
constexpr double kSetupSliceSeconds = 0.25;
constexpr size_t kMinSetupReps = 11;
/** Instruction cap of the functional checks (no program gets close). */
constexpr u64 kFuncCap = 2'000'000'000;

/**
 * Digest of every job's simulated fields on the default seed (FNV-1a
 * over the per-job digests in job order). A change that alters the
 * modelled machine changes it, and the default-seed run then reports
 * correct: false until the new value is recorded here with a reason.
 */
constexpr std::pair<WorkloadKind, u64> kReferenceDigests[] = {
    {WorkloadKind::GridDetailed, 0x28a2e8719f433b3fULL},
    {WorkloadKind::StreamSampled, 0x9769a4adf8abd3c5ULL},
    {WorkloadKind::SweepIsolated, 0x67d12a8c6bb87ca8ULL},
};

/** One reported metric, and the end-to-end metric it should move. */
struct MetricDef
{
    const char *name;
    const char *unit;
    const char *better;
    const char *moves;
};

const MetricDef kEndToEnd[] = {
    {"wall_s", "s", "lower",
     "median pass (serial: at the probe's reference speed), tracing off"},
    {"setup_s", "s", "lower",
     "10% trimmed mean of the set-up repetitions"},
    {"detailed_kips", "kinst/s", "higher",
     "detailed committed instructions per pass / wall_s"},
    {"effective_kips", "kinst/s", "higher",
     "stream instructions (fast-forwarded + detailed) / wall_s"},
    {"jobs_per_s", "1/s", "higher", "jobs per pass / wall_s"},
    {"job_ms_p50", "ms", "lower", "median job time over every pass's jobs"},
    {"job_ms_tail", "ms", "lower",
     "the same samples, with 10 jobs of each pass beyond it"},
    {"peak_rss_mb", "MiB", "lower",
     "peak RSS of this process, or of its forked children"},
    {"sim_cycles", "cycles", "lower",
     "simulated: cycles summed over the measured windows of a pass"},
    {"sim_int_mw", "mW/cycle", "lower",
     "simulated: integer-unit power with gating, cycle-weighted"},
};

const MetricDef kLayers[] = {
    {"cfg.resolve_us", "us", "lower",
     "setup_s on all; jobs_per_s on sweep-isolated"},
    {"cfg.wgen_ms", "ms", "lower", "setup_s on all"},
    {"workloads.build_ms", "ms", "lower",
     "setup_s on all; job_ms_p50 on sweep-isolated"},
    {"asm.assemble_ms", "ms", "lower",
     "setup_s on all; job_ms_p50 on sweep-isolated"},
    {"mem.load_us", "us", "lower", "job_ms_p50 on sweep-isolated"},
    {"mem.l1d_miss_rate", "ratio", "lower", "sim_cycles on grid-detailed"},
    {"mem.l1i_miss_rate", "ratio", "lower", "sim_cycles on grid-detailed"},
    {"pipeline.construct_us", "us", "lower",
     "jobs_per_s on sweep-isolated"},
    {"pipeline.run_s", "s", "lower",
     "detailed_kips and wall_s on grid-detailed"},
    {"pipeline.ns_per_commit", "ns", "lower",
     "detailed_kips and wall_s on grid-detailed"},
    {"pipeline.ns_per_cycle", "ns", "lower",
     "detailed_kips and wall_s on grid-detailed"},
    {"pipeline.useful_frac", "ratio", "higher",
     "sim_cycles on grid-detailed"},
    {"pipeline.window_full_frac", "ratio", "lower",
     "sim_cycles on grid-detailed"},
    {"pipeline.issue_limited_frac", "ratio", "lower",
     "sim_cycles on grid-detailed"},
    {"func.ff_s", "s", "lower", "effective_kips on stream-sampled"},
    {"func.ff_mips", "Minst/s", "higher",
     "effective_kips on stream-sampled"},
    {"func.funcsim_mips", "Minst/s", "higher",
     "effective_kips on stream-sampled"},
    {"func.decode_hit_rate", "ratio", "higher",
     "effective_kips on stream-sampled"},
    {"func.sb_coverage", "ratio", "higher",
     "effective_kips on stream-sampled"},
    {"func.sb_guard_exit_frac", "ratio", "lower",
     "effective_kips on stream-sampled"},
    {"core.gated_frac", "ratio", "higher",
     "sim_int_mw and sim_cycles on grid-detailed"},
    {"core.packed_frac", "ratio", "higher",
     "sim_int_mw and sim_cycles on grid-detailed"},
    {"core.replay_trap_frac", "ratio", "lower",
     "sim_int_mw and sim_cycles on grid-detailed"},
    {"bpred.cond_mispredict_rate", "ratio", "lower",
     "sim_cycles on grid-detailed"},
    {"sample.run_ms", "ms", "lower", "effective_kips on stream-sampled"},
    {"sample.ns_per_stream_inst", "ns", "lower",
     "effective_kips on stream-sampled"},
    {"sample.intervals", "count", "higher",
     "effective_kips on stream-sampled"},
    {"sample.detailed_inst_frac", "ratio", "lower",
     "effective_kips on stream-sampled"},
    {"driver.run_program_ms", "ms", "lower",
     "job_ms_p50 on grid-detailed"},
    {"driver.collect_us", "us", "lower", "job_ms_p50 on sweep-isolated"},
    {"ckpt.save_us", "us", "lower",
     "jobs_per_s and job_ms_tail on sweep-isolated"},
    {"ckpt.load_us", "us", "lower",
     "jobs_per_s and job_ms_tail on sweep-isolated"},
    {"ckpt.bytes", "bytes", "lower",
     "jobs_per_s and job_ms_tail on sweep-isolated"},
    {"exp.overhead_ms_per_job", "ms", "lower",
     "jobs_per_s on sweep-isolated"},
    {"exp.wire_pack_us", "us", "lower", "jobs_per_s on sweep-isolated"},
    {"exp.wire_unpack_us", "us", "lower", "jobs_per_s on sweep-isolated"},
    {"exp.wire_bytes", "bytes", "lower", "jobs_per_s on sweep-isolated"},
    {"exp.journal_append_us", "us", "lower",
     "jobs_per_s on sweep-isolated"},
    {"exp.sink_json_ms", "ms", "lower", "wall_s on sweep-isolated"},
    {"exp.sink_csv_ms", "ms", "lower", "wall_s on sweep-isolated"},
    {"trace.uncovered_frac", "ratio", "lower",
     "share of traced job time no span covers"},
    {"trace.overhead_frac", "ratio", "lower",
     "(traced wall_s - untraced wall_s) / untraced wall_s"},
};

struct Options
{
    WorkloadKind kind = WorkloadKind::GridDetailed;
    u64 seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".bench_build/out";
    std::string commit = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "nwbench: " << why << "\n"
              << "usage: nwbench --workload grid-detailed|stream-sampled|"
                 "sweep-isolated --seed N --seconds S --trace 0|1\n"
              << "               [--out-dir DIR] [--commit SHA]\n"
              << "       nwbench --list-metrics\n";
    std::exit(2);
}

/** Whole-string unsigned parse; false on anything else. */
bool
parseU64(const std::string &s, u64 &out)
{
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    out = std::strtoull(s.c_str(), nullptr, 10);
    return errno == 0;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        u64 n = 0;
        if (flag == "--workload") {
            if (!parseWorkloadKind(v, o.kind))
                usage("unknown workload \"" + v + "\"");
            haveWorkload = true;
        } else if (flag == "--seed") {
            if (!parseU64(v, o.seed))
                usage("bad --seed \"" + v + "\"");
        } else if (flag == "--seconds") {
            if (!parseU64(v, n) || n < 1 || n > 3600)
                usage("bad --seconds \"" + v + "\" (1..3600)");
            o.seconds = static_cast<double>(n);
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("bad --trace \"" + v + "\" (0 or 1)");
            o.trace = v == "1";
        } else if (flag == "--out-dir") {
            o.outDir = v;
        } else if (flag == "--commit") {
            o.commit = v;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    return o;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Mean of @p v without its lowest and highest 10%. */
double
trimmedMean(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t cut = v.size() / 10;
    double sum = 0.0;
    for (size_t i = cut; i < v.size() - cut; ++i)
        sum += v[i];
    return v.size() > 2 * cut ? sum / static_cast<double>(v.size() - 2 * cut)
                              : 0.0;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

std::string
hex(u64 v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Combined digest of a pass: FNV-1a over per-job digests in order. */
u64
passDigest(const std::vector<u64> &digests)
{
    ckpt::ByteSink sink;
    for (u64 d : digests)
        sink.u64v(d);
    return ckpt::fnv1a64(sink.take());
}

// ---- checks ---------------------------------------------------------------

const std::map<std::string, u64 (*)()> &
proxyReferences()
{
    static const std::map<std::string, u64 (*)()> refs = {
        {"compress", [] { return compressReference(); }},
        {"go", [] { return goReference(); }},
        {"ijpeg", [] { return ijpegReference(); }},
        {"li", [] { return liReference(); }},
        {"m88ksim", [] { return m88ksimReference(); }},
        {"gcc", [] { return gccReference(); }},
        {"perl", [] { return perlReference(); }},
        {"vortex", [] { return vortexReference(); }},
        {"gsm-encode", [] { return gsmEncodeReference(); }},
        {"gsm-decode", [] { return gsmDecodeReference(); }},
        {"g721encode", [] { return g721EncodeReference(); }},
        {"g721decode", [] { return g721DecodeReference(); }},
        {"mpeg2encode", [] { return mpeg2EncodeReference(); }},
        {"mpeg2decode", [] { return mpeg2DecodeReference(); }},
    };
    return refs;
}

/** Run @p program functionally to HALT; returns its length. */
u64
haltingLength(const Program &program, SparseMemory &memory, bool &halted)
{
    {
        ScopedSpan s("mem.load");
        program.load(memory);
    }
    FuncSim sim(memory, program.entry);
    ScopedSpan s("func.funcsim");
    const u64 n = sim.run(kFuncCap);
    s.setWork(n);
    halted = sim.halted();
    return sim.instCount();
}

struct Checks
{
    unsigned proxies = 0;
    unsigned proxyFailures = 0;
    /** Halting length of every program that runs to HALT. */
    std::map<std::string, u64> haltInsts;
};

/**
 * Every proxy's checksum after HALT must equal its C++ reference; the
 * stream workload also needs each generated program's halting length.
 */
Checks
runChecks(const Plan &plan)
{
    Checks c;
    for (const Workload &w : allWorkloads()) {
        std::unique_ptr<Program> program;
        {
            ScopedSpan s("workloads.build");
            program = std::make_unique<Program>(w.program());
        }
        SparseMemory memory;
        bool halted = false;
        c.haltInsts[w.name] = haltingLength(*program, memory, halted);
        const auto ref = proxyReferences().find(w.name);
        const bool ok = halted && ref != proxyReferences().end() &&
                        memory.read(program->symbol(w.checksumSymbol), 8) ==
                            ref->second();
        ++c.proxies;
        if (!ok) {
            ++c.proxyFailures;
            std::printf("check: proxy %s checksum does not match its "
                        "reference\n",
                        w.name.c_str());
        }
    }
    if (plan.kind == WorkloadKind::StreamSampled) {
        for (const BenchProgram &p : plan.programs) {
            if (c.haltInsts.count(p.name))
                continue;
            SparseMemory memory;
            bool halted = false;
            c.haltInsts[p.name] = haltingLength(*p.image, memory, halted);
            if (!halted)
                c.haltInsts[p.name] = 0; // cannot match any stream
        }
    }
    return c;
}

// ---- timed passes ------------------------------------------------------------

struct Pass
{
    /** Full statistics in a phase's first pass only (see slim()). */
    exp::ResultSet results;
    /** Campaign::run alone, and with the sweep's sinks. */
    double campaignSeconds = 0.0;
    double wallSeconds = 0.0;
    std::vector<u64> digests;
    /** Probe slice each job ran first (serial workloads), seconds. */
    std::vector<double> jobProbe;
    /** HostProbe::scale of jobProbe; 1 on sweep-isolated. */
    double scale = 1.0;

    /** Wall time without the probe slices, at the reference speed. */
    double
    seconds() const
    {
        double probe = 0.0;
        for (double s : jobProbe)
            probe += s;
        return (wallSeconds - probe) * scale;
    }

    /** Job @p i's time without its probe slice, at the reference speed. */
    double
    jobSeconds(size_t i) const
    {
        const double probe = i < jobProbe.size() ? jobProbe[i] : 0.0;
        return (results.outcomes()[i].wallSeconds - probe) * scale;
    }
};

/**
 * @p results without its jobs' statistics, keeping what the checks and
 * timings read, so that peak RSS does not grow with the number of
 * passes a run happens to fit.
 */
exp::ResultSet
slim(const exp::ResultSet &results)
{
    std::vector<exp::JobOutcome> outcomes = results.outcomes();
    for (exp::JobOutcome &o : outcomes) {
        const u64 stream = o.result.sample.streamInsts;
        o.result = RunResult{};
        o.result.sample.streamInsts = stream;
    }
    return exp::ResultSet(std::move(outcomes), results.workersUsed());
}

/** Merge and delete the span files forked sweep children wrote. */
void
mergeChildSpans(const std::string &dir)
{
    std::vector<fs::path> files;
    for (const fs::directory_entry &e : fs::directory_iterator(dir))
        files.push_back(e.path());
    for (const fs::path &file : files) {
        {
            std::ifstream in(file);
            recorder().appendTsv(in);
        }
        fs::remove(file);
    }
}

/**
 * One slice of set-up repetitions, each after a probe slice, scaled to
 * the reference speed; returns the last plan built.
 */
Plan
timeSetUp(WorkloadKind kind, u64 seed, HostProbe &probe,
          std::vector<double> &times)
{
    Plan plan;
    std::vector<double> raw, slices;
    const u64 start = nowNs();
    for (size_t reps = 0; reps < kMinSetupReps ||
                          (nowNs() - start) * 1e-9 < kSetupSliceSeconds;
         ++reps) {
        slices.push_back(probe.slice());
        const u64 t0 = nowNs();
        plan = setUp(kind, seed);
        raw.push_back((nowNs() - t0) * 1e-9);
        recorder().setEnabled(false);
    }
    const double scale = HostProbe::scale(slices);
    for (double t : raw)
        times.push_back(t * scale);
    return plan;
}

/**
 * Passes of the job list until @p budget seconds have gone (>= 1), with
 * a slice of set-up repetitions before each when @p setup_times is set.
 */
std::vector<Pass>
runPasses(const Plan &plan, bool traced, double budget,
          const std::string &scratch, std::vector<double> *setup_times =
                                          nullptr)
{
    const exp::CampaignOptions copts = campaignOptions(plan, scratch);
    const std::string spanDir = scratch + "/spans";
    JobProbe probe;
    const exp::Campaign campaign =
        makeCampaign(plan, copts, traced, spanDir, &probe);
    const bool sweep = plan.kind == WorkloadKind::SweepIsolated;

    std::vector<Pass> passes;
    const u64 start = nowNs();
    do {
        if (setup_times)
            timeSetUp(plan.kind, plan.seed, probe.probe, *setup_times);
        Pass pass;
        probe.sliceSeconds.assign(campaign.jobs().size(), 0.0);
        const u64 t0 = nowNs();
        pass.results = campaign.run(copts);
        pass.campaignSeconds = (nowNs() - t0) * 1e-9;
        if (sweep) {
            {
                ScopedSpan s("exp.sink_json");
                std::ofstream f(scratch + "/results.json");
                pass.results.writeJson(f);
            }
            {
                ScopedSpan s("exp.sink_csv");
                std::ofstream f(scratch + "/results.csv");
                pass.results.writeCsv(f);
            }
        }
        pass.wallSeconds = (nowNs() - t0) * 1e-9;
        // The sweep's time goes mostly to fork, file writes and syncs,
        // which the probe does not track: scaling made its spread wider
        // (README.md, Steadiness), so its times stay as measured.
        if (!sweep) {
            // Each job's slice stands for the job's own time.
            pass.jobProbe = probe.sliceSeconds;
            std::vector<double> jobTimes;
            for (const exp::JobOutcome &o : pass.results.outcomes())
                jobTimes.push_back(o.wallSeconds);
            pass.scale = HostProbe::scale(pass.jobProbe, jobTimes);
        }
        if (traced)
            mergeChildSpans(spanDir);
        for (const exp::JobOutcome &o : pass.results.outcomes())
            pass.digests.push_back(o.ok ? resultDigest(o.result) : 0);
        if (!passes.empty())
            pass.results = slim(pass.results);
        passes.push_back(std::move(pass));
        // Start another pass only if it would end nearer the budget.
    } while ((nowNs() - start) * 1e-9 +
                 passes.back().wallSeconds / 2 < budget);
    return passes;
}

/** Failed jobs plus jobs whose digest or stream length is wrong. */
size_t
countFailures(const Plan &plan, const std::vector<Pass> &passes,
              const std::vector<u64> &reference, const Checks &checks)
{
    size_t failed = 0;
    for (const Pass &pass : passes) {
        const auto &outcomes = pass.results.outcomes();
        for (size_t i = 0; i < outcomes.size(); ++i) {
            bool ok = outcomes[i].ok && pass.digests[i] == reference[i];
            if (ok && plan.kind == WorkloadKind::StreamSampled) {
                const auto it = checks.haltInsts.find(outcomes[i].workload);
                ok = it != checks.haltInsts.end() &&
                     outcomes[i].result.sample.streamInsts == it->second;
            }
            if (!ok) {
                ++failed;
                std::printf("check: job %s %s\n", outcomes[i].label().c_str(),
                            outcomes[i].ok
                                ? "differs from pass 1"
                                : ("failed: " + outcomes[i].error).c_str());
            }
        }
    }
    return failed;
}

// ---- the layer probe ------------------------------------------------------

/** A sampled run's result with the options it ran under. */
struct SampledRun
{
    RunResult result;
    RunOptions opts;
};

/**
 * Calls into the layers a workload's own jobs do not reach, on the
 * workload's own programs: one runProgram sequence and one sampled run
 * per program (first machine, small windows), a checkpoint round trip,
 * and the wire, journal and sink calls over the first traced pass.
 * Returns the probe's sampled results; @p failures counts round trips
 * that did not restore.
 */
std::vector<SampledRun>
runProbe(const Plan &plan, const exp::ResultSet &results,
         const std::string &scratch, size_t &failures)
{
    constexpr size_t kPrograms = 4;
    const cfg::MachineSpec &machine = plan.machines.front();
    std::vector<SampledRun> sampled;
    for (size_t k = 0; k < std::min(kPrograms, plan.programs.size()); ++k) {
        const BenchProgram &p = plan.programs[k];
        const Program program =
            p.image ? *p.image
                    : (p.asmText.empty() ? workloadByName(p.name).program()
                                         : assembleText(p.asmText));
        exp::SimJob job;
        job.workload = p.name;
        job.configSpec = "probe";
        job.config = machine.config;
        job.opts.warmupInsts = 20000;
        job.opts.measureInsts = 20000;
        tracedRunProgram(program, job, -1);

        job.opts.warmupInsts = 0;
        job.opts.measureInsts = 100000;
        job.opts.sample.enabled = true;
        job.opts.sample.periodInsts = 20000;
        job.opts.sample.warmupInsts = 1000;
        job.opts.sample.measureInsts = 4000;
        sampled.push_back({tracedSampled(program, job, -1), job.opts});

        // Checkpoint round trip of a drained mid-run core.
        SparseMemory memory;
        program.load(memory);
        OutOfOrderCore core(machine.config, memory, program.entry);
        core.fastForward(20000);
        core.run(20000);
        core.drainInFlight();
        const std::string path = scratch + "/probe.nwck";
        ckpt::CheckpointMeta meta{p.name, "probe", ckpt::CkptKind::Full,
                                  0};
        std::string error;
        bool ok = true;
        {
            ScopedSpan s("ckpt.save");
            ckpt::ByteSink sink;
            core.saveState(sink);
            const std::string payload = sink.take();
            ok = ckpt::writeCheckpointFile(path, meta, payload, error);
            s.setWork(ok ? fs::file_size(path) : 0);
        }
        SparseMemory memory2;
        program.load(memory2);
        OutOfOrderCore restored(machine.config, memory2, program.entry);
        if (ok) {
            ScopedSpan s("ckpt.load");
            std::string payload;
            ok = ckpt::readCheckpointFile(path, meta, payload) ==
                 ckpt::WireError::None;
            ckpt::ByteSource body(payload);
            ok = ok && restored.loadState(body);
        }
        if (!ok)
            ++failures;
    }

    exp::CampaignJournal journal(scratch + "/probe.journal", true);
    for (const exp::JobOutcome &o : results.outcomes()) {
        std::string blob;
        {
            ScopedSpan s("exp.wire_pack");
            blob = exp::packJobOutcome(o);
            s.setWork(blob.size());
        }
        exp::JobOutcome back;
        {
            ScopedSpan s("exp.wire_unpack");
            if (!exp::unpackJobOutcome(blob, back))
                ++failures;
        }
        ScopedSpan s("exp.journal_append");
        journal.append(o);
    }
    if (plan.kind != WorkloadKind::SweepIsolated) {
        {
            ScopedSpan s("exp.sink_json");
            std::ofstream f(scratch + "/probe.json");
            results.writeJson(f);
        }
        ScopedSpan s("exp.sink_csv");
        std::ofstream f(scratch + "/probe.csv");
        results.writeCsv(f);
    }
    return sampled;
}

// ---- metrics -----------------------------------------------------------------

using Metrics = std::map<std::string, double>;

double
peakRssMb(WorkloadKind kind)
{
    struct rusage ru {};
    getrusage(kind == WorkloadKind::SweepIsolated ? RUSAGE_CHILDREN
                                                  : RUSAGE_SELF,
              &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * Every job's time in every pass, in ms. Medians over these samples, not
 * minima, because a minimum falls with the number of passes, and how
 * many passes fit in a run follows the host's speed.
 */
std::vector<double>
jobSamplesMs(const std::vector<Pass> &passes)
{
    std::vector<double> ms;
    for (const Pass &p : passes) {
        for (size_t i = 0; i < p.results.size(); ++i)
            ms.push_back(p.jobSeconds(i) * 1e3);
    }
    return ms;
}

/**
 * The job time with 10 jobs of a pass beyond it (10 x passes samples),
 * so the percentile is the same however many passes the run fits.
 */
double
tailMs(std::vector<double> ms, size_t passes, double &pct)
{
    std::sort(ms.begin(), ms.end());
    const size_t beyond = 10 * passes;
    if (ms.size() <= beyond) {
        pct = 100.0;
        return ms.back();
    }
    pct = 100.0 * static_cast<double>(ms.size() - beyond) /
          static_cast<double>(ms.size());
    return ms[ms.size() - beyond - 1];
}

/** Median time of one pass at the reference speed. */
double
passSeconds(const std::vector<Pass> &passes)
{
    std::vector<double> wall;
    for (const Pass &p : passes)
        wall.push_back(p.seconds());
    return median(wall);
}

Metrics
endToEnd(const Plan &plan, const std::vector<Pass> &passes,
         double setup_s, double &tail_pct)
{
    const double wall = passSeconds(passes);
    const std::vector<double> jobMs = jobSamplesMs(passes);
    const double jobs = static_cast<double>(passes.front().results.size());
    double detailed = 0, effective = 0, cycles = 0, mw = 0;
    for (const exp::JobOutcome &o : passes.front().results.outcomes()) {
        if (!o.ok)
            continue;
        const RunResult &r = o.result;
        detailed += r.measuredCommitted;
        effective += r.sample.sampled
                         ? r.sample.streamInsts
                         : r.warmupCommitted + r.measuredCommitted;
        cycles += r.core.cycles;
        mw += r.gating.optimizedMwSum();
    }
    return {
        {"wall_s", wall},
        {"setup_s", setup_s},
        {"detailed_kips", detailed / 1e3 / wall},
        {"effective_kips", effective / 1e3 / wall},
        {"jobs_per_s", jobs / wall},
        {"job_ms_p50", median(jobMs)},
        {"job_ms_tail", tailMs(jobMs, passes.size(), tail_pct)},
        {"peak_rss_mb", peakRssMb(plan.kind)},
        {"sim_cycles", cycles},
        {"sim_int_mw", ratio(mw, cycles)},
    };
}

/**
 * Per-layer metrics. A layer's timings come from the spans of the
 * workload's own jobs where its jobs call that layer, and otherwise
 * from set-up, the checks and the probe. Simulated ratios come from
 * the first untraced pass (sampled ones from the probe when the
 * workload never samples).
 */
Metrics
perLayer(const Plan &plan, const std::vector<Pass> &untraced,
         const std::vector<Pass> &traced,
         const std::vector<SampledRun> &probeSampled)
{
    const auto jobSpans = aggregateSpans(recorder().spans(), true);
    const auto otherSpans = aggregateSpans(recorder().spans(), false);
    const double passes = static_cast<double>(traced.size());
    auto layer = [&](const char *name) -> LayerTotals {
        if (const auto it = jobSpans.find(name); it != jobSpans.end())
            return it->second;
        const auto it = otherSpans.find(name);
        return it != otherSpans.end() ? it->second : LayerTotals{};
    };
    // Self seconds per traced pass, or in the probe.
    auto selfPerPass = [&](const char *name) {
        return layer(name).selfSeconds /
               (jobSpans.count(name) ? passes : 1.0);
    };
    auto meanUs = [&](const char *n) { return layer(n).meanSeconds() * 1e6; };
    auto meanMs = [&](const char *n) { return layer(n).meanSeconds() * 1e3; };

    Metrics m;
    m["cfg.resolve_us"] = meanUs("cfg.resolve");
    m["cfg.wgen_ms"] = meanMs("cfg.wgen");
    m["workloads.build_ms"] = meanMs("workloads.build");
    m["asm.assemble_ms"] = meanMs("asm.assemble");
    m["mem.load_us"] = meanUs("mem.load");
    m["pipeline.construct_us"] = meanUs("pipeline.construct");
    const LayerTotals run = layer("pipeline.run");
    m["pipeline.run_s"] = selfPerPass("pipeline.run");
    m["pipeline.ns_per_commit"] = ratio(run.seconds * 1e9, run.work);
    m["pipeline.ns_per_cycle"] = ratio(run.seconds * 1e9, run.aux);
    const LayerTotals ff = layer("func.fast_forward");
    m["func.ff_s"] = selfPerPass("func.fast_forward");
    m["func.ff_mips"] = ratio(ff.work / 1e6, ff.seconds);
    const LayerTotals fs = layer("func.funcsim");
    m["func.funcsim_mips"] = ratio(fs.work / 1e6, fs.seconds);
    const LayerTotals sr = layer("sample.run");
    m["sample.run_ms"] = sr.meanSeconds() * 1e3;
    m["sample.ns_per_stream_inst"] = ratio(sr.seconds * 1e9, sr.work);
    m["driver.run_program_ms"] = meanMs("driver.run_program");
    m["driver.collect_us"] = meanUs("driver.collect");
    m["ckpt.save_us"] = meanUs("ckpt.save");
    m["ckpt.load_us"] = meanUs("ckpt.load");
    const LayerTotals save = layer("ckpt.save");
    m["ckpt.bytes"] = ratio(save.work, save.calls);
    m["exp.wire_pack_us"] = meanUs("exp.wire_pack");
    m["exp.wire_unpack_us"] = meanUs("exp.wire_unpack");
    const LayerTotals pack = layer("exp.wire_pack");
    m["exp.wire_bytes"] = ratio(pack.work, pack.calls);
    m["exp.journal_append_us"] = meanUs("exp.journal_append");
    m["exp.sink_json_ms"] = meanMs("exp.sink_json");
    m["exp.sink_csv_ms"] = meanMs("exp.sink_csv");

    // Simulated ratios over the first untraced pass.
    CoreStats core;
    GatingStats gating;
    PackingStats packing;
    BPredStats bpred;
    DecodeCacheStats decode;
    SuperblockStats sb;
    double l1d = 0, l1i = 0, ffInsts = 0;
    std::vector<SampledRun> sampled;
    const auto &outcomes = untraced.front().results.outcomes();
    const exp::Campaign campaign = makeCampaign(plan, {}, false, "");
    const std::vector<exp::SimJob> &jobs = campaign.jobs();
    for (size_t i = 0; i < outcomes.size(); ++i) {
        const RunResult &r = outcomes[i].result;
        core.accumulate(r.core);
        gating.accumulate(r.gating);
        packing.accumulate(r.packing);
        bpred.accumulate(r.bpred);
        decode.accumulate(r.decodeCache);
        sb.accumulate(r.superblock);
        l1d += r.l1dMissRate;
        l1i += r.l1iMissRate;
        ffInsts += fastForwardedInsts(r, jobs[i].opts);
        if (r.sample.sampled)
            sampled.push_back({r, jobs[i].opts});
    }
    const double n = static_cast<double>(outcomes.size());
    m["mem.l1d_miss_rate"] = ratio(l1d, n);
    m["mem.l1i_miss_rate"] = ratio(l1i, n);
    m["pipeline.useful_frac"] = ratio(core.committed, core.dispatched);
    m["pipeline.window_full_frac"] =
        ratio(core.windowFullStalls, core.cycles);
    m["pipeline.issue_limited_frac"] =
        ratio(core.issueLimitedCycles, core.cycles);
    m["func.decode_hit_rate"] = decode.hitRate();
    m["func.sb_coverage"] = ratio(sb.tracedInsts, ffInsts);
    m["func.sb_guard_exit_frac"] = ratio(sb.guardExits, sb.entries);
    m["core.gated_frac"] =
        ratio(gating.gated16 + gating.gated33, gating.ops);
    m["core.packed_frac"] = ratio(packing.packedInsts, core.committed);
    m["core.replay_trap_frac"] =
        ratio(packing.replayTraps, packing.replaySpeculations);
    m["bpred.cond_mispredict_rate"] = bpred.condMispredictRate();

    // Sampling schedule: the workload's sampled jobs, else the probe's.
    if (sampled.empty())
        sampled = probeSampled;
    double intervals = 0, stream = 0, detailed = 0;
    for (const SampledRun &s : sampled) {
        intervals += s.result.sample.intervals;
        stream += s.result.sample.streamInsts;
        detailed += detailedInsts(s.result, s.opts);
    }
    m["sample.intervals"] = intervals;
    m["sample.detailed_inst_frac"] = ratio(detailed, stream);

    // Tracing: job time outside every call span, and the traced slowdown.
    double jobSeconds = 0;
    for (const Pass &p : traced) {
        jobSeconds += p.results.totalJobSeconds();
        for (double s : p.jobProbe)
            jobSeconds -= s;
    }
    const double wallUntraced = passSeconds(untraced);
    m["trace.uncovered_frac"] =
        1.0 - ratio(leafSeconds(recorder().spans()), jobSeconds);
    m["trace.overhead_frac"] =
        ratio(passSeconds(traced) - wallUntraced, wallUntraced);

    std::vector<double> overhead;
    for (const Pass &p : untraced) {
        const double jobs_s = p.results.totalJobSeconds();
        overhead.push_back(ratio(
            (p.campaignSeconds * p.results.workersUsed() - jobs_s) * 1e3,
            p.results.size()));
    }
    m["exp.overhead_ms_per_job"] = median(overhead);
    return m;
}

// ---- output --------------------------------------------------------------

std::string
provenanceJson(const Options &o)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"nproc\": %ld, \"compiler\": \"%s\", \"build_type\": "
                  "\"%s\", \"lto\": %s, \"dispatch\": \"%s\", \"commit\": "
                  "\"%s\", \"seed\": %llu}",
                  sysconf(_SC_NPROCESSORS_ONLN), NWBENCH_COMPILER,
                  NWBENCH_BUILD_TYPE, NWBENCH_LTO ? "true" : "false",
                  sbDispatchKind(),
                  exp::JsonWriter::escape(o.commit).c_str(),
                  static_cast<unsigned long long>(o.seed));
    return buf;
}

void
printTable(const char *title, const MetricDef *defs, size_t n,
           const Metrics &m)
{
    std::printf("%s\n", title);
    for (size_t i = 0; i < n; ++i) {
        std::printf("  %-28s %16.6g %-9s %-7s -> %s\n", defs[i].name,
                    m.at(defs[i].name), defs[i].unit, defs[i].better,
                    defs[i].moves);
    }
}

/** Calls, total and self time of every span name. */
void
printSpans()
{
    std::printf("spans (job: inside the workload's jobs; other: set-up, "
                "checks, probe, sinks):\n");
    for (bool jobs : {true, false}) {
        for (const auto &[name, t] :
             aggregateSpans(recorder().spans(), jobs)) {
            std::printf("  %-5s %-22s %8llu calls %12.6f s %12.6f s self\n",
                        jobs ? "job" : "other", name.c_str(),
                        static_cast<unsigned long long>(t.calls), t.seconds,
                        t.selfSeconds);
        }
    }
}

/** The result line: one JSON object, values with all their digits. */
void
printResult(bool correct, size_t attempted, size_t failed,
            const MetricDef *defs, size_t n, const Metrics &m)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < n; ++i) {
        const double v = m.at(defs[i].name);
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", defs[i].name, std::isfinite(v) ? v : 0.0,
                    defs[i].unit);
    }
    std::printf("}}\n");
}

void
writeReport(const Options &o, const std::string &path,
            const std::string &provenance, u64 digest,
            const std::vector<Pass> &passes, const Metrics &e2e,
            const Metrics *layers)
{
    std::ofstream f(path);
    exp::JsonWriter j(f);
    j.beginObject();
    j.key("workload").value(workloadName(o.kind));
    j.key("seed").value(o.seed);
    j.key("seconds").value(o.seconds);
    j.key("trace").value(o.trace);
    j.key("digest").value(hex(digest));
    f << ",\n  \"provenance\": " << provenance;
    j.key("passes").beginArray();
    for (const Pass &p : passes) {
        j.beginObject();
        j.key("raw_wall_s").value(p.wallSeconds);
        j.key("scale").value(p.scale);
        j.key("wall_s").value(p.seconds());
        j.key("job_ms").beginArray();
        for (size_t i = 0; i < p.results.size(); ++i)
            j.value(p.jobSeconds(i) * 1e3);
        j.endArray();
        j.key("probe_ms").beginArray();
        for (double t : p.jobProbe)
            j.value(t * 1e3);
        j.endArray();
        j.endObject();
    }
    j.endArray();
    j.key("end_to_end").beginObject();
    for (const auto &[k, v] : e2e)
        j.key(k).value(v);
    j.endObject();
    if (layers) {
        j.key("per_layer").beginObject();
        for (const auto &[k, v] : *layers)
            j.key(k).value(v);
        j.endObject();
        j.key("spans").beginObject();
        for (bool jobs : {true, false}) {
            for (const auto &[name, t] :
                 aggregateSpans(recorder().spans(), jobs)) {
                j.key(std::string(jobs ? "job/" : "other/") + name)
                    .beginObject();
                j.key("calls").value(t.calls);
                j.key("seconds").value(t.seconds);
                j.key("self_seconds").value(t.selfSeconds);
                j.endObject();
            }
        }
        j.endObject();
    }
    j.endObject();
    f << "\n";
}

/** Removes the run's scratch directory however the run ends. */
struct ScratchDir
{
    std::string path;
    explicit ScratchDir(std::string p) : path(std::move(p))
    {
        fs::create_directories(path + "/spans");
        fs::create_directories(path + "/ckpt");
    }
    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;
};

int
run(const Options &o)
{
    const std::string name = workloadName(o.kind);
    const std::string provenance = provenanceJson(o);
    std::printf("nwbench %s seed=%llu seconds=%g trace=%d\n", name.c_str(),
                static_cast<unsigned long long>(o.seed), o.seconds,
                o.trace ? 1 : 0);
    std::printf("provenance: %s\n", provenance.c_str());
    fs::create_directories(o.outDir);
    const ScratchDir scratch(o.outDir + "/" + name + "-" +
                             std::to_string(getpid()));

    // Only the very first set-up is traced.
    std::vector<double> setupTimes;
    HostProbe setupProbe;
    recorder().setEnabled(o.trace);
    const Plan plan = timeSetUp(o.kind, o.seed, setupProbe, setupTimes);

    recorder().setEnabled(o.trace);
    const Checks checks = runChecks(plan);
    std::printf("checks: %u/%u proxy checksums match their references\n",
                checks.proxies - checks.proxyFailures, checks.proxies);
    recorder().setEnabled(false);

    const double budget = o.trace ? o.seconds / 2 : o.seconds;
    const std::vector<Pass> untraced =
        runPasses(plan, false, budget, scratch.path, &setupTimes);
    const double setup_s = trimmedMean(setupTimes);
    std::printf("setup: %zu repetitions, trimmed mean %.6f s\n",
                setupTimes.size(), setup_s);
    const std::vector<u64> &reference = untraced.front().digests;
    size_t attempted = checks.proxies;
    size_t failed = checks.proxyFailures +
                    countFailures(plan, untraced, reference, checks);
    for (const Pass &p : untraced)
        attempted += p.results.size();

    std::vector<Pass> traced;
    std::vector<SampledRun> probeSampled;
    if (o.trace) {
        recorder().setEnabled(true);
        traced = runPasses(plan, true, budget, scratch.path);
        size_t probeFailures = 0;
        probeSampled = runProbe(plan, traced.front().results, scratch.path,
                                probeFailures);
        recorder().setEnabled(false);
        // Traced jobs must simulate exactly what untraced ones did.
        failed += countFailures(plan, traced, reference, checks) +
                  probeFailures;
        for (const Pass &p : traced)
            attempted += p.results.size();
    }

    const u64 digest = passDigest(reference);
    bool referenceOk = true;
    for (const auto &[kind, ref] : kReferenceDigests) {
        if (kind == o.kind && o.seed == kDefaultSeed && ref != digest)
            referenceOk = false;
    }
    using Phase = std::pair<const char *, const std::vector<Pass> *>;
    for (const auto &[label, passes] :
         {Phase{"pass", &untraced}, Phase{"traced pass", &traced}}) {
        for (size_t i = 0; i < passes->size(); ++i) {
            const Pass &p = (*passes)[i];
            std::printf("%s %zu: %zu jobs, %.4f s wall, host scale %.4f, "
                        "%.4f s at reference speed, digest %s\n",
                        label, i + 1, p.results.size(), p.wallSeconds,
                        p.scale, p.seconds(),
                        hex(passDigest(p.digests)).c_str());
        }
    }
    std::printf("digest: %s (%s)\n", hex(digest).c_str(),
                o.seed != kDefaultSeed ? "not the default seed"
                : referenceOk          ? "matches the recorded reference"
                                       : "DIFFERS from the recorded "
                                         "reference");

    double tailPct = 0;
    const Metrics e2e = endToEnd(plan, untraced, setup_s, tailPct);
    std::printf("ops_failed_frac: %.6g (%zu of %zu)\n",
                ratio(failed, attempted), failed, attempted);
    std::printf("job_ms_p50 and job_ms_tail (the p%.2f) are over %zu job "
                "times (%zu jobs x %zu passes)\n",
                tailPct, untraced.front().results.size() * untraced.size(),
                untraced.front().results.size(), untraced.size());
    printTable("end-to-end (tracing off):", kEndToEnd, std::size(kEndToEnd),
               e2e);

    Metrics layers;
    if (o.trace) {
        layers = perLayer(plan, untraced, traced, probeSampled);
        printTable("per-layer:", kLayers, std::size(kLayers), layers);
        printSpans();
        std::ofstream spansOut(o.outDir + "/spans-" + name + ".tsv");
        recorder().writeTsv(spansOut);
    }
    writeReport(o, o.outDir + "/report-" + name + ".json", provenance,
                digest, untraced, e2e, o.trace ? &layers : nullptr);

    const bool correct = failed == 0 && referenceOk;
    std::fflush(stdout);
    if (o.trace) {
        printResult(correct, attempted, failed, kLayers, std::size(kLayers),
                    layers);
    } else {
        printResult(correct, attempted, failed, kEndToEnd,
                    std::size(kEndToEnd), e2e);
    }
    return 0;
}

void
listMetrics()
{
    for (const auto &[kind, defs, n] :
         {std::tuple{"end_to_end", kEndToEnd, std::size(kEndToEnd)},
          std::tuple{"per_layer", kLayers, std::size(kLayers)}}) {
        for (size_t i = 0; i < n; ++i) {
            std::printf("{\"kind\": \"%s\", \"name\": \"%s\", \"unit\": "
                        "\"%s\", \"better\": \"%s\", \"moves\": \"%s\"}\n",
                        kind, defs[i].name, defs[i].unit, defs[i].better,
                        defs[i].moves);
        }
    }
}

} // namespace
} // namespace nwbench

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--list-metrics") {
            nwbench::listMetrics();
            return 0;
        }
    }
    const nwbench::Options opts = nwbench::parseArgs(argc, argv);
    try {
        return nwbench::run(opts);
    } catch (const std::exception &e) {
        std::fflush(stdout);
        std::cerr << "nwbench: " << e.what() << "\n";
        return 1;
    }
}
