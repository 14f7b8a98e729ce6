#include "plan.hh"

#include <algorithm>
#include <fstream>

#include "asm/textasm.hh"
#include "cfg/wgen.hh"
#include "ckpt/run.hh"
#include "ckpt/serial.hh"
#include "common/rng.hh"
#include "sample/controller.hh"
#include "spans.hh"
#include "workloads/workload.hh"

namespace nwbench
{

using namespace nwsim;

namespace
{

/** Runs to HALT: a stream budget no program reaches. */
constexpr u64 kToHalt = u64{1} << 40;

/** Generator knobs of one generated program; the seed is filled in. */
struct WgenShape
{
    unsigned ops, iters, blocks, regions, regionBytes;
};

/**
 * Generated programs of each workload. Bodies are long (hundreds of
 * ops), so the op mix of each program stays close to the knob weights
 * whatever the seed, and the simulated metrics move little from seed to
 * seed. grid-detailed pairs a 1 KiB data footprint (hits in the 64 KiB
 * L1D) with 4 x 64 KiB (overflows it). stream-sampled's programs are
 * ~14M instructions long, so the stream is deep enough that fastForward
 * dominates. sweep-isolated's just cover the 22k-instruction window.
 */
std::vector<WgenShape>
wgenShapes(WorkloadKind kind)
{
    switch (kind) {
    case WorkloadKind::GridDetailed:
        return {{512, 600, 2, 1, 1024}, {512, 600, 2, 4, 65536}};
    case WorkloadKind::StreamSampled:
        return {{256, 10000, 4, 1, 1024},
                {256, 10000, 4, 4, 65536},
                {256, 10000, 4, 2, 8192},
                {256, 10000, 4, 4, 16384}};
    case WorkloadKind::SweepIsolated:
        break;
    }
    std::vector<WgenShape> shapes;
    const unsigned footprints[][2] = {
        {1, 1024}, {2, 4096}, {4, 16384}, {4, 65536}, {1, 256}};
    for (unsigned i = 0; i < 10; ++i) {
        shapes.push_back({1024, 25, 1, footprints[i % 5][0],
                          footprints[i % 5][1]});
    }
    return shapes;
}

std::vector<std::string>
machineSpecs(WorkloadKind kind)
{
    switch (kind) {
    case WorkloadKind::GridDetailed:
        return {"baseline", "packing", "packing-replay", "issue8"};
    case WorkloadKind::StreamSampled:
        return {"baseline+sample=400000:2000:8000",
                "packing-replay+sample=400000:2000:8000"};
    case WorkloadKind::SweepIsolated:
        break;
    }
    return {"baseline",
            "packing-replay",
            "issue8",
            "configs/packing.cfg",
            "packing+decode8",
            "baseline+ckpt=5000",
            "configs/packing.cfg+ckpt=5000",
            "packing-replay+sample=5000:500:1500"};
}

RunOptions
runOptions(WorkloadKind kind)
{
    RunOptions o;
    switch (kind) {
    case WorkloadKind::GridDetailed:
        o.warmupInsts = 50000;
        o.measureInsts = 400000;
        break;
    case WorkloadKind::StreamSampled:
        o.warmupInsts = 0;
        o.measureInsts = kToHalt;
        break;
    case WorkloadKind::SweepIsolated:
        o.warmupInsts = 2000;
        o.measureInsts = 20000;
        break;
    }
    return o;
}

std::shared_ptr<const Program>
assembleSpanned(const std::string &text, i64 job)
{
    ScopedSpan s("asm.assemble", job);
    return std::make_shared<const Program>(assembleText(text));
}

std::shared_ptr<const Program>
buildSpanned(const Workload &w, i64 job)
{
    ScopedSpan s("workloads.build", job);
    return std::make_shared<const Program>(w.program());
}

/**
 * The standard campaign job path (exp/campaign.cc) with a span around
 * each call: build or assemble the program, then the checkpointed,
 * sampled or plain runner.
 */
RunResult
tracedSweepJob(const exp::SimJob &job, i64 id, const std::string &ckpt_dir)
{
    const std::shared_ptr<const Program> program =
        job.asmText.empty() ? buildSpanned(workloadByName(job.workload), id)
                            : assembleSpanned(job.asmText, id);
    if (job.opts.ckptEveryInsts > 0) {
        ckpt::CkptRunPolicy policy;
        if (!ckpt_dir.empty())
            policy.path = exp::ckptPathFor(ckpt_dir, job.label());
        policy.workload = job.workload;
        policy.configSpec = job.configSpec;
        policy.everyInsts = job.opts.ckptEveryInsts;
        ScopedSpan s("ckpt.run", id);
        RunResult r = ckpt::runCheckpointedProgram(
            *program, job.config, job.opts, job.workload, job.configSpec,
            policy);
        s.setWork(r.warmupCommitted + r.measuredCommitted, r.core.cycles);
        return r;
    }
    if (job.opts.sample.enabled)
        return tracedSampled(*program, job, id);
    return tracedRunProgram(*program, job, id);
}

using Runner = std::function<RunResult(const exp::SimJob &)>;

/**
 * How one job runs. grid and stream jobs run a prebuilt image; sweep
 * jobs take the standard campaign path untraced, and its traced mirror
 * otherwise, whose spans the forked child writes to a file for the
 * parent.
 */
Runner
jobRunner(WorkloadKind kind, const exp::SimJob &job,
          std::shared_ptr<const Program> image, i64 id, bool traced,
          const std::string &ckpt_dir, const std::string &span_dir)
{
    if (kind == WorkloadKind::SweepIsolated) {
        if (!traced)
            return {};
        const std::string file =
            span_dir + "/job-" + std::to_string(id) + ".tsv";
        return [id, ckpt_dir, file](const exp::SimJob &j) {
            const size_t mark = recorder().size();
            RunResult r = tracedSweepJob(j, id, ckpt_dir);
            std::ofstream out(file);
            recorder().writeTsv(out, mark);
            return r;
        };
    }
    if (job.opts.sample.enabled) {
        if (traced) {
            return [image, id](const exp::SimJob &j) {
                return tracedSampled(*image, j, id);
            };
        }
        return [image](const exp::SimJob &j) {
            return sample::runSampledProgram(*image, j.config, j.opts,
                                             j.workload, j.configSpec);
        };
    }
    if (traced) {
        return [image, id](const exp::SimJob &j) {
            return tracedRunProgram(*image, j, id);
        };
    }
    return [image](const exp::SimJob &j) {
        return runProgram(*image, j.config, j.opts, j.workload,
                          j.configSpec);
    };
}

} // namespace

RunResult
tracedRunProgram(const Program &program, const exp::SimJob &job, i64 id)
{
    ScopedSpan whole("driver.run_program", id);
    SparseMemory memory;
    {
        ScopedSpan s("mem.load", id);
        program.load(memory);
    }
    ScopedSpan ctor("pipeline.construct", id);
    OutOfOrderCore core(job.config, memory, program.entry);
    ctor.end();

    u64 warmup = 0;
    if (job.opts.fastWarmup) {
        ScopedSpan s("func.fast_forward", id);
        warmup = core.fastForward(job.opts.warmupInsts);
        s.setWork(warmup);
    } else {
        ScopedSpan s("pipeline.run", id);
        warmup = core.run(job.opts.warmupInsts);
        s.setWork(warmup);
    }
    {
        ScopedSpan s("pipeline.reset_stats", id);
        core.resetStats();
    }
    {
        ScopedSpan s("pipeline.run", id);
        const u64 measured = core.run(job.opts.measureInsts);
        s.setWork(measured, core.stats().cycles);
    }
    RunResult result;
    {
        ScopedSpan s("driver.collect", id);
        result = collectRunResult(core, job.workload, job.configSpec);
    }
    result.warmupCommitted = warmup;
    return result;
}

RunResult
tracedSampled(const Program &program, const exp::SimJob &job, i64 id)
{
    ScopedSpan s("sample.run", id);
    RunResult r = sample::runSampledProgram(program, job.config, job.opts,
                                            job.workload, job.configSpec);
    s.setWork(r.sample.streamInsts, r.core.cycles);
    return r;
}

const char *
workloadName(WorkloadKind kind)
{
    switch (kind) {
    case WorkloadKind::GridDetailed:
        return "grid-detailed";
    case WorkloadKind::StreamSampled:
        return "stream-sampled";
    case WorkloadKind::SweepIsolated:
        return "sweep-isolated";
    }
    return "?";
}

bool
parseWorkloadKind(const std::string &name, WorkloadKind &out)
{
    for (WorkloadKind k :
         {WorkloadKind::GridDetailed, WorkloadKind::StreamSampled,
          WorkloadKind::SweepIsolated}) {
        if (name == workloadName(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

Plan
setUp(WorkloadKind kind, u64 seed)
{
    Plan plan;
    plan.kind = kind;
    plan.seed = seed;
    plan.opts = runOptions(kind);
    for (const std::string &spec : machineSpecs(kind)) {
        ScopedSpan s("cfg.resolve");
        plan.machines.push_back(cfg::resolveMachineSpec(spec));
    }

    // Sweep jobs build their own programs, like any campaign job;
    // the other workloads build every image here, before timing.
    const bool prebuild = kind != WorkloadKind::SweepIsolated;
    for (const Workload &w : allWorkloads()) {
        BenchProgram p;
        p.name = w.name;
        if (prebuild)
            p.image = buildSpanned(w, -1);
        plan.programs.push_back(std::move(p));
    }

    SplitMix64 rng(seed ^ (0x6e7762656e6368ULL + static_cast<u64>(kind)));
    for (const WgenShape &shape : wgenShapes(kind)) {
        cfg::WgenParams params;
        params.seed = rng.next() & ((u64{1} << 53) - 1);
        params.ops = shape.ops;
        params.iters = shape.iters;
        params.blocks = shape.blocks;
        params.regions = shape.regions;
        params.regionBytes = shape.regionBytes;
        BenchProgram p;
        p.name = cfg::canonicalWgenSpec(params);
        {
            ScopedSpan s("cfg.wgen");
            p.asmText = cfg::wgenProgramText(params);
        }
        if (prebuild)
            p.image = assembleSpanned(p.asmText, -1);
        plan.programs.push_back(std::move(p));
    }
    return plan;
}

exp::CampaignOptions
campaignOptions(const Plan &plan, const std::string &scratch)
{
    exp::CampaignOptions copts;
    copts.maxAttempts = 1; // a retry would hide a failure and skew time
    copts.jobs = 1;
    copts.executor = exp::ExecutorKind::Thread;
    if (plan.kind == WorkloadKind::SweepIsolated) {
        // Half of a 4-core host; the rest is left for the parent and
        // for noise.
        copts.jobs = 2;
        copts.executor = exp::ExecutorKind::Fork;
        copts.journal = scratch + "/sweep.journal";
        copts.ckptDir = scratch + "/ckpt";
    }
    return copts;
}

exp::Campaign
makeCampaign(const Plan &plan, const exp::CampaignOptions &copts,
             bool traced, const std::string &span_dir, JobProbe *probe)
{
    exp::Campaign campaign;
    i64 id = 0;
    for (const cfg::MachineSpec &m : plan.machines) {
        for (const BenchProgram &p : plan.programs) {
            exp::SimJob job;
            job.workload = p.name;
            job.configSpec = m.spec;
            job.config = m.config;
            job.configText = m.configText;
            job.asmText = p.asmText;
            job.opts = plan.opts;
            job.opts.sample = m.sample;
            if (m.ckptEvery)
                job.opts.ckptEveryInsts = m.ckptEvery;

            job.runner = jobRunner(plan.kind, job, p.image, id, traced,
                                   copts.ckptDir, span_dir);
            if (probe && plan.kind != WorkloadKind::SweepIsolated) {
                job.runner = [run = std::move(job.runner), probe,
                              id](const exp::SimJob &j) {
                    probe->sliceSeconds[id] = probe->probe.slice();
                    return run(j);
                };
            }
            campaign.add(std::move(job));
            ++id;
        }
    }
    return campaign;
}

u64
resultDigest(const RunResult &r)
{
    ckpt::ByteSink sink;
    sink.u64v(r.core.cycles);
    sink.u64v(r.core.committed);
    sink.u64v(r.core.squashed);
    sink.u64v(r.packing.packedInsts);
    sink.u64v(r.packing.replayTraps);
    sink.u64v(r.gating.gated16);
    sink.u64v(r.gating.gated33);
    sink.f64v(r.gating.baselineMwSum);
    sink.f64v(r.gating.gatedMwSum);
    sink.f64v(r.gating.overheadMwSum);
    sink.f64v(r.l1dMissRate);
    sink.f64v(r.l1iMissRate);
    return ckpt::fnv1a64(sink.take());
}

u64
detailedInsts(const RunResult &r, const RunOptions &opts)
{
    if (!r.sample.sampled)
        return r.measuredCommitted + (opts.fastWarmup ? 0
                                                      : r.warmupCommitted);
    const u64 per = opts.sample.warmupInsts + opts.sample.measureInsts;
    return std::min(r.sample.streamInsts, r.sample.intervals * per);
}

u64
fastForwardedInsts(const RunResult &r, const RunOptions &opts)
{
    if (!r.sample.sampled)
        return opts.fastWarmup ? r.warmupCommitted : 0;
    return r.sample.streamInsts - detailedInsts(r, opts);
}

} // namespace nwbench
