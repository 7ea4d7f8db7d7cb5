/**
 * @file
 * The offline workloads, fig_sweep and cold_compile: one RunPlan run
 * at --jobs 1 from an empty ExperimentCache, repeated for the run's
 * duration. Each repetition sets up, runs the plan, builds the
 * SimReport and dumps it; all repetitions run identical work.
 */

#include <algorithm>
#include <random>
#include <set>
#include <sstream>

#include "replay.hh"
#include "support/logging.hh"
#include "suite.hh"
#include "text/parser.hh"
#include "workloads/cache.hh"
#include "workloads/corpus.hh"
#include "workloads/driver.hh"

namespace perfbench
{

namespace
{

struct PlanSpec
{
    workloads::RunPlan plan;
    /** Sources of the plan's text-defined workloads, by name. */
    SourceMap sources;
    /** Names of the seeded ccrgen kernels in the plan. */
    std::set<std::string> kernels;
};

/** Identity of a plan: every point's workload (with its content key,
 *  so regenerated kernels change it) and the config fields the
 *  benchmark varies, in plan order. */
std::string
planFingerprint(const std::string &workload, const PlanSpec &spec)
{
    std::ostringstream os;
    os << "perfbench.v1|" << workload << "\n";
    for (const auto &p : spec.plan.points()) {
        const auto &c = p.config;
        os << p.workload << "|"
           << hex64(workloads::workloadContentKey(p.workload)) << "|"
           << reuse::schemeKindName(c.scheme) << "|" << c.crb.entries
           << "x" << c.crb.instances << "|" << c.optimizeBase << "|"
           << (c.profileInput == workloads::InputSet::Ref) << "|"
           << (c.measureInput == workloads::InputSet::Ref) << "|"
           << c.maxInsts << "\n";
    }
    return hex64(fnv1a(os.str()));
}

/** @p names in an order drawn from the seed. */
std::vector<std::string>
seededOrder(std::vector<std::string> names, std::uint64_t seed)
{
    std::mt19937_64 rng(splitmix(seed));
    std::shuffle(names.begin(), names.end(), rng);
    return names;
}

void
addPoint(workloads::RunPlan &plan, const std::string &name,
         workloads::RunConfig config)
{
    config.budgetFatal = false; // a budget overrun is a failure, not
                                // a process exit
    plan.add(name, config);
}

PlanSpec
figSweepPlan(std::uint64_t seed)
{
    (void)setupCorpus();
    struct Geometry
    {
        int entries, instances;
    };
    // fig08a: {4, 8, 16} instances at 128 entries; fig08b adds
    // {32, 64} entries at 8 instances.
    const Geometry geometries[] = {
        {128, 4}, {128, 8}, {128, 16}, {32, 8}, {64, 8}};
    // Workload-major, as the figure benches queue them: each
    // workload's first point pays its profile and base run and the
    // next four share them. The seed orders the workloads.
    PlanSpec spec;
    for (const auto &name : seededOrder(kBuiltins, seed)) {
        for (const auto &g : geometries) {
            workloads::RunConfig config;
            config.crb.entries = g.entries;
            config.crb.instances = g.instances;
            addPoint(spec.plan, name, config);
        }
    }
    return spec;
}

PlanSpec
coldCompilePlan(std::uint64_t seed)
{
    PlanSpec spec;
    spec.sources = setupCorpus();
    std::vector<std::string> names = pinnedWorkloads();
    for (const auto &kernel : seededKernels(seed, /*salt=*/1, 3)) {
        const auto reg = workloads::registerWorkloadTextStructured(
            kernel.text, kernel.name);
        if (!reg.ok())
            ccr_fatal("seeded kernel ", kernel.name,
                      " failed to register");
        names.push_back(reg.name);
        spec.sources[reg.name] = kernel.text;
        spec.kernels.insert(reg.name);
    }
    // Workload-major, crb before dtm: the crb point pays the profile
    // and base run whatever the seed.
    for (const auto &name : seededOrder(names, seed)) {
        for (const auto scheme :
             {reuse::SchemeKind::Crb, reuse::SchemeKind::Dtm}) {
            workloads::RunConfig config;
            config.scheme = scheme;
            config.optimizeBase = true;
            config.profileInput = workloads::InputSet::Train;
            config.measureInput = workloads::InputSet::Ref;
            addPoint(spec.plan, name, config);
        }
    }
    return spec;
}

/** Digest every point's RunReport; also checks each point. */
std::vector<std::uint64_t>
checkAndDigest(const workloads::RunPlan &plan, const PlanRun &run,
               Outcome &out)
{
    std::vector<std::uint64_t> digests;
    for (std::size_t i = 0; i < run.results.size(); ++i) {
        const obs::Json report = run.results[i].report.toJson();
        out.attempted += 1;
        const std::string why = checkRunReport(report);
        if (!why.empty())
            out.fail(plan.points()[i].workload + ": " + why);
        digests.push_back(fnv1a(report.dump()));
    }
    return digests;
}

std::string
pointLabel(const workloads::RunPlan::Point &p)
{
    const auto &c = p.config;
    std::ostringstream label;
    label << p.workload << " " << reuse::schemeKindName(c.scheme);
    if (c.scheme == reuse::SchemeKind::Crb)
        label << " " << c.crb.entries << "x" << c.crb.instances;
    return label.str();
}

Outcome
runUntraced(const Options &opts, PlanSpec (*make)(std::uint64_t))
{
    Outcome out;
    std::vector<double> plan_s, setup_s, point_ms;
    // Per repetition: each point's latency, and the rest of the plan
    // (cache set-up, the SimReport and its dump).
    std::vector<std::vector<double>> rep_point_ms;
    std::vector<double> rep_rest_s;
    // Whether each point runs a pinned workload, not a seeded kernel.
    std::vector<bool> pinned;
    std::vector<std::uint64_t> first_digests;
    std::vector<double> speedups, kernel_speedups;
    double peak_rss = 0.0;
    std::size_t report_bytes = 0;

    for (int i = 0; i < kExtraSetups; ++i) {
        const auto s0 = Clock::now();
        (void)make(opts.seed);
        setup_s.push_back(secondsSince(s0));
    }
    const int reps = repeatFor(
        opts.seconds, /*min_reps=*/3, /*hard_cap=*/120.0,
        [&](int rep) {
            const auto s0 = Clock::now();
            const PlanSpec spec = make(opts.seed);
            setup_s.push_back(secondsSince(s0));

            const PlanRun run = runPlanOnce(spec.plan);
            plan_s.push_back(run.seconds);
            rep_point_ms.push_back(run.pointMs);
            rep_rest_s.push_back(run.seconds - total(run.pointMs) / 1e3);
            report_bytes = run.reportBytes;
            point_ms.insert(point_ms.end(), run.pointMs.begin(),
                            run.pointMs.end());
            const auto digests = checkAndDigest(spec.plan, run, out);
            if (rep == 0) {
                peak_rss = peakRssMb();
                out.fingerprint = planFingerprint(opts.workload, spec);
                first_digests = digests;
                for (const auto &p : spec.plan.points())
                    pinned.push_back(spec.kernels.count(p.workload) == 0);
                for (const auto &r : run.results) {
                    auto &bucket = spec.kernels.count(r.report.workload)
                                       ? kernel_speedups
                                       : speedups;
                    bucket.push_back(simSpeedup(r.report.toJson()));
                }
                for (std::size_t i = 0; i < digests.size(); ++i)
                    out.lines.push_back(
                        "point " + std::to_string(i) + " "
                        + pointLabel(spec.plan.points()[i])
                        + " digest=" + hex64(digests[i]));
            } else {
                for (std::size_t i = 0; i < digests.size(); ++i) {
                    if (digests[i] != first_digests[i])
                        out.fail("repetition " + std::to_string(rep)
                                 + " simulated different statistics "
                                   "for point "
                                 + std::to_string(i) + " ("
                                 + pointLabel(spec.plan.points()[i])
                                 + ")");
                }
            }
        },
        [&] { return point_ms.size() < 100; });

    out.digest = combinedDigest(first_digests);
    out.lines.push_back("plan_s per repetition: " + joined(plan_s));
    out.lines.push_back("repetitions: " + std::to_string(reps)
                        + " (clients=1, --jobs 1); SimReport "
                        + std::to_string(report_bytes) + " bytes");
    const std::vector<double> best_ms = bestPerOperation(rep_point_ms);
    // The seeded kernels change with the seed, so the median is taken
    // over the pinned workloads' points: the same points for every seed.
    std::vector<double> pinned_best_ms;
    for (std::size_t i = 0; i < best_ms.size(); ++i) {
        if (pinned[i])
            pinned_best_ms.push_back(best_ms[i]);
    }
    out.lines.push_back(
        "plan_s and cold_ms_p50 (pinned workloads' points) from each "
        "point's best of "
        + std::to_string(reps) + " repetitions; plan_s median over "
          "repetitions: "
        + fmt(median(plan_s)));
    out.add("plan_s", total(best_ms) / 1e3 + minOf(rep_rest_s), "s");
    out.add("setup_s", median(setup_s), "s");
    out.add("sim_speedup_gmean", geomean(speedups), "x");
    out.addPercentile("cold_ms_p50", pinned_best_ms, 0.5, 1);
    out.addPercentile("cold_ms_p90", point_ms, 0.9, 1);
    out.add("peak_rss_mb", peak_rss, "MB");
    if (!kernel_speedups.empty())
        out.add("sim_speedup_gmean_kernels", geomean(kernel_speedups),
                "x");
    return out;
}

Outcome
runTraced(const Options &opts, PlanSpec (*make)(std::uint64_t))
{
    Outcome out;
    const PlanSpec spec = make(opts.seed);
    out.fingerprint = planFingerprint(opts.workload, spec);
    const auto &points = spec.plan.points();

    // Untraced reference: the real runPlan path, timed whole.
    const PlanRun ref = runPlanOnce(spec.plan);
    const auto digests = checkAndDigest(spec.plan, ref, out);
    out.digest = combinedDigest(digests);

    // Traced replay of the same points, then the plan report.
    Tracer replay;
    Replayer replayer(replay);
    std::size_t report_bytes = 0;
    double replay_wall_s = 0.0;
    const std::size_t mismatches =
        replayPlan(replayer, replay, spec.plan, ref.results, out,
                   report_bytes, replay_wall_s);

    // Probes outside the replay total: hook-free emulation of every
    // base run, and parsing of every text-defined workload.
    Tracer probes;
    const std::uint64_t emu_insts =
        replayer.probeEmulator(probes, points.size() + 1);
    std::size_t text_bytes = 0;
    for (const auto &[name, source] : spec.sources) {
        if (std::none_of(points.begin(), points.end(),
                         [&](const auto &p) { return p.workload == name; }))
            continue;
        Tracer::Scope span(probes, "text.parse", points.size() + 2);
        text_bytes += source.size();
        if (!text::parseModule(source).ok())
            out.fail("corpus source " + name + " no longer parses");
    }

    addCacheMetrics(ref.cacheStats, out);

    std::vector<obs::Json> reports;
    for (const auto &r : ref.results)
        reports.push_back(r.report.toJson());
    const TracedRun traced{.replay = replay,
                           .probes = probes,
                           .counts = replayer.counts(),
                           .reports = std::move(reports),
                           .points = points.size(),
                           .mismatches = mismatches,
                           .untracedS = ref.seconds,
                           .replayWallS = replay_wall_s,
                           .emuInsts = emu_insts,
                           .reportBytes = report_bytes,
                           .textBytes = text_bytes};
    finishTraced(traced, out);
    return out;
}

} // namespace

Outcome
runFigSweep(const Options &opts)
{
    return opts.trace ? runTraced(opts, figSweepPlan)
                      : runUntraced(opts, figSweepPlan);
}

Outcome
runColdCompile(const Options &opts)
{
    return opts.trace ? runTraced(opts, coldCompilePlan)
                      : runUntraced(opts, coldCompilePlan);
}

} // namespace perfbench
