/**
 * @file
 * The benchmark's workloads and the helpers they share.
 *
 *  - fig_sweep:    the fig08a/fig08b CRB-geometry union over the 13
 *                  built-ins, --jobs 1, empty ExperimentCache.
 *  - cold_compile: every registered workload plus seeded ccrgen
 *                  kernels, one default point each under crb and dtm,
 *                  optimizeBase on, profile train / measure ref.
 *  - server_mix:   an in-process ccrd Server fed cached, cold and
 *                  inline requests by two closed-loop clients.
 *
 * README.md in the benchmark directory documents why each workload
 * exists and which layer metric should move which end-to-end metric.
 */

#ifndef PERFBENCH_SUITE_HH
#define PERFBENCH_SUITE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hh"
#include "gen/gen.hh"
#include "obs/json.hh"
#include "replay.hh"
#include "trace.hh"
#include "workloads/cache.hh"
#include "workloads/driver.hh"

namespace perfbench
{

Outcome runFigSweep(const Options &opts);
Outcome runColdCompile(const Options &opts);
Outcome runServerMix(const Options &opts);

/** Corpus workload name -> `.lc` source text. */
using SourceMap = std::map<std::string, std::string>;

/**
 * The workloads the benchmark measures, pinned by name: the 13
 * built-ins and the 8 on-disk corpus files. A workload added to or
 * renamed in the simulator changes the measured work only when this
 * list is edited; set-up fails if one of them is missing.
 */
extern const std::vector<std::string> kBuiltins;
extern const std::vector<std::string> kCorpus;

/** kBuiltins followed by kCorpus. */
std::vector<std::string> pinnedWorkloads();

/**
 * The set-up every workload starts with: check that every pinned
 * built-in is registered, discover and register the on-disk corpus
 * (first call), and re-validate every pinned corpus file the way
 * registration does (parse, verify, directive checks). Returns the
 * corpus sources by workload name.
 */
SourceMap setupCorpus();

/** @p count ccrgen kernels whose seeds derive from @p seed and
 *  @p salt (distinct salts give disjoint kernel sets). */
std::vector<gen::GeneratedKernel>
seededKernels(std::uint64_t seed, std::uint64_t salt, std::size_t count);

/**
 * Per-run correctness on RunReport JSON: the run completed, base and
 * CCR outputs match, and the scheme's hits + misses == queries.
 * Returns "" when the run is correct, else the reason.
 */
std::string checkRunReport(const obs::Json &report);

/** base.pipe.cycles / ccr.pipe.cycles of a RunReport JSON. */
double simSpeedup(const obs::Json &report);

/** One timed execution of a plan: runPlan at --jobs 1 from an empty
 *  ExperimentCache, then buildSimReport and its JSON dump. */
struct PlanRun
{
    double seconds = 0.0;
    std::vector<double> pointMs;
    std::vector<workloads::RunResult> results;
    /** Size of the SimReport dump the timed plan ends with. */
    std::size_t reportBytes = 0;
    workloads::ExperimentCache::Stats cacheStats;
};

PlanRun runPlanOnce(const workloads::RunPlan &plan);

/**
 * Replay every point of @p plan stage by stage into @p replay, check
 * each against its reference result in @p ref (the equivalence
 * check), then time buildSimReport and its dump as "obs.report".
 * Returns the number of points that differ; sets @p report_bytes and
 * @p wall_s, the replay's wall time.
 */
std::size_t replayPlan(Replayer &replayer, Tracer &replay,
                       const workloads::RunPlan &plan,
                       const std::vector<workloads::RunResult> &ref,
                       Outcome &out, std::size_t &report_bytes,
                       double &wall_s);

/** ExperimentCache hit/miss counters as workloads.cache.* metrics. */
void addCacheMetrics(const workloads::ExperimentCache::Stats &stats,
                     Outcome &out);

/** What a traced run measured, for finishTraced(). */
struct TracedRun
{
    /** Spans of the stage-by-stage replay, and of the probes timed
     *  outside it (emulator, parser, admission). */
    const Tracer &replay;
    const Tracer &probes;
    /** Work counted by the replay. */
    const Replayer::Counts &counts;
    /** RunReport JSON of every replayed point's reference run. */
    std::vector<obs::Json> reports;
    std::size_t points = 0;
    /** Points whose replay differed from runCcrExperiment. */
    std::size_t mismatches = 0;
    /** Host seconds of the untraced reference of the same points. */
    double untracedS = 0.0;
    /** Wall seconds of replayPlan(), spans and the glue between them. */
    double replayWallS = 0.0;
    std::uint64_t emuInsts = 0;
    std::size_t reportBytes = 0;
    std::size_t textBytes = 0;
};

/**
 * Derive the per-layer metrics every traced run shares from its spans
 * and counts, check that the replay's root spans cover its wall time,
 * and attach the span document. Workload-specific layers (cache
 * counters, lint, server) are the caller's.
 */
void finishTraced(const TracedRun &run, Outcome &out);

} // namespace perfbench

#endif // PERFBENCH_SUITE_HH
