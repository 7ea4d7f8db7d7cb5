/**
 * @file
 * Helpers shared by the workloads: corpus set-up, seeded kernels,
 * per-run checks, the untraced plan run, the traced replay loop and
 * the per-layer metrics every traced run reports.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "suite.hh"
#include "support/logging.hh"
#include "workloads/corpus.hh"

namespace perfbench
{

const std::vector<std::string> kBuiltins = {
    "espresso", "sc",  "go",    "m88ksim", "gcc",      "compress", "li",
    "ijpeg",    "vortex", "lex", "yacc",   "mpeg2enc", "pgpencode"};

const std::vector<std::string> kCorpus = {
    "adpcm",         "crc32",   "gen_alias_md", "gen_deepcall",
    "gen_zipf_loop", "huffman", "quantize",     "strhash"};

std::vector<std::string>
pinnedWorkloads()
{
    std::vector<std::string> names = kBuiltins;
    names.insert(names.end(), kCorpus.begin(), kCorpus.end());
    return names;
}

SourceMap
setupCorpus()
{
    const auto registered = [](const std::vector<std::string> &names,
                               const std::string &name) {
        return std::find(names.begin(), names.end(), name) != names.end();
    };
    const std::vector<std::string> builtins = workloads::workloadNames();
    for (const auto &name : kBuiltins) {
        if (!registered(builtins, name))
            ccr_fatal("pinned built-in workload ", name,
                      " is not registered");
    }
    // Discovers and registers the corpus on the first call.
    const std::vector<std::string> corpus =
        workloads::corpusWorkloadNames();
    SourceMap sources;
    for (const auto &name : kCorpus) {
        const std::filesystem::path path =
            std::filesystem::path(workloads::corpusDir()) / (name + ".lc");
        std::ifstream in(path);
        if (!in || !registered(corpus, name))
            ccr_fatal("pinned corpus workload ", name, " is missing");
        std::ostringstream text;
        text << in.rdbuf();
        std::vector<std::string> errors;
        auto w = workloads::buildWorkloadFromText(text.str(), name, errors);
        if (!w || w->name != name)
            ccr_fatal("corpus file ", path.string(), " failed to load");
        sources[name] = text.str();
    }
    return sources;
}

std::vector<gen::GeneratedKernel>
seededKernels(std::uint64_t seed, std::uint64_t salt, std::size_t count)
{
    // Default knobs for every kernel, only the ccrgen seed varies:
    // kernels of one shape keep the work per run similar across
    // benchmark seeds.
    std::vector<gen::GeneratedKernel> kernels;
    for (std::size_t i = 0; i < count; ++i) {
        gen::GenKnobs knobs;
        knobs.seed = splitmix(seed ^ splitmix(salt * 1000003 + i))
                     & 0xffffffffffffULL;
        kernels.push_back(gen::generateKernel(knobs));
    }
    return kernels;
}

std::string
checkRunReport(const obs::Json &report)
{
    const obs::Json &metrics = report.at("metrics");
    const obs::Json &completed = metrics.at("run.completed");
    if (completed.isNumber() && completed.asUint() == 0)
        return "run did not complete within its instruction budget";
    const obs::Json &match = report.at("derived").at("outputsMatch");
    if (!match.isBool() || !match.asBool())
        return "base and CCR outputs differ";
    const obs::Json &scheme = report.at("config").at("scheme");
    if (!scheme.isString())
        return "report has no scheme";
    const std::string s = scheme.asString();
    if (s != "none") {
        const auto get = [&](const std::string &key) {
            const obs::Json &v = metrics.at(s + "." + key);
            return v.isNumber() ? v.asUint() : 0;
        };
        if (get("hits") + get("misses") != get("queries"))
            return s + ": hits + misses != queries";
    }
    if (simSpeedup(report) <= 0.0)
        return "no simulated cycles";
    return "";
}

double
simSpeedup(const obs::Json &report)
{
    const obs::Json &metrics = report.at("metrics");
    const obs::Json &base = metrics.at("base.pipe.cycles");
    const obs::Json &ccr = metrics.at("ccr.pipe.cycles");
    if (!base.isNumber() || !ccr.isNumber() || ccr.asUint() == 0)
        return 0.0;
    return static_cast<double>(base.asUint())
           / static_cast<double>(ccr.asUint());
}

PlanRun
runPlanOnce(const workloads::RunPlan &plan)
{
    PlanRun run;
    workloads::ExperimentCache cache;
    workloads::DriverOptions options;
    options.jobs = 1;
    options.cache = &cache;
    options.checkOutputs = false; // callers check every point
    run.pointMs.reserve(plan.size());
    const auto t0 = Clock::now();
    auto last = t0;
    run.results = workloads::runPlan(
        plan, options, [&](std::size_t, const workloads::RunResult &) {
            const auto now = Clock::now();
            run.pointMs.push_back(
                std::chrono::duration<double, std::milli>(now - last)
                    .count());
            last = now;
        });
    run.reportBytes =
        workloads::buildSimReport(plan, run.results).toJson().dump().size();
    run.seconds = secondsSince(t0);
    run.cacheStats = cache.stats();
    return run;
}

std::size_t
replayPlan(Replayer &replayer, Tracer &replay,
           const workloads::RunPlan &plan,
           const std::vector<workloads::RunResult> &ref, Outcome &out,
           std::size_t &report_bytes, double &wall_s)
{
    const auto t0 = Clock::now();
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const auto &p = plan.points()[i];
        const ReplayedPoint rp = replayer.run(p.workload, p.config, i);
        out.attempted += 1;
        if (!rp.completed || !rp.outputsMatch
            || rp.metrics != ref[i].report.metrics) {
            ++mismatches;
            out.fail("traced replay of point " + std::to_string(i) + " ("
                     + p.workload + ") differs from runCcrExperiment");
        }
    }
    {
        Tracer::Scope span(replay, "obs.report", plan.size());
        report_bytes =
            workloads::buildSimReport(plan, ref).toJson().dump().size();
    }
    wall_s = secondsSince(t0);
    return mismatches;
}

namespace
{

/** Per-scheme reuse counts summed over RunReport JSONs. */
void
addReuseMetrics(const std::vector<obs::Json> &reports, Outcome &out)
{
    for (const std::string scheme : {"crb", "dtm"}) {
        std::uint64_t queries = 0, hits = 0, invalidates = 0,
                      eliminated = 0;
        for (const auto &report : reports) {
            if (report.at("config").at("scheme").asString() != scheme)
                continue;
            const obs::Json &m = report.at("metrics");
            const auto get = [&](const std::string &key) {
                const obs::Json &v = m.at(key);
                return v.isNumber() ? v.asUint() : std::uint64_t{0};
            };
            queries += get(scheme + ".queries");
            hits += get(scheme + ".hits");
            invalidates += get(scheme + ".invalidates");
            const std::uint64_t base = get("base.pipe.insts");
            const std::uint64_t ccr = get("ccr.pipe.insts");
            eliminated += base > ccr ? base - ccr : 0;
        }
        const std::string p = "reuse." + scheme + ".";
        out.add(p + "queries", static_cast<double>(queries), "count");
        out.add(p + "hit_ratio",
                queries == 0 ? 0.0
                             : static_cast<double>(hits)
                                   / static_cast<double>(queries),
                "ratio");
        out.add(p + "invalidates", static_cast<double>(invalidates),
                "count");
        out.add(p + "insts_eliminated", static_cast<double>(eliminated),
                "count");
    }
}

} // namespace

void
addCacheMetrics(const workloads::ExperimentCache::Stats &stats,
                Outcome &out)
{
    const auto add = [&](const char *name, std::uint64_t v) {
        out.add(name, static_cast<double>(v), "count");
    };
    add("workloads.cache.module_hits", stats.moduleHits);
    add("workloads.cache.module_misses", stats.moduleMisses);
    add("workloads.cache.profile_hits", stats.profileHits);
    add("workloads.cache.profile_misses", stats.profileMisses);
    add("workloads.cache.baserun_hits", stats.baseRunHits);
    add("workloads.cache.baserun_misses", stats.baseRunMisses);
}

/** Share of the replay's wall time its root spans must cover. */
constexpr double kMinCoverage = 0.99;

void
finishTraced(const TracedRun &run, Outcome &out)
{
    const auto self = run.replay.selfSecondsByName();
    const auto probe_self = run.probes.selfSecondsByName();
    const auto get = [](const std::map<std::string, double> &m,
                        const std::string &k) {
        const auto it = m.find(k);
        return it == m.end() ? 0.0 : it->second;
    };
    const auto per_inst = [](double s, std::uint64_t n) {
        return n == 0 ? 0.0 : s * 1e9 / static_cast<double>(n);
    };
    const Replayer::Counts &c = run.counts;
    if (run.emuInsts != c.baseInsts)
        out.fail("hook-free emulation executed a different number of "
                 "instructions than the base runs");

    out.add("workloads.points", static_cast<double>(run.points), "count");
    out.add("workloads.build_s", get(self, "workloads.build"), "s");
    const double profile_s = get(self, "profile");
    out.add("profile.s", profile_s, "s");
    out.add("profile.calls", static_cast<double>(c.profileCalls), "count");
    out.add("profile.insts", static_cast<double>(c.profileInsts), "count");
    out.add("profile.ns_per_inst", per_inst(profile_s, c.profileInsts),
            "ns");
    out.add("opt.s", get(self, "opt"), "s");
    out.add("analysis.alias_s", get(self, "analysis.alias"), "s");
    out.add("core.form_s", get(self, "core.form"), "s");
    out.add("core.form_calls", static_cast<double>(c.formCalls), "count");
    out.add("core.regions", static_cast<double>(c.regions), "count");

    const double emu_s = get(probe_self, "emu.run");
    const double base_s = get(self, "uarch.base");
    const double ccr_s = get(self, "uarch.ccr");
    out.add("emu.s", emu_s, "s");
    out.add("emu.insts", static_cast<double>(run.emuInsts), "count");
    out.add("emu.ns_per_inst", per_inst(emu_s, run.emuInsts), "ns");
    out.add("uarch.base_s", base_s, "s");
    out.add("uarch.ccr_s", ccr_s, "s");
    out.add("uarch.base_ns_per_inst", per_inst(base_s, c.baseInsts), "ns");
    out.add("uarch.ccr_ns_per_inst", per_inst(ccr_s, c.ccrInsts), "ns");
    // The timing model's own cost, by subtraction.
    out.add("uarch.model_ns_per_inst",
            per_inst(base_s - emu_s, run.emuInsts), "ns");

    addReuseMetrics(run.reports, out);
    out.add("obs.report_s",
            get(self, "obs.report") + get(self, "obs.run_report"), "s");
    out.add("obs.report_bytes", static_cast<double>(run.reportBytes),
            "bytes");
    const double parse_s = get(probe_self, "text.parse");
    out.add("text.parse_s", parse_s, "s");
    out.add("text.bytes_per_s",
            parse_s > 0 ? static_cast<double>(run.textBytes) / parse_s
                        : 0.0,
            "B/s");

    // Self times add up to the root spans by construction. What can
    // fail is coverage: the root spans must account for nearly all of
    // the replay's wall time, or the layer times miss work the replay
    // does between spans.
    const double total = run.replay.rootSeconds();
    const double coverage = run.replayWallS > 0 ? total / run.replayWallS
                                                : 0.0;
    const double overhead = total - run.untracedS;
    out.add("trace.total_s", total, "s");
    out.add("trace.coverage", coverage, "ratio");
    out.add("trace.glue_s", get(self, "point"), "s");
    out.add("trace.untraced_s", run.untracedS, "s");
    out.add("trace.overhead_s", overhead, "s");
    out.add("trace.spans",
            static_cast<double>(run.replay.spans().size()
                                + run.probes.spans().size()),
            "count");
    out.add("trace.equivalent", run.mismatches == 0 ? 1.0 : 0.0, "bool");
    if (run.mismatches != 0)
        out.checksPassed = false;
    if (coverage < kMinCoverage) {
        out.checksPassed = false;
        out.lines.push_back("FAIL root spans cover " + fmt(coverage)
                            + " of the replay's wall time, below "
                            + fmt(kMinCoverage));
    }
    out.lines.push_back(
        "traced replay: " + std::to_string(run.points)
        + " points, equivalence "
        + (run.mismatches == 0 ? "ok" : "FAILED") + "; traced total "
        + fmt(total) + " s (" + fmt(coverage * 100) + "% of "
        + fmt(run.replayWallS) + " s wall) vs untraced " + fmt(run.untracedS)
        + " s (tracing overhead " + fmt(overhead) + " s)");

    obs::Json doc = obs::Json::object();
    doc["replay"] = run.replay.toJson();
    doc["probes"] = run.probes.toJson();
    out.spansJson = doc.dump() + "\n";
}

} // namespace perfbench
