/**
 * @file
 * Benchmark entry point.
 *
 *   ccr_perfbench --workload <fig_sweep|cold_compile|server_mix>
 *                 --seed <n> --seconds <s> --trace <0|1>
 *
 * Prints a human-readable report, writes the full result (seed,
 * fingerprint, digest, every metric) to .bench_results/ under the
 * working directory, and ends stdout
 * with one JSON line: {"correct", "attempted", "failed", "metrics"},
 * where metrics holds the end-to-end set (--trace 0) or the per-layer
 * set (--trace 1) named in the tables below.
 */

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "suite.hh"

namespace
{

using perfbench::Metric;
using perfbench::Options;
using perfbench::Outcome;

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** Gated with tracing off; every workload reports all of them. */
const MetricSpec kEndToEnd[] = {
    {"plan_s", "s"},           {"setup_s", "s"},
    {"peak_rss_mb", "MB"},     {"sim_speedup_gmean", "x"},
    {"cold_ms_p50", "ms"},
};

/** Reported by the traced run; a layer a workload does not exercise
 *  reads 0. */
const MetricSpec kPerLayer[] = {
    {"workloads.cache.module_hits", "count"},
    {"workloads.cache.module_misses", "count"},
    {"workloads.cache.profile_hits", "count"},
    {"workloads.cache.profile_misses", "count"},
    {"workloads.cache.baserun_hits", "count"},
    {"workloads.cache.baserun_misses", "count"},
    {"workloads.points", "count"},
    {"workloads.build_s", "s"},
    {"profile.s", "s"},
    {"profile.calls", "count"},
    {"profile.insts", "count"},
    {"profile.ns_per_inst", "ns"},
    {"opt.s", "s"},
    {"analysis.alias_s", "s"},
    {"core.form_s", "s"},
    {"core.form_calls", "count"},
    {"core.regions", "count"},
    {"lint.s", "s"},
    {"lint.diagnostics", "count"},
    {"emu.s", "s"},
    {"emu.insts", "count"},
    {"emu.ns_per_inst", "ns"},
    {"uarch.base_s", "s"},
    {"uarch.ccr_s", "s"},
    {"uarch.base_ns_per_inst", "ns"},
    {"uarch.ccr_ns_per_inst", "ns"},
    {"uarch.model_ns_per_inst", "ns"},
    {"reuse.crb.queries", "count"},
    {"reuse.crb.hit_ratio", "ratio"},
    {"reuse.crb.invalidates", "count"},
    {"reuse.crb.insts_eliminated", "count"},
    {"reuse.dtm.queries", "count"},
    {"reuse.dtm.hit_ratio", "ratio"},
    {"reuse.dtm.invalidates", "count"},
    {"reuse.dtm.insts_eliminated", "count"},
    {"obs.report_s", "s"},
    {"obs.report_bytes", "bytes"},
    {"text.parse_s", "s"},
    {"text.bytes_per_s", "B/s"},
    {"server.admission_s", "s"},
    {"server.outside_ms_p50", "ms"},
    {"server.result_cache_hit_ratio", "ratio"},
    {"server.batch_occupancy_mean", "count"},
    {"server.rejects", "count"},
    {"trace.total_s", "s"},
    {"trace.coverage", "ratio"},
    {"trace.glue_s", "s"},
    {"trace.untraced_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.spans", "count"},
    {"trace.equivalent", "bool"},
};

/** Where full results and span files go. */
const std::string kOutDir = ".bench_results";

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "fatal: " << why
              << "\nusage: ccr_perfbench --workload "
                 "<fig_sweep|cold_compile|server_mix> --seed <n> "
                 "--seconds <s> --trace <0|1>\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                opts.workload = value;
                have_workload = true;
            } else if (arg == "--seed") {
                opts.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                opts.seconds = std::stod(value);
            } else if (arg == "--trace") {
                if (value != "0" && value != "1")
                    usage("--trace takes 0 or 1");
                opts.trace = value == "1";
            } else {
                usage("unknown argument " + arg);
            }
        } catch (const std::exception &) {
            usage("bad value for " + arg + ": " + value);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(opts.seconds > 0.0))
        usage("--seconds must be positive");
    return opts;
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

int
main(int argc, char **argv)
{
    const auto t_start = perfbench::Clock::now();
    const Options opts = parseArgs(argc, argv);

    Outcome out;
    if (opts.workload == "fig_sweep")
        out = perfbench::runFigSweep(opts);
    else if (opts.workload == "cold_compile")
        out = perfbench::runColdCompile(opts);
    else if (opts.workload == "server_mix")
        out = perfbench::runServerMix(opts);
    else
        usage("unknown workload " + opts.workload);

    std::map<std::string, Metric> by_name;
    for (const auto &m : out.metrics)
        by_name[m.name] = m;

    for (const auto &line : out.lines)
        std::cout << line << "\n";
    std::cout << "workload=" << opts.workload << " seed=" << opts.seed
              << " trace=" << (opts.trace ? 1 : 0)
              << " fingerprint=" << out.fingerprint
              << " digest=" << out.digest << "\n";
    const double error_rate =
        out.attempted == 0 ? 1.0
                           : static_cast<double>(out.failed)
                                 / static_cast<double>(out.attempted);
    std::cout << "  error_rate = " << perfbench::fmt(error_rate, 6)
              << " ratio (lower is better; " << out.failed << " of "
              << out.attempted << " operations failed)\n";
    for (const auto &m : out.metrics)
        std::cout << "  " << m.name << " = " << perfbench::fmt(m.value, 6)
                  << " " << m.unit
                  << (m.note.empty() ? "" : " " + m.note) << "\n";

    // The gated set for this mode, in the declared order.
    std::string metrics_json;
    bool complete = true;
    const auto emit = [&](const MetricSpec &spec, double value) {
        if (!metrics_json.empty())
            metrics_json += ", ";
        metrics_json += quoted(spec.name) + ": {\"value\": "
                        + number(value)
                        + ", \"unit\": " + quoted(spec.unit) + "}";
    };
    if (opts.trace) {
        for (const auto &spec : kPerLayer) {
            const auto it = by_name.find(spec.name);
            emit(spec, it == by_name.end() ? 0.0 : it->second.value);
        }
    } else {
        for (const auto &spec : kEndToEnd) {
            const auto it = by_name.find(spec.name);
            if (it == by_name.end()) {
                std::cerr << "fatal: end-to-end metric " << spec.name
                          << " was not measured\n";
                complete = false;
                continue;
            }
            emit(spec, it->second.value);
        }
    }
    if (!complete)
        return 1;

    const bool correct =
        out.checksPassed && out.failed == 0 && out.attempted > 0;

    // Full result, for like-for-like comparison (compare.py).
    std::error_code ec;
    std::filesystem::create_directories(kOutDir, ec);
    const std::string stem = kOutDir + "/" + opts.workload + "-seed"
                             + std::to_string(opts.seed) + "-trace"
                             + (opts.trace ? "1" : "0");
    {
        std::ofstream f(stem + ".json");
        f << "{\"workload\": " << quoted(opts.workload)
          << ", \"seed\": " << opts.seed
          << ", \"trace\": " << (opts.trace ? 1 : 0)
          << ", \"seconds\": " << number(opts.seconds)
          << ", \"fingerprint\": " << quoted(out.fingerprint)
          << ", \"digest\": " << quoted(out.digest)
          << ", \"correct\": " << (correct ? "true" : "false")
          << ", \"attempted\": " << out.attempted
          << ", \"failed\": " << out.failed << ", \"metrics\": {";
        bool first = true;
        for (const auto &m : out.metrics) {
            f << (first ? "" : ", ") << quoted(m.name)
              << ": {\"value\": " << number(m.value)
              << ", \"unit\": " << quoted(m.unit) << "}";
            first = false;
        }
        f << "}}\n";
    }
    if (!out.spansJson.empty()) {
        std::ofstream f(stem + "-spans.json");
        f << out.spansJson;
    }

    std::cout << "wall " << perfbench::fmt(perfbench::secondsSince(t_start))
              << " s; result " << stem << ".json\n";
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << out.attempted
              << ", \"failed\": " << out.failed << ", \"metrics\": {"
              << metrics_json << "}}" << std::endl;
    return 0;
}
