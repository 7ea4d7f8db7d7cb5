/**
 * @file
 * Shared pieces of the benchmark program: options, the result every
 * workload returns, sample statistics, and small hashing helpers.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ccr
{
}

namespace perfbench
{

// The benchmark is a client of every simulator layer; refer to them by
// their layer namespaces (obs::, workloads::, ...).
using namespace ccr;

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Command-line options (see main.cc). */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** One named measurement. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Printed after the value, e.g. a percentile's sample count. */
    std::string note;
};

/** What a workload run hands back to main(). */
struct Outcome
{
    /** Every metric the run measured, gated or not. */
    std::vector<Metric> metrics;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** False when a whole-run check failed (e.g. traced-run
     *  equivalence), independently of per-operation failures. */
    bool checksPassed = true;

    /** Fingerprint of the point or request set; results with
     *  different fingerprints measure different work. */
    std::string fingerprint;

    /** Digest of every point's simulated statistics. */
    std::string digest;

    /** Human-readable report lines printed before the JSON line. */
    std::vector<std::string> lines;

    /** Spans of a traced run (JSON text), written to a file. */
    std::string spansJson;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit), {}});
    }

    /** Add the @p p percentile of @p ms_samples (a latency in ms),
     *  noting its sample and client counts; skipped when it rests on
     *  too few samples (see percentile()). */
    void addPercentile(const std::string &name,
                       const std::vector<double> &ms_samples, double p,
                       int clients);

    /** Count one failed operation and say why. */
    void fail(const std::string &why)
    {
        ++failed;
        if (failed <= 20)
            lines.push_back("FAIL " + why);
    }
};

/** Median (mean of the middle pair for even sizes); 0 when empty. */
double median(std::vector<double> values);

/**
 * Nearest-rank percentile @p p (0..1), or nullopt when fewer than
 * @p min_beyond samples lie above the chosen rank — a tail estimate
 * resting on a handful of samples is not reported.
 */
std::optional<double> percentile(std::vector<double> values, double p,
                                 std::size_t min_beyond = 10);

/** Sum of @p values; 0 when empty. */
double total(const std::vector<double> &values);

/** Smallest of @p values; 0 when empty. */
double minOf(const std::vector<double> &values);

/**
 * Each operation's best (smallest) time over the repetitions:
 * @p per_rep[r][i] is operation i's time in repetition r, and every
 * repetition runs the same operations in the same order.
 */
std::vector<double>
bestPerOperation(const std::vector<std::vector<double>> &per_rep);

/** Geometric mean of positive values; 0 when empty. */
double geomean(const std::vector<double> &values);

/** Process high-water resident set size (VmHWM), MiB. Workloads read
 *  it after their first repetition, so the figure covers the same
 *  work however many repetitions fit in the run. */
double peakRssMb();

/** 64-bit FNV-1a. */
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

/** SplitMix64 step: derives independent sub-seeds from one seed. */
std::uint64_t splitmix(std::uint64_t x);

std::string hex64(std::uint64_t v);

/** Fixed-precision decimal rendering for report lines. */
std::string fmt(double v, int precision = 4);

/** @p values rendered with fmt(v, 3), space-separated. */
std::string joined(const std::vector<double> &values);

/** One digest over per-point digests, in order. */
std::string combinedDigest(const std::vector<std::uint64_t> &digests);

/**
 * Set-ups timed before the repetitions, in addition to each
 * repetition's own. Set-up takes milliseconds, and its median over the
 * few repetitions that fit in a run moves with host noise.
 */
constexpr int kExtraSetups = 31;

/**
 * Repeat @p fn(rep) until @p seconds have elapsed — stopping early
 * when the slowest repetition so far would overrun — but at least
 * @p min_reps times and for as long as @p need_more() holds, never
 * starting a repetition after @p hard_cap seconds. Returns the count.
 */
template <typename Fn, typename More>
int
repeatFor(double seconds, int min_reps, double hard_cap, Fn &&fn,
          More &&need_more)
{
    const auto t0 = Clock::now();
    int reps = 0;
    double longest = 0.0;
    for (;;) {
        const double elapsed = secondsSince(t0);
        const bool wanted = reps < min_reps || need_more()
                            || elapsed + longest <= seconds;
        if (!wanted || (reps >= 1 && elapsed > hard_cap))
            break;
        const auto r0 = Clock::now();
        fn(reps);
        longest = std::max(longest, secondsSince(r0));
        ++reps;
    }
    return reps;
}

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
