#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench
{

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<double>
percentile(std::vector<double> values, double p, std::size_t min_beyond)
{
    if (values.empty())
        return std::nullopt;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    if (n - rank < min_beyond)
        return std::nullopt;
    return values[rank - 1];
}

void
Outcome::addPercentile(const std::string &name,
                       const std::vector<double> &ms_samples, double p,
                       int clients)
{
    const auto v = percentile(ms_samples, p);
    if (!v)
        return;
    add(name, *v, "ms");
    metrics.back().note = "(n=" + std::to_string(ms_samples.size())
                          + ", clients=" + std::to_string(clients) + ")";
}

double
total(const std::vector<double> &values)
{
    double s = 0.0;
    for (double v : values)
        s += v;
    return s;
}

double
minOf(const std::vector<double> &values)
{
    return values.empty() ? 0.0
                          : *std::min_element(values.begin(), values.end());
}

std::vector<double>
bestPerOperation(const std::vector<std::vector<double>> &per_rep)
{
    std::vector<double> best;
    for (const auto &rep : per_rep) {
        if (best.empty()) {
            best = rep;
            continue;
        }
        for (std::size_t i = 0; i < best.size() && i < rep.size(); ++i)
            best[i] = std::min(best[i], rep[i]);
    }
    return best;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0.0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

std::uint64_t
fnv1a(std::string_view bytes, std::uint64_t h)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
fmt(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", precision, v);
    return buf;
}

std::string
joined(const std::vector<double> &values)
{
    std::string out;
    for (double v : values) {
        if (!out.empty())
            out += ' ';
        out += fmt(v, 3);
    }
    return out;
}

std::string
combinedDigest(const std::vector<std::uint64_t> &digests)
{
    std::uint64_t h = fnv1a("");
    for (auto d : digests)
        h = fnv1a(hex64(d), h);
    return hex64(h);
}

} // namespace perfbench
