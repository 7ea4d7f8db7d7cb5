/**
 * @file
 * In-memory span recorder for the traced run. Spans are recorded from
 * the benchmark's own code around calls into the simulator's layers;
 * nothing inside the simulator is instrumented. Single-threaded: the
 * innermost open span is the parent of the next one opened.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hh"
#include "obs/json.hh"

namespace perfbench
{

class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        int parent = -1;
        /** Spans of one point or request share this id. */
        std::uint64_t group = 0;
    };

    /** RAII span: opened on construction, closed on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, std::string name, std::uint64_t group);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        int index_;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Sum of root-span durations, seconds. */
    double rootSeconds() const;

    /** Self time (duration minus direct children) summed per span
     *  name, seconds. Over all names it adds up to rootSeconds(). */
    std::map<std::string, double> selfSecondsByName() const;

    /** Spans as a JSON array of {name, start_ns, end_ns, parent,
     *  group, self_ns}. */
    obs::Json toJson() const;

  private:
    std::int64_t nowNs() const;
    std::vector<std::int64_t> selfNs() const;

    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
    int open_ = -1;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
