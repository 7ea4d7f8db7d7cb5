/**
 * @file
 * Stage-by-stage replay of workloads::runCcrExperiment for the traced
 * run. It calls the same public entry points in the same order and
 * shares module builds, profiles and base runs the way an
 * ExperimentCache does, with a span around each layer's call. Every
 * replayed point reassembles its RunReport metric registry so the
 * caller can check it equals the untraced run's: otherwise the traced
 * run would be timing a different program.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "trace.hh"
#include "workloads/cache.hh"
#include "workloads/harness.hh"

namespace perfbench
{

/** One replayed point: its RunReport metrics and headline checks. */
struct ReplayedPoint
{
    obs::Json metrics = obs::Json::object();
    bool completed = true;
    bool outputsMatch = false;
};

class Replayer
{
  public:
    explicit Replayer(Tracer &tracer) : tracer_(tracer) {}

    /** Replay one (workload, config) point under span group
     *  @p group. */
    ReplayedPoint run(const std::string &workload,
                      const workloads::RunConfig &config,
                      std::uint64_t group);

    /**
     * Hook-free emulation of every distinct base run the replay
     * made (same module and input), for the emulator's share of the
     * base pipeline run. Recorded as root "emu.run" spans in
     * @p probes; returns the instructions executed.
     */
    std::uint64_t probeEmulator(Tracer &probes, std::uint64_t group);

    /** Work counts gathered while replaying. */
    struct Counts
    {
        std::uint64_t profileCalls = 0;
        std::uint64_t profileInsts = 0;
        std::uint64_t formCalls = 0;
        std::uint64_t regions = 0;
        std::uint64_t baseInsts = 0;
        std::uint64_t ccrInsts = 0;
    };
    const Counts &counts() const { return counts_; }

  private:
    struct BaseKey
    {
        std::string workload;
        bool optimized;
        workloads::InputSet set;
        std::uint64_t maxInsts;
    };

    std::shared_ptr<const workloads::Workload>
    moduleTemplate(const std::string &name, bool optimized,
                   std::uint64_t group);
    workloads::Workload clone(const std::string &name, bool optimized,
                              std::uint64_t group);

    Tracer &tracer_;
    Counts counts_;
    std::map<std::string, std::shared_ptr<const workloads::Workload>>
        modules_;
    std::map<std::string,
             std::shared_ptr<const profile::ProfileData>>
        profiles_;
    std::map<std::string,
             std::shared_ptr<const workloads::BaseRunData>>
        bases_;
    std::vector<BaseKey> baseKeys_;
};

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
