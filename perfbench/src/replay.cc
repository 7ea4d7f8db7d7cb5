#include "replay.hh"

#include "analysis/alias.hh"
#include "core/former.hh"
#include "emu/machine.hh"
#include "ir/verifier.hh"
#include "opt/passes.hh"
#include "reuse/factory.hh"
#include "uarch/pipeline.hh"

namespace perfbench
{

namespace
{

using workloads::InputSet;

std::string
moduleKey(const std::string &name, bool optimized)
{
    return name + (optimized ? "|opt" : "|raw");
}

std::string
inputKey(InputSet set, std::uint64_t max_insts)
{
    return std::string(set == InputSet::Train ? "|train|" : "|ref|")
           + std::to_string(max_insts);
}

/** The RunReport metric registry, assembled from the same pieces
 *  and in the same order as the harness does. */
obs::Json
reportMetrics(const workloads::BaseRunData &base,
              const uarch::TimingResult &base_timing,
              const core::FormationStats &formation,
              std::size_t regions, reuse::ReuseScheme *scheme,
              const uarch::Pipeline &pipe)
{
    if (scheme != nullptr)
        scheme->snapshotOccupancy();
    obs::MetricRegistry agg;
    agg.counter("base.pipe.cycles") += base_timing.cycles;
    agg.counter("base.pipe.insts") += base_timing.insts;
    agg.counter("base.icache.misses") += base.icacheMisses;
    agg.counter("base.dcache.misses") += base.dcacheMisses;
    agg.counter("base.bpred.mispredicts") += base.branchMispredicts;
    agg.merge(pipe.metrics(), "ccr");
    if (scheme != nullptr)
        scheme->exportMetrics(agg);
    const auto add = [&](const char *name, int value) {
        agg.counter(name) += static_cast<std::uint64_t>(value);
    };
    add("formation.cyclicFormed", formation.cyclicFormed);
    add("formation.acyclicFormed", formation.acyclicFormed);
    add("formation.functionLevelFormed",
        formation.functionLevelFormed);
    add("formation.seedsRejected", formation.seedsRejected);
    add("formation.invalidationsPlaced",
        formation.invalidationsPlaced);
    if (formation.invalidationsElided != 0)
        add("formation.invalidationsElided",
            formation.invalidationsElided);
    add("formation.blocksReordered", formation.blocksReordered);
    agg.counter("regions.formed") += static_cast<std::uint64_t>(regions);
    return agg.toJson();
}

} // namespace

std::shared_ptr<const workloads::Workload>
Replayer::moduleTemplate(const std::string &name, bool optimized,
                         std::uint64_t group)
{
    const std::string key = moduleKey(name, optimized);
    if (auto it = modules_.find(key); it != modules_.end())
        return it->second;
    std::shared_ptr<workloads::Workload> w;
    {
        Tracer::Scope span(tracer_, "workloads.build", group);
        w = std::make_shared<workloads::Workload>(
            workloads::buildWorkload(name));
        if (optimized) {
            Tracer::Scope opt_span(tracer_, "opt", group);
            opt::runStandardPipeline(*w->module);
        }
        ir::verifyOrDie(*w->module);
    }
    modules_[key] = w;
    return w;
}

workloads::Workload
Replayer::clone(const std::string &name, bool optimized,
                std::uint64_t group)
{
    const auto tmpl = moduleTemplate(name, optimized, group);
    workloads::Workload w;
    w.name = tmpl->name;
    w.module = tmpl->module->clone();
    w.prepare = tmpl->prepare;
    w.outputGlobals = tmpl->outputGlobals;
    return w;
}

ReplayedPoint
Replayer::run(const std::string &name,
              const workloads::RunConfig &config, std::uint64_t group)
{
    Tracer::Scope point_span(tracer_, "point", group);
    ReplayedPoint out;
    const bool opt = config.optimizeBase;

    // Base machine: untransformed code, no reuse hardware. Keyed
    // without the pipeline parameters: every plan the benchmark
    // replays uses the default PipelineParams.
    const std::string base_key = moduleKey(name, opt)
                                 + inputKey(config.measureInput,
                                            config.maxInsts);
    std::shared_ptr<const workloads::BaseRunData> base;
    if (auto it = bases_.find(base_key); it != bases_.end()) {
        base = it->second;
    } else {
        const workloads::Workload w = clone(name, opt, group);
        emu::Machine machine(*w.module);
        w.prepare(machine, config.measureInput);
        uarch::Pipeline pipe(config.pipe);
        auto data = std::make_shared<workloads::BaseRunData>();
        {
            Tracer::Scope span(tracer_, "uarch.base", group);
            data->timing = pipe.run(machine, config.maxInsts);
        }
        data->completed = machine.halted();
        workloads::snapshotBaseCounters(*data, pipe);
        if (data->completed)
            data->outputs = workloads::readOutputs(machine, w);
        counts_.baseInsts += data->timing.insts;
        base = data;
        bases_[base_key] = base;
        baseKeys_.push_back(
            {name, opt, config.measureInput, config.maxInsts});
    }
    if (!base->completed) {
        out.completed = false;
        return out;
    }

    // CCR machine: profile, form regions, run with the scheme.
    workloads::Workload ccr = clone(name, opt, group);
    std::unique_ptr<reuse::ReuseScheme> scheme = reuse::makeScheme(
        reuse::SchemeConfig{config.scheme, config.crb, config.dtm});
    core::RegionTable regions;
    core::FormationStats formation;
    if (scheme != nullptr) {
        const std::string prof_key =
            moduleKey(name, opt)
            + inputKey(config.profileInput, config.maxInsts);
        std::shared_ptr<const profile::ProfileData> prof;
        if (auto it = profiles_.find(prof_key); it != profiles_.end()) {
            prof = it->second;
        } else {
            const workloads::Workload w = clone(name, opt, group);
            Tracer::Scope span(tracer_, "profile", group);
            prof = std::make_shared<const profile::ProfileData>(
                workloads::profileWorkload(w, config.profileInput,
                                           config.maxInsts));
            ++counts_.profileCalls;
            counts_.profileInsts += prof->totalDynamicInsts;
            profiles_[prof_key] = prof;
        }
        if (!prof->completed) {
            out.completed = false;
            return out;
        }

        std::optional<analysis::AliasAnalysis> alias;
        {
            Tracer::Scope span(tracer_, "analysis.alias", group);
            alias.emplace(*ccr.module);
            alias->annotateDeterminableLoads(*ccr.module);
        }
        {
            Tracer::Scope span(tracer_, "core.form", group);
            core::RegionFormer former(*ccr.module, *prof, *alias,
                                      config.policy);
            regions = former.formAll();
            formation = former.stats();
        }
        ++counts_.formCalls;
        counts_.regions += regions.size();
    }

    emu::Machine machine(*ccr.module);
    ccr.prepare(machine, config.measureInput);
    uarch::Pipeline pipe(config.pipe);
    pipe.setScheme(scheme.get());
    if (scheme != nullptr && config.policy.rangeMemClaims) {
        for (const auto &region : regions.regions()) {
            if (region.memStructs.empty())
                continue;
            std::vector<reuse::MemClaim> claims;
            claims.reserve(region.memStructs.size());
            for (std::size_t i = 0; i < region.memStructs.size(); ++i) {
                const ir::GlobalId g = region.memStructs[i];
                const emu::Addr lo = machine.globalAddr(g);
                const core::MemRange mr = region.memRange(i);
                const std::uint64_t size =
                    ccr.module->global(g).sizeBytes;
                reuse::MemClaim c;
                c.lo = mr.whole ? lo : lo + mr.lo;
                c.hi = mr.whole ? lo + (size != 0 ? size - 1 : 0)
                                : lo + mr.hi;
                claims.push_back(c);
            }
            scheme->setMemClaims(region.id, std::move(claims));
        }
    }
    uarch::TimingResult timing;
    {
        Tracer::Scope span(tracer_, "uarch.ccr", group);
        timing = pipe.run(machine, config.maxInsts);
    }
    counts_.ccrInsts += timing.insts;
    if (!machine.halted()) {
        out.completed = false;
        return out;
    }
    out.outputsMatch =
        workloads::readOutputs(machine, ccr) == base->outputs;
    {
        Tracer::Scope span(tracer_, "obs.run_report", group);
        out.metrics = reportMetrics(*base, base->timing, formation,
                                    regions.size(), scheme.get(), pipe);
    }
    return out;
}

std::uint64_t
Replayer::probeEmulator(Tracer &probes, std::uint64_t group)
{
    std::uint64_t insts = 0;
    for (const auto &key : baseKeys_) {
        const workloads::Workload w =
            clone(key.workload, key.optimized, group);
        emu::Machine machine(*w.module);
        w.prepare(machine, key.set);
        Tracer::Scope span(probes, "emu.run", group);
        machine.run(key.maxInsts);
        insts += machine.instCount();
    }
    return insts;
}

} // namespace perfbench
