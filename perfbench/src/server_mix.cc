/**
 * @file
 * The server_mix workload: an in-process ccrd Server (2 shards x 1
 * job, result cache on, quotas sized so the mix never trips them)
 * driven by two closed-loop client connections. Each client sends its
 * next single-run request only after the previous one completed.
 *
 * The request list is built once from the seed and replayed against a
 * fresh Server in every repetition, in two timed phases:
 *  - compute phase, sent in rounds, every request computes:
 *    - cold:   each registered workload once under crb and once under
 *              dtm, the first sight of each run signature;
 *    - inline: seeded ccrgen kernels sent as `.lc` source, so each
 *              passes admission (parse, verify, lint) on a fresh server;
 *  - hit phase, sent in an order drawn per repetition, every request
 *    is a result-cache hit:
 *    - cached: repeats of the cold requests.
 * README.md gives the basis of the counts and each phase's share.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <numeric>
#include <random>
#include <sstream>
#include <thread>

#include "analysis/alias.hh"
#include "core/former.hh"
#include "lint/lint.hh"
#include "replay.hh"
#include "server/admission.hh"
#include "server/client.hh"
#include "server/server.hh"
#include "suite.hh"
#include "support/logging.hh"
#include "text/parser.hh"
#include "workloads/corpus.hh"
#include "workloads/driver.hh"

namespace perfbench
{

namespace
{

constexpr int kClients = 2;
/** Server shards; each client sends the cold requests of one shard. */
constexpr int kShards = kClients;
/** An idle client slot in a compute round. */
constexpr std::size_t kIdle = static_cast<std::size_t>(-1);
/** Inline kernels per repetition: three repetitions give the p90 the
 *  10 samples beyond it that it needs (3 x 34 = 102). */
constexpr std::size_t kInline = 34;
/** Repeats of each cold request in the hit phase. Sized so the hit
 *  phase is about a third of the timed work (README.md). */
constexpr std::size_t kRepeats = 200;

enum class Cls
{
    Cached,
    Cold,
    Inline
};

const char *
clsName(Cls c)
{
    return c == Cls::Cached ? "cached" : c == Cls::Cold ? "cold" : "inline";
}

struct Request
{
    Cls cls = Cls::Cold;
    /** Registered workload name (named runs) or kernel name. */
    std::string workload;
    /** Inline `.lc` source; empty for named runs. */
    std::string source;
    /** Run parameters as an offline runPlan would see them. */
    workloads::RunConfig config;
    /** Index of the cold request a cached request repeats. */
    std::size_t repeats = 0;
};

/** The compute requests each client sends in one round, as indices
 *  into RequestSet::compute (kIdle: the client sends nothing). */
using Round = std::array<std::size_t, kClients>;

struct RequestSet
{
    /** Cold requests, then inline ones. */
    std::vector<Request> compute;
    /** The compute phase's send order; every compute request appears
     *  in exactly one round. */
    std::vector<Round> rounds;
    std::vector<Request> hits;
    std::string fingerprint;
};

server::ServerOptions
serverOptions()
{
    server::ServerOptions o;
    o.port = 0;
    o.shards = kShards;
    o.jobsPerShard = 1;
    o.resultCache = true;
    o.allowRemoteShutdown = false;
    // Sized so the mix never trips a quota; the budget cap equals the
    // offline default so server and offline runs are identical.
    o.limits.quotaRatePerSec = 1e9;
    o.limits.quotaBurst = 1e9;
    o.limits.maxInstsCap = workloads::RunConfig{}.maxInsts;
    return o;
}

const char *
inputName(workloads::InputSet set)
{
    return set == workloads::InputSet::Ref ? "ref" : "train";
}

obs::Json
requestJson(const Request &r)
{
    obs::Json run = obs::Json::object();
    if (r.source.empty()) {
        run["workload"] = r.workload;
    } else {
        run["source"] = r.source;
        run["display"] = r.workload;
    }
    run["scheme"] = std::string(reuse::schemeKindName(r.config.scheme));
    run["profileInput"] = std::string(inputName(r.config.profileInput));
    run["measureInput"] = std::string(inputName(r.config.measureInput));
    if (r.config.scheme == reuse::SchemeKind::Dtm) {
        obs::Json dtm = obs::Json::object();
        dtm["maxTraces"] = r.config.dtm.maxTraces;
        dtm["tracesPerRegion"] = r.config.dtm.tracesPerRegion;
        run["dtm"] = std::move(dtm);
    } else {
        obs::Json crb = obs::Json::object();
        crb["entries"] = r.config.crb.entries;
        crb["instances"] = r.config.crb.instances;
        run["crb"] = std::move(crb);
    }
    obs::Json runs = obs::Json::array();
    runs.push(std::move(run));
    obs::Json req = server::Client::makeRequest("run", "perfbench");
    req["runs"] = std::move(runs);
    return req;
}

/** The request list. The seed draws the inline kernels and, per
 *  repetition, the hit phase's send order (see runRep); the cold and
 *  cached requests are the same for every seed, so their work does not
 *  vary with it. */
RequestSet
buildRequests(const std::vector<gen::GeneratedKernel> &kernels)
{
    RequestSet set;
    // Every pinned workload under both schemes at the default
    // geometry: on a fresh server each signature is new. All crb runs
    // come first, so each workload's profile and base run are paid by
    // its crb run and shared by its dtm run.
    for (const auto scheme :
         {reuse::SchemeKind::Crb, reuse::SchemeKind::Dtm}) {
        for (const auto &name : pinnedWorkloads()) {
            Request r;
            r.workload = name;
            r.config.scheme = scheme;
            set.compute.push_back(r);
        }
    }
    const std::size_t cold = set.compute.size();
    for (std::size_t k = 0; k < kRepeats; ++k) {
        for (std::size_t i = 0; i < cold; ++i) {
            Request r = set.compute[i];
            r.cls = Cls::Cached;
            r.repeats = i;
            set.hits.push_back(r);
        }
    }
    // Cold rounds: client c sends the cold requests the server routes
    // to shard c (workloadContentKey modulo the shard count), in list
    // order, so the two requests of a round never queue on one shard
    // and each latency is the run's own. Which of two requests on one
    // shard the server takes first depends on thread timing; the
    // second one's latency would include the first's.
    std::array<std::vector<std::size_t>, kShards> by_shard;
    for (std::size_t i = 0; i < cold; ++i)
        by_shard[workloads::workloadContentKey(set.compute[i].workload)
                 % kShards]
            .push_back(i);
    std::size_t cold_rounds = 0;
    for (const auto &queue : by_shard)
        cold_rounds = std::max(cold_rounds, queue.size());
    for (std::size_t k = 0; k < cold_rounds; ++k) {
        Round round;
        for (int c = 0; c < kClients; ++c)
            round[c] = k < by_shard[c].size() ? by_shard[c][k] : kIdle;
        set.rounds.push_back(round);
    }
    // Inline rounds, in list order. An inline kernel's shard is known
    // only once the server has registered it.
    for (const auto &kernel : kernels) {
        Request r;
        r.cls = Cls::Inline;
        r.workload = kernel.name;
        r.source = kernel.text;
        set.compute.push_back(r);
    }
    for (std::size_t i = cold; i < set.compute.size(); i += kClients) {
        Round round;
        for (int c = 0; c < kClients; ++c)
            round[c] = i + c < set.compute.size() ? i + c : kIdle;
        set.rounds.push_back(round);
    }

    std::ostringstream os;
    os << "perfbench.v3|server_mix|clients=" << kClients
       << "|repeats=" << kRepeats << "\n";
    for (const auto &r : set.compute) {
        os << clsName(r.cls) << "|" << r.workload << "|"
           << hex64(r.source.empty()
                        ? workloads::workloadContentKey(r.workload)
                        : fnv1a(r.source))
           << "|" << inputName(r.config.profileInput) << "/"
           << inputName(r.config.measureInput) << "|"
           << reuse::schemeKindName(r.config.scheme) << "|"
           << r.config.crb.entries << "x" << r.config.crb.instances << "|"
           << r.config.dtm.maxTraces << "/" << r.config.dtm.tracesPerRegion
           << "\n";
    }
    for (const auto &round : set.rounds) {
        for (const std::size_t i : round)
            os << (i == kIdle ? std::string("-") : std::to_string(i)) << " ";
    }
    set.fingerprint = hex64(fnv1a(os.str()));
    return set;
}

/** One request's outcome as the client saw it. */
struct Response
{
    bool ok = false;
    std::string why;
    double ms = 0.0;
    double serverMs = 0.0;
    bool cached = false;
    obs::Json run;
};

bool
validHeader(const obs::Json &frame, const char *type)
{
    const obs::Json &schema = frame.at("schema");
    return schema.at("name").isString()
           && schema.at("name").asString() == server::kResponseSchemaName
           && schema.at("version").isNumber()
           && schema.at("version").asInt() == server::kProtocolVersion
           && frame.at("type").isString()
           && frame.at("type").asString() == type;
}

Response
send(server::Client &client, const Request &r)
{
    Response resp;
    const obs::Json req = requestJson(r);
    const auto t0 = Clock::now();
    const std::vector<obs::Json> frames = client.call(req);
    resp.ms = secondsSince(t0) * 1e3;

    if (frames.size() != 2) {
        resp.why = "expected a run frame and a done frame, got "
                   + std::to_string(frames.size()) + " frames";
        return resp;
    }
    const obs::Json &run = frames[0];
    const obs::Json &done = frames[1];
    if (!validHeader(run, "run") || !validHeader(done, "done")) {
        resp.why = "response frame failed validation: " + run.dump();
        return resp;
    }
    if (!run.at("error").isNull()) {
        resp.why = "run rejected: " + run.at("error").dump();
        return resp;
    }
    if (run.at("index").asUint() != 0 || !run.at("cached").isBool()
        || !run.at("serverMillis").isNumber()
        || !run.at("run").isObject()
        || done.at("completed").asUint() != 1
        || done.at("rejected").asUint() != 0) {
        resp.why = "malformed run/done frame";
        return resp;
    }
    resp.cached = run.at("cached").asBool();
    resp.serverMs = run.at("serverMillis").asDouble();
    resp.run = run.at("run");
    if (resp.cached != (r.cls == Cls::Cached)) {
        resp.why = std::string("cached flag ")
                   + (resp.cached ? "true" : "false") + " on a "
                   + clsName(r.cls) + " request";
        return resp;
    }
    const std::string why = checkRunReport(resp.run);
    if (!why.empty()) {
        resp.why = why;
        return resp;
    }
    resp.ok = true;
    return resp;
}

std::uint64_t
sumRejects(const obs::Json &metrics)
{
    std::uint64_t n = 0;
    for (const auto &[key, value] : metrics.fields()) {
        if (key.rfind("server.admission.rejects.", 0) == 0)
            n += value.asUint();
    }
    return n;
}

/**
 * Send @p list over the clients in @p rounds: in each round every
 * client sends its request of the round, if any, and waits for the
 * reply, and no client starts a round before all have finished the
 * previous one. Which requests meet on a shard is then fixed by the
 * rounds. With free-running clients it depends on thread timing, and a
 * run's latency jumps between its queued and unqueued values from one
 * repetition to the next. Responses come back in list order.
 */
std::vector<Response>
sendInRounds(std::vector<server::Client> &clients,
             const std::vector<Request> &list,
             const std::vector<Round> &rounds)
{
    std::vector<Response> responses(list.size());
    std::barrier sync(static_cast<std::ptrdiff_t>(clients.size()));
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < clients.size(); ++c) {
        threads.emplace_back([&, c] {
            for (const Round &round : rounds) {
                if (round[c] != kIdle)
                    responses[round[c]] = send(clients[c], list[round[c]]);
                sync.arrive_and_wait();
            }
        });
    }
    threads.clear(); // joins
    return responses;
}

/**
 * Send the cached requests in @p list over the clients, closed loop,
 * in an order drawn from @p rng; responses come back in list order.
 * Each report must be byte-identical to the @p cold response it
 * repeats, and is dropped once checked.
 */
std::vector<Response>
sendHits(std::vector<server::Client> &clients,
         const std::vector<Request> &list, std::mt19937_64 &rng,
         const std::vector<Response> &cold)
{
    std::vector<std::size_t> order(list.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::shuffle(order.begin(), order.end(), rng);
    std::vector<Response> responses(list.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::jthread> threads;
    for (auto &client : clients) {
        threads.emplace_back([&, c = &client] {
            for (;;) {
                const std::size_t n = next.fetch_add(1);
                if (n >= order.size())
                    return;
                const Request &r = list[order[n]];
                Response resp = send(*c, r);
                if (resp.ok && resp.run != cold[r.repeats].run) {
                    resp.ok = false;
                    resp.why = "differs from its cold run";
                }
                resp.run = obs::Json();
                responses[order[n]] = std::move(resp);
            }
        });
    }
    threads.clear(); // joins
    return responses;
}

/** What a repetition sets up, timed as setup_s: the corpus, the
 *  seeded kernels and the request list, then a fresh server with its
 *  clients connected. Closes the clients and stops the server when
 *  destroyed. */
struct Session
{
    RequestSet set;
    server::Server srv{serverOptions()};
    std::uint16_t port = 0;
    std::vector<server::Client> clients;
    double setupS = 0.0;

    explicit Session(std::uint64_t seed)
    {
        const auto s0 = Clock::now();
        (void)setupCorpus();
        set = buildRequests(seededKernels(seed, /*salt=*/2, kInline));
        port = srv.start();
        clients.resize(kClients);
        for (auto &c : clients) {
            if (!c.connectTo(port))
                ccr_fatal("cannot connect to the in-process server");
        }
        setupS = secondsSince(s0);
    }

    ~Session()
    {
        for (auto &c : clients)
            c.close();
        srv.stop();
    }
};

/** One repetition: set up a fresh server, then time both phases. */
struct Rep
{
    double setupS = 0.0;
    double computeS = 0.0;
    double hitS = 0.0;
    std::vector<Response> compute;
    std::vector<Response> hits;
    obs::Json serverMetrics;
};

Rep
runRep(std::uint64_t seed, int index, RequestSet &set_out, Outcome &out)
{
    Rep rep;
    Session session(seed);
    rep.setupS = session.setupS;

    auto t0 = Clock::now();
    rep.compute = sendInRounds(session.clients, session.set.compute,
                               session.set.rounds);
    rep.computeS = secondsSince(t0);
    // Cached requests never reach a shard, so their order only needs
    // to spread each signature's repeats over the phase.
    std::mt19937_64 rng(splitmix(seed ^ splitmix(1000 + index)));
    t0 = Clock::now();
    rep.hits = sendHits(session.clients, session.set.hits, rng, rep.compute);
    rep.hitS = secondsSince(t0);

    server::Client admin;
    if (admin.connectTo(session.port)) {
        const auto frames =
            admin.call(server::Client::makeRequest("metrics", "perfbench"));
        if (frames.size() == 1)
            rep.serverMetrics = frames[0].at("metrics");
    }
    if (!rep.serverMetrics.isObject())
        out.fail("metrics verb returned no registry");
    admin.close();
    set_out = std::move(session.set);
    return rep;
}

/** Check a repetition; returns the compute phase's per-request
 *  digests in list order. */
std::vector<std::uint64_t>
checkRep(const RequestSet &set, const Rep &rep, Outcome &out)
{
    const auto record = [&](const Request &r, const Response &resp) {
        out.attempted += 1;
        if (!resp.ok)
            out.fail(std::string(clsName(r.cls)) + " " + r.workload + ": "
                     + resp.why);
    };
    std::vector<std::uint64_t> digests;
    for (std::size_t i = 0; i < set.compute.size(); ++i) {
        record(set.compute[i], rep.compute[i]);
        digests.push_back(fnv1a(rep.compute[i].run.dump()));
    }
    for (std::size_t i = 0; i < set.hits.size(); ++i)
        record(set.hits[i], rep.hits[i]);
    const std::uint64_t quota =
        rep.serverMetrics.at("server.admission.rejects.quota").asUint();
    if (quota != 0)
        out.fail(std::to_string(quota) + " quota rejects");
    return digests;
}

void
latencyLine(Outcome &out, const char *cls, const std::vector<double> &ms,
            std::initializer_list<std::pair<double, const char *>> ps)
{
    std::string line = std::string("latency ") + cls + ": n="
                       + std::to_string(ms.size()) + " clients="
                       + std::to_string(kClients);
    for (const auto &[p, label] : ps) {
        const auto v = percentile(ms, p);
        line += std::string(" ") + label + "=";
        line += v ? fmt(*v) + " ms" : std::string("not reported");
    }
    out.lines.push_back(line);
}

Outcome
runUntraced(const Options &opts)
{
    Outcome out;
    std::vector<double> plan_s, setup_s, compute_s, hit_s, ok_rate;
    std::vector<double> cold_ms, cached_ms, admit_ms;
    // Per repetition, in list order: each compute round's time (its
    // slower request), each cold request's and each cached request's
    // latency.
    std::vector<std::vector<double>> rep_round_ms, rep_cold_ms, rep_hit_ms;
    std::vector<std::uint64_t> first;
    std::vector<double> speedups, kernel_speedups;
    double peak_rss = 0.0;

    for (int i = 0; i < kExtraSetups; ++i)
        setup_s.push_back(Session(opts.seed).setupS);
    const int reps = repeatFor(
        opts.seconds, /*min_reps=*/3, /*hard_cap=*/120.0,
        [&](int index) {
            RequestSet set;
            const Rep rep = runRep(opts.seed, index, set, out);
            const double timed = rep.computeS + rep.hitS;
            setup_s.push_back(rep.setupS);
            plan_s.push_back(timed);
            compute_s.push_back(rep.computeS);
            hit_s.push_back(rep.hitS);
            const auto digests = checkRep(set, rep, out);
            std::size_t ok = 0;
            auto &round_ms = rep_round_ms.emplace_back();
            for (const Round &round : set.rounds) {
                double slowest = 0.0;
                for (const std::size_t i : round) {
                    if (i != kIdle)
                        slowest = std::max(slowest, rep.compute[i].ms);
                }
                round_ms.push_back(slowest);
            }
            auto &cold_in_order = rep_cold_ms.emplace_back();
            for (std::size_t i = 0; i < set.compute.size(); ++i) {
                const bool is_cold = set.compute[i].cls == Cls::Cold;
                if (is_cold)
                    cold_in_order.push_back(rep.compute[i].ms);
                if (!rep.compute[i].ok)
                    continue;
                ++ok;
                (is_cold ? cold_ms : admit_ms).push_back(rep.compute[i].ms);
            }
            auto &hit_in_order = rep_hit_ms.emplace_back();
            for (const auto &resp : rep.hits) {
                hit_in_order.push_back(resp.ms);
                if (resp.ok) {
                    ++ok;
                    cached_ms.push_back(resp.ms);
                }
            }
            ok_rate.push_back(static_cast<double>(ok) / timed);
            if (index == 0) {
                peak_rss = peakRssMb();
                out.fingerprint = set.fingerprint;
                first = digests;
                for (std::size_t i = 0; i < set.compute.size(); ++i)
                    (set.compute[i].cls == Cls::Cold ? speedups
                                                     : kernel_speedups)
                        .push_back(simSpeedup(rep.compute[i].run));
            } else if (digests != first) {
                out.fail("repetition " + std::to_string(index)
                         + " returned different run reports");
            }
        },
        [&] {
            return !percentile(cold_ms, 0.9) || !percentile(admit_ms, 0.9)
                   || !percentile(cached_ms, 0.99);
        });

    out.digest = combinedDigest(first);
    out.lines.push_back("plan_s per repetition: " + joined(plan_s));
    out.lines.push_back("compute phase s: " + joined(compute_s)
                        + "; hit phase s: " + joined(hit_s));
    out.lines.push_back("repetitions: " + std::to_string(reps)
                        + " (fresh server each; shards=2 x 1 job)");
    latencyLine(out, "cold", cold_ms, {{0.5, "p50"}, {0.9, "p90"}});
    latencyLine(out, "cached", cached_ms, {{0.5, "p50"}, {0.99, "p99"}});
    latencyLine(out, "inline", admit_ms, {{0.5, "p50"}, {0.9, "p90"}});
    const auto sum = [](const std::vector<double> &v) {
        return std::accumulate(v.begin(), v.end(), 0.0);
    };
    const double client_ms = sum(cold_ms) + sum(admit_ms) + sum(cached_ms);
    out.lines.push_back(
        "share of client time: cold " + fmt(100 * sum(cold_ms) / client_ms)
        + "% inline " + fmt(100 * sum(admit_ms) / client_ms)
        + "% cached " + fmt(100 * sum(cached_ms) / client_ms) + "%");

    // Each operation's best over the repetitions. A compute round
    // lasts as long as its slower request; the hit phase's two clients
    // each wait for one request at a time, so it lasts the sum of its
    // latencies over the client count.
    const double compute_best =
        total(bestPerOperation(rep_round_ms)) / 1e3;
    const double hit_best =
        total(bestPerOperation(rep_hit_ms)) / 1e3 / kClients;
    const std::vector<double> cold_best = bestPerOperation(rep_cold_ms);
    out.lines.push_back(
        "plan_s, its phases and cold_ms_p50 from each operation's best of "
        + std::to_string(reps) + " repetitions; plan_s median over "
          "repetitions: "
        + fmt(median(plan_s)));
    out.add("plan_s", compute_best + hit_best, "s");
    out.add("setup_s", median(setup_s), "s");
    out.add("compute_phase_s", compute_best, "s");
    out.add("hit_phase_s", hit_best, "s");
    out.add("ok_per_s", median(ok_rate), "1/s");
    out.add("sim_speedup_gmean", geomean(speedups), "x");
    out.add("sim_speedup_gmean_kernels", geomean(kernel_speedups), "x");
    out.addPercentile("cold_ms_p50", cold_best, 0.5, kClients);
    out.addPercentile("cold_ms_p90", cold_ms, 0.9, kClients);
    out.addPercentile("cached_ms_p50", cached_ms, 0.5, kClients);
    out.addPercentile("cached_ms_p99", cached_ms, 0.99, kClients);
    out.addPercentile("admit_ms_p50", admit_ms, 0.5, kClients);
    out.addPercentile("admit_ms_p90", admit_ms, 0.9, kClients);
    out.add("peak_rss_mb", peak_rss, "MB");
    return out;
}

/** Stage-wise replay of admitInline's audit for one source, into
 *  @p probes. Returns the lint result's diagnostics count, or -1 when
 *  a stage failed. */
long
replayAdmission(Tracer &probes, const std::string &source,
                const std::string &display, std::uint64_t max_insts,
                std::uint64_t group)
{
    {
        Tracer::Scope span(probes, "text.parse", group);
        if (!text::parseModule(source).ok())
            return -1;
    }
    std::vector<std::string> errors;
    std::optional<workloads::Workload> w;
    {
        Tracer::Scope span(probes, "admission.build", group);
        w = workloads::buildWorkloadFromText(source, display, errors);
    }
    if (!w)
        return -1;
    std::optional<profile::ProfileData> prof;
    {
        Tracer::Scope span(probes, "admission.profile", group);
        prof = workloads::profileWorkload(*w, workloads::InputSet::Train,
                                          max_insts);
    }
    if (!prof->completed)
        return -1;
    std::optional<analysis::AliasAnalysis> alias;
    {
        Tracer::Scope span(probes, "admission.alias", group);
        alias.emplace(*w->module);
        alias->annotateDeterminableLoads(*w->module);
    }
    core::RegionTable regions;
    {
        Tracer::Scope span(probes, "admission.form", group);
        core::RegionFormer former(*w->module, *prof, *alias, {});
        regions = former.formAll();
    }
    Tracer::Scope span(probes, "lint", group);
    const lint::LintResult res = lint::lintModule(*w->module, regions);
    return res.ok() ? static_cast<long>(res.diagnostics.size()) : -1;
}

Outcome
runTraced(const Options &opts)
{
    Outcome out;
    RequestSet set;
    const Rep rep = runRep(opts.seed, 0, set, out);
    out.fingerprint = set.fingerprint;
    const auto digests = checkRep(set, rep, out);
    out.digest = combinedDigest(digests);

    // Server-side counters from the metrics verb.
    const obs::Json &sm = rep.serverMetrics;
    const auto counter = [&](const std::string &k) {
        return static_cast<double>(sm.at(k).asUint());
    };
    std::vector<double> outside;
    for (const auto *list : {&rep.compute, &rep.hits}) {
        for (const auto &resp : *list) {
            if (resp.ok)
                outside.push_back(resp.ms - resp.serverMs);
        }
    }
    out.add("server.outside_ms_p50", percentile(outside, 0.5).value_or(0),
            "ms");
    const double requested = counter("server.runs.requested");
    out.add("server.result_cache_hit_ratio",
            requested > 0 ? counter("server.runs.cached") / requested : 0.0,
            "ratio");
    out.add("server.batch_occupancy_mean",
            sm.at("server.batch.occupancy").at("mean").asDouble(), "count");
    out.add("server.rejects", static_cast<double>(sumRejects(sm)),
            "count");
    workloads::ExperimentCache::Stats cache;
    for (int shard = 0; shard < serverOptions().shards; ++shard) {
        const std::string p =
            "server.shard." + std::to_string(shard) + ".cache.";
        cache.moduleHits += sm.at(p + "module.hits").asUint();
        cache.moduleMisses += sm.at(p + "module.misses").asUint();
        cache.profileHits += sm.at(p + "profile.hits").asUint();
        cache.profileMisses += sm.at(p + "profile.misses").asUint();
        cache.baseRunHits += sm.at(p + "baseRun.hits").asUint();
        cache.baseRunMisses += sm.at(p + "baseRun.misses").asUint();
    }
    addCacheMetrics(cache, out);

    // Replay set: every distinct simulated run of the repetition, the
    // compute phase's requests, in list order.
    workloads::RunPlan plan;
    for (const auto &r : set.compute)
        plan.add(r.workload, r.config);

    // Untraced reference through an offline runPlan; the server must
    // have returned the same metrics for every run.
    const PlanRun ref = runPlanOnce(plan);
    for (std::size_t i = 0; i < ref.results.size(); ++i) {
        out.attempted += 1;
        if (rep.compute[i].run.at("metrics")
            != ref.results[i].report.metrics)
            out.fail("server run of " + plan.points()[i].workload
                     + " differs from runCcrExperiment");
    }

    Tracer replay;
    Replayer replayer(replay);
    std::size_t report_bytes = 0;
    double replay_wall_s = 0.0;
    const std::size_t mismatches =
        replayPlan(replayer, replay, plan, ref.results, out, report_bytes,
                   replay_wall_s);

    // Probes: hook-free emulation, then admission of every inline
    // source, whole (admitInline on a fresh controller) and stage by
    // stage.
    Tracer probes;
    std::uint64_t group = plan.size() + 1;
    const std::uint64_t emu_insts = replayer.probeEmulator(probes, group++);
    const server::AdmissionLimits limits = serverOptions().limits;
    server::AdmissionController admission(limits);
    std::size_t text_bytes = 0;
    long diagnostics = 0;
    for (const auto &r : set.compute) {
        if (r.cls != Cls::Inline)
            continue;
        const std::uint64_t g = group++;
        bool admitted = false;
        {
            Tracer::Scope span(probes, "server.admission", g);
            admitted = admission.admitInline(r.source, r.workload).admitted;
        }
        const long d = replayAdmission(probes, r.source, r.workload,
                                       limits.lintMaxInsts, g);
        text_bytes += r.source.size();
        out.attempted += 1;
        if (!admitted || d < 0)
            out.fail("admission replay of " + r.workload + " rejected it");
        else
            diagnostics += d;
    }

    out.add("lint.diagnostics", static_cast<double>(diagnostics), "count");
    out.add("lint.s", probes.selfSecondsByName()["lint"], "s");
    out.add("server.admission_s",
            probes.selfSecondsByName()["server.admission"], "s");

    std::vector<obs::Json> reports;
    for (const auto &r : ref.results)
        reports.push_back(r.report.toJson());
    const TracedRun traced{.replay = replay,
                           .probes = probes,
                           .counts = replayer.counts(),
                           .reports = std::move(reports),
                           .points = plan.size(),
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
runServerMix(const Options &opts)
{
    return opts.trace ? runTraced(opts) : runUntraced(opts);
}

} // namespace perfbench
