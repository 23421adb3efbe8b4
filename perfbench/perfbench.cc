/**
 * @file
 * Host-time benchmark of the PowerChief simulator.
 *
 * Drives one workload from outside, through the public entry points a
 * user calls (SweepRunner, ExperimentRunner::run, Scenario::*), checks
 * every run against pinned result fingerprints, and prints one JSON
 * result as its last line. perfbench/run.py builds this binary, runs
 * it and reduces its output to the benchmark contract; README.md says
 * what each workload and metric is for.
 *
 *   perfbench --workload arena|mega|fleet_observed --seed N
 *             --seconds S --trace 0|1 --pins FILE --work-dir DIR
 *             [--setup-only] [--pin]
 *
 * Untraced (--trace 0): set-up, then a timed pass of whole workload
 * passes until S seconds have elapsed; reports the end-to-end metrics.
 *
 * Traced (--trace 1): set-up, then untraced passes alternating with
 * the same runs traced, i.e. with spans, probes and allocation counting
 * on (the tracing overhead is the ratio of the two), then per-layer
 * measurements: timed calls into single layers' public functions and
 * result-neutral A/B runs whose fingerprints must agree before their
 * ratio is reported. Spans are kept in memory and written to
 * DIR/../spans-*.json at exit.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.h"
#include "cluster/arbiter.h"
#include "common/flags.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/command_center.h"
#include "exp/result_cache.h"
#include "exp/runner.h"
#include "exp/sweep.h"
#include "faults/fault_plan.h"
#include "obs/telemetry.h"
#include "rpc/bus.h"
#include "sim/sharded_engine.h"
#include "workloads/profiler.h"

using namespace pc;
using perfbench::AllocTotals;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

/** Taken during static initialization: the benchmark's start. */
const Clock::time_point kStart = Clock::now();

double
secSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Inputs come in this many seed classes per workload: --seed N runs
 * class N mod kSeedClasses, whose result fingerprints are pinned.
 */
constexpr std::uint64_t kSeedClasses = 8;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, @p q in [0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::max(0.0, std::ceil(q * static_cast<double>(v.size())) - 1));
    return v[std::min(rank, v.size() - 1)];
}

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** The pinned identity of a run: its full serialized result. */
std::uint64_t
fingerprint(const RunResult &r)
{
    return fnv1a64(runResultToJson(r).dump());
}

/**
 * The simulated outcome without the observer summaries (attribution,
 * audit, critpath, SLO), which only exist when telemetry is on: equal
 * with telemetry on and off when telemetry is the pure observer it
 * claims to be.
 */
std::uint64_t
simFingerprint(RunResult r)
{
    r.tailAttribution = TailAttributionReport{};
    r.audit = RunAuditSummary{};
    r.critpath = RunCritPathSummary{};
    r.slo = SloReport{};
    return fingerprint(r);
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

struct Span
{
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    int parent = -1;
    int runId = -1;
};

/**
 * In-memory span recorder (traced runs only). Spans are recorded by the
 * benchmark around its calls into the simulator's layers; the run-
 * function span of the arena is recorded on the sweep's worker thread,
 * hence the lock.
 */
class Tracer
{
  public:
    void enable() { on_ = true; }

    int
    begin(const char *name, int parent, int runId)
    {
        if (!on_)
            return -1;
        const double t = secSince(kStart) * 1e6;
        const std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(Span{name, t, t, parent, runId});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    end(int id)
    {
        if (id < 0)
            return;
        const double t = secSince(kStart) * 1e6;
        const std::lock_guard<std::mutex> lock(mu_);
        spans_[static_cast<std::size_t>(id)].endUs = t;
    }

    int nextRunId() { return nextRun_++; }

    /** Total and self time (ms) per span name. */
    std::map<std::string, std::pair<double, double>>
    summary() const
    {
        const std::lock_guard<std::mutex> lock(mu_);
        std::vector<double> childUs(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                childUs[static_cast<std::size_t>(s.parent)] +=
                    s.endUs - s.startUs;
        std::map<std::string, std::pair<double, double>> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const double dur = spans_[i].endUs - spans_[i].startUs;
            auto &[total, self] = out[spans_[i].name];
            total += dur / 1e3;
            self += (dur - childUs[i]) / 1e3;
        }
        return out;
    }

    void
    write(const std::string &path) const
    {
        const std::lock_guard<std::mutex> lock(mu_);
        JsonArray arr;
        arr.reserve(spans_.size());
        for (const Span &s : spans_) {
            JsonObject o;
            o["name"] = JsonValue(s.name);
            o["start_us"] = JsonValue(s.startUs);
            o["end_us"] = JsonValue(s.endUs);
            o["parent"] = JsonValue(static_cast<double>(s.parent));
            o["run_id"] = JsonValue(static_cast<double>(s.runId));
            arr.push_back(JsonValue(std::move(o)));
        }
        std::ofstream out(path, std::ios::binary);
        out << JsonValue(std::move(arr)).dump() << "\n";
    }

  private:
    bool on_ = false;
    int nextRun_ = 0;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

Tracer gTracer;

class SpanScope
{
  public:
    SpanScope(const char *name, int parent = -1, int runId = -1)
        : id_(gTracer.begin(name, parent, runId))
    {
    }
    ~SpanScope() { gTracer.end(id_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int id() const { return id_; }

  private:
    int id_;
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

enum class Kind { Arena, Mega, FleetObserved };

struct Workload
{
    Kind kind = Kind::Arena;
    /** One timed run per scenario per pass, in this order. */
    std::vector<Scenario> scenarios;
    /** Shard worker threads of sharded runs. */
    int workers = 1;
    /** RunResult traces (the arena records them, as bench/arena does). */
    bool recordTraces = false;
};

int
hostThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

/** bench/arena's fault planes: an armed no-op and a lossy fabric. */
struct ArenaFaults
{
    const char *name;
    FaultPlan plan;
    bool wireReports = false;
    SimTime staleWindow = SimTime::zero();
};

std::vector<ArenaFaults>
arenaFaults()
{
    ArenaFaults clean{"clean", FaultPlan{}};
    clean.plan.active = true;
    clean.plan.seed = 17;

    ArenaFaults lossy{"lossy", FaultPlan{}};
    lossy.plan.active = true;
    lossy.plan.seed = 18;
    BusFaultRule bus;
    bus.dropRate = 0.03;
    bus.reorderRate = 0.1;
    bus.reorderJitterMax = SimTime::msec(5);
    lossy.plan.bus.push_back(bus);
    lossy.plan.telemetry.staleRate = 0.1;
    lossy.plan.telemetry.truncateRate = 0.05;
    lossy.plan.telemetry.perfCtlFailRate = 0.2;
    lossy.wireReports = true;
    lossy.staleWindow = SimTime::sec(60);
    return {clean, lossy};
}

/**
 * bench/arena's default grid: {sirius, nlp, websearch} x {medium,
 * high} load x {13.56, 18} W x {clean, lossy} x every PolicyKind.
 */
std::vector<Scenario>
arenaScenarios(std::uint64_t seed)
{
    const SimTime duration = SimTime::sec(150);
    std::vector<Scenario> out;
    for (const WorkloadModel &model :
         {WorkloadModel::sirius(), WorkloadModel::nlp(),
          WorkloadModel::webSearch()}) {
        double serviceSum = 0.0;
        int slowest = 0;
        for (int s = 0; s < model.numStages(); ++s) {
            serviceSum += model.stage(s).meanServiceSec;
            if (model.stage(s).meanServiceSec >
                model.stage(slowest).meanServiceSec)
                slowest = s;
        }
        for (const LoadLevel load : {LoadLevel::Medium, LoadLevel::High})
            for (const double watts : {13.56, 18.0})
                for (const ArenaFaults &faults : arenaFaults())
                    for (const PolicyKind policy : allPolicyKinds()) {
                        Scenario sc = Scenario::mitigation(model, load,
                                                           policy, seed);
                        char budget[32];
                        std::snprintf(budget, sizeof(budget), "%g",
                                      watts);
                        sc.name = std::string("arena/") + model.name() +
                            "/" + toString(load) + "/" + budget + "w/" +
                            faults.name + "/" + toString(policy);
                        sc.duration = duration;
                        sc.warmup = SimTime::sec(duration.toSec() / 5.0);
                        sc.powerBudget = Watts(watts);
                        sc.qosTargetSec = 3.0 * serviceSum;
                        sc.fixedStage = slowest;
                        sc.faults = faults.plan;
                        sc.wireReports = faults.wireReports;
                        sc.control.staleWindow = faults.staleWindow;
                        out.push_back(std::move(sc));
                    }
    }
    return out;
}

/** bench/fleet's lossy point for the demand-proportional arbiter. */
Scenario
fleetScenario(std::uint64_t seed)
{
    Scenario sc = Scenario::fleet(ClusterPolicyKind::ProportionalDemand,
                                  4, 0.75, 20.0, seed);
    FaultPlan lossy;
    lossy.active = true;
    lossy.seed = 18;
    BusFaultRule bus;
    bus.endpoint = "*";
    bus.dropRate = 0.05;
    bus.duplicateRate = 0.02;
    bus.reorderRate = 0.1;
    bus.reorderJitterMax = SimTime::msec(5);
    lossy.bus.push_back(bus);
    sc.faults = lossy;
    sc.load = sc.load.scaled(5.5);
    sc.remoteFraction = 0.02;
    sc.name += "/lossy";
    return sc;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seedClass)
{
    Workload wl;
    if (name == "arena") {
        wl.kind = Kind::Arena;
        wl.recordTraces = true;
        wl.scenarios = arenaScenarios(42 + seedClass);
    } else if (name == "mega") {
        wl.kind = Kind::Mega;
        wl.workers = hostThreads();
        wl.scenarios = {
            Scenario::millionQuery(8, 2e5, 20.0, 20260809 + seedClass)};
    } else if (name == "fleet_observed") {
        wl.kind = Kind::FleetObserved;
        wl.workers = hostThreads();
        wl.scenarios = {fleetScenario(20260809 + seedClass)};
    } else {
        fatal("perfbench: unknown workload '%s' (valid: arena, mega, "
              "fleet_observed)",
              name.c_str());
    }
    return wl;
}

// ---------------------------------------------------------------------
// Running
// ---------------------------------------------------------------------

/** The telemetry variants of the A/B runs (and of fleet_observed). */
enum class Obs { Off, Collect, Files };

SloConfig
sloOn()
{
    SloConfig slo;
    slo.enabled = true;
    return slo;
}

/**
 * fleet_observed's telemetry: SLO, alerts, attribution, audit and
 * critpath, either collected in memory or also written as the
 * timeseries/audit/critpath/metrics artifacts into @p dir. The per-
 * query Chrome trace (traceOut) stays off.
 */
TelemetryConfig
observedTelemetry(Obs obs, const std::string &dir)
{
    TelemetryConfig t;
    t.alertsEnabled = true;
    if (obs == Obs::Files) {
        t.metricsOut = dir + "/metrics.json";
        t.auditOut = dir + "/audit.json";
        t.critpathOut = dir + "/critpath.json";
        t.timeseriesOut = dir + "/timeseries.json";
    } else {
        t.auditCollect = true;
        t.critpathCollect = true;
    }
    return t;
}

/** Observer hooks a traced pass attaches. */
struct Probes
{
    std::atomic<std::uint64_t> intervals{0};
    std::atomic<std::uint64_t> rebalances{0};
    /** Simulator::dispatchedEvents() at the run's last interval. */
    std::atomic<std::uint64_t> lastEvents{0};
};

/**
 * One configured call into the simulator: ExperimentRunner::run with
 * the workload's runner settings, telemetry variant and worker count.
 */
RunResult
runDirect(const Workload &wl, const Scenario &sc, Obs obs, int workers,
          const std::string &dir, Probes *probes)
{
    const bool observed = obs != Obs::Off;
    ExperimentRunner runner(wl.recordTraces, SimTime::sec(5), observed,
                            observed, observed ? sloOn() : SloConfig{},
                            observed);
    runner.setShards(workers);
    if (probes && sc.nodeGroups == 1) {
        runner.setIntervalProbe([probes](const ControlContext &ctx) {
            probes->intervals.fetch_add(1, std::memory_order_relaxed);
            probes->lastEvents.store(ctx.sim->dispatchedEvents(),
                                     std::memory_order_relaxed);
        });
    }
    if (probes && sc.clusterPolicy != ClusterPolicyKind::None) {
        runner.setClusterProbe([probes](const ClusterDecision &) {
            probes->rebalances.fetch_add(1, std::memory_order_relaxed);
        });
    }
    if (!observed)
        return runner.run(sc);
    const TelemetryConfig tel = observedTelemetry(obs, dir);
    return runner.run(sc, &tel);
}

/**
 * The workload's own run path. The arena goes through a serial
 * SweepRunner with the result cache on in a fresh directory per pass,
 * so every point is simulated and stored; mega runs plain at the host's
 * thread count; fleet_observed runs with its telemetry writing files.
 */
class WorkloadRunner
{
  public:
    WorkloadRunner(const Workload &wl, std::string workDir)
        : wl_(wl), workDir_(std::move(workDir))
    {
    }

    // The arena's sweep run function captures this.
    WorkloadRunner(const WorkloadRunner &) = delete;
    WorkloadRunner &operator=(const WorkloadRunner &) = delete;

    void
    beginPass(Probes *probes)
    {
        probes_ = probes;
        if (wl_.kind != Kind::Arena)
            return;
        cacheDir_ = workDir_ + "/arena-cache-" + std::to_string(pass_++);
        fs::remove_all(cacheDir_);
        SweepOptions options;
        options.jobs = 1;
        options.useCache = true;
        options.cacheDir = cacheDir_;
        options.recordTraces = wl_.recordTraces;
        sweep_ = std::make_unique<SweepRunner>(options);
        if (probes) {
            // What SweepRunner::execute does, plus the interval probe
            // and a span separating simulation from the sweep's own
            // cache-key/store/pool work.
            sweep_->setRunFunction([this](const Scenario &sc) {
                SpanScope span("exp.execute", parentSpan_, runId_);
                return runDirect(wl_, sc, Obs::Off, 1, workDir_, probes_);
            });
        }
    }

    void
    endPass()
    {
        sweep_.reset();
        if (!cacheDir_.empty())
            fs::remove_all(cacheDir_);
    }

    RunResult
    run(const Scenario &sc, int parentSpan, int runId)
    {
        parentSpan_ = parentSpan;
        runId_ = runId;
        switch (wl_.kind) {
        case Kind::Arena:
            return sweep_->runOne(sc);
        case Kind::Mega:
            return runDirect(wl_, sc, Obs::Off, wl_.workers, workDir_,
                             probes_);
        case Kind::FleetObserved:
            return runDirect(wl_, sc, Obs::Files, wl_.workers, workDir_,
                             probes_);
        }
        return {};
    }

  private:
    const Workload &wl_;
    std::string workDir_;
    std::string cacheDir_;
    std::unique_ptr<SweepRunner> sweep_;
    Probes *probes_ = nullptr;
    int pass_ = 0;
    int parentSpan_ = -1;
    int runId_ = -1;
};

/** Pinned full-result fingerprints of one workload's seed class. */
using Pins = std::vector<std::string>;

std::optional<JsonValue>
readJson(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::stringstream text;
    text << in.rdbuf();
    return parseJson(text.str()).value;
}

std::optional<Pins>
loadPins(const std::string &path, const std::string &workload,
         std::uint64_t seedClass)
{
    const std::optional<JsonValue> doc = readJson(path);
    const JsonValue *wl = doc ? doc->find(workload) : nullptr;
    const JsonValue *cls =
        wl ? wl->find(std::to_string(seedClass)) : nullptr;
    if (!cls || !cls->isArray())
        return std::nullopt;
    Pins pins;
    for (const JsonValue &v : cls->asArray())
        pins.push_back(v.asString());
    return pins;
}

struct Check
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> notes;

    void
    record(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (notes.size() < 8)
                notes.push_back(what);
        }
    }
};

/** A run is correct when it completed queries and matches its pin. */
bool
runCorrect(const RunResult &r, const Pins &pins, std::size_t index)
{
    return r.completed > 0 && r.completed <= r.submitted &&
        index < pins.size() && hex64(fingerprint(r)) == pins[index];
}

struct PassStats
{
    std::vector<double> runMs;
    std::uint64_t completed = 0;
    double hostSec = 0.0;
    /** Completed queries per host second of each pass. */
    std::vector<double> passRates;
    int passes = 0;
    /** Traced passes: summed over runs. */
    std::uint64_t events = 0;
    std::uint64_t intervals = 0;
    std::uint64_t rebalances = 0;
    AllocTotals allocs;
    /** Last result of each scenario (kept by traced passes). */
    std::vector<RunResult> results;

    void
    add(PassStats other)
    {
        runMs.insert(runMs.end(), other.runMs.begin(), other.runMs.end());
        completed += other.completed;
        hostSec += other.hostSec;
        passRates.insert(passRates.end(), other.passRates.begin(),
                         other.passRates.end());
        passes += other.passes;
        events += other.events;
        intervals += other.intervals;
        rebalances += other.rebalances;
        allocs.count += other.allocs.count;
        allocs.bytes += other.allocs.bytes;
        if (!other.results.empty())
            results = std::move(other.results);
    }
};

/**
 * Whole passes over the workload's scenarios until @p seconds have
 * elapsed, or exactly @p passes passes when positive. Every run is
 * checked against its pin.
 */
PassStats
timedPass(const Workload &wl, WorkloadRunner &runner, const Pins &pins,
          double seconds, int passes, bool traced, Check *check)
{
    PassStats st;
    Probes probes;
    const AllocTotals allocBefore = perfbench::allocTotals();
    if (traced)
        perfbench::setAllocCounting(true);
    const auto t0 = Clock::now();
    while (passes > 0 ? st.passes < passes
                      : (st.passes == 0 || secSince(t0) < seconds)) {
        runner.beginPass(traced ? &probes : nullptr);
        std::uint64_t passQueries = 0;
        double passSec = 0.0;
        for (std::size_t i = 0; i < wl.scenarios.size(); ++i) {
            const int runId = gTracer.nextRunId();
            std::optional<RunResult> r;
            probes.lastEvents.store(0, std::memory_order_relaxed);
            {
                SpanScope span(wl.kind == Kind::Arena ? "exp.sweep_run_one"
                                                      : "exp.run",
                               -1, runId);
                const auto r0 = Clock::now();
                try {
                    r = runner.run(wl.scenarios[i], span.id(), runId);
                } catch (const std::exception &e) {
                    check->record(false, std::string("threw: ") + e.what());
                    continue;
                }
                const double sec = secSince(r0);
                st.runMs.push_back(sec * 1e3);
                passSec += sec;
            }
            // The checks below are the benchmark's own work: keep their
            // allocations out of the per-query counts.
            perfbench::setAllocCounting(false);
            passQueries += r->completed;
            st.events += probes.lastEvents.load(std::memory_order_relaxed);
            check->record(runCorrect(*r, pins, i),
                          "fingerprint mismatch: " + wl.scenarios[i].name);
            if (traced) {
                if (st.results.size() <= i)
                    st.results.resize(i + 1);
                st.results[i] = std::move(*r);
            }
            perfbench::setAllocCounting(traced);
        }
        st.completed += passQueries;
        st.hostSec += passSec;
        if (passSec > 0.0)
            st.passRates.push_back(static_cast<double>(passQueries) /
                                   passSec);
        runner.endPass();
        ++st.passes;
    }
    if (traced) {
        perfbench::setAllocCounting(false);
        const AllocTotals after = perfbench::allocTotals();
        st.allocs = {after.count - allocBefore.count,
                     after.bytes - allocBefore.bytes};
        st.intervals = probes.intervals.load();
        st.rebalances = probes.rebalances.load();
    }
    return st;
}

// ---------------------------------------------------------------------
// Layer measurements (traced runs)
// ---------------------------------------------------------------------

struct Metric
{
    double value = 0.0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/**
 * ShardedEngine::run on the workload's K empty shards at its lookahead,
 * deadline and worker count: the bare window-synchronization cost.
 */
void
measureEngine(const Workload &wl, Metrics *m)
{
    const Scenario &sc = wl.scenarios.front();
    const std::int64_t la = sc.interNodeLatency.toUsec();
    const std::int64_t windows = (sc.duration.toUsec() + la - 1) / la;
    std::vector<double> usPerWindow;
    for (int rep = 0; rep < 5; ++rep) {
        ShardedEngine engine(sc.nodeGroups, sc.interNodeLatency);
        SpanScope span("sim.engine_run");
        const auto t0 = Clock::now();
        engine.run(sc.duration, wl.workers);
        usPerWindow.push_back(secSince(t0) * 1e6 /
                              static_cast<double>(windows));
    }
    (*m)["sim.windows"] = {static_cast<double>(windows), "count"};
    (*m)["sim.window_sync_us"] = {median(usPerWindow), "us"};
}

/**
 * BottleneckIdentifier::rank and BoostingDecisionEngine::selectBoosting
 * on a publicly constructed control stack with each distinct stage
 * layout of the workload, fed with the workload's sampled demands.
 */
void
measureControl(const Workload &wl, Metrics *m)
{
    std::vector<double> rankUs;
    std::vector<double> selectUs;
    std::set<std::string> seen;
    const PowerModel model = PowerModel::haswell();
    const int refMhz = model.ladder().freqAt(0).value();
    for (const Scenario &sc : wl.scenarios) {
        if (!seen.insert(sc.workload.name()).second)
            continue;
        const int level = sc.initialLevel >= 0 ? sc.initialLevel
                                               : model.ladder().midLevel();
        const int mhz = model.ladder().freqAt(level).value();
        const OfflineProfiler profiler;
        const SpeedupBook speedups =
            profiler.profileWorkload(sc.workload, model, sc.seed ^ 0x5eedll);
        for (int rep = 0; rep < 20; ++rep) {
            Simulator sim;
            CmpChip chip(&sim, &model, sc.numCores);
            MessageBus bus(&sim);
            MultiStageApp app(&sim, &chip, &bus, sc.workload.name(),
                              sc.workload.layout(sc.initialCounts, level));
            PowerBudget budget(sc.powerBudget, &model);
            CommandCenter center(&sim, &bus, &chip, &app, &budget,
                                 &speedups, sc.control, makePolicyFor(sc));
            Rng rng(sc.seed + static_cast<std::uint64_t>(rep));
            std::vector<std::vector<ServiceInstance *>> byStage(
                static_cast<std::size_t>(app.numStages()));
            for (ServiceInstance *inst : app.allInstances())
                byStage[static_cast<std::size_t>(inst->stageIndex())]
                    .push_back(inst);
            const SimTime now = sc.control.statsWindow;
            for (int q = 0; q < 500; ++q) {
                Query query(q, SimTime::zero(),
                            sc.workload.sampleDemands(rng, refMhz));
                SimTime t = SimTime::zero();
                for (int s = 0; s < app.numStages(); ++s) {
                    const auto &insts =
                        byStage[static_cast<std::size_t>(s)];
                    const WorkDemand &demand = query.demand(s);
                    if (demand.skip || insts.empty())
                        continue;
                    HopRecord hop;
                    hop.instanceId =
                        insts[static_cast<std::size_t>(q) % insts.size()]
                            ->id();
                    hop.stageIndex = s;
                    hop.enqueued = t;
                    hop.started =
                        t + SimTime::sec(demand.serviceSec(mhz, refMhz) *
                                         rng.uniform(0.0, 2.0));
                    hop.finished = hop.started +
                        SimTime::sec(demand.serviceSec(mhz, refMhz));
                    query.addHop(hop);
                    t = hop.finished;
                }
                center.identifier().observe(now, query);
            }
            SortedSnapshots ranked;
            {
                SpanScope span("core.rank");
                const auto t0 = Clock::now();
                ranked = center.identifier().rank(now, app);
                rankUs.push_back(secSince(t0) * 1e6);
            }
            {
                SpanScope span("core.select");
                const auto t0 = Clock::now();
                center.engine().selectBoosting(ranked);
                selectUs.push_back(secSince(t0) * 1e6);
            }
        }
    }
    (*m)["core.rank_us"] = {median(rankUs), "us"};
    (*m)["core.select_us"] = {median(selectUs), "us"};
}

/** The cache identity and the cache write of the workload's results. */
void
measureCache(const Workload &wl, const std::vector<RunResult> &results,
             const std::string &workDir, Metrics *m)
{
    std::vector<double> keyUs;
    std::vector<double> storeUs;
    const ResultCache cache(workDir + "/store-probe");
    for (int rep = 0; rep < 3; ++rep) {
        for (std::size_t i = 0; i < wl.scenarios.size(); ++i) {
            std::string key;
            {
                SpanScope span("exp.cache_key");
                const auto t0 = Clock::now();
                const auto canonical = scenarioCanonical(wl.scenarios[i]);
                key = hex64(fnv1a64(canonical.value_or("")));
                keyUs.push_back(secSince(t0) * 1e6);
            }
            if (i < results.size()) {
                SpanScope span("exp.cache_store");
                const auto t0 = Clock::now();
                cache.store(key + "-" + std::to_string(rep), results[i]);
                storeUs.push_back(secSince(t0) * 1e6);
            }
        }
    }
    fs::remove_all(workDir + "/store-probe");
    (*m)["exp.cache_key_us"] = {median(keyUs), "us"};
    (*m)["exp.cache_store_us"] = {median(storeUs), "us"};
}

/**
 * The workload's scenario as one node group: the runner refuses the
 * interval probe on sharded runs, so events per query of mega and
 * fleet_observed are read on this single-group equivalent.
 */
Scenario
singleGroup(const Scenario &sharded)
{
    Scenario sc = sharded;
    if (sc.clusterPolicy != ClusterPolicyKind::None)
        sc.powerBudget = Watts(sc.clusterBudget.value() /
                               static_cast<double>(sc.nodeGroups));
    sc.nodeGroups = 1;
    sc.remoteFraction = 0.0;
    sc.groupLoadScale.clear();
    sc.clusterPolicy = ClusterPolicyKind::None;
    sc.clusterBudget = Watts(0.0);
    sc.name += "/single-group";
    return sc;
}

/**
 * Sum of a named counter over a metrics artifact: one registry dump, or
 * a sharded envelope holding one dump per node.
 */
double
counterSum(const JsonValue &doc, const std::string &name)
{
    double sum = 0.0;
    if (const JsonValue *counters = doc.find("counters"))
        sum += counters->numberOr(name, 0.0);
    if (const JsonValue *shards = doc.find("shards"); shards &&
        shards->isArray())
        for (const JsonValue &shard : shards->asArray())
            sum += counterSum(shard, name);
    return sum;
}

std::uint64_t
dirBytes(const std::string &dir)
{
    std::uint64_t bytes = 0;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.is_regular_file())
            bytes += entry.file_size();
    return bytes;
}

/**
 * Variants A and B, run @p reps times each in alternating order. Their
 * time ratio may be reported only when every run's fingerprint (per
 * @p fp) is equal.
 */
struct AbResult
{
    bool equal = true;
    std::vector<double> aMs;
    std::vector<double> bMs;
};

AbResult
abRuns(const char *aName, const std::function<RunResult()> &a,
       const char *bName, const std::function<RunResult()> &b, int reps,
       const std::function<std::uint64_t(const RunResult &)> &fp)
{
    AbResult ab;
    std::optional<std::uint64_t> want;
    for (int rep = 0; rep < reps; ++rep) {
        for (int side = 0; side < 2; ++side) {
            // Alternate which side runs first.
            const bool runA = (side == 0) == (rep % 2 == 0);
            const int runId = gTracer.nextRunId();
            SpanScope span(runA ? aName : bName, -1, runId);
            const auto t0 = Clock::now();
            const RunResult r = runA ? a() : b();
            (runA ? ab.aMs : ab.bMs).push_back(secSince(t0) * 1e3);
            const std::uint64_t f = fp(r);
            if (!want)
                want = f;
            ab.equal = ab.equal && f == *want;
        }
    }
    return ab;
}

/**
 * Scenarios of the A/B runs: all of them, or 12 arena points spread
 * over cells, fault planes and policies (stride 17 through the grid).
 */
std::vector<std::size_t>
abSample(const Workload &wl)
{
    const std::size_t n = wl.scenarios.size();
    std::vector<std::size_t> idx;
    for (std::size_t k = 0; k < std::min<std::size_t>(n, 12); ++k)
        idx.push_back(n <= 12 ? k : k * 17 % n);
    return idx;
}

void
jsonMetrics(const Metrics &metrics, JsonObject *out)
{
    for (const auto &[name, metric] : metrics) {
        JsonObject o;
        o["value"] = JsonValue(metric.value);
        o["unit"] = JsonValue(metric.unit);
        (*out)[name] = JsonValue(std::move(o));
    }
}

void
printMetrics(const Metrics &metrics)
{
    for (const auto &[name, metric] : metrics)
        std::printf("  %-24s %14.4f %s\n", name.c_str(), metric.value,
                    metric.unit.c_str());
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/**
 * Result-neutral A/B runs on a sample of the workload's scenarios:
 * telemetry on vs off, artifacts written vs collect-only, and 1 vs the
 * workload's worker count. Also reads the failed/retried-operation
 * counters (and sharded runs' control intervals) from the metrics
 * artifact the written side leaves behind.
 */
void
measureAb(const Workload &wl, const std::string &workDir, Metrics *metrics,
          Check *check)
{
    const std::string abDir = workDir + "/ab";
    fs::create_directories(abDir);
    const int reps = wl.kind == Kind::Arena ? 1 : 3;
    std::vector<double> taxOff, taxOn, artCollect, artFiles, one, many;
    double artifactBytes = 0.0;
    double retries = 0.0, dropped = 0.0, busDropped = 0.0;
    double intervals = 0.0;
    bool telEqual = true, artEqual = true, workersEqual = true;
    for (const std::size_t i : abSample(wl)) {
        const Scenario &sc = wl.scenarios[i];
        const int workers = wl.workers;
        auto run = [&](Obs obs, int w) {
            return [&, obs, w]() {
                return runDirect(wl, sc, obs, w, abDir, nullptr);
            };
        };
        AbResult tax = abRuns("ab.telemetry_off", run(Obs::Off, workers),
                              "ab.telemetry_files",
                              run(Obs::Files, workers), reps,
                              simFingerprint);
        telEqual = telEqual && tax.equal;
        taxOff.push_back(median(tax.aMs));
        taxOn.push_back(median(tax.bMs));

        AbResult art = abRuns("ab.artifacts_files",
                              run(Obs::Files, workers),
                              "ab.artifacts_collect",
                              run(Obs::Collect, workers), reps,
                              fingerprint);
        artEqual = artEqual && art.equal;
        artFiles.push_back(median(art.aMs));
        artCollect.push_back(median(art.bMs));
        artifactBytes += static_cast<double>(dirBytes(abDir));
        if (const auto doc = readJson(abDir + "/metrics.json")) {
            retries += counterSum(*doc, "rpc.client.retries_total");
            dropped += counterSum(*doc, "cluster.reports_dropped_total");
            busDropped += counterSum(*doc, "faults.bus.dropped_total");
            intervals += counterSum(*doc, "control.intervals_total");
        }

        AbResult par = abRuns("ab.workers_1", run(Obs::Off, 1),
                              "ab.workers_n", run(Obs::Off, workers),
                              reps, fingerprint);
        workersEqual = workersEqual && par.equal;
        one.push_back(median(par.aMs));
        many.push_back(median(par.bMs));
    }
    const double samples = static_cast<double>(abSample(wl).size());
    auto sum = [](const std::vector<double> &v) {
        return std::accumulate(v.begin(), v.end(), 0.0);
    };
    check->record(telEqual, "telemetry on/off fingerprints differ");
    check->record(artEqual, "artifact files/collect fingerprints differ");
    check->record(workersEqual, "1 vs " + std::to_string(wl.workers) +
                                    " worker fingerprints differ");
    if (telEqual)
        (*metrics)["obs.tax"] = {sum(taxOn) / sum(taxOff), "ratio"};
    if (artEqual)
        (*metrics)["obs.artifact_ms"] = {
            (sum(artFiles) - sum(artCollect)) / samples, "ms"};
    if (workersEqual)
        (*metrics)["sim.shard_speedup"] = {sum(one) / sum(many), "ratio"};
    (*metrics)["obs.artifact_bytes"] = {artifactBytes / samples, "B"};
    (*metrics)["rpc.retries"] = {retries / samples, "count"};
    (*metrics)["cluster.reports_dropped"] = {dropped / samples, "count"};
    (*metrics)["faults.bus_dropped"] = {busDropped / samples, "count"};
    if (wl.scenarios.front().nodeGroups > 1)
        (*metrics)["core.intervals"] = {intervals / samples, "count"};
}

/**
 * Set-up: scenario generation, the first profileWorkload call of each
 * workload model, and one untimed (but checked) warm-up run.
 */
struct Setup
{
    double profileMs = 0.0;
    double seconds = 0.0;
};

Setup
setUp(const Workload &wl, WorkloadRunner &runner, const Pins &pins,
      Check *check)
{
    Setup s;
    {
        SpanScope span("workloads.profile");
        const PowerModel model = PowerModel::haswell();
        const OfflineProfiler profiler;
        std::set<std::pair<std::string, std::uint64_t>> done;
        for (const Scenario &sc : wl.scenarios) {
            if (!done.insert({sc.workload.name(), sc.seed}).second)
                continue;
            const auto t0 = Clock::now();
            profiler.profileWorkload(sc.workload, model, sc.seed ^ 0x5eedll);
            s.profileMs += secSince(t0) * 1e3;
        }
    }
    {
        SpanScope span("warmup");
        runner.beginPass(nullptr);
        try {
            const RunResult r = runner.run(wl.scenarios.front(), -1, -1);
            check->record(runCorrect(r, pins, 0),
                          "warm-up fingerprint mismatch");
        } catch (const std::exception &e) {
            check->record(false, std::string("warm-up threw: ") + e.what());
        }
        runner.endPass();
    }
    s.seconds = secSince(kStart);
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    FlagSet flags("perfbench");
    flags.addString("workload", "", "arena, mega or fleet_observed");
    flags.addInt("seed", 1, "workload seed");
    flags.addDouble("seconds", 10.0, "length of the timed pass");
    flags.addInt("trace", 0, "1 = traced run (per-layer metrics)");
    flags.addString("pins", "", "pinned result fingerprints (JSON)");
    flags.addString("work-dir", "", "scratch directory for this run");
    flags.addBool("setup-only", false, "stop after set-up");
    flags.addBool("pin", false,
                  "print the fingerprints of every seed class");
    if (!flags.parse(argc, argv)) {
        if (!flags.helpRequested())
            std::cerr << flags.error() << "\n";
        flags.printUsage(flags.helpRequested() ? std::cout : std::cerr);
        return flags.helpRequested() ? 0 : 2;
    }
    const std::string workload = flags.getString("workload");
    const std::string workDir = flags.getString("work-dir");
    if (workDir.empty())
        fatal("perfbench: --work-dir is required");
    fs::create_directories(workDir);

    if (flags.getBool("pin")) {
        JsonObject classes;
        for (std::uint64_t c = 0; c < kSeedClasses; ++c) {
            const Workload wl = makeWorkload(workload, c);
            WorkloadRunner runner(wl, workDir);
            runner.beginPass(nullptr);
            JsonArray fps;
            for (const Scenario &sc : wl.scenarios)
                fps.push_back(
                    JsonValue(hex64(fingerprint(runner.run(sc, -1, -1)))));
            runner.endPass();
            classes[std::to_string(c)] = JsonValue(std::move(fps));
        }
        std::cout << JsonValue(std::move(classes)).dump() << "\n";
        return 0;
    }

    const auto seed = static_cast<std::uint64_t>(flags.getInt("seed"));
    const std::uint64_t seedClass = seed % kSeedClasses;
    const bool traced = flags.getInt("trace") != 0;
    const double seconds = flags.getDouble("seconds");
    if (traced)
        gTracer.enable();

    const Workload wl = makeWorkload(workload, seedClass);
    const std::optional<Pins> pinned =
        loadPins(flags.getString("pins"), workload, seedClass);
    const Pins pins = pinned.value_or(Pins{});
    Check check;
    if (!pinned)
        check.record(false, "no pinned fingerprints for this seed class");

    WorkloadRunner runner(wl, workDir);
    const Setup setup = setUp(wl, runner, pins, &check);

    JsonObject info;
    info["workload"] = JsonValue(workload);
    info["seed"] = JsonValue(static_cast<double>(seed));
    info["seed_class"] = JsonValue(static_cast<double>(seedClass));
    info["nproc"] = JsonValue(static_cast<double>(hostThreads()));
    info["workers"] = JsonValue(static_cast<double>(wl.workers));
    info["build_type"] = JsonValue(PERFBENCH_BUILD_TYPE);
    info["runs_per_pass"] =
        JsonValue(static_cast<double>(wl.scenarios.size()));
    info["setup_s"] = JsonValue(setup.seconds);

    if (flags.getBool("setup-only")) {
        JsonObject root;
        root["info"] = JsonValue(std::move(info));
        root["correct"] = JsonValue(check.failed == 0);
        root["attempted"] = JsonValue(static_cast<double>(check.attempted));
        root["failed"] = JsonValue(static_cast<double>(check.failed));
        std::cout << JsonValue(std::move(root)).dump() << "\n";
        fs::remove_all(workDir);
        return 0;
    }

    Metrics metrics;
    if (!traced) {
        const PassStats st =
            timedPass(wl, runner, pins, seconds, 0, false, &check);
        metrics["setup_s"] = {setup.seconds, "s"};
        metrics["queries_per_s"] = {median(st.passRates), "1/s"};
        metrics["run_ms.p50"] = {median(st.runMs), "ms"};
        metrics["peak_rss_mb"] = {peakRssMb(), "MB"};
        info["runs"] = JsonValue(static_cast<double>(st.runMs.size()));
        info["passes"] = JsonValue(static_cast<double>(st.passes));
        info["completed_queries"] =
            JsonValue(static_cast<double>(st.completed));
        info["timed_s"] = JsonValue(st.hostSec);
        if (st.runMs.size() >= 100)
            info["run_ms.p90"] = JsonValue(percentile(st.runMs, 0.9));
    } else {
        // Untraced and traced passes alternate, so host-speed drift
        // falls on both: their ratio is the tracing overhead the per-
        // layer numbers carry.
        PassStats plain;
        PassStats st;
        const auto t0 = Clock::now();
        do {
            plain.add(timedPass(wl, runner, pins, 0.0, 1, false, &check));
            st.add(timedPass(wl, runner, pins, 0.0, 1, true, &check));
        } while (secSince(t0) < seconds);
        const double queries = static_cast<double>(st.completed);
        metrics["trace.overhead"] = {median(st.runMs) / median(plain.runMs),
                                     "ratio"};
        metrics["workloads.profile_ms"] = {setup.profileMs, "ms"};
        metrics["app.allocs_per_query"] = {
            static_cast<double>(st.allocs.count) / queries, "count"};
        metrics["app.bytes_per_query"] = {
            static_cast<double>(st.allocs.bytes) / queries, "B"};

        // Events per query through the interval probe: on the
        // workload's own runs when single-node, else on the single-group
        // equivalent. Control intervals per run: the probe count, or on
        // sharded runs the A/B runs' metrics artifact (below).
        const bool sharded = wl.scenarios.front().nodeGroups > 1;
        double eventsPerQuery = static_cast<double>(st.events) / queries;
        if (sharded) {
            const Scenario one = singleGroup(wl.scenarios.front());
            Probes probes;
            SpanScope span("sim.single_group_run", -1,
                           gTracer.nextRunId());
            const RunResult r =
                runDirect(wl, one, Obs::Off, 1, workDir, &probes);
            eventsPerQuery = static_cast<double>(probes.lastEvents.load()) /
                static_cast<double>(std::max<std::uint64_t>(r.completed, 1));
        } else {
            metrics["core.intervals"] = {
                static_cast<double>(st.intervals) /
                    static_cast<double>(st.runMs.size()),
                "count"};
        }
        metrics["sim.events_per_query"] = {eventsPerQuery, "count"};
        metrics["sim.ns_per_event"] = {
            plain.hostSec * 1e9 /
                (eventsPerQuery * static_cast<double>(plain.completed)),
            "ns"};
        metrics["cluster.rebalances"] = {
            static_cast<double>(st.rebalances) /
                static_cast<double>(st.runMs.size()),
            "count"};

        measureEngine(wl, &metrics);
        measureControl(wl, &metrics);
        measureCache(wl, st.results, workDir, &metrics);

        measureAb(wl, workDir, &metrics, &check);

        info["runs"] = JsonValue(static_cast<double>(st.runMs.size()));
        info["ab_samples"] =
            JsonValue(static_cast<double>(abSample(wl).size()));

        std::printf("span totals (ms, self ms):\n");
        for (const auto &[name, t] : gTracer.summary())
            std::printf("  %-24s %12.2f %12.2f\n", name.c_str(), t.first,
                        t.second);
        const std::string spansPath = workDir + "/../spans-" + workload +
            "-seed" + std::to_string(seed) + ".json";
        gTracer.write(spansPath);
        info["spans_file"] = JsonValue(
            fs::weakly_canonical(spansPath).string());
    }

    std::printf("%s seed %llu (class %llu), %d threads, %s build:\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(seedClass), hostThreads(),
                PERFBENCH_BUILD_TYPE);
    printMetrics(metrics);
    for (const std::string &note : check.notes)
        std::printf("  FAILED: %s\n", note.c_str());

    fs::remove_all(workDir);
    JsonObject root;
    root["correct"] = JsonValue(check.failed == 0);
    root["attempted"] = JsonValue(static_cast<double>(check.attempted));
    root["failed"] = JsonValue(static_cast<double>(check.failed));
    JsonObject m;
    jsonMetrics(metrics, &m);
    root["metrics"] = JsonValue(std::move(m));
    root["info"] = JsonValue(std::move(info));
    std::cout << JsonValue(std::move(root)).dump() << "\n";
    return 0;
}
