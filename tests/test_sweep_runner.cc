/**
 * @file
 * Sweep-engine tests: bit-determinism across thread counts,
 * submission-order collection under adversarial run durations, result
 * cache hit/miss/invalidation, and the determinism audit catching an
 * injected nondeterministic run function.
 */

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "exp/result_cache.h"
#include "exp/sweep.h"
#include "exp/thread_pool.h"

namespace pc {
namespace {

/** A real but tiny simulation: finishes in milliseconds. */
Scenario
quickScenario(int seed)
{
    Scenario sc =
        Scenario::mitigation(WorkloadModel::nlp(), LoadLevel::Medium,
                             PolicyKind::PowerChief, seed);
    sc.duration = SimTime::sec(60);
    sc.name = "quick/" + std::to_string(seed);
    return sc;
}

std::string
dumped(const RunResult &r)
{
    return runResultToJson(r).dump();
}

std::string
freshDir(const char *name)
{
    const std::string dir = testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

// ------------------------------------------------------- thread pool

TEST(ThreadPool, RunsEveryTaskAndIsReusableAfterWait)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] { ++count; });
        pool.wait();
        EXPECT_EQ(count.load(), (round + 1) * 50);
    }
}

TEST(ThreadPool, DestructorDrainsPendingTasks)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 20; ++i)
            pool.submit([&count] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
                ++count;
            });
    }
    EXPECT_EQ(count.load(), 20);
}

// ------------------------------------------------------- determinism

TEST(SweepRunner, ResultsIdenticalAcrossThreadCounts)
{
    std::vector<Scenario> scenarios;
    for (int seed = 1; seed <= 6; ++seed)
        scenarios.push_back(quickScenario(seed));

    std::vector<std::vector<std::string>> perJobs;
    for (int jobs : {1, 2, 8}) {
        SweepOptions opt;
        opt.jobs = jobs;
        SweepRunner sweep(opt);
        std::vector<std::string> dumps;
        for (const RunResult &r : sweep.runAll(scenarios))
            dumps.push_back(dumped(r));
        perJobs.push_back(std::move(dumps));
    }
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        SCOPED_TRACE("scenario " + scenarios[i].name);
        EXPECT_EQ(perJobs[0][i], perJobs[1][i]) << "jobs=1 vs jobs=2";
        EXPECT_EQ(perJobs[0][i], perJobs[2][i]) << "jobs=1 vs jobs=8";
    }
}

TEST(SweepRunner, CollectsInSubmissionOrderUnderAdversarialDurations)
{
    // Earlier submissions take longest, so with 4 workers the
    // completion order is roughly the reverse of submission order.
    constexpr int kRuns = 12;
    SweepOptions opt;
    opt.jobs = 4;
    SweepRunner sweep(opt);
    sweep.setRunFunction([](const Scenario &sc) {
        const auto idx = static_cast<int>(sc.seed);
        std::this_thread::sleep_for(
            std::chrono::milliseconds((kRuns - idx) * 3));
        RunResult r;
        r.scenario = sc.name;
        r.completed = static_cast<std::uint64_t>(idx);
        return r;
    });

    std::vector<Scenario> scenarios;
    for (int i = 0; i < kRuns; ++i) {
        Scenario sc;
        sc.name = "stub/" + std::to_string(i);
        sc.seed = static_cast<std::uint64_t>(i);
        scenarios.push_back(sc);
    }
    const std::vector<RunResult> results = sweep.runAll(scenarios);
    ASSERT_EQ(results.size(), scenarios.size());
    for (int i = 0; i < kRuns; ++i) {
        EXPECT_EQ(results[static_cast<std::size_t>(i)].completed,
                  static_cast<std::uint64_t>(i));
        EXPECT_EQ(results[static_cast<std::size_t>(i)].scenario,
                  scenarios[static_cast<std::size_t>(i)].name);
    }
}

// ------------------------------------------------------------- cache

TEST(SweepRunner, CacheHitsMissesAndInvalidation)
{
    SweepOptions opt;
    opt.jobs = 2;
    opt.useCache = true;
    opt.cacheDir = freshDir("sweep_cache_test");
    SweepRunner sweep(opt);

    const std::vector<Scenario> scenarios = {quickScenario(1),
                                             quickScenario(2)};
    const std::vector<RunResult> first = sweep.runAll(scenarios);
    EXPECT_EQ(sweep.report().cacheMisses, 2u);
    EXPECT_EQ(sweep.report().cacheHits, 0u);

    // Unchanged sweep points are served from disk, byte-identical.
    const std::vector<RunResult> second = sweep.runAll(scenarios);
    EXPECT_EQ(sweep.report().cacheHits, 2u);
    EXPECT_EQ(sweep.report().cacheMisses, 0u);
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(dumped(first[i]), dumped(second[i]));

    // Any fingerprint-relevant change (same name!) invalidates.
    Scenario changed = quickScenario(1);
    changed.duration = SimTime::sec(61);
    sweep.runAll({changed});
    EXPECT_EQ(sweep.report().cacheHits, 0u);
    EXPECT_EQ(sweep.report().cacheMisses, 1u);

    // Factory-override scenarios never touch the cache.
    Scenario opaque = quickScenario(1);
    opaque.metricFactory = [] {
        return std::make_unique<PowerChiefMetric>();
    };
    sweep.runAll({opaque});
    EXPECT_EQ(sweep.report().uncacheable, 1u);
    EXPECT_EQ(sweep.report().cacheHits, 0u);
    sweep.runAll({opaque});
    EXPECT_EQ(sweep.report().uncacheable, 1u);
    EXPECT_EQ(sweep.report().cacheHits, 0u);
}

TEST(ResultCache, RoundTripsResultsExactly)
{
    SweepOptions opt;
    opt.jobs = 1;
    opt.recordTraces = true;
    SweepRunner sweep(opt);
    const RunResult run = sweep.runOne(quickScenario(3));

    ResultCache cache(freshDir("result_cache_roundtrip"));
    const std::string key = *scenarioCanonical(quickScenario(3));
    EXPECT_FALSE(cache.load(key).has_value());
    cache.store(key, run);
    const std::optional<RunResult> loaded = cache.load(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(dumped(run), dumped(*loaded));
    // A different key maps to a different file and misses.
    EXPECT_FALSE(cache.load(key + "x").has_value());
}

/**
 * Stale-hit regression: a cache hit used to zero the cluster-arbiter
 * rebalance counter because the audit serializer predated the field.
 * Every AuditSummary counter must survive the round trip.
 */
TEST(ResultCache, RoundTripPreservesClusterAuditCounter)
{
    SweepOptions opt;
    opt.jobs = 1;
    SweepRunner sweep(opt);
    RunResult run = sweep.runOne(quickScenario(4));
    run.audit.collected = true;
    run.audit.clusterRebalances = 240;

    ResultCache cache(freshDir("result_cache_cluster_audit"));
    const std::string key = *scenarioCanonical(quickScenario(4));
    cache.store(key, run);
    const std::optional<RunResult> loaded = cache.load(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_TRUE(loaded->audit.collected);
    EXPECT_EQ(loaded->audit.clusterRebalances, 240u);
    EXPECT_EQ(dumped(run), dumped(*loaded));
}

/** A series named @p name with @p n distinct points. */
TimeSeries
seriesOf(const std::string &name, int n, double base)
{
    TimeSeries s(name);
    for (int i = 0; i < n; ++i)
        s.append(SimTime::usec(1000 * (i + 1) + n), base + 0.25 * i);
    return s;
}

/** Every field of every block set to a distinct non-default value. */
RunResult
everyFieldResult()
{
    RunResult r;
    r.scenario = "every/field";
    r.submitted = 101;
    r.completed = 97;
    r.avgLatencySec = 0.125;
    r.p99LatencySec = 0.875;
    r.maxLatencySec = 1.5;
    r.avgPowerWatts = 12.75;
    r.energyJoules = 3456.5;
    r.stageBreakdown = {{0.01, 0.02, 3}, {0.03, 0.04, 5}};
    r.latencySeries = seriesOf("latency", 3, 0.5);
    r.powerSeries = seriesOf("power", 2, 11.0);
    r.stageInstanceCounts = {seriesOf("instances", 2, 1.0),
                             seriesOf("instances", 4, 2.0)};
    r.instanceFrequencyGHz.emplace("s0/i0", seriesOf("s0/i0", 2, 1.8));
    r.instanceFrequencyGHz.emplace("s1/i0", seriesOf("s1/i0", 1, 2.4));

    TailAttributionReport &ta = r.tailAttribution;
    ta.enabled = true;
    ta.queries = 77;
    TailCut c95;
    c95.q = 0.95;
    c95.tailCount = 4;
    c95.thresholdSec = 0.6;
    c95.meanTailSec = 0.7;
    c95.truncated = false;
    c95.stages = {{0.11, 0.12}, {0.13, 0.14}};
    TailCut c99 = c95;
    c99.q = 0.99;
    c99.tailCount = 1;
    c99.thresholdSec = 0.8;
    c99.meanTailSec = 0.9;
    c99.truncated = true;
    c99.stages = {{0.21, 0.22}, {0.23, 0.24}};
    ta.cuts = {c95, c99};
    ta.spanQuantiles = {{0.31, 0.32, 0.33, 0.34}, {0.41, 0.42, 0.43, 0.44}};

    RunAuditSummary &a = r.audit;
    a.collected = true;
    a.mapePct = 5.5;
    a.mapeFreqPct = 6.5;
    a.mapeInstPct = 7.5;
    a.scored = 21;
    a.flips = 22;
    a.selects = 23;
    a.recycles = 24;
    a.withdraws = 25;
    a.staleSkips = 26;
    a.plans = 27;
    a.misboosts = 28;
    a.clusterRebalances = 29;

    RunCritPathSummary &cp = r.critpath;
    cp.collected = true;
    cp.queries = 31;
    cp.scoredIntervals = 32;
    cp.agreeIntervals = 33;
    cp.boostIntervals = 34;
    cp.misboosts = 35;
    cp.agreementRate = 0.625;
    cp.meanShorteningPct = 12.5;
    cp.stageShare = {0.25, 0.375, 0.375};

    SloReport &slo = r.slo;
    slo.collected = true;
    slo.targetSec = 0.75;
    slo.objective = 0.95;
    slo.total = 41;
    slo.violations = 42;
    slo.violationSeconds = 4.25;
    slo.fastBurn = 0.5;
    slo.slowBurn = 0.625;
    slo.maxFastBurn = 2.5;
    slo.maxSlowBurn = 1.25;
    return r;
}

void
expectSameSeries(const TimeSeries &a, const TimeSeries &b)
{
    EXPECT_EQ(a.name(), b.name());
    ASSERT_EQ(a.size(), b.size()) << a.name();
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.points()[i].t, b.points()[i].t) << a.name();
        EXPECT_EQ(a.points()[i].value, b.points()[i].value) << a.name();
    }
}

/**
 * Every field of every result block survives runResultToJson →
 * runResultFromJson by value (a field missing from either direction
 * of the codec fails here), and the encoded bytes are pinned.
 */
TEST(ResultCodec, EveryFieldRoundTripsByValue)
{
    const RunResult x = everyFieldResult();
    const std::optional<RunResult> back =
        runResultFromJson(runResultToJson(x));
    ASSERT_TRUE(back.has_value());
    const RunResult &y = *back;

    EXPECT_EQ(y.scenario, x.scenario);
    EXPECT_EQ(y.submitted, x.submitted);
    EXPECT_EQ(y.completed, x.completed);
    EXPECT_EQ(y.avgLatencySec, x.avgLatencySec);
    EXPECT_EQ(y.p99LatencySec, x.p99LatencySec);
    EXPECT_EQ(y.maxLatencySec, x.maxLatencySec);
    EXPECT_EQ(y.avgPowerWatts, x.avgPowerWatts);
    EXPECT_EQ(y.energyJoules, x.energyJoules);
    ASSERT_EQ(y.stageBreakdown.size(), x.stageBreakdown.size());
    for (std::size_t i = 0; i < x.stageBreakdown.size(); ++i) {
        EXPECT_EQ(y.stageBreakdown[i].avgQueuingSec,
                  x.stageBreakdown[i].avgQueuingSec);
        EXPECT_EQ(y.stageBreakdown[i].avgServingSec,
                  x.stageBreakdown[i].avgServingSec);
        EXPECT_EQ(y.stageBreakdown[i].hops, x.stageBreakdown[i].hops);
    }
    expectSameSeries(y.latencySeries, x.latencySeries);
    expectSameSeries(y.powerSeries, x.powerSeries);
    ASSERT_EQ(y.stageInstanceCounts.size(), x.stageInstanceCounts.size());
    for (std::size_t i = 0; i < x.stageInstanceCounts.size(); ++i)
        expectSameSeries(y.stageInstanceCounts[i],
                         x.stageInstanceCounts[i]);
    ASSERT_EQ(y.instanceFrequencyGHz.size(),
              x.instanceFrequencyGHz.size());
    for (const auto &[name, series] : x.instanceFrequencyGHz) {
        ASSERT_EQ(y.instanceFrequencyGHz.count(name), 1u) << name;
        expectSameSeries(y.instanceFrequencyGHz.at(name), series);
    }

    const TailAttributionReport &ta = y.tailAttribution;
    EXPECT_TRUE(ta.enabled);
    EXPECT_EQ(ta.queries, x.tailAttribution.queries);
    ASSERT_EQ(ta.cuts.size(), x.tailAttribution.cuts.size());
    for (std::size_t i = 0; i < ta.cuts.size(); ++i) {
        const TailCut &a = ta.cuts[i];
        const TailCut &b = x.tailAttribution.cuts[i];
        EXPECT_EQ(a.q, b.q);
        EXPECT_EQ(a.tailCount, b.tailCount);
        EXPECT_EQ(a.thresholdSec, b.thresholdSec);
        EXPECT_EQ(a.meanTailSec, b.meanTailSec);
        EXPECT_EQ(a.truncated, b.truncated);
        ASSERT_EQ(a.stages.size(), b.stages.size());
        for (std::size_t s = 0; s < a.stages.size(); ++s) {
            EXPECT_EQ(a.stages[s].queuingSec, b.stages[s].queuingSec);
            EXPECT_EQ(a.stages[s].servingSec, b.stages[s].servingSec);
        }
    }
    ASSERT_EQ(ta.spanQuantiles.size(),
              x.tailAttribution.spanQuantiles.size());
    for (std::size_t i = 0; i < ta.spanQuantiles.size(); ++i) {
        const StageSpanQuantiles &a = ta.spanQuantiles[i];
        const StageSpanQuantiles &b = x.tailAttribution.spanQuantiles[i];
        EXPECT_EQ(a.queueP95Sec, b.queueP95Sec);
        EXPECT_EQ(a.queueP99Sec, b.queueP99Sec);
        EXPECT_EQ(a.serveP95Sec, b.serveP95Sec);
        EXPECT_EQ(a.serveP99Sec, b.serveP99Sec);
    }

    EXPECT_TRUE(y.audit.collected);
    EXPECT_EQ(y.audit.mapePct, x.audit.mapePct);
    EXPECT_EQ(y.audit.mapeFreqPct, x.audit.mapeFreqPct);
    EXPECT_EQ(y.audit.mapeInstPct, x.audit.mapeInstPct);
    EXPECT_EQ(y.audit.scored, x.audit.scored);
    EXPECT_EQ(y.audit.flips, x.audit.flips);
    EXPECT_EQ(y.audit.selects, x.audit.selects);
    EXPECT_EQ(y.audit.recycles, x.audit.recycles);
    EXPECT_EQ(y.audit.withdraws, x.audit.withdraws);
    EXPECT_EQ(y.audit.staleSkips, x.audit.staleSkips);
    EXPECT_EQ(y.audit.plans, x.audit.plans);
    EXPECT_EQ(y.audit.misboosts, x.audit.misboosts);
    EXPECT_EQ(y.audit.clusterRebalances, x.audit.clusterRebalances);

    EXPECT_TRUE(y.critpath.collected);
    EXPECT_EQ(y.critpath.queries, x.critpath.queries);
    EXPECT_EQ(y.critpath.scoredIntervals, x.critpath.scoredIntervals);
    EXPECT_EQ(y.critpath.agreeIntervals, x.critpath.agreeIntervals);
    EXPECT_EQ(y.critpath.boostIntervals, x.critpath.boostIntervals);
    EXPECT_EQ(y.critpath.misboosts, x.critpath.misboosts);
    EXPECT_EQ(y.critpath.agreementRate, x.critpath.agreementRate);
    EXPECT_EQ(y.critpath.meanShorteningPct,
              x.critpath.meanShorteningPct);
    EXPECT_EQ(y.critpath.stageShare, x.critpath.stageShare);

    EXPECT_TRUE(y.slo.collected);
    EXPECT_EQ(y.slo.targetSec, x.slo.targetSec);
    EXPECT_EQ(y.slo.objective, x.slo.objective);
    EXPECT_EQ(y.slo.total, x.slo.total);
    EXPECT_EQ(y.slo.violations, x.slo.violations);
    EXPECT_EQ(y.slo.violationSeconds, x.slo.violationSeconds);
    EXPECT_EQ(y.slo.fastBurn, x.slo.fastBurn);
    EXPECT_EQ(y.slo.slowBurn, x.slo.slowBurn);
    EXPECT_EQ(y.slo.maxFastBurn, x.slo.maxFastBurn);
    EXPECT_EQ(y.slo.maxSlowBurn, x.slo.maxSlowBurn);

    EXPECT_EQ(dumped(y), dumped(x));
    EXPECT_EQ(fnv1a64(dumped(x)), 0x4547854d2efed1afull);
}

/** @p doc with the member @p key of the object at @p path removed. */
JsonValue
withoutKey(const JsonValue &doc, const std::vector<std::string> &path,
           std::size_t depth, const std::string &key)
{
    if (doc.isArray()) {
        // Path steps through arrays always pick the first element.
        JsonArray arr = doc.asArray();
        arr.front() = withoutKey(arr.front(), path, depth, key);
        return JsonValue(std::move(arr));
    }
    JsonObject obj = doc.asObject();
    if (depth == path.size())
        obj.erase(key);
    else
        obj[path[depth]] =
            withoutKey(obj.at(path[depth]), path, depth + 1, key);
    return JsonValue(std::move(obj));
}

/** Write @p result under @p key exactly as ResultCache::store lays it out. */
void
writeEntry(const ResultCache &cache, const std::string &key,
           const JsonValue &result)
{
    JsonObject entry;
    entry.emplace("key", key);
    entry.emplace("result", result);
    std::ofstream(cache.pathFor(key)) << JsonValue(std::move(entry)).dump();
}

/** A real stored entry with every optional block collected. */
JsonValue
fullyCollectedEntry(const ResultCache &cache, const std::string &key)
{
    SweepOptions opt;
    opt.jobs = 1;
    opt.recordTraces = true;
    opt.attribution = true;
    opt.collectAudit = true;
    opt.collectCritPath = true;
    opt.slo.enabled = true;
    SweepRunner sweep(opt);
    const RunResult run = sweep.runOne(quickScenario(5));
    EXPECT_TRUE(run.tailAttribution.enabled && run.audit.collected &&
                run.critpath.collected && run.slo.collected);
    cache.store(key, run);
    EXPECT_TRUE(cache.load(key).has_value());
    return runResultToJson(run);
}

/**
 * Strict schema: a stored entry missing any field of any block is a
 * miss, so an entry written before a field was added re-simulates
 * instead of decoding the new field as zero.
 */
TEST(ResultCache, EntryMissingAnyFieldMisses)
{
    ResultCache cache(freshDir("result_cache_strict"));
    const std::string key = "strict-schema";
    const JsonValue full = fullyCollectedEntry(cache, key);

    // Each struct block, by its path from the result object (array
    // steps take the first element).
    const std::vector<std::vector<std::string>> blocks = {
        {},
        {"stage_breakdown"},
        {"latency_series"},
        {"power_series"},
        {"stage_instance_counts"},
        {"tail_attribution"},
        {"tail_attribution", "cuts"},
        {"tail_attribution", "cuts", "stages"},
        {"tail_attribution", "span_quantiles"},
        {"audit"},
        {"critpath"},
        {"slo"},
    };
    // Optional blocks: absent means "not collected", a valid entry.
    const std::set<std::string> optional = {"tail_attribution", "audit",
                                            "critpath", "slo"};
    int variants = 0;
    for (const auto &path : blocks) {
        const JsonValue *block = &full;
        for (const auto &step : path) {
            block = block->find(step);
            ASSERT_NE(block, nullptr) << step;
            if (block->isArray()) {
                ASSERT_FALSE(block->asArray().empty()) << step;
                block = &block->asArray().front();
            }
        }
        for (const auto &[name, value] : block->asObject()) {
            if (path.empty() && optional.count(name))
                continue;
            writeEntry(cache, key, withoutKey(full, path, 0, name));
            std::string where;
            for (const auto &step : path)
                where += step + ".";
            EXPECT_FALSE(cache.load(key).has_value())
                << "missing " << where << name << " must miss";
            ++variants;
        }
    }
    EXPECT_GE(variants, 60);

    // The instance-frequency map's keys are data, not schema: a run
    // with fewer instances is still a valid entry.
    writeEntry(cache, key,
               withoutKey(full, {"instance_frequency_ghz"}, 0,
                          full.find("instance_frequency_ghz")
                              ->asObject()
                              .begin()
                              ->first));
    EXPECT_TRUE(cache.load(key).has_value());
}

/**
 * Out-of-range and wrong-typed values in a cache entry (the cache dir
 * is outside input) load as misses instead of undefined casts.
 */
TEST(ResultCache, OutOfRangeOrWrongTypedValuesMiss)
{
    ResultCache cache(freshDir("result_cache_bad_values"));
    const std::string key = "bad-values";
    const JsonValue full = fullyCollectedEntry(cache, key);
    ASSERT_GE(
        full.find("power_series")->find("points")->asArray().size(), 2u);

    const auto set = [](const JsonValue &doc, const std::string &k,
                        JsonValue v) {
        JsonObject obj = doc.asObject();
        obj[k] = std::move(v);
        return JsonValue(std::move(obj));
    };
    const auto withStage0 = [&](const std::string &k, JsonValue v) {
        JsonArray stages = full.find("stage_breakdown")->asArray();
        stages.front() = set(stages.front(), k, std::move(v));
        return set(full, "stage_breakdown", JsonValue(std::move(stages)));
    };
    const auto withPoint0 = [&](double t) {
        const JsonValue &power = *full.find("power_series");
        JsonArray points = power.find("points")->asArray();
        points.front() = JsonValue(JsonArray{JsonValue(t), JsonValue(1.0)});
        return set(full, "power_series",
                   set(power, "points", JsonValue(std::move(points))));
    };

    const std::vector<std::pair<std::string, JsonValue>> bad = {
        {"negative count", set(full, "submitted", JsonValue(-1.0))},
        {"fractional count", set(full, "completed", JsonValue(2.5))},
        {"count >= 2^64",
         set(full, "submitted", JsonValue(18446744073709551616.0))},
        {"huge count", withStage0("hops", JsonValue(1e300))},
        {"string count", set(full, "submitted", JsonValue("12"))},
        {"string double", set(full, "avg_latency_s", JsonValue("0.1"))},
        {"number string", set(full, "scenario", JsonValue(3.0))},
        {"timestamp >= 2^63", withPoint0(9.3e18)},
        {"timestamp < -2^63", withPoint0(-1e300)},
        {"fractional timestamp", withPoint0(0.5)},
        {"out-of-order timestamps", withPoint0(1e15)},
        {"wrong-typed audit", set(full, "audit", JsonValue(3.0))},
        {"wrong-typed breakdown",
         set(full, "stage_breakdown", JsonValue(JsonObject{}))},
        {"wrong-typed slo", set(full, "slo", JsonValue(JsonArray{}))},
        {"wrong-typed share",
         set(full, "critpath",
             set(*full.find("critpath"), "stage_share",
                 JsonValue(JsonArray{JsonValue("x")})))},
    };
    for (const auto &[what, doc] : bad) {
        writeEntry(cache, key, doc);
        EXPECT_FALSE(cache.load(key).has_value()) << what;
    }
    // The untouched entry still hits after all that.
    writeEntry(cache, key, full);
    EXPECT_TRUE(cache.load(key).has_value());
}

/**
 * Cache-key bytes are identity: a drift here silently orphans every
 * stored result. Pins cover the plain, faulted and cluster forms.
 */
TEST(ResultCache, CanonicalBytesArePinned)
{
    Scenario faulted = Scenario::goldenFig11();
    faulted.faults.active = true;
    faulted.faults.seed = 7;
    BusFaultRule rule;
    rule.endpoint = "command-*";
    rule.dropRate = 0.05;
    rule.duplicateRate = 0.01;
    rule.reorderRate = 0.1;
    rule.reorderJitterMax = SimTime::msec(3);
    faulted.faults.bus.push_back(rule);
    CrashEvent crash;
    crash.stage = 1;
    crash.at = SimTime::sec(60);
    crash.recovery = SimTime::sec(10);
    faulted.faults.crashes.push_back(crash);
    faulted.faults.telemetry.truncateRate = 0.05;
    faulted.faults.telemetry.staleRate = 0.02;
    faulted.faults.telemetry.raplFailRate = 0.1;
    faulted.faults.telemetry.perfCtlFailRate = 0.125;

    const Scenario cluster =
        Scenario::fleet(ClusterPolicyKind::ProportionalDemand, 4);

    EXPECT_EQ(fnv1a64(*scenarioCanonical(Scenario::goldenFig11())),
              0x61de187569436193ull);
    EXPECT_EQ(fnv1a64(*scenarioCanonical(faulted)), 0x3376f0e8213c9e80ull);
    EXPECT_EQ(fnv1a64(*scenarioCanonical(cluster)), 0xb3f9f1bca0d35257ull);
}

/** The SLO key fragment keeps every digit of four widest-form values. */
TEST(ResultCache, SloCanonicalIsNeverTruncated)
{
    SloConfig slo;
    slo.targetSec = -1.2345678901234568e-300;
    slo.objective = 0.12345678901234568;
    slo.fastWindowSec = -2.2345678901234566e-300;
    slo.slowWindowSec = -3.2345678901234565e-300;
    EXPECT_EQ(slo.canonical(),
              "slo=1,target=-1.2345678901234568e-300,"
              "obj=0.12345678901234568,fw=-2.2345678901234566e-300,"
              "sw=-3.2345678901234565e-300");
}

TEST(ResultCache, CanonicalCoversSeedAndControlKnobs)
{
    const Scenario base = quickScenario(1);
    Scenario seed = base;
    seed.seed = base.seed + 1;
    Scenario knob = base;
    knob.control.adjustInterval = SimTime::sec(99);
    const std::string canonical = *scenarioCanonical(base);
    EXPECT_NE(canonical, *scenarioCanonical(seed));
    EXPECT_NE(canonical, *scenarioCanonical(knob));
    EXPECT_EQ(canonical, *scenarioCanonical(base));
}

/**
 * Stale-hit regression: every result-affecting runner knob must be
 * part of the cache key. For each knob, seed the cache with a base
 * run, flip only that knob, and demand a MISS — a hit would serve a
 * result computed under different settings.
 */
TEST(SweepRunner, FlippingAnyResultAffectingKnobMissesTheCache)
{
    const std::string dir = freshDir("sweep_cache_knobs");
    const Scenario sc = quickScenario(7);

    const auto runWith = [&sc, &dir](const SweepOptions &extra) {
        SweepOptions opt = extra;
        opt.jobs = 1;
        opt.useCache = true;
        opt.cacheDir = dir;
        SweepRunner sweep(opt);
        sweep.runAll({sc});
        return sweep.report();
    };

    EXPECT_EQ(runWith(SweepOptions{}).cacheMisses, 1u);
    EXPECT_EQ(runWith(SweepOptions{}).cacheHits, 1u); // warm baseline

    SweepOptions traces;
    traces.recordTraces = true;
    EXPECT_EQ(runWith(traces).cacheMisses, 1u)
        << "recordTraces must be in the cache key";

    SweepOptions sample;
    sample.recordTraces = true; // sampleInterval only matters w/ traces
    sample.sampleInterval = SimTime::sec(9);
    EXPECT_EQ(runWith(sample).cacheMisses, 1u)
        << "sampleInterval must be in the cache key";

    SweepOptions attr;
    attr.attribution = true;
    EXPECT_EQ(runWith(attr).cacheMisses, 1u)
        << "attribution must be in the cache key";

    SweepOptions audit;
    audit.collectAudit = true;
    EXPECT_EQ(runWith(audit).cacheMisses, 1u)
        << "collectAudit must be in the cache key";

    SweepOptions critpath;
    critpath.collectCritPath = true;
    EXPECT_EQ(runWith(critpath).cacheMisses, 1u)
        << "collectCritPath must be in the cache key";

    SweepOptions slo;
    slo.slo.enabled = true;
    EXPECT_EQ(runWith(slo).cacheMisses, 1u)
        << "SLO tracking must be in the cache key";

    SweepOptions sloTarget;
    sloTarget.slo.enabled = true;
    sloTarget.slo.targetSec = 0.25;
    EXPECT_EQ(runWith(sloTarget).cacheMisses, 1u)
        << "the SLO target must be in the cache key";

    SweepOptions sloWindow;
    sloWindow.slo.enabled = true;
    sloWindow.slo.fastWindowSec = 30.0;
    EXPECT_EQ(runWith(sloWindow).cacheMisses, 1u)
        << "the SLO burn windows must be in the cache key";

    // Execution-only knobs deliberately share the key: same results,
    // any worker count.
    SweepOptions shards;
    shards.shards = 4;
    EXPECT_EQ(runWith(shards).cacheHits, 1u)
        << "--shards is a pure execution knob and must share the key";
}

TEST(ResultCache, CanonicalCoversShardedTopologyKnobs)
{
    Scenario base = quickScenario(1);
    base.nodeGroups = 2;
    const std::string canonical = *scenarioCanonical(base);

    Scenario groups = base;
    groups.nodeGroups = 4;
    EXPECT_NE(*scenarioCanonical(groups), canonical);

    Scenario remote = base;
    remote.remoteFraction = 0.4;
    EXPECT_NE(*scenarioCanonical(remote), canonical);

    Scenario latency = base;
    latency.interNodeLatency = SimTime::msec(25);
    EXPECT_NE(*scenarioCanonical(latency), canonical);
}

// ------------------------------------------------------------- audit

TEST(SweepRunner, AuditPassesOnDeterministicRuns)
{
    SweepOptions opt;
    opt.jobs = 2;
    opt.audit = true;
    opt.auditFraction = 1.0;
    opt.auditFatal = false;
    SweepRunner sweep(opt);
    const std::vector<Scenario> scenarios = {quickScenario(1),
                                             quickScenario(2)};
    sweep.runAll(scenarios);
    EXPECT_EQ(sweep.report().audited, scenarios.size());
    EXPECT_TRUE(sweep.report().divergences.empty());
}

TEST(SweepRunner, AuditDetectsInjectedNondeterminism)
{
    SweepOptions opt;
    opt.jobs = 2;
    opt.audit = true;
    opt.auditFraction = 1.0;
    opt.auditFatal = false; // record instead of fatal() for the test
    SweepRunner sweep(opt);

    // Every invocation returns a different result: the serial audit
    // re-run can never match the parallel pass.
    auto counter = std::make_shared<std::atomic<int>>(0);
    sweep.setRunFunction([counter](const Scenario &sc) {
        RunResult r;
        r.scenario = sc.name;
        r.avgLatencySec = counter->fetch_add(1);
        return r;
    });

    std::vector<Scenario> scenarios(3);
    for (std::size_t i = 0; i < scenarios.size(); ++i)
        scenarios[i].name = "nondet/" + std::to_string(i);
    sweep.runAll(scenarios);
    EXPECT_EQ(sweep.report().audited, scenarios.size());
    ASSERT_FALSE(sweep.report().divergences.empty());
    const SweepDivergence &d = sweep.report().divergences.front();
    EXPECT_NE(d.parallelJson, d.serialJson);
    EXPECT_FALSE(d.scenario.empty());
}

} // namespace
} // namespace pc
