/**
 * @file
 * The cluster budget tree, tested at every layer: the pluggable split
 * policies (unit), the arbiter's conservation protocol under lost /
 * duplicated / reordered traffic (unit, direct reports), and the full
 * fleet path end to end — bit-identical results at any worker count,
 * the cap never exceeded at any rebalance decision point, and the
 * partition-minority freeze. Mirrors tests/test_policy_invariants.cc
 * one level up the tree.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/arbiter.h"
#include "cluster/cluster_policy.h"
#include "exp/config_loader.h"
#include "exp/result_cache.h"
#include "exp/sweep.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"

namespace pc {
namespace {

// --------------------------------------------------- policy plumbing

TEST(ClusterPolicyKind_, NamesRoundTripAndAliasesParse)
{
    for (const ClusterPolicyKind kind : allClusterPolicyKinds()) {
        ClusterPolicyKind parsed = ClusterPolicyKind::Count;
        EXPECT_TRUE(parseClusterPolicyKind(toString(kind), &parsed));
        EXPECT_EQ(parsed, kind);
    }
    ClusterPolicyKind parsed = ClusterPolicyKind::Count;
    EXPECT_TRUE(parseClusterPolicyKind("proportional-demand", &parsed));
    EXPECT_EQ(parsed, ClusterPolicyKind::ProportionalDemand);
    EXPECT_TRUE(parseClusterPolicyKind("fastcap", &parsed));
    EXPECT_EQ(parsed, ClusterPolicyKind::Waterfill);
    EXPECT_TRUE(parseClusterPolicyKind("water-filling", &parsed));
    EXPECT_EQ(parsed, ClusterPolicyKind::Waterfill);
    EXPECT_FALSE(parseClusterPolicyKind("bogus", &parsed));
    EXPECT_EQ(makeClusterPolicy(ClusterPolicyKind::None), nullptr);
}

ClusterNodeView
view(int node, double assumed, double floor, double demand,
     double wanted, bool frozen = false)
{
    ClusterNodeView v;
    v.node = node;
    v.assumedCapWatts = assumed;
    v.allocatedWatts = assumed;
    v.floorWatts = floor;
    v.demand = demand;
    v.wantedWatts = wanted;
    v.frozen = frozen;
    return v;
}

double
sum(const std::vector<double> &xs)
{
    double s = 0.0;
    for (const double x : xs)
        s += x;
    return s;
}

TEST(ClusterPolicies, EqualSplitDividesUnfrozenPoolEvenly)
{
    const auto policy = makeClusterPolicy(ClusterPolicyKind::EqualSplit);
    std::vector<ClusterNodeView> nodes = {
        view(0, 25.0, 6.25, 0.0, 25.0),
        view(1, 25.0, 6.25, 9.0, 60.0),
        view(2, 30.0, 6.25, 2.0, 40.0, /*frozen=*/true),
    };
    std::vector<double> targets;
    policy->split(100.0, nodes, &targets);
    ASSERT_EQ(targets.size(), 3u);
    EXPECT_NEAR(targets[2], 30.0, 1e-9); // frozen: pinned at assumed
    EXPECT_NEAR(targets[0], 35.0, 1e-9); // (100 - 30) / 2
    EXPECT_NEAR(targets[1], 35.0, 1e-9);
    EXPECT_LE(sum(targets), 100.0 + 1e-9);
}

TEST(ClusterPolicies, ProportionalFollowsDemandAboveFloors)
{
    const auto policy =
        makeClusterPolicy(ClusterPolicyKind::ProportionalDemand);
    std::vector<ClusterNodeView> nodes = {
        view(0, 50.0, 10.0, 3.0, 80.0),
        view(1, 50.0, 10.0, 1.0, 60.0),
    };
    std::vector<double> targets;
    policy->split(100.0, nodes, &targets);
    ASSERT_EQ(targets.size(), 2u);
    // Floors 10 + 10, surplus 80 split 3:1.
    EXPECT_NEAR(targets[0], 70.0, 1e-9);
    EXPECT_NEAR(targets[1], 30.0, 1e-9);
    EXPECT_LE(sum(targets), 100.0 + 1e-9);
}

TEST(ClusterPolicies, ProportionalFallsBackToEqualOnZeroDemand)
{
    const auto policy =
        makeClusterPolicy(ClusterPolicyKind::ProportionalDemand);
    std::vector<ClusterNodeView> nodes = {
        view(0, 50.0, 10.0, 0.0, 10.0),
        view(1, 50.0, 10.0, 0.0, 10.0),
    };
    std::vector<double> targets;
    policy->split(100.0, nodes, &targets);
    EXPECT_NEAR(targets[0], 50.0, 1e-9);
    EXPECT_NEAR(targets[1], 50.0, 1e-9);
}

TEST(ClusterPolicies, WaterfillStopsAtWantedAndSpreadsSurplus)
{
    const auto policy = makeClusterPolicy(ClusterPolicyKind::Waterfill);
    std::vector<ClusterNodeView> nodes = {
        view(0, 50.0, 10.0, 1.0, 20.0),  // satisfied at 20 W
        view(1, 50.0, 10.0, 16.0, 90.0), // wants far more
    };
    std::vector<double> targets;
    policy->split(100.0, nodes, &targets);
    ASSERT_EQ(targets.size(), 2u);
    // Node 0 fills to its wanted 20 W; node 1 takes the rest up to its
    // wanted level; the pool is exhausted before any equal surplus.
    EXPECT_NEAR(targets[0], 20.0, 1e-9);
    EXPECT_NEAR(targets[1], 80.0, 1e-9);
    EXPECT_LE(sum(targets), 100.0 + 1e-9);
}

TEST(ClusterPolicies, WaterfillSpreadsBeyondEveryWantedLevel)
{
    const auto policy = makeClusterPolicy(ClusterPolicyKind::Waterfill);
    std::vector<ClusterNodeView> nodes = {
        view(0, 50.0, 10.0, 0.0, 20.0),
        view(1, 50.0, 10.0, 0.0, 30.0),
    };
    std::vector<double> targets;
    policy->split(100.0, nodes, &targets);
    // Both satisfied (20 + 30 = 50); the remaining 50 splits equally.
    EXPECT_NEAR(targets[0], 45.0, 1e-9);
    EXPECT_NEAR(targets[1], 55.0, 1e-9);
}

// ------------------------------------------------ arbiter unit tests

ClusterNodeReport
report(int node, std::uint64_t seq, double effective, double demand)
{
    ClusterNodeReport r;
    r.node = node;
    r.seq = seq;
    r.allocatedWatts = effective;
    r.effectiveCapWatts = effective;
    r.targetCapWatts = effective;
    r.queueBacklog = demand;
    r.p99Sec = 0.0;
    return r;
}

ClusterArbiterConfig
arbiterConfig(double cap)
{
    ClusterArbiterConfig cfg;
    cfg.capWatts = cap;
    cfg.rebalanceInterval = SimTime::sec(1);
    return cfg;
}

TEST(ClusterArbiter_, StartsAtEqualSharesAndConservesThem)
{
    Simulator sim;
    ClusterArbiter arb(&sim, 4, arbiterConfig(100.0),
                       makeClusterPolicy(ClusterPolicyKind::EqualSplit),
                       nullptr, nullptr);
    for (int n = 0; n < 4; ++n) {
        EXPECT_NEAR(arb.assumedCapWatts(n), 25.0, 1e-9);
        EXPECT_NEAR(arb.lastGrantWatts(n), 25.0, 1e-9);
        EXPECT_FALSE(arb.isFrozen(n));
    }
    EXPECT_NEAR(arb.assumedTotalWatts(), 100.0, 1e-9);
}

TEST(ClusterArbiter_, DuplicateAndReorderedReportsAreDropped)
{
    Simulator sim;
    ClusterArbiter arb(&sim, 2, arbiterConfig(100.0),
                       makeClusterPolicy(ClusterPolicyKind::EqualSplit),
                       nullptr, nullptr);
    arb.onReport(report(0, 5, 50.0, 0.0));
    arb.onReport(report(0, 5, 50.0, 0.0)); // duplicate
    arb.onReport(report(0, 3, 50.0, 0.0)); // reordered-stale
    arb.onReport(report(0, 6, 50.0, 0.0)); // fresh
    EXPECT_EQ(arb.reportsSeen(), 4u);
    EXPECT_EQ(arb.reportsDropped(), 2u);
}

TEST(ClusterArbiter_, OverbudgetReportIsAConservationFatal)
{
    // A node claiming an effective cap above its assumed share means
    // the protocol broke somewhere; the arbiter must die loudly.
    EXPECT_EXIT(
        {
            Simulator sim;
            ClusterArbiter arb(
                &sim, 2, arbiterConfig(100.0),
                makeClusterPolicy(ClusterPolicyKind::EqualSplit),
                nullptr, nullptr);
            arb.onReport(report(0, 1, 80.0, 0.0)); // assumed is 50
        },
        ::testing::ExitedWithCode(1), "conservation");
}

/**
 * The heart of the protocol: a *lost decrease* must never free watts.
 * Node 0 is granted a decrease but keeps reporting its old effective
 * cap (the grant vanished); the hot node 1 must not be raised until
 * node 0 confirms it actually came down.
 */
TEST(ClusterArbiter_, LostDecreaseKeepsWattsPinnedUntilConfirmed)
{
    Simulator sim;
    ClusterArbiter arb(
        &sim, 2, arbiterConfig(100.0),
        makeClusterPolicy(ClusterPolicyKind::ProportionalDemand),
        nullptr, nullptr);
    std::vector<ClusterGrant> grants;
    arb.setGrantSink(
        [&grants](const ClusterGrant &g) { grants.push_back(g); });
    arb.start();

    // Fresh reports just before every rebalance: node 0 idle and stuck
    // at 50 W effective (it never applies its decrease), node 1 hot.
    std::uint64_t seq = 0;
    for (int k = 0; k < 4; ++k) {
        sim.scheduleAt(SimTime::msec(900 + 1000 * k), [&arb, &seq]() {
            arb.onReport(report(0, ++seq, 50.0, /*demand=*/0.0));
            arb.onReport(report(1, ++seq, 50.0, /*demand=*/60.0));
        });
    }
    sim.runUntil(SimTime::msec(4500));

    // The decrease was proposed (floor = 0.25 * 50 = 12.5 W) but node
    // 0 never confirmed: its watts stay pinned, node 1 stays at 50.
    EXPECT_NEAR(arb.assumedCapWatts(0), 50.0, 1e-9);
    EXPECT_NEAR(arb.assumedCapWatts(1), 50.0, 1e-9);
    for (const ClusterGrant &g : grants) {
        if (g.node == 0)
            EXPECT_NEAR(g.targetCapWatts, 12.5, 1e-9);
        else
            ADD_FAILURE() << "node 1 must not be granted an increase "
                             "while node 0's decrease is unconfirmed "
                             "(got " << g.targetCapWatts << " W)";
    }
    ASSERT_FALSE(grants.empty());

    // Confirmation: node 0 reports the applied decrease; the freed
    // watts may now fund node 1 — and only now.
    grants.clear();
    sim.scheduleAt(SimTime::msec(4900), [&arb, &seq]() {
        arb.onReport(report(0, ++seq, 12.5, 0.0));
        arb.onReport(report(1, ++seq, 50.0, 60.0));
    });
    sim.runUntil(SimTime::msec(5500));
    EXPECT_NEAR(arb.assumedCapWatts(0), 12.5, 1e-9);
    EXPECT_NEAR(arb.assumedCapWatts(1), 87.5, 1e-9);
    bool raised = false;
    for (const ClusterGrant &g : grants)
        if (g.node == 1 && g.targetCapWatts > 50.0)
            raised = true;
    EXPECT_TRUE(raised);
    EXPECT_LE(arb.assumedTotalWatts(), 100.0 + 1e-9);
}

TEST(ClusterArbiter_, PartitionedMinorityFreezesAtItsShare)
{
    Simulator sim;
    ClusterArbiter arb(
        &sim, 3, arbiterConfig(90.0),
        makeClusterPolicy(ClusterPolicyKind::ProportionalDemand),
        nullptr, nullptr);
    std::vector<ClusterGrant> grants;
    arb.setGrantSink(
        [&grants](const ClusterGrant &g) { grants.push_back(g); });
    std::vector<ClusterDecision> decisions;
    arb.setDecisionProbe([&decisions](const ClusterDecision &d) {
        decisions.push_back(d);
    });
    arb.start();

    // Node 2 reports once, then the partition: silence forever. Nodes
    // 0 and 1 stay healthy and hungry.
    std::uint64_t seq = 0;
    sim.scheduleAt(SimTime::msec(900), [&arb, &seq]() {
        arb.onReport(report(2, ++seq, 30.0, 5.0));
    });
    for (int k = 0; k < 10; ++k) {
        sim.scheduleAt(SimTime::msec(900 + 1000 * k), [&arb, &seq]() {
            arb.onReport(report(0, ++seq, 30.0, 40.0));
            arb.onReport(report(1, ++seq, 30.0, 40.0));
        });
    }
    sim.runUntil(SimTime::sec(10));

    // freezeAfter defaults to 3x the interval: by t=10 s node 2 is
    // frozen at its last share, which was never exceeded.
    EXPECT_TRUE(arb.isFrozen(2));
    EXPECT_GE(arb.freezeEvents(), 1u);
    EXPECT_NEAR(arb.assumedCapWatts(2), 30.0, 1e-9);
    // Decrease proposals to node 2 before the freeze are fine (its
    // assumed share stays pinned until confirmed); what must never
    // happen is an *increase* granted to a silent node.
    for (const ClusterGrant &g : grants) {
        if (g.node == 2) {
            EXPECT_LE(g.targetCapWatts, 30.0 + 1e-9);
        }
    }
    // Every decision, before and after the freeze, conserves the cap,
    // and the frozen rounds pin node 2's target at its assumed share.
    ASSERT_FALSE(decisions.empty());
    for (const ClusterDecision &d : decisions) {
        EXPECT_LE(d.assumedTotalWatts, d.capWatts + 1e-9);
        for (const ClusterNodeDecision &nd : d.nodes) {
            if (nd.frozen) {
                EXPECT_NEAR(nd.targetWatts, nd.assumedBeforeWatts,
                            1e-9);
            }
        }
    }
    // The healthy majority never absorbs the frozen node's watts.
    EXPECT_LE(arb.assumedCapWatts(0) + arb.assumedCapWatts(1),
              90.0 - 30.0 + 1e-9);
}

// ----------------------------------------------- fleet end to end

/** Small but real fleet: 4 skewed groups under a 75 % cluster cap. */
Scenario
fleetScenario(ClusterPolicyKind policy, bool withFaults)
{
    Scenario sc = Scenario::fleet(policy, /*nodeGroups=*/4,
                                  /*capFraction=*/0.75,
                                  /*durationSec=*/10.0, /*seed=*/321);
    // A quarter of the factory's arrival rate keeps the test fast; the
    // per-group skew (groupLoadScale) is preserved on top of it.
    sc.load = sc.load.scaled(0.25);
    if (withFaults) {
        sc.faults.active = true;
        sc.faults.seed = 99;
        BusFaultRule lossy;
        lossy.endpoint = "*";
        lossy.dropRate = 0.05;
        lossy.duplicateRate = 0.02;
        lossy.reorderRate = 0.1;
        sc.faults.bus.push_back(lossy);
        sc.name += "/lossy";
    }
    return sc;
}

class ClusterDeterminism : public ::testing::TestWithParam<bool>
{
};

TEST_P(ClusterDeterminism, ResultBitIdenticalAtAnyWorkerCount)
{
    for (const ClusterPolicyKind policy :
         {ClusterPolicyKind::ProportionalDemand,
          ClusterPolicyKind::Waterfill}) {
        const Scenario sc = fleetScenario(policy, GetParam());
        std::string reference;
        for (const int workers : {1, 2, 8}) {
            ExperimentRunner runner;
            runner.setShards(workers);
            const RunResult result = runner.run(sc);
            EXPECT_GT(result.completed, 0u);
            const std::string json = runResultToJson(result).dump();
            if (reference.empty())
                reference = json;
            else
                EXPECT_EQ(json, reference)
                    << toString(policy) << " diverged at " << workers
                    << " workers";
        }
    }
}

TEST_P(ClusterDeterminism, SweepPoolJobsDoNotChangeResults)
{
    const Scenario sc =
        fleetScenario(ClusterPolicyKind::Waterfill, GetParam());
    std::string reference;
    for (const int jobs : {1, 3}) {
        for (const int shards : {1, 2}) {
            SweepOptions options;
            options.jobs = jobs;
            options.shards = shards;
            options.useCache = false;
            SweepRunner sweep(options);
            const RunResult result = sweep.runOne(sc);
            const std::string json = runResultToJson(result).dump();
            if (reference.empty())
                reference = json;
            else
                EXPECT_EQ(json, reference) << "diverged at jobs="
                                           << jobs << " shards="
                                           << shards;
        }
    }
}

TEST_P(ClusterDeterminism, CapNeverExceededAtAnyDecisionPoint)
{
    const Scenario sc =
        fleetScenario(ClusterPolicyKind::ProportionalDemand,
                      GetParam());
    std::size_t decisions = 0;
    ExperimentRunner runner;
    runner.setShards(2);
    runner.setClusterProbe([&decisions](const ClusterDecision &d) {
        ++decisions;
        EXPECT_LE(d.assumedTotalWatts, d.capWatts + 1e-6);
        double total = 0.0;
        for (const ClusterNodeDecision &nd : d.nodes) {
            EXPECT_GE(nd.targetWatts, 0.0);
            EXPECT_GE(nd.assumedAfterWatts, 0.0);
            total += nd.assumedAfterWatts;
            if (nd.frozen) {
                EXPECT_NEAR(nd.targetWatts, nd.assumedBeforeWatts,
                            1e-9);
            }
        }
        EXPECT_NEAR(total, d.assumedTotalWatts, 1e-6);
    });
    const RunResult result = runner.run(sc);
    EXPECT_GT(result.completed, 0u);
    EXPECT_GT(decisions, 0u);
}

TEST_P(ClusterDeterminism, EnvelopeCarriesClusterSummaryAndAudit)
{
    const Scenario sc =
        fleetScenario(ClusterPolicyKind::Waterfill, GetParam());
    const std::string dir = ::testing::TempDir();
    const std::string tag = GetParam() ? "lossy" : "clean";
    TelemetryConfig telemetry;
    telemetry.timeseriesOut = dir + "/cluster_" + tag + ".ts.json";
    ExperimentRunner runner(/*recordTraces=*/false, SimTime::sec(5),
                            /*attribution=*/false,
                            /*collectAudit=*/true);
    runner.setShards(2);
    const RunResult result = runner.run(sc, &telemetry);
    EXPECT_TRUE(result.audit.collected);
    EXPECT_GT(result.audit.clusterRebalances, 0u);
    std::ifstream in(telemetry.timeseriesOut, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string ts = buf.str();
    EXPECT_NE(ts.find("\"cluster\":"), std::string::npos);
    EXPECT_NE(ts.find("\"policy\":\"waterfill\""), std::string::npos);
    EXPECT_NE(ts.find("\"cap_watts\":"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(CleanAndLossy, ClusterDeterminism,
                         ::testing::Values(false, true),
                         [](const auto &info) {
                             return info.param ? "lossy" : "clean";
                         });

/**
 * The determinism tests above compare a build against itself, so a
 * change that moved every worker count's artifacts the same way would
 * pass them. This pins the bytes: fnv1a64 of the metrics (histograms
 * with p50/p90/p99 and cumulative buckets), critpath and timeseries
 * (health-tap quantiles) files of a short 4-group fleet run with SLO,
 * alerts and attribution on. A deliberate behaviour change re-pins the
 * hashes printed by the failure message.
 */
TEST(FleetArtifacts, ArtifactBytesArePinned)
{
    const Scenario sc =
        fleetScenario(ClusterPolicyKind::ProportionalDemand,
                      /*withFaults=*/true);
    const std::string base = ::testing::TempDir() + "/fleet_pin";
    TelemetryConfig telemetry;
    telemetry.alertsEnabled = true;
    telemetry.metricsOut = base + ".metrics.json";
    telemetry.critpathOut = base + ".critpath.json";
    telemetry.timeseriesOut = base + ".timeseries.json";
    SloConfig slo;
    slo.enabled = true;
    ExperimentRunner runner(/*recordTraces=*/false, SimTime::sec(5),
                            /*attribution=*/true, /*collectAudit=*/true,
                            slo, /*collectCritPath=*/true);
    runner.setShards(2);
    const RunResult result = runner.run(sc, &telemetry);
    ASSERT_GT(result.completed, 0u);

    const auto fingerprint = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        EXPECT_TRUE(in.good()) << "cannot open " << path;
        std::ostringstream buf;
        buf << in.rdbuf();
        char hex[32];
        std::snprintf(hex, sizeof(hex), "0x%016llxull",
                      static_cast<unsigned long long>(fnv1a64(buf.str())));
        return std::string(hex);
    };
    EXPECT_EQ(fingerprint(telemetry.metricsOut), "0xc8be1bf93783fea2ull")
        << "metrics artifact bytes diverged";
    EXPECT_EQ(fingerprint(telemetry.critpathOut), "0x15610353756c0556ull")
        << "critpath artifact bytes diverged";
    EXPECT_EQ(fingerprint(telemetry.timeseriesOut),
              "0x91cb83886285c76eull")
        << "timeseries artifact bytes diverged";
}

// ------------------------------------------------- scenario identity

TEST(ClusterCacheKey, ClusterKnobsArePartOfTheScenarioIdentity)
{
    const Scenario base =
        fleetScenario(ClusterPolicyKind::Waterfill, false);
    const auto canonical = scenarioCanonical(base);
    ASSERT_TRUE(canonical.has_value());
    EXPECT_NE(canonical->find("|cluster:"), std::string::npos);
    EXPECT_NE(canonical->find("scale:"), std::string::npos);

    Scenario policy = base;
    policy.clusterPolicy = ClusterPolicyKind::ProportionalDemand;
    EXPECT_NE(*scenarioCanonical(policy), *canonical);

    Scenario interval = base;
    interval.rebalanceInterval = SimTime::sec(7);
    EXPECT_NE(*scenarioCanonical(interval), *canonical);

    Scenario budget = base;
    budget.clusterBudget = Watts(123.0);
    EXPECT_NE(*scenarioCanonical(budget), *canonical);

    Scenario skew = base;
    skew.groupLoadScale[0] = 2.0;
    EXPECT_NE(*scenarioCanonical(skew), *canonical);

    // Historical-key stability: a non-cluster scenario's canonical
    // form must not grow a cluster block.
    Scenario off = base;
    off.clusterPolicy = ClusterPolicyKind::None;
    off.groupLoadScale.clear();
    EXPECT_EQ(scenarioCanonical(off)->find("|cluster:"),
              std::string::npos);
}

// -------------------------------------------- topology validation

TEST(TopologyValidation, RunnerRejectsBadTopologyWithOffenderNamed)
{
    Scenario bad = fleetScenario(ClusterPolicyKind::Waterfill, false);
    bad.remoteFraction = 1.5;
    EXPECT_EXIT(
        { ExperimentRunner().run(bad); },
        ::testing::ExitedWithCode(1), "remote-fraction");

    Scenario negGroups =
        fleetScenario(ClusterPolicyKind::Waterfill, false);
    negGroups.nodeGroups = -2;
    EXPECT_EXIT(
        { ExperimentRunner().run(negGroups); },
        ::testing::ExitedWithCode(1), "node-groups");

    Scenario zeroLat =
        fleetScenario(ClusterPolicyKind::Waterfill, false);
    zeroLat.interNodeLatency = SimTime::zero();
    EXPECT_EXIT(
        { ExperimentRunner().run(zeroLat); },
        ::testing::ExitedWithCode(1), "inter-node-latency");

    Scenario badScale =
        fleetScenario(ClusterPolicyKind::Waterfill, false);
    badScale.groupLoadScale = {1.0, -0.5, 1.0, 1.0};
    EXPECT_EXIT(
        { ExperimentRunner().run(badScale); },
        ::testing::ExitedWithCode(1), "group-load-scale");

    Scenario loneCluster =
        fleetScenario(ClusterPolicyKind::Waterfill, false);
    loneCluster.nodeGroups = 1;
    loneCluster.groupLoadScale = {1.0};
    EXPECT_EXIT(
        { ExperimentRunner().run(loneCluster); },
        ::testing::ExitedWithCode(1), "cluster");
}

TEST(TopologyValidation, ConfigLoaderNamesTheOffendingField)
{
    const auto load = [](const std::string &scenarioBody) {
        const std::string text =
            "{\"workload\": \"sirius\", \"scenario\": {" +
            scenarioBody + "}}";
        return scenarioFromJsonText(text);
    };

    EXPECT_FALSE(load("\"node_groups\": -1").ok());
    EXPECT_NE(load("\"node_groups\": -1")
                  .error.find("node-groups"),
              std::string::npos);

    const auto badFraction =
        load("\"node_groups\": 2, \"remote_fraction\": 1.5");
    EXPECT_FALSE(badFraction.ok());
    EXPECT_NE(badFraction.error.find("remote-fraction"),
              std::string::npos);

    const auto badLatency =
        load("\"node_groups\": 2, \"inter_node_latency_ms\": 0");
    EXPECT_FALSE(badLatency.ok());
    EXPECT_NE(badLatency.error.find("inter-node-latency"),
              std::string::npos);

    const auto badPolicy =
        load("\"node_groups\": 2, \"cluster_policy\": \"bogus\"");
    EXPECT_FALSE(badPolicy.ok());
    EXPECT_NE(badPolicy.error.find("cluster_policy"),
              std::string::npos);

    const auto badScale = load(
        "\"node_groups\": 2, \"group_load_scale\": [1.0, 1.0, 1.0]");
    EXPECT_FALSE(badScale.ok());
    EXPECT_NE(badScale.error.find("group-load-scale"),
              std::string::npos);

    const auto good = load(
        "\"node_groups\": 2, \"cluster_policy\": \"waterfill\", "
        "\"rebalance_interval_sec\": 2, "
        "\"cluster_budget_watts\": 120, "
        "\"group_load_scale\": [1.2, 0.8]");
    ASSERT_TRUE(good.ok()) << good.error;
    EXPECT_EQ(good.scenario->clusterPolicy,
              ClusterPolicyKind::Waterfill);
    EXPECT_EQ(good.scenario->nodeGroups, 2);
    EXPECT_NEAR(good.scenario->clusterBudget.value(), 120.0, 1e-9);
    ASSERT_EQ(good.scenario->groupLoadScale.size(), 2u);
}

} // namespace
} // namespace pc
