/**
 * @file
 * Cross-module integration and system-invariant tests: full PowerChief
 * runs whose global properties (budget cap, query conservation, hop
 * completeness, energy accounting, paper-shape orderings) must hold.
 */

#include <gtest/gtest.h>

#include "core/command_center.h"
#include "exp/runner.h"
#include "hal/rapl.h"
#include "workloads/loadgen.h"
#include "workloads/profiler.h"

namespace pc {
namespace {

/** Full system rig with hooks into every layer. */
class IntegrationRig
{
  public:
    IntegrationRig(PolicyKind kind, double qps, std::uint64_t seed,
                   Watts cap = Watts(13.56))
        : model(PowerModel::haswell()), chip(&sim, &model, 16),
          bus(&sim), workload(WorkloadModel::sirius()),
          app(&sim, &chip, &bus, "sirius",
              workload.layout(1, model.ladder().midLevel())),
          book(OfflineProfiler(50).profileWorkload(workload, model,
                                                   seed)),
          budget(cap, &model)
    {
        ControlConfig cfg;
        cfg.adjustInterval = SimTime::sec(10);
        cfg.withdrawInterval = SimTime::sec(40);
        cfg.enableWithdraw = (kind == PolicyKind::PowerChief);
        std::unique_ptr<ControlPolicy> policy;
        switch (kind) {
          case PolicyKind::FreqBoost:
            policy = std::make_unique<FreqBoostPolicy>();
            break;
          case PolicyKind::InstBoost:
            policy = std::make_unique<InstBoostPolicy>();
            break;
          case PolicyKind::PowerChief:
            policy = std::make_unique<PowerChiefPolicy>();
            break;
          default:
            policy = std::make_unique<StageAgnosticPolicy>();
        }
        center = std::make_unique<CommandCenter>(
            &sim, &bus, &chip, &app, &budget, &book, cfg,
            std::move(policy));
        center->start();
        gen = std::make_unique<LoadGenerator>(
            &sim, &app, &workload, LoadProfile::constant(qps), seed,
            model.ladder().freqAt(0).value());
    }

    Simulator sim;
    PowerModel model;
    CmpChip chip;
    MessageBus bus;
    WorkloadModel workload;
    MultiStageApp app;
    SpeedupBook book;
    PowerBudget budget;
    std::unique_ptr<CommandCenter> center;
    std::unique_ptr<LoadGenerator> gen;
};

TEST(Integration, BudgetCapNeverExceeded)
{
    IntegrationRig rig(PolicyKind::PowerChief, 0.8, 3);
    bool violated = false;
    rig.center->setIntervalCallback([&](const ControlContext &ctx) {
        if (ctx.budget->allocated().value() >
            ctx.budget->cap().value() + 1e-6)
            violated = true;
    });
    rig.gen->start(SimTime::sec(300));
    rig.sim.runUntil(SimTime::sec(300));
    EXPECT_FALSE(violated);
    EXPECT_LE(rig.budget.allocated().value(), 13.56 + 1e-6);
}

TEST(Integration, AllocatedMatchesLiveInstanceLevels)
{
    // The budget ledger and the actual DVFS state must agree at every
    // control interval, across boosts, recycles and withdraws.
    IntegrationRig rig(PolicyKind::PowerChief, 0.9, 5);
    bool mismatch = false;
    rig.center->setIntervalCallback([&](const ControlContext &ctx) {
        double sum = 0.0;
        for (const auto *inst : ctx.app->allInstances()) {
            if (!inst->draining())
                sum += rig.model.activeWatts(inst->level()).value();
        }
        // Draining instances have been released from the ledger already;
        // live ones must match exactly.
        if (std::abs(sum - ctx.budget->allocated().value()) > 1e-6)
            mismatch = true;
    });
    rig.gen->start(SimTime::sec(300));
    rig.sim.runUntil(SimTime::sec(300));
    EXPECT_FALSE(mismatch);
}

TEST(Integration, QueryConservation)
{
    IntegrationRig rig(PolicyKind::PowerChief, 0.8, 7);
    rig.gen->start(SimTime::sec(200));
    rig.sim.runUntil(SimTime::sec(200));
    // Every submitted query is either completed or still in a queue.
    std::size_t queued = 0;
    for (const auto *inst : rig.app.allInstances())
        queued += inst->queueLength();
    EXPECT_EQ(rig.app.submitted(), rig.app.completed() + queued);
    EXPECT_EQ(rig.gen->generated(), rig.app.submitted());
}

TEST(Integration, CompletedQueriesHaveFullHopTrail)
{
    IntegrationRig rig(PolicyKind::PowerChief, 0.8, 9);
    bool allComplete = true;
    rig.app.setCompletionSink([&](const QueryPtr &q) {
        if (q->hops().size() != 3u)
            allComplete = false;
        for (const auto &hop : q->hops()) {
            if (hop.instanceId < 0 ||
                hop.finished < hop.started ||
                hop.started < hop.enqueued)
                allComplete = false;
        }
        // End-to-end spans at least the sum of hop latencies.
        SimTime hopSum;
        for (const auto &hop : q->hops())
            hopSum += (hop.finished - hop.enqueued);
        if (q->endToEnd() + SimTime::usec(1) < hopSum)
            allComplete = false;
    });
    rig.gen->start(SimTime::sec(200));
    rig.sim.runUntil(SimTime::sec(200));
    EXPECT_GT(rig.app.completed(), 50u);
    EXPECT_TRUE(allComplete);
}

TEST(Integration, RaplEnergyMatchesChipIntegral)
{
    IntegrationRig rig(PolicyKind::PowerChief, 0.8, 11);
    RaplReader rapl(&rig.chip);
    rig.gen->start(SimTime::sec(100));
    rig.sim.runUntil(SimTime::sec(100));
    EXPECT_NEAR(rapl.readEnergy().value(),
                rig.chip.totalEnergy().value(), 1.0);
}

TEST(Integration, MeasuredPowerStaysNearCap)
{
    // Modelled *active* power is capped; measured RAPL power (which
    // includes idle savings) must never exceed the budget either.
    IntegrationRig rig(PolicyKind::InstBoost, 1.0, 13);
    RaplReader rapl(&rig.chip);
    rig.gen->start(SimTime::sec(300));
    double worst = 0.0;
    for (int t = 10; t <= 300; t += 10) {
        rig.sim.runUntil(SimTime::sec(t));
        worst = std::max(worst, rapl.windowPower().value());
    }
    EXPECT_LE(worst, 13.56 + 1e-6);
}

TEST(Integration, PowerChiefBeatsBaselineUnderSaturation)
{
    const ExperimentRunner runner;
    Scenario base = Scenario::mitigation(WorkloadModel::sirius(),
                                         LoadLevel::High,
                                         PolicyKind::StageAgnostic);
    base.duration = SimTime::sec(400);
    Scenario chief = Scenario::mitigation(WorkloadModel::sirius(),
                                          LoadLevel::High,
                                          PolicyKind::PowerChief);
    chief.duration = SimTime::sec(400);
    const auto rb = runner.run(base);
    const auto rc = runner.run(chief);
    EXPECT_LT(rc.avgLatencySec, rb.avgLatencySec / 3.0);
    EXPECT_LT(rc.p99LatencySec, rb.p99LatencySec / 2.0);
}

TEST(Integration, InstanceBoostingBeatsFrequencyAtHighLoad)
{
    // The Fig. 4(b) ordering — the core adaptive-boosting premise.
    const ExperimentRunner runner;
    Scenario freq = Scenario::mitigation(WorkloadModel::sirius(),
                                         LoadLevel::High,
                                         PolicyKind::FreqBoost);
    freq.duration = SimTime::sec(400);
    Scenario inst = Scenario::mitigation(WorkloadModel::sirius(),
                                         LoadLevel::High,
                                         PolicyKind::InstBoost);
    inst.duration = SimTime::sec(400);
    EXPECT_LT(runner.run(inst).avgLatencySec,
              runner.run(freq).avgLatencySec);
}

TEST(Integration, FrequencyBoostingWinsAtLowLoad)
{
    // The Fig. 4(a) ordering.
    const ExperimentRunner runner;
    Scenario freq = Scenario::mitigation(WorkloadModel::sirius(),
                                         LoadLevel::Low,
                                         PolicyKind::FreqBoost);
    Scenario inst = Scenario::mitigation(WorkloadModel::sirius(),
                                         LoadLevel::Low,
                                         PolicyKind::InstBoost);
    EXPECT_LT(runner.run(freq).avgLatencySec,
              runner.run(inst).avgLatencySec);
}

TEST(Integration, ConservePolicySavesPowerMeetingQoS)
{
    const ExperimentRunner runner;
    auto make = [](PolicyKind kind) {
        Scenario sc = Scenario::conservation(
            WorkloadModel::webSearch(), {6, 1}, 0.25, SimTime::sec(2),
            kind, 3);
        sc.load = LoadProfile::constant(12.0);
        sc.duration = SimTime::sec(300);
        return sc;
    };
    const auto baseline = runner.run(make(PolicyKind::StageAgnostic));
    const auto conserve =
        runner.run(make(PolicyKind::PowerChiefConserve));
    EXPECT_LT(conserve.avgPowerWatts, 0.8 * baseline.avgPowerWatts);
    EXPECT_LT(conserve.avgLatencySec, 0.25);
}

/** Power saving of each policy relative to the first (baseline). */
std::vector<double>
powerSavings(const ExperimentRunner &runner,
             const std::vector<Scenario> &scenarios)
{
    std::vector<double> savings;
    double baselineWatts = 0.0;
    for (const Scenario &sc : scenarios) {
        const RunResult r = runner.run(sc);
        if (savings.empty())
            baselineWatts = r.avgPowerWatts;
        savings.push_back(1.0 - r.avgPowerWatts / baselineWatts);
    }
    return savings;
}

const std::vector<PolicyKind> kQosPolicies = {
    PolicyKind::StageAgnostic, PolicyKind::Pegasus,
    PolicyKind::PowerChiefConserve};

TEST(Integration, Fig13SiriusPowerSavingOrdering)
{
    // bench/fig13_sirius_power's scenario: Table 3 layout, 3 s QoS,
    // 10 s adjust interval, diurnal load. EXPERIMENTS.md: PowerChief
    // 35.1%, Pegasus 0.4%, baseline 0%.
    std::vector<Scenario> scenarios;
    for (const PolicyKind policy : kQosPolicies) {
        Scenario sc = Scenario::conservation(
            WorkloadModel::sirius(), {4, 2, 5}, 3.0, SimTime::sec(10),
            policy);
        sc.load = LoadProfile::diurnal(0.3, 1.2, SimTime::sec(450));
        scenarios.push_back(sc);
    }
    const auto savings =
        powerSavings(ExperimentRunner(true), scenarios);
    EXPECT_GT(savings[2], savings[1]);
    EXPECT_GE(savings[1], savings[0]);
    EXPECT_EQ(savings[0], 0.0);
}

TEST(Integration, Fig14WebSearchPowerSavingOrdering)
{
    // bench/fig14_websearch_power's scenario: 10 leaves + aggregator,
    // 250 ms QoS, 2 s adjust interval, diurnal load. EXPERIMENTS.md:
    // PowerChief 67.6%, Pegasus 47.8%, baseline 0%.
    std::vector<Scenario> scenarios;
    for (const PolicyKind policy : kQosPolicies) {
        Scenario sc = Scenario::conservation(
            WorkloadModel::webSearch(), {10, 1}, 0.250,
            SimTime::sec(2), policy);
        sc.load = LoadProfile::diurnal(10.0, 85.0, SimTime::sec(450));
        sc.duration = SimTime::sec(900);
        scenarios.push_back(sc);
    }
    const auto savings =
        powerSavings(ExperimentRunner(true, SimTime::sec(2)), scenarios);
    EXPECT_GT(savings[2], savings[1]);
    EXPECT_GE(savings[1], savings[0]);
    EXPECT_EQ(savings[0], 0.0);
}

TEST(Integration, WithdrawnInstancesReleaseCores)
{
    IntegrationRig rig(PolicyKind::PowerChief, 0.2, 17);
    rig.gen->start(SimTime::sec(400));
    rig.sim.runUntil(SimTime::sec(400));
    // Low load: no more cores may be held than instances alive.
    EXPECT_EQ(static_cast<std::size_t>(rig.chip.numAllocated()),
              rig.app.allInstances().size());
}

TEST(Integration, DistributedDeploymentWithBusDelay)
{
    // §8.5: stages may run distributed; the joint design tolerates
    // report delivery latency. A 2 ms RPC delay must not break control.
    IntegrationRig rig(PolicyKind::PowerChief, 0.8, 19);
    rig.bus.setDeliveryDelay(SimTime::msec(2));
    rig.gen->start(SimTime::sec(200));
    rig.sim.runUntil(SimTime::sec(210));
    EXPECT_GT(rig.center->queriesObserved(), 0u);
    EXPECT_EQ(rig.center->queriesObserved(), rig.app.completed());
}

} // namespace
} // namespace pc
