#include "exp/runner.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "core/cuttlesys.h"
#include "core/fastcap.h"
#include "core/policies.h"
#include "obs/audit.h"
#include "obs/critpath.h"

namespace pc {

double
RunResult::improvement(double baseline, double value)
{
    if (value <= 0.0)
        return 0.0;
    return baseline / value;
}

ExperimentRunner::ExperimentRunner(bool recordTraces,
                                   SimTime sampleInterval,
                                   bool attribution, bool collectAudit,
                                   SloConfig slo, bool collectCritPath)
    : recordTraces_(recordTraces), sampleInterval_(sampleInterval),
      attribution_(attribution), collectAudit_(collectAudit),
      slo_(std::move(slo)), collectCritPath_(collectCritPath)
{
}

std::unique_ptr<ControlPolicy>
makePolicyFor(const Scenario &sc)
{
    switch (sc.policy) {
      case PolicyKind::StageAgnostic:
        return std::make_unique<StageAgnosticPolicy>();
      case PolicyKind::FreqBoost:
        return std::make_unique<FreqBoostPolicy>();
      case PolicyKind::InstBoost:
        return std::make_unique<InstBoostPolicy>();
      case PolicyKind::PowerChief:
        return std::make_unique<PowerChiefPolicy>();
      case PolicyKind::FixedStage:
        return std::make_unique<FixedStageBoostPolicy>(
            sc.fixedStage, sc.fixedTechnique);
      case PolicyKind::Pegasus:
        return std::make_unique<PegasusPolicy>(sc.qosTargetSec,
                                               sc.qosUseTail);
      case PolicyKind::PowerChiefConserve:
        return std::make_unique<PowerChiefConservePolicy>(
            sc.qosTargetSec, sc.qosUseTail);
      case PolicyKind::FastCap:
        return std::make_unique<FastCapPolicy>();
      case PolicyKind::CuttleSys: {
        // Give the config search room up to an even share of the chip,
        // clamped so one stage can never crowd out the others.
        const int stages = std::max<int>(
            1, static_cast<int>(sc.initialCounts.size()));
        const int maxPerStage =
            std::clamp(sc.numCores / stages, 1, 8);
        return std::make_unique<CuttleSysPolicy>(maxPerStage);
      }
      case PolicyKind::Count:
        break;
    }
    fatal("unknown policy kind");
}

RunAuditSummary
summarizeAudit(const AuditLog &audit)
{
    RunAuditSummary sum;
    sum.collected = true;
    sum.mapePct = audit.mapePct();
    sum.mapeFreqPct = audit.mapePct(AuditBoostKind::Frequency);
    sum.mapeInstPct = audit.mapePct(AuditBoostKind::Instance);
    sum.flips = audit.flips();
    for (const auto &rec : audit.records()) {
        switch (rec.kind) {
          case AuditDecisionKind::Select:
            ++sum.selects;
            if (rec.scored)
                ++sum.scored;
            break;
          case AuditDecisionKind::Recycle: ++sum.recycles; break;
          case AuditDecisionKind::Withdraw: ++sum.withdraws; break;
          case AuditDecisionKind::StaleSkip: ++sum.staleSkips; break;
          case AuditDecisionKind::FastCapPlan:
          case AuditDecisionKind::CuttleSysPlan:
            ++sum.plans;
            break;
          case AuditDecisionKind::Misboost:
            ++sum.misboosts;
            break;
          case AuditDecisionKind::ClusterRebalance:
            ++sum.clusterRebalances;
            break;
          case AuditDecisionKind::ObsAlert:
          case AuditDecisionKind::Count:
            break;
        }
    }
    return sum;
}

RunCritPathSummary
summarizeCritPath(const CritPathCollector &cp)
{
    RunCritPathSummary sum;
    sum.collected = true;
    sum.queries = cp.profiledQueries();
    sum.scoredIntervals = cp.scoredIntervals();
    sum.agreeIntervals = cp.agreeIntervals();
    sum.boostIntervals = cp.boostIntervals();
    sum.misboosts = cp.misboosts();
    sum.agreementRate = cp.agreementRate();
    sum.meanShorteningPct = cp.meanShorteningPct();
    sum.stageShare = cp.stageShareMeans();
    return sum;
}

} // namespace pc
