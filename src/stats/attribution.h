/**
 * @file
 * Tail-latency attribution: which stage's queuing or serving time the
 * p95/p99 end-to-end latency is actually made of.
 *
 * The paper's premise (§2.3) is that responsiveness is lost to *queuing
 * at the bottleneck stage*; this collector verifies that claim per run.
 * Every completed query contributes its per-stage queue/serve spans to
 * constant-space streaming quantile estimators (P², stats/percentile.h)
 * and to a bounded worst-K retention buffer. At report time the worst
 * ⌈(1−q)·N⌉ queries are decomposed into mean per-stage queuing and
 * serving seconds — the columns of the attribution table — so "p99 is
 * 3.2 s" becomes "2.9 s of it is queuing in stage 1".
 *
 * Deterministic by construction: retention is keyed by (latency,
 * arrival sequence), so ties break the same way at any sweep --jobs.
 */

#ifndef PC_STATS_ATTRIBUTION_H
#define PC_STATS_ATTRIBUTION_H

#include <cstdint>
#include <set>
#include <vector>

#include "common/field_codec.h"
#include "stats/percentile.h"

namespace pc {

/** One query's time in one stage, summed over its hops there. */
struct StageSpan
{
    double queuingSec = 0.0;
    double servingSec = 0.0;
};

template <>
inline constexpr auto fieldsOf<StageSpan> = std::tuple{
    Field{"queuing_s", &StageSpan::queuingSec},
    Field{"serving_s", &StageSpan::servingSec}};

/** Per-stage streaming quantiles over all (not just tail) spans. */
struct StageSpanQuantiles
{
    double queueP95Sec = 0.0;
    double queueP99Sec = 0.0;
    double serveP95Sec = 0.0;
    double serveP99Sec = 0.0;
};

template <>
inline constexpr auto fieldsOf<StageSpanQuantiles> = std::tuple{
    Field{"queue_p95_s", &StageSpanQuantiles::queueP95Sec},
    Field{"queue_p99_s", &StageSpanQuantiles::queueP99Sec},
    Field{"serve_p95_s", &StageSpanQuantiles::serveP95Sec},
    Field{"serve_p99_s", &StageSpanQuantiles::serveP99Sec}};

/** Decomposition of one tail cut (q = 0.95 or 0.99). */
struct TailCut
{
    double q = 0.0;
    /** Queries in the cut: ⌈(1−q)·N⌉, at least 1 when N > 0. */
    std::uint64_t tailCount = 0;
    /** Smallest end-to-end latency inside the cut (≈ the quantile). */
    double thresholdSec = 0.0;
    /** Mean end-to-end latency over the cut. */
    double meanTailSec = 0.0;
    /** The retention buffer overflowed; the cut covers only its worst. */
    bool truncated = false;
    /** Mean per-stage queue/serve seconds over the cut's queries. */
    std::vector<StageSpan> stages;
};

template <>
inline constexpr auto fieldsOf<TailCut> = std::tuple{
    Field{"q", &TailCut::q},
    Field{"tail_count", &TailCut::tailCount},
    Field{"threshold_s", &TailCut::thresholdSec},
    Field{"mean_tail_s", &TailCut::meanTailSec},
    Field{"truncated", &TailCut::truncated},
    Field{"stages", &TailCut::stages}};

struct TailAttributionReport
{
    /** False when the run did not collect attribution (--attribution). */
    bool enabled = false;
    std::uint64_t queries = 0;
    std::vector<TailCut> cuts;
    std::vector<StageSpanQuantiles> spanQuantiles;
};

template <>
inline constexpr auto fieldsOf<TailAttributionReport> = std::tuple{
    Field{"queries", &TailAttributionReport::queries},
    Field{"cuts", &TailAttributionReport::cuts},
    Field{"span_quantiles", &TailAttributionReport::spanQuantiles}};

class TailAttributionCollector
{
  public:
    /**
     * @param numStages stages of the application under test.
     * @param capacity worst-query retention size; p95 cuts stay exact
     *        up to N = capacity / 0.05 completed queries.
     */
    explicit TailAttributionCollector(int numStages,
                                      std::size_t capacity = 4096);

    /**
     * Feed one completed query. @p spans must have numStages entries
     * (a stage the query skipped contributes zeros).
     */
    void addQuery(double e2eSec, const std::vector<StageSpan> &spans);

    std::uint64_t queries() const { return count_; }

    /** Build the report; cuts at p95 and p99. */
    TailAttributionReport report() const;

  private:
    struct Retained
    {
        double e2eSec;
        std::uint64_t seq;
        std::vector<StageSpan> spans;

        bool
        operator<(const Retained &o) const
        {
            if (e2eSec != o.e2eSec)
                return e2eSec < o.e2eSec;
            return seq < o.seq;
        }
    };

    int numStages_;
    std::size_t capacity_;
    std::uint64_t count_ = 0;
    std::set<Retained> worst_;
    /** Indexed by stage: streaming quantiles over every query's spans. */
    std::vector<P2Quantile> queueP95_, queueP99_;
    std::vector<P2Quantile> serveP95_, serveP99_;
};

} // namespace pc

#endif // PC_STATS_ATTRIBUTION_H
