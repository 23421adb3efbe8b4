/** @file Tests for the wire format and the query-stats codec. */

#include <gtest/gtest.h>

#include "app/stats_codec.h"
#include "common/rng.h"
#include "core/command_center.h"
#include "exp/runner.h"
#include "rpc/wire.h"
#include "workloads/profiler.h"

namespace pc {
namespace {

TEST(Wire, VarintRoundTrip)
{
    WireWriter w;
    const std::vector<std::uint64_t> values = {
        0, 1, 127, 128, 300, 16383, 16384,
        0xffffffffull, 0xffffffffffffffffull};
    for (auto v : values)
        w.putVarint(v);
    WireReader r(w.bytes());
    for (auto v : values) {
        std::uint64_t got = 0;
        ASSERT_TRUE(r.getVarint(&got));
        EXPECT_EQ(got, v);
    }
    EXPECT_TRUE(r.exhausted());
}

TEST(Wire, VarintCompactness)
{
    WireWriter w;
    w.putVarint(5);
    EXPECT_EQ(w.bytes().size(), 1u);
    w.putVarint(300);
    EXPECT_EQ(w.bytes().size(), 3u); // 1 + 2
}

TEST(Wire, SignedZigZagRoundTrip)
{
    WireWriter w;
    const std::vector<std::int64_t> values = {
        0, -1, 1, -2, 63, -64, 1000000, -1000000,
        std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min()};
    for (auto v : values)
        w.putSigned(v);
    WireReader r(w.bytes());
    for (auto v : values) {
        std::int64_t got = 0;
        ASSERT_TRUE(r.getSigned(&got));
        EXPECT_EQ(got, v);
    }
}

TEST(Wire, SmallNegativesAreCompact)
{
    WireWriter w;
    w.putSigned(-1);
    EXPECT_EQ(w.bytes().size(), 1u);
}

TEST(Wire, TruncatedInputFailsSafely)
{
    WireWriter w;
    w.putSigned(-1000000); // three bytes
    auto bytes = w.take();
    ASSERT_EQ(bytes.size(), 3u);
    bytes.pop_back();
    WireReader r(bytes);
    std::int64_t v = 7;
    EXPECT_FALSE(r.getSigned(&v));
    EXPECT_EQ(v, 7); // output untouched on failure
    EXPECT_FALSE(r.ok());
}

TEST(Wire, FailureLatchesWithBytesLeft)
{
    // Ten continuation bytes overflow 64 bits; the trailing byte would
    // decode on its own, but the reader stays failed.
    std::vector<std::uint8_t> bytes(10, 0xff);
    bytes.push_back(0x02);
    WireReader r(bytes);
    std::int64_t v = 7;
    EXPECT_FALSE(r.getSigned(&v));
    EXPECT_FALSE(r.getSigned(&v));
    EXPECT_EQ(v, 7);
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.exhausted());
}

TEST(Wire, DanglingVarintContinuationFails)
{
    const std::vector<std::uint8_t> bytes = {0x80, 0x80};
    WireReader r(bytes);
    std::uint64_t v = 0;
    EXPECT_FALSE(r.getVarint(&v));
    EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------- stats codec

QueryStatsRecord
sampleRecord()
{
    QueryStatsRecord record;
    record.queryId = 77;
    record.arrival = SimTime::msec(100);
    record.completed = SimTime::msec(4250);
    for (int i = 0; i < 3; ++i) {
        HopRecord hop;
        hop.instanceId = 10 + i;
        hop.stageIndex = i;
        hop.enqueued = SimTime::msec(100 + 1000 * i);
        hop.started = SimTime::msec(300 + 1000 * i);
        hop.finished = SimTime::msec(900 + 1000 * i);
        hop.servedMhz = 2400 + 100 * i;
        hop.shardIndex = i == 1 ? 0 : -1;
        hop.shardCount = i == 1 ? 4 : 0;
        hop.boosted = i == 2;
        hop.wasted = i == 0;
        record.hops.push_back(hop);
    }
    return record;
}

TEST(StatsCodec, RoundTripExact)
{
    const auto record = sampleRecord();
    const auto decoded = decodeStats(encodeStats(record));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->queryId, record.queryId);
    EXPECT_EQ(decoded->arrival, record.arrival);
    EXPECT_EQ(decoded->completed, record.completed);
    EXPECT_EQ(decoded->endToEnd(), record.endToEnd());
    ASSERT_EQ(decoded->hops.size(), record.hops.size());
    for (std::size_t i = 0; i < record.hops.size(); ++i) {
        EXPECT_EQ(decoded->hops[i].instanceId,
                  record.hops[i].instanceId);
        EXPECT_EQ(decoded->hops[i].stageIndex,
                  record.hops[i].stageIndex);
        EXPECT_EQ(decoded->hops[i].queuing(),
                  record.hops[i].queuing());
        EXPECT_EQ(decoded->hops[i].serving(),
                  record.hops[i].serving());
        EXPECT_EQ(decoded->hops[i].servedMhz,
                  record.hops[i].servedMhz);
        EXPECT_EQ(decoded->hops[i].shardIndex,
                  record.hops[i].shardIndex);
        EXPECT_EQ(decoded->hops[i].shardCount,
                  record.hops[i].shardCount);
        EXPECT_EQ(decoded->hops[i].boosted, record.hops[i].boosted);
        EXPECT_EQ(decoded->hops[i].wasted, record.hops[i].wasted);
    }
}

TEST(StatsCodec, UnknownHopFlagsRejected)
{
    // The flags varint carries exactly two bits today (wasted,
    // boosted); anything else is a corrupt or future-format buffer.
    auto record = sampleRecord();
    record.hops.resize(1);
    WireWriter w;
    w.putSigned(record.queryId);
    w.putSigned(record.arrival.toUsec());
    w.putSigned(record.completed.toUsec());
    w.putVarint(1);
    const HopRecord &hop = record.hops[0];
    w.putSigned(hop.instanceId);
    w.putSigned(hop.stageIndex);
    w.putSigned(hop.enqueued.toUsec());
    w.putSigned(hop.started.toUsec());
    w.putSigned(hop.finished.toUsec());
    w.putSigned(hop.servedMhz);
    w.putVarint(4u); // undefined flag bit
    w.putSigned(hop.shardIndex);
    w.putSigned(hop.shardCount);
    EXPECT_FALSE(decodeStats(w.bytes()).has_value());
}

TEST(StatsCodec, EmptyHopsAllowed)
{
    QueryStatsRecord record;
    record.queryId = 1;
    const auto decoded = decodeStats(encodeStats(record));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(decoded->hops.empty());
}

TEST(StatsCodec, TruncationRejected)
{
    auto bytes = encodeStats(sampleRecord());
    for (std::size_t cut = 1; cut < bytes.size(); cut += 7) {
        std::vector<std::uint8_t> truncated(bytes.begin(),
                                            bytes.begin() +
                                                static_cast<long>(cut));
        EXPECT_FALSE(decodeStats(truncated).has_value())
            << "cut at " << cut;
    }
}

TEST(StatsCodec, TrailingGarbageRejected)
{
    auto bytes = encodeStats(sampleRecord());
    bytes.push_back(0x42);
    EXPECT_FALSE(decodeStats(bytes).has_value());
}

TEST(StatsCodec, AbsurdHopCountRejected)
{
    WireWriter w;
    w.putSigned(1);
    w.putSigned(0);
    w.putSigned(0);
    w.putVarint(1u << 30); // claims a billion hops
    EXPECT_FALSE(decodeStats(w.bytes()).has_value());
}

TEST(StatsCodec, RandomizedRoundTrip)
{
    Rng rng(123);
    for (int trial = 0; trial < 200; ++trial) {
        QueryStatsRecord record;
        record.queryId = rng.uniformInt(-1000000, 1000000);
        record.arrival = SimTime::usec(rng.uniformInt(0, 1000000000));
        record.completed =
            record.arrival + SimTime::usec(rng.uniformInt(0, 10000000));
        const int hops = static_cast<int>(rng.uniformInt(0, 8));
        for (int i = 0; i < hops; ++i) {
            HopRecord hop;
            hop.instanceId = rng.uniformInt(0, 1 << 20);
            hop.stageIndex = static_cast<int>(rng.uniformInt(0, 10));
            hop.enqueued = SimTime::usec(rng.uniformInt(0, 1 << 30));
            hop.started =
                hop.enqueued + SimTime::usec(rng.uniformInt(0, 1 << 20));
            hop.finished =
                hop.started + SimTime::usec(rng.uniformInt(0, 1 << 20));
            record.hops.push_back(hop);
        }
        const auto decoded = decodeStats(encodeStats(record));
        ASSERT_TRUE(decoded.has_value());
        ASSERT_EQ(decoded->hops.size(), record.hops.size());
        EXPECT_EQ(decoded->queryId, record.queryId);
        EXPECT_EQ(decoded->endToEnd(), record.endToEnd());
    }
}

// ------------------------------------------------- end-to-end wire mode

TEST(WireMode, MalformedReportsAreCountedAndDropped)
{
    // A hostile/corrupt stats buffer must not crash or poison the
    // command center — it is counted and ignored.
    Simulator sim;
    const PowerModel model = PowerModel::haswell();
    CmpChip chip(&sim, &model, 8);
    MessageBus bus(&sim);
    const WorkloadModel sirius = WorkloadModel::sirius();
    MultiStageApp app(&sim, &chip, &bus, "sirius",
                      sirius.layout(1, model.ladder().midLevel()));
    const SpeedupBook book =
        OfflineProfiler(20).profileWorkload(sirius, model, 1);
    PowerBudget budget(Watts(13.56), &model);
    CommandCenter center(&sim, &bus, &chip, &app, &budget, &book,
                         ControlConfig{},
                         std::make_unique<StageAgnosticPolicy>());

    bus.send(center.endpoint(),
             std::make_shared<WireStatsMessage>(
                 std::vector<std::uint8_t>{0xff, 0xff, 0xff}));
    // A valid one still gets through afterwards.
    QueryStatsRecord record;
    record.queryId = 1;
    record.completed = SimTime::sec(2);
    bus.send(center.endpoint(),
             std::make_shared<WireStatsMessage>(encodeStats(record)));
    sim.run();
    EXPECT_EQ(center.malformedReports(), 1u);
    EXPECT_EQ(center.queriesObserved(), 1u);
}

TEST(WireMode, RunMatchesObjectModeExactly)
{
    // The controller must behave identically whether reports arrive as
    // in-process objects or as decoded wire bytes.
    Scenario object = Scenario::mitigation(WorkloadModel::sirius(),
                                           LoadLevel::High,
                                           PolicyKind::PowerChief, 7);
    object.duration = SimTime::sec(200);
    Scenario wire = object;
    wire.wireReports = true;

    const ExperimentRunner runner;
    const auto a = runner.run(object);
    const auto b = runner.run(wire);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_DOUBLE_EQ(a.avgLatencySec, b.avgLatencySec);
    EXPECT_DOUBLE_EQ(a.p99LatencySec, b.p99LatencySec);
    EXPECT_DOUBLE_EQ(a.avgPowerWatts, b.avgPowerWatts);
}

} // namespace
} // namespace pc
