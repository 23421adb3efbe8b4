/**
 * @file
 * Golden-trace regression: the Fig. 11 runtime trace for a fixed seed,
 * serialized through the result-cache JSON codec, must replay
 * byte-for-byte against its pinned file in tests/golden/ — for
 * PowerChief and for the FastCap/CuttleSys rival policies.
 *
 * Any change to the simulator's event ordering, the RNG streams, the
 * control loop, or the JSON codec shows up here as a byte diff.
 * To regenerate after an *intentional* behaviour change:
 *
 *   PC_UPDATE_GOLDEN=1 ./tests/test_golden_trace
 *
 * and commit the rewritten golden files with the change that caused it.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "exp/result_cache.h"
#include "exp/runner.h"

namespace pc {
namespace {

struct GoldenCase
{
    PolicyKind policy;
    /** File name under tests/golden/. */
    const char *file;
};

// PowerChief keeps its historical file name; the rivals pin
// <policy>_fig11_trace.json, the names trace-diff --fresh-golden and
// the ctest tolerance gates use.
const GoldenCase kGoldenCases[] = {
    {PolicyKind::PowerChief, "fig11_trace.json"},
    {PolicyKind::FastCap, "fastcap_fig11_trace.json"},
    {PolicyKind::CuttleSys, "cuttlesys_fig11_trace.json"},
};

std::string
goldenPath(const char *file)
{
    return std::string(PC_SOURCE_DIR) + "/golden/" + file;
}

class GoldenTrace : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(GoldenTrace, Fig11ReplaysByteStable)
{
    const GoldenCase &gc = GetParam();
    // The pinned scenarios live in Scenario::goldenFig11For() so the
    // trace-diff tolerance gates replay the identical runs.
    const ExperimentRunner runner(/*recordTraces=*/true);
    const std::string fresh =
        runResultToJson(
            runner.run(Scenario::goldenFig11For(gc.policy)))
            .dump() +
        "\n";

    if (std::getenv("PC_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(goldenPath(gc.file), std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << goldenPath(gc.file);
        out << fresh;
        GTEST_SKIP() << "golden file regenerated";
    }

    std::ifstream in(goldenPath(gc.file), std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing " << goldenPath(gc.file)
        << " — run with PC_UPDATE_GOLDEN=1 to create it";
    std::ostringstream stored;
    stored << in.rdbuf();

    // Byte equality, not structural equality: the golden file also
    // pins the serialization format.
    EXPECT_EQ(stored.str(), fresh)
        << "Fig. 11 trace diverged from tests/golden/" << gc.file
        << ". If the behaviour change is intentional, regenerate with "
           "PC_UPDATE_GOLDEN=1.";
}

TEST_P(GoldenTrace, GoldenFileParsesAndRoundTrips)
{
    const GoldenCase &gc = GetParam();
    std::ifstream in(goldenPath(gc.file), std::ios::binary);
    if (!in.good())
        GTEST_SKIP() << "golden file not generated yet";
    std::ostringstream stored;
    stored << in.rdbuf();

    std::string text = stored.str();
    if (!text.empty() && text.back() == '\n')
        text.pop_back();
    const JsonParseResult doc = parseJson(text);
    ASSERT_TRUE(doc.ok()) << doc.error;
    const std::optional<RunResult> result =
        runResultFromJson(*doc.value);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(runResultToJson(*result).dump(), text);
    EXPECT_GT(result->completed, 0u);
    EXPECT_FALSE(result->latencySeries.points().empty());
}

INSTANTIATE_TEST_SUITE_P(
    Policies, GoldenTrace, ::testing::ValuesIn(kGoldenCases),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        switch (info.param.policy) {
          case PolicyKind::PowerChief: return std::string("PowerChief");
          case PolicyKind::FastCap: return std::string("FastCap");
          case PolicyKind::CuttleSys: return std::string("CuttleSys");
          default: return std::string("Unknown");
        }
    });

/**
 * The golden files above pin the no-collector result only. This pins
 * the full-collector result — traces, tail attribution, audit and
 * critpath summaries, SLO report — on the same scenarios, clean and
 * under a lossy fault plan, as an fnv1a64 fingerprint of the serialized
 * RunResult. A deliberate behaviour change re-pins the hashes printed
 * by the failure message.
 */
struct CollectorPin
{
    PolicyKind policy;
    bool lossy;
    std::uint64_t hash;
};

const CollectorPin kCollectorPins[] = {
    {PolicyKind::PowerChief, false, 0x74fdfbd64befc2e5ull},
    {PolicyKind::PowerChief, true, 0xdeb724a8883dbdd9ull},
    {PolicyKind::FastCap, false, 0x60aeb64710732aeeull},
    {PolicyKind::FastCap, true, 0x6933910054e6c194ull},
    {PolicyKind::CuttleSys, false, 0xfb1f753abd14d5b5ull},
    {PolicyKind::CuttleSys, true, 0x47c88d43ec6d2cb6ull},
};

Scenario
collectorScenario(const CollectorPin &pin)
{
    Scenario sc = Scenario::goldenFig11For(pin.policy);
    if (pin.lossy) {
        sc.faults.active = true;
        sc.faults.seed = 23;
        BusFaultRule bus;
        bus.dropRate = 0.03;
        bus.reorderRate = 0.1;
        bus.reorderJitterMax = SimTime::msec(5);
        sc.faults.bus.push_back(bus);
        sc.faults.telemetry.staleRate = 0.1;
        sc.faults.telemetry.truncateRate = 0.05;
        sc.faults.telemetry.perfCtlFailRate = 0.2;
        sc.wireReports = true;
        sc.control.staleWindow = SimTime::sec(60);
        sc.name += "/lossy";
    }
    return sc;
}

class CollectorFingerprint : public ::testing::TestWithParam<CollectorPin>
{
};

TEST_P(CollectorFingerprint, FullCollectorResultIsPinned)
{
    const CollectorPin &pin = GetParam();
    SloConfig slo;
    slo.enabled = true;
    const ExperimentRunner runner(/*recordTraces=*/true, SimTime::sec(5),
                                  /*attribution=*/true,
                                  /*collectAudit=*/true, slo,
                                  /*collectCritPath=*/true);
    const RunResult r = runner.run(collectorScenario(pin));
    ASSERT_TRUE(r.tailAttribution.enabled);
    ASSERT_TRUE(r.audit.collected);
    ASSERT_TRUE(r.critpath.collected);
    ASSERT_TRUE(r.slo.collected);
    ASSERT_FALSE(r.latencySeries.points().empty());
    char fresh[32];
    std::snprintf(fresh, sizeof(fresh), "0x%016llxull",
                  static_cast<unsigned long long>(
                      fnv1a64(runResultToJson(r).dump())));
    char pinned[32];
    std::snprintf(pinned, sizeof(pinned), "0x%016llxull",
                  static_cast<unsigned long long>(pin.hash));
    EXPECT_STREQ(pinned, fresh)
        << "full-collector result of " << toString(pin.policy)
        << (pin.lossy ? " (lossy)" : " (clean)") << " diverged";
}

INSTANTIATE_TEST_SUITE_P(
    Policies, CollectorFingerprint, ::testing::ValuesIn(kCollectorPins),
    [](const ::testing::TestParamInfo<CollectorPin> &info) {
        return std::string(toString(info.param.policy)) +
            (info.param.lossy ? "_lossy" : "_clean");
    });

} // namespace
} // namespace pc
