#include "exp/result_cache.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/canonical_text.h"
#include "common/logging.h"

namespace pc {

namespace fs = std::filesystem;

std::uint64_t
fnv1a64(const std::string &text)
{
    std::uint64_t hash = 1469598103934665603ull;
    for (const char c : text) {
        hash ^= static_cast<std::uint8_t>(c);
        hash *= 1099511628211ull;
    }
    return hash;
}

std::optional<std::string>
scenarioCanonical(const Scenario &sc)
{
    // Factory overrides are opaque code: no canonical form, no caching.
    if (sc.metricFactory || sc.recycleFactory)
        return std::nullopt;

    std::string out = "scenario-v1|";
    out += sc.name;
    out += "|workload:";
    out += sc.workload.name();
    for (const auto &stage : sc.workload.stages()) {
        out += "{" + stage.name + ",";
        appendNum(&out, stage.meanServiceSec);
        appendNum(&out, stage.cv);
        appendNum(&out, stage.computeFraction);
        appendInt(&out, stage.profiledMhz);
        appendNum(&out, stage.participation);
        appendInt(&out, static_cast<long long>(stage.kind));
        appendNum(&out, stage.shardCv);
        out += "}";
    }
    out += "|";
    out += sc.load.canonical();
    out += "|policy:";
    appendInt(&out, static_cast<long long>(sc.policy));
    appendInt(&out, sc.fixedStage);
    appendInt(&out, static_cast<long long>(sc.fixedTechnique));
    appendNum(&out, sc.qosTargetSec);
    appendInt(&out, sc.qosUseTail ? 1 : 0);
    out += "|chip:";
    appendInt(&out, sc.numCores);
    appendNum(&out, sc.powerBudget.value());
    out += "|layout:";
    for (const int count : sc.initialCounts)
        appendInt(&out, count);
    out += ";";
    appendInt(&out, sc.initialLevel);
    for (const int level : sc.initialLevels)
        appendInt(&out, level);
    out += "|dispatch:";
    appendInt(&out, static_cast<long long>(sc.dispatch));
    appendInt(&out, sc.wireReports ? 1 : 0);
    out += "|interference:";
    appendNum(&out, sc.interference.alphaPerCore);
    appendInt(&out, sc.interference.freeCores);
    out += "|control:";
    appendTime(&out, sc.control.adjustInterval);
    appendTime(&out, sc.control.withdrawInterval);
    appendTime(&out, sc.control.statsWindow);
    appendNum(&out, sc.control.balanceThresholdSec);
    appendTime(&out, sc.control.e2eWindow);
    appendInt(&out, sc.control.enableWithdraw ? 1 : 0);
    // Appended only when set so historical cache keys stay valid.
    if (sc.control.staleWindow > SimTime::zero()) {
        out += "stale:";
        appendTime(&out, sc.control.staleWindow);
    }
    if (sc.faults.active) {
        out += "|";
        out += sc.faults.canonical();
    }
    // Sharded topology is part of what is simulated (each node group is
    // a full replica plus the cross-group spray); appended only when
    // nodeGroups > 1 so single-node keys keep their historical form.
    // The --shards worker count is deliberately absent: it cannot
    // change results.
    if (sc.nodeGroups > 1) {
        out += "|nodes:";
        appendInt(&out, sc.nodeGroups);
        appendNum(&out, sc.remoteFraction);
        appendTime(&out, sc.interNodeLatency);
        // Per-group load skew changes every group's arrival curve;
        // appended only when set so unskewed keys keep their form.
        if (!sc.groupLoadScale.empty()) {
            out += "scale:";
            for (const double s : sc.groupLoadScale)
                appendNum(&out, s);
        }
    }
    // Cluster arbitration retargets every node's budget mid-run —
    // emphatically result-affecting. Appended only when a cluster
    // policy is active so pre-cluster keys keep their historical form.
    if (sc.clusterPolicy != ClusterPolicyKind::None) {
        out += "|cluster:";
        out += toString(sc.clusterPolicy);
        out += ",";
        appendTime(&out, sc.rebalanceInterval);
        appendNum(&out, sc.clusterBudget.value());
    }
    out += "|run:";
    appendTime(&out, sc.duration);
    appendTime(&out, sc.warmup);
    appendInt(&out, static_cast<long long>(sc.seed));
    return out;
}

JsonValue
runResultToJson(const RunResult &result)
{
    return encodeJson(result);
}

std::optional<RunResult>
runResultFromJson(const JsonValue &doc)
{
    RunResult result;
    if (!decodeJson(doc, &result))
        return std::nullopt;
    return result;
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {}

std::string
ResultCache::pathFor(const std::string &key) const
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(key)));
    return (fs::path(dir_) / (std::string(buf) + ".json")).string();
}

std::optional<RunResult>
ResultCache::load(const std::string &key) const
{
    std::ifstream in(pathFor(key));
    if (!in)
        return std::nullopt;
    std::ostringstream text;
    text << in.rdbuf();
    const JsonParseResult parsed = parseJson(text.str());
    if (!parsed.ok()) {
        logWarn("result cache: unparsable entry '%s' ignored",
                pathFor(key).c_str());
        return std::nullopt;
    }
    // Guard against hash collisions and stale schema: the entry must
    // carry the exact canonical key it was stored under.
    if (parsed.value->stringOr("key", "") != key)
        return std::nullopt;
    const JsonValue *result = parsed.value->find("result");
    if (!result)
        return std::nullopt;
    return runResultFromJson(*result);
}

void
ResultCache::store(const std::string &key, const RunResult &result) const
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec) {
        logWarn("result cache: cannot create '%s': %s", dir_.c_str(),
                ec.message().c_str());
        return;
    }
    JsonObject entry;
    entry.emplace("key", key);
    entry.emplace("result", runResultToJson(result));

    // Unique temp name per thread, then atomic rename: concurrent
    // stores of the same key are harmless (identical content).
    std::ostringstream tid;
    tid << std::this_thread::get_id();
    const std::string path = pathFor(key);
    const std::string tmp = path + ".tmp." + tid.str();
    {
        std::ofstream out(tmp);
        if (!out) {
            logWarn("result cache: cannot write '%s'", tmp.c_str());
            return;
        }
        out << JsonValue(std::move(entry)).dump();
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        logWarn("result cache: rename to '%s' failed: %s", path.c_str(),
                ec.message().c_str());
        fs::remove(tmp, ec);
    }
}

} // namespace pc
