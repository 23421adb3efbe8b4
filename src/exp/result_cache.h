/**
 * @file
 * Content-addressed on-disk cache of experiment results.
 *
 * A sweep point is identified by the canonical text description of its
 * scenario (every field that can influence the simulation, doubles
 * rendered with full precision) plus the runner settings; the cache
 * stores the run's RunResult as JSON under <dir>/<fnv1a-hex>.json.
 * Re-running an unchanged sweep point loads the stored result instead
 * of simulating — byte-identical to a fresh run, because the JSON
 * codec round-trips every double exactly and SimTime as raw
 * microseconds.
 *
 * The codec is generated from one field table per result struct
 * (fieldsOf<RunResult> and its blocks' tables; common/field_codec.h).
 * Adding a field means adding one table row: encode, decode and the
 * fleet merge's counter sums all follow from it. Decoding is strict —
 * an entry missing any field, or holding a wrong-typed, negative,
 * fractional or out-of-range count or timestamp, loads as a miss and
 * the point re-simulates.
 *
 * Scenarios carrying opaque factory overrides (ablation metric/recycle
 * hooks) have no canonical form and are never cached.
 */

#ifndef PC_EXP_RESULT_CACHE_H
#define PC_EXP_RESULT_CACHE_H

#include <cstdint>
#include <optional>
#include <string>

#include "common/json.h"
#include "exp/runner.h"

namespace pc {

/** FNV-1a 64-bit hash of @p text. */
std::uint64_t fnv1a64(const std::string &text);

/**
 * Canonical description of a scenario — equal scenarios yield equal
 * strings, and any field change changes the string.
 *
 * @return nullopt when the scenario is uncacheable (factory overrides).
 */
std::optional<std::string> scenarioCanonical(const Scenario &sc);

/** Serialize a RunResult (including traces) to JSON. */
JsonValue runResultToJson(const RunResult &result);

/** Parse a RunResult back; nullopt when the document is malformed. */
std::optional<RunResult> runResultFromJson(const JsonValue &doc);

class ResultCache
{
  public:
    /** @param dir created on first store; missing dir = all misses. */
    explicit ResultCache(std::string dir);

    /** Look up a result by its cache key (canonical description). */
    std::optional<RunResult> load(const std::string &key) const;

    /** Persist a result under @p key (atomic rename; best effort). */
    void store(const std::string &key, const RunResult &result) const;

    /** The on-disk file backing @p key. */
    std::string pathFor(const std::string &key) const;

    const std::string &dir() const { return dir_; }

  private:
    std::string dir_;
};

} // namespace pc

#endif // PC_EXP_RESULT_CACHE_H
