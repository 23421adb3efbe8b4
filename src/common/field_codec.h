/**
 * @file
 * Table-driven JSON codec for plain result structs.
 *
 * A struct is described once, next to its definition, by specializing
 * fieldsOf<S> as a tuple of (JSON key, member pointer) rows; encodeJson,
 * decodeJson and addCounters follow from that table, so adding a field
 * means adding one row. Leaves: double, uint64 (a JSON number), bool,
 * string, SimTime (raw microseconds), vectors, string-keyed maps, other
 * described structs, and TimeSeries (stats/timeseries.h). An
 * OptionalField block is written only when its flag is set; decoding it
 * sets the flag.
 *
 * Decoding is strict: a missing row, a wrong JSON type, or a count or
 * time that is negative, fractional or out of range fails the decode.
 */

#ifndef PC_COMMON_FIELD_CODEC_H
#define PC_COMMON_FIELD_CODEC_H

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/json.h"
#include "common/time.h"

namespace pc {

template <class S, class T>
struct Field
{
    const char *name;
    T S::*member;
};

template <class S, class T>
struct OptionalField
{
    const char *name;
    T S::*member;
    bool T::*present;
};

/** S's table of rows; specialized after each described struct. */
template <class S>
inline constexpr auto fieldsOf = nullptr;

template <class S>
concept Described =
    !std::is_null_pointer_v<std::remove_cvref_t<decltype(fieldsOf<S>)>>;

template <Described S, class Fn>
void
forEachField(Fn &&fn)
{
    std::apply([&fn](const auto &...row) { (fn(row), ...); }, fieldsOf<S>);
}

inline JsonValue encodeJson(double v) { return JsonValue(v); }
inline JsonValue encodeJson(bool v) { return JsonValue(v); }
inline JsonValue encodeJson(const std::string &v) { return JsonValue(v); }
inline JsonValue
encodeJson(std::uint64_t v)
{
    return JsonValue(static_cast<double>(v));
}
inline JsonValue
encodeJson(SimTime t)
{
    return JsonValue(static_cast<double>(t.toUsec()));
}

/** Scalar leaves; counts and times must be exact in-range integers. */
template <class T>
    requires std::is_arithmetic_v<T> || std::is_same_v<T, std::string> ||
    std::is_same_v<T, SimTime>
bool
decodeJson(const JsonValue &v, T *out)
{
    if constexpr (std::is_same_v<T, bool>) {
        if (!v.isBool())
            return false;
        *out = v.asBool();
    } else if constexpr (std::is_same_v<T, std::string>) {
        if (!v.isString())
            return false;
        *out = v.asString();
    } else {
        if (!v.isNumber())
            return false;
        const double d = v.asNumber();
        if constexpr (std::is_same_v<T, double>) {
            *out = d;
        } else {
            constexpr bool time = std::is_same_v<T, SimTime>;
            static_assert(time || std::is_same_v<T, std::uint64_t>);
            // Checked before the cast: an out-of-range cast is undefined.
            if (!(d >= (time ? -0x1p63 : 0.0)) ||
                !(d < (time ? 0x1p63 : 0x1p64)) || d != std::floor(d))
                return false;
            if constexpr (time)
                *out = SimTime::usec(static_cast<std::int64_t>(d));
            else
                *out = static_cast<std::uint64_t>(d);
        }
    }
    return true;
}

template <class T>
JsonValue
encodeJson(const std::vector<T> &v)
{
    JsonArray arr;
    arr.reserve(v.size());
    for (const auto &e : v)
        arr.push_back(encodeJson(e));
    return JsonValue(std::move(arr));
}

template <class T>
bool
decodeJson(const JsonValue &v, std::vector<T> *out)
{
    if (!v.isArray())
        return false;
    out->assign(v.asArray().size(), T{});
    for (std::size_t i = 0; i < out->size(); ++i)
        if (!decodeJson(v.asArray()[i], &(*out)[i]))
            return false;
    return true;
}

template <class T>
JsonValue
encodeJson(const std::map<std::string, T> &m)
{
    JsonObject obj;
    for (const auto &[key, e] : m)
        obj.emplace(key, encodeJson(e));
    return JsonValue(std::move(obj));
}

template <class T>
bool
decodeJson(const JsonValue &v, std::map<std::string, T> *out)
{
    if (!v.isObject())
        return false;
    out->clear();
    for (const auto &[key, e] : v.asObject())
        if (!decodeJson(e, &(*out)[key]))
            return false;
    return true;
}

template <Described S>
JsonValue
encodeJson(const S &s)
{
    JsonObject obj;
    forEachField<S>([&](const auto &row) {
        if constexpr (requires { row.present; }) {
            if (!((s.*row.member).*row.present))
                return;
        }
        obj.emplace(row.name, encodeJson(s.*row.member));
    });
    return JsonValue(std::move(obj));
}

template <Described S>
bool
decodeJson(const JsonValue &v, S *out)
{
    if (!v.isObject())
        return false;
    bool ok = true;
    forEachField<S>([&](const auto &row) {
        if (!ok)
            return;
        const JsonValue *field = v.find(row.name);
        if constexpr (requires { row.present; }) {
            if (!field)
                return; // not collected
            (out->*row.member).*row.present = true;
        }
        ok = field && decodeJson(*field, &(out->*row.member));
    });
    return ok;
}

/** Add every uint64 counter row of @p from into @p into. */
template <Described S>
void
addCounters(S *into, const S &from)
{
    forEachField<S>([&](const auto &row) {
        if constexpr (std::is_same_v<decltype(from.*row.member),
                                     const std::uint64_t &>)
            into->*row.member += from.*row.member;
    });
}

} // namespace pc

#endif // PC_COMMON_FIELD_CODEC_H
