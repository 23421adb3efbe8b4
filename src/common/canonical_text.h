/**
 * @file
 * Cache-key text fragments (scenarioCanonical, FaultPlan::canonical):
 * each value rendered exactly — doubles at %.17g, times as raw
 * microseconds — and followed by a comma.
 */

#ifndef PC_COMMON_CANONICAL_TEXT_H
#define PC_COMMON_CANONICAL_TEXT_H

#include <cstdio>
#include <string>

#include "common/time.h"

namespace pc {

inline void
appendNum(std::string *out, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g,", v);
    *out += buf;
}

inline void
appendInt(std::string *out, long long v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld,", v);
    *out += buf;
}

inline void
appendTime(std::string *out, SimTime t)
{
    appendInt(out, static_cast<long long>(t.toUsec()));
}

} // namespace pc

#endif // PC_COMMON_CANONICAL_TEXT_H
