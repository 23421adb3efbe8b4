/**
 * @file
 * Process-wide heap-allocation counter (alloc_count.cc replaces the
 * global operator new/delete).
 */

#ifndef PERFBENCH_ALLOC_COUNT_H
#define PERFBENCH_ALLOC_COUNT_H

#include <cstdint>

namespace perfbench {

struct AllocTotals
{
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
};

/** Start or stop counting operator new calls (all threads). */
void setAllocCounting(bool on);

/** Allocations counted so far (monotonic). */
AllocTotals allocTotals();

} // namespace perfbench

#endif // PERFBENCH_ALLOC_COUNT_H
