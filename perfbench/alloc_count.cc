/**
 * @file
 * Global operator new/delete replacements that count heap allocations
 * made anywhere in the benchmark process (simulator libraries
 * included). Counting is off unless a traced pass switches it on, so
 * untraced runs pay one predictable branch per allocation.
 */

#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {

namespace {

/**
 * Per-thread-slot counters on their own cache lines, so shard workers
 * allocating concurrently do not contend on one counter.
 */
struct alignas(64) Slot
{
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> bytes{0};
};

constexpr int kSlots = 64;
Slot slots[kSlots];
std::atomic<int> nextSlot{0};
thread_local int mySlot = -1;
std::atomic<bool> counting{false};

void
noteAlloc(std::size_t size)
{
    if (!counting.load(std::memory_order_relaxed))
        return;
    if (mySlot < 0)
        mySlot = nextSlot.fetch_add(1, std::memory_order_relaxed) % kSlots;
    Slot &slot = slots[mySlot];
    slot.count.fetch_add(1, std::memory_order_relaxed);
    slot.bytes.fetch_add(size, std::memory_order_relaxed);
}

} // namespace

void
setAllocCounting(bool on)
{
    counting.store(on, std::memory_order_relaxed);
}

AllocTotals
allocTotals()
{
    AllocTotals totals;
    for (const Slot &slot : slots) {
        totals.count += slot.count.load(std::memory_order_relaxed);
        totals.bytes += slot.bytes.load(std::memory_order_relaxed);
    }
    return totals;
}

} // namespace perfbench

namespace {

using perfbench::noteAlloc;

void *
allocOrThrow(std::size_t size)
{
    noteAlloc(size);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
alignedAllocOrThrow(std::size_t size, std::align_val_t align)
{
    noteAlloc(size);
    const auto a = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded = (size + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded == 0 ? a : rounded))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return allocOrThrow(size); }
void *operator new[](std::size_t size) { return allocOrThrow(size); }

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    noteAlloc(size);
    return std::malloc(size == 0 ? 1 : size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    noteAlloc(size);
    return std::malloc(size == 0 ? 1 : size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return alignedAllocOrThrow(size, align);
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return alignedAllocOrThrow(size, align);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
