/**
 * @file
 * Exact order statistics by selection (ExactPercentile, MovingWindow).
 *
 * std::nth_element places the k-th smallest value at index k in O(n)
 * expected time, and the (k+1)-th is the minimum of the part to its
 * right, so a quantile interpolated from the two is bit-identical to
 * one read from a sorted buffer. Each selection leaves the buffer
 * partitioned at k, so the next quantile of the same buffer (p50, then
 * p90, then p99) only searches the side of k that holds its rank.
 */

#ifndef PC_STATS_SELECT_H
#define PC_STATS_SELECT_H

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

namespace pc {

/** The buffer is not known to be partitioned anywhere. */
inline constexpr std::size_t kNoPivot =
    std::numeric_limits<std::size_t>::max();

/**
 * Move the @p k-th smallest value of @p v to index @p k, searching only
 * the side of @p pivot (an index @p v is partitioned at, or kNoPivot)
 * that holds it; @p pivot becomes @p k.
 */
inline void
selectNth(std::vector<double> &v, std::size_t k, std::size_t &pivot)
{
    const auto begin = v.begin();
    const auto nth = begin + static_cast<std::ptrdiff_t>(k);
    if (pivot == kNoPivot)
        std::nth_element(begin, nth, v.end());
    else if (k > pivot)
        std::nth_element(begin + static_cast<std::ptrdiff_t>(pivot) + 1,
                         nth, v.end());
    else if (k < pivot)
        std::nth_element(begin, nth,
                         begin + static_cast<std::ptrdiff_t>(pivot));
    pivot = k;
}

/** The (k+1)-th smallest value of @p v, after selectNth(v, k, ...). */
inline double
nextAfterNth(const std::vector<double> &v, std::size_t k)
{
    return *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(k) + 1,
                             v.end());
}

} // namespace pc

#endif // PC_STATS_SELECT_H
