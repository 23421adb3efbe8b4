/**
 * @file
 * Compact binary wire format (LEB128 varint/zigzag), Thrift-compact
 * style. Used to serialize the extended query structure when latency
 * reports cross address spaces (distributed stages, §8.5): unlike the
 * in-process shared-pointer path, nothing but bytes travels.
 */

#ifndef PC_RPC_WIRE_H
#define PC_RPC_WIRE_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pc {

class WireWriter
{
  public:
    /** LEB128 unsigned varint. */
    void putVarint(std::uint64_t value);

    /** ZigZag-mapped signed varint. */
    void putSigned(std::int64_t value);

    const std::vector<std::uint8_t> &bytes() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<std::uint8_t> buf_;
};

/**
 * Bounds-checked reader. Getters return false on truncated or
 * malformed input and leave the output untouched; ok() latches any
 * failure so a decode can be validated once at the end.
 */
class WireReader
{
  public:
    explicit WireReader(const std::vector<std::uint8_t> &bytes)
        : buf_(bytes)
    {
    }

    bool getVarint(std::uint64_t *out);
    bool getSigned(std::int64_t *out);

    bool ok() const { return ok_; }
    bool exhausted() const { return pos_ == buf_.size(); }

  private:
    const std::vector<std::uint8_t> &buf_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace pc

#endif // PC_RPC_WIRE_H
