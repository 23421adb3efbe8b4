#include "rpc/wire.h"

namespace pc {

void
WireWriter::putVarint(std::uint64_t value)
{
    while (value >= 0x80) {
        buf_.push_back(static_cast<std::uint8_t>(value) | 0x80);
        value >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(value));
}

void
WireWriter::putSigned(std::int64_t value)
{
    const auto u = static_cast<std::uint64_t>(value);
    putVarint((u << 1) ^ static_cast<std::uint64_t>(value >> 63));
}

bool
WireReader::getVarint(std::uint64_t *out)
{
    if (!ok_)
        return false;
    std::uint64_t value = 0;
    int shift = 0;
    while (pos_ < buf_.size() && shift < 64) {
        const std::uint8_t byte = buf_[pos_++];
        value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80)) {
            *out = value;
            return true;
        }
        shift += 7;
    }
    ok_ = false;
    return false;
}

bool
WireReader::getSigned(std::int64_t *out)
{
    std::uint64_t u = 0;
    if (!getVarint(&u))
        return false;
    *out = static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
    return true;
}

} // namespace pc
