/**
 * @file
 * LEB128-style varint encoding for on-disk record formats.
 *
 * Used by the WAL, SSTable, freezer, and trace file layouts. Header
 * only: the functions are tiny and hot.
 */

#ifndef ETHKV_COMMON_VARINT_HH
#define ETHKV_COMMON_VARINT_HH

#include <cstddef>
#include <cstdint>

#include "common/bytes.hh"

namespace ethkv
{

/** Append v as an unsigned LEB128 varint. */
inline void
appendVarint(Bytes &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<char>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

/** Bytes appendVarint(out, v) appends. */
inline size_t
varintLength(uint64_t v)
{
    size_t n = 1;
    while (v >= 0x80) {
        v >>= 7;
        ++n;
    }
    return n;
}

/** Write v as a varint at dst, which must have varintLength(v)
 *  bytes; returns the byte just past it. */
inline char *
encodeVarint(char *dst, uint64_t v)
{
    while (v >= 0x80) {
        *dst++ = static_cast<char>((v & 0x7f) | 0x80);
        v >>= 7;
    }
    *dst++ = static_cast<char>(v);
    return dst;
}

/**
 * Decode a varint starting at pos; advances pos past it.
 *
 * @return true on success; false if the buffer is truncated or the
 *         value overflows 64 bits.
 */
inline bool
readVarint(BytesView data, size_t &pos, uint64_t &out)
{
    uint64_t v = 0;
    int shift = 0;
    while (pos < data.size()) {
        uint8_t b = static_cast<uint8_t>(data[pos++]);
        if (shift == 63 && (b & 0x7e) != 0)
            return false; // overflow
        v |= static_cast<uint64_t>(b & 0x7f) << shift;
        if ((b & 0x80) == 0) {
            out = v;
            return true;
        }
        shift += 7;
        if (shift > 63)
            return false;
    }
    return false;
}

} // namespace ethkv

#endif // ETHKV_COMMON_VARINT_HH
