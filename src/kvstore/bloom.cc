#include "kvstore/bloom.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/xxhash.hh"

namespace ethkv::kv
{

BloomFilter::BloomFilter(size_t expected_keys, size_t bits_per_key)
{
    if (expected_keys == 0)
        expected_keys = 1;
    bit_count_ = std::max<size_t>(64, expected_keys * bits_per_key);
    // Round up to a whole byte so the serialized form (which can
    // only carry whole bytes) reconstructs the same modulus.
    bit_count_ = (bit_count_ + 7) & ~size_t{7};
    // Optimal k = ln(2) * bits/key, clamped to a sane range.
    hash_count_ = std::clamp<size_t>(
        static_cast<size_t>(bits_per_key * 0.69), 1, 16);
    bits_.assign((bit_count_ + 7) / 8, 0);
}

BloomFilter
BloomFilter::fromBytes(BytesView data)
{
    if (data.size() < 2)
        panic("BloomFilter::fromBytes: truncated filter");
    BloomFilter f;
    f.hash_count_ = static_cast<uint8_t>(data[0]);
    if (f.hash_count_ == 0 || f.hash_count_ > 16)
        panic("BloomFilter::fromBytes: bad hash count");
    f.bits_.assign(data.begin() + 1, data.end());
    f.bit_count_ = f.bits_.size() * 8;
    return f;
}

BloomFilter::KeyHash
BloomFilter::hashKey(BytesView key)
{
    return {xxhash64(key, 0), xxhash64(key, 0x9e3779b97f4a7c15ULL)};
}

void
BloomFilter::add(const KeyHash &h)
{
    for (size_t i = 0; i < hash_count_; ++i) {
        uint64_t bit = (h.h1 + i * h.h2) % bit_count_;
        bits_[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
    }
}

bool
BloomFilter::mayContain(BytesView key) const
{
    const KeyHash h = hashKey(key);
    for (size_t i = 0; i < hash_count_; ++i) {
        uint64_t bit = (h.h1 + i * h.h2) % bit_count_;
        if (!(bits_[bit / 8] & (1u << (bit % 8))))
            return false;
    }
    return true;
}

Bytes
BloomFilter::toBytes() const
{
    Bytes out;
    out.reserve(1 + bits_.size());
    out.push_back(static_cast<char>(hash_count_));
    out.append(reinterpret_cast<const char *>(bits_.data()),
               bits_.size());
    return out;
}

} // namespace ethkv::kv
