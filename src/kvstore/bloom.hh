/**
 * @file
 * Bloom filter for SSTable point-lookup short-circuiting.
 *
 * Each SSTable carries a per-file bloom filter so that a get() for an
 * absent key skips the file without touching its blocks — the same
 * role Pebble's table filters play in Geth.
 */

#ifndef ETHKV_KVSTORE_BLOOM_HH
#define ETHKV_KVSTORE_BLOOM_HH

#include <cstdint>
#include <vector>

#include "common/bytes.hh"

namespace ethkv::kv
{

/**
 * Classic Bloom filter using double hashing over xxhash64.
 */
class BloomFilter
{
  public:
    /**
     * Size the filter for an expected key count.
     *
     * @param expected_keys Number of keys the filter will hold.
     * @param bits_per_key Bits allocated per key (10 ≈ 1% FPR).
     */
    explicit BloomFilter(size_t expected_keys,
                         size_t bits_per_key = 10);

    /** Reconstruct a filter from its serialized bits. */
    static BloomFilter fromBytes(BytesView data);

    /** The two base hashes every probe of a key derives from. */
    struct KeyHash
    {
        uint64_t h1;
        uint64_t h2;
    };

    static KeyHash hashKey(BytesView key);

    /** Insert a key. */
    void add(BytesView key) { add(hashKey(key)); }

    /** Insert a key by its hashes; sets the bits add(key) would. */
    void add(const KeyHash &h);

    /** @return false iff the key is definitely absent. */
    bool mayContain(BytesView key) const;

    /** Serialize the filter (hash count + bit array). */
    Bytes toBytes() const;

    size_t bitCount() const { return bit_count_; }

  private:
    BloomFilter() = default;

    size_t bit_count_ = 0;
    size_t hash_count_ = 0;
    std::vector<uint8_t> bits_;
};

} // namespace ethkv::kv

#endif // ETHKV_KVSTORE_BLOOM_HH
