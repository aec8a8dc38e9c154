/**
 * @file
 * Sorted string table (SSTable) file format: the on-disk unit of the
 * LSM engine.
 *
 * Layout (all offsets from the start of the file):
 *
 *   [data block]*      entries in ascending key order
 *   [filter block]     serialized BloomFilter over user keys
 *   [index block]      per data block: last key, offset, size
 *   [props block]      smallest/largest key, counts, max seq
 *   [footer]           6 x BE64 offsets/lengths + BE64 magic
 *
 * Data block entry: varint klen, varint vlen, u8 type, varint seq,
 * key bytes, value bytes. Blocks are cut at ~4 KiB boundaries; the
 * index allows binary search to the single block that may contain a
 * key, and the bloom filter short-circuits absent keys entirely.
 */

#ifndef ETHKV_KVSTORE_SSTABLE_HH
#define ETHKV_KVSTORE_SSTABLE_HH

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hh"
#include "common/env.hh"
#include "common/status.hh"
#include "kvstore/bloom.hh"
#include "kvstore/entry.hh"
#include "kvstore/internal_iterator.hh"

namespace ethkv::kv
{

/** Summary metadata persisted in the props block. */
struct SSTableProps
{
    Bytes smallest_key;
    Bytes largest_key;
    uint64_t entry_count = 0;
    uint64_t tombstone_count = 0;
    uint64_t max_seq = 0;
    uint64_t data_bytes = 0;
};

/**
 * Streaming SSTable writer; keys must be added in strictly
 * ascending order.
 */
class SSTableWriter
{
  public:
    /**
     * Begin writing a table file. The bloom filter is sized in
     * finish() from the number of keys actually added, at 10 bits
     * per key.
     *
     * @param path Destination file (truncated if present).
     * @param env Filesystem to use; nullptr = Env::defaultEnv().
     */
    static Result<std::unique_ptr<SSTableWriter>> create(
        const std::string &path, Env *env = nullptr);

    ~SSTableWriter();

    SSTableWriter(const SSTableWriter &) = delete;
    SSTableWriter &operator=(const SSTableWriter &) = delete;

    /** Append one entry; key must exceed the previous key. The
     *  views need only live for the call. */
    Status add(const EntryView &entry);

    /**
     * Flush blocks, write filter/index/props/footer, fsync, close.
     *
     * The sync is part of the contract: once finish() returns Ok
     * the table's bytes are durable, so the manifest may reference
     * it (the directory entry still needs a dir sync, which the
     * manifest commit performs).
     */
    Status finish();

    const SSTableProps &props() const { return props_; }
    uint64_t fileBytes() const { return file_offset_; }

  private:
    SSTableWriter(std::string path,
                  std::unique_ptr<WritableFile> file);

    Status flushBlock();

    static constexpr size_t block_target_bytes = 4096;

    std::string path_;
    std::unique_ptr<WritableFile> file_;
    //!< One hash pair per added key; the filter is built from them
    //!< in finish(), once the key count is known.
    std::vector<BloomFilter::KeyHash> key_hashes_;
    Bytes block_;
    bool finished_ = false;

    struct IndexEntry
    {
        Bytes last_key;
        uint64_t offset;
        uint64_t size;
    };
    std::vector<IndexEntry> index_;

    uint64_t file_offset_ = 0;
    SSTableProps props_;
};

/**
 * Random-access and sequential reader over a finished table file.
 *
 * The index, filter, and props load eagerly; data blocks are read on
 * demand and are not cached here (the LSM layer decides caching).
 */
class SSTableReader
{
  public:
    /** @param env Filesystem to use; nullptr = Env::defaultEnv(). */
    static Result<std::unique_ptr<SSTableReader>> open(
        const std::string &path, Env *env = nullptr);

    ~SSTableReader();

    SSTableReader(const SSTableReader &) = delete;
    SSTableReader &operator=(const SSTableReader &) = delete;

    /** What point lookups cost, summed over the tables probed. */
    struct GetCost
    {
        //! Tables whose key range covers the key (so the filter was
        //! consulted).
        uint64_t tables_probed = 0;
        //! Of those, tables whose bloom filter ruled the key out.
        uint64_t bloom_negatives = 0;
        //! Data-block bytes read; every probe the filter lets
        //! through reads exactly one block.
        uint64_t block_bytes = 0;
    };

    /**
     * Point lookup.
     *
     * Walks the key's block in place and copies out only the
     * match; every entry of the block is still validated, so a
     * malformed entry anywhere in it returns Corruption.
     *
     * @param entry Receives the entry (possibly a tombstone).
     * @param cost If set, this lookup's cost is added to it.
     * @return NotFound if this table has no entry for the key.
     */
    Status get(BytesView key, InternalEntry &entry,
               GetCost *cost = nullptr);

    /** Bloom-filter check; false means definitely absent. */
    bool mayContain(BytesView key) const;

    /** Cursor over the whole table. */
    std::unique_ptr<InternalIterator> newIterator();

    const SSTableProps &props() const { return props_; }
    const std::string &path() const { return path_; }
    uint64_t fileBytes() const { return file_bytes_; }
    uint64_t filterBytes() const { return filter_bytes_; }

    /** Bytes fetched from disk by this reader so far. */
    uint64_t bytesRead() const
    {
        return bytes_read_.load(std::memory_order_relaxed);
    }

  private:
    friend class SSTableIterator;

    SSTableReader(std::string path,
                  std::unique_ptr<RandomAccessFile> file);

    Status load(uint64_t file_bytes);

    /** Read data block i's raw bytes into block (resized). */
    Status readBlockBytes(size_t block_idx, Bytes &block);

    /** Index of the first block whose last key >= target, or -1. */
    int findBlock(BytesView target) const;

    struct IndexEntry
    {
        Bytes last_key;
        uint64_t offset;
        uint64_t size;
    };

    std::string path_;
    std::unique_ptr<RandomAccessFile> file_;
    std::vector<IndexEntry> index_;
    std::unique_ptr<BloomFilter> filter_;
    SSTableProps props_;
    uint64_t file_bytes_ = 0;
    uint64_t filter_bytes_ = 0;
    //!< Atomic: concurrent gets/scans against a version snapshot
    //!< share one reader.
    std::atomic<uint64_t> bytes_read_{0};
};

} // namespace ethkv::kv

#endif // ETHKV_KVSTORE_SSTABLE_HH
