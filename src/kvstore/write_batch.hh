/**
 * @file
 * Atomic write batches.
 *
 * Geth buffers all state mutations during block verification and
 * flushes them as one batch when the block commits (paper, Section
 * IV-C); WriteBatch models that unit of atomicity.
 */

#ifndef ETHKV_KVSTORE_WRITE_BATCH_HH
#define ETHKV_KVSTORE_WRITE_BATCH_HH

#include <cstdint>
#include <vector>

#include "common/bytes.hh"

namespace ethkv::kv
{

/** The two mutation kinds a batch may carry. */
enum class BatchOp : uint8_t
{
    Put,
    Delete,
};

/** One mutation inside a WriteBatch. */
struct BatchEntry
{
    BatchOp op;
    Bytes key;
    Bytes value; //!< Empty for deletes.
};

/**
 * An ordered list of mutations applied atomically.
 */
class WriteBatch
{
  public:
    void
    put(BytesView key, BytesView value)
    {
        entries_.push_back(
            {BatchOp::Put, Bytes(key), Bytes(value)});
    }

    void
    del(BytesView key)
    {
        entries_.push_back({BatchOp::Delete, Bytes(key), Bytes()});
    }

    /** Make room for n entries, so filling a batch of known size
     *  never regrows the entry vector. */
    void reserve(size_t n) { entries_.reserve(n); }

    void clear() { entries_.clear(); }
    bool empty() const { return entries_.empty(); }
    size_t size() const { return entries_.size(); }

    /** Total payload bytes (keys + values) in the batch. */
    uint64_t
    byteSize() const
    {
        uint64_t n = 0;
        for (const auto &e : entries_)
            n += e.key.size() + e.value.size();
        return n;
    }

    const std::vector<BatchEntry> &entries() const { return entries_; }

  private:
    std::vector<BatchEntry> entries_;
};

} // namespace ethkv::kv

#endif // ETHKV_KVSTORE_WRITE_BATCH_HH
