/**
 * @file
 * Abstract key-value store interface.
 *
 * This is the seam the paper instruments: Geth issues every read,
 * write, delete, and scan through its KV store interface, and the
 * traces are captured exactly there (paper, Section III-A). All
 * engines — the Pebble-like LSM store, the hash store, the append-log
 * store, the B+-tree store, and the hybrid router — implement this
 * interface, and the TracingKVStore shim wraps any of them.
 */

#ifndef ETHKV_KVSTORE_KVSTORE_HH
#define ETHKV_KVSTORE_KVSTORE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hh"
#include "common/status.hh"
#include "kvstore/write_batch.hh"

namespace ethkv::kv
{

/**
 * I/O and maintenance counters exposed by every engine.
 *
 * The Section-V ablations compare engines on these: an LSM pays
 * compaction bytes and tombstone overhead; a log store pays GC bytes;
 * a hash store pays neither but cannot scan.
 */
struct IOStats
{
    uint64_t user_reads = 0;        //!< get() calls served.
    uint64_t user_writes = 0;       //!< put() calls (incl. batch).
    uint64_t user_deletes = 0;      //!< del() calls (incl. batch).
    uint64_t user_scans = 0;        //!< scan() calls.
    //! Logical payload accepted from the user: key+value bytes per
    //! put, key bytes per delete. The denominator of write
    //! amplification.
    uint64_t logical_bytes_written = 0;
    uint64_t bytes_written = 0;     //!< All bytes persisted.
    uint64_t bytes_read = 0;        //!< All bytes fetched.
    uint64_t flush_bytes = 0;       //!< Memtable flush volume.
    uint64_t compaction_bytes = 0;  //!< Rewritten during compaction.
    uint64_t gc_bytes = 0;          //!< Rewritten during log GC.
    uint64_t tombstones_written = 0;
    uint64_t tombstones_dropped = 0;
    uint64_t compactions = 0;
    uint64_t gc_runs = 0;

    /** Bytes persisted per logical byte accepted from the user. */
    double
    writeAmplification() const
    {
        if (logical_bytes_written == 0)
            return 0.0;
        return static_cast<double>(bytes_written) /
               static_cast<double>(logical_bytes_written);
    }

    void
    merge(const IOStats &o)
    {
        user_reads += o.user_reads;
        user_writes += o.user_writes;
        user_deletes += o.user_deletes;
        user_scans += o.user_scans;
        logical_bytes_written += o.logical_bytes_written;
        bytes_written += o.bytes_written;
        bytes_read += o.bytes_read;
        flush_bytes += o.flush_bytes;
        compaction_bytes += o.compaction_bytes;
        gc_bytes += o.gc_bytes;
        tombstones_written += o.tombstones_written;
        tombstones_dropped += o.tombstones_dropped;
        compactions += o.compactions;
        gc_runs += o.gc_runs;
    }
};

/**
 * Callback invoked per entry during a scan.
 *
 * @return false to stop the scan early.
 */
using ScanCallback =
    std::function<bool(BytesView key, BytesView value)>;

/**
 * The KV store contract shared by all engines.
 *
 * Keys and values are arbitrary byte strings. Scans visit keys with
 * prefix-range semantics: all keys k with start <= k < end, in
 * ascending order. Engines without ordered indexes return
 * NotSupported from scan (Finding 4 motivates exactly this split).
 */
class KVStore
{
  public:
    virtual ~KVStore() = default;

    /** Insert or overwrite a key. */
    virtual Status put(BytesView key, BytesView value) = 0;

    /**
     * Look up a key.
     *
     * @param value Receives the stored value on success.
     * @return NotFound if absent or deleted.
     */
    virtual Status get(BytesView key, Bytes &value) = 0;

    /** Delete a key; deleting an absent key is Ok. */
    virtual Status del(BytesView key) = 0;

    /**
     * Visit all live keys in [start, end) in ascending order.
     *
     * An empty end means "to the end of the keyspace".
     */
    virtual Status scan(BytesView start, BytesView end,
                        const ScanCallback &cb) = 0;

    /** Apply a batch atomically (all-or-nothing on recovery). */
    virtual Status apply(const WriteBatch &batch);

    /**
     * Apply the entries of `batch` at `positions` (ascending) as
     * one batch of their own. ShardedKVStore hands each shard its
     * part of a cross-shard batch this way. The default copies
     * those entries into a WriteBatch and applies it; an engine
     * that overrides it reads them in place.
     */
    virtual Status applyEntries(const WriteBatch &batch,
                                const std::vector<uint32_t> &positions);

    /** Whether the key is currently live. */
    virtual bool contains(BytesView key);

    /** Persist buffered state (memtables, indexes) to storage. */
    virtual Status flush() = 0;

    /** Accumulated I/O counters. */
    virtual const IOStats &stats() const = 0;

    /** Engine name for reports ("lsm", "hash", "log", ...). */
    virtual std::string name() const = 0;

    /** Number of live keys (may be O(n) for some engines). */
    virtual uint64_t liveKeyCount() = 0;
};

} // namespace ethkv::kv

#endif // ETHKV_KVSTORE_KVSTORE_HH
