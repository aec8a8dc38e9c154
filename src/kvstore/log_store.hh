/**
 * @file
 * Append-only log engine with batched garbage collection.
 *
 * Section V of the paper proposes storing high-deletion classes
 * (TxLookup) and immutable block data (BlockHeader/Body/Receipts) in
 * append-only logs so that deletions become cheap index drops whose
 * space is reclaimed in batches — no LSM tombstones, no compaction
 * ordering work. This engine implements that design: records append
 * to the active segment; a hash index maps keys to live records;
 * sealed segments whose dead ratio crosses a threshold are rewritten
 * wholesale (the batched GC).
 */

#ifndef ETHKV_KVSTORE_LOG_STORE_HH
#define ETHKV_KVSTORE_LOG_STORE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/env.hh"
#include "kvstore/kvstore.hh"
#include "kvstore/repl_log.hh"

namespace ethkv::kv
{

/** Tuning knobs for an AppendLogStore. */
struct LogStoreOptions
{
    uint64_t segment_bytes = 1u << 20; //!< Seal threshold.
    double gc_dead_ratio = 0.5;        //!< GC trigger per segment.
    //! Non-empty = durable mode: every put/del is logged to the
    //! WAL in <dir>/wal/ before it is applied, and open() replays
    //! the log. Empty (the default) keeps the store purely
    //! in-memory.
    std::string dir;
    bool sync_appends = false; //!< fdatasync per durable append.
    Env *env = nullptr;        //!< nullptr = defaultEnv().
    //! Checkpoint (snapshot + truncate) the WAL once it exceeds
    //! this many bytes; 0 disables automatic checkpoints.
    uint64_t checkpoint_wal_bytes = 0;
};

/**
 * Append-only segmented log with an in-memory key index.
 *
 * Scans are unsupported (the router sends scan classes elsewhere).
 *
 * Durability: the segment/GC machinery is an in-memory layout; in
 * durable mode the logical key->value map is persisted through a
 * ReplicationLog (<dir>/wal/wal-<n>.log) and rebuilt by replay on
 * open.
 *
 * Checkpointing bounds WAL growth: checkpoint() writes every live
 * entry to <dir>/snapshot.tmp (WAL record format), syncs it,
 * atomically renames it over <dir>/snapshot, syncs the directory,
 * and only then resets the log, empty, at its end offset. Recovery
 * replays the snapshot first, then the WAL on top. Every crash
 * window is safe: before the rename the old snapshot+WAL pair is
 * intact; between the rename and the reset, replaying the full old
 * WAL over the new snapshot is idempotent (the snapshot is exactly
 * the WAL's final state, and per-key last-writer-wins replay
 * reproduces it).
 */
class AppendLogStore : public KVStore
{
  public:
    /** In-memory constructor; ignores options.dir. */
    explicit AppendLogStore(LogStoreOptions options = {});

    /**
     * Open a store, replaying (and salvaging the torn tail of) its
     * write-ahead log when options.dir is non-empty.
     */
    static Result<std::unique_ptr<AppendLogStore>> open(
        const LogStoreOptions &options);

    Status put(BytesView key, BytesView value) override;
    Status get(BytesView key, Bytes &value) override;
    Status del(BytesView key) override;
    Status scan(BytesView start, BytesView end,
                const ScanCallback &cb) override;
    Status flush() override;
    const IOStats &stats() const override { return stats_; }
    std::string name() const override { return "log"; }
    uint64_t liveKeyCount() override { return index_.size(); }

    /** Number of segments currently held (incl. the active one). */
    size_t segmentCount() const { return segments_.size(); }

    /** Total bytes currently occupied by all segments. */
    uint64_t residentBytes() const;

    /** True once a persistent I/O failure made the store read-only. */
    bool isDegraded() const { return degraded_; }

    /** Why the store degraded; empty while healthy. */
    const std::string &degradedReason() const
    {
        return degraded_reason_;
    }

    /** Log bytes salvaged to quarantine/ during recovery. */
    uint64_t quarantinedBytes() const { return quarantined_bytes_; }

    /**
     * Compact the WAL now: persist a snapshot of the live state and
     * truncate the log. No-op in in-memory mode. An I/O failure
     * degrades the store (the triggering state is still safe in the
     * old WAL/snapshot pair on disk).
     */
    Status checkpoint();

    /** Current WAL length (0 in in-memory mode). */
    uint64_t walSizeBytes() const
    {
        return wal_ ? wal_->endOffset() - wal_->startOffset() : 0;
    }

    /** Checkpoints taken since open. */
    uint64_t checkpointCount() const { return checkpoints_; }

  private:
    struct Record
    {
        Bytes key;
        Bytes value;
    };

    struct Segment
    {
        uint64_t id;
        std::deque<Record> records;
        uint64_t live_bytes = 0;
        uint64_t dead_bytes = 0;
        bool sealed = false;
    };

    struct IndexEntry
    {
        uint64_t segment_id;
        size_t record_idx;
        uint64_t bytes; //!< key + value size, for dead accounting.
    };

    Segment &activeSegment();
    void sealIfFull();
    void maybeGc();
    void gcSegment(size_t segment_pos);
    Segment *findSegment(uint64_t id);

    /** Apply a put to the in-memory layout (no WAL, no op stats). */
    void putInMemory(BytesView key, BytesView value);
    /** Apply a delete to the in-memory layout. */
    void delInMemory(BytesView key);
    /** Durable-mode WAL append for one op; Ok when in-memory. */
    Status logAppend(BatchOp op, BytesView key, BytesView value);
    /** Replay + tail salvage + log open for durable mode. */
    Status recoverDurable();
    /** See LSMStore::degradeOnIOError. */
    Status degradeOnIOError(Status s);
    /** Auto-checkpoint when the WAL crosses its threshold. */
    void maybeCheckpoint();
    std::string snapshotPath() const
    {
        return options_.dir + "/snapshot";
    }

    LogStoreOptions options_;
    std::deque<Segment> segments_;
    std::unordered_map<Bytes, IndexEntry> index_;
    uint64_t next_segment_id_ = 0;
    IOStats stats_;
    Env *env_ = nullptr;
    std::unique_ptr<ReplicationLog> wal_;
    uint64_t seq_ = 0;
    bool degraded_ = false;
    std::string degraded_reason_;
    uint64_t quarantined_bytes_ = 0;
    uint64_t checkpoints_ = 0;
};

} // namespace ethkv::kv

#endif // ETHKV_KVSTORE_LOG_STORE_HH
