/**
 * @file
 * ReplicationLog — the segmented, offset-addressed shipping log
 * that primary/backup replication streams over the wire
 * (DESIGN.md §13).
 *
 * The primary appends every acknowledged mutation here (in the
 * same framed record format as the engine WAL, kvstore/wal.hh) and
 * the replication sender reads record-aligned windows out of it by
 * global byte offset — including rotated segments, so a follower
 * that was down catches up from disk, Ira-style, without blocking
 * the write path, as long as its offset is still retained. Followers append the received bytes
 * VERBATIM to their own ReplicationLog, which keeps offsets
 * globally valid across failover: after PROMOTE, the new primary's
 * log is byte-identical to the old one up to its end offset, and
 * surviving followers resume from their own validated end.
 *
 * Layout: <dir>/repl-<n>.log, densely numbered from the first
 * retained segment, plus a <dir>/START marker naming that segment,
 * its global start offset, and the last sequence number below it
 * (no marker = segment 1 at offset 0). A segment is sealed when it
 * reaches segment_bytes; only the last segment is writable. Torn
 * tails (crash mid-append) are quarantined via
 * Env::quarantineTail on the LAST segment; corruption in a sealed
 * segment truncates the log there — in both cases the validated
 * end offset is what open() reports, and a follower re-requests
 * everything past it.
 *
 * Retention (DESIGN.md §13): at each rotation, whole sealed
 * segments are dropped from the front while they lie entirely
 * below both the retention pin (the lowest offset a connected
 * follower has not acked; see setRetentionPin) and the newest
 * kRetainedSealedSegments sealed segments. The marker is rewritten
 * first and the files unlinked after, so a crash in between
 * leaves stale segments below the marker that open() removes. A
 * read below the start returns NotFound: the reader must catch up
 * from a snapshot instead (reset() then restarts the log there).
 * Retention adds no fdatasync without sync_appends; with it, the
 * marker is synced like a rotation's directory entry.
 *
 * Thread safety: all methods lock an internal mutex (rank
 * kReplLog) — appenders (the store decorator / follower replay)
 * and readers (the sender thread) race freely. Reads of the active
 * segment are served from an in-memory mirror (bounded by
 * segment_bytes) so a reader never sees bytes the filesystem has
 * not been handed yet; sealed segments are read through the Env.
 */

#ifndef ETHKV_KVSTORE_REPL_LOG_HH
#define ETHKV_KVSTORE_REPL_LOG_HH

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/lock_ranks.hh"
#include "common/mutex.hh"
#include "common/status.hh"
#include "kvstore/write_batch.hh"

namespace ethkv::kv
{

/** Sealed segments retention always keeps, newest first: with the
 *  default 4 MiB segments, a 64 MiB window a follower may lag by
 *  and still catch up from the log rather than a snapshot. */
inline constexpr uint64_t kRetainedSealedSegments = 16;

struct ReplLogOptions
{
    /** Directory holding repl-<n>.log segments (created). */
    std::string dir;

    /** Seal and rotate once a segment reaches this size. A record
     *  never spans segments; the record that crosses the line
     *  finishes its segment. */
    uint64_t segment_bytes = 4u << 20;

    /** fdatasync after every append (wired from ethkvd --sync so
     *  the shipping log is as durable as the engine WAL). */
    bool sync_appends = false;

    /** Filesystem seam; nullptr = Env::defaultEnv(). */
    Env *env = nullptr;
};

/** One segment's place in the global offset space. */
struct ReplSegment
{
    uint64_t index = 0; //!< repl-<index>.log
    uint64_t start_offset = 0;
    uint64_t length = 0;
    //! Sequence of the last record at or below this segment's end.
    uint64_t last_seq = 0;
};

class ReplicationLog
{
  public:
    /**
     * Open (creating dir if needed) and validate the log.
     *
     * Every segment is scanned record-by-record in order. A torn
     * or corrupt tail in the last segment is quarantined
     * (<dir>/quarantine/); corruption in an earlier segment drops
     * that segment's tail AND every later segment (the stream past
     * a corrupt record is meaningless). The resulting end offset
     * is fully validated: every byte below it decodes.
     */
    static Result<std::unique_ptr<ReplicationLog>> open(
        const ReplLogOptions &options);

    ~ReplicationLog();

    ReplicationLog(const ReplicationLog &) = delete;
    ReplicationLog &operator=(const ReplicationLog &) = delete;

    /**
     * Append one batch as a framed record.
     *
     * @param end_offset If non-null, receives the global offset
     *        just past the new record.
     */
    Status append(const WriteBatch &batch, uint64_t first_seq,
                  uint64_t *end_offset = nullptr);

    /**
     * Append pre-framed record bytes verbatim (follower replay:
     * the primary's bytes ARE the follower's log). records must be
     * whole framed records; this is checked.
     */
    Status appendRaw(BytesView records,
                     uint64_t *end_offset = nullptr);

    /**
     * Read whole records from global offset into out (appended).
     *
     * An offset below startOffset() returns NotFound (retention
     * dropped it); everything else below follows.
     * Returns up to max_bytes, rounded DOWN to a record boundary —
     * except that the first record is always returned whole even
     * if it alone exceeds max_bytes, so a reader can always make
     * progress. offset must itself be a record boundary
     * (InvalidArgument otherwise; a follower's validated end
     * always is one). Reading at the end offset returns Ok with
     * nothing appended.
     */
    Status read(uint64_t offset, size_t max_bytes, Bytes &out);

    /** Global offset one past the last validated record. */
    uint64_t endOffset() const;

    /** Global offset of the oldest retained byte. */
    uint64_t startOffset() const;

    /**
     * Lowest offset a connected follower still needs (~0 = none).
     * Lock-free; the next rotation's retention honors it.
     */
    void setRetentionPin(uint64_t offset);

    /**
     * Drop every segment and restart the log, empty, at
     * start_offset with last_seq carried over. A follower calls
     * this with snapshot_pending=true (at offset 0) before a
     * snapshot catch-up, and with false (at the snapshot's base)
     * once the snapshot is applied; the flag persists, so a node
     * that crashed mid-snapshot knows its engine is partial.
     */
    Status reset(uint64_t start_offset, uint64_t last_seq,
                 bool snapshot_pending);

    /** True between reset(..., true) and the next reset(). */
    bool snapshotPending() const;

    /** Sequence number carried by the last appended record
     *  (first_seq + count - 1), 0 when the log is empty. */
    uint64_t lastSeq() const;

    /** Records appended or replayed since open (not persisted). */
    uint64_t recordCount() const;

    /** fdatasync the active segment. */
    Status sync();

    /** Snapshot of the segment layout (tests/ethkv_ctl stats). */
    std::vector<ReplSegment> segments() const;

  private:
    explicit ReplicationLog(const ReplLogOptions &options);

    Status openActiveLocked() REQUIRES(mutex_);
    Status rotateIfNeededLocked() REQUIRES(mutex_);
    /** Drop the sealed segments retention no longer needs. */
    Status retainLocked() REQUIRES(mutex_);
    /** Atomically replace the START marker. */
    Status writeStartLocked(uint64_t first_index,
                            uint64_t start_offset,
                            uint64_t last_seq,
                            bool snapshot_pending) REQUIRES(mutex_);
    Status appendRecordLocked(BytesView record, uint64_t last_seq)
        REQUIRES(mutex_);
    std::string segmentPath(uint64_t index) const;

    ReplLogOptions options_;
    Env *env_;

    mutable Mutex mutex_{lock_ranks::kReplLog};
    std::vector<ReplSegment> segments_ GUARDED_BY(mutex_);
    std::unique_ptr<WritableFile> active_ GUARDED_BY(mutex_);
    /** In-memory mirror of the active (last) segment. */
    Bytes active_buf_ GUARDED_BY(mutex_);
    uint64_t start_offset_ GUARDED_BY(mutex_) = 0;
    uint64_t end_offset_ GUARDED_BY(mutex_) = 0;
    bool snapshot_pending_ GUARDED_BY(mutex_) = false;
    std::atomic<uint64_t> retention_pin_{~0ull};
    uint64_t last_seq_ GUARDED_BY(mutex_) = 0;
    uint64_t record_count_ GUARDED_BY(mutex_) = 0;
};

} // namespace ethkv::kv

#endif // ETHKV_KVSTORE_REPL_LOG_HH
