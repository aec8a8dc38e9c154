/**
 * @file
 * ReplicationLog — the one durable record log: the LSM and
 * log-engine WALs (<dir>/wal/wal-<n>.log) and the segmented,
 * offset-addressed shipping log that primary/backup replication
 * streams over the wire (DESIGN.md §8, §13).
 *
 * Every batch is appended as one checksummed framed record before
 * it is acknowledged, so a log reopened after a crash hands back
 * every synced record. The replication hub appends every
 * acknowledged mutation here and its sender reads record-aligned
 * windows out of it by global byte offset — including sealed
 * segments, so a follower that was down catches up from disk,
 * Ira-style, without blocking the write path, as long as its
 * offset is still retained. Followers append the received bytes
 * VERBATIM to their own log, which keeps offsets globally valid
 * across failover: after PROMOTE, the new primary's log is
 * byte-identical to the old one up to its end offset, and
 * surviving followers resume from their own validated end.
 *
 * Layout: <dir>/<stem>-<n>.log, densely numbered from the first
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
 * Retention: at each rotation, sealed segments wholly below the
 * retention pin are dropped from the front, except the newest
 * `keep_sealed` of them. The replication hub pins the lowest offset
 * a follower has not acked and keeps a window of its own choosing
 * (setRetention; server/replication.cc). An engine trims to the
 * oldest offset its MANIFEST still needs and keeps none (trimTo,
 * which also drops at once). A fresh log pins 0: it drops nothing.
 * The marker is rewritten first and the files unlinked after, so a
 * crash in between leaves stale segments below the marker that
 * open() removes. A read below the start returns NotFound: the
 * reader must catch up from a snapshot instead (reset() then
 * restarts the log there). The marker is always written synced,
 * then the directory, so every drop (and every reset()) costs one
 * fdatasync and one directory sync, with or without sync_appends:
 * once segments go, a marker whose rename reached the disk ahead of
 * its bytes would leave a log that does not open.
 *
 * All I/O goes through ethkv::Env, reads included: the active
 * segment is read back through the Env like a sealed one. sync()
 * makes every appended record durable, including those in
 * segments sealed since the last sync and the directory entries of
 * new segments.
 *
 * Thread safety: all methods lock an internal mutex (rank
 * kReplLog) — appenders (an engine, the store decorator, follower
 * replay) and readers (the sender thread) race freely.
 */

#ifndef ETHKV_KVSTORE_REPL_LOG_HH
#define ETHKV_KVSTORE_REPL_LOG_HH

#include <atomic>
#include <functional>
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

// -- Record codec ------------------------------------------------
//
// One framed record per batch, shared by every log and by the
// replication wire (followers append the primary's bytes verbatim,
// so both sides must agree on one encoder):
//   [u32 BE payload length][u64 BE xxhash64(payload)][payload]
// Payload layout:
//   varint first_seq, varint entry count, then per entry:
//   op byte, varint klen, key, varint vlen, value.

/** Append one framed record for `batch` to out. */
void appendWalRecord(Bytes &out, const WriteBatch &batch,
                     uint64_t first_seq);

/** Append one framed record of the entries of `batch` at
 *  `positions`, as if they were a batch of their own. */
void appendWalRecord(Bytes &out, const WriteBatch &batch,
                     const std::vector<uint32_t> &positions,
                     uint64_t first_seq);

/**
 * Decode the framed record starting at data[pos].
 *
 * @return Ok — batch/first_seq filled, pos advanced past the
 *         record; NotFound — data ends before a complete record
 *         (clean EOF or torn tail); Corruption — checksum or
 *         payload is invalid (pos unchanged in both error cases).
 */
Status decodeWalRecord(BytesView data, size_t &pos,
                       WriteBatch &batch, uint64_t &first_seq);

/**
 * Length of the framed record starting at data[pos], without
 * decoding the payload (header + checksum are verified).
 *
 * Same return contract as decodeWalRecord; on Ok, len receives the
 * full framed length (12 + payload) and pos is NOT advanced.
 */
Status peekWalRecord(BytesView data, size_t pos, size_t &len);

/** Invoked as cb(batch, first_seq) per replayed record. */
using RecordCallback =
    std::function<void(const WriteBatch &, uint64_t)>;

/**
 * Replay every intact record of a file of framed records (a log
 * engine snapshot). A missing file is Ok (nothing to replay); a
 * torn or corrupt tail stops replay without error.
 */
Status replayRecordFile(const std::string &path,
                        const RecordCallback &cb, Env *env);

struct ReplLogOptions
{
    /** Directory holding the segments (created). */
    std::string dir;

    /** Segment file stem: segments are <dir>/<stem>-<n>.log. */
    std::string stem = "repl";

    /** Seal and rotate once a segment reaches this size. A record
     *  never spans segments; the record that crosses the line
     *  finishes its segment. */
    uint64_t segment_bytes = 4u << 20;

    /** fdatasync after every append (an engine's sync_wal or
     *  sync_appends, ethkvd --sync for the shipping log). */
    bool sync_appends = false;

    /** Filesystem seam; nullptr = Env::defaultEnv(). */
    Env *env = nullptr;
};

/** One segment's place in the global offset space. */
struct ReplSegment
{
    uint64_t index = 0; //!< <stem>-<index>.log
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
     * Append one record the caller framed with appendWalRecord
     * (trusted, not re-validated; appendRaw is for bytes from a
     * peer).
     *
     * @param last_seq Sequence of its last entry; 0 for an empty
     *        batch.
     */
    Status appendRecord(BytesView record, uint64_t last_seq,
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
     * Replay every record from global offset `from` (a record
     * boundary at or above startOffset()) to the end, in order.
     */
    Status replay(uint64_t from, const RecordCallback &cb);

    /**
     * Let retention drop the sealed segments wholly below `pin`,
     * except the newest `keep_sealed` (~0 pin = no reader holds
     * any). Lock-free and no I/O: the next rotation drops them.
     */
    void setRetention(uint64_t pin, uint64_t keep_sealed);

    /**
     * Drop now every segment wholly below `offset` — the active one
     * too, by sealing it, once nothing at or past `offset` is left —
     * and keep `offset` as the pin for later rotations. An engine
     * calls this once its MANIFEST needs nothing below `offset`.
     */
    Status trimTo(uint64_t offset);

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

    /** Make every appended record durable: fdatasync the segments
     *  written since the last sync, and their directory. */
    Status sync();

    /** Torn or corrupt bytes open() moved to <dir>/quarantine/. */
    uint64_t quarantinedBytes() const;

    /** Snapshot of the segment layout (tests/ethkv_ctl stats). */
    std::vector<ReplSegment> segments() const;

  private:
    explicit ReplicationLog(const ReplLogOptions &options);

    Status openActiveLocked() REQUIRES(mutex_);
    /** Seal the active segment and start the next one. */
    Status rotateLocked() REQUIRES(mutex_);
    Status syncLocked() REQUIRES(mutex_);
    Status rotateIfNeededLocked() REQUIRES(mutex_);
    /** Drop the sealed segments retention no longer keeps. */
    Status retainLocked() REQUIRES(mutex_);
    /** Atomically and durably replace the START marker. */
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
    uint64_t start_offset_ GUARDED_BY(mutex_) = 0;
    uint64_t end_offset_ GUARDED_BY(mutex_) = 0;
    bool snapshot_pending_ GUARDED_BY(mutex_) = false;
    std::atomic<uint64_t> retention_pin_{0};
    std::atomic<uint64_t> keep_sealed_{0};
    //! Sealed segments holding bytes no sync() has covered yet.
    std::vector<uint64_t> unsynced_sealed_ GUARDED_BY(mutex_);
    //! A segment was created or the marker replaced since the
    //! directory was last synced.
    bool dir_unsynced_ GUARDED_BY(mutex_) = false;
    uint64_t quarantined_bytes_ GUARDED_BY(mutex_) = 0;
    uint64_t last_seq_ GUARDED_BY(mutex_) = 0;
    uint64_t record_count_ GUARDED_BY(mutex_) = 0;
};

} // namespace ethkv::kv

#endif // ETHKV_KVSTORE_REPL_LOG_HH
