/**
 * @file
 * Leveled LSM-tree KV store, modeled on Pebble/LevelDB.
 *
 * This is the engine Geth uses underneath (Pebble), rebuilt in C++:
 * writes land in a WAL (a ReplicationLog in <dir>/wal/) and a
 * skiplist memtable; full memtables are sealed as immutable
 * memtables — a seal writes nothing — and flushed to L0 SSTables by
 * a background maintenance thread; each flush commits the oldest
 * log offset still needed (`log_start`) to the MANIFEST, and only
 * then lets the log drop the segments below it. The maintenance
 * thread then runs score-driven
 * compactions (L0 file count, per-level byte budgets). Deletes write
 * tombstones that survive until they reach the bottommost level —
 * exactly the overhead the paper's Finding 5 attributes to LSM
 * stores under Ethereum's delete-heavy classes.
 *
 * Concurrency model: one internal mutex serializes foreground
 * mutations and version swaps; flush/compaction I/O runs on the
 * MaintenanceThread without the lock held. Reads take the lock only
 * long enough to snapshot the active memtable plus a shared_ptr to
 * the current immutable-memtable set and table Version, then search
 * lock-free. Writers that outrun maintenance hit RocksDB-style
 * backpressure: a 1 ms slowdown once L0 holds 2x the compaction
 * trigger in files, and a hard stall (condition-variable wait,
 * surfaced via the kv.stall_micros counter) at
 * max_immutable_memtables sealed memtables or 3x the trigger in L0
 * files.
 */

#ifndef ETHKV_KVSTORE_LSM_STORE_HH
#define ETHKV_KVSTORE_LSM_STORE_HH

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/lock_ranks.hh"
#include "common/mutex.hh"
#include "kvstore/kvstore.hh"
#include "kvstore/lsm_maintenance.hh"
#include "kvstore/memtable.hh"
#include "kvstore/repl_log.hh"
#include "kvstore/sstable.hh"

namespace ethkv::obs
{
class TraceEventLog;
}

namespace ethkv::kv
{

/** Tuning knobs for an LSMStore. */
struct LSMOptions
{
    std::string dir;                    //!< Data directory.
    uint64_t memtable_bytes = 1 << 20;  //!< Seal threshold.
    int l0_compaction_trigger = 4;      //!< L0 file-count trigger.
    uint64_t level_base_bytes = 8u << 20; //!< L1 size budget.
    uint64_t target_file_bytes = 2u << 20; //!< Output split size.
    bool sync_wal = false;              //!< fdatasync per batch.
    Env *env = nullptr;                 //!< nullptr = defaultEnv().

    //! Sealed-but-unflushed memtables a writer may queue before it
    //! hard-stalls waiting for the background flush to drain.
    int max_immutable_memtables = 2;
    //! Span sink for background flush/compaction work (shows the
    //! maintenance thread as its own track in merged request
    //! timelines); tracing off when null. Not owned; must outlive
    //! the store.
    obs::TraceEventLog *trace_log = nullptr;
};

/** One table as the compaction picker sees it. */
struct TableSpan
{
    BytesView smallest;
    BytesView largest;
    uint64_t bytes = 0;
};

/**
 * Choose which level-n table to compact into level n+1: the one
 * whose overlapping level-(n+1) bytes are the smallest multiple of
 * its own bytes (RocksDB's kMinOverlappingRatio), so each
 * compaction rewrites as little of the level below as it can.
 * Ties go to the table with the smallest key.
 *
 * @param level Level n's tables: non-empty, sorted by smallest key,
 *        non-overlapping.
 * @param next Level n+1's tables, in the same order (may be empty).
 * @return Index into level.
 */
size_t pickMinOverlapTable(const std::vector<TableSpan> &level,
                           const std::vector<TableSpan> &next);

/**
 * The LSM engine. Thread-safe: any number of concurrent readers and
 * writers, plus one background maintenance thread owned by the
 * store. ethkvd serves it bare, without a LockedKVStore wrapper.
 */
class LSMStore : public KVStore
{
  public:
    /** Open (or create) a store in options.dir, replaying the WAL
     *  from the MANIFEST's log_start. */
    static Result<std::unique_ptr<LSMStore>> open(
        const LSMOptions &options);

    ~LSMStore() override;

    Status put(BytesView key, BytesView value) override;
    Status get(BytesView key, Bytes &value) override;
    Status del(BytesView key) override;
    Status scan(BytesView start, BytesView end,
                const ScanCallback &cb) override;
    Status apply(const WriteBatch &batch) override;

    /**
     * Barrier: seal the active memtable and wait until background
     * maintenance is fully quiescent (no immutable memtables, no
     * compaction running or pending), then sync the WAL. After a
     * successful flush() every prior write is in an SSTable.
     */
    Status flush() override;

    const IOStats &stats() const override;
    std::string name() const override { return "lsm"; }
    uint64_t liveKeyCount() override;

    /** Force-compact everything down to the last populated level. */
    Status compactAll();

    /**
     * Verify the store's structural invariants.
     *
     * Checks the level shape (per-table key-range sanity, L1+
     * sorted and non-overlapping, file numbers unique and below
     * next_file_no_) and that the on-disk MANIFEST agrees with the
     * in-memory table set and log_start. Debug builds
     * additionally DCHECK these along the write path; tests call
     * this directly after mutations and corruption injections.
     *
     * @return Ok, or Corruption naming the first violated
     *         invariant.
     */
    Status checkInvariants() const;

    /**
     * True once a persistent write-path I/O failure — foreground or
     * background — has switched the store to read-only service.
     * Reads keep working; every mutating call returns
     * Status::ioDegraded.
     */
    bool isDegraded() const;

    /** Why the store degraded; empty while healthy. */
    std::string degradedReason() const;

    /** WAL bytes salvaged to wal/quarantine/ during recovery. */
    uint64_t quarantinedBytes() const;

    /** Number of SSTables per level (diagnostics and tests). */
    std::vector<size_t> levelFileCounts() const;

    /** Total SSTable bytes on disk. */
    uint64_t tableBytes() const;

    /** Whether a compaction is mid-flight (tests only; racy). */
    bool compactionInProgressForTest() const;

    static constexpr int max_levels = 7;

  private:
    /**
     * One open SSTable. Shared between Version snapshots; when a
     * compaction retires the table it marks the handle obsolete and
     * the last snapshot to drop it deletes the file.
     */
    struct TableHandle
    {
        TableHandle(uint64_t no,
                    std::unique_ptr<SSTableReader> rdr, Env *e)
            : file_no(no), reader(std::move(rdr)), env(e)
        {}
        ~TableHandle();

        TableHandle(const TableHandle &) = delete;
        TableHandle &operator=(const TableHandle &) = delete;

        uint64_t file_no;
        std::unique_ptr<SSTableReader> reader;
        Env *env;
        std::atomic<bool> obsolete{false};
    };

    using TableVec = std::vector<std::shared_ptr<TableHandle>>;

    /**
     * Immutable snapshot of the table set. Readers grab the current
     * Version under the mutex and then iterate it lock-free;
     * installs build a new Version and swap the shared_ptr.
     */
    struct Version
    {
        std::vector<TableVec> levels;
    };

    /** A sealed memtable queued for background flush, together with
     *  the WAL offset just past its last record. */
    struct ImmutableMemtable
    {
        std::shared_ptr<const MemTable> mem;
        uint64_t log_end;
    };

    /**
     * RAII owner of in_compaction_: construct with the store mutex
     * held to claim the flag, and the destructor re-acquires the
     * lock if needed and clears it, so no early return or exception
     * between pick and install can leave compaction disabled
     * forever.
     */
    class CompactionScope
    {
      public:
        CompactionScope(LSMStore &store,
                        std::unique_lock<std::mutex> &lock);
        ~CompactionScope();

      private:
        LSMStore &store_;
        std::unique_lock<std::mutex> &lock_;
    };

    explicit LSMStore(LSMOptions options);

    Status recover();

    //! One unit of background work; true = call again.
    bool backgroundStep();
    Status backgroundFlush(std::unique_lock<std::mutex> &lock);
    Status backgroundCompact(std::unique_lock<std::mutex> &lock);

    /** Seal the active memtable: queue it for background flush and
     *  wake the maintenance thread. No I/O. */
    void sealMemtableLocked();

    /** Block while the write path is over its backpressure limits,
     *  charging the wait to kv.stall_micros. */
    void maybeStallLocked(std::unique_lock<std::mutex> &lock);

    bool compactionNeededLocked() const;

    /** Search a table snapshot, newest first, adding what the
     *  lookup read to cost. NotFound when no table holds the key;
     *  a tombstone comes back as an Ok entry. */
    Status getFromTables(const Version &ver, BytesView key,
                         InternalEntry &entry,
                         SSTableReader::GetCost &cost);

    /**
     * Pick one compaction under the lock: inputs (newest source
     * first) and the destination level. Returns false when no level
     * is over budget.
     */
    bool pickCompactionLocked(TableVec &inputs, int &target_level);

    /**
     * Merge `inputs` into new tables at target_level. Called with
     * the lock held; releases it for the merge I/O and re-acquires
     * it to install the result. Used by both the background thread
     * and compactAll (which blocks background work first).
     */
    Status runCompaction(std::unique_lock<std::mutex> &lock,
                         const TableVec &inputs, int target_level);

    /** Write one frozen memtable out as an L0 table (no locking;
     *  caller owns installation). */
    Status writeTableFromMem(const MemTable &mem, uint64_t file_no,
                             uint64_t &file_bytes);

    /** Swap in a Version with `handle` prepended to L0. */
    void installL0Locked(std::shared_ptr<TableHandle> handle);

    uint64_t levelBytesLocked(int level) const;
    uint64_t levelLimit(int level) const;
    std::string tablePath(uint64_t file_no) const;
    std::string manifestPath() const;
    Status persistManifestLocked();
    Status ioDegradedStatusLocked() const;

    /** Flip to read-only degraded mode (idempotent). */
    void degradeLocked(const Status &cause);

    /**
     * Route a foreground write-path failure: I/O errors flip the
     * store into read-only degraded mode (once) and are returned
     * unchanged so the caller still sees the root cause.
     */
    Status degradeOnIOErrorLocked(Status s);

    /** Record a background flush/compaction failure: bumps
     *  kv.bg_errors and degrades so the foreground path surfaces
     *  sticky IODegraded instead of silently losing maintenance. */
    void recordBgErrorLocked(const Status &cause);

    /** True if no table below `level` may contain keys in range. */
    bool bottommostForRangeLocked(int level, BytesView smallest,
                                  BytesView largest) const;

    void updateQueueGaugeLocked() const;

    LSMOptions options_;
    Env *env_ = nullptr;
    //! Per-level budget growth: level n+1 may hold this many times
    //! level n.
    static constexpr double kLevelMultiplier = 10.0;
    //! L0 file count that slows writers by ~1 ms per batch.
    const int l0_slowdown_files_ = 2 * options_.l0_compaction_trigger;
    //! L0 file count that hard-stalls writers.
    const int l0_stop_files_ = 3 * options_.l0_compaction_trigger;

    /**
     * One mutex guards all mutable state below; background I/O and
     * read iteration run outside it against shared_ptr snapshots.
     * Plain std::unique_lock on mutex_.native() (not MutexLock)
     * because the stall/barrier paths need condition_variable
     * waits.
     */
    mutable Mutex mutex_{lock_ranks::kLSMStore};
    //! Signaled on every background install, degradation, and
    //! shutdown; stalled writers and flush() barriers wait on it.
    mutable std::condition_variable cv_;

    bool degraded_ = false;
    std::string degraded_reason_;
    uint64_t quarantined_bytes_ = 0;
    std::unique_ptr<MemTable> memtable_;
    std::unique_ptr<ReplicationLog> wal_;
    //! Oldest WAL offset an unflushed memtable needs; the MANIFEST
    //! commits it and the log keeps everything from it on.
    uint64_t log_start_ = 0;
    std::deque<ImmutableMemtable> imm_; //!< Oldest first.

    //! Bytes read via readers already retired from the version;
    //! declared before version_ so handle destructors can credit it.
    std::atomic<uint64_t> retired_reader_bytes_{0};
    std::shared_ptr<const Version> version_;

    uint64_t next_file_no_ = 1;
    uint64_t seq_ = 0;
    mutable IOStats stats_;
    bool in_compaction_ = false;
    bool shutting_down_ = false;

    //! Declared last: destroyed first, but the destructor stops it
    //! explicitly before any other teardown anyway.
    std::unique_ptr<MaintenanceThread> maintenance_;
};

} // namespace ethkv::kv

#endif // ETHKV_KVSTORE_LSM_STORE_HH
