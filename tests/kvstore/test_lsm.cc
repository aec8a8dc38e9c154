/**
 * @file
 * LSM store tests: CRUD, flush/compaction behaviour, scans across
 * levels, WAL crash recovery (including a crash in each window of a
 * flush: table written but not committed, MANIFEST committed but
 * log segments not dropped), a seal that does no I/O, the WAL's
 * segment bound, reopen persistence, tombstone lifecycle, the
 * compaction picker, and GET-path read attribution.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "common/fault_env.hh"
#include "kvstore/lsm_store.hh"
#include "obs/metrics.hh"
#include "test_util.hh"

namespace ethkv::kv
{
namespace
{

using testutil::ScratchDir;
using testutil::makeKey;
using testutil::makeValue;

LSMOptions
smallOptions(const std::string &dir)
{
    LSMOptions opts;
    opts.dir = dir;
    opts.memtable_bytes = 16 << 10;   // flush early
    opts.l0_compaction_trigger = 3;
    opts.level_base_bytes = 64 << 10; // compact early
    opts.target_file_bytes = 16 << 10;
    return opts;
}

TEST(LsmTest, PutGetDelete)
{
    ScratchDir dir("lsm");
    auto store = LSMStore::open(smallOptions(dir.path()));
    ASSERT_TRUE(store.ok());

    EXPECT_TRUE(store.value()->put("a", "1").isOk());
    Bytes v;
    ASSERT_TRUE(store.value()->get("a", v).isOk());
    EXPECT_EQ(v, "1");

    EXPECT_TRUE(store.value()->del("a").isOk());
    EXPECT_TRUE(store.value()->get("a", v).isNotFound());
    EXPECT_TRUE(store.value()->del("never-existed").isOk());
}

TEST(LsmTest, OverwriteAcrossFlush)
{
    ScratchDir dir("lsm");
    auto store = LSMStore::open(smallOptions(dir.path()));
    ASSERT_TRUE(store.ok());

    ASSERT_TRUE(store.value()->put("k", "old").isOk());
    ASSERT_TRUE(store.value()->flush().isOk()); // "old" now on disk
    ASSERT_TRUE(store.value()->put("k", "new").isOk());

    Bytes v;
    ASSERT_TRUE(store.value()->get("k", v).isOk());
    EXPECT_EQ(v, "new");
}

TEST(LsmTest, DeleteShadowsDiskVersion)
{
    ScratchDir dir("lsm");
    auto store = LSMStore::open(smallOptions(dir.path()));
    ASSERT_TRUE(store.ok());

    ASSERT_TRUE(store.value()->put("k", "v").isOk());
    ASSERT_TRUE(store.value()->flush().isOk());
    ASSERT_TRUE(store.value()->del("k").isOk());

    Bytes v;
    EXPECT_TRUE(store.value()->get("k", v).isNotFound());
    ASSERT_TRUE(store.value()->flush().isOk());
    EXPECT_TRUE(store.value()->get("k", v).isNotFound());
}

TEST(LsmTest, ManyKeysTriggerFlushAndCompaction)
{
    ScratchDir dir("lsm");
    auto store = LSMStore::open(smallOptions(dir.path()));
    ASSERT_TRUE(store.ok());

    const uint64_t n = 5000;
    for (uint64_t i = 0; i < n; ++i)
        ASSERT_TRUE(
            store.value()->put(makeKey(i), makeValue(i)).isOk());

    EXPECT_GT(store.value()->stats().flush_bytes, 0u);
    EXPECT_GT(store.value()->stats().compactions, 0u);

    for (uint64_t i = 0; i < n; ++i) {
        Bytes v;
        ASSERT_TRUE(store.value()->get(makeKey(i), v).isOk()) << i;
        EXPECT_EQ(v, makeValue(i));
    }
    EXPECT_EQ(store.value()->liveKeyCount(), n);
}

TEST(LsmTest, ScanMergesAllLevels)
{
    ScratchDir dir("lsm");
    auto store = LSMStore::open(smallOptions(dir.path()));
    ASSERT_TRUE(store.ok());

    // Interleave writes and flushes so keys spread across levels.
    for (uint64_t i = 0; i < 1000; ++i) {
        ASSERT_TRUE(store.value()->put(makeKey(i), makeValue(i)).isOk());
        if (i % 251 == 0)
            ASSERT_TRUE(store.value()->flush().isOk());
    }
    // Overwrite a band and delete another so the scan must resolve
    // shadowing correctly.
    for (uint64_t i = 100; i < 150; ++i)
        ASSERT_TRUE(store.value()->put(makeKey(i), "fresh").isOk());
    for (uint64_t i = 200; i < 250; ++i)
        ASSERT_TRUE(store.value()->del(makeKey(i)).isOk());

    uint64_t count = 0;
    Bytes prev;
    ASSERT_TRUE(store.value()->scan(
        makeKey(0), makeKey(1000),
        [&](BytesView k, BytesView v) {
            if (count > 0)
                EXPECT_LT(prev, Bytes(k));
            prev = Bytes(k);
            uint64_t id = std::stoull(Bytes(k.substr(4, 8)));
            EXPECT_TRUE(id < 200 || id >= 250);
            if (id >= 100 && id < 150)
                EXPECT_EQ(Bytes(v), "fresh");
            ++count;
            return true;
        }).isOk());
    EXPECT_EQ(count, 950u);
}

TEST(LsmTest, ScanRespectsRangeAndEarlyStop)
{
    ScratchDir dir("lsm");
    auto store = LSMStore::open(smallOptions(dir.path()));
    ASSERT_TRUE(store.ok());
    for (uint64_t i = 0; i < 300; ++i)
        ASSERT_TRUE(store.value()->put(makeKey(i), "v").isOk());

    uint64_t count = 0;
    ASSERT_TRUE(store.value()->scan(makeKey(50), makeKey(60),
                        [&](BytesView, BytesView) {
                            ++count;
                            return true;
                        }).isOk());
    EXPECT_EQ(count, 10u);

    count = 0;
    ASSERT_TRUE(store.value()->scan(BytesView(), BytesView(),
                        [&](BytesView, BytesView) {
                            return ++count < 5;
                        }).isOk());
    EXPECT_EQ(count, 5u);
}

TEST(LsmTest, ReopenAfterCleanFlush)
{
    ScratchDir dir("lsm");
    {
        auto store = LSMStore::open(smallOptions(dir.path()));
        ASSERT_TRUE(store.ok());
        for (uint64_t i = 0; i < 1000; ++i)
            ASSERT_TRUE(store.value()->put(makeKey(i), makeValue(i)).isOk());
        ASSERT_TRUE(store.value()->flush().isOk());
    }
    auto store = LSMStore::open(smallOptions(dir.path()));
    ASSERT_TRUE(store.ok());
    for (uint64_t i = 0; i < 1000; ++i) {
        Bytes v;
        ASSERT_TRUE(store.value()->get(makeKey(i), v).isOk()) << i;
        EXPECT_EQ(v, makeValue(i));
    }
}

TEST(LsmTest, ReopenRecoversUnflushedWritesFromWal)
{
    ScratchDir dir("lsm");
    {
        auto store = LSMStore::open(smallOptions(dir.path()));
        ASSERT_TRUE(store.ok());
        // Small enough to stay in the memtable (no flush): only the
        // WAL holds these when the store is dropped.
        for (uint64_t i = 0; i < 50; ++i)
            ASSERT_TRUE(store.value()->put(makeKey(i), makeValue(i)).isOk());
        ASSERT_TRUE(store.value()->del(makeKey(7)).isOk());
        // Destructor syncs the WAL; no flush() call.
    }
    auto store = LSMStore::open(smallOptions(dir.path()));
    ASSERT_TRUE(store.ok());
    Bytes v;
    for (uint64_t i = 0; i < 50; ++i) {
        if (i == 7) {
            EXPECT_TRUE(
                store.value()->get(makeKey(i), v).isNotFound());
        } else {
            ASSERT_TRUE(store.value()->get(makeKey(i), v).isOk())
                << i;
            EXPECT_EQ(v, makeValue(i));
        }
    }
}

TEST(LsmTest, TornWalTailLosesOnlyTail)
{
    ScratchDir dir("lsm");
    {
        auto store = LSMStore::open(smallOptions(dir.path()));
        ASSERT_TRUE(store.ok());
        for (uint64_t i = 0; i < 20; ++i)
            ASSERT_TRUE(store.value()->put(makeKey(i), "v").isOk());
    }
    // Simulate a crash that tears the last WAL record.
    std::string wal = dir.path() + "/wal/wal-000001.log";
    auto size = std::filesystem::file_size(wal);
    std::filesystem::resize_file(wal, size - 2);

    auto store = LSMStore::open(smallOptions(dir.path()));
    ASSERT_TRUE(store.ok());
    Bytes v;
    // All but the last record survive.
    for (uint64_t i = 0; i < 19; ++i)
        ASSERT_TRUE(store.value()->get(makeKey(i), v).isOk()) << i;
    EXPECT_TRUE(store.value()->get(makeKey(19), v).isNotFound());
}

TEST(LsmTest, CompactAllDropsTombstones)
{
    ScratchDir dir("lsm");
    auto store = LSMStore::open(smallOptions(dir.path()));
    ASSERT_TRUE(store.ok());

    for (uint64_t i = 0; i < 2000; ++i)
        ASSERT_TRUE(store.value()->put(makeKey(i), makeValue(i)).isOk());
    for (uint64_t i = 0; i < 2000; i += 2)
        ASSERT_TRUE(store.value()->del(makeKey(i)).isOk());
    ASSERT_TRUE(store.value()->compactAll().isOk());

    EXPECT_GT(store.value()->stats().tombstones_dropped, 0u);
    EXPECT_EQ(store.value()->liveKeyCount(), 1000u);
    for (uint64_t i = 0; i < 2000; ++i) {
        Bytes v;
        if (i % 2 == 0)
            EXPECT_TRUE(
                store.value()->get(makeKey(i), v).isNotFound());
        else
            ASSERT_TRUE(store.value()->get(makeKey(i), v).isOk());
    }
}

TEST(LsmTest, BatchIsAppliedInOrder)
{
    ScratchDir dir("lsm");
    auto store = LSMStore::open(smallOptions(dir.path()));
    ASSERT_TRUE(store.ok());

    WriteBatch batch;
    batch.put("k", "first");
    batch.del("k");
    batch.put("k", "last");
    ASSERT_TRUE(store.value()->apply(batch).isOk());
    Bytes v;
    ASSERT_TRUE(store.value()->get("k", v).isOk());
    EXPECT_EQ(v, "last");
}

TEST(LsmTest, StatsTrackUserOps)
{
    ScratchDir dir("lsm");
    auto store = LSMStore::open(smallOptions(dir.path()));
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->put("a", "1").isOk());
    ASSERT_TRUE(store.value()->put("b", "2").isOk());
    ASSERT_TRUE(store.value()->del("a").isOk());
    Bytes v;
    EXPECT_TRUE(store.value()->get("a", v).isNotFound());
    ASSERT_TRUE(store.value()->get("b", v).isOk());
    ASSERT_TRUE(
        store.value()
            ->scan(BytesView(), BytesView(),
                   [](BytesView, BytesView) { return true; })
            .isOk());

    const IOStats &s = store.value()->stats();
    EXPECT_EQ(s.user_writes, 2u);
    EXPECT_EQ(s.user_deletes, 1u);
    EXPECT_EQ(s.user_reads, 2u);
    EXPECT_EQ(s.user_scans, 1u);
    EXPECT_EQ(s.tombstones_written, 1u);
    EXPECT_GT(s.bytes_written, 0u);
}

TEST(LsmTest, LevelFileCountsReflectStructure)
{
    ScratchDir dir("lsm");
    auto store = LSMStore::open(smallOptions(dir.path()));
    ASSERT_TRUE(store.ok());
    for (uint64_t i = 0; i < 4000; ++i)
        ASSERT_TRUE(store.value()->put(makeKey(i), makeValue(i, 48)).isOk());
    // flush() is the quiescence barrier: background maintenance has
    // flushed every sealed memtable and settled the level shape.
    ASSERT_TRUE(store.value()->flush().isOk());
    auto counts = store.value()->levelFileCounts();
    ASSERT_EQ(counts.size(),
              static_cast<size_t>(LSMStore::max_levels));
    size_t total = 0;
    for (size_t c : counts)
        total += c;
    EXPECT_GT(total, 0u);
    // L0 stays below the compaction trigger after quiescence.
    EXPECT_LT(counts[0], 4u);
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

/**
 * A FaultInjectionEnv that counts the durability work one thread
 * does (file and directory syncs, renames, MANIFEST writes) and can
 * crash right before the first operation on a path ending in
 * `crash_before`.
 */
class ProbeEnv : public FaultInjectionEnv
{
  public:
    using FaultInjectionEnv::FaultInjectionEnv;

    std::string crash_before; //!< Set before use; empty = never.
    std::atomic<bool> crashed{false};
    std::atomic<std::thread::id> watched{};
    std::atomic<int> syncs{0};
    std::atomic<int> renames{0};
    std::atomic<int> manifest_writes{0};
    std::atomic<int> tables{0}; //!< SSTables created, any thread.

    Result<std::unique_ptr<WritableFile>>
    newWritableFile(const std::string &path) override
    {
        if (endsWith(path, ".sst"))
            ++tables;
        if (isWatched() && endsWith(path, "/MANIFEST.tmp"))
            ++manifest_writes;
        return wrap(path, FaultInjectionEnv::newWritableFile(path));
    }

    Result<std::unique_ptr<WritableFile>>
    newAppendableFile(const std::string &path) override
    {
        return wrap(path, FaultInjectionEnv::newAppendableFile(path));
    }

    Status
    renameFile(const std::string &from, const std::string &to) override
    {
        maybeCrash(to);
        if (isWatched())
            ++renames;
        return FaultInjectionEnv::renameFile(from, to);
    }

    Status
    syncDir(const std::string &dir) override
    {
        if (isWatched())
            ++syncs;
        return FaultInjectionEnv::syncDir(dir);
    }

  private:
    class CountingFile : public WritableFile
    {
      public:
        CountingFile(ProbeEnv &env, std::unique_ptr<WritableFile> f)
            : env_(env), f_(std::move(f))
        {}
        Status append(BytesView data) override
        {
            return f_->append(data);
        }
        Status flush() override { return f_->flush(); }
        Status
        sync() override
        {
            if (env_.isWatched())
                ++env_.syncs;
            return f_->sync();
        }
        Status close() override { return f_->close(); }

      private:
        ProbeEnv &env_;
        std::unique_ptr<WritableFile> f_;
    };

    bool
    isWatched() const
    {
        return watched.load() == std::this_thread::get_id();
    }

    void
    maybeCrash(const std::string &path)
    {
        if (!crash_before.empty() && endsWith(path, crash_before) &&
            !crashed.exchange(true))
            simulateCrash();
    }

    Result<std::unique_ptr<WritableFile>>
    wrap(const std::string &path,
         Result<std::unique_ptr<WritableFile>> file)
    {
        maybeCrash(path);
        if (!file.ok())
            return file.status();
        return std::unique_ptr<WritableFile>(
            new CountingFile(*this, file.take()));
    }
};

/**
 * Write synced puts until `env` has crashed at its crash point,
 * then reboot and reopen: every acknowledged write must be back.
 */
void
expectSyncedWritesSurviveCrash(const std::string &dir, ProbeEnv &env)
{
    LSMOptions opts = smallOptions(dir);
    opts.memtable_bytes = 4 << 10;
    opts.sync_wal = true;
    opts.env = &env;
    uint64_t acked = 0;
    {
        auto store = LSMStore::open(opts);
        ASSERT_TRUE(store.ok());
        while (!env.crashed.load() && acked < 20000) {
            if (!store.value()->put(makeKey(acked), makeValue(acked))
                     .isOk())
                break;
            ++acked;
        }
        ASSERT_TRUE(env.crashed.load())
            << "the crash point " << env.crash_before
            << " was never reached";
        // The crash may land mid-flush in the background: wait for
        // the store to notice before tearing it down.
        for (int i = 0; i < 1000 && !store.value()->isDegraded(); ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    env.reactivate();

    auto store = LSMStore::open(opts);
    ASSERT_TRUE(store.ok()) << store.status().toString();
    EXPECT_TRUE(store.value()->checkInvariants().isOk());
    Bytes v;
    for (uint64_t i = 0; i < acked; ++i) {
        ASSERT_TRUE(store.value()->get(makeKey(i), v).isOk()) << i;
        EXPECT_EQ(v, makeValue(i));
    }
    // Writes go on where the recovered log ends.
    ASSERT_TRUE(store.value()->put("after", "crash").isOk());
    ASSERT_TRUE(store.value()->flush().isOk());
    ASSERT_TRUE(store.value()->get("after", v).isOk());
}

/** Number of WAL segment files in an LSM store's wal/ dir. */
size_t
walSegmentFiles(const std::string &dir)
{
    size_t n = 0;
    for (const auto &e :
         std::filesystem::directory_iterator(dir + "/wal")) {
        const std::string name = e.path().filename().string();
        if (name.rfind("wal-", 0) == 0 && endsWith(name, ".log"))
            ++n;
    }
    return n;
}

TEST(LsmTest, RecoversSealedWalSegments)
{
    // Crash after a flush wrote its L0 table, before the MANIFEST
    // commit that would name it: the table is lost, and recovery
    // must replay the flushed memtable's records from the sealed
    // WAL segments that still hold them.
    ScratchDir dir("lsm");
    ProbeEnv env(Env::defaultEnv(), 11);
    env.crash_before = "/MANIFEST";
    expectSyncedWritesSurviveCrash(dir.path(), env);
    EXPECT_GT(env.tables.load(), 0);
}

TEST(LsmTest, CrashBeforeLogDropKeepsSyncedWrites)
{
    // Crash after a flush committed its table and a new log_start,
    // before the log dropped the segments below it: recovery
    // replays from log_start and drops the stale segments.
    ScratchDir dir("lsm");
    ProbeEnv env(Env::defaultEnv(), 12);
    env.crash_before = "/wal/START.tmp";
    expectSyncedWritesSurviveCrash(dir.path(), env);
    // The helper's last flush left nothing unflushed: one fresh
    // segment remains.
    EXPECT_EQ(walSegmentFiles(dir.path()), 1u);
}

TEST(LsmTest, SealWritesNothing)
{
    // A seal only queues the memtable: no sync, no rename, no
    // MANIFEST write on the writer's thread. The first flush's
    // table shows the seal has happened.
    ScratchDir dir("lsm");
    ProbeEnv env(Env::defaultEnv(), 13);
    LSMOptions opts = smallOptions(dir.path());
    opts.memtable_bytes = 64 << 10;
    opts.env = &env;
    auto store = LSMStore::open(opts);
    ASSERT_TRUE(store.ok());
    env.watched = std::this_thread::get_id();
    uint64_t i = 0;
    for (; env.tables.load() == 0 && i < 100000; ++i)
        ASSERT_TRUE(
            store.value()->put(makeKey(i), makeValue(i, 8)).isOk());
    ASSERT_GT(env.tables.load(), 0) << "no memtable was sealed";
    EXPECT_EQ(env.syncs.load(), 0);
    EXPECT_EQ(env.renames.load(), 0);
    EXPECT_EQ(env.manifest_writes.load(), 0);
}

TEST(LsmTest, WalKeepsOnlyUnflushedSegments)
{
    ScratchDir dir("lsm");
    LSMOptions opts = smallOptions(dir.path());
    auto store = LSMStore::open(opts);
    ASSERT_TRUE(store.ok());
    const size_t bound =
        static_cast<size_t>(opts.max_immutable_memtables) + 2;
    for (uint64_t i = 0; i < 20000; ++i) {
        ASSERT_TRUE(
            store.value()->put(makeKey(i), makeValue(i)).isOk());
        if (i % 97 == 0) {
            ASSERT_LE(walSegmentFiles(dir.path()), bound) << i;
        }
    }
    EXPECT_GT(store.value()->tableBytes(), 0u);
    // With everything flushed, only a fresh segment remains.
    ASSERT_TRUE(store.value()->flush().isOk());
    EXPECT_EQ(walSegmentFiles(dir.path()), 1u);
}

TEST(LsmTest, RefusesV1Manifest)
{
    ScratchDir dir("lsm");
    ASSERT_TRUE(Env::defaultEnv()
                    ->writeStringToFile(dir.path() + "/MANIFEST",
                                        "ethkv-manifest v1\n"
                                        "next_file 2\nseq 0\n",
                                        false)
                    .isOk());
    auto store = LSMStore::open(smallOptions(dir.path()));
    ASSERT_FALSE(store.ok());
    EXPECT_EQ(store.status().code(), StatusCode::NotSupported)
        << store.status().toString();
}

TEST(LsmTest, RefusesV1WalWithoutManifest)
{
    // A v1 store that never flushed has no MANIFEST, only wal.log.
    ScratchDir dir("lsm");
    const std::string old_wal = dir.path() + "/wal.log";
    ASSERT_TRUE(Env::defaultEnv()
                    ->writeStringToFile(old_wal, "not replayed", false)
                    .isOk());
    auto store = LSMStore::open(smallOptions(dir.path()));
    ASSERT_FALSE(store.ok());
    EXPECT_EQ(store.status().code(), StatusCode::NotSupported)
        << store.status().toString();
    EXPECT_TRUE(Env::defaultEnv()->fileExists(old_wal));
}

TEST(LsmTest, QueueDepthGaugeSettlesAfterFlushBarrier)
{
    ScratchDir dir("lsm");
    auto store = LSMStore::open(smallOptions(dir.path()));
    ASSERT_TRUE(store.ok());
    for (uint64_t i = 0; i < 3000; ++i)
        ASSERT_TRUE(
            store.value()->put(makeKey(i), makeValue(i)).isOk());
    ASSERT_TRUE(store.value()->flush().isOk());
    // Quiescent: no sealed memtables queued, no compaction running.
    EXPECT_EQ(obs::MetricsRegistry::global()
                  .gauge("kv.compaction_queue_depth")
                  .value(),
              0);
    EXPECT_FALSE(store.value()->compactionInProgressForTest());
}

TEST(LsmTest, ConcurrentWritersAndScanners)
{
    // Plain-build concurrency smoke (the pinned TSan variant lives
    // in tsan_lsm_stress.cc): writers, scanners, and background
    // maintenance interleave; afterwards every acked write is
    // readable and invariants hold.
    ScratchDir dir("lsm");
    LSMOptions opts = smallOptions(dir.path());
    auto store = LSMStore::open(opts);
    ASSERT_TRUE(store.ok());
    LSMStore &s = *store.value();

    constexpr int kWriters = 4;
    constexpr uint64_t kPerWriter = 500;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kWriters + 2);
    for (int w = 0; w < kWriters; ++w) {
        threads.emplace_back([&s, &failures, w] {
            for (uint64_t i = 0; i < kPerWriter; ++i) {
                uint64_t key = static_cast<uint64_t>(w) * 10000 + i;
                if (!s.put(makeKey(key), makeValue(key)).isOk())
                    ++failures;
            }
        });
    }
    std::atomic<bool> stop_scans{false};
    for (int r = 0; r < 2; ++r) {
        threads.emplace_back([&s, &stop_scans, &failures] {
            while (!stop_scans.load()) {
                Bytes last;
                Status st = s.scan(
                    BytesView(), BytesView(),
                    [&](BytesView k, BytesView) {
                        if (!last.empty() && BytesView(last) >= k) {
                            ++failures; // Out-of-order = bug.
                            return false;
                        }
                        last = Bytes(k);
                        return true;
                    });
                if (!st.isOk())
                    ++failures;
            }
        });
    }
    for (int w = 0; w < kWriters; ++w)
        threads[static_cast<size_t>(w)].join();
    stop_scans.store(true);
    for (size_t t = kWriters; t < threads.size(); ++t)
        threads[t].join();

    EXPECT_EQ(failures.load(), 0);
    ASSERT_TRUE(s.flush().isOk());
    EXPECT_TRUE(s.checkInvariants().isOk());
    Bytes v;
    for (int w = 0; w < kWriters; ++w) {
        for (uint64_t i = 0; i < kPerWriter; ++i) {
            uint64_t key = static_cast<uint64_t>(w) * 10000 + i;
            ASSERT_TRUE(s.get(makeKey(key), v).isOk()) << key;
            EXPECT_EQ(v, makeValue(key));
        }
    }
    EXPECT_EQ(s.liveKeyCount(), kWriters * kPerWriter);
}

// -- Compaction picker ------------------------------------------

TEST(PickMinOverlapTableTest, FileWithZeroOverlapWins)
{
    // Level n: [a,c] [e,g] [k,m]; level n+1 covers all but [e,g].
    std::vector<TableSpan> level = {
        {"a", "c", 100}, {"e", "g", 100}, {"k", "m", 100}};
    std::vector<TableSpan> next = {{"a", "d", 50}, {"h", "z", 50}};
    EXPECT_EQ(pickMinOverlapTable(level, next), 1u);
}

TEST(PickMinOverlapTableTest, RatioDecidesNotAbsoluteBytes)
{
    // [a,c] overlaps 300 bytes, [e,g] only 100; but [a,c] holds
    // 1000 bytes (ratio 0.3) against [e,g]'s 100 (ratio 1.0).
    std::vector<TableSpan> level = {{"a", "c", 1000},
                                    {"e", "g", 100}};
    std::vector<TableSpan> next = {
        {"a", "b", 150}, {"bb", "c", 150}, {"f", "f", 100}};
    EXPECT_EQ(pickMinOverlapTable(level, next), 0u);
}

TEST(PickMinOverlapTableTest, TiesGoToTheSmallestKey)
{
    std::vector<TableSpan> level = {
        {"a", "c", 100}, {"e", "g", 200}, {"k", "m", 100}};
    std::vector<TableSpan> next = {
        {"b", "b", 50}, {"f", "f", 100}, {"l", "l", 50}};
    EXPECT_EQ(pickMinOverlapTable(level, next), 0u);

    // A next-level table spanning two level tables counts for both.
    std::vector<TableSpan> wide = {{"b", "f", 100}, {"l", "l", 10}};
    EXPECT_EQ(pickMinOverlapTable(level, wide), 2u);
}

TEST(PickMinOverlapTableTest, EmptyNextLevel)
{
    std::vector<TableSpan> level = {{"a", "c", 100},
                                    {"e", "g", 100}};
    EXPECT_EQ(pickMinOverlapTable(level, {}), 0u);
    EXPECT_EQ(pickMinOverlapTable({{"x", "y", 0}}, {}), 0u);
}

TEST(LsmTest, CompactionWriteAmpStaysInBand)
{
    // Random overwrites into a small tree: L1 holds 256 KiB, so the
    // ~2.2 MB of live data settles into L2. Compaction writes
    // 5.0-6.1 bytes per user byte with the least-overlap picker and
    // right-sized filters; picking the smallest-key file, with
    // filters sized for the whole compaction's input, writes
    // 9.7-10.1. Background timing moves it, hence a band.
    ScratchDir dir("lsm");
    LSMOptions opts;
    opts.dir = dir.path();
    opts.memtable_bytes = 64 << 10;
    opts.level_base_bytes = 256 << 10;
    opts.target_file_bytes = 64 << 10;
    auto store = LSMStore::open(opts);
    ASSERT_TRUE(store.ok());
    Rng rng(42);
    for (uint64_t i = 0; i < 60000; ++i) {
        ASSERT_TRUE(store.value()
                        ->put(makeKey(rng.nextBounded(20000)),
                              makeValue(i, 100))
                        .isOk());
    }
    ASSERT_TRUE(store.value()->flush().isOk());
    const IOStats &st = store.value()->stats();
    double ratio = static_cast<double>(st.compaction_bytes) /
                   static_cast<double>(st.logical_bytes_written);
    EXPECT_GT(ratio, 1.0);
    EXPECT_LT(ratio, 7.5);
    EXPECT_TRUE(store.value()->checkInvariants().isOk());
}

TEST(LsmTest, CompactionOutputsSizeFiltersToTheirKeys)
{
    ScratchDir dir("lsm");
    auto store = LSMStore::open(smallOptions(dir.path()));
    ASSERT_TRUE(store.ok());
    const uint64_t n = 8000;
    for (uint64_t i = 0; i < n; ++i)
        ASSERT_TRUE(
            store.value()->put(makeKey(i), makeValue(i)).isOk());
    ASSERT_TRUE(store.value()->compactAll().isOk());
    store.value().reset();

    // Every table is now a compaction output holding a slice of the
    // inputs; each filter carries 10 bits per key it holds, plus
    // the hash-count byte.
    uint64_t tables = 0, entries = 0;
    for (const auto &f :
         std::filesystem::directory_iterator(dir.path())) {
        if (f.path().extension() != ".sst")
            continue;
        auto reader = SSTableReader::open(f.path().string());
        ASSERT_TRUE(reader.ok());
        uint64_t m = reader.value()->props().entry_count;
        EXPECT_EQ(reader.value()->filterBytes(),
                  (10 * m + 7) / 8 + 1)
            << f.path();
        EXPECT_LT(m, n / 4) << f.path();
        ++tables;
        entries += m;
    }
    EXPECT_GT(tables, 4u);
    EXPECT_EQ(entries, n);
}

// -- GET-path read attribution ----------------------------------

struct GetCounters
{
    uint64_t probed, negatives, block_bytes;

    static GetCounters
    now()
    {
        auto &r = obs::MetricsRegistry::global();
        return {r.counter("kv.lsm.get.tables_probed").value(),
                r.counter("kv.lsm.get.bloom_negatives").value(),
                r.counter("kv.lsm.get.block_bytes").value()};
    }

    GetCounters
    since(const GetCounters &before) const
    {
        return {probed - before.probed,
                negatives - before.negatives,
                block_bytes - before.block_bytes};
    }
};

TEST(LsmTest, GetCountersAttributeTableReads)
{
    // One table: a memtable big enough for every key, then flush.
    ScratchDir dir("lsm");
    LSMOptions opts;
    opts.dir = dir.path();
    auto store = LSMStore::open(opts);
    ASSERT_TRUE(store.ok());
    LSMStore &s = *store.value();
    for (uint64_t i = 0; i < 2000; ++i)
        ASSERT_TRUE(s.put(makeKey(i), makeValue(i)).isOk());
    ASSERT_TRUE(s.flush().isOk());
    ASSERT_EQ(s.levelFileCounts()[0], 1u);
    Bytes v;

    // A present key: one table probed, one ~4 KiB block read.
    GetCounters before = GetCounters::now();
    ASSERT_TRUE(s.get(makeKey(700), v).isOk());
    GetCounters d = GetCounters::now().since(before);
    EXPECT_EQ(d.probed, 1u);
    EXPECT_EQ(d.negatives, 0u);
    EXPECT_GT(d.block_bytes, 2048u);
    EXPECT_LT(d.block_bytes, 8192u);

    // A key outside the table's range probes nothing.
    before = GetCounters::now();
    EXPECT_TRUE(s.get("zzz", v).isNotFound());
    d = GetCounters::now().since(before);
    EXPECT_EQ(d.probed, 0u);
    EXPECT_EQ(d.block_bytes, 0u);

    // Absent keys inside the range: each is either rejected by the
    // bloom filter, reading no block, or a false positive that
    // reads exactly one.
    uint64_t negatives = 0;
    const uint64_t absent = 1999; // "key-<i>-absent" < largest key
    for (uint64_t i = 0; i < absent; ++i) {
        before = GetCounters::now();
        EXPECT_TRUE(s.get(makeKey(i, "absent"), v).isNotFound());
        d = GetCounters::now().since(before);
        EXPECT_EQ(d.probed, 1u);
        if (d.negatives == 1) {
            EXPECT_EQ(d.block_bytes, 0u);
            ++negatives;
        } else {
            EXPECT_GT(d.block_bytes, 0u);
        }
    }
    EXPECT_GE(negatives, absent * 98 / 100);

    // A memtable hit never reaches the tables.
    ASSERT_TRUE(s.put("fresh", "v").isOk());
    before = GetCounters::now();
    ASSERT_TRUE(s.get("fresh", v).isOk());
    d = GetCounters::now().since(before);
    EXPECT_EQ(d.probed, 0u);
}

TEST(LsmTest, CompactionBytesAreCountedPerTargetLevel)
{
    auto level_bytes = [](int n) {
        return obs::MetricsRegistry::global()
            .counter("kv.lsm.compaction.l" + std::to_string(n) +
                     ".bytes_written")
            .value();
    };
    std::vector<uint64_t> before;
    for (int n = 0; n < LSMStore::max_levels; ++n)
        before.push_back(level_bytes(n));

    ScratchDir dir("lsm");
    auto store = LSMStore::open(smallOptions(dir.path()));
    ASSERT_TRUE(store.ok());
    for (uint64_t i = 0; i < 5000; ++i)
        ASSERT_TRUE(
            store.value()->put(makeKey(i), makeValue(i)).isOk());
    ASSERT_TRUE(store.value()->flush().isOk());

    uint64_t sum = 0;
    for (int n = 0; n < LSMStore::max_levels; ++n)
        sum += level_bytes(n) - before[static_cast<size_t>(n)];
    // Compaction never writes into L0 (flushes do), and the levels
    // add up to the store's own compaction_bytes.
    EXPECT_EQ(level_bytes(0), before[0]);
    EXPECT_GT(level_bytes(1), before[1]);
    EXPECT_EQ(sum, store.value()->stats().compaction_bytes);
}

} // namespace
} // namespace ethkv::kv
