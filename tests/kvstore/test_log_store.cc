/**
 * @file
 * Append-log engine tests: CRUD, segment sealing, batched GC
 * reclamation, and the no-scan contract. Includes HashStore tests,
 * which share the unordered-engine contract.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>

#include "common/env.hh"
#include "common/fault_env.hh"
#include "kvstore/hash_store.hh"
#include "kvstore/log_store.hh"
#include "test_util.hh"

namespace ethkv::kv
{
namespace
{

using testutil::makeKey;
using testutil::makeValue;

TEST(LogStoreTest, PutGetDelete)
{
    AppendLogStore store;
    EXPECT_TRUE(store.put("a", "1").isOk());
    Bytes v;
    ASSERT_TRUE(store.get("a", v).isOk());
    EXPECT_EQ(v, "1");
    EXPECT_TRUE(store.del("a").isOk());
    EXPECT_TRUE(store.get("a", v).isNotFound());
    EXPECT_EQ(store.liveKeyCount(), 0u);
}

TEST(LogStoreTest, OverwriteReturnsLatest)
{
    AppendLogStore store;
    ASSERT_TRUE(store.put("k", "old").isOk());
    ASSERT_TRUE(store.put("k", "new").isOk());
    Bytes v;
    ASSERT_TRUE(store.get("k", v).isOk());
    EXPECT_EQ(v, "new");
    EXPECT_EQ(store.liveKeyCount(), 1u);
}

TEST(LogStoreTest, ScanUnsupported)
{
    AppendLogStore store;
    ASSERT_TRUE(store.put("k", "v").isOk());
    Status s = store.scan(BytesView(), BytesView(),
                          [](BytesView, BytesView) { return true; });
    EXPECT_EQ(s.code(), StatusCode::NotSupported);
}

TEST(LogStoreTest, SegmentsSealAsDataGrows)
{
    LogStoreOptions opts;
    opts.segment_bytes = 4096;
    AppendLogStore store(opts);
    for (uint64_t i = 0; i < 500; ++i)
        ASSERT_TRUE(store.put(makeKey(i), makeValue(i, 64)).isOk());
    EXPECT_GT(store.segmentCount(), 3u);
    // All keys still readable across segments.
    for (uint64_t i = 0; i < 500; ++i) {
        Bytes v;
        ASSERT_TRUE(store.get(makeKey(i), v).isOk()) << i;
        EXPECT_EQ(v, makeValue(i, 64));
    }
}

TEST(LogStoreTest, GcReclaimsDeletedSpace)
{
    LogStoreOptions opts;
    opts.segment_bytes = 4096;
    opts.gc_dead_ratio = 0.5;
    AppendLogStore store(opts);

    for (uint64_t i = 0; i < 1000; ++i)
        ASSERT_TRUE(store.put(makeKey(i), makeValue(i, 64)).isOk());
    uint64_t before = store.residentBytes();

    // Delete 80% of the keys; sealed segments cross the dead
    // threshold and are rewritten.
    for (uint64_t i = 0; i < 1000; ++i)
        if (i % 5 != 0)
            ASSERT_TRUE(store.del(makeKey(i)).isOk());

    EXPECT_GT(store.stats().gc_runs, 0u);
    EXPECT_GT(store.stats().gc_bytes, 0u);
    EXPECT_LT(store.residentBytes(), before / 2);

    // Survivors intact after GC moved them.
    for (uint64_t i = 0; i < 1000; i += 5) {
        Bytes v;
        ASSERT_TRUE(store.get(makeKey(i), v).isOk()) << i;
        EXPECT_EQ(v, makeValue(i, 64));
    }
    EXPECT_EQ(store.liveKeyCount(), 200u);
}

TEST(LogStoreTest, DeleteHeavyChurnStaysBounded)
{
    // Models TxLookup: insert a window, delete the tail, repeat.
    LogStoreOptions opts;
    opts.segment_bytes = 8192;
    AppendLogStore store(opts);
    const uint64_t window = 200;
    for (uint64_t i = 0; i < 5000; ++i) {
        ASSERT_TRUE(store.put(makeKey(i), makeValue(i, 40)).isOk());
        if (i >= window)
            ASSERT_TRUE(store.del(makeKey(i - window)).isOk());
    }
    EXPECT_EQ(store.liveKeyCount(), window);
    // Resident bytes should be within a small factor of live bytes,
    // not proportional to total writes.
    EXPECT_LT(store.residentBytes(), 20 * window * 60);
}

TEST(LogStoreTest, NoTombstoneOverheadMetrics)
{
    AppendLogStore store;
    ASSERT_TRUE(store.put("k", "v").isOk());
    ASSERT_TRUE(store.del("k").isOk());
    EXPECT_EQ(store.stats().tombstones_written, 0u);
    EXPECT_EQ(store.stats().compaction_bytes, 0u);
}

TEST(HashStoreTest, BasicContract)
{
    HashStore store;
    EXPECT_TRUE(store.put("a", "1").isOk());
    EXPECT_TRUE(store.put("b", "2").isOk());
    Bytes v;
    ASSERT_TRUE(store.get("a", v).isOk());
    EXPECT_EQ(v, "1");
    EXPECT_TRUE(store.del("a").isOk());
    EXPECT_TRUE(store.get("a", v).isNotFound());
    EXPECT_EQ(store.liveKeyCount(), 1u);

    Status s = store.scan(BytesView(), BytesView(),
                          [](BytesView, BytesView) { return true; });
    EXPECT_EQ(s.code(), StatusCode::NotSupported);
}

TEST(HashStoreTest, WriteAmplificationIsOne)
{
    HashStore store;
    uint64_t logical = 0;
    for (uint64_t i = 0; i < 100; ++i) {
        Bytes k = makeKey(i), v = makeValue(i);
        logical += k.size() + v.size();
        ASSERT_TRUE(store.put(k, v).isOk());
    }
    EXPECT_EQ(store.stats().bytes_written, logical);
}

TEST(HashStoreTest, ContainsHelper)
{
    HashStore store;
    ASSERT_TRUE(store.put("x", "1").isOk());
    EXPECT_TRUE(store.contains("x"));
    EXPECT_FALSE(store.contains("y"));
}

TEST(HashStoreTest, ApplyBatchAtomicSemantics)
{
    HashStore store;
    WriteBatch batch;
    batch.put("a", "1");
    batch.put("b", "2");
    batch.del("a");
    ASSERT_TRUE(store.apply(batch).isOk());
    Bytes v;
    EXPECT_TRUE(store.get("a", v).isNotFound());
    ASSERT_TRUE(store.get("b", v).isOk());
    EXPECT_EQ(v, "2");
}

// -- WAL checkpoint (snapshot + truncate) ------------------------

using testutil::ScratchDir;

std::unique_ptr<AppendLogStore>
openDurable(const std::string &dir, Env *env = nullptr,
            uint64_t checkpoint_wal_bytes = 0)
{
    LogStoreOptions opts;
    opts.dir = dir;
    opts.sync_appends = true;
    opts.env = env;
    opts.checkpoint_wal_bytes = checkpoint_wal_bytes;
    auto store = AppendLogStore::open(opts);
    EXPECT_TRUE(store.ok()) << store.status().message();
    return store.ok() ? store.take() : nullptr;
}

TEST(LogStoreCheckpointTest, ReplayAfterCheckpoint)
{
    ScratchDir dir("log_ckpt");
    {
        auto store = openDurable(dir.path());
        ASSERT_TRUE(store);
        for (uint64_t i = 0; i < 200; ++i)
            ASSERT_TRUE(
                store->put(makeKey(i), makeValue(i, 48)).isOk());
        for (uint64_t i = 0; i < 50; ++i)
            ASSERT_TRUE(store->del(makeKey(i)).isOk());

        uint64_t wal_before = store->walSizeBytes();
        ASSERT_GT(wal_before, 0u);
        ASSERT_TRUE(store->checkpoint().isOk());
        EXPECT_EQ(store->checkpointCount(), 1u);
        EXPECT_EQ(store->walSizeBytes(), 0u);

        // Post-checkpoint writes land in the fresh WAL.
        for (uint64_t i = 200; i < 260; ++i)
            ASSERT_TRUE(
                store->put(makeKey(i), makeValue(i, 48)).isOk());
        EXPECT_GT(store->walSizeBytes(), 0u);
    }
    // Recovery = snapshot replay + fresh-WAL replay.
    auto store = openDurable(dir.path());
    ASSERT_TRUE(store);
    EXPECT_EQ(store->liveKeyCount(), 210u);
    Bytes v;
    EXPECT_TRUE(store->get(makeKey(10), v).isNotFound());
    ASSERT_TRUE(store->get(makeKey(100), v).isOk());
    EXPECT_EQ(v, makeValue(100, 48));
    ASSERT_TRUE(store->get(makeKey(230), v).isOk());
    EXPECT_EQ(v, makeValue(230, 48));
}

TEST(LogStoreCheckpointTest, RefusesTheOldLogWalLayout)
{
    // A store of the old layout kept every write in <dir>/log.wal;
    // opening it empty would silently drop them all.
    ScratchDir dir("log_old_layout");
    const std::string old_wal = dir.path() + "/log.wal";
    ASSERT_TRUE(Env::defaultEnv()
                    ->writeStringToFile(old_wal, "not replayed", false)
                    .isOk());
    LogStoreOptions opts;
    opts.dir = dir.path();
    auto store = AppendLogStore::open(opts);
    ASSERT_FALSE(store.ok());
    EXPECT_EQ(store.status().code(), StatusCode::NotSupported)
        << store.status().toString();
    EXPECT_TRUE(Env::defaultEnv()->fileExists(old_wal));
}

TEST(LogStoreCheckpointTest, AutoCheckpointBoundsWalGrowth)
{
    ScratchDir dir("log_auto_ckpt");
    {
        auto store = openDurable(dir.path(), nullptr, 8192);
        ASSERT_TRUE(store);
        for (uint64_t i = 0; i < 400; ++i)
            ASSERT_TRUE(
                store->put(makeKey(i % 64), makeValue(i, 64))
                    .isOk());
        EXPECT_GT(store->checkpointCount(), 1u);
        // The WAL never grows much past the threshold: one more
        // record at most before the next checkpoint fires.
        EXPECT_LT(store->walSizeBytes(), 2u * 8192);
    }
    auto store = openDurable(dir.path());
    ASSERT_TRUE(store);
    EXPECT_EQ(store->liveKeyCount(), 64u);
    Bytes v;
    ASSERT_TRUE(store->get(makeKey(0), v).isOk());
    EXPECT_EQ(v, makeValue(384, 64));
}

TEST(LogStoreCheckpointTest, StaleTmpSnapshotIgnoredOnRecovery)
{
    // Crash window 1: power loss while snapshot.tmp was being
    // written, before the rename. The tmp file — torn, arbitrary
    // garbage — must not affect recovery, which still has the old
    // snapshot+WAL pair.
    ScratchDir dir("log_ckpt_tmp");
    {
        auto store = openDurable(dir.path());
        ASSERT_TRUE(store);
        for (uint64_t i = 0; i < 100; ++i)
            ASSERT_TRUE(
                store->put(makeKey(i), makeValue(i, 32)).isOk());
        ASSERT_TRUE(store->checkpoint().isOk());
        for (uint64_t i = 100; i < 120; ++i)
            ASSERT_TRUE(
                store->put(makeKey(i), makeValue(i, 32)).isOk());
    }
    {
        std::ofstream tmp(dir.path() + "/snapshot.tmp",
                          std::ios::binary);
        tmp << "torn checkpoint garbage \x01\x02\x03";
    }
    auto store = openDurable(dir.path());
    ASSERT_TRUE(store);
    EXPECT_EQ(store->liveKeyCount(), 120u);
    EXPECT_FALSE(std::filesystem::exists(dir.path() +
                                         "/snapshot.tmp"));
}

TEST(LogStoreCheckpointTest, WalReplayOverSnapshotIsIdempotent)
{
    // Crash window 2: power loss after the snapshot rename but
    // before the WAL reset — the snapshot already contains the
    // WAL's final state AND the WAL still holds every record.
    // Reconstruct that exact disk state by saving the WAL's
    // directory and restoring it after checkpoint() resets the log.
    ScratchDir dir("log_ckpt_idem");
    const std::string wal_dir = dir.path() + "/wal";
    const std::string saved = dir.path() + "/wal.saved";
    {
        auto store = openDurable(dir.path());
        ASSERT_TRUE(store);
        for (uint64_t i = 0; i < 80; ++i)
            ASSERT_TRUE(
                store->put(makeKey(i), makeValue(i, 40)).isOk());
        for (uint64_t i = 0; i < 20; ++i)
            ASSERT_TRUE(store->del(makeKey(i)).isOk());

        std::filesystem::copy(
            wal_dir, saved, std::filesystem::copy_options::recursive);
        ASSERT_TRUE(store->checkpoint().isOk());
        // Close before the file surgery below.
        store.reset();

        std::filesystem::remove_all(wal_dir);
        std::filesystem::rename(saved, wal_dir);
    }
    auto store = openDurable(dir.path());
    ASSERT_TRUE(store);
    EXPECT_EQ(store->liveKeyCount(), 60u);
    Bytes v;
    EXPECT_TRUE(store->get(makeKey(5), v).isNotFound());
    ASSERT_TRUE(store->get(makeKey(60), v).isOk());
    EXPECT_EQ(v, makeValue(60, 40));
}

TEST(LogStoreCheckpointTest, SyncFailureDegradesAndOldStateSafe)
{
    ScratchDir dir("log_ckpt_fault");
    FaultInjectionEnv fault(Env::defaultEnv(), 17);
    {
        auto store = openDurable(dir.path(), &fault);
        ASSERT_TRUE(store);
        for (uint64_t i = 0; i < 60; ++i)
            ASSERT_TRUE(
                store->put(makeKey(i), makeValue(i, 32)).isOk());

        // A checkpoint that cannot sync its snapshot must fail,
        // degrade the store, and leave the old WAL untouched.
        fault.setSyncError(true);
        EXPECT_FALSE(store->checkpoint().isOk());
        EXPECT_TRUE(store->isDegraded());
        EXPECT_TRUE(store
                        ->put(makeKey(999), makeValue(999, 8))
                        .isIODegraded());
        // Reads still serve while degraded.
        Bytes v;
        ASSERT_TRUE(store->get(makeKey(3), v).isOk());
        EXPECT_EQ(v, makeValue(3, 32));
        fault.setSyncError(false);
    }
    // Everything acked before the failed checkpoint recovers.
    auto store = openDurable(dir.path(), &fault);
    ASSERT_TRUE(store);
    EXPECT_EQ(store->liveKeyCount(), 60u);
    EXPECT_EQ(store->checkpointCount(), 0u);
}

TEST(LogStoreCheckpointTest, CrashAfterCheckpointKeepsSnapshot)
{
    // Unsynced post-checkpoint writes may be lost on power loss;
    // the checkpointed state itself must never be.
    ScratchDir dir("log_ckpt_crash");
    FaultInjectionEnv fault(Env::defaultEnv(), 23);
    {
        LogStoreOptions opts;
        opts.dir = dir.path();
        opts.sync_appends = false; // post-checkpoint tail unsynced
        opts.env = &fault;
        auto opened = AppendLogStore::open(opts);
        ASSERT_TRUE(opened.ok());
        auto store = opened.take();
        for (uint64_t i = 0; i < 50; ++i)
            ASSERT_TRUE(
                store->put(makeKey(i), makeValue(i, 32)).isOk());
        ASSERT_TRUE(store->checkpoint().isOk());
        for (uint64_t i = 50; i < 70; ++i)
            ASSERT_TRUE(
                store->put(makeKey(i), makeValue(i, 32)).isOk());
        fault.simulateCrash();
    }
    fault.reactivate();
    auto store = openDurable(dir.path(), &fault);
    ASSERT_TRUE(store);
    // At least the checkpoint survives; possibly some tail too.
    EXPECT_GE(store->liveKeyCount(), 50u);
    Bytes v;
    for (uint64_t i = 0; i < 50; ++i) {
        ASSERT_TRUE(store->get(makeKey(i), v).isOk())
            << "checkpointed key " << i << " lost";
        EXPECT_EQ(v, makeValue(i, 32));
    }
}

} // namespace
} // namespace ethkv::kv
