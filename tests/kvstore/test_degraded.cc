/**
 * @file
 * Degraded-mode and quarantine tests for the durable engines.
 *
 * A persistent write-path I/O failure must flip an engine into
 * read-only service (Status::ioDegraded on mutations, reads still
 * answered) instead of crashing or silently dropping writes; a torn
 * log tail found during recovery must be salvaged into quarantine/,
 * never deleted.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/env.hh"
#include "common/fault_env.hh"
#include "kvstore/log_store.hh"
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

uint64_t
degradedTransitions()
{
    return obs::MetricsRegistry::global()
        .counter("kv.degraded_transitions")
        .value();
}

TEST(LsmDegradedTest, SyncFailureFlipsToReadOnly)
{
    ScratchDir dir("lsm_degraded");
    FaultInjectionEnv fault(Env::defaultEnv(), 7);
    LSMOptions options;
    options.dir = dir.path();
    options.sync_wal = true;
    options.env = &fault;
    auto store = LSMStore::open(options);
    ASSERT_TRUE(store.ok());

    ASSERT_TRUE(
        store.value()->put(makeKey(1), makeValue(1)).isOk());
    ASSERT_TRUE(store.value()->flush().isOk()); // key 1 -> SSTable
    ASSERT_TRUE(
        store.value()->put(makeKey(2), makeValue(2)).isOk());
    EXPECT_FALSE(store.value()->isDegraded());

    uint64_t transitions_before = degradedTransitions();
    fault.setSyncError(true);

    // The failing write surfaces the root cause ...
    Status s = store.value()->put(makeKey(3), makeValue(3));
    EXPECT_EQ(s.code(), StatusCode::IOError);
    EXPECT_TRUE(store.value()->isDegraded());
    EXPECT_FALSE(store.value()->degradedReason().empty());
    EXPECT_EQ(degradedTransitions(), transitions_before + 1);

    // ... and every later mutation reports the degraded state.
    EXPECT_TRUE(store.value()
                    ->put(makeKey(4), makeValue(4))
                    .isIODegraded());
    EXPECT_TRUE(store.value()->del(makeKey(1)).isIODegraded());
    EXPECT_TRUE(store.value()->flush().isIODegraded());
    EXPECT_TRUE(store.value()->compactAll().isIODegraded());
    // Degrading exactly once: the counter does not climb again.
    EXPECT_EQ(degradedTransitions(), transitions_before + 1);

    // Reads keep working, from SSTable and memtable alike.
    Bytes value;
    ASSERT_TRUE(store.value()->get(makeKey(1), value).isOk());
    EXPECT_EQ(value, makeValue(1));
    ASSERT_TRUE(store.value()->get(makeKey(2), value).isOk());
    EXPECT_EQ(value, makeValue(2));
    EXPECT_TRUE(store.value()->checkInvariants().isOk());
}

TEST(LsmDegradedTest, WriteFailureFlipsToReadOnly)
{
    ScratchDir dir("lsm_degraded");
    FaultInjectionEnv fault(Env::defaultEnv(), 7);
    LSMOptions options;
    options.dir = dir.path();
    options.env = &fault;
    auto store = LSMStore::open(options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(
        store.value()->put(makeKey(1), makeValue(1)).isOk());

    fault.setWriteError(true);
    EXPECT_EQ(store.value()->put(makeKey(2), makeValue(2)).code(),
              StatusCode::IOError);
    EXPECT_TRUE(store.value()->isDegraded());

    // Clearing the fault does not resurrect the store: degraded
    // mode is sticky until a clean reopen.
    fault.setWriteError(false);
    EXPECT_TRUE(store.value()
                    ->put(makeKey(2), makeValue(2))
                    .isIODegraded());
}

TEST(LsmDegradedTest, TornWalTailQuarantinedOnReopen)
{
    ScratchDir dir("lsm_degraded");
    Env *env = Env::defaultEnv();
    LSMOptions options;
    options.dir = dir.path();
    {
        auto store = LSMStore::open(options);
        ASSERT_TRUE(store.ok());
        for (uint64_t i = 0; i < 20; ++i) {
            ASSERT_TRUE(store.value()
                            ->put(makeKey(i), makeValue(i))
                            .isOk());
        }
    }

    // A crash mid-append leaves a torn record at the WAL tail.
    std::string wal = dir.path() + "/wal/wal-000001.log";
    auto valid = env->fileSize(wal);
    ASSERT_TRUE(valid.ok());
    Bytes torn = "\xff\xff\xff\xff" "byte-soup-from-a-torn-append";
    {
        auto file = env->newAppendableFile(wal);
        ASSERT_TRUE(file.ok());
        ASSERT_TRUE(file.value()->append(torn).isOk());
        ASSERT_TRUE(file.value()->close().isOk());
    }

    auto store = LSMStore::open(options);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ(store.value()->quarantinedBytes(), torn.size());

    // The tail went to quarantine/ byte for byte; nothing deleted.
    std::string tail_path = dir.path() +
                            "/wal/quarantine/wal-000001.log." +
                            std::to_string(valid.value()) + ".tail";
    Bytes salvaged;
    ASSERT_TRUE(env->readFileToString(tail_path, salvaged).isOk());
    EXPECT_EQ(salvaged, torn);

    // Every acked write survived the torn tail.
    Bytes value;
    for (uint64_t i = 0; i < 20; ++i) {
        ASSERT_TRUE(store.value()->get(makeKey(i), value).isOk());
        EXPECT_EQ(value, makeValue(i));
    }
    EXPECT_TRUE(store.value()->checkInvariants().isOk());
}

TEST(LogStoreDegradedTest, SyncFailureFlipsToReadOnly)
{
    ScratchDir dir("log_degraded");
    FaultInjectionEnv fault(Env::defaultEnv(), 7);
    LogStoreOptions options;
    options.dir = dir.path();
    options.sync_appends = true;
    options.env = &fault;
    auto store = AppendLogStore::open(options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(
        store.value()->put(makeKey(1), makeValue(1)).isOk());

    uint64_t transitions_before = degradedTransitions();
    fault.setSyncError(true);
    EXPECT_EQ(store.value()->put(makeKey(2), makeValue(2)).code(),
              StatusCode::IOError);
    EXPECT_TRUE(store.value()->isDegraded());
    EXPECT_FALSE(store.value()->degradedReason().empty());
    EXPECT_EQ(degradedTransitions(), transitions_before + 1);

    EXPECT_TRUE(store.value()
                    ->put(makeKey(3), makeValue(3))
                    .isIODegraded());
    EXPECT_TRUE(store.value()->del(makeKey(1)).isIODegraded());

    // Reads and the failed write's absence are both observable.
    Bytes value;
    ASSERT_TRUE(store.value()->get(makeKey(1), value).isOk());
    EXPECT_EQ(value, makeValue(1));
    EXPECT_TRUE(
        store.value()->get(makeKey(2), value).isNotFound());
}

TEST(LogStoreDegradedTest, DurableRoundTripAcrossReopen)
{
    ScratchDir dir("log_durable");
    LogStoreOptions options;
    options.dir = dir.path();
    {
        auto store = AppendLogStore::open(options);
        ASSERT_TRUE(store.ok());
        for (uint64_t i = 0; i < 30; ++i) {
            ASSERT_TRUE(store.value()
                            ->put(makeKey(i), makeValue(i))
                            .isOk());
        }
        // Overwrites and deletes must replay in order too.
        ASSERT_TRUE(
            store.value()->put(makeKey(3), makeValue(333)).isOk());
        ASSERT_TRUE(store.value()->del(makeKey(7)).isOk());
        ASSERT_TRUE(store.value()->flush().isOk());
    }

    auto store = AppendLogStore::open(options);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ(store.value()->liveKeyCount(), 29u);
    Bytes value;
    ASSERT_TRUE(store.value()->get(makeKey(3), value).isOk());
    EXPECT_EQ(value, makeValue(333));
    EXPECT_TRUE(store.value()->get(makeKey(7), value).isNotFound());
    ASSERT_TRUE(store.value()->get(makeKey(19), value).isOk());
    EXPECT_EQ(value, makeValue(19));
}

TEST(LogStoreDegradedTest, TornLogTailQuarantinedOnReopen)
{
    ScratchDir dir("log_degraded");
    Env *env = Env::defaultEnv();
    LogStoreOptions options;
    options.dir = dir.path();
    {
        auto store = AppendLogStore::open(options);
        ASSERT_TRUE(store.ok());
        for (uint64_t i = 0; i < 10; ++i) {
            ASSERT_TRUE(store.value()
                            ->put(makeKey(i), makeValue(i))
                            .isOk());
        }
        ASSERT_TRUE(store.value()->flush().isOk());
    }

    std::string log = dir.path() + "/wal/wal-000001.log";
    Bytes torn = "torn!";
    {
        auto file = env->newAppendableFile(log);
        ASSERT_TRUE(file.ok());
        ASSERT_TRUE(file.value()->append(torn).isOk());
        ASSERT_TRUE(file.value()->close().isOk());
    }

    auto store = AppendLogStore::open(options);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ(store.value()->quarantinedBytes(), torn.size());
    EXPECT_EQ(store.value()->liveKeyCount(), 10u);
    Bytes value;
    ASSERT_TRUE(store.value()->get(makeKey(9), value).isOk());
    EXPECT_EQ(value, makeValue(9));
}

TEST(LsmDegradedTest, BackgroundFlushFailureSurfacesSticky)
{
    // A failure on the background maintenance thread (here: the
    // freshly written L0 table cannot be read back) must degrade
    // the store so the foreground path reports IODegraded instead
    // of stalling forever behind an immutable queue that can never
    // drain.
    ScratchDir dir("lsm_degraded");
    FaultInjectionEnv fault(Env::defaultEnv(), 7);
    LSMOptions options;
    options.dir = dir.path();
    options.env = &fault;
    options.memtable_bytes = 1024; // Seal quickly.
    auto store = LSMStore::open(options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(
        store.value()->put(makeKey(0), makeValue(0)).isOk());

    uint64_t bg_before = obs::MetricsRegistry::global()
                             .counter("kv.bg_errors")
                             .value();
    fault.setPermanentReadError(true);
    for (uint64_t i = 1; i < 100; ++i) {
        Status s = store.value()->put(makeKey(i), makeValue(i));
        if (s.isIODegraded())
            break; // The background failure already surfaced.
        ASSERT_TRUE(s.isOk()) << s.toString();
    }
    // The barrier cannot outrun the failure: the queue only drains
    // through the failing background flush.
    EXPECT_TRUE(store.value()->flush().isIODegraded());
    EXPECT_TRUE(store.value()->isDegraded());
    EXPECT_GT(obs::MetricsRegistry::global()
                  .counter("kv.bg_errors")
                  .value(),
              bg_before);

    // Sticky: clearing the fault does not resurrect the store ...
    fault.setPermanentReadError(false);
    EXPECT_TRUE(store.value()
                    ->put(makeKey(200), makeValue(200))
                    .isIODegraded());
    // ... and in-memory reads (memtable + sealed memtables) still
    // answer.
    Bytes value;
    ASSERT_TRUE(store.value()->get(makeKey(0), value).isOk());
    EXPECT_EQ(value, makeValue(0));
    EXPECT_TRUE(store.value()->checkInvariants().isOk());
}

TEST(LsmDegradedTest, FailedCompactionClearsInProgressGuard)
{
    // in_compaction_ is owned by an RAII scope: an error return out
    // of a compaction must clear it, or maintenance is silently
    // disabled forever. (Tests run with ETHKV_FORCE_DCHECK, so a
    // leaked flag would also trip the scope's DCHECK on the next
    // compaction attempt.)
    ScratchDir dir("lsm_degraded");
    FaultInjectionEnv fault(Env::defaultEnv(), 7);
    LSMOptions options;
    options.dir = dir.path();
    options.env = &fault;
    options.l0_compaction_trigger = 4; // Stay below it.
    auto store = LSMStore::open(options);
    ASSERT_TRUE(store.ok());

    // Two quiesced L0 tables; under the trigger, so nothing
    // compacts in the background.
    for (uint64_t i = 0; i < 20; ++i)
        ASSERT_TRUE(
            store.value()->put(makeKey(i), makeValue(i)).isOk());
    ASSERT_TRUE(store.value()->flush().isOk());
    for (uint64_t i = 20; i < 40; ++i)
        ASSERT_TRUE(
            store.value()->put(makeKey(i), makeValue(i)).isOk());
    ASSERT_TRUE(store.value()->flush().isOk());

    fault.setWriteError(true);
    Status s = store.value()->compactAll();
    EXPECT_EQ(s.code(), StatusCode::IOError) << s.toString();
    EXPECT_FALSE(store.value()->compactionInProgressForTest());
    EXPECT_TRUE(store.value()->isDegraded());

    fault.setWriteError(false);
    EXPECT_TRUE(store.value()->compactAll().isIODegraded());
    EXPECT_FALSE(store.value()->compactionInProgressForTest());
    // Reads survive the failed compaction untouched.
    Bytes value;
    for (uint64_t i = 0; i < 40; ++i) {
        ASSERT_TRUE(store.value()->get(makeKey(i), value).isOk());
        EXPECT_EQ(value, makeValue(i));
    }
}

TEST(LogStoreDegradedTest, InMemoryModeNeverDegrades)
{
    // No dir: the store takes no I/O at all, so injected faults
    // cannot reach it (back-compat for the pure simulator path).
    AppendLogStore store;
    for (uint64_t i = 0; i < 100; ++i) {
        ASSERT_TRUE(store.put(makeKey(i), makeValue(i)).isOk());
    }
    EXPECT_FALSE(store.isDegraded());
    EXPECT_EQ(store.quarantinedBytes(), 0u);
}

} // namespace
} // namespace ethkv::kv
