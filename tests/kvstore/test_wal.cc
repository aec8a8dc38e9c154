/**
 * @file
 * Engine WAL tests: the one log (ReplicationLog) in the layout the
 * LSM and log engines use (<dir>/wal-<n>.log): append/replay round
 * trip, torn-tail tolerance, corrupt record detection, reset, and
 * the record-file replay a log-engine snapshot goes through.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "kvstore/repl_log.hh"
#include "test_util.hh"

namespace ethkv::kv
{
namespace
{

using testutil::ScratchDir;

WriteBatch
sampleBatch(int tag)
{
    WriteBatch batch;
    batch.put("key-" + std::to_string(tag), "value-" +
              std::to_string(tag));
    batch.del("dead-" + std::to_string(tag));
    return batch;
}

std::unique_ptr<ReplicationLog>
openWal(const std::string &dir)
{
    ReplLogOptions options;
    options.dir = dir;
    options.stem = "wal";
    auto log = ReplicationLog::open(options);
    log.status().expectOk("open wal");
    return log.take();
}

/** Reopen the log in `dir` and replay it whole. */
std::vector<std::pair<WriteBatch, uint64_t>>
reopenAndReplay(const std::string &dir)
{
    auto log = openWal(dir);
    std::vector<std::pair<WriteBatch, uint64_t>> out;
    log->replay(log->startOffset(),
                [&](const WriteBatch &b, uint64_t seq) {
                    out.emplace_back(b, seq);
                })
        .expectOk("replay");
    return out;
}

TEST(WalTest, AppendReplayRoundTrip)
{
    ScratchDir dir("wal");
    {
        auto wal = openWal(dir.path());
        for (int i = 0; i < 10; ++i)
            ASSERT_TRUE(wal->append(sampleBatch(i), i * 100).isOk());
        ASSERT_TRUE(wal->sync().isOk());
    }
    EXPECT_TRUE(std::filesystem::exists(dir.path() + "/wal-000001.log"));

    auto records = reopenAndReplay(dir.path());
    ASSERT_EQ(records.size(), 10u);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(records[i].second, static_cast<uint64_t>(i * 100));
        EXPECT_EQ(records[i].first.size(), 2u);
    }
}

TEST(WalTest, ReplayPreservesEntryContent)
{
    ScratchDir dir("wal");
    {
        auto wal = openWal(dir.path());
        WriteBatch batch;
        batch.put("alpha", Bytes(1000, 'x'));
        batch.del("beta");
        batch.put("", ""); // empty key and value are legal
        ASSERT_TRUE(wal->append(batch, 7).isOk());
        ASSERT_TRUE(wal->sync().isOk());
    }
    auto records = reopenAndReplay(dir.path());
    ASSERT_EQ(records.size(), 1u);
    const WriteBatch &b = records[0].first;
    ASSERT_EQ(b.size(), 3u);
    EXPECT_EQ(records[0].second, 7u);
    EXPECT_EQ(b.entries()[0].op, BatchOp::Put);
    EXPECT_EQ(b.entries()[0].key, "alpha");
    EXPECT_EQ(b.entries()[0].value, Bytes(1000, 'x'));
    EXPECT_EQ(b.entries()[1].op, BatchOp::Delete);
    EXPECT_EQ(b.entries()[1].key, "beta");
    EXPECT_EQ(b.entries()[2].key, "");
}

TEST(WalTest, MissingFileReplaysNothing)
{
    int records = 0;
    ASSERT_TRUE(replayRecordFile(
                    "/nonexistent/ethkv/snapshot",
                    [&](const WriteBatch &, uint64_t) { ++records; },
                    Env::defaultEnv())
                    .isOk());
    EXPECT_EQ(records, 0);
}

TEST(WalTest, TornTailStopsCleanly)
{
    ScratchDir dir("wal");
    uint64_t end = 0;
    {
        auto wal = openWal(dir.path());
        for (int i = 0; i < 5; ++i)
            ASSERT_TRUE(wal->append(sampleBatch(i), i).isOk());
        ASSERT_TRUE(wal->sync().isOk());
        end = wal->endOffset();
    }
    // Chop bytes off the final record to simulate a crash mid-write.
    const std::string path = dir.path() + "/wal-000001.log";
    std::filesystem::resize_file(path, end - 3);

    EXPECT_EQ(reopenAndReplay(dir.path()).size(), 4u);
}

TEST(WalTest, CorruptRecordStopsReplay)
{
    ScratchDir dir("wal");
    {
        auto wal = openWal(dir.path());
        for (int i = 0; i < 3; ++i)
            ASSERT_TRUE(wal->append(sampleBatch(i), i).isOk());
        ASSERT_TRUE(wal->sync().isOk());
    }
    // Flip a byte inside the second record's payload.
    const std::string path = dir.path() + "/wal-000001.log";
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    char c;
    f.seekg(40);
    f.get(c);
    f.seekp(40);
    f.put(static_cast<char>(c ^ 0xff));
    f.close();

    EXPECT_LT(reopenAndReplay(dir.path()).size(), 3u);
}

TEST(WalTest, ResetTruncates)
{
    ScratchDir dir("wal");
    {
        auto wal = openWal(dir.path());
        ASSERT_TRUE(wal->append(sampleBatch(1), 1).isOk());
        const uint64_t end = wal->endOffset();
        EXPECT_GT(end, 0u);
        // A checkpoint's reset: empty, at the old end.
        ASSERT_TRUE(wal->reset(end, wal->lastSeq(), false).isOk());
        EXPECT_EQ(wal->startOffset(), end);
        EXPECT_EQ(wal->endOffset(), end);
        ASSERT_TRUE(wal->append(sampleBatch(2), 2).isOk());
        ASSERT_TRUE(wal->sync().isOk());
    }
    auto records = reopenAndReplay(dir.path());
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].second, 2u);
}

TEST(WalTest, AppendAfterReopenPreservesOldRecords)
{
    ScratchDir dir("wal");
    {
        auto wal = openWal(dir.path());
        ASSERT_TRUE(wal->append(sampleBatch(1), 1).isOk());
        ASSERT_TRUE(wal->sync().isOk());
    }
    {
        auto wal = openWal(dir.path());
        ASSERT_TRUE(wal->append(sampleBatch(2), 2).isOk());
        ASSERT_TRUE(wal->sync().isOk());
    }
    EXPECT_EQ(reopenAndReplay(dir.path()).size(), 2u);
}

} // namespace
} // namespace ethkv::kv
