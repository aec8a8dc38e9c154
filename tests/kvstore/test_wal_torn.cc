/**
 * @file
 * WAL torn-record property tests, on the one log (ReplicationLog)
 * in the engine layout (<dir>/wal-<n>.log).
 *
 * A crash can cut a log at ANY byte offset, so these tests check
 * recovery at every seam: a segmented log is truncated at each byte
 * of its records (PosixEnv), including every seam between two
 * segments, and the same property is driven through
 * FaultInjectionEnv's pinned torn-tail crashes. In every case the
 * reopened log must end exactly at the last whole record, replay
 * exactly the batches whose records fit in the surviving prefix,
 * quarantine the rest, and take new appends where the prefix ends.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/fault_env.hh"
#include "kvstore/repl_log.hh"
#include "test_util.hh"

namespace ethkv::kv
{
namespace
{

using testutil::ScratchDir;
using testutil::makeKey;
using testutil::makeValue;

constexpr size_t num_batches = 5;

/** The i-th test batch: three puts and one delete. */
WriteBatch
testBatch(size_t i)
{
    WriteBatch batch;
    for (size_t j = 0; j < 3; ++j) {
        batch.put(makeKey(i * 10 + j), makeValue(i * 10 + j));
    }
    batch.del(makeKey(i * 10 + 7));
    return batch;
}

uint64_t
firstSeq(size_t i)
{
    return i * 4 + 1;
}

/** Replayed batches must be exactly testBatch(0..count). */
void
expectPrefix(const std::vector<std::pair<WriteBatch, uint64_t>> &got,
             size_t count)
{
    ASSERT_EQ(got.size(), count);
    for (size_t i = 0; i < count; ++i) {
        WriteBatch want = testBatch(i);
        EXPECT_EQ(got[i].second, firstSeq(i));
        ASSERT_EQ(got[i].first.size(), want.size());
        for (size_t e = 0; e < want.size(); ++e) {
            EXPECT_EQ(got[i].first.entries()[e].op,
                      want.entries()[e].op);
            EXPECT_EQ(got[i].first.entries()[e].key,
                      want.entries()[e].key);
            EXPECT_EQ(got[i].first.entries()[e].value,
                      want.entries()[e].value);
        }
    }
}

using Replayed = std::vector<std::pair<WriteBatch, uint64_t>>;

/** Small enough that the test batches span three segments. */
constexpr uint64_t kSeamSegmentBytes = 300;

std::unique_ptr<ReplicationLog>
openWal(const std::string &dir, Env *env,
        uint64_t segment_bytes = kSeamSegmentBytes)
{
    ReplLogOptions options;
    options.dir = dir;
    options.stem = "wal";
    options.segment_bytes = segment_bytes;
    options.env = env;
    auto log = ReplicationLog::open(options);
    log.status().expectOk("open wal");
    return log.take();
}

Replayed
replayAll(ReplicationLog &log)
{
    Replayed got;
    log.replay(log.startOffset(),
               [&](const WriteBatch &b, uint64_t seq) {
                   got.emplace_back(b, seq);
               })
        .expectOk("replay");
    return got;
}

/** Write the test batches, returning each record's end offset. */
std::vector<uint64_t>
writeTestLog(ReplicationLog &wal)
{
    std::vector<uint64_t> boundaries;
    for (size_t i = 0; i < num_batches; ++i) {
        uint64_t end = 0;
        EXPECT_TRUE(wal.append(testBatch(i), firstSeq(i), &end).isOk());
        boundaries.push_back(end);
    }
    EXPECT_TRUE(wal.sync().isOk());
    return boundaries;
}

/** Number of boundaries at or below len = intact record count. */
size_t
intactCount(const std::vector<uint64_t> &boundaries, uint64_t len)
{
    size_t n = 0;
    while (n < boundaries.size() && boundaries[n] <= len)
        ++n;
    return n;
}

/** Recreate `full`'s segments in `dir` as a crash at global offset
 *  len leaves them: later segments never created, the one holding
 *  len cut there. */
void
writeTornCopy(const std::string &dir,
              const std::vector<ReplSegment> &segments,
              const std::vector<Bytes> &contents, uint64_t len)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    Env *env = Env::defaultEnv();
    for (size_t i = 0; i < segments.size(); ++i) {
        const ReplSegment &seg = segments[i];
        if (seg.start_offset >= len && seg.start_offset > 0)
            break;
        const size_t keep = static_cast<size_t>(
            std::min<uint64_t>(seg.length, len - seg.start_offset));
        char name[32];
        std::snprintf(name, sizeof name, "/wal-%06llu.log",
                      static_cast<unsigned long long>(seg.index));
        env->writeStringToFile(dir + name,
                               BytesView(contents[i]).substr(0, keep),
                               false)
            .expectOk("write torn segment");
    }
}

TEST(WalTornTest, ReplayAtEveryTruncationOffset)
{
    ScratchDir dir("wal_torn");
    Env *env = Env::defaultEnv();
    const std::string full_dir = dir.path() + "/full";
    std::vector<uint64_t> boundaries;
    std::vector<ReplSegment> segments;
    std::vector<Bytes> contents;
    {
        auto full = openWal(full_dir, env);
        boundaries = writeTestLog(*full);
        segments = full->segments();
    }
    ASSERT_GE(segments.size(), 3u) << "the test wants seams";
    uint64_t total = 0;
    for (const ReplSegment &seg : segments) {
        char name[32];
        std::snprintf(name, sizeof name, "/wal-%06llu.log",
                      static_cast<unsigned long long>(seg.index));
        contents.emplace_back();
        ASSERT_TRUE(
            env->readFileToString(full_dir + name, contents.back())
                .isOk());
        total += contents.back().size();
    }
    ASSERT_EQ(total, boundaries.back());

    const std::string torn_dir = dir.path() + "/torn";
    for (uint64_t len = 0; len <= total; ++len) {
        SCOPED_TRACE("truncated at byte " + std::to_string(len));
        writeTornCopy(torn_dir, segments, contents, len);
        const size_t count = intactCount(boundaries, len);
        const uint64_t valid = count ? boundaries[count - 1] : 0;
        {
            auto torn = openWal(torn_dir, env);
            // The log ends exactly at the last whole record;
            // everything past it went to quarantine.
            EXPECT_EQ(torn->endOffset(), valid);
            EXPECT_EQ(torn->quarantinedBytes(), len - valid);
            expectPrefix(replayAll(*torn), count);
            // A new record lands where the intact prefix ends.
            ASSERT_TRUE(torn->append(testBatch(count), firstSeq(count))
                            .isOk());
        }
        auto reopened = openWal(torn_dir, env);
        expectPrefix(replayAll(*reopened), count + 1);
    }
}

TEST(WalTornTest, CorruptTailRecordStopsReplayCleanly)
{
    ScratchDir dir("wal_torn");
    Env *env = Env::defaultEnv();
    std::vector<uint64_t> boundaries;
    ReplSegment last;
    {
        auto wal = openWal(dir.path(), env);
        boundaries = writeTestLog(*wal);
        last = wal->segments().back();
    }

    // Flip one payload byte inside the last record: its checksum
    // no longer matches, so recovery must stop after batch 4
    // without reporting an error (crash-tail semantics).
    const uint64_t victim = boundaries[num_batches - 2] + 14;
    ASSERT_GE(victim, last.start_offset);
    char name[32];
    std::snprintf(name, sizeof name, "/wal-%06llu.log",
                  static_cast<unsigned long long>(last.index));
    const std::string path = dir.path() + name;
    Bytes data;
    ASSERT_TRUE(env->readFileToString(path, data).isOk());
    data[static_cast<size_t>(victim - last.start_offset)] ^= 0x5a;
    ASSERT_TRUE(env->writeStringToFile(path, data, false).isOk());

    auto wal = openWal(dir.path(), env);
    expectPrefix(replayAll(*wal), num_batches - 1);
    EXPECT_EQ(wal->endOffset(), boundaries[num_batches - 2]);
}

TEST(WalTornTest, MissingLogReplaysEmpty)
{
    ScratchDir dir("wal_torn");
    auto wal = openWal(dir.path() + "/absent", Env::defaultEnv());
    EXPECT_EQ(wal->endOffset(), 0u);
    EXPECT_TRUE(replayAll(*wal).empty());
    EXPECT_EQ(wal->quarantinedBytes(), 0u);
}

TEST(WalTornTest, FaultEnvCrashAtEveryTornTailLength)
{
    // The same seam property, but the tear comes from the fault
    // env's crash model: batches 0-1 are synced (must survive),
    // batches 2-4 are in the "page cache" and crash-torn at every
    // possible length. One segment, so the tear is the file's.
    ScratchDir dir("wal_torn");
    Env *base = Env::defaultEnv();
    constexpr uint64_t kOneSegment = 1u << 20;

    // Probe the record boundaries once on the base env.
    std::vector<uint64_t> boundaries;
    {
        auto probe = openWal(dir.path() + "/probe", base, kOneSegment);
        boundaries = writeTestLog(*probe);
    }
    uint64_t synced_len = boundaries[1];
    uint64_t unsynced_len = boundaries.back() - synced_len;

    for (uint64_t keep = 0; keep <= unsynced_len; ++keep) {
        FaultInjectionEnv fault(base, keep + 1);
        const std::string log_dir =
            dir.path() + "/crash_" + std::to_string(keep);
        {
            auto wal = openWal(log_dir, &fault, kOneSegment);
            ASSERT_TRUE(fault.syncDir(log_dir).isOk());
            for (size_t i = 0; i < num_batches; ++i) {
                ASSERT_TRUE(
                    wal->append(testBatch(i), firstSeq(i)).isOk());
                if (i == 1) {
                    ASSERT_TRUE(wal->sync().isOk());
                }
            }
        }
        fault.crashKeepUnsyncedBytes(
            static_cast<int64_t>(keep));
        fault.simulateCrash();
        fault.reactivate();

        auto wal = openWal(log_dir, &fault, kOneSegment);
        size_t count = intactCount(boundaries, synced_len + keep);
        SCOPED_TRACE("crash kept " + std::to_string(keep) +
                     " unsynced bytes");
        ASSERT_GE(count, 2u); // acked-synced batches never vanish
        expectPrefix(replayAll(*wal), count);
        EXPECT_EQ(wal->endOffset(), boundaries[count - 1]);
    }
}

} // namespace
} // namespace ethkv::kv
