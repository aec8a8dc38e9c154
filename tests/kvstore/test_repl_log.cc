/**
 * @file
 * ReplicationLog edge-case tests (DESIGN.md §13).
 *
 * The shipping log's contract is byte-exact: every offset below
 * endOffset() decodes, read() returns whole records rounded down
 * to the budget, and recovery quarantines torn tails instead of
 * shipping them. These tests drive rotation boundaries, reads that
 * straddle a rotation mid-stream, replay-from-offset at EVERY
 * record boundary, misaligned offsets, torn tails in the last and
 * in sealed segments, and fault-injected crashes and read errors.
 * The retention tests pin what truncation may drop (whole sealed
 * segments below the pin and outside the newest `keep_sealed`, as
 * the hub and the engines set them), that reads below the start
 * are a distinct status, and that the START marker survives
 * reopen, reset, and a crash between its write and the unlinks.
 */

#include <gtest/gtest.h>

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

/** A sealed-segment window like the replication hub's. */
constexpr uint64_t kWindow = 16;

bool
env_exists(const std::string &path)
{
    return Env::defaultEnv()->fileExists(path);
}

/** The i-th test batch: two puts, payload ~i-dependent. */
WriteBatch
testBatch(uint64_t i)
{
    WriteBatch batch;
    batch.put(makeKey(i * 2), makeValue(i * 2, 40));
    batch.put(makeKey(i * 2 + 1), makeValue(i * 2 + 1, 40));
    return batch;
}

/** Framed bytes of testBatch(i), as the log stores them. */
Bytes
testRecord(uint64_t i)
{
    Bytes out;
    appendWalRecord(out, testBatch(i), i * 2 + 1);
    return out;
}

ReplLogOptions
smallSegments(const std::string &dir, Env *env = nullptr)
{
    ReplLogOptions options;
    options.dir = dir;
    options.segment_bytes = 256; // a few records per segment
    options.env = env;
    return options;
}

/** Decode every record in `data`; EXPECT the prefix 0..count. */
void
expectRecords(BytesView data, uint64_t first, uint64_t count)
{
    size_t pos = 0;
    for (uint64_t i = first; i < first + count; ++i) {
        WriteBatch batch;
        uint64_t seq = 0;
        ASSERT_TRUE(decodeWalRecord(data, pos, batch, seq).isOk());
        EXPECT_EQ(seq, i * 2 + 1);
        ASSERT_EQ(batch.size(), 2u);
        EXPECT_EQ(batch.entries()[0].key, makeKey(i * 2));
    }
    EXPECT_EQ(pos, data.size());
}

TEST(ReplLog, AppendReadRoundTripAcrossRotation)
{
    ScratchDir dir("repl_roundtrip");
    auto log = ReplicationLog::open(smallSegments(dir.path()));
    ASSERT_TRUE(log.ok());

    std::vector<uint64_t> boundaries{0};
    for (uint64_t i = 0; i < 20; ++i) {
        uint64_t end = 0;
        ASSERT_TRUE(log.value()
                        ->append(testBatch(i), i * 2 + 1, &end)
                        .isOk());
        boundaries.push_back(end);
    }
    EXPECT_GT(log.value()->segments().size(), 2u)
        << "segment_bytes=256 must force rotation";
    EXPECT_EQ(log.value()->lastSeq(), 19 * 2 + 2);
    EXPECT_EQ(log.value()->recordCount(), 20u);

    // A big read from 0 spans sealed segments + the active one.
    Bytes all;
    ASSERT_TRUE(log.value()->read(0, 1u << 20, all).isOk());
    EXPECT_EQ(all.size(), boundaries.back());
    expectRecords(all, 0, 20);
}

TEST(ReplLog, ReadFromEveryRecordBoundary)
{
    ScratchDir dir("repl_boundaries");
    auto log = ReplicationLog::open(smallSegments(dir.path()));
    ASSERT_TRUE(log.ok());

    std::vector<uint64_t> boundaries{0};
    for (uint64_t i = 0; i < 12; ++i) {
        uint64_t end = 0;
        ASSERT_TRUE(log.value()
                        ->append(testBatch(i), i * 2 + 1, &end)
                        .isOk());
        boundaries.push_back(end);
    }
    // Resume-from-offset must work at EVERY boundary — this is the
    // follower handshake's whole contract, including boundaries
    // that coincide with a segment seam.
    for (uint64_t i = 0; i <= 12; ++i) {
        Bytes out;
        ASSERT_TRUE(
            log.value()->read(boundaries[i], 1u << 20, out).isOk())
            << "boundary " << i;
        EXPECT_EQ(out.size(), boundaries.back() - boundaries[i]);
        expectRecords(out, i, 12 - i);
    }
    // Reading exactly at the end is Ok-and-empty, not an error.
    Bytes none;
    ASSERT_TRUE(
        log.value()->read(boundaries.back(), 4096, none).isOk());
    EXPECT_TRUE(none.empty());
}

TEST(ReplLog, ReadRoundsDownToWholeRecords)
{
    ScratchDir dir("repl_rounddown");
    ReplLogOptions options;
    options.dir = dir.path();
    auto log = ReplicationLog::open(options);
    ASSERT_TRUE(log.ok());

    uint64_t first_end = 0;
    ASSERT_TRUE(
        log.value()->append(testBatch(0), 1, &first_end).isOk());
    ASSERT_TRUE(log.value()->append(testBatch(1), 3).isOk());

    // Budget covers record 0 plus half of record 1: only record 0
    // comes back.
    Bytes out;
    ASSERT_TRUE(
        log.value()
            ->read(0, static_cast<size_t>(first_end) + 4, out)
            .isOk());
    EXPECT_EQ(out.size(), first_end);
    expectRecords(out, 0, 1);

    // A budget smaller than the first record still returns it
    // whole — the reader must always make progress.
    out.clear();
    ASSERT_TRUE(log.value()->read(0, 1, out).isOk());
    EXPECT_EQ(out.size(), first_end);
}

TEST(ReplLog, MisalignedOffsetRejected)
{
    ScratchDir dir("repl_misaligned");
    ReplLogOptions options;
    options.dir = dir.path();
    auto log = ReplicationLog::open(options);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log.value()->append(testBatch(0), 1).isOk());

    Bytes out;
    Status s = log.value()->read(3, 4096, out);
    EXPECT_EQ(s.code(), StatusCode::InvalidArgument);
    // Past the end is misaligned too (nothing validates there).
    s = log.value()->read(log.value()->endOffset() + 12, 4096, out);
    EXPECT_EQ(s.code(), StatusCode::InvalidArgument);
}

TEST(ReplLog, AppendRawMatchesAppend)
{
    ScratchDir dir("repl_raw");
    // Follower log: appendRaw of the primary's framed bytes must
    // produce a byte-identical log (the failover invariant).
    auto primary = ReplicationLog::open(
        smallSegments(dir.path() + "/p"));
    auto follower = ReplicationLog::open(
        smallSegments(dir.path() + "/f"));
    ASSERT_TRUE(primary.ok());
    ASSERT_TRUE(follower.ok());

    for (uint64_t i = 0; i < 10; ++i) {
        ASSERT_TRUE(
            primary.value()->append(testBatch(i), i * 2 + 1).isOk());
    }
    Bytes shipped;
    ASSERT_TRUE(primary.value()->read(0, 1u << 20, shipped).isOk());

    uint64_t end = 0;
    ASSERT_TRUE(follower.value()->appendRaw(shipped, &end).isOk());
    EXPECT_EQ(end, primary.value()->endOffset());
    EXPECT_EQ(follower.value()->lastSeq(),
              primary.value()->lastSeq());

    Bytes replayed;
    ASSERT_TRUE(
        follower.value()->read(0, 1u << 20, replayed).isOk());
    EXPECT_EQ(BytesView(replayed), BytesView(shipped));

    // Torn raw bytes (half a record) must be rejected, not
    // appended: a follower never commits a partial record.
    Bytes torn = testRecord(10);
    torn.resize(torn.size() / 2);
    EXPECT_FALSE(follower.value()->appendRaw(torn, &end).isOk());
    EXPECT_EQ(follower.value()->endOffset(),
              primary.value()->endOffset());
}

TEST(ReplLog, ReopenRecoversExactEnd)
{
    ScratchDir dir("repl_reopen");
    uint64_t end = 0;
    {
        auto log = ReplicationLog::open(smallSegments(dir.path()));
        ASSERT_TRUE(log.ok());
        for (uint64_t i = 0; i < 15; ++i) {
            ASSERT_TRUE(log.value()
                            ->append(testBatch(i), i * 2 + 1, &end)
                            .isOk());
        }
    }
    auto log = ReplicationLog::open(smallSegments(dir.path()));
    ASSERT_TRUE(log.ok());
    EXPECT_EQ(log.value()->endOffset(), end);
    Bytes all;
    ASSERT_TRUE(log.value()->read(0, 1u << 20, all).isOk());
    expectRecords(all, 0, 15);
}

TEST(ReplLog, TornTailInLastSegmentQuarantined)
{
    ScratchDir dir("repl_torn_last");
    Env *env = Env::defaultEnv();
    uint64_t end = 0;
    {
        auto log = ReplicationLog::open(smallSegments(dir.path()));
        ASSERT_TRUE(log.ok());
        for (uint64_t i = 0; i < 6; ++i) {
            ASSERT_TRUE(log.value()
                            ->append(testBatch(i), i * 2 + 1, &end)
                            .isOk());
        }
    }
    // Tear the last segment mid-record by hand.
    auto segs_log = ReplicationLog::open(smallSegments(dir.path()));
    ASSERT_TRUE(segs_log.ok());
    auto segs = segs_log.value()->segments();
    segs_log.value().reset();
    ASSERT_FALSE(segs.empty());
    const ReplSegment &last = segs.back();
    char name[32];
    std::snprintf(name, sizeof(name), "repl-%06llu.log",
                  static_cast<unsigned long long>(last.index));
    std::string last_path = dir.path() + "/" + name;
    ASSERT_TRUE(
        env->truncateFile(last_path, last.length - 5).isOk());

    auto log = ReplicationLog::open(smallSegments(dir.path()));
    ASSERT_TRUE(log.ok());
    // The end dropped to the last whole record; every byte below
    // it still decodes.
    EXPECT_LT(log.value()->endOffset(), end);
    Bytes all;
    ASSERT_TRUE(log.value()
                    ->read(0, 1u << 20, all)
                    .isOk());
    size_t pos = 0;
    while (pos < all.size()) {
        WriteBatch batch;
        uint64_t seq = 0;
        ASSERT_TRUE(
            decodeWalRecord(all, pos, batch, seq).isOk());
    }
    // Appending after recovery continues from the validated end.
    ASSERT_TRUE(log.value()->append(testBatch(99), 199).isOk());
}

TEST(ReplLog, CorruptSealedSegmentTruncatesStream)
{
    ScratchDir dir("repl_torn_sealed");
    Env *env = Env::defaultEnv();
    {
        auto log = ReplicationLog::open(smallSegments(dir.path()));
        ASSERT_TRUE(log.ok());
        for (uint64_t i = 0; i < 12; ++i) {
            ASSERT_TRUE(
                log.value()->append(testBatch(i), i * 2 + 1).isOk());
        }
        ASSERT_GT(log.value()->segments().size(), 2u);
    }
    // Flip a byte in the FIRST (sealed) segment's middle: the
    // stream past the corruption is meaningless, so recovery must
    // truncate there even though later segments are intact.
    std::string first_path = dir.path() + "/repl-000001.log";
    auto size = env->fileSize(first_path);
    ASSERT_TRUE(size.ok());
    {
        auto file = env->newRandomAccessFile(first_path);
        ASSERT_TRUE(file.ok());
        Bytes content;
        ASSERT_TRUE(file.value()
                        ->read(0, size.value(), content)
                        .isOk());
        content[content.size() / 2] ^= 0x40;
        ASSERT_TRUE(env->writeStringToFile(first_path, content,
                                           /*sync=*/false)
                        .isOk());
    }

    auto log = ReplicationLog::open(smallSegments(dir.path()));
    ASSERT_TRUE(log.ok());
    EXPECT_LT(log.value()->endOffset(), size.value())
        << "end must fall below the corrupted record";
    Bytes all;
    ASSERT_TRUE(log.value()->read(0, 1u << 20, all).isOk());
    EXPECT_EQ(all.size(), log.value()->endOffset());
}

TEST(ReplLog, FaultEnvCrashKeepsEverySyncedRecord)
{
    ScratchDir dir("repl_fault_crash");
    FaultInjectionEnv fault(Env::defaultEnv(), /*seed=*/17);
    ReplLogOptions options = smallSegments(dir.path(), &fault);
    options.sync_appends = true; // the --sync wiring

    uint64_t synced_end = 0;
    {
        auto log = ReplicationLog::open(options);
        ASSERT_TRUE(log.ok());
        for (uint64_t i = 0; i < 8; ++i) {
            ASSERT_TRUE(
                log.value()->append(testBatch(i), i * 2 + 1).isOk());
        }
        ASSERT_GT(log.value()->segments().size(), 1u)
            << "the crash must land with rotated segments on disk";
        synced_end = log.value()->endOffset();
        fault.simulateCrash();
    }
    fault.reactivate();

    // Every synced record survives — including those in sealed
    // segments, whose directory entries rotation dir-synced.
    auto log = ReplicationLog::open(options);
    ASSERT_TRUE(log.ok());
    EXPECT_EQ(log.value()->endOffset(), synced_end);
    Bytes all;
    ASSERT_TRUE(log.value()->read(0, 1u << 20, all).isOk());
    expectRecords(all, 0, 8);
    ASSERT_TRUE(log.value()->append(testBatch(8), 17).isOk());
}

TEST(ReplLog, FaultEnvTornTailQuarantinedOnRecovery)
{
    ScratchDir dir("repl_fault_torn");
    FaultInjectionEnv fault(Env::defaultEnv(), /*seed=*/23);
    ReplLogOptions options;
    options.dir = dir.path();
    options.env = &fault;

    uint64_t synced_end = 0;
    {
        // Durable prefix first (entry + data synced)...
        ReplLogOptions synced = options;
        synced.sync_appends = true;
        auto log = ReplicationLog::open(synced);
        ASSERT_TRUE(log.ok());
        for (uint64_t i = 0; i < 4; ++i) {
            ASSERT_TRUE(
                log.value()->append(testBatch(i), i * 2 + 1).isOk());
        }
        synced_end = log.value()->endOffset();
    }
    {
        // ...then unsynced appends, and power loss that tears the
        // tail 7 bytes into the unsynced suffix.
        auto log = ReplicationLog::open(options);
        ASSERT_TRUE(log.ok());
        for (uint64_t i = 4; i < 8; ++i) {
            ASSERT_TRUE(
                log.value()->append(testBatch(i), i * 2 + 1).isOk());
        }
        fault.crashKeepUnsyncedBytes(7);
        fault.simulateCrash();
    }
    fault.reactivate();

    // Recovery lands exactly on the synced prefix: the 7 torn
    // bytes are quarantined, never shipped to a follower.
    auto log = ReplicationLog::open(options);
    ASSERT_TRUE(log.ok());
    EXPECT_EQ(log.value()->endOffset(), synced_end);
    Bytes all;
    ASSERT_TRUE(log.value()->read(0, 1u << 20, all).isOk());
    expectRecords(all, 0, 4);
    ASSERT_TRUE(log.value()->append(testBatch(99), 199).isOk());
}

TEST(ReplLog, ReadErrorSurfacesAsIOError)
{
    ScratchDir dir("repl_fault_read");
    FaultInjectionEnv fault(Env::defaultEnv(), /*seed=*/5);
    ReplLogOptions options = smallSegments(dir.path(), &fault);
    auto log = ReplicationLog::open(options);
    ASSERT_TRUE(log.ok());
    for (uint64_t i = 0; i < 12; ++i) {
        ASSERT_TRUE(
            log.value()->append(testBatch(i), i * 2 + 1).isOk());
    }
    ASSERT_GT(log.value()->segments().size(), 2u);

    // Sealed segments are read through the Env: a dead disk must
    // surface as IOError to the sender, not as silent truncation.
    fault.setPermanentReadError(true);
    Bytes out;
    Status s = log.value()->read(0, 1u << 20, out);
    EXPECT_TRUE(s.code() == StatusCode::IOError ||
                s.code() == StatusCode::IODegraded)
        << s.toString();
    // The active segment too: no in-memory copy hides the disk.
    const uint64_t active = log.value()->segments().back().start_offset;
    out.clear();
    s = log.value()->read(active, 1u << 20, out);
    EXPECT_FALSE(s.isOk()) << "active segment read bypassed the Env";
    fault.setPermanentReadError(false);
    out.clear();
    EXPECT_TRUE(log.value()->read(0, 1u << 20, out).isOk());
}

/** Path of segment `index`, as the log names it. */
std::string
segmentFile(const std::string &dir, uint64_t index)
{
    char name[32];
    std::snprintf(name, sizeof name, "/repl-%06llu.log",
                  static_cast<unsigned long long>(index));
    return dir + name;
}

TEST(ReplLog, RetentionDropsOnlyWholeSealedSegmentsBelowPin)
{
    ScratchDir dir("repl_retain_pin");
    auto log = ReplicationLog::open(smallSegments(dir.path()));
    ASSERT_TRUE(log.ok());
    ReplicationLog &l = *log.value();

    // Pin mid-record: a follower has acked up to record 8's start
    // plus one byte of it (offsets are only ever record
    // boundaries, but the rule must hold for any pin).
    std::vector<uint64_t> boundaries{0};
    for (uint64_t i = 0; i < 9; ++i) {
        uint64_t end = 0;
        ASSERT_TRUE(l.append(testBatch(i), i * 2 + 1, &end).isOk());
        boundaries.push_back(end);
    }
    const uint64_t pin = boundaries[8] + 1;
    l.setRetention(pin, kWindow);
    for (uint64_t i = 9; i < 80; ++i)
        ASSERT_TRUE(l.append(testBatch(i), i * 2 + 1).isOk());

    auto segs = l.segments();
    ASSERT_GT(segs.size(), kWindow + 1)
        << "the pin, not the window, must bound this truncation";
    EXPECT_GT(l.startOffset(), 0u);
    EXPECT_EQ(l.startOffset(), segs.front().start_offset);
    // The first retained segment holds the pin: everything
    // dropped lay wholly below it.
    EXPECT_LE(segs.front().start_offset, pin);
    EXPECT_GT(segs.front().start_offset + segs.front().length, pin);
    EXPECT_FALSE(env_exists(segmentFile(dir.path(), 1)));
    EXPECT_TRUE(
        env_exists(segmentFile(dir.path(), segs.front().index)));

    // Below the start is its own status, not a misaligned read.
    Bytes out;
    EXPECT_TRUE(l.read(0, 1u << 20, out).isNotFound());
    EXPECT_TRUE(
        l.read(l.startOffset() - 1, 1u << 20, out).isNotFound());
    EXPECT_TRUE(out.empty());
    ASSERT_TRUE(l.read(l.startOffset(), 1u << 20, out).isOk());
    EXPECT_EQ(l.startOffset() + out.size(), l.endOffset());

    // Unpinned: only the newest sealed window plus the active
    // segment remain once the next rotation runs retention.
    l.setRetention(~0ull, kWindow);
    for (uint64_t i = 80; i < 90; ++i)
        ASSERT_TRUE(l.append(testBatch(i), i * 2 + 1).isOk());
    EXPECT_EQ(l.segments().size(), kWindow + 1);
    EXPECT_EQ(l.lastSeq(), 89 * 2 + 2);
}

TEST(ReplLog, FreshLogDropsNothingAndEngineTrimDropsAllBelow)
{
    ScratchDir dir("repl_retain_engine");
    auto log = ReplicationLog::open(smallSegments(dir.path()));
    ASSERT_TRUE(log.ok());
    ReplicationLog &l = *log.value();
    std::vector<uint64_t> boundaries{0};
    for (uint64_t i = 0; i < 40; ++i) {
        uint64_t end = 0;
        ASSERT_TRUE(l.append(testBatch(i), i * 2 + 1, &end).isOk());
        boundaries.push_back(end);
    }
    // No pin set: every segment stays.
    EXPECT_EQ(l.startOffset(), 0u);
    EXPECT_TRUE(env_exists(segmentFile(dir.path(), 1)));
    const size_t all = l.segments().size();
    ASSERT_GT(all, 4u);

    // A pin with no window: every sealed segment wholly below it
    // goes at the next rotation, and nothing goes before.
    const uint64_t log_start = boundaries[30];
    l.setRetention(log_start, 0);
    EXPECT_EQ(l.segments().size(), all);
    for (uint64_t i = 40; i < 44; ++i)
        ASSERT_TRUE(l.append(testBatch(i), i * 2 + 1).isOk());
    auto segs = l.segments();
    EXPECT_LT(segs.size(), all);
    EXPECT_LE(segs.front().start_offset, log_start);
    EXPECT_TRUE(segs.size() == 1 ||
                segs.front().start_offset + segs.front().length >
                    log_start);
    EXPECT_FALSE(env_exists(segmentFile(dir.path(), 1)));

    // Replay from log_start sees exactly the records past it.
    uint64_t replayed = 0;
    ASSERT_TRUE(l.replay(log_start,
                         [&](const WriteBatch &, uint64_t seq) {
                             EXPECT_EQ(seq, (30 + replayed) * 2 + 1);
                             ++replayed;
                         })
                    .isOk());
    EXPECT_EQ(replayed, 14u);
    EXPECT_FALSE(l.replay(0, [](const WriteBatch &, uint64_t) {})
                     .isOk());

    // trimTo drops at once, and with nothing left to keep, the
    // active segment goes too.
    const uint64_t end = l.endOffset();
    ASSERT_TRUE(l.trimTo(end).isOk());
    ASSERT_EQ(l.segments().size(), 1u);
    EXPECT_EQ(l.segments().front().length, 0u);
    EXPECT_EQ(l.startOffset(), end);
    EXPECT_EQ(l.endOffset(), end);
}

TEST(ReplLog, ReopenAfterTruncationKeepsStartAndEnd)
{
    ScratchDir dir("repl_retain_reopen");
    uint64_t start = 0, end = 0, last_seq = 0;
    {
        auto log = ReplicationLog::open(smallSegments(dir.path()));
        ASSERT_TRUE(log.ok());
        log.value()->setRetention(~0ull, kWindow);
        for (uint64_t i = 0; i < 60; ++i)
            ASSERT_TRUE(
                log.value()->append(testBatch(i), i * 2 + 1).isOk());
        start = log.value()->startOffset();
        end = log.value()->endOffset();
        last_seq = log.value()->lastSeq();
        ASSERT_GT(start, 0u);
    }
    auto log = ReplicationLog::open(smallSegments(dir.path()));
    ASSERT_TRUE(log.ok());
    EXPECT_EQ(log.value()->startOffset(), start);
    EXPECT_EQ(log.value()->endOffset(), end);
    EXPECT_EQ(log.value()->lastSeq(), last_seq);
    Bytes out;
    ASSERT_TRUE(log.value()->read(start, 1u << 20, out).isOk());
    EXPECT_EQ(start + out.size(), end);
    // Appends continue the offset space past the reopen.
    uint64_t next_end = 0;
    ASSERT_TRUE(
        log.value()->append(testBatch(60), 121, &next_end).isOk());
    EXPECT_EQ(next_end, end + testRecord(60).size());
}

/** A FaultInjectionEnv whose unlinks can be made to fail, so a
 *  crash can land after a START write and before its unlinks. */
class NoUnlinkEnv : public FaultInjectionEnv
{
  public:
    using FaultInjectionEnv::FaultInjectionEnv;

    Status
    removeFile(const std::string &path) override
    {
        if (fail_removes)
            return Status::ioError("injected: unlink " + path);
        return FaultInjectionEnv::removeFile(path);
    }

    bool fail_removes = false;
};

TEST(ReplLog, CrashBetweenStartMarkerAndUnlinks)
{
    ScratchDir dir("repl_retain_crash");
    NoUnlinkEnv fault(Env::defaultEnv(), /*seed=*/23);
    ReplLogOptions options = smallSegments(dir.path(), &fault);
    options.sync_appends = true; // markers are synced with --sync

    uint64_t want_start = 0, want_end = 0;
    {
        auto log = ReplicationLog::open(options);
        ASSERT_TRUE(log.ok());
        log.value()->setRetention(~0ull, kWindow);
        fault.fail_removes = true;
        for (uint64_t i = 0; i < 60; ++i)
            ASSERT_TRUE(
                log.value()->append(testBatch(i), i * 2 + 1).isOk())
                << "a failed truncation must not fail the append";
        // Every truncation rewrote START and then failed to
        // unlink: the log starts past the dropped segments, whose
        // files are still on disk.
        auto segs = log.value()->segments();
        ASSERT_EQ(segs.size(), kWindow + 1);
        want_start = log.value()->startOffset();
        EXPECT_EQ(want_start, segs.front().start_offset);
        EXPECT_GT(want_start, 0u);
        EXPECT_TRUE(env_exists(segmentFile(dir.path(), 1)));
        want_end = log.value()->endOffset();
        Bytes out;
        EXPECT_TRUE(log.value()->read(0, 1, out).isNotFound());
        fault.simulateCrash();
    }
    fault.reactivate();
    fault.fail_removes = false;

    for (int round = 0; round < 2; ++round) {
        auto log = ReplicationLog::open(options);
        ASSERT_TRUE(log.ok()) << log.status().toString();
        EXPECT_EQ(log.value()->startOffset(), want_start);
        EXPECT_EQ(log.value()->endOffset(), want_end);
        EXPECT_FALSE(env_exists(segmentFile(dir.path(), 1)))
            << "open() must finish the interrupted unlinks";
        Bytes out;
        ASSERT_TRUE(
            log.value()->read(want_start, 1u << 20, out).isOk());
        EXPECT_EQ(want_start + out.size(), want_end);
    }
}

/** Without sync_appends, an engine's trimTo() and reset() still
 *  unlink segments: the START marker that moves past them must be
 *  durable first, or a power cut leaves a log that does not open. */
TEST(ReplLog, UnsyncedTrimAndResetSurviveACrash)
{
    ScratchDir dir("repl_unsynced_trim_crash");
    FaultInjectionEnv fault(Env::defaultEnv(), /*seed=*/31);
    ReplLogOptions options = smallSegments(dir.path(), &fault);
    ASSERT_FALSE(options.sync_appends);

    uint64_t want_start = 0, synced_end = 0;
    {
        auto log = ReplicationLog::open(options);
        ASSERT_TRUE(log.ok());
        std::vector<uint64_t> boundaries{0};
        for (uint64_t i = 0; i < 30; ++i) {
            uint64_t end = 0;
            ASSERT_TRUE(log.value()
                            ->append(testBatch(i), i * 2 + 1, &end)
                            .isOk());
            boundaries.push_back(end);
            if (i == 19) {
                ASSERT_TRUE(log.value()->sync().isOk());
                synced_end = end;
            }
        }
        ASSERT_TRUE(log.value()->trimTo(boundaries[15]).isOk());
        want_start = log.value()->startOffset();
        ASSERT_GT(want_start, 0u);
        EXPECT_FALSE(env_exists(segmentFile(dir.path(), 1)));
        fault.simulateCrash();
    }
    fault.reactivate();

    uint64_t reset_at = 0;
    {
        auto log = ReplicationLog::open(options);
        ASSERT_TRUE(log.ok()) << log.status().toString();
        EXPECT_EQ(log.value()->startOffset(), want_start);
        EXPECT_GE(log.value()->endOffset(), synced_end);
        // A checkpoint's reset: every segment goes at once.
        reset_at = log.value()->endOffset();
        ASSERT_TRUE(log.value()->reset(reset_at, 59, false).isOk());
        fault.simulateCrash();
    }
    fault.reactivate();

    auto log = ReplicationLog::open(options);
    ASSERT_TRUE(log.ok()) << log.status().toString();
    EXPECT_EQ(log.value()->startOffset(), reset_at);
    EXPECT_EQ(log.value()->endOffset(), reset_at);
}

TEST(ReplLog, ResetRestartsTheOffsetSpaceAndPersists)
{
    ScratchDir dir("repl_reset");
    {
        auto log = ReplicationLog::open(smallSegments(dir.path()));
        ASSERT_TRUE(log.ok());
        for (uint64_t i = 0; i < 6; ++i)
            ASSERT_TRUE(
                log.value()->append(testBatch(i), i * 2 + 1).isOk());
        // Snapshot begins: empty at 0, marked pending.
        ASSERT_TRUE(log.value()->reset(0, 0, true).isOk());
        EXPECT_TRUE(log.value()->snapshotPending());
        EXPECT_EQ(log.value()->endOffset(), 0u);
    }
    {
        // A crash mid-snapshot reopens empty and still pending.
        auto log = ReplicationLog::open(smallSegments(dir.path()));
        ASSERT_TRUE(log.ok());
        EXPECT_TRUE(log.value()->snapshotPending());
        EXPECT_EQ(log.value()->startOffset(), 0u);
        EXPECT_EQ(log.value()->endOffset(), 0u);
        // Snapshot applied: the log restarts at its base.
        ASSERT_TRUE(log.value()->reset(5000, 77, false).isOk());
        EXPECT_FALSE(log.value()->snapshotPending());
        uint64_t end = 0;
        ASSERT_TRUE(
            log.value()->append(testBatch(39), 79, &end).isOk());
        EXPECT_EQ(end, 5000 + testRecord(39).size());
    }
    auto log = ReplicationLog::open(smallSegments(dir.path()));
    ASSERT_TRUE(log.ok());
    EXPECT_FALSE(log.value()->snapshotPending());
    EXPECT_EQ(log.value()->startOffset(), 5000u);
    EXPECT_EQ(log.value()->endOffset(),
              5000 + testRecord(39).size());
    EXPECT_EQ(log.value()->lastSeq(), 80u);
    Bytes out;
    EXPECT_TRUE(log.value()->read(0, 1u << 20, out).isNotFound());
    ASSERT_TRUE(log.value()->read(5000, 1u << 20, out).isOk());
    EXPECT_EQ(out, testRecord(39));
}

} // namespace
} // namespace ethkv::kv
