/**
 * @file
 * Engine WAL tests: the one log (ReplicationLog) in the layout the
 * LSM and log engines use (<dir>/wal-<n>.log): append/replay round
 * trip, torn-tail tolerance, corrupt record detection, reset, the
 * record-file replay a log-engine snapshot goes through, and the
 * record encoder's bytes against a reference encoder.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "common/rand.hh"
#include "common/varint.hh"
#include "common/xxhash.hh"
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

/**
 * The record encoder as first written: payload built by appends,
 * then framed. Logs on disk and the replication wire carry these
 * bytes, so the encoder may get faster but never different.
 */
Bytes
referenceRecord(const WriteBatch &batch, uint64_t first_seq)
{
    Bytes payload;
    appendVarint(payload, first_seq);
    appendVarint(payload, batch.size());
    for (const BatchEntry &e : batch.entries()) {
        payload.push_back(static_cast<char>(e.op));
        appendVarint(payload, e.key.size());
        payload += e.key;
        appendVarint(payload, e.value.size());
        payload += e.value;
    }
    Bytes out;
    const auto len = static_cast<uint32_t>(payload.size());
    for (int shift = 24; shift >= 0; shift -= 8)
        out.push_back(static_cast<char>((len >> shift) & 0xff));
    appendBE64(out, xxhash64(payload));
    return out + payload;
}

/** A batch mixing puts, deletes, empty values, and keys/values
 *  long enough (>= 128 B) for multi-byte length varints. */
WriteBatch
randomBatch(Rng &rng, size_t entries)
{
    static const size_t lens[] = {0, 1, 31, 127, 128, 300, 20000};
    WriteBatch batch;
    for (size_t i = 0; i < entries; ++i) {
        Bytes key = rng.nextBytes(lens[rng.nextBounded(6)]);
        if (rng.nextBounded(4) == 0)
            batch.del(key);
        else
            batch.put(key, rng.nextBytes(lens[rng.nextBounded(7)]));
    }
    return batch;
}

TEST(WalTest, RecordEncoderMatchesReference)
{
    Rng rng(2024);
    // The empty batch, then random sizes; first_seq values cross
    // the one-, two- and nine-byte varint widths.
    const uint64_t seqs[] = {0, 1, 127, 128, 1u << 20,
                             ~uint64_t{0} - 4096};
    for (int round = 0; round < 200; ++round) {
        WriteBatch batch =
            randomBatch(rng, round == 0 ? 0 : rng.nextBounded(150));
        const uint64_t first_seq = seqs[round % 6];
        Bytes want = referenceRecord(batch, first_seq);

        // Appends after existing bytes, as logs batch records.
        Bytes got = "prefix";
        appendWalRecord(got, batch, first_seq);
        ASSERT_EQ(BytesView(got).substr(6), BytesView(want))
            << "round " << round;

        // A shard's part of the batch (every other entry) encodes
        // as the batch of just those entries would.
        std::vector<uint32_t> positions;
        WriteBatch part;
        for (uint32_t i = 0; i < batch.size(); i += 2) {
            positions.push_back(i);
            const BatchEntry &e = batch.entries()[i];
            if (e.op == BatchOp::Put)
                part.put(e.key, e.value);
            else
                part.del(e.key);
        }
        Bytes sub;
        appendWalRecord(sub, batch, positions, first_seq);
        ASSERT_EQ(sub, referenceRecord(part, first_seq))
            << "round " << round;

        // And decodes back to the same batch.
        size_t pos = 6;
        WriteBatch decoded;
        uint64_t seq = 0;
        ASSERT_TRUE(decodeWalRecord(got, pos, decoded, seq).isOk());
        EXPECT_EQ(pos, got.size());
        EXPECT_EQ(seq, first_seq);
        ASSERT_EQ(decoded.size(), batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
            EXPECT_EQ(decoded.entries()[i].op, batch.entries()[i].op);
            EXPECT_EQ(decoded.entries()[i].key,
                      batch.entries()[i].key);
            EXPECT_EQ(decoded.entries()[i].value,
                      batch.entries()[i].value);
        }
    }
}

TEST(WalTest, MalformedPayloadsRejected)
{
    // Intact frames (checksum matches) around payloads that lie.
    auto frame = [](const Bytes &payload) {
        Bytes out;
        const auto len = static_cast<uint32_t>(payload.size());
        for (int shift = 24; shift >= 0; shift -= 8)
            out.push_back(static_cast<char>((len >> shift) & 0xff));
        appendBE64(out, xxhash64(payload));
        return out + payload;
    };
    auto payload = [](uint64_t count, const Bytes &body) {
        Bytes p;
        appendVarint(p, 9); // first_seq
        appendVarint(p, count);
        return p + body;
    };
    const Bytes one_put = Bytes("\x00\x01k\x01v", 5);
    const std::vector<Bytes> bad = {
        Bytes(),                           // no first_seq
        payload(2, one_put),               // count past the entries
        payload(1u << 30, one_put),        // absurd count
        payload(1, one_put + "x"),         // trailing byte
        payload(1, Bytes("\x02\x01k\x01v", 5)), // bad op
        payload(1, Bytes("\x00\x05k\x01v", 5)), // key overrun
        payload(1, Bytes("\x00\x01k\x05v", 5)), // value overrun
    };
    for (size_t i = 0; i < bad.size(); ++i) {
        Bytes rec = frame(bad[i]);
        size_t pos = 0;
        WriteBatch batch;
        uint64_t seq = 0;
        EXPECT_EQ(decodeWalRecord(rec, pos, batch, seq).code(),
                  StatusCode::Corruption)
            << "case " << i;
        EXPECT_EQ(pos, 0u) << "case " << i;
    }
    // The good payload the cases above were cut from decodes.
    Bytes rec = frame(payload(1, one_put));
    size_t pos = 0;
    WriteBatch batch;
    uint64_t seq = 0;
    ASSERT_TRUE(decodeWalRecord(rec, pos, batch, seq).isOk());
    EXPECT_EQ(seq, 9u);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch.entries()[0].value, "v");
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
