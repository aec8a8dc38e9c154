/**
 * @file
 * SSTable tests: write/read round trip across block boundaries,
 * point lookups, iterators, props, and format violations.
 *
 * The kvstore.asan_sstable ctest builds this file together with
 * sstable.cc under AddressSanitizer: point lookups hand out views
 * into a reused per-thread block buffer, and ASan checks that no
 * view outlives or overruns it.
 */

#include <gtest/gtest.h>

#include "kvstore/sstable.hh"
#include "test_util.hh"

namespace ethkv::kv
{
namespace
{

using testutil::ScratchDir;
using testutil::makeKey;
using testutil::makeValue;

std::string
writeTable(const std::string &path, uint64_t n,
           size_t value_len = 24)
{
    auto writer = SSTableWriter::create(path);
    EXPECT_TRUE(writer.ok());
    for (uint64_t i = 0; i < n; ++i) {
        InternalEntry e{makeKey(i), makeValue(i, value_len), i + 1,
                        i % 7 == 3 ? EntryType::Tombstone
                                   : EntryType::Put};
        if (e.type == EntryType::Tombstone)
            e.value.clear();
        EXPECT_TRUE(writer.value()->add(e).isOk());
    }
    EXPECT_TRUE(writer.value()->finish().isOk());
    return path;
}

TEST(SSTableTest, RoundTripSpansManyBlocks)
{
    ScratchDir dir("sst");
    std::string path = dir.path() + "/t.sst";
    const uint64_t n = 2000; // ~2000 * ~60B >> one 4 KiB block
    writeTable(path, n);

    auto reader = SSTableReader::open(path);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.value()->props().entry_count, n);
    EXPECT_EQ(reader.value()->props().smallest_key, makeKey(0));
    EXPECT_EQ(reader.value()->props().largest_key, makeKey(n - 1));
    EXPECT_GT(reader.value()->props().tombstone_count, 0u);

    for (uint64_t i = 0; i < n; ++i) {
        InternalEntry e;
        ASSERT_TRUE(reader.value()->get(makeKey(i), e).isOk())
            << "missing key " << i;
        EXPECT_EQ(e.seq, i + 1);
        if (i % 7 == 3) {
            EXPECT_EQ(e.type, EntryType::Tombstone);
        } else {
            EXPECT_EQ(e.type, EntryType::Put);
            EXPECT_EQ(e.value, makeValue(i));
        }
    }
}

TEST(SSTableTest, AbsentKeysReturnNotFound)
{
    ScratchDir dir("sst");
    std::string path = writeTable(dir.path() + "/t.sst", 100);
    auto reader = SSTableReader::open(path);
    ASSERT_TRUE(reader.ok());

    InternalEntry e;
    // Before, between, and after existing keys.
    EXPECT_TRUE(reader.value()->get("aaa", e).isNotFound());
    EXPECT_TRUE(
        reader.value()->get(makeKey(5, "x"), e).isNotFound());
    EXPECT_TRUE(reader.value()->get("zzz", e).isNotFound());
}

TEST(SSTableTest, IteratorVisitsAllInOrder)
{
    ScratchDir dir("sst");
    const uint64_t n = 1500;
    std::string path = writeTable(dir.path() + "/t.sst", n);
    auto reader = SSTableReader::open(path);
    ASSERT_TRUE(reader.ok());

    auto it = reader.value()->newIterator();
    it->seek(BytesView());
    uint64_t count = 0;
    Bytes prev;
    while (it->valid()) {
        if (count > 0)
            EXPECT_LT(prev, it->entry().key);
        prev = it->entry().key;
        ++count;
        it->next();
    }
    EXPECT_EQ(count, n);
}

TEST(SSTableTest, IteratorSeekMidRange)
{
    ScratchDir dir("sst");
    std::string path = writeTable(dir.path() + "/t.sst", 1000);
    auto reader = SSTableReader::open(path);
    ASSERT_TRUE(reader.ok());

    auto it = reader.value()->newIterator();
    it->seek(makeKey(500));
    ASSERT_TRUE(it->valid());
    EXPECT_EQ(it->entry().key, makeKey(500));

    // Seek to a key between entries.
    it->seek(makeKey(500, "x"));
    ASSERT_TRUE(it->valid());
    EXPECT_EQ(it->entry().key, makeKey(501));

    it->seek(makeKey(999, "x"));
    EXPECT_FALSE(it->valid());
}

TEST(SSTableTest, RejectsOutOfOrderKeys)
{
    ScratchDir dir("sst");
    auto writer = SSTableWriter::create(dir.path() + "/t.sst");
    ASSERT_TRUE(writer.ok());
    InternalEntry a{"bbb", "1", 1, EntryType::Put};
    InternalEntry b{"aaa", "2", 2, EntryType::Put};
    InternalEntry dup{"bbb", "3", 3, EntryType::Put};
    EXPECT_TRUE(writer.value()->add(a).isOk());
    EXPECT_FALSE(writer.value()->add(b).isOk());
    EXPECT_FALSE(writer.value()->add(dup).isOk());
}

TEST(SSTableTest, OpenRejectsGarbageFile)
{
    ScratchDir dir("sst");
    std::string path = dir.path() + "/garbage.sst";
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        Bytes junk(300, 'j');
        std::fwrite(junk.data(), 1, junk.size(), f);
        std::fclose(f);
    }
    EXPECT_FALSE(SSTableReader::open(path).ok());
}

TEST(SSTableTest, OpenRejectsTinyFile)
{
    ScratchDir dir("sst");
    std::string path = dir.path() + "/tiny.sst";
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        std::fwrite("xy", 1, 2, f);
        std::fclose(f);
    }
    EXPECT_FALSE(SSTableReader::open(path).ok());
}

TEST(SSTableTest, LargeValuesSpanBlocks)
{
    ScratchDir dir("sst");
    std::string path = dir.path() + "/big.sst";
    auto writer = SSTableWriter::create(path);
    ASSERT_TRUE(writer.ok());
    for (uint64_t i = 0; i < 10; ++i) {
        // 20 KiB values: each entry larger than a block.
        InternalEntry e{makeKey(i), makeValue(i, 20000), i + 1,
                        EntryType::Put};
        ASSERT_TRUE(writer.value()->add(e).isOk());
    }
    ASSERT_TRUE(writer.value()->finish().isOk());

    auto reader = SSTableReader::open(path);
    ASSERT_TRUE(reader.ok());
    for (uint64_t i = 0; i < 10; ++i) {
        InternalEntry e;
        ASSERT_TRUE(reader.value()->get(makeKey(i), e).isOk());
        EXPECT_EQ(e.value, makeValue(i, 20000));
    }
}

TEST(SSTableTest, BloomShortCircuitsAbsentKeys)
{
    ScratchDir dir("sst");
    std::string path = writeTable(dir.path() + "/t.sst", 500);
    auto reader = SSTableReader::open(path);
    ASSERT_TRUE(reader.ok());

    uint64_t before = reader.value()->bytesRead();
    int may = 0;
    for (uint64_t i = 0; i < 1000; ++i)
        may += reader.value()->mayContain(makeKey(i, "absent"));
    // Bloom checks read no blocks.
    EXPECT_EQ(reader.value()->bytesRead(), before);
    EXPECT_LT(may, 100);
}

TEST(SSTableTest, FilterIsSizedToTheKeysAdded)
{
    // 10 bits per key actually added, plus the hash-count byte: the
    // writer is no longer told a key count up front.
    ScratchDir dir("sst");
    for (uint64_t m : {7u, 1000u, 4321u}) {
        std::string path = writeTable(
            dir.path() + "/t" + std::to_string(m) + ".sst", m);
        auto reader = SSTableReader::open(path);
        ASSERT_TRUE(reader.ok());
        EXPECT_EQ(reader.value()->filterBytes(), (10 * m + 7) / 8 + 1)
            << m;
        for (uint64_t i = 0; i < m; ++i)
            ASSERT_TRUE(reader.value()->mayContain(makeKey(i))) << i;
        uint64_t positives = 0;
        const uint64_t absent = 20000;
        for (uint64_t i = 0; i < absent; ++i)
            positives += reader.value()->mayContain(makeKey(i, "no"));
        EXPECT_LE(positives, absent * 2 / 100) << m;
    }
}

TEST(SSTableTest, MalformedEntryAfterMatchIsCorruption)
{
    ScratchDir dir("sst");
    std::string path = dir.path() + "/t.sst";
    // Fixed-size entries: 1B klen + 1B vlen + 1B type + 1B seq +
    // 13B key + 24B value, so entry j starts at byte 41 * j of the
    // first block.
    constexpr size_t kEntryBytes = 41;
    {
        auto writer = SSTableWriter::create(path);
        ASSERT_TRUE(writer.ok());
        for (uint64_t i = 0; i < 50; ++i) {
            InternalEntry e{makeKey(i), makeValue(i, 24), i + 1,
                            EntryType::Put};
            ASSERT_EQ(e.key.size(), 13u);
            ASSERT_TRUE(writer.value()->add(e).isOk());
        }
        ASSERT_TRUE(writer.value()->finish().isOk());
    }
    {
        // An out-of-range type byte in entry 5; the lookup below
        // matches entry 2, which precedes it in the same block.
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fseek(f, 5 * kEntryBytes + 2, SEEK_SET), 0);
        std::fputc(0x7f, f);
        std::fclose(f);
    }
    auto reader = SSTableReader::open(path);
    ASSERT_TRUE(reader.ok());
    InternalEntry e;
    Status s = reader.value()->get(makeKey(2), e);
    EXPECT_EQ(s.code(), StatusCode::Corruption) << s.toString();
    s = reader.value()->get(makeKey(20), e);
    EXPECT_EQ(s.code(), StatusCode::Corruption) << s.toString();
}

TEST(SSTableTest, GetAgreesWithIteratorAcrossBlocks)
{
    ScratchDir dir("sst");
    const uint64_t n = 3000; // dozens of blocks, every 7th a tombstone
    std::string path = writeTable(dir.path() + "/t.sst", n);
    auto reader = SSTableReader::open(path);
    ASSERT_TRUE(reader.ok());

    std::vector<InternalEntry> scanned;
    auto it = reader.value()->newIterator();
    for (it->seek(BytesView()); it->valid(); it->next())
        scanned.push_back(it->entry().toEntry());
    ASSERT_EQ(scanned.size(), n);
    EXPECT_GT(reader.value()->props().tombstone_count, 0u);

    // Every key, so the first and last key of every block are
    // covered; and the gap after every key, so every absent key
    // that falls between two blocks is probed too.
    for (size_t i = 0; i < scanned.size(); ++i) {
        const InternalEntry &want = scanned[i];
        InternalEntry got;
        ASSERT_TRUE(reader.value()->get(want.key, got).isOk())
            << want.key;
        EXPECT_EQ(got.key, want.key);
        EXPECT_EQ(got.value, want.value);
        EXPECT_EQ(got.seq, want.seq);
        EXPECT_EQ(got.type, want.type);

        Bytes gap = want.key + "x";
        if (i + 1 < scanned.size()) {
            ASSERT_LT(gap, scanned[i + 1].key);
        }
        EXPECT_TRUE(reader.value()->get(gap, got).isNotFound())
            << gap;
    }
}

} // namespace
} // namespace ethkv::kv
