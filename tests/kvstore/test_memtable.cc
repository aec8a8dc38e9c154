/**
 * @file
 * Skiplist memtable tests: ordering, supersession, tombstones,
 * iterator behaviour.
 */

#include <gtest/gtest.h>

#include <map>

#include "kvstore/memtable.hh"
#include "test_util.hh"

namespace ethkv::kv
{
namespace
{

using testutil::makeKey;
using testutil::makeValue;

TEST(MemTableTest, PutAndGet)
{
    MemTable table;
    table.add("alpha", "1", 1, EntryType::Put);
    table.add("beta", "2", 2, EntryType::Put);

    EntryView e;
    ASSERT_TRUE(table.get("alpha", e));
    EXPECT_EQ(e.value, "1");
    EXPECT_EQ(e.seq, 1u);
    EXPECT_EQ(e.type, EntryType::Put);
    EXPECT_FALSE(table.get("gamma", e));
}

TEST(MemTableTest, NewestWriteSupersedes)
{
    MemTable table;
    table.add("k", "old", 1, EntryType::Put);
    table.add("k", "new", 2, EntryType::Put);
    EntryView e;
    ASSERT_TRUE(table.get("k", e));
    EXPECT_EQ(e.value, "new");
    EXPECT_EQ(e.seq, 2u);
    EXPECT_EQ(table.entryCount(), 1u);
}

TEST(MemTableTest, TombstoneVisible)
{
    MemTable table;
    table.add("k", "v", 1, EntryType::Put);
    table.add("k", "", 2, EntryType::Tombstone);
    EntryView e;
    ASSERT_TRUE(table.get("k", e));
    EXPECT_EQ(e.type, EntryType::Tombstone);
}

TEST(MemTableTest, IterationIsSortedAndComplete)
{
    MemTable table;
    std::map<Bytes, Bytes> expected;
    Rng rng(77);
    for (uint64_t i = 0; i < 500; ++i) {
        Bytes key = makeKey(rng.nextBounded(1000));
        Bytes value = makeValue(i);
        table.add(key, value, i + 1, EntryType::Put);
        expected[key] = value;
    }
    EXPECT_EQ(table.entryCount(), expected.size());

    Bytes prev;
    size_t seen = 0;
    table.forEach(BytesView(), BytesView(),
                  [&](const EntryView &e) {
                      if (seen > 0)
                          EXPECT_LT(prev, e.key);
                      EXPECT_EQ(expected.at(Bytes(e.key)), e.value);
                      prev = e.key;
                      ++seen;
                      return true;
                  });
    EXPECT_EQ(seen, expected.size());
}

TEST(MemTableTest, RangeBoundedIteration)
{
    MemTable table;
    for (uint64_t i = 0; i < 100; ++i)
        table.add(makeKey(i), "v", i + 1, EntryType::Put);

    size_t seen = 0;
    table.forEach(makeKey(10), makeKey(20),
                  [&](const EntryView &e) {
                      EXPECT_GE(e.key, makeKey(10));
                      EXPECT_LT(e.key, makeKey(20));
                      ++seen;
                      return true;
                  });
    EXPECT_EQ(seen, 10u);
}

TEST(MemTableTest, EarlyStopIteration)
{
    MemTable table;
    for (uint64_t i = 0; i < 50; ++i)
        table.add(makeKey(i), "v", i + 1, EntryType::Put);
    size_t seen = 0;
    bool completed = table.forEach(BytesView(), BytesView(),
                                   [&](const EntryView &) {
                                       return ++seen < 5;
                                   });
    EXPECT_FALSE(completed);
    EXPECT_EQ(seen, 5u);
}

TEST(MemTableTest, CursorSeekAndScan)
{
    MemTable table;
    for (uint64_t i = 0; i < 100; i += 2)
        table.add(makeKey(i), makeValue(i), i + 1, EntryType::Put);

    auto it = table.newIterator();
    // Seek to a key that is absent: lands on next greater key.
    it->seek(makeKey(11));
    ASSERT_TRUE(it->valid());
    EXPECT_EQ(it->entry().key, makeKey(12));
    it->next();
    ASSERT_TRUE(it->valid());
    EXPECT_EQ(it->entry().key, makeKey(14));

    // Seek past the end.
    it->seek(makeKey(1000));
    EXPECT_FALSE(it->valid());
}

TEST(MemTableTest, ApproximateBytesGrowsAndTracksUpdates)
{
    MemTable table;
    EXPECT_EQ(table.approximateBytes(), 0u);
    table.add("key", Bytes(100, 'v'), 1, EntryType::Put);
    uint64_t after_first = table.approximateBytes();
    EXPECT_GT(after_first, 100u);
    // Overwriting with a smaller value shrinks the estimate.
    table.add("key", Bytes(10, 'v'), 2, EntryType::Put);
    EXPECT_LT(table.approximateBytes(), after_first);
}

TEST(MemTableTest, LargeInsertionKeepsOrder)
{
    MemTable table;
    Rng rng(123);
    for (uint64_t i = 0; i < 20000; ++i)
        table.add(rng.nextBytes(12), "v", i + 1, EntryType::Put);
    Bytes prev;
    bool first = true;
    table.forEach(BytesView(), BytesView(),
                  [&](const EntryView &e) {
                      if (!first)
                          EXPECT_LE(prev, e.key);
                      prev = e.key;
                      first = false;
                      return true;
                  });
}

} // namespace
} // namespace ethkv::kv
