/**
 * @file
 * Heap-allocation counts of the batch write path, so a copy that
 * creeps back in fails tier-1 without any timing.
 *
 * The binary replaces global operator new with a counting one;
 * each test counts the allocations of one call:
 *  - decodeBatch of N entries: at most 2N + 1 (one key and one
 *    value string per entry, beyond the small-string buffer, plus
 *    the entry vector reserved once);
 *  - N new keys through MemTable::add: the arena's blocks and the
 *    growth of its block list, nothing per key;
 *  - a 1,000-entry LSMStore::apply: the log record, the arena
 *    blocks, and a constant, nothing per entry;
 *  - the same batch through a four-shard ShardedKVStore: each shard
 *    applies its entries in place, so the split adds only the
 *    routing vectors.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "common/rand.hh"
#include "kvstore/lsm_store.hh"
#include "kvstore/memtable.hh"
#include "kvstore/sharded_store.hh"
#include "server/protocol.hh"
#include "test_util.hh"

namespace
{

std::atomic<uint64_t> g_allocs{0};

} // namespace

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace ethkv::kv
{
namespace
{

using testutil::ScratchDir;

/** Allocations made by fn(). */
template <typename Fn>
uint64_t
allocationsOf(Fn &&fn)
{
    uint64_t before = g_allocs.load(std::memory_order_relaxed);
    fn();
    return g_allocs.load(std::memory_order_relaxed) - before;
}

/** Entries shaped like a block commit's: 32-byte hashed keys,
 *  values of 1-200 bytes, one in ten a delete. */
WriteBatch
commitBatch(size_t n, uint64_t seed)
{
    Rng rng(seed);
    WriteBatch batch;
    for (size_t i = 0; i < n; ++i) {
        Bytes key = rng.nextBytes(32);
        if (i % 10 == 9)
            batch.del(key);
        else
            batch.put(key, rng.nextBytes(1 + rng.nextBounded(200)));
    }
    return batch;
}

TEST(AllocCountTest, DecodeBatchCopiesEachKeyAndValueOnce)
{
    const size_t n = 2000;
    Bytes payload;
    server::encodeBatch(payload, commitBatch(n, 1));
    WriteBatch decoded;
    uint64_t allocs = allocationsOf([&] {
        ASSERT_TRUE(server::decodeBatch(payload, decoded).isOk());
    });
    ASSERT_EQ(decoded.size(), n);
    RecordProperty("allocations", std::to_string(allocs));
    EXPECT_LE(allocs, 2 * n + 1);
}

TEST(AllocCountTest, MemTableInsertsAllocateOnlyArenaBlocks)
{
    const size_t n = 20000;
    WriteBatch batch = commitBatch(n, 2);
    MemTable table;
    uint64_t seq = 0;
    uint64_t allocs = allocationsOf([&] {
        for (const BatchEntry &e : batch.entries())
            table.add(e.key, e.value, ++seq, EntryType::Put);
    });
    ASSERT_EQ(table.entryCount(), n);
    RecordProperty("allocations", std::to_string(allocs));
    // One allocation per 32 KiB arena block (~4.5 MB of nodes, keys
    // and values here: ~140 blocks), plus the block list's doublings:
    // O(bytes / block), not O(keys).
    EXPECT_LE(allocs, 160u);
}

TEST(AllocCountTest, LsmApplyAllocatesNothingPerEntry)
{
    ScratchDir dir("alloc");
    LSMOptions opts;
    opts.dir = dir.path();
    opts.memtable_bytes = 64 << 20; // no seal, no log rotation
    auto store = LSMStore::open(opts);
    ASSERT_TRUE(store.ok());
    // Warm up: the first write opens lazily-built state.
    ASSERT_TRUE(store.value()->put("warm", "up").isOk());

    const size_t n = 1000;
    WriteBatch batch = commitBatch(n, 3);
    uint64_t allocs = allocationsOf([&] {
        ASSERT_TRUE(store.value()->apply(batch).isOk());
    });
    RecordProperty("allocations", std::to_string(allocs));
    // The log record, about six 32 KiB arena blocks for ~150 KB of
    // entries, the block list's growth, and slack for the log and
    // metrics; the per-entry copies this replaced made 2,845.
    EXPECT_LE(allocs, 24u);

    Bytes v;
    ASSERT_TRUE(store.value()->get(batch.entries()[0].key, v).isOk());
    EXPECT_EQ(v, batch.entries()[0].value);
}

TEST(AllocCountTest, ShardedApplySplitsWithoutCopies)
{
    ScratchDir dir("alloc");
    std::vector<std::unique_ptr<KVStore>> shards;
    for (int i = 0; i < 4; ++i) {
        LSMOptions opts;
        opts.dir = dir.path() + "/shard-" + std::to_string(i);
        opts.memtable_bytes = 64 << 20;
        auto shard = LSMStore::open(opts);
        ASSERT_TRUE(shard.ok());
        shards.push_back(shard.take());
    }
    ShardedKVStore store(std::move(shards), {});
    ASSERT_TRUE(store.put("warm", "up").isOk());

    WriteBatch batch = commitBatch(1000, 4);
    uint64_t allocs = allocationsOf(
        [&] { ASSERT_TRUE(store.apply(batch).isOk()); });
    RecordProperty("allocations", std::to_string(allocs));
    // Per shard: a record, ~2 arena blocks and the block list, and
    // the shard's position list; plus the routing vectors. With
    // per-shard copies and per-entry memtable nodes this was 4,764.
    EXPECT_LE(allocs, 48u);
    for (size_t i : {size_t{0}, size_t{500}, size_t{998}}) {
        Bytes v;
        ASSERT_TRUE(store.get(batch.entries()[i].key, v).isOk());
        EXPECT_EQ(v, batch.entries()[i].value);
    }
}

} // namespace
} // namespace ethkv::kv
