/**
 * @file
 * Core-module tests: lazy-index store semantics (promotion, GC,
 * shadowing), hybrid routing, and the correlation miner.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/rand.hh"
#include "core/corr_cache.hh"
#include "core/hybrid_store.hh"
#include "../kvstore/test_util.hh"

namespace ethkv::core
{
namespace
{

using testutil::makeKey;
using testutil::makeValue;

TEST(LazyIndexTest, PutGetDelete)
{
    LazyIndexStore store;
    EXPECT_TRUE(store.put("k", "v").isOk());
    Bytes value;
    ASSERT_TRUE(store.get("k", value).isOk());
    EXPECT_EQ(value, "v");
    EXPECT_TRUE(store.del("k").isOk());
    EXPECT_TRUE(store.get("k", value).isNotFound());
}

TEST(LazyIndexTest, IndexOnlyGrowsOnRead)
{
    LazyIndexStore store;
    for (uint64_t i = 0; i < 1000; ++i)
        ASSERT_TRUE(store.put(makeKey(i), makeValue(i)).isOk());
    // Finding 3's design: writes never build per-key index state.
    EXPECT_EQ(store.promotedKeyCount(), 0u);

    Bytes value;
    for (uint64_t i = 0; i < 10; ++i)
        ASSERT_TRUE(store.get(makeKey(i), value).isOk());
    EXPECT_EQ(store.promotedKeyCount(), 10u);

    // Promoted reads are index hits (no further chunk scans).
    uint64_t scan_bytes = store.chunkScanBytes();
    for (uint64_t i = 0; i < 10; ++i)
        ASSERT_TRUE(store.get(makeKey(i), value).isOk());
    EXPECT_EQ(store.chunkScanBytes(), scan_bytes);
}

TEST(LazyIndexTest, OverwriteReturnsNewest)
{
    LazyIndexStore store;
    ASSERT_TRUE(store.put("k", "old").isOk());
    ASSERT_TRUE(store.put("k", "new").isOk());
    Bytes value;
    ASSERT_TRUE(store.get("k", value).isOk());
    EXPECT_EQ(value, "new");

    // Promoted key overwritten again: index follows.
    ASSERT_TRUE(store.put("k", "newest").isOk());
    ASSERT_TRUE(store.get("k", value).isOk());
    EXPECT_EQ(value, "newest");
}

TEST(LazyIndexTest, TombstoneShadowsOldVersions)
{
    LazyIndexOptions options;
    options.chunk_bytes = 512; // many chunks
    LazyIndexStore store(options);
    for (uint64_t i = 0; i < 50; ++i)
        ASSERT_TRUE(store.put(makeKey(i), makeValue(i)).isOk());
    ASSERT_TRUE(store.del(makeKey(7)).isOk());
    // More writes push the tombstone into older chunks.
    for (uint64_t i = 50; i < 100; ++i)
        ASSERT_TRUE(store.put(makeKey(i), makeValue(i)).isOk());
    Bytes value;
    EXPECT_TRUE(store.get(makeKey(7), value).isNotFound());
    // Re-insert resurrects.
    ASSERT_TRUE(store.put(makeKey(7), "back").isOk());
    ASSERT_TRUE(store.get(makeKey(7), value).isOk());
    EXPECT_EQ(value, "back");
}

TEST(LazyIndexTest, GcReclaimsDeletedSpace)
{
    LazyIndexOptions options;
    options.chunk_bytes = 2048;
    options.gc_dead_ratio = 0.4;
    LazyIndexStore store(options);

    // Promote everything so deletes account dead bytes exactly.
    for (uint64_t i = 0; i < 500; ++i)
        ASSERT_TRUE(store.put(makeKey(i), makeValue(i, 48)).isOk());
    Bytes value;
    for (uint64_t i = 0; i < 500; ++i)
        ASSERT_TRUE(store.get(makeKey(i), value).isOk());
    uint64_t before = store.residentBytes();

    for (uint64_t i = 0; i < 500; ++i)
        if (i % 4 != 0)
            ASSERT_TRUE(store.del(makeKey(i)).isOk());

    EXPECT_GT(store.stats().gc_runs, 0u);
    EXPECT_LT(store.residentBytes(), before);
    // Survivors intact.
    for (uint64_t i = 0; i < 500; i += 4) {
        ASSERT_TRUE(store.get(makeKey(i), value).isOk()) << i;
        EXPECT_EQ(value, makeValue(i, 48));
    }
    EXPECT_EQ(store.liveKeyCount(), 125u);
}

TEST(LazyIndexTest, MatchesReferenceUnderRandomOps)
{
    Rng rng(77);
    LazyIndexOptions options;
    options.chunk_bytes = 4096;
    LazyIndexStore store(options);
    std::map<Bytes, Bytes> ref;

    for (int step = 0; step < 6000; ++step) {
        Bytes key = makeKey(rng.nextBounded(400));
        int op = static_cast<int>(rng.nextBounded(10));
        if (op < 5) {
            Bytes value = makeValue(rng.next(), 16);
            ASSERT_TRUE(store.put(key, value).isOk());
            ref[key] = value;
        } else if (op < 7) {
            ASSERT_TRUE(store.del(key).isOk());
            ref.erase(key);
        } else {
            Bytes value;
            Status s = store.get(key, value);
            auto it = ref.find(key);
            if (it == ref.end()) {
                ASSERT_TRUE(s.isNotFound()) << "step " << step;
            } else {
                ASSERT_TRUE(s.isOk()) << "step " << step;
                ASSERT_EQ(value, it->second);
            }
        }
    }
    EXPECT_EQ(store.liveKeyCount(), ref.size());
}

TEST(LazyIndexTest, ScanUnsupported)
{
    LazyIndexStore store;
    Status s = store.scan(BytesView(), BytesView(),
                          [](BytesView, BytesView) {
                              return true;
                          });
    EXPECT_EQ(s.code(), StatusCode::NotSupported);
}

TEST(HybridRouteTest, RoutingPolicy)
{
    using client::KVClass;
    EXPECT_EQ(routeOf(KVClass::BlockHeader), Route::Ordered);
    EXPECT_EQ(routeOf(KVClass::SnapshotAccount), Route::Ordered);
    EXPECT_EQ(routeOf(KVClass::SnapshotStorage), Route::Ordered);
    EXPECT_EQ(routeOf(KVClass::TxLookup), Route::Log);
    EXPECT_EQ(routeOf(KVClass::BlockBody), Route::Log);
    EXPECT_EQ(routeOf(KVClass::BlockReceipts), Route::Log);
    EXPECT_EQ(routeOf(KVClass::TrieNodeAccount), Route::LazyLog);
    EXPECT_EQ(routeOf(KVClass::TrieNodeStorage), Route::LazyLog);
    EXPECT_EQ(routeOf(KVClass::Code), Route::LazyLog);
    EXPECT_EQ(routeOf(KVClass::LastBlock), Route::Hash);
    EXPECT_EQ(routeOf(KVClass::StateID), Route::Hash);
}

TEST(HybridStoreTest, RoutesAndRetrieves)
{
    HybridKVStore store;
    Bytes header_key = client::headerKey(5, eth::hashOf("b"));
    Bytes lookup_key = client::txLookupKey(eth::hashOf("t"));
    Bytes trie_key = client::trieNodeAccountKey(Bytes{1, 2});
    Bytes state_key = Bytes(client::lastBlockKey());

    ASSERT_TRUE(store.put(header_key, "header").isOk());
    ASSERT_TRUE(store.put(lookup_key, "lookup").isOk());
    ASSERT_TRUE(store.put(trie_key, "node").isOk());
    ASSERT_TRUE(store.put(state_key, "head").isOk());

    // Each engine received exactly its class.
    EXPECT_EQ(store.ordered().liveKeyCount(), 1u);
    EXPECT_EQ(store.log().liveKeyCount(), 1u);
    EXPECT_EQ(store.lazyLog().liveKeyCount(), 1u);
    EXPECT_EQ(store.hash().liveKeyCount(), 1u);
    EXPECT_EQ(store.liveKeyCount(), 4u);

    Bytes value;
    ASSERT_TRUE(store.get(header_key, value).isOk());
    EXPECT_EQ(value, "header");
    ASSERT_TRUE(store.get(lookup_key, value).isOk());
    EXPECT_EQ(value, "lookup");
    ASSERT_TRUE(store.get(trie_key, value).isOk());
    EXPECT_EQ(value, "node");

    ASSERT_TRUE(store.del(lookup_key).isOk());
    EXPECT_TRUE(store.get(lookup_key, value).isNotFound());
    EXPECT_EQ(store.log().stats().tombstones_written, 0u);
}

TEST(HybridStoreTest, ScansWorkOnlyForScanClasses)
{
    HybridKVStore store;
    for (uint64_t n = 1; n <= 10; ++n) {
        ASSERT_TRUE(
            store.put(client::headerKey(n,
                                        eth::hashOf(encodeBE64(n))),
                      "h").isOk());
    }
    int visited = 0;
    ASSERT_TRUE(store
                    .scan(client::headerKey(3, eth::Hash256()),
                          client::headerKey(7, eth::Hash256()),
                          [&](BytesView, BytesView) {
                              ++visited;
                              return true;
                          })
                    .isOk());
    EXPECT_EQ(visited, 4);

    Status s = store.scan(
        client::txLookupKey(eth::hashOf("t")), BytesView(),
        [](BytesView, BytesView) { return true; });
    EXPECT_EQ(s.code(), StatusCode::NotSupported);
}

TEST(CorrelationMinerTest, LearnsAdjacentFollowers)
{
    CorrelationMiner miner(/*window=*/2);
    // Pattern: 1 is always followed by 2.
    for (int i = 0; i < 20; ++i) {
        miner.observe(1);
        miner.observe(2);
        miner.observe(100 + i); // noise
    }
    auto followers = miner.followers(1);
    ASSERT_FALSE(followers.empty());
    EXPECT_EQ(followers[0], 2u);
    // Noise keys never repeat: below min support.
    EXPECT_TRUE(miner.followers(100).empty());
}

TEST(CorrelationMinerTest, BoundedCandidates)
{
    CorrelationMiner miner(1, 2);
    for (uint64_t i = 0; i < 1000; ++i) {
        miner.observe(5);
        miner.observe(i % 100); // many distinct followers
    }
    EXPECT_LE(miner.followers(5, 1).size(), 2u);
}

} // namespace
} // namespace ethkv::core
