/**
 * @file
 * Unit tests for the server cache tier (DESIGN.md §14): hit/miss
 * accounting, write-path invalidation (put/del/apply and the
 * explicit replication-replay invalidate()), segmented-LRU scan
 * resistance, TinyLFU admission, static-table and online-mined
 * prefetch through the background thread, and the sticky IODegraded
 * pass-through latch driven by a FaultInjectionEnv-backed engine.
 *
 * Every test builds its own MetricsRegistry so counter assertions
 * are exact and independent of other suites in the same binary.
 */

#include "cachetier/cache_tier.hh"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../kvstore/test_util.hh"
#include "cachetier/prefetcher.hh"
#include "common/bytes.hh"
#include "common/env.hh"
#include "common/fault_env.hh"
#include "common/rand.hh"
#include "kvstore/log_store.hh"
#include "kvstore/mem_store.hh"
#include "kvstore/write_batch.hh"
#include "obs/metrics.hh"

namespace ethkv::cachetier
{
namespace
{

using testutil::ScratchDir;
using testutil::makeKey;
using testutil::makeValue;

uint64_t
ctr(obs::MetricsRegistry &reg, const std::string &name)
{
    return reg.counter(name).value();
}

CacheTierOptions
smallOptions(obs::MetricsRegistry &reg)
{
    CacheTierOptions o;
    o.capacity_bytes = 1u << 20;
    o.shards = 1;
    o.metrics = &reg;
    return o;
}

TEST(CacheTierTest, MissFillsThenHits)
{
    obs::MetricsRegistry reg;
    kv::MemStore inner;
    CacheTier tier(inner, smallOptions(reg));

    ASSERT_TRUE(tier.put(makeKey(1), makeValue(1)).isOk());
    // put() is write-invalidate-or-update; the first get is a miss
    // that fills the cache from the inner store...
    Bytes v;
    ASSERT_TRUE(tier.get(makeKey(1), v).isOk());
    EXPECT_EQ(v, makeValue(1));
    // ...and the second is served from the cache without touching
    // the engine.
    uint64_t engine_reads = inner.stats().user_reads;
    ASSERT_TRUE(tier.get(makeKey(1), v).isOk());
    EXPECT_EQ(v, makeValue(1));
    EXPECT_EQ(inner.stats().user_reads, engine_reads);

    EXPECT_EQ(ctr(reg, "cachetier.hits"), 1u);
    EXPECT_EQ(ctr(reg, "cachetier.misses"), 1u);
    EXPECT_EQ(tier.cachedEntries(), 1u);
    EXPECT_GT(tier.cachedBytes(), 0u);
    EXPECT_EQ(reg.gauge("cachetier.entries").value(), 1);
}

TEST(CacheTierTest, NotFoundIsNotCached)
{
    obs::MetricsRegistry reg;
    kv::MemStore inner;
    CacheTier tier(inner, smallOptions(reg));

    Bytes v;
    EXPECT_TRUE(tier.get(makeKey(404), v).isNotFound());
    EXPECT_TRUE(tier.get(makeKey(404), v).isNotFound());
    EXPECT_EQ(ctr(reg, "cachetier.misses"), 2u);
    EXPECT_EQ(tier.cachedEntries(), 0u);
}

TEST(CacheTierTest, PutUpdatesCachedValueInPlace)
{
    obs::MetricsRegistry reg;
    kv::MemStore inner;
    CacheTier tier(inner, smallOptions(reg));

    ASSERT_TRUE(tier.put(makeKey(1), makeValue(1)).isOk());
    Bytes v;
    ASSERT_TRUE(tier.get(makeKey(1), v).isOk());
    ASSERT_TRUE(tier.put(makeKey(1), makeValue(2)).isOk());
    // The overwrite must be visible immediately — from the cache,
    // not by refilling.
    ASSERT_TRUE(tier.get(makeKey(1), v).isOk());
    EXPECT_EQ(v, makeValue(2));
    EXPECT_EQ(ctr(reg, "cachetier.hits"), 1u);
}

TEST(CacheTierTest, DeleteInvalidates)
{
    obs::MetricsRegistry reg;
    kv::MemStore inner;
    CacheTier tier(inner, smallOptions(reg));

    ASSERT_TRUE(tier.put(makeKey(1), makeValue(1)).isOk());
    Bytes v;
    ASSERT_TRUE(tier.get(makeKey(1), v).isOk());
    ASSERT_TRUE(tier.del(makeKey(1)).isOk());
    EXPECT_FALSE(tier.cachedForTest(makeKey(1)));
    EXPECT_TRUE(tier.get(makeKey(1), v).isNotFound());
}

TEST(CacheTierTest, ApplyInvalidatesEveryBatchKey)
{
    obs::MetricsRegistry reg;
    kv::MemStore inner;
    CacheTier tier(inner, smallOptions(reg));

    ASSERT_TRUE(tier.put(makeKey(1), makeValue(1)).isOk());
    ASSERT_TRUE(tier.put(makeKey(2), makeValue(2)).isOk());
    Bytes v;
    ASSERT_TRUE(tier.get(makeKey(1), v).isOk());
    ASSERT_TRUE(tier.get(makeKey(2), v).isOk());

    kv::WriteBatch batch;
    batch.put(makeKey(1), makeValue(10));
    batch.del(makeKey(2));
    ASSERT_TRUE(tier.apply(batch).isOk());

    EXPECT_FALSE(tier.cachedForTest(makeKey(1)));
    EXPECT_FALSE(tier.cachedForTest(makeKey(2)));
    ASSERT_TRUE(tier.get(makeKey(1), v).isOk());
    EXPECT_EQ(v, makeValue(10));
    EXPECT_TRUE(tier.get(makeKey(2), v).isNotFound());
    EXPECT_GE(ctr(reg, "cachetier.invalidations"), 2u);
}

/**
 * Delegates to a MemStore but fails put() on one poison key, and
 * does not override apply() — so the default per-op loop applies a
 * prefix of the batch and then errors out, exactly the partial
 * state a mid-batch engine failure leaves behind.
 */
class PoisonKeyStore final : public kv::KVStore
{
  public:
    explicit PoisonKeyStore(Bytes poison)
        : poison_(std::move(poison))
    {
    }

    Status
    put(BytesView key, BytesView value) override
    {
        if (Bytes(key) == poison_)
            return Status::corruption("poison key");
        return inner_.put(key, value);
    }
    Status
    get(BytesView key, Bytes &value) override
    {
        return inner_.get(key, value);
    }
    Status
    del(BytesView key) override
    {
        return inner_.del(key);
    }
    Status
    scan(BytesView start, BytesView end,
         const kv::ScanCallback &cb) override
    {
        return inner_.scan(start, end, cb);
    }
    Status
    flush() override
    {
        return inner_.flush();
    }
    const kv::IOStats &
    stats() const override
    {
        return inner_.stats();
    }
    std::string
    name() const override
    {
        return "poison";
    }
    uint64_t
    liveKeyCount() override
    {
        return inner_.liveKeyCount();
    }

  private:
    kv::MemStore inner_;
    Bytes poison_;
};

// Regression: a batch that fails mid-apply may still have moved a
// prefix of its keys in the engine (batches are per-engine atomic,
// not per-batch across an error). The tier must invalidate every
// batch key even though apply() returned an error — the old
// behavior kept the pre-batch cached value for the applied prefix
// and served a stale read.
TEST(CacheTierTest, FailedApplyStillInvalidatesAppliedPrefix)
{
    obs::MetricsRegistry reg;
    PoisonKeyStore inner(makeKey(3));
    CacheTier tier(inner, smallOptions(reg));

    ASSERT_TRUE(tier.put(makeKey(1), makeValue(1)).isOk());
    ASSERT_TRUE(tier.put(makeKey(2), makeValue(2)).isOk());
    Bytes v;
    ASSERT_TRUE(tier.get(makeKey(1), v).isOk());
    ASSERT_TRUE(tier.get(makeKey(2), v).isOk());
    ASSERT_TRUE(tier.cachedForTest(makeKey(1)));
    ASSERT_TRUE(tier.cachedForTest(makeKey(2)));

    kv::WriteBatch batch;
    batch.put(makeKey(1), makeValue(10)); // applied
    batch.put(makeKey(3), makeValue(30)); // fails here
    batch.put(makeKey(2), makeValue(20)); // never applied
    ASSERT_FALSE(tier.apply(batch).isOk());

    // Key 1 moved beneath the cache: the next read must see the
    // new engine value, not the cached pre-batch one.
    EXPECT_FALSE(tier.cachedForTest(makeKey(1)));
    ASSERT_TRUE(tier.get(makeKey(1), v).isOk());
    EXPECT_EQ(v, makeValue(10));
    // Key 2 never applied; invalidating it cost a refill, and the
    // refill reads the (unchanged) engine value.
    ASSERT_TRUE(tier.get(makeKey(2), v).isOk());
    EXPECT_EQ(v, makeValue(2));
}

// The replication-replay hook: a follower's ReplicationHub applies
// batches BENEATH this layer, then calls invalidate() per key. The
// cache must forget the key so the next GET refills from the
// post-replay store.
TEST(CacheTierTest, InvalidateDropsStaleEntryAfterOutOfBandWrite)
{
    obs::MetricsRegistry reg;
    kv::MemStore inner;
    CacheTier tier(inner, smallOptions(reg));

    ASSERT_TRUE(tier.put(makeKey(1), makeValue(1)).isOk());
    Bytes v;
    ASSERT_TRUE(tier.get(makeKey(1), v).isOk());

    // Replayed batch mutates the engine without going through the
    // tier.
    ASSERT_TRUE(inner.put(makeKey(1), makeValue(99)).isOk());
    tier.invalidate(makeKey(1));

    ASSERT_TRUE(tier.get(makeKey(1), v).isOk());
    EXPECT_EQ(v, makeValue(99));
    EXPECT_EQ(ctr(reg, "cachetier.invalidations"), 1u);
}

// A one-shot sweep over many cold keys must not flush a hot key out
// of the protected segment: the hot key stays served from cache
// (inner reads do not grow) while the flood churns probation.
TEST(CacheTierTest, ScanResistantHotKeySurvivesFlood)
{
    obs::MetricsRegistry reg;
    kv::MemStore inner;
    CacheTierOptions o;
    o.capacity_bytes = 8u << 10; // tiny: the flood overflows it
    o.shards = 1;
    o.metrics = &reg;
    CacheTier tier(inner, o);

    ASSERT_TRUE(tier.put(makeKey(0), makeValue(0)).isOk());
    for (uint64_t i = 1; i <= 512; ++i)
        ASSERT_TRUE(inner.put(makeKey(i), makeValue(i)).isOk());

    // Promote key 0 to protected: miss-fill, then repeated hits.
    Bytes v;
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(tier.get(makeKey(0), v).isOk());

    // One-shot flood of 512 distinct keys.
    for (uint64_t i = 1; i <= 512; ++i)
        ASSERT_TRUE(tier.get(makeKey(i), v).isOk());

    EXPECT_TRUE(tier.cachedForTest(makeKey(0)));
    uint64_t engine_reads = inner.stats().user_reads;
    ASSERT_TRUE(tier.get(makeKey(0), v).isOk());
    EXPECT_EQ(inner.stats().user_reads, engine_reads);
    EXPECT_GT(ctr(reg, "cachetier.evictions"), 0u);
    EXPECT_LE(tier.cachedBytes(), o.capacity_bytes);
}

// Deterministic admission rejection: a full shard whose probation
// tail has frequency 2 must reject a frequency-1 candidate.
TEST(CacheTierTest, AdmissionRejectsColdCandidateOverWarmVictim)
{
    obs::MetricsRegistry reg;
    kv::MemStore inner;
    CacheTierOptions o;
    // Each entry charges key (~10B) + value (100B) + overhead
    // (64B); a 500-byte shard holds two, and a 0.5 protected
    // fraction holds exactly one of them, so promoting the second
    // demotes the first back to probation with frequency 2.
    o.capacity_bytes = 500;
    o.shards = 1;
    o.protected_fraction = 0.5;
    o.metrics = &reg;
    CacheTier tier(inner, o);

    for (uint64_t i = 1; i <= 3; ++i)
        ASSERT_TRUE(inner.put(makeKey(i), makeValue(i, 100)).isOk());

    Bytes v;
    ASSERT_TRUE(tier.get(makeKey(1), v).isOk()); // fill, freq 1
    ASSERT_TRUE(tier.get(makeKey(1), v).isOk()); // promote, freq 2
    ASSERT_TRUE(tier.get(makeKey(2), v).isOk()); // fill, freq 1
    ASSERT_TRUE(tier.get(makeKey(2), v).isOk()); // promote; demotes 1

    // Key 3 (frequency 1) would evict key 1 (frequency 2): denied.
    ASSERT_TRUE(tier.get(makeKey(3), v).isOk());
    EXPECT_EQ(v, makeValue(3, 100));
    EXPECT_FALSE(tier.cachedForTest(makeKey(3)));
    EXPECT_TRUE(tier.cachedForTest(makeKey(1)));
    EXPECT_TRUE(tier.cachedForTest(makeKey(2)));
    EXPECT_EQ(ctr(reg, "cachetier.admission_rejects"), 1u);
}

TEST(CacheTierTest, ScanAndContainsPassThrough)
{
    obs::MetricsRegistry reg;
    kv::MemStore inner;
    CacheTier tier(inner, smallOptions(reg));

    ASSERT_TRUE(tier.put(makeKey(1), makeValue(1)).isOk());
    ASSERT_TRUE(tier.put(makeKey(2), makeValue(2)).isOk());
    size_t seen = 0;
    ASSERT_TRUE(tier.scan(Bytes(), Bytes(),
                          [&](BytesView, BytesView) {
                              ++seen;
                              return true;
                          })
                    .isOk());
    EXPECT_EQ(seen, 2u);
    EXPECT_TRUE(tier.contains(makeKey(1)));
    EXPECT_FALSE(tier.contains(makeKey(9)));
    EXPECT_EQ(tier.liveKeyCount(), 2u);
}

// --- prefetch ---------------------------------------------------

TEST(PrefetcherTest, StaticTableLoadAndMissTriggersPrefetch)
{
    obs::MetricsRegistry reg;
    kv::MemStore inner;
    CacheTier tier(inner, smallOptions(reg));

    for (uint64_t i = 1; i <= 3; ++i)
        ASSERT_TRUE(inner.put(makeKey(i), makeValue(i)).isOk());

    ScratchDir dir("cachetier_table");
    std::string path = dir.path() + "/corr.txt";
    std::string table = "# comment line\n" + toHex(makeKey(1)) +
                        " " + toHex(makeKey(2)) + " " +
                        toHex(makeKey(3)) + "\n";
    ASSERT_TRUE(Env::defaultEnv()
                    ->writeStringToFile(path, table, false)
                    .isOk());

    PrefetcherOptions po;
    po.top_k = 2;
    po.metrics = &reg;
    CorrelationPrefetcher pf(tier, po);
    ASSERT_TRUE(pf.loadTable(Env::defaultEnv(), path).isOk());
    EXPECT_EQ(pf.tableSize(), 1u);
    tier.setPrefetcher(&pf);
    pf.start();

    Bytes v;
    ASSERT_TRUE(tier.get(makeKey(1), v).isOk()); // miss -> enqueue
    pf.drainForTest();

    EXPECT_TRUE(tier.cachedForTest(makeKey(2)));
    EXPECT_TRUE(tier.cachedForTest(makeKey(3)));
    EXPECT_EQ(ctr(reg, "cachetier.prefetch.issued"), 2u);

    // First demand hit on a prefetched entry is credited.
    uint64_t engine_reads = inner.stats().user_reads;
    ASSERT_TRUE(tier.get(makeKey(2), v).isOk());
    EXPECT_EQ(v, makeValue(2));
    EXPECT_EQ(inner.stats().user_reads, engine_reads);
    EXPECT_EQ(ctr(reg, "cachetier.prefetch.hits"), 1u);
    // Only once per fill: the second hit is an ordinary hit.
    ASSERT_TRUE(tier.get(makeKey(2), v).isOk());
    EXPECT_EQ(ctr(reg, "cachetier.prefetch.hits"), 1u);
    pf.stop();
}

TEST(PrefetcherTest, BadHexInTableIsCorruption)
{
    obs::MetricsRegistry reg;
    kv::MemStore inner;
    CacheTier tier(inner, smallOptions(reg));
    ScratchDir dir("cachetier_badtable");
    std::string path = dir.path() + "/corr.txt";
    ASSERT_TRUE(Env::defaultEnv()
                    ->writeStringToFile(path, "zz not-hex\n", false)
                    .isOk());
    CorrelationPrefetcher pf(tier, PrefetcherOptions{});
    EXPECT_EQ(pf.loadTable(Env::defaultEnv(), path).code(),
              StatusCode::Corruption);
}

TEST(PrefetcherTest, OnlineMinerLearnsFollowerPairs)
{
    obs::MetricsRegistry reg;
    kv::MemStore inner;
    CacheTier tier(inner, smallOptions(reg));
    ASSERT_TRUE(inner.put(makeKey(1), makeValue(1)).isOk());
    ASSERT_TRUE(inner.put(makeKey(2), makeValue(2)).isOk());

    PrefetcherOptions po;
    po.top_k = 2;
    po.min_support = 2;
    po.metrics = &reg;
    CorrelationPrefetcher pf(tier, po);
    tier.setPrefetcher(&pf);
    pf.start();

    // Train the miner on the A-then-B pattern. Hits observe too, so
    // the pair keeps accumulating support after the first fills.
    Bytes v;
    for (int round = 0; round < 6; ++round) {
        ASSERT_TRUE(tier.get(makeKey(1), v).isOk());
        ASSERT_TRUE(tier.get(makeKey(2), v).isOk());
    }
    pf.drainForTest();

    // Forget both; the next miss on A should warm B from the mined
    // association.
    tier.invalidate(makeKey(1));
    tier.invalidate(makeKey(2));
    ASSERT_TRUE(tier.get(makeKey(1), v).isOk());
    pf.drainForTest();
    EXPECT_TRUE(tier.cachedForTest(makeKey(2)));
    pf.stop();
}

/** Counters of one replayPairs() run. */
struct PairRun
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t prefetch_issued = 0;
    uint64_t prefetch_hits = 0;
};

/**
 * Replay correlated pairs — key k, then key k + 1000, with k drawn
 * from 100 keys — through a fresh tier that holds about a quarter
 * of the 200 keys, with or without an online-mining prefetcher
 * drained after every GET (as bench_ablation_corr_cache drives it).
 */
PairRun
replayPairs(bool prefetch)
{
    obs::MetricsRegistry reg;
    kv::MemStore inner;
    for (uint64_t k = 0; k < 100; ++k) {
        EXPECT_TRUE(inner.put(makeKey(k), makeValue(k)).isOk());
        EXPECT_TRUE(
            inner.put(makeKey(k + 1000), makeValue(k)).isOk());
    }
    CacheTierOptions o = smallOptions(reg);
    o.capacity_bytes = 5000;
    CacheTier tier(inner, o);
    PrefetcherOptions po;
    po.metrics = &reg;
    CorrelationPrefetcher pf(tier, po);
    if (prefetch) {
        tier.setPrefetcher(&pf);
        pf.start();
    }

    Rng rng(5);
    Bytes v;
    for (int round = 0; round < 1000; ++round) {
        uint64_t k = rng.nextBounded(100);
        EXPECT_TRUE(tier.get(makeKey(k), v).isOk());
        if (prefetch)
            pf.drainForTest();
        EXPECT_TRUE(tier.get(makeKey(k + 1000), v).isOk());
        if (prefetch)
            pf.drainForTest();
    }
    return {ctr(reg, "cachetier.hits"), ctr(reg, "cachetier.misses"),
            ctr(reg, "cachetier.prefetch.issued"),
            ctr(reg, "cachetier.prefetch.hits")};
}

TEST(PrefetcherTest, OnlinePrefetchBeatsTierAloneOnCorrelatedPairs)
{
    PairRun alone = replayPairs(false);
    PairRun with = replayPairs(true);
    EXPECT_EQ(alone.hits + alone.misses, 2000u);
    EXPECT_EQ(with.hits + with.misses, 2000u);
    EXPECT_EQ(alone.prefetch_issued, 0u);
    EXPECT_GT(with.prefetch_hits, 0u);
    EXPECT_GT(with.hits, alone.hits);
}

TEST(PrefetcherTest, DrainedReplayIsDeterministic)
{
    // The ablation's tables are only comparable run to run if the
    // same stream always produces the same counters.
    PairRun first = replayPairs(true);
    PairRun second = replayPairs(true);
    EXPECT_EQ(first.hits, second.hits);
    EXPECT_EQ(first.misses, second.misses);
    EXPECT_EQ(first.prefetch_issued, second.prefetch_issued);
    EXPECT_EQ(first.prefetch_hits, second.prefetch_hits);
    EXPECT_GT(first.prefetch_issued, 0u);
}

// --- degraded pass-through --------------------------------------

TEST(CacheTierTest, IODegradedLatchesStickyPassThrough)
{
    obs::MetricsRegistry reg;
    ScratchDir dir("cachetier_degraded");
    FaultInjectionEnv fault(Env::defaultEnv(), 7);
    kv::LogStoreOptions lo;
    lo.dir = dir.path();
    lo.env = &fault;
    auto opened = kv::AppendLogStore::open(lo);
    ASSERT_TRUE(opened.ok());
    kv::KVStore &engine = *opened.value();

    CacheTier tier(engine, smallOptions(reg));
    ASSERT_TRUE(tier.put(makeKey(1), makeValue(1)).isOk());
    Bytes v;
    ASSERT_TRUE(tier.get(makeKey(1), v).isOk());
    EXPECT_TRUE(tier.cachedForTest(makeKey(1)));

    // Break the write path; the engine flips to read-only degraded
    // service and the tier must latch pass-through.
    fault.setWriteError(true);
    Status s;
    for (int i = 0; i < 4 && !s.isIODegraded(); ++i)
        s = tier.put(makeKey(2), makeValue(2));
    ASSERT_TRUE(s.isIODegraded());
    EXPECT_TRUE(tier.isDegraded());
    EXPECT_EQ(reg.gauge("cachetier.degraded").value(), 1);

    // Pre-fault cache contents are dropped; reads go straight to
    // the (still readable) engine and are NOT re-cached.
    EXPECT_FALSE(tier.cachedForTest(makeKey(1)));
    EXPECT_EQ(tier.cachedEntries(), 0u);
    uint64_t before = ctr(reg, "cachetier.degraded_passthrough");
    ASSERT_TRUE(tier.get(makeKey(1), v).isOk());
    EXPECT_EQ(v, makeValue(1));
    EXPECT_FALSE(tier.cachedForTest(makeKey(1)));
    EXPECT_GT(ctr(reg, "cachetier.degraded_passthrough"), before);

    // Sticky: clearing the fault does not un-latch the tier (the
    // engine itself stays degraded until reopened anyway).
    fault.setWriteError(false);
    ASSERT_TRUE(tier.get(makeKey(1), v).isOk());
    EXPECT_TRUE(tier.isDegraded());
    EXPECT_FALSE(tier.cachedForTest(makeKey(1)));
}

} // namespace
} // namespace ethkv::cachetier
