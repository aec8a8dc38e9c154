/**
 * @file
 * Section-V ablation (ii): the shipped server cache tier with and
 * without its correlation prefetcher, on the paper's read streams.
 *
 * Each run replays one captured read stream through a
 * cachetier::CacheTier over an in-memory store that holds every
 * key the stream reads. "tier alone" is the segmented-LRU/TinyLFU
 * tier by itself; "with prefetch" adds a CorrelationPrefetcher
 * mining followers online with top_k 4, as `ethkvd --prefetch-k 4`
 * does without --corr-table. Both runs warm up on the first half of
 * the stream and are measured on the second.
 *
 * The prefetcher is drained after every GET: the replay thread then
 * never contends the miner's tryLock and every fill lands in the
 * same order, so two runs print the same table.
 */

#include <cstdio>
#include <memory>
#include <unordered_map>
#include <vector>

#include "analysis/report.hh"
#include "bench_common.hh"
#include "cachetier/cache_tier.hh"
#include "cachetier/prefetcher.hh"
#include "kvstore/hash_store.hh"
#include "kvstore/locked_store.hh"

using namespace ethkv;
using namespace ethkv::bench;

namespace
{

/** A trace's read stream as byte keys, and a store holding them. */
struct ReadStream
{
    std::vector<Bytes> keys;     //!< One per distinct read key.
    std::vector<uint32_t> reads; //!< Indices into keys.
    kv::HashStore base;
    kv::LockedKVStore store{base};
};

void
buildStream(const trace::TraceBuffer &trace, ReadStream &out)
{
    std::unordered_map<uint64_t, uint32_t> index_of;
    std::vector<const trace::TraceRecord *> largest;
    for (const trace::TraceRecord &r : trace.records()) {
        if (r.op != trace::OpType::Read)
            continue;
        auto [it, fresh] = index_of.try_emplace(
            r.key_id, static_cast<uint32_t>(largest.size()));
        if (fresh)
            largest.push_back(&r);
        else if (r.value_size > largest[it->second]->value_size)
            largest[it->second] = &r;
        out.reads.push_back(it->second);
    }
    for (const trace::TraceRecord *r : largest) {
        out.keys.push_back(
            synthesizeKey(r->class_id, r->key_id, r->key_size));
        out.store
            .put(out.keys.back(),
                 synthesizeValue(r->key_id, r->value_size))
            .expectOk("preload");
    }
}

/** Counters of the measured half of one run. */
struct Outcome
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t prefetch_reads = 0; //!< Prefetcher's inner reads.
    uint64_t prefetch_hits = 0;  //!< First demand hits on them.

    double
    hitRate() const
    {
        uint64_t gets = hits + misses;
        return gets ? static_cast<double>(hits) /
                          static_cast<double>(gets)
                    : 0.0;
    }
};

Outcome
readCounters(obs::MetricsRegistry &reg)
{
    Outcome o;
    o.hits = reg.counter("cachetier.hits").value();
    o.misses = reg.counter("cachetier.misses").value();
    o.prefetch_reads =
        reg.counter("cachetier.prefetch.issued").value() -
        reg.counter("cachetier.prefetch.redundant").value();
    o.prefetch_hits =
        reg.counter("cachetier.prefetch.hits").value();
    return o;
}

Outcome
replay(ReadStream &stream, uint64_t capacity, bool prefetch)
{
    obs::MetricsRegistry reg;
    cachetier::CacheTierOptions copts;
    copts.capacity_bytes = capacity;
    // One shard: a single replay thread has no lock contention to
    // spread, and the whole capacity stays one eviction budget.
    copts.shards = 1;
    copts.metrics = &reg;
    cachetier::CacheTier tier(stream.store, copts);

    std::unique_ptr<cachetier::CorrelationPrefetcher> prefetcher;
    if (prefetch) {
        cachetier::PrefetcherOptions popts;
        popts.top_k = 4;
        popts.metrics = &reg;
        prefetcher =
            std::make_unique<cachetier::CorrelationPrefetcher>(
                tier, popts);
        tier.setPrefetcher(prefetcher.get());
        prefetcher->start();
    }

    const size_t half = stream.reads.size() / 2;
    Outcome warm;
    Bytes value;
    for (size_t i = 0; i < stream.reads.size(); ++i) {
        if (i == half)
            warm = readCounters(reg);
        tier.get(stream.keys[stream.reads[i]], value)
            .expectOk("replay get");
        if (prefetcher)
            prefetcher->drainForTest();
    }
    Outcome end = readCounters(reg);
    return {end.hits - warm.hits, end.misses - warm.misses,
            end.prefetch_reads - warm.prefetch_reads,
            end.prefetch_hits - warm.prefetch_hits};
}

} // namespace

int
main(int argc, char **argv)
{
    initTelemetry(&argc, argv);
    const BenchData &data = benchData();

    analysis::printBanner(
        "Ablation: cache tier with vs without correlation prefetch");
    std::printf("Paper (Section V): correlated reads cluster in "
                "small regions and repeat (Findings 8-9); a cache "
                "that prefetches correlated keys should beat one "
                "that treats keys independently, especially at the "
                "medium frequencies LRU misses (Finding 6).\n\n");

    const uint64_t capacities[] = {256u << 10, 1u << 20,
                                   4u << 20, 16u << 20};

    for (const char *trace_name : {"BareTrace", "CacheTrace"}) {
        const CapturedMode &mode =
            std::string(trace_name) == "BareTrace" ? data.bare
                                                   : data.cache;
        ReadStream stream;
        buildStream(mode.trace, stream);
        std::printf(
            "--- %s read stream: %zu reads of %zu keys ---\n",
            trace_name, stream.reads.size(), stream.keys.size());
        analysis::Table table(
            {"capacity", "tier alone", "with prefetch",
             "prefetch reads", "prefetch hits", "useful",
             "miss reduction"});
        for (uint64_t capacity : capacities) {
            Outcome alone = replay(stream, capacity, false);
            Outcome with = replay(stream, capacity, true);
            double useful =
                with.prefetch_reads
                    ? static_cast<double>(with.prefetch_hits) /
                          static_cast<double>(with.prefetch_reads)
                    : 0.0;
            double miss_reduction =
                alone.misses
                    ? 1.0 - static_cast<double>(with.misses) /
                                static_cast<double>(alone.misses)
                    : 0.0;
            table.addRow({
                formatBytes(static_cast<double>(capacity)),
                analysis::fmtShare(alone.hitRate(), 1),
                analysis::fmtShare(with.hitRate(), 1),
                std::to_string(with.prefetch_reads),
                std::to_string(with.prefetch_hits),
                analysis::fmtShare(useful, 1),
                analysis::fmtShare(miss_reduction, 1),
            });
        }
        table.print();
        std::printf("\n");
    }

    std::printf("Hit rates are over the second half of each read "
                "stream, after both runs warmed up on the first. "
                "'prefetch reads' are the inner-store reads the "
                "prefetcher issued, 'useful' the share of them hit "
                "by a later GET, and 'miss reduction' the fall in "
                "demand misses against the tier alone.\n");
    return 0;
}
