#include "kvstore/sharded_store.hh"

#include <deque>
#include <utility>

#include "common/dcheck.hh"
#include "common/xxhash.hh"

namespace ethkv::kv
{

namespace
{

//! Seed for the routing hash. Distinct from the cache tier's and
//! the bloom filters' seeds so shard placement never correlates
//! with cache shard placement or filter bits.
constexpr uint64_t kShardHashSeed = 0x5ca1ab1e0ddba11ull;

//! Entries pulled from one shard per refill during the k-way scan
//! merge. Bounds per-shard lock hold time and merge memory at
//! O(shards * chunk) regardless of range size.
constexpr size_t kMergeChunk = 128;

} // namespace

ShardedKVStore::ShardedKVStore(
    std::vector<std::unique_ptr<KVStore>> shards,
    ShardedOptions options)
    : owned_(std::move(shards))
{
    ETHKV_DCHECK(!owned_.empty());
    serve_.reserve(owned_.size());
    if (options.lock_shards) {
        locked_.reserve(owned_.size());
        for (auto &shard : owned_) {
            locked_.push_back(
                std::make_unique<LockedKVStore>(*shard));
            serve_.push_back(locked_.back().get());
        }
    } else {
        for (auto &shard : owned_)
            serve_.push_back(shard.get());
    }

    obs::MetricsRegistry &reg =
        options.metrics ? *options.metrics
                        : obs::MetricsRegistry::global();
    cross_shard_batches_ =
        &reg.counter("kv.sharded.cross_shard_batches");
    scan_merges_ = &reg.counter("kv.sharded.scan_merges");
    reg.gauge("kv.sharded.shards")
        .set(static_cast<int64_t>(serve_.size()));
    shard_ops_.reserve(serve_.size());
    for (size_t i = 0; i < serve_.size(); ++i) {
        shard_ops_.push_back(&reg.counter(
            "kv.sharded.shard" + std::to_string(i) + ".ops"));
    }
}

ShardedKVStore::~ShardedKVStore() = default;

uint32_t
ShardedKVStore::shardOf(BytesView key, uint32_t shard_count)
{
    if (shard_count <= 1)
        return 0;
    return static_cast<uint32_t>(
        xxhash64(key, kShardHashSeed) % shard_count);
}

Status
ShardedKVStore::checkShardMarker(Env *env, const std::string &dir,
                                 uint32_t shard_count)
{
    if (env == nullptr)
        env = Env::defaultEnv();
    std::string path = dir + "/SHARDS";
    std::string expected = std::to_string(shard_count) + "\n";
    if (!env->fileExists(path))
        return env->writeStringToFile(path, expected,
                                      /*sync=*/true);
    Bytes found;
    Status s = env->readFileToString(path, found);
    if (!s.isOk())
        return s;
    if (found != expected) {
        // Trim for the message; the file is "<n>\n".
        std::string on_disk(found);
        while (!on_disk.empty() &&
               (on_disk.back() == '\n' || on_disk.back() == '\r'))
            on_disk.pop_back();
        return Status::invalidArgument(
            "shard count mismatch: " + dir + " was created with " +
            on_disk + " shards, reopened with " +
            std::to_string(shard_count) +
            " — reopening would misroute keys");
    }
    return Status::ok();
}

KVStore &
ShardedKVStore::route(BytesView key)
{
    uint32_t idx = shardOf(key, shardCount());
    shard_ops_[idx]->inc();
    return *serve_[idx];
}

Status
ShardedKVStore::put(BytesView key, BytesView value)
{
    return route(key).put(key, value);
}

Status
ShardedKVStore::get(BytesView key, Bytes &value)
{
    return route(key).get(key, value);
}

Status
ShardedKVStore::del(BytesView key)
{
    return route(key).del(key);
}

bool
ShardedKVStore::contains(BytesView key)
{
    return route(key).contains(key);
}

Status
ShardedKVStore::apply(const WriteBatch &batch)
{
    if (serve_.size() == 1)
        return serve_[0]->apply(batch);
    // Route every entry once. A batch that lands on one shard
    // passes through whole; otherwise each shard applies the
    // positions of its entries in place (KVStore::applyEntries),
    // so no entry is copied here. Relative order within a shard is
    // preserved; order across shards does not matter because
    // hash-disjoint shards can never hold the same key.
    const uint32_t shards = shardCount();
    std::vector<uint32_t> route_of;
    route_of.reserve(batch.size());
    std::vector<size_t> counts(shards, 0);
    for (const BatchEntry &e : batch.entries()) {
        route_of.push_back(shardOf(e.key, shards));
        ++counts[route_of.back()];
    }
    size_t touched = 0;
    for (size_t n : counts)
        touched += n == 0 ? 0 : 1;
    if (touched == 1) {
        uint32_t idx = route_of.front();
        shard_ops_[idx]->inc();
        return serve_[idx]->apply(batch);
    }
    std::vector<std::vector<uint32_t>> positions(shards);
    for (uint32_t i = 0; i < shards; ++i)
        positions[i].reserve(counts[i]);
    for (size_t i = 0; i < route_of.size(); ++i)
        positions[route_of[i]].push_back(static_cast<uint32_t>(i));
    if (touched > 1)
        cross_shard_batches_->inc();
    // All-or-nothing ack: the first failing sub-batch fails the
    // whole apply and nothing is acknowledged. Sub-batches already
    // applied stay applied (per-shard atomicity, not cross-shard);
    // callers that cache must invalidate even on failure — see the
    // header contract and CacheTier::apply.
    for (size_t i = 0; i < positions.size(); ++i) {
        if (positions[i].empty())
            continue;
        shard_ops_[i]->inc();
        Status s = serve_[i]->applyEntries(batch, positions[i]);
        if (!s.isOk())
            return s;
    }
    return Status::ok();
}

Status
ShardedKVStore::scan(BytesView start, BytesView end,
                     const ScanCallback &cb)
{
    if (serve_.size() == 1)
        return serve_[0]->scan(start, end, cb);
    scan_merges_->inc();

    // One chunked cursor per shard: pull up to kMergeChunk entries
    // from [next, end), hand out the globally-smallest front, and
    // refill a cursor only when its buffer drains. The callback
    // runs with no shard locks held (the buffers own copies), so
    // it may reenter the store, exactly like LockedKVStore::scan.
    struct Cursor
    {
        KVStore *store = nullptr;
        std::deque<std::pair<Bytes, Bytes>> buf;
        Bytes next;
        bool exhausted = false;
    };
    std::vector<Cursor> cursors(serve_.size());
    auto refill = [&end](Cursor &c) -> Status {
        if (c.exhausted)
            return Status::ok();
        size_t got = 0;
        Status s = c.store->scan(
            c.next, end, [&c, &got](BytesView k, BytesView v) {
                c.buf.emplace_back(Bytes(k), Bytes(v));
                return ++got < kMergeChunk;
            });
        if (!s.isOk())
            return s;
        if (got < kMergeChunk) {
            c.exhausted = true;
        } else {
            // Resume strictly past the last buffered key.
            c.next = c.buf.back().first;
            c.next.push_back('\0');
        }
        return Status::ok();
    };
    for (size_t i = 0; i < serve_.size(); ++i) {
        cursors[i].store = serve_[i];
        cursors[i].next = Bytes(start);
        Status s = refill(cursors[i]);
        if (!s.isOk())
            return s;
    }

    for (;;) {
        // Linear min over <= N shard fronts: for realistic shard
        // counts this beats heap bookkeeping and keeps the code
        // obviously correct.
        Cursor *min = nullptr;
        for (Cursor &c : cursors) {
            if (c.buf.empty())
                continue;
            if (min == nullptr ||
                c.buf.front().first < min->buf.front().first)
                min = &c;
        }
        if (min == nullptr)
            return Status::ok(); // every shard exhausted
        std::pair<Bytes, Bytes> entry =
            std::move(min->buf.front());
        min->buf.pop_front();
        if (!cb(entry.first, entry.second))
            return Status::ok();
        if (min->buf.empty()) {
            Status s = refill(*min);
            if (!s.isOk())
                return s;
        }
    }
}

Status
ShardedKVStore::flush()
{
    // Serialize whole-store barriers; flush every shard even after
    // a failure so healthy shards still reach durability, and
    // report the first error.
    MutexLock lock(mutex_);
    Status first = Status::ok();
    for (KVStore *shard : serve_) {
        Status s = shard->flush();
        if (!s.isOk() && first.isOk())
            first = s;
    }
    return first;
}

const IOStats &
ShardedKVStore::stats() const
{
    // Merge shard counters into thread-local storage so each
    // caller sees a consistent struct without racing on a shared
    // copy (the LockedKVStore idiom).
    thread_local IOStats merged;
    merged = IOStats{};
    for (const KVStore *shard : serve_)
        merged.merge(shard->stats());
    return merged;
}

std::string
ShardedKVStore::name() const
{
    return "sharded(" + serve_[0]->name() + " x" +
           std::to_string(serve_.size()) + ")";
}

uint64_t
ShardedKVStore::liveKeyCount()
{
    uint64_t total = 0;
    for (KVStore *shard : serve_)
        total += shard->liveKeyCount();
    return total;
}

} // namespace ethkv::kv
