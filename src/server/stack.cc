/**
 * @file
 * Stack: the one place the served layer chain is assembled. See
 * stack.hh for the chain and its order.
 */

#include "server/stack.hh"

#include <vector>

#include "common/env.hh"
#include "common/logging.hh"
#include "core/hybrid_store.hh"
#include "kvstore/btree_store.hh"
#include "kvstore/locked_store.hh"
#include "kvstore/log_store.hh"
#include "kvstore/lsm_store.hh"
#include "kvstore/sharded_store.hh"
#include "obs/metrics.hh"

namespace ethkv::server
{

namespace
{

/**
 * Why the options cannot be served, or "". btree and hybrid keep
 * nothing across a restart, so a synced ack or a shipping log beside
 * them would promise data that a restart loses.
 */
std::string
refusal(const StackOptions &o)
{
    const bool durable = o.engine == "lsm" || o.engine == "log";
    const bool follower = !o.replication.primary_host.empty();
    if (!durable && o.engine != "btree" && o.engine != "hybrid")
        return "unknown --engine " + o.engine;
    if (o.env != "posix" && o.env != "fault")
        return "unknown --env " + o.env;
    if (o.shards < 1 || o.shards > 256)
        return "--shards must be in [1, 256]";
    const char *flag = o.sync            ? "--sync"
                       : !o.dir.empty()  ? "--dir"
                       : o.repl          ? "--repl"
                       : follower        ? "--follower-of"
                                         : nullptr;
    if (!durable && flag != nullptr)
        return std::string(flag) +
               " needs a durable engine (lsm|log); " + o.engine +
               " keeps nothing across a restart";
    if (o.engine == "lsm" && o.dir.empty())
        return "--engine lsm needs --dir";
    if ((o.repl || follower) && o.dir.empty())
        return "replication needs --dir";
    return "";
}

/** A set-up error from the filesystem, naming the flag behind it. */
Status
flagError(const std::string &flag, const Status &s)
{
    return Status::invalidArgument(flag + ": " + s.toString());
}

/** Open one engine instance rooted at `dir` into `out`. */
Status
openEngine(const StackOptions &o, Env *env, const std::string &dir,
           obs::TraceEventLog *trace_log,
           std::unique_ptr<kv::KVStore> &out)
{
    auto opened = [&out](auto store) {
        if (store.ok())
            out = store.take();
        return store.status();
    };
    if (o.engine == "btree") {
        out = std::make_unique<kv::BTreeStore>();
    } else if (o.engine == "hybrid") {
        out = std::make_unique<core::HybridKVStore>(
            core::HybridKVStore::Options{});
    } else if (o.engine == "log") {
        kv::LogStoreOptions options;
        options.dir = dir;
        options.sync_appends = o.sync;
        options.env = env;
        options.checkpoint_wal_bytes = o.checkpoint_wal_bytes;
        return opened(kv::AppendLogStore::open(options));
    } else {
        kv::LSMOptions options;
        options.dir = dir;
        options.sync_wal = o.sync;
        options.env = env;
        options.trace_log = trace_log;
        if (o.memtable_bytes > 0)
            options.memtable_bytes = o.memtable_bytes;
        return opened(kv::LSMStore::open(options));
    }
    return Status::ok();
}

} // namespace

Result<std::unique_ptr<Stack>>
Stack::build(StackOptions options)
{
    const StackOptions &o = options;
    if (std::string why = refusal(o); !why.empty())
        return Status::invalidArgument(why);

    std::unique_ptr<Stack> node(new Stack());
    Env *env = Env::defaultEnv();
    if (o.env == "fault") {
        node->fault_env_ =
            std::make_unique<FaultInjectionEnv>(env, o.fault_seed);
        env = node->fault_env_.get();
    }
    if (!o.dir.empty()) {
        Status s = env->createDirs(o.dir);
        if (!s.isOk())
            return flagError("--dir", s);
        // Reopening a dir with a different shard count would
        // silently misroute every key; the marker refuses.
        if (o.shards > 1)
            s = kv::ShardedKVStore::checkShardMarker(
                env, o.dir, static_cast<uint32_t>(o.shards));
        if (!s.isOk())
            return s;
    }

    // Sharded (DESIGN.md §15): each durable shard owns a subdir with
    // its own WAL, manifest and maintenance. Only shard 0 traces:
    // maintenance spans use a fixed track id, and N shards on one
    // track would interleave.
    std::vector<std::unique_ptr<kv::KVStore>> shards;
    for (int i = 0; i < o.shards; ++i) {
        std::string dir = o.dir;
        if (o.shards > 1 && !o.dir.empty()) {
            dir += "/shard-" + std::to_string(i);
            Status s = env->createDirs(dir);
            if (!s.isOk())
                return flagError("--dir", s);
        }
        Status s = openEngine(o, env, dir,
                              i == 0 ? o.server.trace_log : nullptr,
                              shards.emplace_back());
        if (!s.isOk())
            return flagError("--dir", s);
    }
    // lsm and hybrid lock internally (the LSM also runs its own
    // maintenance thread, so serving it bare keeps workers from
    // serializing behind flushes and compactions); the router's
    // data path is lock-free.
    const bool locks_inside =
        o.engine == "lsm" || o.engine == "hybrid";
    if (o.shards > 1) {
        kv::ShardedOptions sopts;
        sopts.lock_shards = !locks_inside;
        node->engine_ = std::make_unique<kv::ShardedKVStore>(
            std::move(shards), sopts);
    } else {
        node->engine_ = std::move(shards[0]);
        if (!locks_inside)
            node->locked_ =
                std::make_unique<kv::LockedKVStore>(*node->engine_);
    }
    node->below_hub_ =
        node->locked_ ? node->locked_.get() : node->engine_.get();
    kv::KVStore *serve = node->below_hub_;

    // Replication (DESIGN.md §13): the hub wraps the engine so
    // "apply + log append" is one ordered step. Its log shares the
    // engine's Env, so fault drills cover the replication path too.
    if (o.repl || !o.replication.primary_host.empty()) {
        ReplicationOptions &r = options.replication;
        r.dir = o.dir + "/repl";
        r.sync_appends = o.sync;
        // Snapshots need a scan of the whole key space, which the
        // log engine cannot do.
        r.snapshot_catch_up = o.engine == "lsm";
        r.seed = o.fault_seed;
        r.env = node->fault_env_.get(); // null = Posix
        auto hub = ReplicationHub::open(r);
        if (!hub.ok())
            return flagError(o.repl ? "--repl" : "--follower-of",
                             hub.status());
        node->hub_ = hub.take();
        serve = &node->hub_->wrap(*serve);
    }

    // Cache tier (DESIGN.md §14): above replication, so primary-side
    // mutations invalidate inline, while follower replay, which
    // mutates beneath it, invalidates through the hub hook.
    if (o.cache.capacity_bytes > 0) {
        node->cache_tier_ =
            std::make_unique<cachetier::CacheTier>(*serve, o.cache);
        if (o.prefetch.top_k > 0) {
            node->prefetcher_ =
                std::make_unique<cachetier::CorrelationPrefetcher>(
                    *node->cache_tier_, o.prefetch);
            if (!o.corr_table.empty()) {
                Status s = node->prefetcher_->loadTable(
                    Env::defaultEnv(), o.corr_table);
                if (!s.isOk())
                    return flagError("--corr-table", s);
            }
            node->cache_tier_->setPrefetcher(
                node->prefetcher_.get());
        }
        if (node->hub_) {
            cachetier::CacheTier *tier = node->cache_tier_.get();
            node->hub_->setInvalidationHook(
                [tier](const std::vector<Bytes> &keys) {
                    for (const Bytes &k : keys)
                        tier->invalidate(k);
                });
        }
        serve = node->cache_tier_.get();
    } else if (!o.corr_table.empty()) {
        warn("--corr-table ignored without --cache-tier-bytes");
    }

    node->instrumented_ = std::make_unique<kv::InstrumentedKVStore>(
        *serve,
        o.server.metrics != nullptr ? *o.server.metrics
                                    : obs::MetricsRegistry::global(),
        "engine");
    options.server.repl = node->hub_.get();
    node->server_ = std::make_unique<Server>(*node->instrumented_,
                                             options.server);
    return node;
}

Stack::~Stack()
{
    stop();
}

Status
Stack::start()
{
    Status s = server_->start();
    if (s.isOk() && hub_)
        s = hub_->start();
    if (s.isOk() && prefetcher_)
        prefetcher_->start();
    return s;
}

void
Stack::stop()
{
    if (server_ == nullptr)
        return; // build() failed before the server existed
    server_->stop();
    if (prefetcher_)
        prefetcher_->stop(); // after the server: no more GETs
}

} // namespace ethkv::server
