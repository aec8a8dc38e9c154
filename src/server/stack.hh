/**
 * @file
 * The one assembly of the node ethkvd serves (DESIGN.md §9), bottom
 * up: Env → engine, or N engines in <dir>/shard-<i> behind
 * kv::ShardedKVStore → kv::LockedKVStore for an engine with no
 * internal locking → replication hub (log in <dir>/repl) → cache
 * tier (+ prefetcher) → measuring decorator → Server. Stack owns
 * every layer and alone decides their order, lock wrapping, layout,
 * hook wiring, and start and stop order.
 */

#ifndef ETHKV_SERVER_STACK_HH
#define ETHKV_SERVER_STACK_HH

#include <cstdint>
#include <memory>
#include <string>

#include "cachetier/cache_tier.hh"
#include "cachetier/prefetcher.hh"
#include "common/fault_env.hh"
#include "common/status.hh"
#include "kvstore/instrumented_store.hh"
#include "kvstore/kvstore.hh"
#include "server/replication.hh"
#include "server/server.hh"

namespace ethkv::server
{

/** Everything a node is built from; ethkvd's flags write here. */
struct StackOptions
{
    StackOptions() { cache.capacity_bytes = 0; }

    //! lsm | log | btree | hybrid. btree and hybrid keep nothing
    //! across a restart, so they refuse dir, sync and replication.
    std::string engine = "hybrid";
    std::string dir;  //!< Durable engine's data dir (lsm needs one).
    bool sync = false; //!< fdatasync per acked write (WAL, repl log).
    std::string env = "posix"; //!< posix | fault.
    uint64_t fault_seed = 1;   //!< Fault env and repl backoff seed.
    uint64_t checkpoint_wal_bytes = 0; //!< log engine; 0 = off.
    uint64_t memtable_bytes = 0;       //!< lsm; 0 = engine default.
    int shards = 1;                    //!< In [1, 256].
    //! Keep a replication log and accept SUBSCRIBE. A node with a
    //! replication.primary_host replicates too, as a follower.
    bool repl = false;
    //! Prefetcher's static correlation table; empty = mine online.
    std::string corr_table;

    //! The builder sets repl. metrics (null = global) also takes the
    //! measuring decorator, trace_log the lsm maintenance spans.
    ServerOptions server;
    //! The builder derives dir, sync_appends, env, seed and
    //! snapshot_catch_up from the fields above.
    ReplicationOptions replication;
    cachetier::CacheTierOptions cache; //!< capacity 0 = no tier.
    cachetier::PrefetcherOptions prefetch; //!< top_k 0 = none.
};

/** One served node: the layer chain above, built and owned. */
class Stack
{
  public:
    /** Open every layer; no server, replication or prefetch thread
     *  runs until start(). Options the engine cannot honour fail
     *  with InvalidArgument before any file is touched. */
    static Result<std::unique_ptr<Stack>> build(StackOptions options);

    ~Stack();
    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;

    /** The server, then the hub (the server installs its ack
     *  delivery), then the prefetcher. */
    Status start();
    /** The server (which drains and stops the hub, then flushes the
     *  engine), then the prefetcher. Idempotent. */
    void stop();

    Server &server() { return *server_; }
    //! The chain below the hub: what follower replay writes to.
    kv::KVStore &engine() { return *below_hub_; }
    ReplicationHub *hub() { return hub_.get(); } //!< Null = none.
    //! Null unless env is "fault".
    FaultInjectionEnv *faultEnv() { return fault_env_.get(); }

  private:
    Stack() = default;

    // Bottom up, so members are destroyed top down.
    std::unique_ptr<FaultInjectionEnv> fault_env_;
    std::unique_ptr<kv::KVStore> engine_;
    std::unique_ptr<kv::KVStore> locked_;
    kv::KVStore *below_hub_ = nullptr;
    std::unique_ptr<ReplicationHub> hub_;
    std::unique_ptr<cachetier::CacheTier> cache_tier_;
    std::unique_ptr<cachetier::CorrelationPrefetcher> prefetcher_;
    std::unique_ptr<kv::InstrumentedKVStore> instrumented_;
    std::unique_ptr<Server> server_;
};

} // namespace ethkv::server

#endif // ETHKV_SERVER_STACK_HH
