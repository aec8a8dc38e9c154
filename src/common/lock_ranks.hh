/**
 * @file
 * Global lock-rank table.
 *
 * Every long-lived Mutex in src/ has a rank; a thread may only
 * acquire mutexes in strictly increasing rank order. Two
 * enforcement mechanisms consume this one table, so they cannot
 * drift apart:
 *
 *  - Runtime (debug builds): Mutex constructed with a rank checks
 *    the per-thread held-rank stack on every lock() and panics on
 *    an out-of-order acquire (common/mutex.hh, ETHKV_DCHECK-gated,
 *    zero cost in release). Locks taken through Mutex::native()
 *    (the condition-variable idiom in the LSM and maintenance
 *    thread) bypass the runtime check — those paths are covered
 *    statically.
 *  - Static (every build): tools/ethkv_analyze parses kLockRanks,
 *    builds the whole-repo lock acquisition graph, and fails the
 *    lint.ethkv_analyze ctest if any held→acquired edge does not
 *    climb in rank, if an entry names an unknown mutex, or if a
 *    Mutex member has no entry (rule `lock-rank`).
 *
 * Entry names are the analyzer's node ids: "Class::member" for
 * Mutex members, "Class::accessor()" for mutexes reached through
 * an accessor (the hybrid router's per-route locks).
 *
 * Ordering rationale (outermost first): the server worker loop is
 * the outermost frame; engine decorators (router, cache, big-lock)
 * nest inside it; the LSM core may signal its maintenance thread
 * and record metrics while holding its own lock, so the
 * maintenance and observability locks rank above it; the metrics
 * registry is a leaf everyone may record into and ranks last.
 *
 * Replication (DESIGN.md §13): the sender and follower threads are
 * outermost frames of their own (they hand completions to workers,
 * so they rank below Worker::mutex); ReplicatedKVStore wraps the
 * engine inside a worker request and must nest between the worker
 * lock and the engine locks.
 *
 * ReplicationLog is every durable log: the hub's, and each engine's
 * WAL, which the LSM appends to under its own lock and the log
 * engine under LockedKVStore's. So it ranks above every store lock
 * and below FaultInjectionEnv, which its file I/O reaches.
 *
 * Sharding (DESIGN.md §15): ShardedKVStore's one mutex only
 * serializes whole-store flush barriers, during which it acquires
 * each shard's engine lock (LockedKVStore or LSMStore) in turn —
 * so it ranks just below them; the lock-free data path never
 * touches it.
 *
 * Cache tier (DESIGN.md §14): the cache shard lock is held across
 * the inner-store write on put/del (miss fills read the engine
 * optimistically with no shard lock held), so it must rank below
 * every store lock (the cache wraps the replicated store, which
 * wraps the engine) but above the worker frame. The prefetcher's
 * queue and
 * correlation-index locks are short leaf sections taken from the
 * GET path *after* the shard lock is released and from the
 * background prefetch thread, and rank just below the shard lock so
 * the background thread (queue -> shard -> inner store) also
 * climbs.
 */

#ifndef ETHKV_COMMON_LOCK_RANKS_HH
#define ETHKV_COMMON_LOCK_RANKS_HH

namespace ethkv::lock_ranks
{

inline constexpr int kReplHub = 3;
inline constexpr int kReplSender = 5;
inline constexpr int kReplFollower = 8;
inline constexpr int kServerWorker = 10;
inline constexpr int kPrefetchQueue = 11;
inline constexpr int kCorrIndex = 12;
inline constexpr int kCacheShard = 13;
inline constexpr int kReplStore = 15;
inline constexpr int kHybridRoute = 20;
inline constexpr int kClassCache = 25;
inline constexpr int kShardedStore = 28;
inline constexpr int kLockedStore = 30;
inline constexpr int kLSMStore = 40;
inline constexpr int kReplLog = 42;
inline constexpr int kFaultEnv = 45;
inline constexpr int kMaintenance = 50;
inline constexpr int kMetricsWriter = 55;
inline constexpr int kTraceLog = 60;
inline constexpr int kMetricsRegistry = 70;

struct Entry
{
    const char *mutex; //!< analyzer node id
    int rank;
};

/** The authoritative rank table (parsed by tools/ethkv_analyze —
 *  keep entries in the `{ "name", constant }` shape). */
inline constexpr Entry kLockRanks[] = {
    {"ReplicationHub::mutex_", kReplHub},
    {"ReplicationSender::mutex_", kReplSender},
    {"FollowerClient::mutex_", kReplFollower},
    {"Server::Worker::mutex", kServerWorker},
    {"CorrelationPrefetcher::queue_mutex_", kPrefetchQueue},
    {"CorrelationPrefetcher::index_mutex_", kCorrIndex},
    {"CacheTier::Shard::mutex", kCacheShard},
    {"ReplicatedKVStore::mutex_", kReplStore},
    {"HybridKVStore::route_mutex_", kHybridRoute},
    {"HybridKVStore::mutexAt()", kHybridRoute},
    {"CachingKVStore::mutex_", kClassCache},
    {"ShardedKVStore::mutex_", kShardedStore},
    {"LockedKVStore::mutex_", kLockedStore},
    {"LSMStore::mutex_", kLSMStore},
    {"ReplicationLog::mutex_", kReplLog},
    {"FaultInjectionEnv::mutex_", kFaultEnv},
    {"MaintenanceThread::mutex_", kMaintenance},
    {"PeriodicMetricsWriter::mutex_", kMetricsWriter},
    {"TraceEventLog::mutex_", kTraceLog},
    {"MetricsRegistry::mutex_", kMetricsRegistry},
};

} // namespace ethkv::lock_ranks

#endif // ETHKV_COMMON_LOCK_RANKS_HH
