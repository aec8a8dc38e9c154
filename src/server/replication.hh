/**
 * @file
 * Primary/backup replication over the ethkv wire protocol
 * (DESIGN.md §13).
 *
 * One ReplicationHub per ethkvd process owns the node's replication
 * role and machinery:
 *
 *  - Both roles keep a ReplicationLog (kvstore/repl_log.hh): the
 *    primary appends every mutation it acknowledges; a follower
 *    appends the primary's record bytes VERBATIM, so byte offsets
 *    are one global address space and survive failover.
 *  - ReplicatedKVStore is the engine decorator that makes "apply to
 *    engine" + "append to log" one atomic, totally ordered step —
 *    without it two racing writers could commit to the engine in
 *    one order and the log in the other, and a follower would
 *    diverge on last-writer-wins keys.
 *  - On the primary a sender thread streams the log to subscribed
 *    followers: an epoll loop over subscriber sockets with
 *    per-follower backpressure (bounded out-buffer; reads from the
 *    log only when the pipe drains), batched reads Ira-style, ack
 *    processing, and — in sync-ack mode — completion of write
 *    acknowledgements that the server deferred until the data
 *    reached every live follower.
 *  - On a follower a client thread subscribes to the primary with
 *    a resume-from-offset handshake, replays batches into the
 *    engine, acks applied offsets, reconnects with exponential
 *    backoff + jitter, and latches sticky read-only degraded mode
 *    if replay hits an IOError (a follower applying a partial
 *    stream is worse than one that stopped).
 *  - Retention: the sender pins the log at the lowest offset a
 *    connected follower has not acked, and the hub keeps a window
 *    of the newest kRetainedSealedSegments sealed segments; the
 *    log drops sealed segments below the pin and outside the
 *    window. A
 *    follower whose offset was dropped catches up from a snapshot
 *    instead: the primary notes A = its log end, streams the
 *    engine's merged scan as put records, then streams the log
 *    from A. Every record is an idempotent whole-value put or
 *    delete, so redoing the log from A over any scan taken after A
 *    converges to the primary's state (DESIGN.md §13).
 *
 * The server consults the hub for role checks (mutations on a
 * follower fail with WireStatus::NotPrimary), hands SUBSCRIBE
 * connections to the sender, executes PROMOTE by draining the
 * follower and flipping the role, and defers mutation acks through
 * the AckWaiter queue when sync acks are on.
 *
 * All sockets go through server/net_socket.hh (the `direct-net`
 * lint rule holds for this module too); all file I/O goes through
 * the Env seam, so every failure path here is fault-injectable.
 */

#ifndef ETHKV_SERVER_REPLICATION_HH
#define ETHKV_SERVER_REPLICATION_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hh"
#include "common/lock_ranks.hh"
#include "common/mutex.hh"
#include "common/status.hh"
#include "kvstore/kvstore.hh"
#include "kvstore/repl_log.hh"
#include "obs/metrics.hh"

namespace ethkv::server
{

struct ReplicationOptions
{
    /** Directory for the replication log segments. */
    std::string dir;
    uint64_t segment_bytes = 4u << 20;
    /** fdatasync log appends (wire from --sync: the shipping log
     *  must be as durable as the engine WAL or a restarted primary
     *  offers followers less than it acknowledged). */
    bool sync_appends = false;

    /** Hold mutation acks until every live follower acked the
     *  write (semi-sync). With no subscriber attached this
     *  degenerates to async. */
    bool sync_acks = false;
    /** Fail-open deadline for sync acks: a follower that has not
     *  acked within this window is dropped (it will reconnect and
     *  catch up) and the writes complete. */
    int ack_timeout_ms = 5000;

    /** Non-empty host = start as a follower of this primary. */
    std::string primary_host;
    uint16_t primary_port = 0;

    int connect_timeout_ms = 2000;
    /** Follower receive tick: also bounds how stale its heartbeat
     *  ack and lag gauges can get. */
    int io_timeout_ms = 500;
    int backoff_min_ms = 50;
    int backoff_max_ms = 2000;
    uint64_t seed = 0; //!< Backoff jitter seed (0 = from clock).

    /** Serve snapshot catch-up to followers below the log start.
     *  Needs an engine whose scan("", "") visits every key in
     *  order (lsm, btree, mem); false for hybrid, whose scans stay
     *  within one class, and for hash/log, which cannot scan. */
    bool snapshot_catch_up = true;

    Env *env = nullptr;                      //!< nullptr = Posix.
    obs::MetricsRegistry *metrics = nullptr; //!< nullptr = global.
};

class ReplicationHub;
class ReplicationSender;
class FollowerClient;

/**
 * Engine decorator owned by the hub: mutations take one mutex
 * across the base-store apply and the log append, establishing the
 * total order replication ships. Reads pass through unlocked (the
 * base store is already safe for concurrent callers).
 */
class ReplicatedKVStore final : public kv::KVStore
{
  public:
    ReplicatedKVStore(kv::KVStore &base, kv::ReplicationLog &log,
                      ReplicationHub &hub);

    Status put(BytesView key, BytesView value) override;
    Status get(BytesView key, Bytes &value) override;
    Status del(BytesView key) override;
    Status scan(BytesView start, BytesView end,
                const kv::ScanCallback &cb) override;
    Status apply(const kv::WriteBatch &batch) override;
    bool contains(BytesView key) override;
    Status flush() override;
    const kv::IOStats &stats() const override;
    std::string name() const override;
    uint64_t liveKeyCount() override;

    /**
     * Follower replay: apply pre-framed record bytes received from
     * the primary, appending the same bytes to the local log.
     *
     * @param applied_seq Receives the last sequence applied.
     * @param applied_records Receives the record count applied.
     */
    Status applyReplicaBytes(BytesView records,
                             uint64_t &applied_seq,
                             uint64_t &applied_records);

    /**
     * Snapshot catch-up, step 1 (follower): restart the log empty
     * at offset 0, marked snapshot-pending, then empty the engine.
     * A crash from here on reopens pending and asks again.
     */
    Status beginSnapshot();

    /** Step 2: apply one chunk of snapshot put records to the
     *  engine only (the log resumes at the snapshot's base). */
    Status applySnapshotChunk(BytesView records);

    /** Step 3: restart the log, empty, at the snapshot's base. */
    Status finishSnapshot(uint64_t base_offset, uint64_t base_seq);

  private:
    kv::KVStore &base_;
    kv::ReplicationLog &log_;
    ReplicationHub &hub_;
    Mutex mutex_{lock_ranks::kReplStore};
    uint64_t next_seq_ GUARDED_BY(mutex_) = 1;
};

/** Replication role of this node (changes once, on PROMOTE). */
enum class ReplRole
{
    Primary,
    Follower,
};

class ReplicationHub
{
  public:
    /** Open the log and build the hub (threads start later). */
    static Result<std::unique_ptr<ReplicationHub>> open(
        const ReplicationOptions &options);

    ~ReplicationHub();

    ReplicationHub(const ReplicationHub &) = delete;
    ReplicationHub &operator=(const ReplicationHub &) = delete;

    /** Decorate the engine. Call exactly once, before start(). */
    kv::KVStore &wrap(kv::KVStore &base);

    /** Start the follower stream (no-op on a primary; the sender
     *  starts lazily with the first subscriber). */
    Status start();

    /** Drain send queues / stop streaming, then stop all threads.
     *  Pending sync acks are completed (the data is locally
     *  durable; the follower re-requests what it missed). Called
     *  from Server::stop() before the engine flush. Idempotent. */
    void flushAndStop();

    bool isPrimary() const
    {
        return role_.load(std::memory_order_acquire) ==
               ReplRole::Primary;
    }

    /** Sticky: follower replay hit an engine IOError. */
    bool isDegraded() const
    {
        return degraded_.load(std::memory_order_acquire);
    }

    /**
     * PROMOTE: drain the replay queue, stop the follower stream,
     * flip to primary. Idempotent (promoting a primary is Ok).
     * Fails with IODegraded when replay latched degraded mode —
     * promoting a wedged follower would serve a torn prefix — and
     * with InvalidArgument mid-snapshot (the stream resumes).
     *
     * @param end_offset Receives the promoted log end.
     */
    Status promote(uint64_t *end_offset);

    uint64_t endOffset() const { return log_->endOffset(); }

    /**
     * Set the gauges read off the log: repl.log_end_offset (on a
     * follower, everything up to it is applied to the engine) and
     * repl.snapshot_pending. The server calls this before every
     * STATS reply, so a scrape sees the log as it is now.
     */
    void refreshLogGauges();

    bool snapshotCatchUp() const
    {
        return options_.snapshot_catch_up;
    }
    kv::ReplicationLog &log() { return *log_; }

    // -- Server integration (primary side) -----------------------

    /** Identity of a parked mutation ack inside the server. */
    struct AckWaiter
    {
        uint32_t worker = 0;
        uint64_t conn_tag = 0;
        uint64_t conn_id = 0;
    };

    /** Called from the sender thread with waiters whose target
     *  offset every live follower has acked (or that timed out
     *  fail-open). The server re-queues them onto worker loops. */
    using AckDelivery =
        std::function<void(std::vector<AckWaiter> &&)>;

    void setAckDelivery(AckDelivery cb);

    /** Called after follower replay applies records, with every
     *  mutated key — replayed batches change the store beneath any
     *  cache tier stacked above it, so ethkvd registers the cache
     *  invalidation here. Set once before start(), like the ack
     *  delivery; invoked with no replication lock held. */
    using InvalidationHook =
        std::function<void(const std::vector<Bytes> &)>;

    void setInvalidationHook(InvalidationHook cb);

    /** True when the server should park this mutation's ack until
     *  the sender confirms follower acks. */
    bool deferAcks() const;

    /** Park one ack until min-acked >= target_offset. */
    void enqueueAckWaiter(uint64_t target_offset,
                          const AckWaiter &waiter);

    /**
     * Hand a SUBSCRIBE connection's fd to the sender. first_bytes
     * (the Ok response plus any unflushed output) is written before
     * streaming begins; resume_offset must be a validated record
     * boundary <= endOffset() (the server checks against
     * endOffset(); the log rejects misaligned offsets on read).
     * With snapshot set, resume_offset is the log end A read when
     * the follower's own offset proved to be below the log start:
     * a snapshot stream precedes the log from A.
     * The hub owns the fd from here on, success or failure.
     */
    Status adoptSubscriber(int fd, uint64_t resume_offset,
                           Bytes first_bytes, bool snapshot = false);

    /** Live subscriber count (primary). */
    uint64_t subscriberCount() const;

    /** Tear down every subscriber socket (tests exercise the
     *  follower's reconnect + resume path with this). */
    void dropSubscribersForTest();

  private:
    friend class ReplicatedKVStore;
    friend class ReplicationSender;
    friend class FollowerClient;

    explicit ReplicationHub(const ReplicationOptions &options);

    /** New bytes are in the log: wake the sender. */
    void publish();

    /** Follower replay hit an IOError: latch degraded mode. */
    void enterDegraded(const Status &cause);

    /** Sender thread -> server: completed sync-ack waiters. */
    void deliverAcks(std::vector<AckWaiter> &&waiters);

    /** Replay thread -> cache tier: keys mutated by replica
     *  replay (fires the invalidation hook, if any). */
    void notifyReplicaApplied(const std::vector<Bytes> &keys);

    Status startSenderLocked() REQUIRES(mutex_);

    ReplicationOptions options_;
    Env *env_;
    obs::MetricsRegistry &metrics_;

    std::unique_ptr<kv::ReplicationLog> log_;
    std::unique_ptr<ReplicatedKVStore> store_;

    std::atomic<ReplRole> role_{ReplRole::Primary};
    std::atomic<bool> degraded_{false};
    std::atomic<bool> stopped_{false};

    /** Guards thread lifecycle (start/promote/stop) — the
     *  outermost replication lock; transitions are rare. */
    mutable Mutex mutex_{lock_ranks::kReplHub};
    std::unique_ptr<ReplicationSender> sender_ GUARDED_BY(mutex_);
    std::unique_ptr<FollowerClient> follower_ GUARDED_BY(mutex_);
    /** Lock-free handle for the hot-path publish(). */
    std::atomic<ReplicationSender *> sender_ptr_{nullptr};

    /** Set once before the server starts serving; read by the
     *  sender thread only after a subscriber exists. */
    AckDelivery ack_delivery_;

    /** Set once before serving; read by the replay thread only. */
    InvalidationHook invalidation_hook_;

    // Metrics (shared by both roles; see DESIGN.md §13).
    obs::Gauge *lag_bytes_;
    obs::Gauge *lag_records_;
    obs::Gauge *log_end_offset_;
    obs::Gauge *snapshot_pending_;
    obs::Gauge *follower_connected_;
    obs::Gauge *follower_degraded_;
    obs::Counter *reconnects_;
    obs::Counter *batches_shipped_;
    obs::Counter *records_applied_;
    obs::Counter *batches_received_;
    obs::Counter *acks_received_;
    obs::Counter *replay_errors_;
    obs::Gauge *subscribers_;
    obs::Gauge *send_queue_bytes_;
    obs::Gauge *sync_acks_pending_;
    obs::Counter *subscribers_dropped_;
    obs::Counter *promotions_;
    obs::Counter *snapshots_sent_;
    obs::Counter *snapshots_applied_;
};

} // namespace ethkv::server

#endif // ETHKV_SERVER_REPLICATION_HH
