/**
 * @file
 * Primary/backup replication: the store decorator, the primary's
 * sender thread, the follower's stream client, and the hub that
 * owns them (DESIGN.md §13). See replication.hh for the design
 * overview; comments here cover only what the code cannot show.
 */

#include "server/replication.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <utility>

#include "server/net_socket.hh"
#include "server/protocol.hh"
#include "common/rand.hh"

namespace ethkv::server
{

namespace
{

uint64_t
nowMs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Sender read window per REPLBATCH frame (and per snapshot
 *  page). */
constexpr uint64_t kBatchBytes = 256u << 10;
/** Per-subscriber out-buffer cap: stop reading the log for a
 *  follower whose socket is this far behind. */
constexpr uint64_t kSubscriberBacklogBytes = 4u << 20;
/** Sealed segments the hub's log keeps whatever the pin says,
 *  newest first: with the default 4 MiB segments, a 64 MiB window
 *  a follower may lag by and still catch up from the log rather
 *  than a snapshot. */
constexpr uint64_t kRetainedSealedSegments = 16;

} // namespace

// ----------------------------------------------------------------
// ReplicatedKVStore
// ----------------------------------------------------------------

ReplicatedKVStore::ReplicatedKVStore(kv::KVStore &base,
                                     kv::ReplicationLog &log,
                                     ReplicationHub &hub)
    : base_(base), log_(log), hub_(hub)
{
    // Seed the sequence past whatever the log already holds so a
    // restarted primary never reissues sequence numbers.
    next_seq_ = log_.lastSeq() + 1;
}

Status
ReplicatedKVStore::put(BytesView key, BytesView value)
{
    {
        MutexLock lock(mutex_);
        Status s = base_.put(key, value);
        if (!s.isOk())
            return s;
        kv::WriteBatch batch;
        batch.put(key, value);
        s = log_.append(batch, next_seq_, nullptr);
        if (!s.isOk())
            return s;
        next_seq_ += 1;
    }
    hub_.publish();
    return Status::ok();
}

Status
ReplicatedKVStore::del(BytesView key)
{
    {
        MutexLock lock(mutex_);
        Status s = base_.del(key);
        if (!s.isOk())
            return s;
        kv::WriteBatch batch;
        batch.del(key);
        s = log_.append(batch, next_seq_, nullptr);
        if (!s.isOk())
            return s;
        next_seq_ += 1;
    }
    hub_.publish();
    return Status::ok();
}

Status
ReplicatedKVStore::apply(const kv::WriteBatch &batch)
{
    if (batch.empty())
        return Status::ok();
    {
        MutexLock lock(mutex_);
        Status s = base_.apply(batch);
        if (!s.isOk())
            return s;
        s = log_.append(batch, next_seq_, nullptr);
        if (!s.isOk())
            return s;
        next_seq_ += batch.size();
    }
    hub_.publish();
    return Status::ok();
}

Status
ReplicatedKVStore::applyReplicaBytes(BytesView records,
                                     uint64_t &applied_seq,
                                     uint64_t &applied_records)
{
    applied_seq = 0;
    applied_records = 0;
    std::vector<Bytes> invalidated;
    Status result;
    {
        MutexLock lock(mutex_);
        size_t pos = 0;
        while (pos < records.size()) {
            size_t start = pos;
            kv::WriteBatch batch;
            uint64_t first_seq = 0;
            Status s = kv::decodeWalRecord(records, pos, batch,
                                           first_seq);
            if (s.isNotFound()) {
                result = Status::corruption(
                    "torn record in replication batch");
                break;
            }
            if (!s.isOk()) {
                result = s;
                break;
            }
            s = base_.apply(batch);
            // These keys just changed beneath any cache tier
            // stacked above this store; collect them so the hub
            // can invalidate once the store lock drops (the cache
            // shard lock ranks below kReplStore, so invalidating
            // here would invert the lock order). Collected even
            // when apply failed: batches are only per-engine
            // atomic, so a mid-batch error leaves an applied
            // prefix in the engine that must not be served stale
            // — over-invalidating the suffix is just a refill.
            for (const kv::BatchEntry &e : batch.entries())
                invalidated.push_back(e.key);
            if (!s.isOk()) {
                result = s;
                break;
            }
            // Engine first, then log: if the log append fails the
            // engine is one record ahead, which is safe — the
            // resume offset is the log end, the primary resends
            // the record, and applying it twice is idempotent
            // (put/del).
            s = log_.appendRaw(records.substr(start, pos - start),
                               nullptr);
            if (!s.isOk()) {
                result = s;
                break;
            }
            if (!batch.empty())
                applied_seq = first_seq + batch.size() - 1;
            next_seq_ = std::max(next_seq_, applied_seq + 1);
            applied_records += 1;
        }
    }
    if (!invalidated.empty())
        hub_.notifyReplicaApplied(invalidated);
    return result;
}

Status
ReplicatedKVStore::beginSnapshot()
{
    {
        MutexLock lock(mutex_);
        Status s = log_.reset(0, 0, true);
        if (!s.isOk())
            return s;
    }
    // Empty the engine a page at a time. The store mutex drops
    // between pages so the cache invalidation runs unlocked (see
    // applyReplicaBytes for the lock order).
    constexpr size_t kPageKeys = 4096;
    Bytes cursor;
    for (;;) {
        std::vector<Bytes> keys;
        Status s;
        {
            MutexLock lock(mutex_);
            s = base_.scan(cursor, BytesView(),
                           [&](BytesView k, BytesView) {
                               keys.emplace_back(k);
                               return keys.size() < kPageKeys;
                           });
            if (s.isOk() && !keys.empty()) {
                kv::WriteBatch batch;
                for (const Bytes &k : keys)
                    batch.del(k);
                s = base_.apply(batch);
            }
        }
        if (!keys.empty())
            hub_.notifyReplicaApplied(keys);
        if (!s.isOk() || keys.size() < kPageKeys)
            return s;
        cursor = keys.back() + '\0';
    }
}

Status
ReplicatedKVStore::applySnapshotChunk(BytesView records)
{
    std::vector<Bytes> invalidated;
    Status result;
    {
        MutexLock lock(mutex_);
        size_t pos = 0;
        while (pos < records.size()) {
            kv::WriteBatch batch;
            uint64_t first_seq = 0;
            result =
                kv::decodeWalRecord(records, pos, batch, first_seq);
            if (result.isNotFound())
                result = Status::corruption(
                    "torn record in snapshot chunk");
            if (!result.isOk())
                break;
            result = base_.apply(batch);
            for (const kv::BatchEntry &e : batch.entries())
                invalidated.push_back(e.key);
            if (!result.isOk())
                break;
        }
    }
    if (!invalidated.empty())
        hub_.notifyReplicaApplied(invalidated);
    return result;
}

Status
ReplicatedKVStore::finishSnapshot(uint64_t base_offset,
                                  uint64_t base_seq)
{
    MutexLock lock(mutex_);
    Status s = log_.reset(base_offset, base_seq, false);
    if (!s.isOk())
        return s;
    next_seq_ = std::max(next_seq_, base_seq + 1);
    return Status::ok();
}

Status
ReplicatedKVStore::get(BytesView key, Bytes &value)
{
    return base_.get(key, value);
}

Status
ReplicatedKVStore::scan(BytesView start, BytesView end,
                        const kv::ScanCallback &cb)
{
    return base_.scan(start, end, cb);
}

bool
ReplicatedKVStore::contains(BytesView key)
{
    return base_.contains(key);
}

Status
ReplicatedKVStore::flush()
{
    Status s = base_.flush();
    if (!s.isOk())
        return s;
    return log_.sync();
}

const kv::IOStats &
ReplicatedKVStore::stats() const
{
    return base_.stats();
}

std::string
ReplicatedKVStore::name() const
{
    return base_.name() + "+repl";
}

uint64_t
ReplicatedKVStore::liveKeyCount()
{
    return base_.liveKeyCount();
}

// ----------------------------------------------------------------
// ReplicationSender — the primary's streaming thread
// ----------------------------------------------------------------

/**
 * One epoll loop over subscriber sockets plus an eventfd the write
 * path (publish) and the server (adopt, waiters, stop) signal.
 * Everything per-subscriber lives on the loop thread; the mutex
 * only guards the tiny handoff vectors.
 */
class ReplicationSender
{
  public:
    explicit ReplicationSender(ReplicationHub &hub) : hub_(hub) {}

    ~ReplicationSender()
    {
        stop(false);
        if (epfd_ >= 0)
            net::closeFd(epfd_);
        if (wake_fd_ >= 0)
            net::closeFd(wake_fd_);
    }

    Status
    start()
    {
        auto ep = net::epollCreate();
        if (!ep.ok())
            return ep.status();
        epfd_ = ep.value();
        auto ev = net::makeEventFd();
        if (!ev.ok())
            return ev.status();
        wake_fd_ = ev.value();
        Status s = net::epollAdd(epfd_, wake_fd_, net::kEventRead,
                                 kWakeTag);
        if (!s.isOk())
            return s;
        thread_ = std::thread([this] { loop(); });
        return Status::ok();
    }

    /** Idempotent; with flush=true the loop drains subscriber
     *  queues (bounded) before exiting. */
    void
    stop(bool flush)
    {
        {
            MutexLock lock(mutex_);
            if (!stop_requested_) {
                stop_requested_ = true;
                flush_requested_ = flush;
            }
        }
        if (wake_fd_ >= 0)
            net::signalEventFd(wake_fd_);
        if (thread_.joinable())
            thread_.join();
    }

    /** New bytes in the log. Hot path: one atomic load, and an
     *  eventfd write only while subscribers exist. */
    void
    wake()
    {
        if (sub_count_.load(std::memory_order_acquire) == 0)
            return;
        net::signalEventFd(wake_fd_);
    }

    Status
    adopt(int fd, uint64_t resume_offset, Bytes first_bytes,
          bool snapshot, uint64_t snapshot_seq)
    {
        {
            MutexLock lock(mutex_);
            if (stop_requested_) {
                net::closeFd(fd);
                return Status::notSupported("sender stopping");
            }
            pending_.push_back({fd, resume_offset,
                                std::move(first_bytes), snapshot,
                                snapshot_seq});
        }
        net::signalEventFd(wake_fd_);
        return Status::ok();
    }

    void
    enqueueWaiter(uint64_t target_offset,
                  const ReplicationHub::AckWaiter &waiter)
    {
        {
            MutexLock lock(mutex_);
            new_waiters_.push_back({waiter, target_offset, nowMs()});
        }
        hub_.sync_acks_pending_->add(1);
        net::signalEventFd(wake_fd_);
    }

    uint64_t
    subCount() const
    {
        return sub_count_.load(std::memory_order_acquire);
    }

    void
    dropAll()
    {
        {
            MutexLock lock(mutex_);
            drop_all_ = true;
        }
        net::signalEventFd(wake_fd_);
    }

  private:
    static constexpr uint64_t kWakeTag = ~0ull;

    struct Sub
    {
        int fd = -1;
        FrameReader reader;
        Bytes out;
        size_t out_pos = 0;
        uint64_t next_offset = 0;
        uint64_t acked_offset = 0;
        uint64_t acked_seq = 0;
        uint32_t next_id = 1;
        bool want_write = false;
        //! Streaming a snapshot that precedes the log from
        //! next_offset; snap_cursor is the next scan start.
        bool snapshot = false;
        Bytes snap_cursor;
        uint64_t snap_seq = 0;

        uint64_t
        backlog() const
        {
            return out.size() - out_pos;
        }
    };

    struct PendingSub
    {
        int fd;
        uint64_t resume_offset;
        Bytes first_bytes;
        bool snapshot;
        uint64_t snapshot_seq;
    };

    struct Waiter
    {
        ReplicationHub::AckWaiter waiter;
        uint64_t target = 0;
        uint64_t enqueued_ms = 0;
    };

    void
    loop()
    {
        std::vector<net::PollEvent> events(64);
        bool flush = false;
        for (;;) {
            bool stop = false;
            bool drop = false;
            std::vector<PendingSub> pend;
            std::vector<Waiter> fresh;
            {
                MutexLock lock(mutex_);
                stop = stop_requested_;
                flush = flush_requested_;
                drop = drop_all_;
                drop_all_ = false;
                pend.swap(pending_);
                fresh.swap(new_waiters_);
            }
            for (auto &p : pend)
                addSub(p);
            for (auto &w : fresh)
                waiters_.emplace(w.target, w);
            if (drop)
                dropAllSubs();
            if (stop)
                break;

            pumpAll();
            completeWaiters(nowMs());
            updateGauges();

            int timeout = waiters_.empty() ? -1 : 50;
            auto n =
                net::epollWait(epfd_, events.data(),
                               static_cast<int>(events.size()),
                               timeout);
            if (!n.ok())
                continue;
            for (int i = 0; i < n.value(); ++i)
                handleEvent(events[i]);
        }
        if (flush)
            finalFlush();
        // Shutdown fail-open: remaining waiters complete — the
        // data is durable locally, followers re-request the tail.
        std::vector<ReplicationHub::AckWaiter> done;
        for (auto &kv : waiters_)
            done.push_back(kv.second.waiter);
        waiters_.clear();
        if (!done.empty())
            hub_.deliverAcks(std::move(done));
        dropAllSubs();
        updateGauges();
    }

    void
    addSub(PendingSub &p)
    {
        Status s = net::epollAdd(epfd_, p.fd, net::kEventRead,
                                 static_cast<uint64_t>(p.fd));
        if (!s.isOk()) {
            net::closeFd(p.fd);
            return;
        }
        Sub sub;
        sub.fd = p.fd;
        sub.out = std::move(p.first_bytes);
        sub.next_offset = p.resume_offset;
        sub.acked_offset = p.resume_offset;
        sub.snapshot = p.snapshot;
        sub.snap_seq = p.snapshot_seq;
        subs_.emplace(p.fd, std::move(sub));
        sub_count_.store(subs_.size(), std::memory_order_release);
    }

    void
    dropSub(int fd)
    {
        auto it = subs_.find(fd);
        if (it == subs_.end())
            return;
        ETHKV_IGNORE_STATUS(net::epollDel(epfd_, fd),
                            "socket is being closed anyway");
        net::closeFd(fd);
        subs_.erase(it);
        sub_count_.store(subs_.size(), std::memory_order_release);
        hub_.subscribers_dropped_->inc();
    }

    void
    dropAllSubs()
    {
        while (!subs_.empty())
            dropSub(subs_.begin()->first);
    }

    /** Queue one page of a snapshot: the engine's merged scan
     *  from the cursor as put records, then the end frame once the
     *  scan is exhausted. @return false when the scan failed. */
    bool
    pumpSnapshotPage(Sub &s)
    {
        const uint64_t budget = kBatchBytes;
        kv::WriteBatch batch;
        uint64_t bytes = 0;
        bool more = false;
        Status st = hub_.store_->scan(
            s.snap_cursor, BytesView(),
            [&](BytesView k, BytesView v) {
                if (bytes >= budget) {
                    more = true;
                    return false;
                }
                batch.put(k, v);
                bytes += k.size() + v.size();
                return true;
            });
        if (!st.isOk())
            return false;
        Bytes payload;
        if (!batch.empty()) {
            Bytes records;
            kv::appendWalRecord(records, batch, 0);
            encodeReplSnapshot(payload, s.next_offset, s.snap_seq,
                               false, records);
            appendFrame(s.out,
                        static_cast<uint8_t>(Opcode::ReplSnapshot),
                        s.next_id++, payload);
            s.snap_cursor = batch.entries().back().key + '\0';
        }
        if (!more) {
            payload.clear();
            encodeReplSnapshot(payload, s.next_offset, s.snap_seq,
                               true, BytesView());
            appendFrame(s.out,
                        static_cast<uint8_t>(Opcode::ReplSnapshot),
                        s.next_id++, payload);
            // A batch with no records tells the follower how far
            // the log moved while the snapshot streamed, so its lag
            // reads true before the first record arrives.
            payload.clear();
            encodeReplBatch(payload, s.next_offset,
                            hub_.log_->endOffset(),
                            hub_.log_->lastSeq(), BytesView());
            appendFrame(s.out,
                        static_cast<uint8_t>(Opcode::ReplBatch),
                        s.next_id++, payload);
            s.snapshot = false;
            hub_.snapshots_sent_->inc();
        }
        return true;
    }

    /** Fill a subscriber's out-buffer — snapshot pages first, then
     *  the log — up to the backlog cap. Reads happen here, on the
     *  sender thread, never on the server's request path.
     *  @return false when the subscriber must be dropped. */
    bool
    pumpSub(Sub &s)
    {
        while (s.snapshot && s.backlog() < kSubscriberBacklogBytes)
            if (!pumpSnapshotPage(s))
                return false;
        if (s.snapshot)
            return true;
        uint64_t end = hub_.log_->endOffset();
        uint64_t last_seq = hub_.log_->lastSeq();
        while (s.next_offset < end &&
               s.backlog() < kSubscriberBacklogBytes) {
            Bytes records;
            Status st = hub_.log_->read(
                s.next_offset,
                static_cast<size_t>(kBatchBytes), records);
            if (st.isNotFound())
                // Retention dropped its offset before it was
                // pinned; it reconnects and gets a snapshot.
                return false;
            if (!st.isOk() || records.empty())
                break;
            Bytes payload;
            encodeReplBatch(payload, s.next_offset, end, last_seq,
                            records);
            appendFrame(s.out,
                        static_cast<uint8_t>(Opcode::ReplBatch),
                        s.next_id++, payload);
            s.next_offset += records.size();
            hub_.batches_shipped_->inc();
        }
        return true;
    }

    /** @return false when the connection died (caller drops it). */
    bool
    flushSub(Sub &s)
    {
        while (s.out_pos < s.out.size()) {
            size_t n = 0;
            Status err;
            auto r = net::writeSome(
                s.fd, BytesView(s.out).substr(s.out_pos), n, err);
            if (r == net::IoResult::Ok) {
                s.out_pos += n;
                continue;
            }
            if (r == net::IoResult::WouldBlock)
                break;
            return false;
        }
        if (s.out_pos == s.out.size()) {
            s.out.clear();
            s.out_pos = 0;
        } else if (s.out_pos > (1u << 20)) {
            s.out.erase(0, s.out_pos);
            s.out_pos = 0;
        }
        // A snapshot in progress has more to send even when the
        // buffer drained: stay registered for writability so the
        // next page goes out as soon as the socket takes it.
        bool want = s.out_pos < s.out.size() || s.snapshot;
        if (want != s.want_write) {
            s.want_write = want;
            uint32_t ev = net::kEventRead |
                          (want ? net::kEventWrite : 0u);
            ETHKV_IGNORE_STATUS(
                net::epollMod(epfd_, s.fd, ev,
                              static_cast<uint64_t>(s.fd)),
                "a dead socket also raises HUP and is dropped");
        }
        return true;
    }

    void
    pumpAll()
    {
        std::vector<int> dead;
        for (auto &kv : subs_) {
            if (!pumpSub(kv.second) || !flushSub(kv.second))
                dead.push_back(kv.first);
        }
        for (int fd : dead)
            dropSub(fd);
    }

    /** @return false when the connection died. */
    bool
    readAcks(Sub &s)
    {
        for (;;) {
            scratch_.clear();
            size_t n = 0;
            Status err;
            auto r =
                net::readSome(s.fd, scratch_, 64u << 10, n, err);
            if (r == net::IoResult::WouldBlock)
                break;
            if (r != net::IoResult::Ok)
                return false;
            s.reader.feed(scratch_);
            Frame f;
            for (;;) {
                Status st = s.reader.next(f);
                if (st.isNotFound())
                    break;
                if (!st.isOk())
                    return false;
                if (f.type !=
                    static_cast<uint8_t>(Opcode::ReplAck))
                    continue; // subscribers only send acks
                uint64_t off = 0;
                uint64_t seq = 0;
                if (!decodeReplAck(f.payload, off, seq).isOk())
                    return false;
                s.acked_offset = std::max(s.acked_offset, off);
                s.acked_seq = std::max(s.acked_seq, seq);
                hub_.acks_received_->inc();
            }
            if (n < (64u << 10))
                break;
        }
        return true;
    }

    void
    handleEvent(const net::PollEvent &ev)
    {
        if (ev.tag == kWakeTag) {
            net::drainEventFd(wake_fd_);
            return;
        }
        int fd = static_cast<int>(ev.tag);
        auto it = subs_.find(fd);
        if (it == subs_.end())
            return;
        Sub &s = it->second;
        if ((ev.events & net::kEventHangup) != 0) {
            dropSub(fd);
            return;
        }
        if ((ev.events & net::kEventRead) != 0 && !readAcks(s)) {
            dropSub(fd);
            return;
        }
        // Acks free backlog budget; writability drains the queue.
        if (!pumpSub(s) || !flushSub(s))
            dropSub(fd);
    }

    /** Lowest acked offset over the subscribers; ~0 when there
     *  are none. A subscriber still receiving its snapshot holds
     *  no replica yet: sync acks skip it (with_snapshots=false),
     *  retention must not (it pins the snapshot's base). */
    uint64_t
    minAcked(bool with_snapshots = false) const
    {
        uint64_t min_acked = ~0ull;
        for (const auto &kv : subs_)
            if (with_snapshots || !kv.second.snapshot)
                min_acked =
                    std::min(min_acked, kv.second.acked_offset);
        return min_acked; // ~0 when none: fail open
    }

    void
    completeWaiters(uint64_t now)
    {
        std::vector<ReplicationHub::AckWaiter> done;
        uint64_t min_acked = minAcked();
        while (!waiters_.empty() &&
               waiters_.begin()->first <= min_acked) {
            done.push_back(waiters_.begin()->second.waiter);
            waiters_.erase(waiters_.begin());
        }
        // Fail open: a follower that sat on the oldest waiter past
        // the deadline is dropped (it reconnects and catches up)
        // so writers are never wedged by one sick replica.
        int timeout = hub_.options_.ack_timeout_ms;
        if (!waiters_.empty() && timeout > 0 &&
            now - waiters_.begin()->second.enqueued_ms >=
                static_cast<uint64_t>(timeout)) {
            uint64_t target = waiters_.begin()->first;
            std::vector<int> victims;
            for (const auto &kv : subs_)
                if (!kv.second.snapshot &&
                    kv.second.acked_offset < target)
                    victims.push_back(kv.first);
            for (int fd : victims)
                dropSub(fd);
            min_acked = minAcked();
            while (!waiters_.empty() &&
                   waiters_.begin()->first <= min_acked) {
                done.push_back(waiters_.begin()->second.waiter);
                waiters_.erase(waiters_.begin());
            }
        }
        if (!done.empty())
            hub_.deliverAcks(std::move(done));
    }

    void
    updateGauges()
    {
        hub_.log_->setRetention(minAcked(true),
                                kRetainedSealedSegments);
        hub_.subscribers_->set(
            static_cast<int64_t>(subs_.size()));
        if (subs_.empty()) {
            hub_.lag_bytes_->set(0);
            hub_.lag_records_->set(0);
            hub_.send_queue_bytes_->set(0);
            return;
        }
        uint64_t end = hub_.log_->endOffset();
        uint64_t last_seq = hub_.log_->lastSeq();
        uint64_t min_acked = minAcked();
        uint64_t min_seq = ~0ull;
        uint64_t queued = 0;
        for (const auto &kv : subs_) {
            min_seq = std::min(min_seq, kv.second.acked_seq);
            queued += kv.second.backlog();
        }
        hub_.lag_bytes_->set(static_cast<int64_t>(
            end > min_acked ? end - min_acked : 0));
        hub_.lag_records_->set(static_cast<int64_t>(
            last_seq > min_seq ? last_seq - min_seq : 0));
        hub_.send_queue_bytes_->set(
            static_cast<int64_t>(queued));
    }

    /** Bounded final drain on graceful shutdown: push everything
     *  the log holds to every subscriber and wait until each has
     *  acked it, or give up after 2s. Written is not enough: the
     *  sockets close next, and closing one with the follower's
     *  acks still unread sends a reset, which can discard bytes
     *  the follower has received but not yet read. */
    void
    finalFlush()
    {
        uint64_t deadline = nowMs() + 2000;
        std::vector<net::PollEvent> events(64);
        for (;;) {
            pumpAll();
            uint64_t end = hub_.log_->endOffset();
            bool behind = false;
            for (const auto &kv : subs_)
                if (kv.second.snapshot ||
                    kv.second.acked_offset < end)
                    behind = true;
            if (!behind || subs_.empty())
                return;
            uint64_t now = nowMs();
            if (now >= deadline)
                return;
            uint64_t left = deadline - now;
            auto n = net::epollWait(
                epfd_, events.data(),
                static_cast<int>(events.size()),
                static_cast<int>(std::min<uint64_t>(left, 50)));
            if (!n.ok())
                return;
            for (int i = 0; i < n.value(); ++i)
                handleEvent(events[i]);
        }
    }

    ReplicationHub &hub_;
    int epfd_ = -1;
    int wake_fd_ = -1;
    std::thread thread_;

    Mutex mutex_{lock_ranks::kReplSender};
    bool stop_requested_ GUARDED_BY(mutex_) = false;
    bool flush_requested_ GUARDED_BY(mutex_) = false;
    bool drop_all_ GUARDED_BY(mutex_) = false;
    std::vector<PendingSub> pending_ GUARDED_BY(mutex_);
    std::vector<Waiter> new_waiters_ GUARDED_BY(mutex_);

    std::atomic<uint64_t> sub_count_{0};

    // Loop-thread state.
    std::map<int, Sub> subs_;
    std::multimap<uint64_t, Waiter> waiters_;
    Bytes scratch_;
};

// ----------------------------------------------------------------
// FollowerClient — the follower's stream thread
// ----------------------------------------------------------------

/**
 * Connect, handshake (SUBSCRIBE with our validated log end), apply
 * REPLBATCH frames, ack. Reconnects with exponential backoff +
 * jitter; latches the hub's sticky degraded mode on replay
 * IOError. The socket is blocking with SO_RCVTIMEO/SO_SNDTIMEO, so
 * every wait is bounded and stop() is honored within one tick.
 */
class FollowerClient
{
  public:
    explicit FollowerClient(ReplicationHub &hub) : hub_(hub) {}

    ~FollowerClient() { stop(); }

    Status
    start()
    {
        thread_ = std::thread([this] { loop(); });
        return Status::ok();
    }

    /** Join the thread; buffered complete frames are applied first
     *  (the PROMOTE drain). Idempotent. */
    void
    stop()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_.native());
            stop_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable())
            thread_.join();
    }

  private:
    bool
    stopped()
    {
        std::lock_guard<std::mutex> lock(mutex_.native());
        return stop_;
    }

    void
    sleepInterruptible(uint64_t ms)
    {
        std::unique_lock<std::mutex> lock(mutex_.native());
        cv_.wait_for(lock, std::chrono::milliseconds(ms),
                     [this] { return stop_; });
    }

    void
    loop()
    {
        const auto &o = hub_.options_;
        Rng rng(o.seed != 0 ? o.seed : nowMs() | 1);
        uint64_t backoff =
            static_cast<uint64_t>(std::max(o.backoff_min_ms, 1));
        const uint64_t backoff_max =
            static_cast<uint64_t>(std::max(o.backoff_max_ms, 1));
        bool first = true;
        while (!stopped() && !hub_.isDegraded()) {
            if (!first) {
                hub_.reconnects_->inc();
                uint64_t jitter = backoff / 4;
                uint64_t ms = backoff - jitter +
                              (jitter != 0
                                   ? rng.nextBounded(2 * jitter + 1)
                                   : 0);
                sleepInterruptible(ms);
                if (stopped() || hub_.isDegraded())
                    break;
                backoff = std::min(backoff * 2, backoff_max);
            }
            first = false;
            bool progress = false;
            runSession(progress);
            if (progress)
                backoff = static_cast<uint64_t>(
                    std::max(o.backoff_min_ms, 1));
        }
        hub_.follower_connected_->set(0);
    }

    /** @return false on timeout, stop, or a dead/corrupt stream. */
    bool
    recvFrame(int fd, FrameReader &reader, Frame &out,
              int budget_ms)
    {
        uint64_t deadline = nowMs() + static_cast<uint64_t>(
                                          std::max(budget_ms, 1));
        for (;;) {
            Status st = reader.next(out);
            if (st.isOk())
                return true;
            if (!st.isNotFound())
                return false;
            if (stopped() || nowMs() >= deadline)
                return false;
            scratch_.clear();
            size_t n = 0;
            Status err;
            auto r =
                net::readSome(fd, scratch_, 64u << 10, n, err);
            if (r == net::IoResult::Ok) {
                reader.feed(scratch_);
                continue;
            }
            if (r == net::IoResult::WouldBlock)
                continue; // SO_RCVTIMEO tick
            return false;
        }
    }

    void
    runSession(bool &progress)
    {
        const auto &o = hub_.options_;
        auto fdr = net::connectTcpTimeout(
            o.primary_host, o.primary_port, o.connect_timeout_ms);
        if (!fdr.ok())
            return;
        fd_ = fdr.value();
        ETHKV_IGNORE_STATUS(
            net::setIoTimeouts(fd_, o.io_timeout_ms,
                               o.io_timeout_ms),
            "without timeouts the stream still works, just with "
            "slower stop/heartbeat response");
        next_id_ = 1;
        uint64_t our_end = hub_.log_->endOffset();
        Bytes payload;
        Bytes out;
        encodeSubscribe(payload, our_end);
        appendFrame(out, static_cast<uint8_t>(Opcode::Subscribe),
                    next_id_++, payload);
        FrameReader reader;
        Frame f;
        if (!net::writeAllTimed(fd_, out, o.connect_timeout_ms)
                 .isOk() ||
            !recvFrame(fd_, reader, f, o.connect_timeout_ms)) {
            closeSession();
            return;
        }
        if (f.type != static_cast<uint8_t>(WireStatus::Ok)) {
            Status s = statusOfWire(
                static_cast<WireStatus>(f.type),
                std::string(f.payload));
            if (s.code() == StatusCode::InvalidArgument)
                // Our log end is past the primary's: histories
                // diverged, and retrying cannot fix it.
                hub_.enterDegraded(Status::invalidArgument(
                    "subscribe rejected: " + s.toString()));
            closeSession();
            return;
        }
        uint64_t resume = 0;
        uint64_t p_end = 0;
        if (!decodeSubscribeResponse(f.payload, resume, p_end)
                 .isOk() ||
            resume < our_end) {
            closeSession();
            return;
        }
        // A resume point past our end means our offset is below the
        // primary's log start: a snapshot stream comes first. A node
        // that crashed mid-snapshot starts over from an empty engine
        // even when the primary can stream its log from 0.
        snapshot_ = resume > our_end;
        if (snapshot_ || hub_.log_->snapshotPending()) {
            // Emptying the engine needs the same whole-key-space
            // scan as serving a snapshot.
            Status s = o.snapshot_catch_up
                           ? hub_.store_->beginSnapshot()
                           : Status::notSupported(
                                 "this engine cannot take a "
                                 "snapshot");
            if (s.isOk() && !snapshot_)
                s = hub_.store_->finishSnapshot(0, 0);
            if (!s.isOk()) {
                failReplay(s);
                closeSession();
                return;
            }
        }
        primary_end_ = p_end;
        hub_.follower_connected_->set(1);
        updateLag();
        progress = true;

        while (!stopped()) {
            Status st = reader.next(f);
            if (st.isOk()) {
                if (!handleFrame(f))
                    break;
                progress = true;
                continue;
            }
            if (!st.isNotFound())
                break; // corrupt stream: resync by reconnecting
            scratch_.clear();
            size_t n = 0;
            Status err;
            auto r =
                net::readSome(fd_, scratch_, 256u << 10, n, err);
            if (r == net::IoResult::Ok) {
                reader.feed(scratch_);
                continue;
            }
            if (r == net::IoResult::WouldBlock) {
                // Quiet tick: heartbeat-ack so the primary's
                // sync-ack timeout never fires on an idle link.
                if (!sendAck())
                    break;
                continue;
            }
            break; // Eof / Error
        }
        if (stopped()) {
            // PROMOTE drain: everything already received must be
            // applied before the role flips, or acked-on-primary
            // writes buffered here would be dropped.
            while (reader.next(f).isOk())
                if (!handleFrame(f))
                    break;
        }
        hub_.follower_connected_->set(0);
        closeSession();
    }

    /** An applied stream failed locally: latch degraded mode,
     *  since a follower applying a partial stream is worse than
     *  one that stopped. Snapshot steps latch on any failure (an
     *  engine without scan can never take one); replay only on
     *  I/O errors. */
    void
    failReplay(const Status &s, bool snapshot_step = true)
    {
        hub_.replay_errors_->inc();
        if (snapshot_step || s.code() == StatusCode::IOError ||
            s.code() == StatusCode::IODegraded)
            hub_.enterDegraded(s);
    }

    /** @return false to end the session. */
    bool
    handleSnapshotFrame(const Frame &f)
    {
        uint64_t base = 0;
        uint64_t base_seq = 0;
        bool done = false;
        BytesView records;
        if (!snapshot_ ||
            !decodeReplSnapshot(f.payload, base, base_seq, done,
                                records)
                 .isOk())
            return false;
        Status s = done ? hub_.store_->finishSnapshot(base, base_seq)
                        : hub_.store_->applySnapshotChunk(records);
        if (!s.isOk()) {
            failReplay(s);
            return false;
        }
        if (!done)
            return true;
        // The lag is set by the batch that follows: the primary's
        // end from the handshake is stale by now.
        snapshot_ = false;
        hub_.snapshots_applied_->inc();
        return sendAck();
    }

    /** @return false to end the session. */
    bool
    handleFrame(const Frame &f)
    {
        if (f.type == static_cast<uint8_t>(Opcode::ReplSnapshot))
            return handleSnapshotFrame(f);
        if (f.type != static_cast<uint8_t>(Opcode::ReplBatch))
            return true; // tolerate unknown server frames
        if (snapshot_)
            return false; // log records before the snapshot ended
        uint64_t start = 0;
        uint64_t p_end = 0;
        uint64_t p_seq = 0;
        BytesView records;
        if (!decodeReplBatch(f.payload, start, p_end, p_seq,
                             records)
                 .isOk())
            return false;
        primary_end_ = p_end;
        primary_last_seq_ = p_seq;
        uint64_t our_end = hub_.log_->endOffset();
        if (start + records.size() <= our_end) {
            // Entirely already applied (duplicate after resume).
            updateLag();
            return sendAck();
        }
        if (start > our_end)
            return false; // gap: reconnect re-handshakes
        if (start < our_end)
            // Partial overlap; both sides' offsets are record
            // boundaries on the same byte stream, so the cut is
            // record-aligned.
            records = records.substr(
                static_cast<size_t>(our_end - start));
        uint64_t applied_seq = 0;
        uint64_t applied_records = 0;
        Status s = hub_.store_->applyReplicaBytes(
            records, applied_seq, applied_records);
        if (!s.isOk()) {
            failReplay(s, false);
            return false;
        }
        hub_.batches_received_->inc();
        hub_.records_applied_->inc(applied_records);
        updateLag();
        return sendAck();
    }

    bool
    sendAck()
    {
        Bytes payload;
        Bytes out;
        encodeReplAck(payload, hub_.log_->endOffset(),
                      hub_.log_->lastSeq());
        appendFrame(out, static_cast<uint8_t>(Opcode::ReplAck),
                    next_id_++, payload);
        return net::writeAllTimed(fd_, out,
                                  hub_.options_.io_timeout_ms)
            .isOk();
    }

    void
    updateLag()
    {
        uint64_t end = hub_.log_->endOffset();
        uint64_t seq = hub_.log_->lastSeq();
        hub_.lag_bytes_->set(static_cast<int64_t>(
            primary_end_ > end ? primary_end_ - end : 0));
        hub_.lag_records_->set(static_cast<int64_t>(
            primary_last_seq_ > seq ? primary_last_seq_ - seq
                                    : 0));
    }

    void
    closeSession()
    {
        if (fd_ >= 0)
            net::closeFd(fd_);
        fd_ = -1;
    }

    ReplicationHub &hub_;
    Mutex mutex_{lock_ranks::kReplFollower};
    std::condition_variable cv_;
    bool stop_ GUARDED_BY(mutex_) = false;
    std::thread thread_;

    // Session state (stream thread only).
    int fd_ = -1;
    uint32_t next_id_ = 1;
    bool snapshot_ = false; //!< Receiving a snapshot stream.
    uint64_t primary_end_ = 0;
    uint64_t primary_last_seq_ = 0;
    Bytes scratch_;
};

// ----------------------------------------------------------------
// ReplicationHub
// ----------------------------------------------------------------

ReplicationHub::ReplicationHub(const ReplicationOptions &options)
    : options_(options),
      env_(options.env != nullptr ? options.env
                                  : Env::defaultEnv()),
      metrics_(options.metrics != nullptr
                   ? *options.metrics
                   : obs::MetricsRegistry::global())
{
    lag_bytes_ = &metrics_.gauge("repl.lag_bytes");
    lag_records_ = &metrics_.gauge("repl.lag_records");
    log_end_offset_ = &metrics_.gauge("repl.log_end_offset");
    snapshot_pending_ = &metrics_.gauge("repl.snapshot_pending");
    follower_connected_ =
        &metrics_.gauge("repl.follower_connected");
    follower_degraded_ =
        &metrics_.gauge("repl.follower_degraded");
    reconnects_ = &metrics_.counter("repl.reconnects");
    batches_shipped_ = &metrics_.counter("repl.batches_shipped");
    records_applied_ = &metrics_.counter("repl.records_applied");
    batches_received_ =
        &metrics_.counter("repl.batches_received");
    acks_received_ = &metrics_.counter("repl.acks_received");
    replay_errors_ = &metrics_.counter("repl.replay_errors");
    subscribers_ = &metrics_.gauge("repl.subscribers");
    send_queue_bytes_ = &metrics_.gauge("repl.send_queue_bytes");
    sync_acks_pending_ =
        &metrics_.gauge("repl.sync_acks_pending");
    subscribers_dropped_ =
        &metrics_.counter("repl.subscribers_dropped");
    promotions_ = &metrics_.counter("repl.promotions");
    snapshots_sent_ = &metrics_.counter("repl.snapshots_sent");
    snapshots_applied_ =
        &metrics_.counter("repl.snapshots_applied");
}

ReplicationHub::~ReplicationHub() { flushAndStop(); }

Result<std::unique_ptr<ReplicationHub>>
ReplicationHub::open(const ReplicationOptions &options)
{
    std::unique_ptr<ReplicationHub> hub(
        new ReplicationHub(options));
    kv::ReplLogOptions lo;
    lo.dir = options.dir;
    lo.segment_bytes = options.segment_bytes;
    lo.sync_appends = options.sync_appends;
    lo.env = options.env;
    auto log = kv::ReplicationLog::open(lo);
    if (!log.ok())
        return log.status();
    hub->log_ = std::move(log.value());
    // No follower holds anything yet; the window alone retains.
    hub->log_->setRetention(~0ull, kRetainedSealedSegments);
    if (!options.primary_host.empty())
        hub->role_.store(ReplRole::Follower,
                         std::memory_order_release);
    return hub;
}

kv::KVStore &
ReplicationHub::wrap(kv::KVStore &base)
{
    store_ =
        std::make_unique<ReplicatedKVStore>(base, *log_, *this);
    return *store_;
}

Status
ReplicationHub::start()
{
    if (options_.primary_host.empty())
        return Status::ok(); // sender starts with 1st subscriber
    MutexLock lock(mutex_);
    follower_ = std::make_unique<FollowerClient>(*this);
    return follower_->start();
}

void
ReplicationHub::flushAndStop()
{
    if (stopped_.exchange(true))
        return;
    MutexLock lock(mutex_);
    if (follower_)
        follower_->stop();
    if (sender_) {
        sender_ptr_.store(nullptr, std::memory_order_release);
        sender_->stop(true);
    }
}

Status
ReplicationHub::promote(uint64_t *end_offset)
{
    {
        MutexLock lock(mutex_);
        if (!isPrimary()) {
            if (isDegraded())
                return Status::ioDegraded(
                    "replay latched degraded mode; refusing to "
                    "promote a torn prefix");
            if (follower_) {
                follower_->stop(); // drains buffered batches
                follower_.reset();
            }
            if (isDegraded())
                return Status::ioDegraded(
                    "replay failed during promotion drain");
            if (log_->snapshotPending()) {
                // A partial snapshot is no state the primary ever
                // had: keep catching up instead.
                follower_ = std::make_unique<FollowerClient>(*this);
                Status s = follower_->start();
                if (!s.isOk())
                    return s;
                return Status::invalidArgument(
                    "follower is mid-snapshot; PROMOTE once it "
                    "has caught up");
            }
            role_.store(ReplRole::Primary,
                        std::memory_order_release);
            promotions_->inc();
            lag_bytes_->set(0);
            lag_records_->set(0);
            follower_connected_->set(0);
        }
    }
    if (end_offset != nullptr)
        *end_offset = log_->endOffset();
    return Status::ok();
}

void
ReplicationHub::setAckDelivery(AckDelivery cb)
{
    ack_delivery_ = std::move(cb);
}

void
ReplicationHub::setInvalidationHook(InvalidationHook cb)
{
    invalidation_hook_ = std::move(cb);
}

void
ReplicationHub::notifyReplicaApplied(
    const std::vector<Bytes> &keys)
{
    if (invalidation_hook_)
        invalidation_hook_(keys);
}

bool
ReplicationHub::deferAcks() const
{
    return options_.sync_acks && isPrimary() &&
           subscriberCount() > 0;
}

void
ReplicationHub::enqueueAckWaiter(uint64_t target_offset,
                                 const AckWaiter &waiter)
{
    auto *sender = sender_ptr_.load(std::memory_order_acquire);
    if (sender == nullptr) {
        // No sender anymore (raced with shutdown): complete
        // immediately — the write is locally durable.
        if (ack_delivery_) {
            std::vector<AckWaiter> one{waiter};
            ack_delivery_(std::move(one));
        }
        return;
    }
    sender->enqueueWaiter(target_offset, waiter);
}

Status
ReplicationHub::adoptSubscriber(int fd, uint64_t resume_offset,
                                Bytes first_bytes, bool snapshot)
{
    MutexLock lock(mutex_);
    if (stopped_.load(std::memory_order_acquire) ||
        !isPrimary()) {
        net::closeFd(fd);
        return Status::notSupported("not accepting subscribers");
    }
    Status s = startSenderLocked();
    if (!s.isOk()) {
        net::closeFd(fd);
        return s;
    }
    // The snapshot's sequence only seeds the follower's lag gauge
    // and sequence numbering, so a racing append is harmless.
    return sender_->adopt(fd, resume_offset, std::move(first_bytes),
                          snapshot, snapshot ? log_->lastSeq() : 0);
}

uint64_t
ReplicationHub::subscriberCount() const
{
    auto *sender = sender_ptr_.load(std::memory_order_acquire);
    return sender != nullptr ? sender->subCount() : 0;
}

void
ReplicationHub::dropSubscribersForTest()
{
    auto *sender = sender_ptr_.load(std::memory_order_acquire);
    if (sender != nullptr)
        sender->dropAll();
}

void
ReplicationHub::refreshLogGauges()
{
    log_end_offset_->set(static_cast<int64_t>(log_->endOffset()));
    snapshot_pending_->set(log_->snapshotPending() ? 1 : 0);
}

void
ReplicationHub::publish()
{
    auto *sender = sender_ptr_.load(std::memory_order_acquire);
    if (sender != nullptr)
        sender->wake();
}

void
ReplicationHub::enterDegraded(const Status &cause)
{
    (void)cause;
    if (!degraded_.exchange(true))
        follower_degraded_->set(1);
}

void
ReplicationHub::deliverAcks(std::vector<AckWaiter> &&waiters)
{
    sync_acks_pending_->add(
        -static_cast<int64_t>(waiters.size()));
    if (ack_delivery_)
        ack_delivery_(std::move(waiters));
}

Status
ReplicationHub::startSenderLocked()
{
    if (sender_)
        return Status::ok();
    auto sender = std::make_unique<ReplicationSender>(*this);
    Status s = sender->start();
    if (!s.isOk())
        return s;
    sender_ = std::move(sender);
    sender_ptr_.store(sender_.get(), std::memory_order_release);
    return Status::ok();
}

} // namespace ethkv::server
