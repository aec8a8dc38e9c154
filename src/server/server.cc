#include "server/server.hh"

#include <algorithm>
#include <chrono>
#include <deque>
#include <unordered_map>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "common/lock_ranks.hh"
#include "common/logging.hh"
#include "obs/json.hh"
#include "server/net_socket.hh"
#include "server/replication.hh"

namespace ethkv::server
{

namespace
{

/** Monotonic nanoseconds for op latency histograms. */
uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Instrument-array index for an opcode (0 = unknown/other). */
int
opIndex(uint8_t op)
{
    constexpr auto kLast = static_cast<uint8_t>(Opcode::ReplSnapshot);
    return (op >= 1 && op <= kLast) ? op : 0;
}

/** Monotonic milliseconds for idle-connection bookkeeping. */
uint64_t
nowMs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

constexpr size_t kReadChunk = 64u << 10;

//! Stop reading from a connection whose pending responses exceed
//! this (closed-loop backpressure); resume below half of it.
constexpr size_t kWriteQueueSoftBytes = 1u << 20;
//! Drop a connection whose pending responses exceed this.
constexpr size_t kWriteQueueHardBytes = 8u << 20;

/** Chrome-trace process id for server-side spans; tracing clients
 *  use pid 2, so a merged timeline shows two process tracks. */
constexpr uint32_t kServerTracePid = 1;

/**
 * Append one server-stage span. Span timestamps live on the trace
 * log's clock; the (now_ns, now_us) pair anchors the histogram
 * clock onto it, so this works for both clock modes.
 */
void
emitSpan(obs::TraceEventLog *log, const char *name,
         uint32_t worker_tid, uint64_t start_ns, uint64_t end_ns,
         uint64_t now_ns, uint64_t now_us,
         const char *arg_name = nullptr, uint64_t arg_value = 0)
{
    obs::TraceEventLog::Span span;
    span.name = name;
    span.category = "server";
    span.start_us = now_us - (now_ns - start_ns) / 1000;
    span.duration_us = (end_ns - start_ns) / 1000;
    span.pid = kServerTracePid;
    span.tid = worker_tid;
    if (arg_name) {
        span.arg_name = arg_name;
        span.arg_value = arg_value;
        span.has_arg = true;
    }
    log->addSpanFull(span);
}

} // namespace

/** One client connection, owned by exactly one worker. */
struct Server::Connection
{
    explicit Connection(int fd_arg, size_t max_frame)
        : fd(fd_arg), reader(max_frame)
    {}

    int fd;
    FrameReader reader;
    Bytes out;          //!< Encoded, not-yet-written responses.
    size_t out_pos = 0; //!< Bytes of `out` already written.
    bool paused = false; //!< Reads off (backpressure).
    //! Interest mask registered with the worker's epoll.
    uint32_t events = net::kEventRead;
    uint64_t ops = 0;        //!< Lifetime frames served.
    //! This connection's contribution to the write-queue gauge.
    size_t reported_queue = 0;
    //! Responses queued on `out` but not yet fully flushed.
    uint32_t resp_inflight = 0;
    //! Generation stamp (see Server::next_conn_id_).
    uint64_t id = 0;
    //! Last inbound traffic, for idle reaping.
    uint64_t last_activity_ms = 0;

    /** A response held back for replication sync-acks — plus any
     *  later response that must not overtake it (responses on a
     *  connection are strictly FIFO; PipelinedClient depends on
     *  it). `ready` entries drain to `out` in order. */
    struct HeldResponse
    {
        Bytes bytes;
        bool ready = false;
    };
    std::deque<HeldResponse> held;
};

/** One event-loop thread plus its handoff queue. */
struct Server::Worker
{
    int epfd = -1;
    int wake_fd = -1;
    uint32_t index = 0; //!< Trace tid = index + 1.
    Mutex mutex{lock_ranks::kServerWorker};
    std::vector<int> pending GUARDED_BY(mutex);
    //! Sync-ack completions from the replication sender thread.
    std::vector<ReplicationHub::AckWaiter> completions
        GUARDED_BY(mutex);
    std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns;
    std::thread thread;
    uint64_t last_idle_sweep_ms = 0;
};

Server::Server(kv::KVStore &store, ServerOptions options)
    : store_(store), options_(std::move(options)),
      metrics_(options_.metrics ? *options_.metrics
                                : obs::MetricsRegistry::global())
{
    if (options_.scan_byte_budget == 0) {
        // Leave headroom for the varint count, per-entry length
        // prefixes, and the truncated byte so the encoded response
        // always fits in one frame.
        size_t headroom = 1024;
        options_.scan_byte_budget =
            options_.max_frame_bytes > headroom
                ? options_.max_frame_bytes - headroom
                : options_.max_frame_bytes;
    }
    trace_log_ = options_.trace_log;
    if (options_.slow_op_micros >= 0) {
        slow_log_ = std::make_unique<obs::SlowOpLog>(
            options_.slow_op_capacity);
        slow_op_ns_ =
            static_cast<uint64_t>(options_.slow_op_micros) * 1000;
    }
    int stage_shift =
        std::clamp(options_.stage_sample_shift, 0, 62);
    int trace_shift =
        std::clamp(options_.trace_sample_shift, 0, 62);
    stage_sample_mask_ = (uint64_t{1} << stage_shift) - 1;
    trace_sample_mask_ = (uint64_t{1} << trace_shift) - 1;

    conns_accepted_ = &metrics_.counter("server.conns.accepted");
    conns_closed_ = &metrics_.counter("server.conns.closed");
    conns_active_ = &metrics_.gauge("server.conns.active");
    bytes_in_ = &metrics_.counter("server.bytes_in");
    bytes_out_ = &metrics_.counter("server.bytes_out");
    frames_bad_ = &metrics_.counter("server.frames.bad");
    frames_received_ =
        &metrics_.counter("server.frames.received");
    backpressure_paused_ =
        &metrics_.counter("server.backpressure.paused");
    backpressure_dropped_ =
        &metrics_.counter("server.backpressure.dropped");
    for (int i = 0; i < kOpSlots; ++i) {
        std::string name = std::string("server.op.") +
                           opcodeName(static_cast<uint8_t>(i));
        op_count_[i] = &metrics_.counter(name);
        op_errors_[i] = &metrics_.counter(name + ".errors");
        op_not_found_[i] = &metrics_.counter(name + ".not_found");
        op_latency_[i] =
            &metrics_.histogram(name + ".latency_ns");
    }
    conn_lifetime_ops_ =
        &metrics_.histogram("server.conn.lifetime_ops");

    stage_read_ns_ = &metrics_.histogram("op.server.read_ns");
    stage_decode_ns_ = &metrics_.histogram("op.server.decode_ns");
    stage_exec_ns_ = &metrics_.histogram("op.server.exec_ns");
    stage_encode_ns_ = &metrics_.histogram("op.server.encode_ns");
    stage_flush_ns_ = &metrics_.histogram("op.server.flush_ns");
    stage_total_ns_ = &metrics_.histogram("op.server.total_ns");
    write_queue_bytes_ =
        &metrics_.gauge("server.write_queue_bytes");
    responses_inflight_ =
        &metrics_.gauge("server.responses_inflight");
    slow_ops_recorded_ =
        &metrics_.counter("server.slowops.recorded");
    traces_emitted_ = &metrics_.counter("server.traces.emitted");
    conns_idle_closed_ =
        &metrics_.counter("server.conns.idle_closed");
    subscribers_adopted_ =
        &metrics_.counter("server.repl.subscribers_adopted");
    acks_deferred_ = &metrics_.counter("server.repl.acks_deferred");
}

bool
Server::stageSampleHit()
{
    return (stage_sample_seq_.fetch_add(
                1, std::memory_order_relaxed) &
            stage_sample_mask_) == 0;
}

bool
Server::traceSampleHit()
{
    return (trace_sample_seq_.fetch_add(
                1, std::memory_order_relaxed) &
            trace_sample_mask_) == 0;
}

Server::~Server()
{
    stop();
}

Status
Server::start()
{
    if (started_.exchange(true))
        return Status::invalidArgument("server already started");
    if (options_.workers < 1)
        return Status::invalidArgument("need at least one worker");

    auto listener =
        net::listenTcp(options_.host, options_.port);
    if (!listener.ok())
        return listener.status();
    listen_fd_ = listener.value();
    auto port = net::localPort(listen_fd_);
    if (!port.ok())
        return port.status();
    port_ = port.value();

    auto wake = net::makeEventFd();
    if (!wake.ok())
        return wake.status();
    accept_wake_fd_ = wake.value();

    for (int i = 0; i < options_.workers; ++i) {
        auto worker = std::make_unique<Worker>();
        worker->index = static_cast<uint32_t>(i);
        auto ep = net::epollCreate();
        if (!ep.ok())
            return ep.status();
        worker->epfd = ep.value();
        auto wfd = net::makeEventFd();
        if (!wfd.ok())
            return wfd.status();
        worker->wake_fd = wfd.value();
        Status s = net::epollAdd(
            worker->epfd, worker->wake_fd, net::kEventRead,
            static_cast<uint64_t>(worker->wake_fd));
        if (!s.isOk())
            return s;
        workers_.push_back(std::move(worker));
    }

    if (options_.repl != nullptr) {
        // The sender thread completes deferred sync acks by
        // re-queueing them onto the owning worker's loop — the
        // same handoff pattern the acceptor uses.
        options_.repl->setAckDelivery(
            [this](std::vector<ReplicationHub::AckWaiter>
                       &&waiters) {
                for (const auto &w : waiters) {
                    if (w.worker >= workers_.size())
                        continue;
                    Worker &worker = *workers_[w.worker];
                    {
                        MutexLock lock(worker.mutex);
                        worker.completions.push_back(w);
                    }
                    net::signalEventFd(worker.wake_fd);
                }
            });
    }

    running_.store(true);
    for (auto &worker : workers_) {
        Worker *w = worker.get();
        w->thread = std::thread([this, w] { workerLoop(*w); });
    }
    acceptor_ = std::thread([this] { acceptorLoop(); });
    return Status::ok();
}

void
Server::stop()
{
    // Never started, or a second stop(): nothing to do.
    if (!running_.exchange(false))
        return;
    net::signalEventFd(accept_wake_fd_);
    if (acceptor_.joinable())
        acceptor_.join();
    for (auto &worker : workers_) {
        net::signalEventFd(worker->wake_fd);
        if (worker->thread.joinable())
            worker->thread.join();
    }

    // Replication drains BEFORE worker fds close: workers are
    // joined (no new writes can be acknowledged), and the sender's
    // final ack deliveries may still signal worker wake fds, which
    // must not have been recycled. This ordering is the SIGTERM
    // contract: acknowledged writes reach the followers' sockets
    // before the process exits.
    if (options_.repl != nullptr)
        options_.repl->flushAndStop();

    for (auto &worker : workers_) {
        net::closeFd(worker->wake_fd);
        net::closeFd(worker->epfd);
    }
    net::closeFd(listen_fd_);
    net::closeFd(accept_wake_fd_);
    listen_fd_ = accept_wake_fd_ = -1;

    // The shutdown contract: every acknowledged write is persisted
    // before the process exits (WAL fdatasync via the Env seam).
    Status s = store_.flush();
    if (!s.isOk()) {
        warn("ethkvd: engine flush on shutdown failed: %s",
             s.toString().c_str());
    }
}

void
Server::acceptorLoop()
{
    auto ep = net::epollCreate();
    if (!ep.ok()) {
        warn("ethkvd acceptor: %s", ep.status().toString().c_str());
        return;
    }
    int epfd = ep.value();
    Status s = net::epollAdd(epfd, listen_fd_, net::kEventRead,
                             static_cast<uint64_t>(listen_fd_));
    if (s.isOk()) {
        s = net::epollAdd(epfd, accept_wake_fd_, net::kEventRead,
                          static_cast<uint64_t>(accept_wake_fd_));
    }
    if (!s.isOk()) {
        warn("ethkvd acceptor: %s", s.toString().c_str());
        net::closeFd(epfd);
        return;
    }

    net::PollEvent events[8];
    while (running_.load()) {
        auto n = net::epollWait(epfd, events, 8, -1);
        if (!n.ok())
            break;
        for (int i = 0; i < n.value(); ++i) {
            if (events[i].tag ==
                static_cast<uint64_t>(accept_wake_fd_)) {
                net::drainEventFd(accept_wake_fd_);
                continue; // running_ re-checked by the loop
            }
            // Drain the accept queue.
            while (true) {
                auto conn = net::acceptOn(listen_fd_);
                if (!conn.ok())
                    break; // NotFound = queue empty
                conns_accepted_->inc();
                conns_active_->add(1);
                Worker &w = *workers_[next_worker_];
                next_worker_ =
                    (next_worker_ + 1) % workers_.size();
                {
                    MutexLock lock(w.mutex);
                    w.pending.push_back(conn.value());
                }
                net::signalEventFd(w.wake_fd);
            }
        }
    }
    net::closeFd(epfd);
}

/** (Re)register the epoll interest matching a connection's state. */
void
Server::applyBackpressure(Worker &worker, Connection &conn)
{
    size_t queued = conn.out.size() - conn.out_pos;
    write_queue_bytes_->add(
        static_cast<int64_t>(queued) -
        static_cast<int64_t>(conn.reported_queue));
    conn.reported_queue = queued;
    if (!conn.paused && queued > kWriteQueueSoftBytes) {
        conn.paused = true;
        backpressure_paused_->inc();
    } else if (conn.paused &&
               queued < kWriteQueueSoftBytes / 2) {
        conn.paused = false;
    }
    uint32_t events = (conn.paused ? 0u : net::kEventRead) |
                      (queued > 0 ? net::kEventWrite : 0u);
    // Level-triggered epoll keeps reporting a registered interest,
    // so the syscall is needed only when the mask changes.
    if (events == conn.events)
        return;
    ETHKV_IGNORE_STATUS(
        net::epollMod(worker.epfd, conn.fd, events,
                      static_cast<uint64_t>(conn.fd)),
        "EPOLL_CTL_MOD can only fail on a closing fd");
    conn.events = events;
}

void
Server::flushWrites(Worker &worker, Connection &conn)
{
    uint64_t start_ns = nowNs();
    size_t wrote_total = 0;
    uint32_t worker_tid = worker.index + 1;

    // Stage attribution for the flush, shared by the normal and
    // connection-closing exits (after closeConnection the conn is
    // dangling, so only locals may be touched).
    auto account = [&]() {
        if (wrote_total == 0)
            return;
        uint64_t end_ns = nowNs();
        if (stageSampleHit())
            stage_flush_ns_->record(end_ns - start_ns);
        if (trace_log_ && traceSampleHit()) {
            emitSpan(trace_log_, "write.flush", worker_tid,
                     start_ns, end_ns, end_ns,
                     trace_log_->nowUs(), "bytes", wrote_total);
        }
    };

    while (conn.out_pos < conn.out.size()) {
        size_t n = 0;
        Status err;
        net::IoResult r = net::writeSome(
            conn.fd,
            BytesView(conn.out).substr(conn.out_pos), n, err);
        if (r == net::IoResult::Ok) {
            conn.out_pos += n;
            bytes_out_->inc(n);
            wrote_total += n;
            continue;
        }
        if (r == net::IoResult::WouldBlock)
            break;
        account();
        closeConnection(worker, conn);
        return;
    }
    if (conn.out_pos == conn.out.size()) {
        conn.out.clear();
        conn.out_pos = 0;
        responses_inflight_->add(
            -static_cast<int64_t>(conn.resp_inflight));
        conn.resp_inflight = 0;
    } else if (conn.out_pos > (1u << 20)) {
        conn.out.erase(0, conn.out_pos);
        conn.out_pos = 0;
    }
    account();
    applyBackpressure(worker, conn);
}

void
Server::closeConnection(Worker &worker, Connection &conn)
{
    ETHKV_IGNORE_STATUS(net::epollDel(worker.epfd, conn.fd),
                        "closing fd is removed from epoll anyway");
    net::closeFd(conn.fd);
    conns_closed_->inc();
    conns_active_->add(-1);
    conn_lifetime_ops_->record(conn.ops);
    write_queue_bytes_->add(
        -static_cast<int64_t>(conn.reported_queue));
    responses_inflight_->add(
        -static_cast<int64_t>(conn.resp_inflight));
    worker.conns.erase(static_cast<uint64_t>(conn.fd));
    // `conn` is dangling from here.
}

Bytes
Server::statsJson()
{
    const kv::IOStats &io = store_.stats();
    obs::JsonWriter w;
    w.beginObject();
    w.key("schema");
    w.value("ethkv.server.stats.v3");
    w.key("engine");
    w.value(store_.name());
    w.key("io");
    w.beginObject();
    w.key("user_reads");
    w.value(io.user_reads);
    w.key("user_writes");
    w.value(io.user_writes);
    w.key("user_deletes");
    w.value(io.user_deletes);
    w.key("user_scans");
    w.value(io.user_scans);
    w.key("bytes_read");
    w.value(io.bytes_read);
    w.key("bytes_written");
    w.value(io.bytes_written);
    w.key("flush_bytes");
    w.value(io.flush_bytes);
    w.key("compaction_bytes");
    w.value(io.compaction_bytes);
    w.key("gc_bytes");
    w.value(io.gc_bytes);
    w.endObject();
    w.key("connections_active");
    w.value(conns_active_->value());
    w.key("repl_role");
    w.value(options_.repl == nullptr
                ? "none"
                : (options_.repl->isPrimary() ? "primary"
                                              : "follower"));
    if (options_.repl != nullptr)
        options_.repl->refreshLogGauges();
    // Full registry snapshot (ethkv.metrics.v1): engine metrics,
    // per-stage histograms with percentile gauges, stall and
    // maintenance counters — the whole telemetry plane in one
    // remote scrape.
    w.key("metrics");
    w.rawValue(metrics_.toJson());
    w.endObject();
    return Bytes(w.take());
}

void
Server::execOp(Connection &, const Frame &frame,
               uint8_t &wire_status, Bytes &payload)
{
    auto fail = [&](const Status &s) {
        wire_status = static_cast<uint8_t>(wireStatusOf(s));
        payload = s.message();
    };
    // Role check: a follower's engine is the replication stream's
    // property; client mutations would fork the history.
    auto rejectOnFollower = [&]() {
        if (options_.repl == nullptr ||
            options_.repl->isPrimary())
            return false;
        wire_status = static_cast<uint8_t>(WireStatus::NotPrimary);
        payload = "follower: mutations rejected (PROMOTE first)";
        return true;
    };
    switch (static_cast<Opcode>(frame.type)) {
      case Opcode::Get: {
        Bytes key;
        Status s = decodeGet(frame.payload, key);
        if (s.isOk())
            s = store_.get(key, payload);
        if (!s.isOk())
            fail(s);
        return;
      }
      case Opcode::Put: {
        if (rejectOnFollower())
            return;
        Bytes key, value;
        Status s = decodePut(frame.payload, key, value);
        if (s.isOk())
            s = store_.put(key, value);
        if (!s.isOk())
            fail(s);
        return;
      }
      case Opcode::Delete: {
        if (rejectOnFollower())
            return;
        Bytes key;
        Status s = decodeDelete(frame.payload, key);
        if (s.isOk())
            s = store_.del(key);
        if (!s.isOk())
            fail(s);
        return;
      }
      case Opcode::Batch: {
        if (rejectOnFollower())
            return;
        kv::WriteBatch batch;
        Status s = decodeBatch(frame.payload, batch);
        if (s.isOk())
            s = store_.apply(batch);
        if (!s.isOk())
            fail(s);
        return;
      }
      case Opcode::Scan: {
        Bytes start, end;
        uint64_t limit = 0;
        Status s = decodeScan(frame.payload, start, end, limit);
        if (!s.isOk()) {
            fail(s);
            return;
        }
        if (limit == 0 || limit > options_.scan_limit_max)
            limit = options_.scan_limit_max;
        std::vector<ScanEntry> entries;
        // Truncate on whichever cap hits first: the entry-count
        // limit (visit one extra entry to detect it) or the
        // response byte budget. Each entry costs its key + value
        // plus ~10 bytes of varint length prefixes on the wire. An
        // over-budget entry is not stored — the client resumes from
        // the last returned key — but the first entry is always
        // accepted so a giant value can't wedge the scan.
        size_t budget = options_.scan_byte_budget;
        size_t used = 0;
        bool byte_truncated = false;
        s = store_.scan(start, end,
                        [&](BytesView k, BytesView v) {
                            size_t cost =
                                10 + k.size() + v.size();
                            if (!entries.empty() &&
                                used + cost > budget) {
                                byte_truncated = true;
                                return false;
                            }
                            used += cost;
                            entries.push_back(
                                {Bytes(k), Bytes(v)});
                            return entries.size() < limit + 1;
                        });
        if (!s.isOk()) {
            fail(s);
            return;
        }
        bool truncated =
            byte_truncated || entries.size() > limit;
        if (entries.size() > limit)
            entries.pop_back();
        encodeScanResponse(payload, entries, truncated);
        return;
      }
      case Opcode::Stats:
        payload = statsJson();
        return;
      case Opcode::TraceDump: {
        if (trace_log_) {
            payload = trace_log_->toJson();
        } else {
            payload = "[]";
        }
        return;
      }
      case Opcode::SlowLog: {
        if (slow_log_) {
            payload = slow_log_->toJson();
            return;
        }
        obs::JsonWriter w;
        w.beginObject();
        w.key("schema");
        w.value("ethkv.slowops.v1");
        w.key("capacity");
        w.value(uint64_t{0});
        w.key("recorded");
        w.value(uint64_t{0});
        w.key("dropped");
        w.value(uint64_t{0});
        w.key("ops");
        w.beginArray();
        w.endArray();
        w.endObject();
        payload = w.take();
        return;
      }
      case Opcode::Promote: {
        if (options_.repl == nullptr) {
            fail(Status::notSupported(
                "replication not configured"));
            return;
        }
        uint64_t end_offset = 0;
        Status s = options_.repl->promote(&end_offset);
        if (!s.isOk()) {
            fail(s);
            return;
        }
        encodePromoteResponse(payload, end_offset);
        return;
      }
      case Opcode::Subscribe:
        // Handled in handleFrame (connection migration); reaching
        // execOp means replication is off on this node.
        fail(Status::notSupported("replication not configured"));
        return;
      case Opcode::ReplAck:
      case Opcode::ReplBatch:
      case Opcode::ReplSnapshot:
        // Stream-only frames; on a request connection they are a
        // protocol error, not a crash.
        fail(Status::invalidArgument(
            "replication stream frame on a request connection"));
        return;
    }
    fail(Status::invalidArgument(
        "unknown opcode " + std::to_string(frame.type)));
}

void
Server::handleFrame(Worker &worker, Connection &conn,
                    const Frame &frame, uint64_t decode_start_ns,
                    uint64_t decode_end_ns)
{
    int idx = opIndex(frame.type);
    op_count_[idx]->inc();
    frames_received_->inc();
    ++conn.ops;

    if (frame.type == static_cast<uint8_t>(Opcode::Subscribe) &&
        options_.repl != nullptr) {
        handleSubscribe(worker, conn, frame);
        return;
    }

    uint8_t wire_status = static_cast<uint8_t>(WireStatus::Ok);
    Bytes payload;
    uint64_t exec_start_ns = nowNs();
    execOp(conn, frame, wire_status, payload);
    uint64_t exec_end_ns = nowNs();
    op_latency_[idx]->record(exec_end_ns - exec_start_ns);
    if (wire_status == static_cast<uint8_t>(WireStatus::NotFound))
        op_not_found_[idx]->inc();
    else if (wire_status != static_cast<uint8_t>(WireStatus::Ok))
        op_errors_[idx]->inc();

    // Semi-sync replication: a successful mutation's response is
    // held until every live follower acked the bytes (or the
    // fail-open timeout fires). Later responses on the connection
    // queue behind it to keep responses strictly FIFO.
    bool defer = false;
    if (options_.repl != nullptr &&
        wire_status == static_cast<uint8_t>(WireStatus::Ok)) {
        Opcode op = static_cast<Opcode>(frame.type);
        defer = (op == Opcode::Put || op == Opcode::Delete ||
                 op == Opcode::Batch) &&
                options_.repl->deferAcks();
    }

    size_t out_before = conn.out.size();
    Bytes held_frame;
    Bytes *sink = (defer || !conn.held.empty()) ? &held_frame
                                                : &conn.out;
    // A traced request gets a traced response (context echoed), so
    // the client can reconcile without per-request client state;
    // v1 requests get v1 responses and never see the revision.
    if (frame.has_trace) {
        appendFrameTraced(*sink, wire_status, frame.request_id,
                          payload, frame.trace);
    } else {
        appendFrame(*sink, wire_status, frame.request_id,
                    payload);
    }
    uint64_t encode_end_ns = nowNs();
    size_t resp_bytes = sink == &conn.out
                            ? conn.out.size() - out_before
                            : held_frame.size();
    if (sink == &conn.out) {
        ++conn.resp_inflight;
        responses_inflight_->add(1);
    } else {
        conn.held.push_back({std::move(held_frame), !defer});
        if (defer) {
            acks_deferred_->inc();
            // The hub's end offset is at or past this write's end:
            // when followers ack it, this write is replicated.
            options_.repl->enqueueAckWaiter(
                options_.repl->endOffset(),
                {worker.index, static_cast<uint64_t>(conn.fd),
                 conn.id});
        }
    }

    uint64_t decode_ns = decode_end_ns - decode_start_ns;
    uint64_t exec_ns = exec_end_ns - exec_start_ns;
    uint64_t encode_ns = encode_end_ns - exec_end_ns;
    uint64_t total_ns = encode_end_ns - decode_start_ns;

    if (stageSampleHit()) {
        stage_decode_ns_->record(decode_ns);
        stage_exec_ns_->record(exec_ns);
        stage_encode_ns_->record(encode_ns);
        stage_total_ns_->record(total_ns);
    }

    if (slow_log_ && total_ns >= slow_op_ns_) {
        obs::SlowOpRecord rec;
        rec.start_us = decode_start_ns / 1000;
        rec.trace_id = frame.has_trace ? frame.trace.id : 0;
        rec.total_ns = total_ns;
        rec.exec_ns = exec_ns;
        rec.decode_ns = decode_ns;
        rec.encode_ns = encode_ns;
        rec.request_bytes =
            static_cast<uint32_t>(frame.payload.size());
        rec.response_bytes = static_cast<uint32_t>(resp_bytes);
        rec.worker = static_cast<uint16_t>(worker.index);
        rec.opcode = frame.type;
        rec.wire_status = wire_status;
        slow_log_->record(rec);
        slow_ops_recorded_->inc();
    }

    if (trace_log_ && (frame.has_trace || traceSampleHit())) {
        traces_emitted_->inc();
        uint32_t tid = worker.index + 1;
        uint64_t now_ns = encode_end_ns;
        uint64_t now_us = trace_log_->nowUs();
        std::string req_name =
            std::string("req.") + opcodeName(frame.type);
        if (frame.has_trace) {
            emitSpan(trace_log_, req_name.c_str(), tid,
                     decode_start_ns, encode_end_ns, now_ns,
                     now_us, "trace_id", frame.trace.id);
        } else {
            emitSpan(trace_log_, req_name.c_str(), tid,
                     decode_start_ns, encode_end_ns, now_ns,
                     now_us);
        }
        emitSpan(trace_log_, "frame.decode", tid, decode_start_ns,
                 decode_end_ns, now_ns, now_us);
        emitSpan(trace_log_, "op.exec", tid, exec_start_ns,
                 exec_end_ns, now_ns, now_us);
        emitSpan(trace_log_, "resp.encode", tid, exec_end_ns,
                 encode_end_ns, now_ns, now_us);
    }
}

void
Server::handleSubscribe(Worker &worker, Connection &conn,
                        const Frame &frame)
{
    ReplicationHub *repl = options_.repl;
    auto respond = [&](WireStatus code, BytesView payload) {
        if (frame.has_trace) {
            appendFrameTraced(conn.out,
                              static_cast<uint8_t>(code),
                              frame.request_id, payload,
                              frame.trace);
        } else {
            appendFrame(conn.out, static_cast<uint8_t>(code),
                        frame.request_id, payload);
        }
        ++conn.resp_inflight;
        responses_inflight_->add(1);
    };
    if (!repl->isPrimary()) {
        respond(WireStatus::NotPrimary, "not primary");
        flushWrites(worker, conn);
        return;
    }
    uint64_t resume = 0;
    Status s = decodeSubscribe(frame.payload, resume);
    if (!s.isOk()) {
        respond(wireStatusOf(s), s.message());
        flushWrites(worker, conn);
        return;
    }
    if (!conn.held.empty()) {
        respond(WireStatus::InvalidArgument,
                "subscribe with responses pending sync-ack");
        flushWrites(worker, conn);
        return;
    }
    uint64_t end = repl->endOffset();
    if (resume > end) {
        // The follower's log is longer than ours: divergent
        // histories (e.g. it was once primary). It must not
        // retry; this error latches its degraded mode.
        respond(WireStatus::InvalidArgument,
                "resume offset past log end: divergent history");
        flushWrites(worker, conn);
        return;
    }
    bool snapshot = false;
    if (resume < end) {
        Bytes probe;
        s = repl->log().read(resume, 1, probe);
        if (s.isNotFound() && !repl->snapshotCatchUp()) {
            // Not InvalidArgument: the follower must not latch
            // degraded; it retries, and an operator re-seeds it.
            respond(WireStatus::NotSupported,
                    "resume offset below the log start, and this "
                    "engine cannot serve a snapshot");
            flushWrites(worker, conn);
            return;
        }
        if (s.isNotFound()) {
            // Retention dropped the follower's offset: it catches
            // up from a snapshot, then the log from here.
            snapshot = true;
            resume = end;
        } else if (!s.isOk()) {
            respond(WireStatus::InvalidArgument,
                    "resume offset is not a record boundary");
            flushWrites(worker, conn);
            return;
        }
    }

    // Accept: build the Ok response, then migrate the socket to
    // the sender — with any unflushed earlier responses in front
    // so this connection's byte stream stays in order.
    Bytes reply_payload;
    encodeSubscribeResponse(reply_payload, resume, end);
    Bytes first_bytes(BytesView(conn.out).substr(conn.out_pos));
    if (frame.has_trace) {
        appendFrameTraced(first_bytes,
                          static_cast<uint8_t>(WireStatus::Ok),
                          frame.request_id, reply_payload,
                          frame.trace);
    } else {
        appendFrame(first_bytes,
                    static_cast<uint8_t>(WireStatus::Ok),
                    frame.request_id, reply_payload);
    }
    int fd = conn.fd;
    ETHKV_IGNORE_STATUS(net::epollDel(worker.epfd, fd),
                        "fd moves to the sender's epoll");
    conns_closed_->inc(); // keeps accepted == active + closed
    conns_active_->add(-1);
    conn_lifetime_ops_->record(conn.ops);
    write_queue_bytes_->add(
        -static_cast<int64_t>(conn.reported_queue));
    responses_inflight_->add(
        -static_cast<int64_t>(conn.resp_inflight));
    worker.conns.erase(static_cast<uint64_t>(fd));
    // `conn` is dangling from here.
    subscribers_adopted_->inc();
    ETHKV_IGNORE_STATUS(
        repl->adoptSubscriber(fd, resume, std::move(first_bytes),
                              snapshot),
        "the hub owns the fd, success or failure");
}

void
Server::deliverAckCompletions(Worker &worker)
{
    std::vector<ReplicationHub::AckWaiter> completions;
    {
        MutexLock lock(worker.mutex);
        completions.swap(worker.completions);
    }
    for (const auto &c : completions) {
        auto it = worker.conns.find(c.conn_tag);
        if (it == worker.conns.end())
            continue; // connection closed while waiting
        Connection &conn = *it->second;
        if (conn.id != c.conn_id)
            continue; // fd reused by a newer connection
        // Completions arrive in enqueue order per connection
        // (targets are monotone offsets), so the first un-ready
        // held response is the one this completion releases.
        for (auto &h : conn.held) {
            if (!h.ready) {
                h.ready = true;
                break;
            }
        }
        while (!conn.held.empty() && conn.held.front().ready) {
            conn.out.append(conn.held.front().bytes);
            ++conn.resp_inflight;
            responses_inflight_->add(1);
            conn.held.pop_front();
        }
        flushWrites(worker, conn);
    }
}

void
Server::reapIdleConnections(Worker &worker, uint64_t now_ms)
{
    if (options_.conn_idle_timeout_ms <= 0)
        return;
    uint64_t timeout =
        static_cast<uint64_t>(options_.conn_idle_timeout_ms);
    uint64_t interval = std::min<uint64_t>(timeout / 2 + 1, 1000);
    if (now_ms - worker.last_idle_sweep_ms < interval)
        return;
    worker.last_idle_sweep_ms = now_ms;
    std::vector<uint64_t> victims;
    for (const auto &[tag, conn] : worker.conns) {
        if (now_ms - conn->last_activity_ms >= timeout)
            victims.push_back(tag);
    }
    for (uint64_t tag : victims) {
        auto it = worker.conns.find(tag);
        if (it == worker.conns.end())
            continue;
        conns_idle_closed_->inc();
        closeConnection(worker, *it->second);
    }
}

void
Server::workerLoop(Worker &worker)
{
#ifdef __linux__
    if (options_.pin_cores) {
        unsigned cores = std::thread::hardware_concurrency();
        if (cores > 0) {
            cpu_set_t set;
            CPU_ZERO(&set);
            CPU_SET(worker.index % cores, &set);
            // Best effort: a restricted cpuset (container) may
            // reject the mask; the worker just stays unpinned.
            (void)pthread_setaffinity_np(pthread_self(),
                                         sizeof(set), &set);
        }
    }
#endif
    net::PollEvent events[64];
    Bytes chunk;
    // Idle reaping needs a periodic timeout; otherwise block.
    int wait_ms = -1;
    if (options_.conn_idle_timeout_ms > 0)
        wait_ms = std::min(
            options_.conn_idle_timeout_ms / 2 + 1, 1000);
    while (running_.load()) {
        auto n =
            net::epollWait(worker.epfd, events, 64, wait_ms);
        if (!n.ok())
            break;
        if (options_.conn_idle_timeout_ms > 0)
            reapIdleConnections(worker, nowMs());
        for (int i = 0; i < n.value(); ++i) {
            uint64_t tag = events[i].tag;
            if (tag == static_cast<uint64_t>(worker.wake_fd)) {
                net::drainEventFd(worker.wake_fd);
                // Adopt handed-off connections.
                std::vector<int> adopted;
                {
                    MutexLock lock(worker.mutex);
                    adopted.swap(worker.pending);
                }
                for (int fd : adopted) {
                    auto conn = std::make_unique<Connection>(
                        fd, options_.max_frame_bytes);
                    Status s = net::epollAdd(
                        worker.epfd, fd, net::kEventRead,
                        static_cast<uint64_t>(fd));
                    if (!s.isOk()) {
                        net::closeFd(fd);
                        conns_closed_->inc();
                        conns_active_->add(-1);
                        continue;
                    }
                    conn->id = next_conn_id_.fetch_add(
                        1, std::memory_order_relaxed);
                    conn->last_activity_ms = nowMs();
                    worker.conns.emplace(
                        static_cast<uint64_t>(fd),
                        std::move(conn));
                }
                deliverAckCompletions(worker);
                continue;
            }

            auto it = worker.conns.find(tag);
            if (it == worker.conns.end())
                continue; // closed earlier in this batch
            Connection &conn = *it->second;

            if (events[i].events & net::kEventWrite)
                flushWrites(worker, conn);
            if (worker.conns.find(tag) == worker.conns.end())
                continue; // flush closed it

            bool peer_gone = false;
            if ((events[i].events & net::kEventRead) &&
                !conn.paused) {
                uint64_t read_start_ns = nowNs();
                size_t read_total = 0;
                while (true) {
                    chunk.clear();
                    size_t got = 0;
                    Status err;
                    net::IoResult r = net::readSome(
                        conn.fd, chunk, kReadChunk, got, err);
                    if (r == net::IoResult::Ok) {
                        bytes_in_->inc(got);
                        read_total += got;
                        conn.reader.feed(chunk);
                        if (got < kReadChunk)
                            break; // drained the socket
                        continue;
                    }
                    if (r == net::IoResult::WouldBlock)
                        break;
                    peer_gone = true; // EOF or error
                    break;
                }
                if (read_total > 0) {
                    conn.last_activity_ms = nowMs();
                    uint64_t read_end_ns = nowNs();
                    if (stageSampleHit())
                        stage_read_ns_->record(read_end_ns -
                                               read_start_ns);
                    if (trace_log_ && traceSampleHit()) {
                        emitSpan(trace_log_, "sock.read",
                                 worker.index + 1, read_start_ns,
                                 read_end_ns, read_end_ns,
                                 trace_log_->nowUs(), "bytes",
                                 read_total);
                    }
                }

                // Decode and serve every complete frame.
                while (true) {
                    Frame frame;
                    uint64_t decode_start_ns = nowNs();
                    Status s = conn.reader.next(frame);
                    if (s.isNotFound())
                        break;
                    if (!s.isOk()) {
                        // Unrecoverable framing: best-effort error
                        // frame, then drop the connection.
                        frames_bad_->inc();
                        appendFrame(
                            conn.out,
                            static_cast<uint8_t>(
                                WireStatus::BadFrame),
                            0, s.message());
                        flushWrites(worker, conn);
                        if (worker.conns.find(tag) !=
                            worker.conns.end()) {
                            closeConnection(worker, conn);
                        }
                        peer_gone = false; // already closed
                        break;
                    }
                    handleFrame(worker, conn, frame,
                                decode_start_ns, nowNs());
                    if (worker.conns.find(tag) ==
                        worker.conns.end()) {
                        // SUBSCRIBE migrated the fd to the
                        // replication sender; conn is gone.
                        peer_gone = false;
                        break;
                    }
                    size_t queued =
                        conn.out.size() - conn.out_pos;
                    if (queued > kWriteQueueHardBytes) {
                        backpressure_dropped_->inc();
                        closeConnection(worker, conn);
                        peer_gone = false;
                        break;
                    }
                }
                if (worker.conns.find(tag) == worker.conns.end())
                    continue;
                flushWrites(worker, conn);
                if (worker.conns.find(tag) == worker.conns.end())
                    continue;
            }

            if (peer_gone ||
                ((events[i].events & net::kEventHangup) &&
                 !(events[i].events & net::kEventRead))) {
                closeConnection(worker, conn);
            }
        }
    }

    // Shutdown: best-effort flush of queued responses, then close.
    for (auto &[tag, conn] : worker.conns) {
        if (conn->out_pos < conn->out.size()) {
            size_t n = 0;
            Status err;
            net::IoResult r = net::writeSome(
                conn->fd,
                BytesView(conn->out).substr(conn->out_pos), n,
                err);
            static_cast<void>(r);
        }
        net::closeFd(conn->fd);
        conns_closed_->inc();
        conns_active_->add(-1);
        conn_lifetime_ops_->record(conn->ops);
        write_queue_bytes_->add(
            -static_cast<int64_t>(conn->reported_queue));
        responses_inflight_->add(
            -static_cast<int64_t>(conn->resp_inflight));
    }
    worker.conns.clear();
}

} // namespace ethkv::server
