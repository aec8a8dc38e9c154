/**
 * @file
 * perf_loadgen — the benchmark's load generator for ethkvd.
 *
 * One process, kThreads threads, kConns pipelined connections
 * (connection c belongs to thread c % kThreads). It speaks the wire
 * protocol through server/protocol.hh's codec over non-blocking
 * sockets, so it can poll for completions while it waits for the
 * next scheduled send (PipelinedClient reaps only on a full window).
 *
 *   --mode preload   write the initial state, then exit
 *   --mode run       warm-up, then open loop at --rate requests/s
 *                    for --open-seconds, each request timed from its
 *                    scheduled send, then closed loop for
 *                    --closed-seconds at kWindow requests in flight
 *                    per connection; then read back a seeded sample
 *                    of keys and compare with the expected values
 *   --mode corrtable write the static correlation table for the
 *                    correlated Zipf mix
 *
 * Traffic: --keys N > 0 selects the Zipf mix over key ids [0, N)
 * (values are bench::synthesizeValue(id), so every PUT rewrites the
 * preloaded bytes); otherwise --state/--ops replay a captured op
 * stream, looped. Writes go to the first half of the connections and
 * reads to the second half, so a read never queues behind a large
 * batch on its connection; within each half a request is routed by
 * the hash of its (first) key, so per-key order of writes holds.
 *
 * Prints one JSON object on stdout.
 */

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "client/schema.hh"
#include "common/logging.hh"
#include "common/rand.hh"
#include "common/xxhash.hh"
#include "obs/scoped_timer.hh"
#include "opfile.hh"
#include "server/client.hh"
#include "server/net_socket.hh"
#include "server/protocol.hh"

namespace
{

using namespace ethkv;
using perfbench::Op;
using perfbench::OpKind;
using server::Opcode;
using server::WireStatus;

// Settings every workload shares.
constexpr int kThreads = 2;
constexpr int kConns = 4;
constexpr double kZipf = 0.99;
constexpr uint32_t kValueBytes = 256;
constexpr double kWarmupSeconds = 1;
//! Zipf mixes: warm-up first reads the hottest ids once, up to this
//! many: all of corr-read-cached's keys, which then fill its cache as
//! in steady state, and on zipf-mixed-large more than its cache holds,
//! so it starts with the hottest keys the cache admits.
constexpr uint64_t kWarmReadKeys = 150000;
constexpr uint64_t kVerifySample = 2000;
//! Longest wait for the server to go idle after the open loop.
constexpr double kIdleMaxSeconds = 15;
//! Closed loop: requests in flight per connection.
constexpr size_t kWindow = 16;

struct Args
{
    std::string mode = "run";
    int port = 0;
    uint64_t seed = 1;
    // Zipf mix.
    uint64_t keys = 0;
    int read_pct = 50;
    uint32_t corr_follow = 0;
    // Captured stream.
    std::string state_path;
    std::string ops_path;
    // Run shape.
    double closed_seconds = 5;
    double open_seconds = 5;
    double rate = 10000;
    int server_pid = 0;
    //! Send SIGUSR1 / SIGUSR2 to --server-pid around the open loop
    //! (perf_traced_server resets / freezes its aggregates).
    bool mark_signal = false;
    std::string out;
};

uint64_t
nowNs()
{
    return obs::nowNanos();
}

// -- Key space of the Zipf mixes ---------------------------------

/** Ids spread over classes of all four hybrid routes, as in
 *  bench_server_load, so keys classify like real ones. */
client::KVClass
classOfKeyId(uint64_t key_id)
{
    using client::KVClass;
    static const KVClass classes[] = {
        KVClass::TrieNodeAccount, KVClass::TrieNodeStorage,
        KVClass::SnapshotAccount, KVClass::SnapshotStorage,
        KVClass::Code,            KVClass::BlockBody,
        KVClass::HeaderNumber,    KVClass::StateID,
    };
    return classes[key_id % (sizeof(classes) / sizeof(classes[0]))];
}

Bytes
zipfKey(uint64_t key_id)
{
    client::KVClass cls = classOfKeyId(key_id);
    uint16_t size = cls == client::KVClass::SnapshotStorage ? 65
                    : cls == client::KVClass::BlockBody     ? 41
                                                            : 33;
    return bench::synthesizeKey(static_cast<uint16_t>(cls), key_id,
                                size);
}

/** Correlated reads: the followers of an id are the next ids in its
 *  group of 8 (the mix bench_server_load --corr-follow drives). */
constexpr uint64_t kCorrGroup = 8;

uint64_t
corrFollowerOf(uint64_t key_id, uint32_t j)
{
    uint64_t base = key_id - (key_id % kCorrGroup);
    return base + ((key_id - base + 1 + j) % kCorrGroup);
}

// -- Requests ------------------------------------------------------

/** One request ready to send. */
struct Item
{
    int conn = 0; //!< Global connection index.
    Opcode opcode = Opcode::Get;
    Bytes payload;
    uint64_t user_bytes = 0;
    int64_t op_index = -1; //!< Captured-stream op, for the state model.
};

bool
isWrite(Opcode op)
{
    return op == Opcode::Put || op == Opcode::Delete ||
           op == Opcode::Batch;
}

void
encodeOp(const Op &op, Item &item)
{
    item.payload.clear();
    switch (op.kind) {
      case OpKind::Get:
        item.opcode = Opcode::Get;
        server::encodeGet(item.payload, op.key);
        break;
      case OpKind::Put:
        item.opcode = Opcode::Put;
        server::encodePut(item.payload, op.key, op.value);
        break;
      case OpKind::Del:
        item.opcode = Opcode::Delete;
        server::encodeDelete(item.payload, op.key);
        break;
      case OpKind::Batch:
        item.opcode = Opcode::Batch;
        server::encodeBatch(item.payload, op.batch);
        break;
      case OpKind::Scan:
        item.opcode = Opcode::Scan;
        server::encodeScan(item.payload, op.key, op.value, 128);
        break;
    }
    item.user_bytes = op.userBytes();
}

/** Captured stream, shared read-only by every thread. */
struct Stream
{
    std::vector<Op> ops;
    //! Each op encoded once, so a send is a copy: encoding a large
    //! batch on the send path would make the generator run late.
    std::vector<Item> encoded;
    //! Keys written through more than one connection: their final
    //! order across connections is not defined, so they are not
    //! checked.
    std::unordered_map<Bytes, int> writer_conn;
};

const Bytes &
routingKey(const Op &op)
{
    if (op.kind == OpKind::Batch && !op.batch.empty())
        return op.batch.entries().front().key;
    return op.key;
}

int
connOfKey(BytesView key, int conns)
{
    return static_cast<int>(xxhash64(key, 0x5eed) %
                            static_cast<uint64_t>(conns));
}

/** The n-th of `thread`'s connections, round robin (connection c
 *  belongs to thread c % threads). */
int
ownConn(int thread, uint64_t n)
{
    uint64_t own = static_cast<uint64_t>(
        (kConns - thread + kThreads - 1) / kThreads);
    return thread + kThreads * static_cast<int>(n % own);
}

/** Where a thread's requests come from. */
class Source
{
  public:
    virtual ~Source() = default;
    /** Fill the next request; false when the source is exhausted. */
    virtual bool next(Item &item) = 0;
};

class ZipfSource final : public Source
{
  public:
    ZipfSource(const Args &a, int thread, uint64_t seed)
        : a_(a), thread_(thread), rng_(seed), zipf_(a.keys, kZipf)
    {}

    bool
    next(Item &item) override
    {
        item.op_index = -1;
        item.conn = ownConn(thread_, rr_++);
        if (follow_left_ > 0) {
            uint32_t j = a_.corr_follow - follow_left_--;
            get(item, corrFollowerOf(primary_, j));
            return true;
        }
        uint64_t id = zipf_.sample(rng_);
        if (rng_.nextBounded(100) <
            static_cast<uint64_t>(a_.read_pct)) {
            get(item, id);
            primary_ = id;
            follow_left_ = a_.corr_follow;
        } else {
            Bytes key = zipfKey(id);
            Bytes value = bench::synthesizeValue(id, kValueBytes);
            item.opcode = Opcode::Put;
            item.payload.clear();
            server::encodePut(item.payload, key, value);
            item.user_bytes = key.size() + value.size();
        }
        return true;
    }

  private:
    void
    get(Item &item, uint64_t id)
    {
        item.opcode = Opcode::Get;
        item.payload.clear();
        server::encodeGet(item.payload, zipfKey(id));
        item.user_bytes = 0;
    }

    const Args &a_;
    int thread_;
    Rng rng_;
    ZipfGenerator zipf_;
    uint64_t rr_ = 0;
    uint64_t primary_ = 0;
    uint32_t follow_left_ = 0;
};

/** One GET of each of this thread's ids below `end`, hottest first. */
class WarmReadSource final : public Source
{
  public:
    WarmReadSource(int thread, uint64_t end)
        : thread_(thread), id_(static_cast<uint64_t>(thread)), end_(end)
    {}

    bool
    next(Item &item) override
    {
        if (id_ >= end_)
            return false;
        item.opcode = Opcode::Get;
        item.payload.clear();
        server::encodeGet(item.payload, zipfKey(id_));
        item.user_bytes = 0;
        item.op_index = -1;
        item.conn = ownConn(thread_, rr_++);
        id_ += kThreads;
        return true;
    }

  private:
    int thread_;
    uint64_t id_;
    uint64_t end_;
    uint64_t rr_ = 0;
};

/** Loops over the ops of the stream routed to this thread. */
class StreamSource final : public Source
{
  public:
    StreamSource(const Stream &s, int thread, uint64_t start)
        : s_(s), thread_(thread), pos_(start % s.ops.size())
    {}

    bool
    next(Item &item) override
    {
        for (size_t scanned = 0; scanned < s_.ops.size(); ++scanned) {
            size_t i = pos_;
            pos_ = (pos_ + 1) % s_.ops.size();
            if (s_.encoded[i].conn % kThreads != thread_)
                continue;
            item = s_.encoded[i];
            return true;
        }
        return false;
    }

  private:
    const Stream &s_;
    int thread_;
    size_t pos_;
};

/** Preload: BATCH frames over a slice of the initial state. */
class PreloadSource final : public Source
{
  public:
    static constexpr size_t kBatch = 256;

    PreloadSource(const Args &a, int thread,
                  const std::vector<Op> *state)
        : thread_(thread), state_(state)
    {
        total_ = state ? state->size() : a.keys;
        pos_ = static_cast<uint64_t>(thread) * kBatch;
    }

    bool
    next(Item &item) override
    {
        if (pos_ >= total_)
            return false;
        kv::WriteBatch batch;
        uint64_t end = std::min<uint64_t>(pos_ + kBatch, total_);
        for (uint64_t i = pos_; i < end; ++i) {
            if (state_) {
                batch.put((*state_)[i].key, (*state_)[i].value);
            } else {
                batch.put(zipfKey(i),
                          bench::synthesizeValue(i, kValueBytes));
            }
        }
        pos_ += kBatch * kThreads;
        item.opcode = Opcode::Batch;
        item.payload.clear();
        server::encodeBatch(item.payload, batch);
        item.user_bytes = batch.byteSize();
        item.op_index = -1;
        item.conn = ownConn(thread_, rr_++);
        return true;
    }

  private:
    int thread_;
    const std::vector<Op> *state_;
    uint64_t total_ = 0;
    uint64_t pos_ = 0;
    uint64_t rr_ = 0;
};

// -- Connections ---------------------------------------------------

struct Pending
{
    uint64_t sched_ns;
    Opcode opcode;
    uint64_t user_bytes;
    int64_t op_index;
};

/** What a completion callback learns. */
struct Completion
{
    const Pending &req;
    WireStatus status;
    uint64_t done_ns;
};

class Conn
{
  public:
    bool
    open(int port)
    {
        auto fd = server::net::connectTcp("127.0.0.1",
                                          static_cast<uint16_t>(port));
        if (!fd.ok())
            return false;
        fd_ = fd.value();
        return server::net::setNoDelay(fd_).isOk() &&
               server::net::setNonBlocking(fd_, true).isOk();
    }

    ~Conn()
    {
        if (fd_ >= 0)
            server::net::closeFd(fd_);
    }

    void
    send(const Item &item, uint64_t sched_ns)
    {
        server::appendFrame(out_, static_cast<uint8_t>(item.opcode),
                            next_id_++, item.payload);
        pending_.push_back(
            {sched_ns, item.opcode, item.user_bytes, item.op_index});
    }

    /** Write what the socket takes; false once the peer is gone. */
    bool
    flush()
    {
        while (out_off_ < out_.size()) {
            size_t n = 0;
            Status err;
            auto r = server::net::writeSome(
                fd_, BytesView(out_).substr(out_off_), n, err);
            if (r == server::net::IoResult::WouldBlock)
                break;
            if (r != server::net::IoResult::Ok)
                return false;
            out_off_ += n;
        }
        if (out_off_ == out_.size()) {
            out_.clear();
            out_off_ = 0;
        }
        return true;
    }

    /** Read and complete every whole response; false on a dead
     *  connection or a malformed stream. */
    template <typename Fn>
    bool
    receive(Fn &&on_complete)
    {
        for (;;) {
            size_t n = 0;
            Status err;
            in_.clear();
            auto r = server::net::readSome(fd_, in_, 1 << 16, n, err);
            if (r == server::net::IoResult::WouldBlock)
                break;
            if (r != server::net::IoResult::Ok)
                return false;
            reader_.feed(in_);
        }
        server::Frame frame;
        for (;;) {
            Status s = reader_.next(frame);
            if (s.isNotFound())
                return true;
            if (!s.isOk() || pending_.empty())
                return false;
            uint64_t done = nowNs();
            on_complete(Completion{pending_.front(),
                                   static_cast<WireStatus>(frame.type),
                                   done});
            pending_.pop_front();
        }
    }

    int fd() const { return fd_; }
    size_t inFlight() const { return pending_.size(); }
    bool wantsWrite() const { return out_off_ < out_.size(); }

  private:
    int fd_ = -1;
    uint32_t next_id_ = 1;
    Bytes out_;
    size_t out_off_ = 0;
    Bytes in_;
    server::FrameReader reader_;
    std::deque<Pending> pending_;
};

// -- Server process counters ---------------------------------------

struct ProcSample
{
    uint64_t write_bytes = 0;
    uint64_t cancelled_write_bytes = 0;
    uint64_t syscr = 0;
    uint64_t syscw = 0;
    uint64_t cpu_ticks = 0;
};

ProcSample
readProc(int pid)
{
    ProcSample p;
    if (pid <= 0)
        return p;
    char path[64];
    std::snprintf(path, sizeof path, "/proc/%d/io", pid);
    if (std::FILE *fp = std::fopen(path, "r")) {
        char name[64];
        unsigned long long v = 0;
        while (std::fscanf(fp, "%63s %llu", name, &v) == 2) {
            std::string n = name;
            if (n == "write_bytes:")
                p.write_bytes = v;
            else if (n == "cancelled_write_bytes:")
                p.cancelled_write_bytes = v;
            else if (n == "syscr:")
                p.syscr = v;
            else if (n == "syscw:")
                p.syscw = v;
        }
        std::fclose(fp);
    }
    std::snprintf(path, sizeof path, "/proc/%d/stat", pid);
    if (std::FILE *fp = std::fopen(path, "r")) {
        char buf[4096];
        size_t n = std::fread(buf, 1, sizeof buf - 1, fp);
        buf[n] = 0;
        std::fclose(fp);
        // Fields after the ")" of comm: state is field 3; utime and
        // stime are fields 14 and 15.
        const char *p_end = std::strrchr(buf, ')');
        if (p_end != nullptr) {
            unsigned long long ut = 0, st = 0;
            if (std::sscanf(p_end + 2,
                            "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u"
                            " %*u %llu %llu",
                            &ut, &st) == 2)
                p.cpu_ticks = ut + st;
        }
    }
    return p;
}

/**
 * Wait until the server has finished the flushes and compactions
 * earlier writes left behind: its CPU time stays flat (at most one
 * tick per 100 ms) for three polls in a row, kIdleMaxSeconds at most.
 */
void
waitIdle(int pid)
{
    if (pid <= 0)
        return;
    const uint64_t deadline =
        nowNs() + static_cast<uint64_t>(kIdleMaxSeconds * 1e9);
    uint64_t last = readProc(pid).cpu_ticks;
    for (int flat = 0; flat < 3 && nowNs() < deadline;) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        uint64_t now = readProc(pid).cpu_ticks;
        flat = now - last <= 1 ? flat + 1 : 0;
        last = now;
    }
}

// -- The worker ----------------------------------------------------

/** One timed request: its latency, and its weight in percentiles
 *  (the user bytes of a write, 1 for a read). */
struct Sample
{
    uint64_t ns;
    uint64_t weight;
};

/** Per-thread results of one phase. */
struct PhaseStats
{
    uint64_t attempted = 0;
    uint64_t acked = 0;
    uint64_t failed = 0;
    uint64_t user_bytes = 0;
    uint64_t busy_ns = 0; //!< Open loop: time spent sending/completing.
    std::vector<uint64_t> lag_ns;
    // Per half-second window of the phase (by completion time in the
    // closed loop, by scheduled send in the open loop), so a run
    // reports medians over windows rather than one pooled figure a
    // single stall can move.
    uint64_t t0 = 0;
    std::vector<uint64_t> acked_w;
    std::vector<std::vector<Sample>> read_w;
    std::vector<std::vector<Sample>> write_w;
};

constexpr uint64_t kWindowNs = 500000000ull;

//! A phase reports the value of its fastest quarter of windows: the
//! cores of a shared host speed up and slow down from one stretch of
//! seconds to the next, and a slow stretch only ever adds time, so
//! the fast quarter tracks the code rather than the neighbours.
constexpr double kFastQuantile = 0.25;

//! Open loop: gaps to the next send shorter than this are spent
//! polling rather than sleeping.
constexpr uint64_t kSpinNs = 100000;

size_t
windowOf(const PhaseStats &st, uint64_t t)
{
    return t > st.t0 ? static_cast<size_t>((t - st.t0) / kWindowNs) : 0;
}

template <typename T>
T &
slot(std::vector<T> &v, size_t i)
{
    if (v.size() <= i)
        v.resize(i + 1);
    return v[i];
}

/** Expected-state changes this thread's acked writes made. */
using Delta = std::unordered_map<Bytes, std::optional<Bytes>>;

class Worker
{
  public:
    Worker(const Args &a, int thread, std::unique_ptr<Source> source,
           const Stream *stream)
        : a_(a), thread_(thread), source_(std::move(source)),
          stream_(stream)
    {}

    bool
    connect()
    {
        for (int c = thread_; c < kConns; c += kThreads) {
            auto conn = std::make_unique<Conn>();
            if (!conn->open(a_.port))
                return false;
            conns_.push_back(std::move(conn));
        }
        return true;
    }

    /** Keep kWindow requests in flight per connection until
     *  end_ns (0 = until the source is exhausted), then drain. */
    bool
    runClosed(uint64_t end_ns, PhaseStats &st)
    {
        bool have = false;
        for (;;) {
            uint64_t now = nowNs();
            bool open_phase = end_ns == 0 || now < end_ns;
            while (open_phase) {
                if (!have) {
                    have = source_->next(item_);
                    if (!have) {
                        open_phase = false;
                        break;
                    }
                }
                Conn &c = connOf(item_.conn);
                if (c.inFlight() >= kWindow)
                    break;
                c.send(item_, nowNs());
                ++st.attempted;
                have = false;
            }
            if (!open_phase && allIdle())
                return true;
            if (!pump(st, false, 1000000))
                return false;
        }
    }

    /** Send at `rate_per_thread` from start_ns to end_ns, timing
     *  each request from its scheduled send, then drain. Time spent
     *  sending and completing is counted as busy. */
    bool
    runOpen(uint64_t start_ns, uint64_t end_ns, double rate_per_thread,
            PhaseStats &st)
    {
        if (rate_per_thread <= 0)
            return true;
        const double interval = 1e9 / rate_per_thread;
        uint64_t k = 0;
        uint64_t due = start_ns;
        for (;;) {
            uint64_t now = nowNs();
            uint64_t completed = st.acked + st.failed;
            bool sent = false;
            while (due <= now && due < end_ns) {
                sent = true;
                if (!source_->next(item_))
                    return false;
                connOf(item_.conn).send(item_, due);
                ++st.attempted;
                st.lag_ns.push_back(nowNs() - due);
                ++k;
                due = start_ns +
                      static_cast<uint64_t>(interval *
                                            static_cast<double>(k));
            }
            if (due >= end_ns && allIdle())
                return true;
            // Poll without sleeping when the next send is near, so
            // a response is timed when it arrives rather than when
            // the thread wakes; otherwise sleep until it is due.
            uint64_t wait = due >= end_ns ? 1000000
                            : due > now   ? due - now
                                          : 0;
            if (!pump(st, true, wait < kSpinNs ? 0 : wait))
                return false;
            if (sent || st.acked + st.failed != completed)
                st.busy_ns += nowNs() - now;
            if (now > end_ns + 30000000000ull)
                return false; // the server stopped answering
        }
    }

    const Delta &delta() const { return delta_; }
    int thread() const { return thread_; }

    std::unique_ptr<Source>
    swapSource(std::unique_ptr<Source> source)
    {
        std::swap(source_, source);
        return source;
    }

  private:
    Conn &
    connOf(int global)
    {
        return *conns_[static_cast<size_t>(global / kThreads)];
    }

    bool
    allIdle() const
    {
        for (const auto &c : conns_)
            if (c->inFlight() > 0 || c->wantsWrite())
                return false;
        return true;
    }

    /** Flush, wait up to wait_ns for readiness, complete responses. */
    bool
    pump(PhaseStats &st, bool timed, uint64_t wait_ns)
    {
        pollfd fds[64];
        size_t n = 0;
        for (const auto &c : conns_) {
            if (!c->flush())
                return false;
            fds[n].fd = c->fd();
            fds[n].events = static_cast<short>(
                POLLIN | (c->wantsWrite() ? POLLOUT : 0));
            fds[n].revents = 0;
            ++n;
        }
        timespec ts{static_cast<time_t>(wait_ns / 1000000000ull),
                    static_cast<long>(wait_ns % 1000000000ull)};
        if (ppoll(fds, n, &ts, nullptr) < 0 && errno != EINTR)
            return false;
        for (size_t i = 0; i < n; ++i) {
            if (fds[i].revents == 0)
                continue;
            bool ok = conns_[i]->receive([&](const Completion &c) {
                complete(c, st, timed);
            });
            if (!ok)
                return false;
        }
        return true;
    }

    void
    complete(const Completion &c, PhaseStats &st, bool timed)
    {
        const Pending &req = c.req;
        bool ok = c.status == WireStatus::Ok ||
                  (req.opcode == Opcode::Get &&
                   c.status == WireStatus::NotFound);
        if (!ok) {
            ++st.failed;
            return;
        }
        ++st.acked;
        bool write = isWrite(req.opcode);
        if (write)
            st.user_bytes += req.user_bytes;
        if (timed) {
            size_t w = windowOf(st, req.sched_ns);
            slot(write ? st.write_w : st.read_w, w)
                .push_back({c.done_ns - req.sched_ns,
                            write ? std::max<uint64_t>(1, req.user_bytes)
                                  : 1});
        } else {
            ++slot(st.acked_w, windowOf(st, c.done_ns));
        }
        if (write && req.op_index >= 0 && stream_ != nullptr)
            applyToDelta(stream_->ops[static_cast<size_t>(
                req.op_index)]);
    }

    void
    applyToDelta(const Op &op)
    {
        switch (op.kind) {
          case OpKind::Put: delta_[op.key] = op.value; break;
          case OpKind::Del: delta_[op.key] = std::nullopt; break;
          case OpKind::Batch:
            for (const auto &e : op.batch.entries()) {
                if (e.op == kv::BatchOp::Put)
                    delta_[e.key] = e.value;
                else
                    delta_[e.key] = std::nullopt;
            }
            break;
          case OpKind::Get:
          case OpKind::Scan: break;
        }
    }

    const Args &a_;
    int thread_;
    std::unique_ptr<Source> source_;
    const Stream *stream_;
    std::vector<std::unique_ptr<Conn>> conns_;
    Item item_;
    Delta delta_;
};

// -- Helpers -------------------------------------------------------

bool
loadOps(const std::string &path, std::vector<Op> &out)
{
    perfbench::OpReader reader;
    if (!reader.open(path))
        return false;
    Op op;
    while (reader.next(op))
        out.push_back(op);
    return true;
}

double
percentileUs(std::vector<uint64_t> &v, double q)
{
    if (v.empty())
        return 0;
    size_t idx = static_cast<size_t>(q * static_cast<double>(v.size() - 1));
    std::nth_element(v.begin(), v.begin() + static_cast<long>(idx),
                     v.end());
    return static_cast<double>(v[idx]) / 1000.0;
}

/** Quantile q of v, interpolated between neighbours. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/** Percentile q: the latency below which a share q of the samples
 *  lies, each counted by its weight, or once with by_weight false. */
double
weightedUs(std::vector<Sample> &v, double q, bool by_weight)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end(),
              [](const Sample &a, const Sample &b) { return a.ns < b.ns; });
    auto weight = [&](const Sample &s) {
        return by_weight ? static_cast<double>(s.weight) : 1.0;
    };
    double total = 0;
    for (const Sample &s : v)
        total += weight(s);
    double acc = 0;
    for (const Sample &s : v) {
        acc += weight(s);
        if (acc >= q * total)
            return static_cast<double>(s.ns) / 1000.0;
    }
    return static_cast<double>(v.back().ns) / 1000.0;
}

/**
 * Percentile q of latencies: over the windows that hold at least ten
 * samples beyond q (20 for p50, 1000 for p99), the value of the
 * fastest quarter (kFastQuantile), when three or more do; else the
 * percentile of all samples pooled.
 */
double
latencyUs(std::vector<std::vector<Sample>> &windows, double q,
          size_t &samples, bool by_weight = true)
{
    const size_t min_samples = static_cast<size_t>(10.0 / (1.0 - q) + 0.5);
    std::vector<double> per_window;
    std::vector<Sample> pooled;
    for (auto &w : windows) {
        if (w.size() >= min_samples)
            per_window.push_back(weightedUs(w, q, by_weight));
        pooled.insert(pooled.end(), w.begin(), w.end());
    }
    samples = pooled.size();
    if (per_window.size() >= 3)
        return quantile(per_window, kFastQuantile);
    return weightedUs(pooled, q, by_weight);
}

/** Per-window rate of a closed loop at the fastest quarter of its
 *  full windows. */
double
fastRate(const std::vector<uint64_t> &acked_w, double seconds)
{
    std::vector<double> rates;
    size_t full = static_cast<size_t>(seconds * 1e9 / kWindowNs);
    for (size_t i = 0; i < std::min(full, acked_w.size()); ++i)
        rates.push_back(static_cast<double>(acked_w[i]) * 1e9 /
                        static_cast<double>(kWindowNs));
    return quantile(rates, 1.0 - kFastQuantile);
}

/** Server CPU time per acknowledged request of a closed loop, at the
 *  fastest quarter of its full windows; cpu_ns[i] is the server's CPU
 *  time at the start of window i. */
double
fastCpuUsPerOp(const std::vector<uint64_t> &acked_w,
               const std::vector<double> &cpu_ns)
{
    std::vector<double> per_op;
    for (size_t i = 0; i + 1 < cpu_ns.size() && i < acked_w.size(); ++i)
        if (acked_w[i] > 0)
            per_op.push_back((cpu_ns[i + 1] - cpu_ns[i]) / 1000.0 /
                             static_cast<double>(acked_w[i]));
    return quantile(per_op, kFastQuantile);
}

template <typename T>
void
mergeWindows(std::vector<T> &into, std::vector<T> &from)
{
    for (size_t i = 0; i < from.size(); ++i) {
        if constexpr (std::is_same_v<T, uint64_t>)
            slot(into, i) += from[i];
        else
            slot(into, i).insert(slot(into, i).end(), from[i].begin(),
                                 from[i].end());
    }
}

void
merge(PhaseStats &into, PhaseStats &from)
{
    into.attempted += from.attempted;
    into.acked += from.acked;
    into.failed += from.failed;
    into.user_bytes += from.user_bytes;
    into.busy_ns += from.busy_ns;
    into.lag_ns.insert(into.lag_ns.end(), from.lag_ns.begin(),
                       from.lag_ns.end());
    mergeWindows(into.acked_w, from.acked_w);
    mergeWindows(into.read_w, from.read_w);
    mergeWindows(into.write_w, from.write_w);
}

int
writeCorrTable(const Args &a)
{
    std::FILE *fp = std::fopen(a.out.c_str(), "w");
    if (fp == nullptr)
        fatal("cannot write %s", a.out.c_str());
    for (uint64_t id = 0; id < a.keys; ++id) {
        std::string line = toHex(zipfKey(id));
        for (uint32_t j = 0; j < a.corr_follow; ++j) {
            line += ' ';
            line += toHex(zipfKey(corrFollowerOf(id, j)));
        }
        line += '\n';
        std::fwrite(line.data(), 1, line.size(), fp);
    }
    return std::fclose(fp) == 0 ? 0 : 1;
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i];
        const char *v = argv[i + 1];
        if (k == "--mode") a.mode = v;
        else if (k == "--port") a.port = std::atoi(v);
        else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--keys") a.keys = std::strtoull(v, nullptr, 10);
        else if (k == "--read-pct") a.read_pct = std::atoi(v);
        else if (k == "--corr-follow")
            a.corr_follow = static_cast<uint32_t>(std::atoi(v));
        else if (k == "--state") a.state_path = v;
        else if (k == "--ops") a.ops_path = v;
        else if (k == "--closed-seconds") a.closed_seconds = std::atof(v);
        else if (k == "--open-seconds") a.open_seconds = std::atof(v);
        else if (k == "--rate") a.rate = std::atof(v);
        else if (k == "--server-pid") a.server_pid = std::atoi(v);
        else if (k == "--mark-signal") a.mark_signal = std::atoi(v) != 0;
        else if (k == "--out") a.out = v;
        else {
            std::fprintf(stderr, "unknown flag %s\n", k.c_str());
            return false;
        }
    }
    return true;
}

/**
 * Read back a seeded sample of keys and compare with the expected
 * state; returns the number of mismatches.
 */
uint64_t
verify(const Args &a, const std::vector<Op> &state,
       const Stream &stream, const Delta &delta, uint64_t &checked)
{
    auto client = server::Client::open("127.0.0.1",
                                       static_cast<uint16_t>(a.port));
    if (!client.ok())
        return kVerifySample;
    Rng rng(a.seed ^ 0x7e51f1);
    uint64_t bad = 0;
    Bytes got;
    checked = 0;
    if (a.keys > 0) {
        for (uint64_t i = 0; i < kVerifySample; ++i) {
            uint64_t id = rng.nextBounded(a.keys);
            Status s = client.value()->get(zipfKey(id), got);
            ++checked;
            if (!s.isOk() ||
                got != bench::synthesizeValue(id, kValueBytes))
                ++bad;
        }
        return bad;
    }
    // Half the sample from the keys the stream wrote (except those
    // written through several connections), half from the preload.
    std::vector<const Bytes *> written;
    for (const auto &[key, conn] : stream.writer_conn)
        if (conn >= 0)
            written.push_back(&key);
    std::unordered_map<Bytes, const Bytes *> pre;
    for (const Op &op : state)
        pre[op.key] = &op.value;
    for (uint64_t i = 0; i < kVerifySample && !state.empty(); ++i) {
        const Bytes &key =
            i % 2 == 0 && !written.empty()
                ? *written[rng.nextBounded(written.size())]
                : state[rng.nextBounded(state.size())].key;
        auto w = stream.writer_conn.find(key);
        if (w != stream.writer_conn.end() && w->second < 0)
            continue;
        std::optional<Bytes> want;
        auto d = delta.find(key);
        if (d != delta.end()) {
            want = d->second;
        } else if (auto p = pre.find(key); p != pre.end()) {
            want = *p->second;
        }
        Status s = client.value()->get(key, got);
        ++checked;
        if (want.has_value() ? (!s.isOk() || got != *want)
                             : !s.isNotFound())
            ++bad;
    }
    return bad;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a))
        return 2;
    if (a.mode == "corrtable")
        return writeCorrTable(a);

    std::vector<Op> state;
    Stream stream;
    if (a.keys == 0) {
        if (!loadOps(a.state_path, state))
            fatal("cannot read %s", a.state_path.c_str());
        if (a.mode == "run") {
            if (!loadOps(a.ops_path, stream.ops) || stream.ops.empty())
                fatal("cannot read %s", a.ops_path.c_str());
            stream.encoded.resize(stream.ops.size());
            for (size_t i = 0; i < stream.ops.size(); ++i) {
                const Op &op = stream.ops[i];
                constexpr int writers = kConns / 2;
                int c = op.isWrite()
                            ? connOfKey(routingKey(op), writers)
                            : writers + connOfKey(routingKey(op),
                                                  kConns - writers);
                Item &item = stream.encoded[i];
                encodeOp(op, item);
                item.conn = c;
                item.op_index = static_cast<int64_t>(i);
                auto note = [&](const Bytes &key) {
                    auto [it, fresh] =
                        stream.writer_conn.emplace(key, c);
                    if (!fresh && it->second != c)
                        it->second = -1;
                };
                if (op.kind == OpKind::Batch) {
                    for (const auto &e : op.batch.entries())
                        note(e.key);
                } else if (op.kind == OpKind::Put ||
                           op.kind == OpKind::Del) {
                    note(op.key);
                }
            }
        }
    }

    std::vector<std::unique_ptr<Worker>> workers;
    Rng seeder(a.seed);
    for (int t = 0; t < kThreads; ++t) {
        std::unique_ptr<Source> src;
        if (a.mode == "preload")
            src = std::make_unique<PreloadSource>(
                a, t, a.keys == 0 ? &state : nullptr);
        else if (a.keys > 0)
            src = std::make_unique<ZipfSource>(a, t, seeder.next());
        else
            src = std::make_unique<StreamSource>(
                stream, t, seeder.nextBounded(stream.ops.size()));
        workers.push_back(std::make_unique<Worker>(
            a, t, std::move(src), a.keys == 0 ? &stream : nullptr));
        if (!workers.back()->connect())
            fatal("connect to port %d failed", a.port);
    }

    auto run_all = [&](uint64_t t0, auto &&body) {
        std::vector<std::thread> threads;
        std::atomic<bool> ok{true};
        std::vector<PhaseStats> stats(workers.size());
        for (size_t t = 0; t < workers.size(); ++t) {
            stats[t].t0 = t0;
            threads.emplace_back([&, t] {
                if (!body(*workers[t], stats[t]))
                    ok = false;
            });
        }
        for (auto &th : threads)
            th.join();
        PhaseStats total;
        for (auto &s : stats)
            merge(total, s);
        return std::make_pair(ok.load(), total);
    };

    if (a.mode == "preload") {
        uint64_t t0 = nowNs();
        auto [ok, total] = run_all(t0, [](Worker &w, PhaseStats &st) {
            return w.runClosed(0, st);
        });
        std::printf("{\"ok\": %s, \"batches\": %" PRIu64
                    ", \"failed\": %" PRIu64 ", \"seconds\": %.6f}\n",
                    ok && total.failed == 0 ? "true" : "false",
                    total.acked, total.failed,
                    static_cast<double>(nowNs() - t0) / 1e9);
        return ok && total.failed == 0 ? 0 : 1;
    }

    auto seconds = [](double s) { return static_cast<uint64_t>(s * 1e9); };

    // Open-loop rate per thread. A captured stream is split between
    // the threads unevenly, so each thread sends at a rate in
    // proportion to its share, and the measured open loop lasts a
    // whole number of passes over the stream: every run then sends
    // each request of the stream equally often, wherever it starts.
    std::vector<double> thread_rate(kThreads, a.rate / kThreads);
    double open_seconds = a.open_seconds;
    if (!stream.ops.empty()) {
        std::vector<size_t> share(kThreads, 0);
        for (const Item &item : stream.encoded)
            ++share[static_cast<size_t>(item.conn % kThreads)];
        double n = static_cast<double>(stream.ops.size());
        for (int t = 0; t < kThreads; ++t)
            thread_rate[static_cast<size_t>(t)] =
                a.rate * static_cast<double>(share[static_cast<size_t>(t)]) /
                n;
        open_seconds =
            std::max(1.0, std::floor(a.open_seconds * a.rate / n)) * n /
            a.rate;
    }
    auto open_loop = [&](uint64_t start, double secs) {
        return run_all(start, [&, start, secs](Worker &w, PhaseStats &st) {
            return w.runOpen(start, start + seconds(secs),
                             thread_rate[static_cast<size_t>(w.thread())],
                             st);
        });
    };

    // Warm-up: fills the caches and lets lazy set-up finish; not
    // reported (its failures still count). A read of the hottest ids,
    // then an open loop at the measured rate, so the requests it
    // sends, and the state it leaves, are the same on every run of a
    // seed.
    PhaseStats warm_reads;
    bool warm_reads_ok = true;
    if (a.keys > 0) {
        std::vector<std::unique_ptr<Source>> own;
        for (auto &w : workers)
            own.push_back(w->swapSource(std::make_unique<WarmReadSource>(
                w->thread(), std::min(a.keys, kWarmReadKeys))));
        std::tie(warm_reads_ok, warm_reads) =
            run_all(nowNs(), [](Worker &w, PhaseStats &st) {
                return w.runClosed(0, st);
            });
        for (size_t t = 0; t < workers.size(); ++t)
            workers[t]->swapSource(std::move(own[t]));
    }
    // 20 ms for every thread to reach its first send.
    auto [warm_ok, warm] = open_loop(nowNs() + 20000000, kWarmupSeconds);

    // Open loop at the fixed offered rate.
    ProcSample p0 = readProc(a.server_pid);
    if (a.mark_signal)
        ::kill(a.server_pid, SIGUSR1);
    uint64_t o0 = nowNs() + 20000000;
    auto [open_ok, open] = open_loop(o0, open_seconds);
    uint64_t o1 = nowNs();
    if (a.mark_signal)
        ::kill(a.server_pid, SIGUSR2);
    // Write amplification is taken over the open loop, whose writes
    // are the same on every run of a seed, with every flush and
    // compaction they cause: a snapshot that cuts a compaction in two,
    // or counts a closed loop's varying volume, moves with the host.
    // The closed loop then starts from an idle server.
    waitIdle(a.server_pid);
    ProcSample p1 = readProc(a.server_pid);
    double idle_wait_s = static_cast<double>(nowNs() - o1) / 1e9;

    // Closed loop, after the open loop: the flushes and compactions
    // its writes leave behind would otherwise land in the open-loop
    // latencies.
    // The server's CPU time at every window boundary of the closed
    // loop, for its CPU time per request window by window.
    uint64_t c0 = nowNs();
    const double tick_ns = 1e9 / static_cast<double>(sysconf(_SC_CLK_TCK));
    std::vector<double> closed_cpu_ns;
    std::thread cpu_sampler([&] {
        for (uint64_t t = c0; t <= c0 + seconds(a.closed_seconds);
             t += kWindowNs) {
            uint64_t now = nowNs();
            if (t > now)
                std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
            closed_cpu_ns.push_back(
                static_cast<double>(readProc(a.server_pid).cpu_ticks) *
                tick_ns);
        }
    });
    auto [closed_ok, closed] = run_all(c0, [&](Worker &w, PhaseStats &st) {
        return w.runClosed(c0 + seconds(a.closed_seconds), st);
    });
    cpu_sampler.join();
    ProcSample p2 = readProc(a.server_pid);

    Delta delta;
    for (const auto &w : workers)
        for (const auto &[k, v] : w->delta())
            delta[k] = v;

    uint64_t live_bytes = 0;
    if (a.keys > 0) {
        for (uint64_t id = 0; id < a.keys; ++id)
            live_bytes += zipfKey(id).size() + kValueBytes;
    } else {
        std::unordered_map<Bytes, uint64_t> sizes;
        for (const Op &op : state)
            sizes[op.key] = op.key.size() + op.value.size();
        for (const auto &[k, v] : delta) {
            if (v.has_value())
                sizes[k] = k.size() + v->size();
            else
                sizes.erase(k);
        }
        for (const auto &[k, n] : sizes)
            live_bytes += n;
    }

    uint64_t checked = 0;
    uint64_t mismatches = verify(a, state, stream, delta, checked);

    uint64_t written = p1.write_bytes - p0.write_bytes;
    uint64_t cancelled =
        p1.cancelled_write_bytes - p0.cancelled_write_bytes;
    size_t reads = 0;
    size_t writes = 0;
    double read_p50 = latencyUs(open.read_w, 0.50, reads);
    double read_p99 = latencyUs(open.read_w, 0.99, reads);
    double write_p50 = latencyUs(open.write_w, 0.50, writes);
    double write_p99 = latencyUs(open.write_w, 0.99, writes);
    double read_p90 = latencyUs(open.read_w, 0.90, reads);
    double write_p90 = latencyUs(open.write_w, 0.90, writes);
    // By request rather than by byte, to compare with server spans.
    double write_request_p50 =
        latencyUs(open.write_w, 0.50, writes, false);
    uint64_t attempted = warm_reads.attempted + warm.attempted +
                         closed.attempted + open.attempted;
    uint64_t failed =
        warm_reads.failed + warm.failed + closed.failed + open.failed;
    std::printf(
        "{\"ok\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
        ", \"mismatches\": %" PRIu64 ", \"checked\": %" PRIu64 ",\n"
        " \"throughput_ops_s\": %.3f, \"closed_acked\": %" PRIu64
        ", \"open_acked\": %" PRIu64 ", \"open_rate_achieved\": %.3f,\n"
        " \"read_p50_us\": %.3f, \"read_p99_us\": %.3f,"
        " \"reads\": %zu,\n"
        " \"write_p50_us\": %.3f, \"write_p99_us\": %.3f,"
        " \"writes\": %zu,\n"
        " \"read_p90_us\": %.3f, \"write_p90_us\": %.3f,"
        " \"write_request_p50_us\": %.3f, \"idle_wait_s\": %.3f,\n"
        " \"sched_lag_p99_us\": %.3f, \"loadgen_cpu_util\": %.4f,\n"
        " \"user_write_bytes\": %" PRIu64
        ", \"server_write_bytes\": %" PRIu64
        ", \"server_cpu_ns\": %.0f, \"server_cpu_us_per_op\": %.4f,\n"
        " \"server_syscalls\": %" PRIu64
        ", \"measured_acked\": %" PRIu64 ", \"live_bytes\": %" PRIu64
        "}\n",
        warm_reads_ok && warm_ok && closed_ok && open_ok ? "true"
                                                         : "false",
        attempted,
        failed, mismatches, checked,
        fastRate(closed.acked_w, a.closed_seconds), closed.acked,
        open.acked,
        static_cast<double>(open.acked) /
            (static_cast<double>(o1 - o0) / 1e9),
        read_p50, read_p99, reads, write_p50, write_p99, writes,
        read_p90, write_p90, write_request_p50, idle_wait_s,
        percentileUs(open.lag_ns, 0.99),
        static_cast<double>(open.busy_ns) /
            (static_cast<double>(o1 - o0) * kThreads),
        open.user_bytes, written - std::min(written, cancelled),
        static_cast<double>(p2.cpu_ticks - p0.cpu_ticks) * tick_ns,
        fastCpuUsPerOp(closed.acked_w, closed_cpu_ns),
        (p2.syscr + p2.syscw) - (p0.syscr + p0.syscw),
        closed.acked + open.acked, live_bytes);
    return 0;
}
