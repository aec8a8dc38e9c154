/**
 * @file
 * Client library for ethkvd (protocol ethkv.wire.v1).
 *
 * Two clients share one codec (server/protocol.hh):
 *
 *  - Client: blocking request/response. One outstanding request at
 *    a time; the natural fit for tests and interactive tools. Its
 *    API mirrors kv::KVStore (get/put/del/apply/scan) plus stats().
 *
 *  - PipelinedClient: asynchronous with a bounded in-flight window.
 *    submit*() encodes a request and flushes it; once the window is
 *    full, the oldest response is reaped first. ethkvd processes
 *    frames of one connection in order, so responses come back FIFO
 *    and the client needs no request-id matching table (ids are
 *    still echoed and verified). This is what the load generator
 *    uses to keep the server busy without a thread per request.
 *
 * Neither client is thread-safe; use one instance per thread.
 *
 * Both clients bound their syscalls (ClientOptions): connects and
 * per-call reads/writes time out instead of hanging on a dead or
 * wedged server, and writes are SIGPIPE-safe (a closed peer is an
 * IOError, never a fatal signal).
 */

#ifndef ETHKV_SERVER_CLIENT_HH
#define ETHKV_SERVER_CLIENT_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hh"
#include "common/status.hh"
#include "kvstore/write_batch.hh"
#include "obs/trace_event.hh"
#include "server/protocol.hh"

namespace ethkv::server
{

/** Result of one SCAN request. */
struct ScanResult
{
    std::vector<ScanEntry> entries;
    bool truncated = false; //!< Server hit its per-request cap.
};

/**
 * Connection bounds shared by both clients.
 *
 * The defaults make every client call terminate: a SYN that is
 * never answered fails after connect_timeout_ms instead of the
 * kernel's multi-minute retry schedule, and a server that accepts
 * but never responds (or stops reading) fails a round trip after
 * io_timeout_ms. Set a field to 0 to wait forever (the pre-timeout
 * behaviour), e.g. for a debugger-attached server.
 */
struct ClientOptions
{
    int connect_timeout_ms = 5000;
    //! Per-syscall read/write budget within a round trip; a round
    //! trip making steady progress is never cut off.
    int io_timeout_ms = 10000;
};

/** Blocking request/response client. */
class Client
{
  public:
    /** Establish a TCP session with an ethkvd at host:port. */
    static Result<std::unique_ptr<Client>> open(
        const std::string &host, uint16_t port,
        const ClientOptions &opts = ClientOptions());

    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    Status get(BytesView key, Bytes &value_out);
    Status put(BytesView key, BytesView value);
    Status del(BytesView key);
    Status apply(const kv::WriteBatch &batch);
    Status scan(BytesView start, BytesView end, uint64_t limit,
                ScanResult &out);

    /** Fetch the server's stats JSON (ethkv.server.stats.v3). */
    Status stats(Bytes &json_out);

    /** Fetch the server's Chrome trace JSON (TRACEDUMP). */
    Status traceDump(Bytes &json_out);

    /** Fetch the server's slow-op log JSON (SLOWLOG). */
    Status slowLog(Bytes &json_out);

    /**
     * Promote a follower to primary (PROMOTE). On success
     * end_offset is the node's replication-log end — the point up
     * to which it is guaranteed to serve every replicated write.
     * NotSupported on a node without replication; IODegraded on a
     * follower that latched read-only after a replay failure.
     */
    Status promote(uint64_t &end_offset);

    /**
     * Send every subsequent request as a traced (wire v2) frame
     * and record a client-side span per round trip. Trace ids are
     * trace_id_base + a per-request sequence; pick disjoint bases
     * per connection so merged timelines stay unambiguous. Spans
     * land on pid 2 (servers emit on pid 1), track `tid`. Pass a
     * null log to turn tracing back off.
     */
    void enableTrace(obs::TraceEventLog *log,
                     uint64_t trace_id_base, uint32_t tid = 1);

    /** Close the session; further calls return IOError. */
    void close();

  private:
    Client(int fd, int io_timeout_ms)
        : fd_(fd), io_timeout_ms_(io_timeout_ms)
    {}

    /** Send one request, wait for its response frame. */
    Status roundTrip(Opcode op, BytesView payload, Frame &reply);

    int fd_;
    int io_timeout_ms_ = 0;
    uint32_t next_id_ = 1;
    Bytes scratch_;
    obs::TraceEventLog *trace_log_ = nullptr;
    uint64_t trace_id_next_ = 0;
    uint32_t trace_tid_ = 1;
};

/**
 * Pipelined client: up to `window` requests in flight.
 *
 * Completions are delivered to a callback in submission order:
 *   cb(op, wire_status, latency_ns, response_payload)
 * Write errors (broken connection) surface on the next submit or
 * drain as IOError; after that the client is dead.
 */
class PipelinedClient
{
  public:
    using Completion = std::function<void(
        Opcode op, WireStatus status, uint64_t latency_ns,
        const Bytes &payload)>;

    static Result<std::unique_ptr<PipelinedClient>> open(
        const std::string &host, uint16_t port, size_t window,
        Completion on_complete,
        const ClientOptions &opts = ClientOptions());

    ~PipelinedClient();

    PipelinedClient(const PipelinedClient &) = delete;
    PipelinedClient &operator=(const PipelinedClient &) = delete;

    Status submitGet(BytesView key);
    Status submitPut(BytesView key, BytesView value);
    Status submitDelete(BytesView key);
    Status submitBatch(const kv::WriteBatch &batch);
    Status submitScan(BytesView start, BytesView end,
                      uint64_t limit);

    /** Same contract as Client::enableTrace; spans cover submit →
     *  completion for every request in the window. */
    void enableTrace(obs::TraceEventLog *log,
                     uint64_t trace_id_base, uint32_t tid = 1);

    /** Wait for every in-flight request to complete. */
    Status drain();

    size_t inFlight() const { return pending_.size(); }

    void close();

  private:
    PipelinedClient(int fd, int io_timeout_ms, size_t window,
                    Completion on_complete)
        : fd_(fd), io_timeout_ms_(io_timeout_ms), window_(window),
          on_complete_(std::move(on_complete))
    {}

    /** Encode+send one request; reap one response if window full. */
    Status submit(Opcode op, BytesView payload);

    /** Block for the oldest outstanding response. */
    Status reapOne();

    struct Pending
    {
        uint32_t id;
        Opcode op;
        uint64_t t_start_ns;
        uint64_t trace_id;
        bool traced;
    };

    int fd_;
    int io_timeout_ms_ = 0;
    size_t window_;
    Completion on_complete_;
    uint32_t next_id_ = 1;
    std::deque<Pending> pending_;
    FrameReader reader_;
    Bytes scratch_;
    obs::TraceEventLog *trace_log_ = nullptr;
    uint64_t trace_id_next_ = 0;
    uint32_t trace_tid_ = 1;
};

} // namespace ethkv::server

#endif // ETHKV_SERVER_CLIENT_HH
