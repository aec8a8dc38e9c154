/**
 * @file
 * ethkv wire protocol (ethkv.wire.v1): framing and payload codecs.
 *
 * ethkvd speaks a length-prefixed binary protocol over TCP. Every
 * message — request or response — is one frame:
 *
 *   offset  size  field
 *        0     2  magic "EK"
 *        2     1  version (kWireVersion or kWireVersionTraced)
 *        3     1  type: opcode (request) or status (response)
 *        4     4  request id, big-endian (echoed in the response)
 *        8     4  body length, big-endian
 *       12     8  xxhash64(body), big-endian
 *       20   len  body
 *
 * Version 1 bodies are the bare payload. Version 2 (the minor
 * "traced" revision, ethkv.wire.v1 + trace context) prefixes the
 * payload with a 9-byte trace context:
 *
 *   offset  size  field
 *        0     8  trace id, big-endian (client-generated)
 *        8     1  trace flags (kTraceFlagSampled, ...)
 *        9   ...  payload as in version 1
 *
 * Old peers that only speak version 1 never see version-2 frames
 * unless the client opts into tracing; new decoders accept both,
 * and can be pinned to version 1 (accept_traced=false) to prove
 * the compatibility story both ways.
 *
 * Payloads are varint-encoded (common/varint.hh):
 *
 *   GET    klen key
 *   PUT    klen key vlen value
 *   DELETE klen key
 *   BATCH  count, then per entry: op(1B) klen key [vlen value]
 *   SCAN   slen start elen end limit
 *   STATS  (empty)
 *   TRACEDUMP (empty)
 *   SLOWLOG   (empty)
 *
 *   GET response    value bytes (raw)
 *   SCAN response   count, per entry klen key vlen value,
 *                   truncated(1B)
 *   STATS response  JSON (ethkv.server.stats.v3: engine name,
 *                   IOStats, full ethkv.metrics.v1 snapshot)
 *   TRACEDUMP resp  Chrome trace JSON array of server spans
 *   SLOWLOG resp    JSON (ethkv.slowops.v1)
 *   error response  human-readable message (raw)
 *
 * This module is pure — no sockets, no I/O — so the frame fuzz
 * tests can hammer it directly and the server and client libraries
 * share one codec. Malformed bytes never crash the decoder: the
 * FrameReader either needs more input, yields a frame, or parks in
 * a sticky Error state (the connection must then be torn down,
 * since frame boundaries are lost).
 */

#ifndef ETHKV_SERVER_PROTOCOL_HH
#define ETHKV_SERVER_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hh"
#include "common/status.hh"
#include "kvstore/write_batch.hh"

namespace ethkv::server
{

/** Protocol version this build speaks. */
constexpr uint8_t kWireVersion = 1;

/** Minor revision: version-1 frame with a trace-context prefix. */
constexpr uint8_t kWireVersionTraced = 2;

/** Frame header length in bytes. */
constexpr size_t kFrameHeaderBytes = 20;

/** Trace-context prefix length in a version-2 frame body. */
constexpr size_t kTraceContextBytes = 9;

/** Trace flag: request chosen by the client-side sampler. */
constexpr uint8_t kTraceFlagSampled = 0x1;

/** Default per-frame payload cap (guards allocation on decode). */
constexpr size_t kDefaultMaxFrameBytes = 16u << 20;

/** Request opcodes (frame type byte of a request). */
enum class Opcode : uint8_t
{
    Get = 1,
    Put = 2,
    Delete = 3,
    Batch = 4,
    Scan = 5,
    Stats = 6,
    TraceDump = 7,
    SlowLog = 8,
    // -- Replication (DESIGN.md §13) -----------------------------
    Subscribe = 9, //!< Follower -> primary: start streaming.
    Promote = 10,  //!< Admin -> follower: become primary.
    ReplAck = 11,  //!< Follower -> primary: applied through offset.
    ReplBatch = 12, //!< Primary -> follower: raw log records.
    //! Primary -> follower: a chunk of the snapshot catch-up.
    ReplSnapshot = 13,
};

/** Lower-case opcode name ("get", ...; "other" when unknown). */
const char *opcodeName(uint8_t opcode);

/**
 * Response status (frame type byte of a response).
 *
 * Codes 0-6 mirror ethkv::StatusCode one-for-one so engine errors
 * — including the degraded read-only mode — cross the wire
 * losslessly. BadFrame is protocol-level: the peer sent bytes that
 * do not parse as a frame.
 */
enum class WireStatus : uint8_t
{
    Ok = 0,
    NotFound = 1,
    Corruption = 2,
    IOError = 3,
    InvalidArgument = 4,
    NotSupported = 5,
    IODegraded = 6,
    NotPrimary = 7, //!< Mutation sent to a follower.
    BadFrame = 100,
};

/** Map an engine Status to its wire code. */
WireStatus wireStatusOf(const Status &s);

/** Map a wire code back to a Status (msg used for non-Ok codes). */
Status statusOfWire(WireStatus code, const std::string &msg);

/** Client-generated tracing identity carried by v2 frames. */
struct TraceContext
{
    uint64_t id = 0;
    uint8_t flags = 0;
};

/** One decoded frame: header fields plus owned payload bytes. */
struct Frame
{
    uint8_t type = 0; //!< Opcode (request) or WireStatus (response).
    uint32_t request_id = 0;
    Bytes payload;
    bool has_trace = false; //!< Frame was version 2.
    TraceContext trace;
};

/** Append a fully framed message (header + payload) to out. */
void appendFrame(Bytes &out, uint8_t type, uint32_t request_id,
                 BytesView payload);

/** Same, as a version-2 frame carrying `trace`. */
void appendFrameTraced(Bytes &out, uint8_t type,
                       uint32_t request_id, BytesView payload,
                       const TraceContext &trace);

/**
 * Incremental frame decoder.
 *
 * Feed arbitrary byte chunks with feed(); pull complete frames
 * with next(). Once a header or checksum is invalid the reader is
 * permanently in error (frame boundaries are unrecoverable on a
 * byte stream) and the owner must close the connection.
 */
class FrameReader
{
  public:
    /**
     * @param accept_traced Decode version-2 (traced) frames. When
     *        false the reader is a strict v1 peer: a traced frame
     *        is a clean, sticky Corruption, not a crash.
     */
    explicit FrameReader(size_t max_payload = kDefaultMaxFrameBytes,
                         bool accept_traced = true)
        : max_payload_(max_payload), accept_traced_(accept_traced)
    {}

    /** Append raw bytes from the peer. */
    void feed(BytesView data);

    /**
     * Decode the next complete frame into out.
     *
     * @return Ok with a frame; NotFound when more bytes are needed;
     *         Corruption (sticky) on a malformed header, oversized
     *         length, or checksum mismatch.
     */
    Status next(Frame &out);

    /** True once the stream is unrecoverable. */
    bool broken() const { return broken_; }

    /** Bytes buffered but not yet consumed. */
    size_t buffered() const { return buf_.size() - pos_; }

  private:
    size_t max_payload_;
    bool accept_traced_;
    Bytes buf_;
    size_t pos_ = 0;
    bool broken_ = false;
};

// -- Payload codecs ----------------------------------------------
//
// Encoders append to an existing buffer. Decoders return
// InvalidArgument on malformed payloads (truncated varints, length
// overruns, trailing garbage); the connection survives — payload
// corruption inside an intact frame does not lose framing.

void encodeGet(Bytes &out, BytesView key);
void encodePut(Bytes &out, BytesView key, BytesView value);
void encodeDelete(Bytes &out, BytesView key);
void encodeBatch(Bytes &out, const kv::WriteBatch &batch);
void encodeScan(Bytes &out, BytesView start, BytesView end,
                uint64_t limit);

Status decodeGet(BytesView payload, Bytes &key);
Status decodePut(BytesView payload, Bytes &key, Bytes &value);
Status decodeDelete(BytesView payload, Bytes &key);
Status decodeBatch(BytesView payload, kv::WriteBatch &batch);
Status decodeScan(BytesView payload, Bytes &start, Bytes &end,
                  uint64_t &limit);

/** One scan hit in a SCAN response. */
struct ScanEntry
{
    Bytes key;
    Bytes value;
};

void encodeScanResponse(Bytes &out,
                        const std::vector<ScanEntry> &entries,
                        bool truncated);
Status decodeScanResponse(BytesView payload,
                          std::vector<ScanEntry> &entries,
                          bool &truncated);

// -- Replication payloads (DESIGN.md §13) ------------------------
//
// SUBSCRIBE    resume_offset — the follower's validated log end;
//              the primary streams from there.
// SUBSCRIBE ok resume_offset (echoed, possibly rounded down to a
//              record boundary) + primary end offset.
// REPLBATCH    start_offset + the primary's current log end and
//              last sequence (for follower lag gauges) + raw
//              replication-log record bytes (identical to the
//              primary's on-disk encoding, so offsets stay
//              globally valid across failover).
// REPLACK      applied_offset + applied_seq, follower -> primary.
// SUBSCRIBE ok with resume_offset above the requested one: the
//              requested offset is below the primary's log start,
//              so a snapshot stream follows (DESIGN.md §13).
// REPLSNAPSHOT base_offset + base_seq (the log position the
//              snapshot is redone from) + done(1B) + put records
//              in the replication-log record format. done=1 ends
//              the snapshot (no records); REPLBATCH frames from
//              base_offset follow.
// PROMOTE      (empty request); ok response carries the promoted
//              node's log end offset.

void encodeSubscribe(Bytes &out, uint64_t resume_offset);
Status decodeSubscribe(BytesView payload, uint64_t &resume_offset);

void encodeSubscribeResponse(Bytes &out, uint64_t resume_offset,
                             uint64_t end_offset);
Status decodeSubscribeResponse(BytesView payload,
                               uint64_t &resume_offset,
                               uint64_t &end_offset);

void encodeReplBatch(Bytes &out, uint64_t start_offset,
                     uint64_t log_end, uint64_t last_seq,
                     BytesView records);
Status decodeReplBatch(BytesView payload, uint64_t &start_offset,
                       uint64_t &log_end, uint64_t &last_seq,
                       BytesView &records);

void encodeReplAck(Bytes &out, uint64_t applied_offset,
                   uint64_t applied_seq);
Status decodeReplAck(BytesView payload, uint64_t &applied_offset,
                     uint64_t &applied_seq);

void encodeReplSnapshot(Bytes &out, uint64_t base_offset,
                        uint64_t base_seq, bool done,
                        BytesView records);
Status decodeReplSnapshot(BytesView payload, uint64_t &base_offset,
                          uint64_t &base_seq, bool &done,
                          BytesView &records);

void encodePromoteResponse(Bytes &out, uint64_t end_offset);
Status decodePromoteResponse(BytesView payload,
                             uint64_t &end_offset);

} // namespace ethkv::server

#endif // ETHKV_SERVER_PROTOCOL_HH
