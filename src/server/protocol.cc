#include "server/protocol.hh"

#include "common/varint.hh"
#include "common/xxhash.hh"

namespace ethkv::server
{

namespace
{

void
appendU32(Bytes &out, uint32_t v)
{
    out.push_back(static_cast<char>(v >> 24));
    out.push_back(static_cast<char>(v >> 16));
    out.push_back(static_cast<char>(v >> 8));
    out.push_back(static_cast<char>(v));
}

void
appendU64(Bytes &out, uint64_t v)
{
    appendU32(out, static_cast<uint32_t>(v >> 32));
    appendU32(out, static_cast<uint32_t>(v));
}

uint32_t
readU32(BytesView data, size_t pos)
{
    auto b = [&](size_t i) {
        return static_cast<uint32_t>(
            static_cast<uint8_t>(data[pos + i]));
    };
    return (b(0) << 24) | (b(1) << 16) | (b(2) << 8) | b(3);
}

uint64_t
readU64(BytesView data, size_t pos)
{
    return (static_cast<uint64_t>(readU32(data, pos)) << 32) |
           readU32(data, pos + 4);
}

/** Read a varint-prefixed byte string; false on overrun. */
bool
readBlob(BytesView payload, size_t &pos, Bytes &out)
{
    uint64_t len = 0;
    if (!readVarint(payload, pos, len))
        return false;
    if (len > payload.size() - pos)
        return false;
    out.assign(payload.substr(pos, len));
    pos += len;
    return true;
}

void
appendBlob(Bytes &out, BytesView data)
{
    appendVarint(out, data.size());
    out.append(data);
}

Status
malformed(const char *what)
{
    return Status::invalidArgument(
        std::string("malformed payload: ") + what);
}

} // namespace

const char *
opcodeName(uint8_t opcode)
{
    switch (static_cast<Opcode>(opcode)) {
      case Opcode::Get: return "get";
      case Opcode::Put: return "put";
      case Opcode::Delete: return "delete";
      case Opcode::Batch: return "batch";
      case Opcode::Scan: return "scan";
      case Opcode::Stats: return "stats";
      case Opcode::TraceDump: return "tracedump";
      case Opcode::SlowLog: return "slowlog";
      case Opcode::Subscribe: return "subscribe";
      case Opcode::Promote: return "promote";
      case Opcode::ReplAck: return "replack";
      case Opcode::ReplBatch: return "replbatch";
      case Opcode::ReplSnapshot: return "replsnapshot";
    }
    return "other";
}

WireStatus
wireStatusOf(const Status &s)
{
    switch (s.code()) {
      case StatusCode::Ok: return WireStatus::Ok;
      case StatusCode::NotFound: return WireStatus::NotFound;
      case StatusCode::Corruption: return WireStatus::Corruption;
      case StatusCode::IOError: return WireStatus::IOError;
      case StatusCode::InvalidArgument:
        return WireStatus::InvalidArgument;
      case StatusCode::NotSupported:
        return WireStatus::NotSupported;
      case StatusCode::IODegraded: return WireStatus::IODegraded;
    }
    return WireStatus::IOError;
}

Status
statusOfWire(WireStatus code, const std::string &msg)
{
    switch (code) {
      case WireStatus::Ok: return Status::ok();
      case WireStatus::NotFound: return Status::notFound(msg);
      case WireStatus::Corruption: return Status::corruption(msg);
      case WireStatus::IOError: return Status::ioError(msg);
      case WireStatus::InvalidArgument:
        return Status::invalidArgument(msg);
      case WireStatus::NotSupported:
        return Status::notSupported(msg);
      case WireStatus::IODegraded: return Status::ioDegraded(msg);
      case WireStatus::NotPrimary:
        // No StatusCode of its own: a follower rejecting a
        // mutation is a usage error, not an engine fault.
        return Status::notSupported("not primary: " + msg);
      case WireStatus::BadFrame:
        return Status::corruption("peer rejected frame: " + msg);
    }
    return Status::ioError("unknown wire status: " + msg);
}

void
appendFrame(Bytes &out, uint8_t type, uint32_t request_id,
            BytesView payload)
{
    out.reserve(out.size() + kFrameHeaderBytes + payload.size());
    out.push_back('E');
    out.push_back('K');
    out.push_back(static_cast<char>(kWireVersion));
    out.push_back(static_cast<char>(type));
    appendU32(out, request_id);
    appendU32(out, static_cast<uint32_t>(payload.size()));
    appendU64(out, xxhash64(payload));
    out.append(payload);
}

void
appendFrameTraced(Bytes &out, uint8_t type, uint32_t request_id,
                  BytesView payload, const TraceContext &trace)
{
    // The checksum covers the whole body (trace context +
    // payload), so bit flips in the trace id are caught like any
    // other body corruption.
    Bytes body;
    body.reserve(kTraceContextBytes + payload.size());
    appendU64(body, trace.id);
    body.push_back(static_cast<char>(trace.flags));
    body.append(payload);

    out.reserve(out.size() + kFrameHeaderBytes + body.size());
    out.push_back('E');
    out.push_back('K');
    out.push_back(static_cast<char>(kWireVersionTraced));
    out.push_back(static_cast<char>(type));
    appendU32(out, request_id);
    appendU32(out, static_cast<uint32_t>(body.size()));
    appendU64(out, xxhash64(body));
    out.append(body);
}

void
FrameReader::feed(BytesView data)
{
    if (broken_)
        return; // bytes after a framing error are undecodable
    // Compact lazily so long sessions don't grow the buffer.
    if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > (64u << 10))) {
        buf_.erase(0, pos_);
        pos_ = 0;
    }
    buf_.append(data);
}

Status
FrameReader::next(Frame &out)
{
    if (broken_)
        return Status::corruption("frame stream is broken");
    if (buf_.size() - pos_ < kFrameHeaderBytes)
        return Status::notFound(); // need more bytes
    BytesView head = BytesView(buf_).substr(pos_);
    if (head[0] != 'E' || head[1] != 'K') {
        broken_ = true;
        return Status::corruption("bad frame magic");
    }
    uint8_t version = static_cast<uint8_t>(head[2]);
    if (version != kWireVersion &&
        version != kWireVersionTraced) {
        broken_ = true;
        return Status::corruption(
            "unsupported protocol version " +
            std::to_string(version));
    }
    bool traced = version == kWireVersionTraced;
    if (traced && !accept_traced_) {
        broken_ = true;
        return Status::corruption(
            "traced frame rejected: peer pinned to wire v1");
    }
    uint32_t len = readU32(head, 8);
    if (len > max_payload_) {
        broken_ = true;
        return Status::corruption("frame payload of " +
                                  std::to_string(len) +
                                  " bytes exceeds limit");
    }
    if (traced && len < kTraceContextBytes) {
        broken_ = true;
        return Status::corruption(
            "traced frame body too short for trace context");
    }
    if (buf_.size() - pos_ < kFrameHeaderBytes + len)
        return Status::notFound(); // payload still in flight
    BytesView body = head.substr(kFrameHeaderBytes, len);
    if (xxhash64(body) != readU64(head, 12)) {
        broken_ = true;
        return Status::corruption("frame checksum mismatch");
    }
    out.type = static_cast<uint8_t>(head[3]);
    out.request_id = readU32(head, 4);
    if (traced) {
        out.has_trace = true;
        out.trace.id = readU64(body, 0);
        out.trace.flags = static_cast<uint8_t>(body[8]);
        out.payload.assign(body.substr(kTraceContextBytes));
    } else {
        out.has_trace = false;
        out.trace = TraceContext{};
        out.payload.assign(body);
    }
    pos_ += kFrameHeaderBytes + len;
    return Status::ok();
}

// -- Payload codecs ----------------------------------------------

void
encodeGet(Bytes &out, BytesView key)
{
    appendBlob(out, key);
}

void
encodePut(Bytes &out, BytesView key, BytesView value)
{
    appendBlob(out, key);
    appendBlob(out, value);
}

void
encodeDelete(Bytes &out, BytesView key)
{
    appendBlob(out, key);
}

void
encodeBatch(Bytes &out, const kv::WriteBatch &batch)
{
    appendVarint(out, batch.size());
    for (const kv::BatchEntry &e : batch.entries()) {
        out.push_back(static_cast<char>(e.op));
        appendBlob(out, e.key);
        if (e.op == kv::BatchOp::Put)
            appendBlob(out, e.value);
    }
}

void
encodeScan(Bytes &out, BytesView start, BytesView end,
           uint64_t limit)
{
    appendBlob(out, start);
    appendBlob(out, end);
    appendVarint(out, limit);
}

Status
decodeGet(BytesView payload, Bytes &key)
{
    size_t pos = 0;
    if (!readBlob(payload, pos, key))
        return malformed("GET key");
    if (pos != payload.size())
        return malformed("GET trailing bytes");
    return Status::ok();
}

Status
decodePut(BytesView payload, Bytes &key, Bytes &value)
{
    size_t pos = 0;
    if (!readBlob(payload, pos, key))
        return malformed("PUT key");
    if (!readBlob(payload, pos, value))
        return malformed("PUT value");
    if (pos != payload.size())
        return malformed("PUT trailing bytes");
    return Status::ok();
}

Status
decodeDelete(BytesView payload, Bytes &key)
{
    size_t pos = 0;
    if (!readBlob(payload, pos, key))
        return malformed("DELETE key");
    if (pos != payload.size())
        return malformed("DELETE trailing bytes");
    return Status::ok();
}

Status
decodeBatch(BytesView payload, kv::WriteBatch &batch)
{
    size_t pos = 0;
    uint64_t count = 0;
    if (!readVarint(payload, pos, count))
        return malformed("BATCH count");
    // Each entry is at least 2 bytes (op + empty-key varint); an
    // absurd count is rejected before any allocation.
    if (count > payload.size())
        return malformed("BATCH count exceeds payload");
    for (uint64_t i = 0; i < count; ++i) {
        if (pos >= payload.size())
            return malformed("BATCH truncated entry");
        auto op = static_cast<uint8_t>(payload[pos++]);
        if (op != static_cast<uint8_t>(kv::BatchOp::Put) &&
            op != static_cast<uint8_t>(kv::BatchOp::Delete)) {
            return malformed("BATCH bad op byte");
        }
        Bytes key;
        if (!readBlob(payload, pos, key))
            return malformed("BATCH key");
        if (op == static_cast<uint8_t>(kv::BatchOp::Put)) {
            Bytes value;
            if (!readBlob(payload, pos, value))
                return malformed("BATCH value");
            batch.put(key, value);
        } else {
            batch.del(key);
        }
    }
    if (pos != payload.size())
        return malformed("BATCH trailing bytes");
    return Status::ok();
}

Status
decodeScan(BytesView payload, Bytes &start, Bytes &end,
           uint64_t &limit)
{
    size_t pos = 0;
    if (!readBlob(payload, pos, start))
        return malformed("SCAN start");
    if (!readBlob(payload, pos, end))
        return malformed("SCAN end");
    if (!readVarint(payload, pos, limit))
        return malformed("SCAN limit");
    if (pos != payload.size())
        return malformed("SCAN trailing bytes");
    return Status::ok();
}

void
encodeScanResponse(Bytes &out, const std::vector<ScanEntry> &entries,
                   bool truncated)
{
    appendVarint(out, entries.size());
    for (const ScanEntry &e : entries) {
        appendBlob(out, e.key);
        appendBlob(out, e.value);
    }
    out.push_back(truncated ? 1 : 0);
}

// -- Replication payloads ----------------------------------------

void
encodeSubscribe(Bytes &out, uint64_t resume_offset)
{
    appendVarint(out, resume_offset);
}

Status
decodeSubscribe(BytesView payload, uint64_t &resume_offset)
{
    size_t pos = 0;
    if (!readVarint(payload, pos, resume_offset))
        return malformed("SUBSCRIBE offset");
    if (pos != payload.size())
        return malformed("SUBSCRIBE trailing bytes");
    return Status::ok();
}

void
encodeSubscribeResponse(Bytes &out, uint64_t resume_offset,
                        uint64_t end_offset)
{
    appendVarint(out, resume_offset);
    appendVarint(out, end_offset);
}

Status
decodeSubscribeResponse(BytesView payload, uint64_t &resume_offset,
                        uint64_t &end_offset)
{
    size_t pos = 0;
    if (!readVarint(payload, pos, resume_offset))
        return malformed("SUBSCRIBE response offset");
    if (!readVarint(payload, pos, end_offset))
        return malformed("SUBSCRIBE response end");
    if (pos != payload.size())
        return malformed("SUBSCRIBE response trailing bytes");
    return Status::ok();
}

void
encodeReplBatch(Bytes &out, uint64_t start_offset, uint64_t log_end,
                uint64_t last_seq, BytesView records)
{
    appendVarint(out, start_offset);
    appendVarint(out, log_end);
    appendVarint(out, last_seq);
    out.append(records);
}

Status
decodeReplBatch(BytesView payload, uint64_t &start_offset,
                uint64_t &log_end, uint64_t &last_seq,
                BytesView &records)
{
    size_t pos = 0;
    if (!readVarint(payload, pos, start_offset))
        return malformed("REPLBATCH offset");
    if (!readVarint(payload, pos, log_end))
        return malformed("REPLBATCH log end");
    if (!readVarint(payload, pos, last_seq))
        return malformed("REPLBATCH last seq");
    records = payload.substr(pos);
    return Status::ok();
}

void
encodeReplSnapshot(Bytes &out, uint64_t base_offset,
                   uint64_t base_seq, bool done, BytesView records)
{
    appendVarint(out, base_offset);
    appendVarint(out, base_seq);
    out.push_back(done ? 1 : 0);
    out.append(records);
}

Status
decodeReplSnapshot(BytesView payload, uint64_t &base_offset,
                   uint64_t &base_seq, bool &done,
                   BytesView &records)
{
    size_t pos = 0;
    if (!readVarint(payload, pos, base_offset))
        return malformed("REPLSNAPSHOT offset");
    if (!readVarint(payload, pos, base_seq))
        return malformed("REPLSNAPSHOT seq");
    if (pos >= payload.size() ||
        static_cast<uint8_t>(payload[pos]) > 1)
        return malformed("REPLSNAPSHOT done flag");
    done = payload[pos++] == 1;
    records = payload.substr(pos);
    if (done && !records.empty())
        return malformed("REPLSNAPSHOT end carries records");
    return Status::ok();
}

void
encodeReplAck(Bytes &out, uint64_t applied_offset,
              uint64_t applied_seq)
{
    appendVarint(out, applied_offset);
    appendVarint(out, applied_seq);
}

Status
decodeReplAck(BytesView payload, uint64_t &applied_offset,
              uint64_t &applied_seq)
{
    size_t pos = 0;
    if (!readVarint(payload, pos, applied_offset))
        return malformed("REPLACK offset");
    if (!readVarint(payload, pos, applied_seq))
        return malformed("REPLACK seq");
    if (pos != payload.size())
        return malformed("REPLACK trailing bytes");
    return Status::ok();
}

void
encodePromoteResponse(Bytes &out, uint64_t end_offset)
{
    appendVarint(out, end_offset);
}

Status
decodePromoteResponse(BytesView payload, uint64_t &end_offset)
{
    size_t pos = 0;
    if (!readVarint(payload, pos, end_offset))
        return malformed("PROMOTE response offset");
    if (pos != payload.size())
        return malformed("PROMOTE response trailing bytes");
    return Status::ok();
}

Status
decodeScanResponse(BytesView payload, std::vector<ScanEntry> &entries,
                   bool &truncated)
{
    size_t pos = 0;
    uint64_t count = 0;
    if (!readVarint(payload, pos, count))
        return malformed("SCAN response count");
    if (count > payload.size())
        return malformed("SCAN response count exceeds payload");
    entries.clear();
    entries.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
        ScanEntry e;
        if (!readBlob(payload, pos, e.key))
            return malformed("SCAN response key");
        if (!readBlob(payload, pos, e.value))
            return malformed("SCAN response value");
        entries.push_back(std::move(e));
    }
    if (pos + 1 != payload.size())
        return malformed("SCAN response trailer");
    truncated = payload[pos] != 0;
    return Status::ok();
}

} // namespace ethkv::server
