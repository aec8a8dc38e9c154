/**
 * @file
 * Wire-protocol tests: frame codec round-trips, payload codecs,
 * and — the important part — adversarial inputs. A FrameReader fed
 * truncated headers, oversized lengths, corrupt checksums, or plain
 * garbage must never crash, never allocate unboundedly, and must
 * park in its sticky broken state so the owner tears the
 * connection down.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/rand.hh"
#include "common/varint.hh"
#include "server/protocol.hh"

namespace ethkv::server
{
namespace
{

Bytes
frameOf(uint8_t type, uint32_t id, BytesView payload)
{
    Bytes out;
    appendFrame(out, type, id, payload);
    return out;
}

TEST(FrameCodecTest, RoundTripSingleFrame)
{
    Bytes wire = frameOf(static_cast<uint8_t>(Opcode::Put), 7,
                         "hello payload");
    FrameReader reader;
    reader.feed(wire);
    Frame frame;
    ASSERT_TRUE(reader.next(frame).isOk());
    EXPECT_EQ(frame.type, static_cast<uint8_t>(Opcode::Put));
    EXPECT_EQ(frame.request_id, 7u);
    EXPECT_EQ(frame.payload, "hello payload");
    EXPECT_TRUE(reader.next(frame).isNotFound());
    EXPECT_FALSE(reader.broken());
}

TEST(FrameCodecTest, ByteAtATimeDelivery)
{
    // TCP may deliver any fragmentation; one byte at a time is the
    // worst case.
    Bytes wire = frameOf(static_cast<uint8_t>(Opcode::Get), 42,
                         "key-bytes");
    FrameReader reader;
    Frame frame;
    for (size_t i = 0; i + 1 < wire.size(); ++i) {
        reader.feed(BytesView(wire).substr(i, 1));
        EXPECT_TRUE(reader.next(frame).isNotFound());
    }
    reader.feed(BytesView(wire).substr(wire.size() - 1, 1));
    ASSERT_TRUE(reader.next(frame).isOk());
    EXPECT_EQ(frame.request_id, 42u);
    EXPECT_EQ(frame.payload, "key-bytes");
}

TEST(FrameCodecTest, BackToBackFrames)
{
    Bytes wire;
    for (uint32_t id = 1; id <= 5; ++id)
        appendFrame(wire, static_cast<uint8_t>(Opcode::Delete), id,
                    "k" + std::to_string(id));
    FrameReader reader;
    reader.feed(wire);
    Frame frame;
    for (uint32_t id = 1; id <= 5; ++id) {
        ASSERT_TRUE(reader.next(frame).isOk());
        EXPECT_EQ(frame.request_id, id);
        EXPECT_EQ(frame.payload, "k" + std::to_string(id));
    }
    EXPECT_TRUE(reader.next(frame).isNotFound());
}

TEST(FrameCodecTest, EmptyPayloadFrame)
{
    Bytes wire = frameOf(static_cast<uint8_t>(Opcode::Stats), 1,
                         BytesView());
    FrameReader reader;
    reader.feed(wire);
    Frame frame;
    ASSERT_TRUE(reader.next(frame).isOk());
    EXPECT_TRUE(frame.payload.empty());
}

// -- Wire v2 (traced frames) -------------------------------------

TEST(TracedFrameTest, RoundTripCarriesTraceContext)
{
    Bytes wire;
    appendFrameTraced(wire, static_cast<uint8_t>(Opcode::Get), 11,
                      "traced-payload",
                      {0xDEADBEEFCAFE1234ull, kTraceFlagSampled});
    FrameReader reader;
    reader.feed(wire);
    Frame frame;
    ASSERT_TRUE(reader.next(frame).isOk());
    EXPECT_EQ(frame.request_id, 11u);
    EXPECT_EQ(frame.payload, "traced-payload");
    ASSERT_TRUE(frame.has_trace);
    EXPECT_EQ(frame.trace.id, 0xDEADBEEFCAFE1234ull);
    EXPECT_EQ(frame.trace.flags, kTraceFlagSampled);
}

TEST(TracedFrameTest, OldFramesStillDecodeWithoutTrace)
{
    // Backward compatibility: a v1 frame through a default (traced
    // capable) reader decodes exactly as before, has_trace false.
    Bytes wire = frameOf(static_cast<uint8_t>(Opcode::Put), 3,
                         "legacy");
    FrameReader reader;
    reader.feed(wire);
    Frame frame;
    ASSERT_TRUE(reader.next(frame).isOk());
    EXPECT_FALSE(frame.has_trace);
    EXPECT_EQ(frame.trace.id, 0u);
    EXPECT_EQ(frame.payload, "legacy");
}

TEST(TracedFrameTest, MixedVersionsOnOneStream)
{
    Bytes wire;
    appendFrame(wire, static_cast<uint8_t>(Opcode::Get), 1, "v1");
    appendFrameTraced(wire, static_cast<uint8_t>(Opcode::Get), 2,
                      "v2", {42, kTraceFlagSampled});
    appendFrame(wire, static_cast<uint8_t>(Opcode::Get), 3, "v1b");
    FrameReader reader;
    reader.feed(wire);
    Frame frame;
    ASSERT_TRUE(reader.next(frame).isOk());
    EXPECT_FALSE(frame.has_trace);
    ASSERT_TRUE(reader.next(frame).isOk());
    EXPECT_TRUE(frame.has_trace);
    EXPECT_EQ(frame.trace.id, 42u);
    ASSERT_TRUE(reader.next(frame).isOk());
    EXPECT_FALSE(frame.has_trace);
    EXPECT_EQ(frame.payload, "v1b");
}

TEST(TracedFrameTest, V1PinnedReaderRejectsTracedFrames)
{
    // A peer pinned to wire v1 (feature flag off) must reject v2
    // frames cleanly: sticky Corruption naming the reason, not a
    // crash or a misparse.
    Bytes wire;
    appendFrameTraced(wire, static_cast<uint8_t>(Opcode::Get), 5,
                      "p", {7, 0});
    FrameReader reader(kDefaultMaxFrameBytes,
                       /*accept_traced=*/false);
    reader.feed(wire);
    Frame frame;
    Status s = reader.next(frame);
    ASSERT_TRUE(s.code() == StatusCode::Corruption);
    EXPECT_NE(s.toString().find("pinned to wire v1"),
              std::string::npos);
    EXPECT_TRUE(reader.broken());
    // Sticky: a valid v1 frame afterwards never parses either.
    reader.feed(frameOf(1, 6, "ok"));
    EXPECT_TRUE(reader.next(frame).code() == StatusCode::Corruption);
}

TEST(TracedFrameTest, V1PinnedReaderStillTakesV1Frames)
{
    Bytes wire = frameOf(static_cast<uint8_t>(Opcode::Get), 8,
                         "plain");
    FrameReader reader(kDefaultMaxFrameBytes,
                       /*accept_traced=*/false);
    reader.feed(wire);
    Frame frame;
    ASSERT_TRUE(reader.next(frame).isOk());
    EXPECT_EQ(frame.payload, "plain");
}

TEST(TracedFrameTest, TracedBodyTooShortBreaksReader)
{
    // A v2 frame whose body cannot hold the 9-byte trace context
    // is structurally invalid. Hand-build one: header claiming a
    // 4-byte body with a valid checksum over those 4 bytes.
    Bytes wire = frameOf(1, 1, "abcd");
    wire[2] = static_cast<char>(kWireVersionTraced);
    FrameReader reader;
    reader.feed(wire);
    Frame frame;
    Status s = reader.next(frame);
    ASSERT_TRUE(s.code() == StatusCode::Corruption);
    EXPECT_NE(s.toString().find("too short"), std::string::npos);
    EXPECT_TRUE(reader.broken());
}

TEST(FrameFuzzTest, BadMagicBreaksReader)
{
    Bytes wire = frameOf(1, 1, "x");
    wire[0] = 'Z';
    FrameReader reader;
    reader.feed(wire);
    Frame frame;
    EXPECT_TRUE(reader.next(frame).code() == StatusCode::Corruption);
    EXPECT_TRUE(reader.broken());
    // Sticky: even valid bytes afterwards never parse.
    reader.feed(frameOf(1, 2, "y"));
    EXPECT_TRUE(reader.next(frame).code() == StatusCode::Corruption);
}

TEST(FrameFuzzTest, BadVersionBreaksReader)
{
    // Version 2 is the (valid) traced revision, so the first
    // unsupported version is kWireVersionTraced + 1.
    Bytes wire = frameOf(1, 1, "x");
    wire[2] = static_cast<char>(kWireVersionTraced + 1);
    FrameReader reader;
    reader.feed(wire);
    Frame frame;
    EXPECT_TRUE(reader.next(frame).code() == StatusCode::Corruption);
    EXPECT_TRUE(reader.broken());
}

TEST(FrameFuzzTest, OversizedLengthRejectedBeforeAllocation)
{
    // Declared payload length above the cap must break the reader
    // immediately — before it buffers (or allocates) 4 GiB.
    Bytes wire = frameOf(1, 1, "x");
    wire[8] = '\xff';
    wire[9] = '\xff';
    wire[10] = '\xff';
    wire[11] = '\xff';
    FrameReader reader(1 << 20);
    reader.feed(BytesView(wire).substr(0, kFrameHeaderBytes));
    Frame frame;
    EXPECT_TRUE(reader.next(frame).code() == StatusCode::Corruption);
    EXPECT_TRUE(reader.broken());
}

TEST(FrameFuzzTest, ChecksumMismatchBreaksReader)
{
    Bytes wire = frameOf(static_cast<uint8_t>(Opcode::Put), 9,
                         "payload-to-corrupt");
    wire[wire.size() - 3] ^= 0x40; // flip a payload bit
    FrameReader reader;
    reader.feed(wire);
    Frame frame;
    EXPECT_TRUE(reader.next(frame).code() == StatusCode::Corruption);
    EXPECT_TRUE(reader.broken());
}

TEST(FrameFuzzTest, TruncatedHeaderJustWaits)
{
    // A short read is not corruption — more bytes may arrive.
    Bytes wire = frameOf(1, 1, "x");
    FrameReader reader;
    reader.feed(BytesView(wire).substr(0, kFrameHeaderBytes - 1));
    Frame frame;
    EXPECT_TRUE(reader.next(frame).isNotFound());
    EXPECT_FALSE(reader.broken());
}

TEST(FrameFuzzTest, RandomGarbageNeverCrashes)
{
    // 200 streams of pure noise: every outcome must be NotFound
    // (still waiting) or sticky Corruption — never a crash, never
    // a bogus accepted frame (the checksum makes a false positive
    // astronomically unlikely).
    Rng rng(0xF00D);
    for (int round = 0; round < 200; ++round) {
        FrameReader reader(1 << 16);
        Bytes noise;
        size_t len = 1 + rng.nextBounded(512);
        for (size_t i = 0; i < len; ++i)
            noise.push_back(
                static_cast<char>(rng.nextBounded(256)));
        reader.feed(noise);
        Frame frame;
        Status s = reader.next(frame);
        EXPECT_TRUE(s.isNotFound() || s.code() == StatusCode::Corruption);
    }
}

TEST(FrameFuzzTest, BitFlippedValidFramesNeverCrash)
{
    // Take a valid frame and flip every single bit position in
    // turn. Each mutation must decode cleanly, wait for more
    // bytes, or break the reader — checksum catches payload
    // damage, header validation catches the rest.
    Bytes base = frameOf(static_cast<uint8_t>(Opcode::Scan), 3,
                         "start\x01end\x02limit");
    for (size_t byte = 0; byte < base.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            Bytes mutated = base;
            mutated[byte] ^= static_cast<char>(1 << bit);
            FrameReader reader;
            reader.feed(mutated);
            Frame frame;
            Status s = reader.next(frame);
            if (s.isOk()) {
                // Only the type and request-id bytes are outside
                // the checksum; damage there still frames
                // correctly.
                EXPECT_TRUE(byte == 3 ||
                            (byte >= 4 && byte < 8))
                    << "byte " << byte << " bit " << bit
                    << " decoded despite damage";
            }
        }
    }
}

// -- Payload codecs on hostile input -----------------------------

TEST(PayloadCodecTest, RoundTrips)
{
    Bytes buf;
    encodePut(buf, "the-key", "the-value");
    Bytes key;
    Bytes value;
    ASSERT_TRUE(decodePut(buf, key, value).isOk());
    EXPECT_EQ(key, "the-key");
    EXPECT_EQ(value, "the-value");

    buf.clear();
    encodeScan(buf, "aaa", "zzz", 77);
    Bytes start;
    Bytes end;
    uint64_t limit = 0;
    ASSERT_TRUE(decodeScan(buf, start, end, limit).isOk());
    EXPECT_EQ(start, "aaa");
    EXPECT_EQ(end, "zzz");
    EXPECT_EQ(limit, 77u);

    buf.clear();
    kv::WriteBatch batch;
    batch.put("a", "1");
    batch.del("b");
    batch.put("c", "3");
    encodeBatch(buf, batch);
    kv::WriteBatch decoded;
    ASSERT_TRUE(decodeBatch(buf, decoded).isOk());
    ASSERT_EQ(decoded.entries().size(), 3u);
    EXPECT_EQ(decoded.entries()[1].key, "b");
    EXPECT_EQ(decoded.entries()[1].op, kv::BatchOp::Delete);
}

TEST(PayloadCodecTest, TruncationsReturnInvalidArgument)
{
    // Every proper prefix of a valid payload must decode to
    // InvalidArgument — truncated varint, short key, short value —
    // without crashing or reading past the buffer.
    Bytes put;
    encodePut(put, "some-key-material", "some-value-material");
    for (size_t cut = 0; cut < put.size(); ++cut) {
        Bytes key;
        Bytes value;
        Status s =
            decodePut(BytesView(put).substr(0, cut), key, value);
        EXPECT_TRUE(s.code() == StatusCode::InvalidArgument) << "cut=" << cut;
    }

    Bytes scan;
    encodeScan(scan, "start-key", "end-key", 123456789);
    for (size_t cut = 0; cut < scan.size(); ++cut) {
        Bytes start;
        Bytes end;
        uint64_t limit = 0;
        Status s = decodeScan(BytesView(scan).substr(0, cut),
                              start, end, limit);
        EXPECT_TRUE(s.code() == StatusCode::InvalidArgument) << "cut=" << cut;
    }

    kv::WriteBatch batch;
    batch.put("key-one", "value-one");
    batch.del("key-two");
    Bytes enc;
    encodeBatch(enc, batch);
    for (size_t cut = 0; cut < enc.size(); ++cut) {
        kv::WriteBatch decoded;
        Status s =
            decodeBatch(BytesView(enc).substr(0, cut), decoded);
        EXPECT_TRUE(s.code() == StatusCode::InvalidArgument) << "cut=" << cut;
    }
}

TEST(PayloadCodecTest, TrailingGarbageRejected)
{
    Bytes buf;
    encodeGet(buf, "k");
    buf += "extra";
    Bytes key;
    EXPECT_TRUE(decodeGet(buf, key).code() == StatusCode::InvalidArgument);
}

TEST(PayloadCodecTest, LengthOverrunRejected)
{
    // A varint length that claims more bytes than the payload has.
    Bytes buf;
    buf.push_back('\x7f'); // klen = 127, but only 3 bytes follow
    buf += "abc";
    Bytes key;
    EXPECT_TRUE(decodeGet(buf, key).code() == StatusCode::InvalidArgument);
}

TEST(PayloadCodecTest, BatchViewDecodeRoundTrip)
{
    // decodeBatch parses entries as views into the payload and
    // copies each once into the batch: the decoded batch must own
    // its bytes (the payload is scribbled over before the check)
    // and equal what was encoded, across deletes, empty values and
    // lengths that need multi-byte varints.
    Rng rng(4242);
    static const size_t lens[] = {0, 1, 32, 127, 128, 500};
    for (int round = 0; round < 100; ++round) {
        kv::WriteBatch batch;
        const size_t n = round == 0 ? 0 : rng.nextBounded(200);
        for (size_t i = 0; i < n; ++i) {
            Bytes key = rng.nextBytes(lens[rng.nextBounded(6)]);
            if (rng.nextBounded(3) == 0)
                batch.del(key);
            else
                batch.put(key,
                          rng.nextBytes(lens[rng.nextBounded(6)]));
        }
        Bytes buf;
        encodeBatch(buf, batch);
        kv::WriteBatch decoded;
        ASSERT_TRUE(decodeBatch(buf, decoded).isOk());
        std::fill(buf.begin(), buf.end(), '\xee');
        ASSERT_EQ(decoded.size(), batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
            const kv::BatchEntry &want = batch.entries()[i];
            const kv::BatchEntry &got = decoded.entries()[i];
            EXPECT_EQ(got.op, want.op);
            EXPECT_EQ(got.key, want.key);
            EXPECT_EQ(got.value, want.value);
        }
    }

    // A count no payload of that size could hold is refused before
    // the batch reserves for it.
    Bytes lying;
    appendVarint(lying, 1000);
    lying += Bytes(100, '\x01');
    kv::WriteBatch decoded;
    EXPECT_EQ(decodeBatch(lying, decoded).code(),
              StatusCode::InvalidArgument);
}

TEST(PayloadCodecTest, ScanResponseRoundTrip)
{
    std::vector<ScanEntry> entries;
    entries.push_back({"k1", "v1"});
    entries.push_back({"k2", Bytes(300, 'x')});
    Bytes buf;
    encodeScanResponse(buf, entries, true);
    std::vector<ScanEntry> decoded;
    bool truncated = false;
    ASSERT_TRUE(
        decodeScanResponse(buf, decoded, truncated).isOk());
    ASSERT_EQ(decoded.size(), 2u);
    EXPECT_EQ(decoded[1].value, Bytes(300, 'x'));
    EXPECT_TRUE(truncated);
}

TEST(PayloadCodecTest, ReplSnapshotRoundTripAndRejects)
{
    Bytes chunk;
    encodeReplSnapshot(chunk, 4096, 77, false, "records");
    uint64_t base = 0, seq = 0;
    bool done = true;
    BytesView records;
    ASSERT_TRUE(
        decodeReplSnapshot(chunk, base, seq, done, records).isOk());
    EXPECT_EQ(base, 4096u);
    EXPECT_EQ(seq, 77u);
    EXPECT_FALSE(done);
    EXPECT_EQ(records, "records");

    Bytes end;
    encodeReplSnapshot(end, 4096, 77, true, BytesView());
    ASSERT_TRUE(
        decodeReplSnapshot(end, base, seq, done, records).isOk());
    EXPECT_TRUE(done);
    EXPECT_TRUE(records.empty());

    // The end frame carries no records; the flag is 0 or 1; and a
    // payload cut before the flag is malformed.
    Bytes bad_end;
    encodeReplSnapshot(bad_end, 1, 1, true, BytesView());
    bad_end += "x";
    EXPECT_EQ(decodeReplSnapshot(bad_end, base, seq, done, records)
                  .code(),
              StatusCode::InvalidArgument);
    Bytes bad_flag = end;
    bad_flag[bad_flag.size() - 1] = 2;
    EXPECT_EQ(decodeReplSnapshot(bad_flag, base, seq, done, records)
                  .code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(decodeReplSnapshot(BytesView(end).substr(0, 2), base,
                                 seq, done, records)
                  .code(),
              StatusCode::InvalidArgument);
    EXPECT_STREQ(
        opcodeName(static_cast<uint8_t>(Opcode::ReplSnapshot)),
        "replsnapshot");
}

TEST(WireStatusTest, StatusMappingIsLossless)
{
    // Engine statuses must cross the wire and come back as the
    // same code — IODegraded in particular must stay distinct from
    // IOError so clients can tell "retry elsewhere" from "broken".
    const Status statuses[] = {
        Status::ok(),
        Status::notFound(),
        Status::corruption("c"),
        Status::ioError("io"),
        Status::invalidArgument("bad"),
        Status::notSupported("no"),
        Status::ioDegraded("degraded"),
    };
    for (const Status &s : statuses) {
        WireStatus wire = wireStatusOf(s);
        Status back = statusOfWire(wire, "msg");
        EXPECT_EQ(back.code(), s.code());
    }
    EXPECT_EQ(wireStatusOf(Status::ioDegraded("d")),
              WireStatus::IODegraded);
}

} // namespace
} // namespace ethkv::server
