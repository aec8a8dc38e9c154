/**
 * @file
 * In-process primary/backup replication tests (DESIGN.md §13):
 * two nodes over loopback, each built by server/stack as ethkvd
 * builds it, driven through the client library. Covers live
 * streaming, catch-up from sealed segments, reconnect + resume after
 * a dropped subscriber, semi-sync acks (with and without a live
 * follower), sticky degraded mode on fault-injected replay errors,
 * PROMOTE, the NotPrimary role check, SUBSCRIBE handshake
 * validation, the shutdown ordering that flushes send queues before
 * exit, and snapshot catch-up for a follower below the primary's log
 * start.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "common/fault_env.hh"
#include "obs/metrics.hh"
#include "server/client.hh"
#include "server/net_socket.hh"
#include "server/protocol.hh"
#include "server/replication.hh"
#include "server/server.hh"
#include "server/stack.hh"
#include "../kvstore/test_util.hh"

namespace ethkv::server
{
namespace
{

using testutil::makeKey;
using testutil::makeValue;
using testutil::ScratchDir;

/** Poll `pred` until true or ~5s elapsed. */
bool
waitFor(const std::function<bool()> &pred, int timeout_ms = 5000)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred())
            return true;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(5));
    }
    return pred();
}

/** A primary's options: the log engine, fast reconnect backoff. */
StackOptions
nodeOptions(const std::string &dir)
{
    StackOptions options;
    options.engine = "log";
    options.dir = dir;
    options.repl = true;
    options.server.workers = 2;
    options.replication.backoff_min_ms = 10;
    options.replication.backoff_max_ms = 100;
    return options;
}

/**
 * One node, built by the stack ethkvd serves. Each node
 * gets a private MetricsRegistry so two nodes in one process don't
 * share gauges.
 */
class ReplNode
{
  public:
    explicit ReplNode(StackOptions options)
    {
        options.server.metrics = &metrics_;
        options.replication.metrics = &metrics_;
        auto stack = Stack::build(std::move(options));
        stack.status().expectOk("node build");
        stack_ = stack.take();
        stack_->start().expectOk("node start");
    }

    /** Server, then the hub's flushAndStop(), then the engine. */
    void stop() { stack_->stop(); }

    uint16_t port() { return stack_->server().port(); }
    ReplicationHub &hub() { return *stack_->hub(); }
    //! The chain below the hub, which follower replay writes.
    kv::KVStore &engine() { return stack_->engine(); }
    FaultInjectionEnv &faultEnv() { return *stack_->faultEnv(); }
    obs::MetricsRegistry &metrics() { return metrics_; }

    uint64_t
    gauge(const std::string &name)
    {
        return static_cast<uint64_t>(
            metrics_.gauge(name).value());
    }

    std::unique_ptr<Client>
    connect()
    {
        auto client = Client::open("127.0.0.1", port());
        EXPECT_TRUE(client.ok()) << client.status().message();
        return client.take();
    }

    /** True once `key` -> `value` is visible in the engine. */
    bool
    has(const Bytes &key, const Bytes &value)
    {
        Bytes got;
        return engine().get(key, got).isOk() && got == value;
    }

  private:
    obs::MetricsRegistry metrics_;
    std::unique_ptr<Stack> stack_;
};

/** A follower's options: nodeOptions() streaming from `primary`. */
StackOptions
followerOf(const std::string &dir, ReplNode &primary)
{
    StackOptions options = nodeOptions(dir);
    options.replication.primary_host = "127.0.0.1";
    options.replication.primary_port = primary.port();
    return options;
}

/**
 * Whether `follower` has applied the primary's whole log: the rule
 * `ethkv_ctl wait-caught-up` uses. The follower's repl.lag_bytes is
 * only as fresh as the last REPL_BATCH, so it reads 0 right after a
 * snapshot while the primary holds more; the log end offsets are
 * read fresh here, as a STATS reply would.
 */
bool
caughtUp(ReplNode &primary, ReplNode &follower)
{
    primary.hub().refreshLogGauges();
    follower.hub().refreshLogGauges();
    return follower.gauge("repl.follower_connected") == 1 &&
           follower.gauge("repl.snapshot_pending") == 0 &&
           follower.gauge("repl.log_end_offset") >=
               primary.gauge("repl.log_end_offset");
}

TEST(Replication, StreamsLiveWritesToFollower)
{
    ScratchDir dir("repl_live");
    ReplNode primary(nodeOptions(dir.path() + "/p"));
    StackOptions fc = followerOf(dir.path() + "/f", primary);
    ReplNode follower(fc);

    auto client = primary.connect();
    ASSERT_TRUE(client);
    for (uint64_t i = 0; i < 50; ++i)
        ASSERT_TRUE(
            client->put(makeKey(i), makeValue(i)).isOk());
    kv::WriteBatch batch;
    batch.put("batched", "value");
    batch.del(makeKey(0));
    ASSERT_TRUE(client->apply(batch).isOk());

    EXPECT_TRUE(waitFor([&] {
        return follower.has("batched", "value") &&
               !follower.engine().contains(makeKey(0));
    })) << "follower never replayed the stream";
    for (uint64_t i = 1; i < 50; ++i)
        EXPECT_TRUE(follower.has(makeKey(i), makeValue(i)));

    EXPECT_TRUE(
        waitFor([&] { return caughtUp(primary, follower); }));
    EXPECT_EQ(primary.hub().subscriberCount(), 1u);

    // Reads are served by the follower; mutations are not.
    auto fclient = follower.connect();
    ASSERT_TRUE(fclient);
    Bytes value;
    ASSERT_TRUE(fclient->get("batched", value).isOk());
    EXPECT_EQ(value, "value");
    Status s = fclient->put("nope", "x");
    EXPECT_TRUE(s.code() == StatusCode::NotSupported)
        << s.toString();
    EXPECT_NE(s.message().find("not primary"), std::string::npos)
        << s.toString();
    EXPECT_TRUE(fclient->del("batched").code() ==
                StatusCode::NotSupported);
}

TEST(Replication, LogEndGaugeMeansApplied)
{
    // What `ethkv_ctl wait-caught-up --primary-port-file` relies on:
    // once a follower's STATS shows repl.log_end_offset at or past
    // the primary's, with no snapshot pending, every write the
    // primary acked before that read is in the follower's engine.
    ScratchDir dir("repl_log_end");
    ReplNode primary(nodeOptions(dir.path() + "/p"));
    auto client = primary.connect();
    ASSERT_TRUE(client);
    for (uint64_t i = 0; i < 100; ++i)
        ASSERT_TRUE(
            client->put(makeKey(i), makeValue(i)).isOk());
    Bytes doc;
    ASSERT_TRUE(client->stats(doc).isOk());
    const uint64_t target = primary.gauge("repl.log_end_offset");
    EXPECT_EQ(target, primary.hub().endOffset());
    EXPECT_GT(target, 0u);

    StackOptions fc = followerOf(dir.path() + "/f", primary);
    ReplNode follower(fc);
    auto fclient = follower.connect();
    ASSERT_TRUE(fclient);
    EXPECT_TRUE(waitFor([&] {
        Bytes d;
        return fclient->stats(d).isOk() &&
               follower.gauge("repl.follower_connected") == 1 &&
               follower.gauge("repl.snapshot_pending") == 0 &&
               follower.gauge("repl.log_end_offset") >= target;
    })) << "follower never reached the primary's log end";
    for (uint64_t i = 0; i < 100; ++i)
        EXPECT_TRUE(follower.has(makeKey(i), makeValue(i))) << i;
}

TEST(Replication, FollowerCatchesUpFromSealedSegments)
{
    ScratchDir dir("repl_catchup");
    // Tiny segments: the backlog the follower fetches spans many
    // sealed segments, not just the active tail.
    StackOptions pc = nodeOptions(dir.path() + "/p");
    pc.replication.segment_bytes = 1024;
    ReplNode primary(pc);

    auto client = primary.connect();
    ASSERT_TRUE(client);
    for (uint64_t i = 0; i < 200; ++i)
        ASSERT_TRUE(
            client->put(makeKey(i), makeValue(i, 48)).isOk());

    // Follower starts AFTER the writes: pure catch-up from disk.
    StackOptions fc = followerOf(dir.path() + "/f", primary);
    ReplNode follower(fc);

    EXPECT_TRUE(waitFor([&] {
        return follower.has(makeKey(199), makeValue(199, 48));
    })) << "follower never caught up";
    for (uint64_t i = 0; i < 200; ++i)
        EXPECT_TRUE(follower.has(makeKey(i), makeValue(i, 48)));
    EXPECT_TRUE(
        waitFor([&] { return caughtUp(primary, follower); }));
}

/** Every key/value pair of `store`, in scan order. */
std::vector<std::pair<Bytes, Bytes>>
scanAll(kv::KVStore &store)
{
    std::vector<std::pair<Bytes, Bytes>> out;
    store.scan(BytesView(), BytesView(), [&](BytesView k, BytesView v) {
        out.emplace_back(Bytes(k), Bytes(v));
        return true;
    }).expectOk("scan");
    return out;
}

TEST(Replication, FollowerBelowLogStartCatchesUpFromSnapshot)
{
    ScratchDir dir("repl_snapshot");
    StackOptions pc = nodeOptions(dir.path() + "/p");
    pc.engine = "lsm";
    pc.replication.segment_bytes = 1024; // window = 16 KiB of log
    ReplNode primary(pc);
    StackOptions fc = followerOf(dir.path() + "/f", primary);
    fc.engine = "lsm";

    auto client = primary.connect();
    ASSERT_TRUE(client);
    {
        ReplNode follower(fc);
        for (uint64_t i = 0; i < 20; ++i)
            ASSERT_TRUE(client->put(makeKey(i), "old").isOk());
        ASSERT_TRUE(waitFor(
            [&] { return follower.has(makeKey(19), "old"); }));
    }

    // Follower down: deletes and overwrites of keys it holds, then
    // far more log than the window, so its offset is dropped.
    for (uint64_t i = 0; i < 5; ++i)
        ASSERT_TRUE(client->del(makeKey(i)).isOk());
    for (uint64_t i = 5; i < 10; ++i)
        ASSERT_TRUE(client->put(makeKey(i), "new").isOk());
    for (uint64_t i = 100; i < 700; ++i)
        ASSERT_TRUE(
            client->put(makeKey(i), makeValue(i, 48)).isOk());
    ASSERT_GT(primary.hub().log().startOffset(), 0u);

    ReplNode follower(fc);
    ASSERT_TRUE(waitFor([&] {
        return follower.metrics()
                       .counter("repl.snapshots_applied")
                       .value() == 1 &&
               caughtUp(primary, follower);
    })) << "follower never caught up by snapshot";
    EXPECT_GE(
        primary.metrics().counter("repl.snapshots_sent").value(),
        1u);
    // The emptied engine lost the stale keys; the data matches.
    Bytes value;
    EXPECT_TRUE(follower.engine().get(makeKey(0), value).isNotFound());
    EXPECT_TRUE(follower.has(makeKey(5), "new"));
    EXPECT_EQ(scanAll(follower.engine()), scanAll(primary.engine()));
    EXPECT_GT(follower.hub().log().startOffset(), 0u);

    // The log streams on from the snapshot's base.
    ASSERT_TRUE(client->put("after", "snapshot").isOk());
    EXPECT_TRUE(
        waitFor([&] { return follower.has("after", "snapshot"); }));
}

TEST(Replication, LagAfterSnapshotCountsWritesDuringIt)
{
    // A follower that caught up by snapshot must report how far
    // the primary's log moved while the snapshot streamed. The
    // primary's disk cannot be read, so no log record ever follows
    // the snapshot: only the sender's word after the snapshot can
    // tell the follower where the log now ends.
    ScratchDir dir("repl_snapshot_lag");
    StackOptions pc = nodeOptions(dir.path() + "/p");
    pc.engine = "lsm";
    pc.env = "fault";
    pc.memtable_bytes = 64u << 20; // the snapshot scan reads no file
    pc.replication.segment_bytes = 1024;
    ReplNode primary(pc);
    auto client = primary.connect();
    ASSERT_TRUE(client);
    // Far more log than the window: a new follower needs a
    // snapshot, and a large one (~4 MiB) streams for a while.
    constexpr uint64_t kKeys = 4000;
    for (uint64_t i = 0; i < kKeys; ++i)
        ASSERT_TRUE(
            client->put(makeKey(i), makeValue(i, 1024)).isOk());
    ASSERT_GT(primary.hub().log().startOffset(), 0u);
    primary.faultEnv().setPermanentReadError(true);

    StackOptions fc = followerOf(dir.path() + "/f", primary);
    fc.engine = "lsm";
    ReplNode follower(fc);
    auto applied = [&] {
        return follower.metrics()
            .counter("repl.snapshots_applied")
            .value();
    };
    for (uint64_t i = kKeys; applied() == 0 && i < 20 * kKeys; ++i)
        ASSERT_TRUE(client->put(makeKey(i), "during").isOk());
    ASSERT_EQ(applied(), 1u) << "the snapshot never finished";

    // Nothing past the snapshot's base can ship, so the follower
    // stays behind, and its lag must say so once it settles.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    primary.hub().refreshLogGauges();
    follower.hub().refreshLogGauges();
    EXPECT_LT(follower.gauge("repl.log_end_offset"),
              primary.gauge("repl.log_end_offset"));
    EXPECT_GT(follower.gauge("repl.lag_bytes"), 0u)
        << "lag read from the handshake's stale primary end";
    primary.faultEnv().setPermanentReadError(false);
}

TEST(Replication, FollowerReconnectsAndResumes)
{
    ScratchDir dir("repl_reconnect");
    ReplNode primary(nodeOptions(dir.path() + "/p"));
    StackOptions fc = followerOf(dir.path() + "/f", primary);
    ReplNode follower(fc);

    auto client = primary.connect();
    ASSERT_TRUE(client);
    ASSERT_TRUE(client->put("before", "drop").isOk());
    ASSERT_TRUE(
        waitFor([&] { return follower.has("before", "drop"); }));

    // Tear down every subscriber socket; the follower must
    // reconnect with a resume offset and miss nothing.
    primary.hub().dropSubscribersForTest();
    ASSERT_TRUE(client->put("after", "reconnect").isOk());

    EXPECT_TRUE(waitFor([&] {
        return follower.has("after", "reconnect");
    })) << "follower did not resume after the drop";
    EXPECT_TRUE(waitFor([&] {
        return follower.metrics()
                   .counter("repl.reconnects")
                   .value() >= 1;
    }));
    EXPECT_TRUE(waitFor(
        [&] { return primary.hub().subscriberCount() == 1; }));
}

TEST(Replication, SemiSyncAcksWaitForFollower)
{
    ScratchDir dir("repl_semisync");
    StackOptions pc = nodeOptions(dir.path() + "/p");
    pc.replication.sync_acks = true;
    ReplNode primary(pc);

    // With no follower attached, semi-sync degenerates to async:
    // acks must not hang.
    auto client = primary.connect();
    ASSERT_TRUE(client);
    ASSERT_TRUE(client->put("solo", "ok").isOk());

    StackOptions fc = followerOf(dir.path() + "/f", primary);
    ReplNode follower(fc);
    ASSERT_TRUE(
        waitFor([&] { return follower.has("solo", "ok"); }));

    // With a live follower, an acked write is already ON the
    // follower when the ack returns — that is the semi-sync
    // contract the drill's zero-loss check leans on.
    for (uint64_t i = 0; i < 30; ++i) {
        ASSERT_TRUE(
            client->put(makeKey(i, "ss"), makeValue(i)).isOk());
        EXPECT_TRUE(follower.has(makeKey(i, "ss"), makeValue(i)))
            << "acked write " << i << " not on the follower";
    }
    EXPECT_GE(primary.metrics()
                  .counter("server.repl.acks_deferred")
                  .value(),
              30u);
}

TEST(Replication, SemiSyncFailsOpenOnAckTimeout)
{
    ScratchDir dir("repl_failopen");
    StackOptions pc = nodeOptions(dir.path() + "/p");
    pc.replication.sync_acks = true;
    pc.replication.ack_timeout_ms = 200;
    ReplNode primary(pc);

    StackOptions fc = followerOf(dir.path() + "/f", primary);
    ReplNode follower(fc);

    auto client = primary.connect();
    ASSERT_TRUE(client);
    ASSERT_TRUE(client->put("warm", "up").isOk());
    ASSERT_TRUE(
        waitFor([&] { return follower.has("warm", "up"); }));

    // Stop the follower entirely: its socket goes away, but a
    // half-dead follower is modeled below by the timeout window —
    // the write must complete within the fail-open deadline
    // rather than hang for the full client timeout.
    follower.stop();
    auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(client->put("laggard", "dropped").isOk());
    auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_LT(elapsed, 5000) << "ack did not fail open";
}

TEST(Replication, ReplayIOErrorLatchesDegraded)
{
    ScratchDir dir("repl_degraded");
    ReplNode primary(nodeOptions(dir.path() + "/p"));

    StackOptions fc = followerOf(dir.path() + "/f", primary);
    fc.env = "fault";
    fc.fault_seed = 3;
    ReplNode follower(fc);
    FaultInjectionEnv &fault = follower.faultEnv();

    auto client = primary.connect();
    ASSERT_TRUE(client);
    ASSERT_TRUE(client->put("healthy", "yes").isOk());
    ASSERT_TRUE(
        waitFor([&] { return follower.has("healthy", "yes"); }));

    // Kill the follower's disk: the next replayed batch fails
    // with IOError and degraded mode latches.
    fault.setWriteError(true);
    ASSERT_TRUE(client->put("poison", "pill").isOk());
    EXPECT_TRUE(waitFor([&] {
        return follower.hub().isDegraded();
    })) << "replay IOError did not latch degraded mode";
    EXPECT_TRUE(waitFor([&] {
        return follower.gauge("repl.follower_degraded") == 1;
    }));
    EXPECT_GE(
        follower.metrics().counter("repl.replay_errors").value(),
        1u);

    // Sticky: healing the disk does not clear it, and PROMOTE
    // refuses — the node may hold a torn prefix.
    fault.setWriteError(false);
    auto fclient = follower.connect();
    ASSERT_TRUE(fclient);
    uint64_t end = 0;
    Status s = fclient->promote(end);
    EXPECT_TRUE(s.isIODegraded()) << s.toString();

    // Reads still work (stale is better than down)...
    Bytes value;
    ASSERT_TRUE(fclient->get("healthy", value).isOk());
    // ...and the poisoned write never half-applied.
    EXPECT_FALSE(follower.has("poison", "pill"));
}

TEST(Replication, PromoteFlipsRoleAndAcceptsWrites)
{
    ScratchDir dir("repl_promote");
    auto primary =
        std::make_unique<ReplNode>(nodeOptions(dir.path() + "/p"));
    StackOptions fc = followerOf(dir.path() + "/f", *primary);
    ReplNode follower(fc);

    auto client = primary->connect();
    ASSERT_TRUE(client);
    for (uint64_t i = 0; i < 25; ++i)
        ASSERT_TRUE(
            client->put(makeKey(i), makeValue(i)).isOk());
    ASSERT_TRUE(waitFor([&] {
        return follower.has(makeKey(24), makeValue(24));
    }));
    ASSERT_TRUE(
        waitFor([&] { return caughtUp(*primary, follower); }));
    uint64_t primary_end = primary->hub().endOffset();

    // Primary dies hard; promote the follower.
    client.reset();
    primary.reset();
    auto fclient = follower.connect();
    ASSERT_TRUE(fclient);
    uint64_t end = 0;
    ASSERT_TRUE(fclient->promote(end).isOk());
    EXPECT_EQ(end, primary_end)
        << "promoted log end != old primary's (lost records)";
    EXPECT_TRUE(follower.hub().isPrimary());
    EXPECT_EQ(follower.gauge("repl.follower_connected"), 0u);
    EXPECT_GE(
        follower.metrics().counter("repl.promotions").value(),
        1u);

    // Promote is idempotent, and the new primary takes writes.
    ASSERT_TRUE(fclient->promote(end).isOk());
    ASSERT_TRUE(fclient->put("post", "failover").isOk());
    Bytes value;
    ASSERT_TRUE(fclient->get("post", value).isOk());
    EXPECT_EQ(value, "failover");
    for (uint64_t i = 0; i < 25; ++i)
        EXPECT_TRUE(follower.has(makeKey(i), makeValue(i)));
}

TEST(Replication, SubscribeHandshakeValidation)
{
    ScratchDir dir("repl_handshake");
    ReplNode primary(nodeOptions(dir.path() + "/p"));
    auto client = primary.connect();
    ASSERT_TRUE(client);
    for (uint64_t i = 0; i < 5; ++i)
        ASSERT_TRUE(
            client->put(makeKey(i), makeValue(i)).isOk());
    uint64_t end = primary.hub().endOffset();

    // Raw SUBSCRIBE with a resume offset past the log end: the
    // history diverged, and the server must say so instead of
    // streaming garbage. 0xff = the connection closed first.
    auto probe = [&](uint16_t port, uint64_t resume) -> uint8_t {
        auto fd = net::connectTcp("127.0.0.1", port);
        EXPECT_TRUE(fd.ok());
        Bytes payload;
        encodeSubscribe(payload, resume);
        Bytes frame;
        appendFrame(frame, static_cast<uint8_t>(Opcode::Subscribe),
                    1, payload);
        EXPECT_TRUE(net::writeAll(fd.value(), frame).isOk());
        FrameReader reader;
        Frame reply;
        for (;;) {
            if (reader.next(reply).isOk())
                break;
            Bytes buf;
            size_t n = 0;
            Status err;
            auto r = net::readSome(fd.value(), buf, 4096, n, err);
            if (r == net::IoResult::Eof ||
                r == net::IoResult::Error) {
                reply.type = 0xff;
                break;
            }
            if (n > 0)
                reader.feed(buf);
        }
        net::closeFd(fd.value());
        return reply.type;
    };

    EXPECT_EQ(probe(primary.port(), end + 100),
              static_cast<uint8_t>(WireStatus::InvalidArgument));
    EXPECT_EQ(probe(primary.port(), 3), // mid-record
              static_cast<uint8_t>(WireStatus::InvalidArgument));

    // A follower that sends SUBSCRIBE at a non-replicated server
    // gets NotSupported, not a hang.
    StackOptions plain_options;
    plain_options.engine = "btree";
    ReplNode plain(plain_options);
    EXPECT_EQ(probe(plain.port(), 0),
              static_cast<uint8_t>(WireStatus::NotSupported));
}

TEST(Replication, ShutdownFlushesSendQueues)
{
    ScratchDir dir("repl_shutdown");
    auto primary =
        std::make_unique<ReplNode>(nodeOptions(dir.path() + "/p"));
    StackOptions fc = followerOf(dir.path() + "/f", *primary);
    ReplNode follower(fc);

    auto client = primary->connect();
    ASSERT_TRUE(client);
    ASSERT_TRUE(client->put("warm", "up").isOk());
    ASSERT_TRUE(
        waitFor([&] { return follower.has("warm", "up"); }));

    // Burst of writes, then IMMEDIATE graceful stop: the SIGTERM
    // contract (server.stop() -> hub.flushAndStop()) must push
    // every acknowledged record out the subscriber sockets before
    // the process exits, so a planned failover loses nothing.
    for (uint64_t i = 0; i < 500; ++i)
        ASSERT_TRUE(
            client->put(makeKey(i, "sd"), makeValue(i)).isOk());
    client.reset();
    primary->stop();

    EXPECT_TRUE(waitFor([&] {
        return follower.has(makeKey(499, "sd"), makeValue(499));
    })) << "graceful shutdown dropped queued replication bytes";
    for (uint64_t i = 0; i < 500; ++i)
        EXPECT_TRUE(follower.has(makeKey(i, "sd"), makeValue(i)));

    // And the follower survives the primary's death: still
    // serving reads, counting reconnect attempts.
    auto fclient = follower.connect();
    ASSERT_TRUE(fclient);
    Bytes value;
    EXPECT_TRUE(fclient->get("warm", value).isOk());
}

} // namespace
} // namespace ethkv::server
