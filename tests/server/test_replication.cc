/**
 * @file
 * In-process primary/backup replication tests (DESIGN.md §13):
 * two real Servers over loopback, one ReplicationHub each, driven
 * through the client library. Covers live streaming, catch-up from
 * sealed segments, reconnect + resume after a dropped subscriber,
 * semi-sync acks (with and without a live follower), sticky
 * degraded mode on fault-injected replay errors, PROMOTE, the
 * NotPrimary role check, SUBSCRIBE handshake validation, the
 * shutdown ordering that flushes send queues before exit, and
 * snapshot catch-up for a follower below the primary's log start.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "common/fault_env.hh"
#include "kvstore/btree_store.hh"
#include "kvstore/locked_store.hh"
#include "kvstore/log_store.hh"
#include "kvstore/lsm_store.hh"
#include "obs/metrics.hh"
#include "server/client.hh"
#include "server/net_socket.hh"
#include "server/protocol.hh"
#include "server/replication.hh"
#include "server/server.hh"
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

/** Tuning for one node of a two-node cluster. */
struct NodeConfig
{
    std::string dir;
    std::string primary_host; //!< Non-empty = follower.
    uint16_t primary_port = 0;
    bool sync_acks = false;
    int ack_timeout_ms = 5000;
    uint64_t segment_bytes = 4u << 20;
    Env *env = nullptr; //!< Engine AND repl log env.
    int conn_idle_timeout_ms = 0;
    bool lsm = false; //!< Ordered LSM engine (snapshots) vs log.
};

NodeConfig
makeConfig(const std::string &dir)
{
    NodeConfig config;
    config.dir = dir;
    return config;
}

/**
 * One replicated node: engine (+ optional fault env), hub, server.
 * Each node gets a private MetricsRegistry so two nodes in one
 * process don't share gauges.
 */
class ReplNode
{
  public:
    explicit ReplNode(const NodeConfig &config)
    {
        if (config.lsm) {
            kv::LSMOptions engine_options;
            engine_options.dir = config.dir + "/engine";
            engine_options.env = config.env;
            auto engine = kv::LSMStore::open(engine_options);
            engine.status().expectOk("engine open");
            engine_ = engine.take();
        } else {
            kv::LogStoreOptions engine_options;
            engine_options.dir = config.dir + "/engine";
            engine_options.env = config.env;
            auto engine = kv::AppendLogStore::open(engine_options);
            engine.status().expectOk("engine open");
            engine_ = engine.take();
        }
        locked_ =
            std::make_unique<kv::LockedKVStore>(*engine_);

        ReplicationOptions ropts;
        ropts.dir = config.dir + "/repl";
        ropts.segment_bytes = config.segment_bytes;
        ropts.sync_acks = config.sync_acks;
        ropts.ack_timeout_ms = config.ack_timeout_ms;
        ropts.primary_host = config.primary_host;
        ropts.primary_port = config.primary_port;
        ropts.backoff_min_ms = 10;
        ropts.backoff_max_ms = 100;
        ropts.seed = 42;
        ropts.env = config.env;
        ropts.metrics = &metrics_;
        ropts.snapshot_catch_up = config.lsm;
        auto hub = ReplicationHub::open(ropts);
        hub.status().expectOk("hub open");
        hub_ = hub.take();

        ServerOptions options;
        options.port = 0;
        options.workers = 2;
        options.metrics = &metrics_;
        options.slow_op_micros = -1;
        options.repl = hub_.get();
        options.conn_idle_timeout_ms =
            config.conn_idle_timeout_ms;
        server_ = std::make_unique<Server>(
            hub_->wrap(*locked_), options);
        server_->start().expectOk("server start");
        hub_->start().expectOk("hub start");
    }

    ~ReplNode() { stop(); }

    void
    stop()
    {
        if (server_)
            server_->stop(); // flushAndStop()s the hub inside
    }

    uint16_t port() const { return server_->port(); }
    ReplicationHub &hub() { return *hub_; }
    kv::KVStore &engine() { return *locked_; }
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
    std::unique_ptr<kv::KVStore> engine_;
    std::unique_ptr<kv::LockedKVStore> locked_;
    std::unique_ptr<ReplicationHub> hub_;
    std::unique_ptr<Server> server_;
};

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
    ReplNode primary(makeConfig(dir.path() + "/p"));
    NodeConfig fc = makeConfig(dir.path() + "/f");
    fc.primary_host = "127.0.0.1";
    fc.primary_port = primary.port();
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
    ReplNode primary(makeConfig(dir.path() + "/p"));
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

    NodeConfig fc = makeConfig(dir.path() + "/f");
    fc.primary_host = "127.0.0.1";
    fc.primary_port = primary.port();
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
    NodeConfig pc = makeConfig(dir.path() + "/p");
    pc.segment_bytes = 1024;
    ReplNode primary(pc);

    auto client = primary.connect();
    ASSERT_TRUE(client);
    for (uint64_t i = 0; i < 200; ++i)
        ASSERT_TRUE(
            client->put(makeKey(i), makeValue(i, 48)).isOk());

    // Follower starts AFTER the writes: pure catch-up from disk.
    NodeConfig fc = makeConfig(dir.path() + "/f");
    fc.primary_host = "127.0.0.1";
    fc.primary_port = primary.port();
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
    NodeConfig pc = makeConfig(dir.path() + "/p");
    pc.lsm = true;
    pc.segment_bytes = 1024; // window = 16 KiB of log
    ReplNode primary(pc);
    NodeConfig fc = makeConfig(dir.path() + "/f");
    fc.lsm = true;
    fc.primary_host = "127.0.0.1";
    fc.primary_port = primary.port();

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

TEST(Replication, FollowerReconnectsAndResumes)
{
    ScratchDir dir("repl_reconnect");
    ReplNode primary(makeConfig(dir.path() + "/p"));
    NodeConfig fc = makeConfig(dir.path() + "/f");
    fc.primary_host = "127.0.0.1";
    fc.primary_port = primary.port();
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
    NodeConfig pc = makeConfig(dir.path() + "/p");
    pc.sync_acks = true;
    ReplNode primary(pc);

    // With no follower attached, semi-sync degenerates to async:
    // acks must not hang.
    auto client = primary.connect();
    ASSERT_TRUE(client);
    ASSERT_TRUE(client->put("solo", "ok").isOk());

    NodeConfig fc = makeConfig(dir.path() + "/f");
    fc.primary_host = "127.0.0.1";
    fc.primary_port = primary.port();
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
    NodeConfig pc = makeConfig(dir.path() + "/p");
    pc.sync_acks = true;
    pc.ack_timeout_ms = 200;
    ReplNode primary(pc);

    NodeConfig fc = makeConfig(dir.path() + "/f");
    fc.primary_host = "127.0.0.1";
    fc.primary_port = primary.port();
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
    ReplNode primary(makeConfig(dir.path() + "/p"));

    FaultInjectionEnv fault(Env::defaultEnv(), /*seed=*/3);
    NodeConfig fc = makeConfig(dir.path() + "/f");
    fc.primary_host = "127.0.0.1";
    fc.primary_port = primary.port();
    fc.env = &fault;
    ReplNode follower(fc);

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
        std::make_unique<ReplNode>(makeConfig(dir.path() + "/p"));
    NodeConfig fc = makeConfig(dir.path() + "/f");
    fc.primary_host = "127.0.0.1";
    fc.primary_port = primary->port();
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
    ReplNode primary(makeConfig(dir.path() + "/p"));
    auto client = primary.connect();
    ASSERT_TRUE(client);
    for (uint64_t i = 0; i < 5; ++i)
        ASSERT_TRUE(
            client->put(makeKey(i), makeValue(i)).isOk());
    uint64_t end = primary.hub().endOffset();

    // Raw SUBSCRIBE with a resume offset past the log end: the
    // history diverged, and the server must say so instead of
    // streaming garbage.
    auto probe = [&](uint64_t resume) -> uint8_t {
        auto fd = net::connectTcp("127.0.0.1", primary.port());
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

    EXPECT_EQ(probe(end + 100),
              static_cast<uint8_t>(WireStatus::InvalidArgument));
    EXPECT_EQ(probe(3), // mid-record
              static_cast<uint8_t>(WireStatus::InvalidArgument));

    // A follower that sends SUBSCRIBE at a non-replicated server
    // gets NotSupported, not a hang.
    kv::BTreeStore plain_store;
    kv::LockedKVStore plain_locked(plain_store);
    ServerOptions plain_options;
    plain_options.port = 0;
    plain_options.workers = 1;
    obs::MetricsRegistry plain_metrics;
    plain_options.metrics = &plain_metrics;
    plain_options.slow_op_micros = -1;
    Server plain(plain_locked, plain_options);
    ASSERT_TRUE(plain.start().isOk());
    auto fd = net::connectTcp("127.0.0.1", plain.port());
    ASSERT_TRUE(fd.ok());
    Bytes payload;
    encodeSubscribe(payload, 0);
    Bytes frame;
    appendFrame(frame, static_cast<uint8_t>(Opcode::Subscribe), 1,
                payload);
    ASSERT_TRUE(net::writeAll(fd.value(), frame).isOk());
    FrameReader reader;
    Frame reply;
    for (;;) {
        if (reader.next(reply).isOk())
            break;
        Bytes buf;
        size_t n = 0;
        Status err;
        auto r = net::readSome(fd.value(), buf, 4096, n, err);
        ASSERT_TRUE(r != net::IoResult::Eof &&
                    r != net::IoResult::Error);
        if (n > 0)
            reader.feed(buf);
    }
    EXPECT_EQ(reply.type,
              static_cast<uint8_t>(WireStatus::NotSupported));
    net::closeFd(fd.value());
    plain.stop();
}

TEST(Replication, ShutdownFlushesSendQueues)
{
    ScratchDir dir("repl_shutdown");
    auto primary =
        std::make_unique<ReplNode>(makeConfig(dir.path() + "/p"));
    NodeConfig fc = makeConfig(dir.path() + "/f");
    fc.primary_host = "127.0.0.1";
    fc.primary_port = primary->port();
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
