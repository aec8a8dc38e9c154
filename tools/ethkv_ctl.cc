/**
 * @file
 * ethkv_ctl — replication control for a running ethkvd
 * (DESIGN.md §13).
 *
 * Subcommands:
 *
 *   ethkv_ctl promote --port-file /tmp/f.port
 *       PROMOTE a follower to primary. Prints the promoted node's
 *       replication-log end offset on success. Fails (exit 1) on a
 *       degraded follower — promoting a node that latched
 *       read-only after a replay error would serve a torn prefix.
 *
 *   ethkv_ctl wait-caught-up --port-file /tmp/f.port \
 *       --primary-port-file /tmp/p.port [--timeout-ms 30000]
 *       Read the primary's log end offset once (repl.log_end_offset
 *       in its STATS), then poll the follower's STATS until it is
 *       connected, not mid-snapshot, and has applied its log up to
 *       that offset. Every write the primary acked before the call
 *       is then in the follower's engine. The drills run this
 *       before PROMOTE, so no acked write is left behind on a dead
 *       primary's log, and before comparing digests. The
 *       follower's repl.lag_bytes cannot serve: it is measured
 *       against the primary end the follower last heard of, so it
 *       reads 0 right after a snapshot while the primary holds
 *       more. Exit 0 caught up, 3 on timeout.
 *
 *   ethkv_ctl role --port <n>
 *       Print the node's replication role (primary / follower /
 *       none) from STATS.
 *
 *   ethkv_ctl digest --port <n>
 *       Page a SCAN over the whole key space and print
 *       "<keys> <xxhash64 hex>" of the key/value pairs in order.
 *       Two nodes holding the same data print the same line; the
 *       retention drill compares a follower with its primary so.
 *
 * All wire access goes through the client library, so the tool
 * inherits its connect/read timeouts: a dead server fails fast
 * instead of wedging the drill.
 */

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/logging.hh"
#include "common/status.hh"
#include "common/varint.hh"
#include "common/xxhash.hh"
#include "obs/json.hh"
#include "server/client.hh"

namespace
{

using namespace ethkv;

struct Flags
{
    std::string command;
    std::string host = "127.0.0.1";
    int port = 0;
    std::string port_file;
    int primary_port = 0;
    std::string primary_port_file;
    uint64_t timeout_ms = 30000;
    uint64_t interval_ms = 50;
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s <promote|wait-caught-up|role|digest>"
        " [options]\n"
        "  --host <ipv4>       server address (default"
        " 127.0.0.1)\n"
        "  --port <n>          server port\n"
        "  --port-file <path>  read the port from a file\n"
        "  --primary-port <n>, --primary-port-file <path>\n"
        "                      wait-caught-up: the primary whose"
        " current log end\n"
        "                      the follower must reach\n"
        "  --timeout-ms <n>    wait-caught-up deadline"
        " (default 30000)\n"
        "  --interval-ms <n>   wait-caught-up poll period"
        " (default 50)\n",
        argv0);
}

bool
parseFlags(int argc, char **argv, Flags &f)
{
    if (argc < 2) {
        usage(argv[0]);
        return false;
    }
    f.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&](const char *what) -> const char * {
            if (i + 1 >= argc)
                fatal("%s needs a value", what);
            return argv[++i];
        };
        if (arg == "--host") {
            f.host = next("--host");
        } else if (arg == "--port") {
            f.port = std::atoi(next("--port"));
        } else if (arg == "--port-file") {
            f.port_file = next("--port-file");
        } else if (arg == "--primary-port") {
            f.primary_port = std::atoi(next("--primary-port"));
        } else if (arg == "--primary-port-file") {
            f.primary_port_file = next("--primary-port-file");
        } else if (arg == "--timeout-ms") {
            f.timeout_ms = std::strtoull(next("--timeout-ms"),
                                         nullptr, 10);
        } else if (arg == "--interval-ms") {
            f.interval_ms = std::strtoull(next("--interval-ms"),
                                          nullptr, 10);
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return false;
        } else {
            std::fprintf(stderr, "unknown flag: %s\n",
                         arg.c_str());
            usage(argv[0]);
            return false;
        }
    }
    return true;
}

int
resolvePort(int port, const std::string &port_file)
{
    if (port_file.empty()) {
        if (port <= 0)
            fatal("need a port or a port file");
        return port;
    }
    for (int attempt = 0; attempt < 1000; ++attempt) {
        std::FILE *fp = std::fopen(port_file.c_str(), "r");
        if (fp) {
            int port = 0;
            int got = std::fscanf(fp, "%d", &port);
            std::fclose(fp);
            if (got == 1 && port > 0)
                return port;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(10));
    }
    fatal("port file %s never appeared", port_file.c_str());
}

/** Fetch + parse STATS; fatal on wire errors, not on lag. */
obs::JsonValue
fetchStats(server::Client &client)
{
    Bytes doc;
    client.stats(doc).expectOk("STATS");
    obs::JsonValue root;
    obs::parseJson(doc, root).expectOk("STATS parse");
    return root;
}

/** Gauge lookup under metrics.gauges; nullptr when absent. */
const obs::JsonValue *
findGauge(const obs::JsonValue &root, const std::string &name)
{
    const obs::JsonValue *metrics = root.find("metrics");
    if (metrics == nullptr)
        return nullptr;
    const obs::JsonValue *gauges = metrics->find("gauges");
    return gauges == nullptr ? nullptr : gauges->find(name);
}

/** Gauge value; 0 when absent. */
uint64_t
gaugeU64(const obs::JsonValue &root, const std::string &name)
{
    const obs::JsonValue *v = findGauge(root, name);
    return v == nullptr ? 0 : v->asU64();
}

int
cmdPromote(server::Client &client)
{
    uint64_t end_offset = 0;
    Status s = client.promote(end_offset);
    if (!s.isOk()) {
        std::fprintf(stderr, "promote failed: %s\n",
                     s.toString().c_str());
        return 1;
    }
    std::printf("promoted; log end offset %" PRIu64 "\n",
                end_offset);
    return 0;
}

/** The primary's replication-log end offset, read once. */
uint64_t
primaryLogEnd(const Flags &flags)
{
    auto primary = server::Client::open(
        flags.host,
        static_cast<uint16_t>(resolvePort(flags.primary_port,
                                          flags.primary_port_file)));
    primary.status().expectOk("connect to the primary");
    obs::JsonValue root = fetchStats(*primary.value());
    const obs::JsonValue *end = findGauge(root, "repl.log_end_offset");
    if (end == nullptr)
        fatal("the primary's STATS has no repl.log_end_offset; is "
              "it serving with --repl?");
    return end->asU64();
}

int
cmdWaitCaughtUp(server::Client &client, const Flags &flags)
{
    const uint64_t target = primaryLogEnd(flags);
    auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(flags.timeout_ms);
    while (true) {
        obs::JsonValue root = fetchStats(client);
        uint64_t connected =
            gaugeU64(root, "repl.follower_connected");
        uint64_t pending = gaugeU64(root, "repl.snapshot_pending");
        uint64_t end = gaugeU64(root, "repl.log_end_offset");
        if (connected == 1 && pending == 0 && end >= target) {
            std::printf("caught up\n");
            return 0;
        }
        if (std::chrono::steady_clock::now() >= deadline) {
            std::fprintf(stderr,
                         "timed out: connected=%" PRIu64
                         " snapshot_pending=%" PRIu64
                         " log_end=%" PRIu64 " target=%" PRIu64
                         "\n",
                         connected, pending, end, target);
            return 3;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(flags.interval_ms));
    }
}

int
cmdRole(server::Client &client)
{
    obs::JsonValue root = fetchStats(client);
    const obs::JsonValue *role = root.find("repl_role");
    std::printf("%s\n", role != nullptr && role->isString()
                            ? role->string.c_str()
                            : "none");
    return 0;
}

int
cmdDigest(server::Client &client)
{
    uint64_t keys = 0;
    uint64_t hash = 0;
    Bytes start;
    for (;;) {
        server::ScanResult page;
        client.scan(start, BytesView(), 1024, page).expectOk("SCAN");
        for (const server::ScanEntry &e : page.entries) {
            Bytes pair;
            appendVarint(pair, e.key.size());
            pair += e.key;
            pair += e.value;
            hash = xxhash64(pair, hash);
            ++keys;
        }
        if (!page.truncated || page.entries.empty())
            break;
        start = page.entries.back().key + '\0';
    }
    std::printf("%" PRIu64 " %016" PRIx64 "\n", keys, hash);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Flags flags;
    if (!parseFlags(argc, argv, flags))
        return 2;

    int port = resolvePort(flags.port, flags.port_file);
    auto client = server::Client::open(
        flags.host, static_cast<uint16_t>(port));
    client.status().expectOk("connect");

    if (flags.command == "promote")
        return cmdPromote(*client.value());
    if (flags.command == "wait-caught-up")
        return cmdWaitCaughtUp(*client.value(), flags);
    if (flags.command == "role")
        return cmdRole(*client.value());
    if (flags.command == "digest")
        return cmdDigest(*client.value());

    std::fprintf(stderr, "unknown command: %s\n",
                 flags.command.c_str());
    usage(argv[0]);
    return 2;
}
