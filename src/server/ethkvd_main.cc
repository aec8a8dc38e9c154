/**
 * @file
 * ethkvd — the ethkv network server.
 *
 * Serves any engine from the stack over the ethkv.wire.v1 protocol:
 *
 *   ethkvd --engine hybrid --port 7070 --workers 4
 *   ethkvd --engine log --dir /tmp/d --sync --port 0 \
 *          --port-file /tmp/d/port
 *
 * The engines are lsm, log, btree and hybrid; server/stack.hh
 * builds the node from the flags (DESIGN.md §9). A set-up it cannot
 * serve prints the reason and the usage and exits 2, as an unknown
 * flag does. --port 0 binds an ephemeral port; --port-file writes
 * the bound port for test harnesses to discover. --env fault serves
 * the durable engines through a FaultInjectionEnv so fault drills
 * can exercise degraded mode end to end. SIGINT/SIGTERM trigger a
 * graceful shutdown that flushes the engine before exit, so every
 * acknowledged synced write survives. --metrics-out dumps the
 * process-global registry (ethkv.metrics.v1) at exit.
 *
 * Observability (DESIGN.md §11): --trace <path> records the request
 * pipeline as Chrome trace_event spans and writes them at exit (and
 * on SIGUSR1); --slow-op-micros keeps a ring of the slowest
 * requests, dumped to stderr on SIGUSR1 and queryable over the wire
 * (SLOWLOG); --metrics-interval streams live metric snapshots with
 * deltas and rates to --metrics-file for dashboards (ethkv_mon).
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/status.hh"
#include "obs/metrics.hh"
#include "obs/metrics_writer.hh"
#include "obs/slow_op_log.hh"
#include "obs/trace_event.hh"
#include "server/net_socket.hh"
#include "server/replication.hh"
#include "server/server.hh"
#include "server/stack.hh"

namespace
{

using namespace ethkv;

//! eventfd the signal handlers poke; main blocks on it.
int g_shutdown_fd = -1;
//! Which signal woke us: shutdown vs dump-and-keep-running.
volatile std::sig_atomic_t g_got_term = 0;
volatile std::sig_atomic_t g_got_usr1 = 0;

extern "C" void
onSignal(int)
{
    // Async-signal-safe: a flag plus one write(2) on an eventfd.
    g_got_term = 1;
    server::net::signalEventFd(g_shutdown_fd);
}

extern "C" void
onUsr1(int)
{
    g_got_usr1 = 1;
    server::net::signalEventFd(g_shutdown_fd);
}

/** ethkvd's own outputs; the node itself is built from stack. */
struct DaemonOptions
{
    server::StackOptions stack;
    std::string port_file;
    std::string trace_path;
    obs::PeriodicMetricsWriter::Options live_metrics;

    DaemonOptions()
    {
        // ethkvd's defaults where they differ from the library's.
        stack.server.port = 7070;
        stack.server.slow_op_micros = 1000;
        live_metrics.interval_ms = 0;
    }
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --engine <lsm|log|btree|hybrid>  (default hybrid)\n"
        "  --host <ipv4>            bind address"
        " (default 127.0.0.1)\n"
        "  --port <n>               0 = ephemeral (default 7070)\n"
        "  --port-file <path>       write the bound port here\n"
        "  --workers <n>            event-loop threads"
        " (default 4)\n"
        "  --dir <path>             data dir (durable log/lsm)\n"
        "  --sync                   fdatasync per acked write\n"
        "  --env <posix|fault>      filesystem env (default"
        " posix)\n"
        "  --fault-seed <n>         FaultInjectionEnv seed\n"
        "  --checkpoint-wal-bytes <n>  log engine WAL checkpoint"
        " threshold (0 = off)\n"
        "  --memtable-bytes <n>     lsm memtable seal threshold"
        " (0 = default)\n"
        "  --shards <n>             hash-partition the engine"
        " across n independent shards (per-shard WAL/manifest/"
        "maintenance for lsm; default 1)\n"
        "  --pin-cores              pin worker thread i to CPU"
        " i mod cores\n"
        "  --max-frame-bytes <n>    per-frame payload cap\n"
        "  --scan-limit <n>         server-side SCAN cap\n"
        "  --scan-byte-budget <n>   SCAN response byte cap"
        " (0 = auto)\n"
        "  --metrics-out <path>     dump ethkv.metrics.v1 JSON at"
        " exit\n"
        "  --trace <path|off>       write Chrome trace_event JSON"
        " at exit / SIGUSR1\n"
        "  --trace-sample-shift <n> trace 1-in-2^n untraced"
        " requests (default 4)\n"
        "  --stage-sample-shift <n> stage histograms time"
        " 1-in-2^n requests (default 4)\n"
        "  --slow-op-micros <n>     ring-log requests slower than"
        " n us; -1 = off (default 1000)\n"
        "  --slow-op-capacity <n>   slow-op ring size"
        " (default 256)\n"
        "  --metrics-interval <ms>  live snapshot period; 0 = off\n"
        "  --metrics-file <path>    live snapshot destination\n"
        "  --repl                   replicate: keep a shipping log,"
        " accept SUBSCRIBE\n"
        "  --follower-of <h:p>      start as a follower of the"
        " primary at h:p\n"
        "  --repl-sync              hold mutation acks until every"
        " live follower acked\n"
        "  --repl-segment-bytes <n> replication log segment size\n"
        "  --repl-ack-timeout-ms <n> sync-ack fail-open deadline"
        " (default 5000)\n"
        "  --conn-idle-timeout-ms <n> close idle connections;"
        " 0 = never (default)\n"
        "  --cache-tier-bytes <n>   server-tier read cache budget;"
        " 0 = off (default)\n"
        "  --cache-shards <n>       cache tier shard count"
        " (default 16)\n"
        "  --prefetch-k <n>         correlated keys prefetched per"
        " miss; 0 = off (default 4)\n"
        "  --corr-table <path>      static correlation table for"
        " the prefetcher (hex key + followers per line;"
        " omit to mine online)\n"
        "\n"
        "SIGUSR1 dumps the slow-op log to stderr and rewrites the"
        " --trace file.\n",
        argv0);
}


bool
parseFlags(int argc, char **argv, DaemonOptions &d)
{
    server::StackOptions &f = d.stack;
    server::ServerOptions &srv = f.server;
    server::ReplicationOptions &repl = f.replication;
    // A usage error: print it and the usage (main exits 2).
    std::string bad;
    for (int i = 1; i < argc && bad.empty(); ++i) {
        std::string arg = argv[i];
        auto next = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                bad = std::string(what) + " needs a value";
                return "";
            }
            return argv[++i];
        };
        auto u64 = [&](const char *what) -> uint64_t {
            return std::strtoull(next(what), nullptr, 10);
        };
        if (arg == "--engine") {
            f.engine = next("--engine");
        } else if (arg == "--host") {
            srv.host = next("--host");
        } else if (arg == "--port") {
            srv.port = static_cast<uint16_t>(std::atoi(next("--port")));
        } else if (arg == "--port-file") {
            d.port_file = next("--port-file");
        } else if (arg == "--workers") {
            srv.workers = std::atoi(next("--workers"));
        } else if (arg == "--dir") {
            f.dir = next("--dir");
        } else if (arg == "--sync") {
            f.sync = true;
        } else if (arg == "--env") {
            f.env = next("--env");
        } else if (arg == "--fault-seed") {
            f.fault_seed = u64("--fault-seed");
        } else if (arg == "--checkpoint-wal-bytes") {
            f.checkpoint_wal_bytes = u64("--checkpoint-wal-bytes");
        } else if (arg == "--memtable-bytes") {
            f.memtable_bytes = u64("--memtable-bytes");
        } else if (arg == "--shards") {
            f.shards = std::atoi(next("--shards"));
        } else if (arg == "--pin-cores") {
            srv.pin_cores = true;
        } else if (arg == "--max-frame-bytes") {
            srv.max_frame_bytes = u64("--max-frame-bytes");
        } else if (arg == "--scan-limit") {
            srv.scan_limit_max = u64("--scan-limit");
        } else if (arg == "--scan-byte-budget") {
            srv.scan_byte_budget = u64("--scan-byte-budget");
        } else if (arg == "--trace") {
            d.trace_path = next("--trace");
            if (d.trace_path == "off")
                d.trace_path.clear();
        } else if (arg == "--trace-sample-shift") {
            srv.trace_sample_shift =
                std::atoi(next("--trace-sample-shift"));
        } else if (arg == "--stage-sample-shift") {
            srv.stage_sample_shift =
                std::atoi(next("--stage-sample-shift"));
        } else if (arg == "--slow-op-micros") {
            srv.slow_op_micros = std::strtoll(
                next("--slow-op-micros"), nullptr, 10);
        } else if (arg == "--slow-op-capacity") {
            srv.slow_op_capacity = u64("--slow-op-capacity");
        } else if (arg == "--metrics-interval") {
            d.live_metrics.interval_ms = u64("--metrics-interval");
        } else if (arg == "--metrics-file") {
            d.live_metrics.path = next("--metrics-file");
        } else if (arg == "--repl") {
            f.repl = true;
        } else if (arg == "--follower-of") {
            std::string hp = next("--follower-of");
            size_t colon = hp.rfind(':');
            if (colon == std::string::npos || colon == 0 ||
                colon + 1 >= hp.size()) {
                if (bad.empty())
                    bad = "--follower-of wants host:port, got " + hp;
                continue;
            }
            repl.primary_host = hp.substr(0, colon);
            repl.primary_port = static_cast<uint16_t>(
                std::atoi(hp.c_str() + colon + 1));
        } else if (arg == "--repl-sync") {
            repl.sync_acks = true;
        } else if (arg == "--repl-segment-bytes") {
            // 0 = the default segment size.
            uint64_t n = u64("--repl-segment-bytes");
            repl.segment_bytes =
                n > 0 ? n : server::ReplicationOptions{}.segment_bytes;
        } else if (arg == "--repl-ack-timeout-ms") {
            repl.ack_timeout_ms =
                std::atoi(next("--repl-ack-timeout-ms"));
        } else if (arg == "--conn-idle-timeout-ms") {
            srv.conn_idle_timeout_ms =
                std::atoi(next("--conn-idle-timeout-ms"));
        } else if (arg == "--cache-tier-bytes") {
            f.cache.capacity_bytes = u64("--cache-tier-bytes");
        } else if (arg == "--cache-shards") {
            f.cache.shards =
                static_cast<uint32_t>(u64("--cache-shards"));
        } else if (arg == "--prefetch-k") {
            int k = std::atoi(next("--prefetch-k"));
            f.prefetch.top_k = k > 0 ? static_cast<uint32_t>(k) : 0;
        } else if (arg == "--corr-table") {
            f.corr_table = next("--corr-table");
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return false;
        } else {
            bad = "unknown flag: " + arg;
        }
    }
    if (bad.empty())
        return true;
    std::fprintf(stderr, "ethkvd: %s\n", bad.c_str());
    usage(argv[0]);
    return false;
}

/** Write the trace log as Chrome trace JSON (tmp + rename). */
void
writeTraceFile(const obs::TraceEventLog &log,
               const std::string &path)
{
    if (path.empty())
        return;
    Env *env = Env::defaultEnv();
    std::string tmp = path + ".tmp";
    Status s =
        env->writeStringToFile(tmp, log.toJson(), /*sync=*/false);
    if (s.isOk())
        s = env->renameFile(tmp, path);
    if (!s.isOk()) {
        warn("ethkvd: trace write to %s failed: %s", path.c_str(),
             s.toString().c_str());
        return;
    }
    inform("ethkvd: wrote %zu trace spans to %s (%llu dropped)",
           log.size(), path.c_str(),
           static_cast<unsigned long long>(log.dropped()));
}

/** SIGUSR1 handler body: slow-op log to stderr, trace to disk. */
void
dumpDiagnostics(const server::Server &srv,
                const obs::TraceEventLog *trace_log,
                const std::string &trace_path)
{
    if (const obs::SlowOpLog *slow = srv.slowOpLog()) {
        std::string doc = slow->toJson();
        doc.push_back('\n');
        std::fputs(doc.c_str(), stderr);
        std::fflush(stderr);
    } else {
        warn("ethkvd: SIGUSR1 but --slow-op-micros is off");
    }
    if (trace_log != nullptr)
        writeTraceFile(*trace_log, trace_path);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string metrics_out =
        obs::consumeMetricsOutFlag(&argc, argv);
    DaemonOptions options;
    if (!parseFlags(argc, argv, options))
        return 2;
    obs::installExitDump(metrics_out);

    // Absolute-clock log: spans line up with tracing clients when
    // merged. ~64k spans caps a long run at a few MB of trace.
    std::unique_ptr<obs::TraceEventLog> trace_log;
    if (!options.trace_path.empty()) {
        trace_log = std::make_unique<obs::TraceEventLog>(
            /*absolute_clock=*/true, /*max_spans=*/65536);
        trace_log->setProcessLabel(1, "ethkvd");
        options.stack.server.trace_log = trace_log.get();
    }

    // A set-up the node cannot serve is a usage error, like an
    // unknown flag: print it and exit 2.
    auto built = server::Stack::build(options.stack);
    if (!built.ok()) {
        std::fprintf(stderr, "ethkvd: %s\n",
                     built.status().toString().c_str());
        usage(argv[0]);
        return 2;
    }
    std::unique_ptr<server::Stack> stack = built.take();
    server::Server &srv = stack->server();
    Status started = stack->start();
    if (!started.isOk()) {
        std::fprintf(stderr, "ethkvd: start: %s\n",
                     started.toString().c_str());
        return 1;
    }

    std::unique_ptr<obs::PeriodicMetricsWriter> metrics_writer;
    if (options.live_metrics.interval_ms > 0 &&
        !options.live_metrics.path.empty()) {
        metrics_writer = std::make_unique<obs::PeriodicMetricsWriter>(
            options.live_metrics);
        metrics_writer->start();
    }

    if (!options.port_file.empty()) {
        // The port file is how test harnesses discover an
        // ephemeral port; write it via the Env seam (tmp+rename so
        // a reader never sees a partial file).
        Env *env = Env::defaultEnv();
        std::string tmp = options.port_file + ".tmp";
        auto file = env->newWritableFile(tmp);
        file.status().expectOk("port file");
        std::string text = std::to_string(srv.port()) + "\n";
        file.value()->append(text).expectOk("port file write");
        file.value()->close().expectOk("port file close");
        env->renameFile(tmp, options.port_file)
            .expectOk("port file rename");
    }

    const server::ReplicationHub *hub = stack->hub();
    inform("ethkvd: engine=%s addr=%s:%u workers=%d%s%s",
           srv.engineName().c_str(),
           options.stack.server.host.c_str(),
           static_cast<unsigned>(srv.port()),
           options.stack.server.workers,
           options.stack.sync ? " sync" : "",
           hub == nullptr       ? ""
           : hub->isPrimary() ? " role=primary"
                              : " role=follower");

    auto shutdown_fd = server::net::makeEventFd();
    shutdown_fd.status().expectOk("shutdown eventfd");
    g_shutdown_fd = shutdown_fd.value();
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGUSR1, onUsr1);
    // A client vanishing mid-write must not kill the server.
    std::signal(SIGPIPE, SIG_IGN);

    // Block until a signal arrives. SIGUSR1 dumps diagnostics and
    // keeps serving; SIGINT/SIGTERM fall through to shutdown.
    while (true) {
        Status s = server::net::waitReadable(g_shutdown_fd, -1);
        if (!s.isOk())
            break;
        server::net::drainEventFd(g_shutdown_fd);
        if (g_got_term)
            break;
        if (g_got_usr1) {
            g_got_usr1 = 0;
            dumpDiagnostics(srv, trace_log.get(),
                            options.trace_path);
        }
    }

    inform("ethkvd: shutting down");
    if (metrics_writer)
        metrics_writer->stop(); // writes one final snapshot
    stack->stop();
    if (trace_log)
        writeTraceFile(*trace_log, options.trace_path);
    return 0;
}
