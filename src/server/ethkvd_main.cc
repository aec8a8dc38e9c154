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
 * Engines without internal locking (mem, hash, btree, log) are
 * wrapped in kv::LockedKVStore; lsm, hybrid, and cached lock
 * internally (the LSM engine additionally runs its own background
 * maintenance thread, so serving it bare keeps connections from
 * serializing behind flushes and compactions).
 * --port 0 binds an ephemeral port; --port-file writes the bound
 * port for test harnesses to discover. --env fault serves the
 * durable engines through a FaultInjectionEnv so fault drills can
 * exercise degraded mode end to end. SIGINT/SIGTERM trigger a
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
#include <cstring>
#include <memory>
#include <string>

#include "cachetier/cache_tier.hh"
#include "cachetier/prefetcher.hh"
#include "common/env.hh"
#include "common/fault_env.hh"
#include "common/logging.hh"
#include "common/status.hh"
#include "core/hybrid_store.hh"
#include "client/class_cache.hh"
#include "kvstore/btree_store.hh"
#include "kvstore/hash_store.hh"
#include "kvstore/locked_store.hh"
#include "kvstore/log_store.hh"
#include "kvstore/lsm_store.hh"
#include "kvstore/mem_store.hh"
#include "kvstore/instrumented_store.hh"
#include "kvstore/sharded_store.hh"
#include "obs/metrics.hh"
#include "obs/metrics_writer.hh"
#include "obs/slow_op_log.hh"
#include "obs/trace_event.hh"
#include "server/net_socket.hh"
#include "server/replication.hh"
#include "server/server.hh"

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

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --engine <mem|hash|btree|log|lsm|hybrid|cached>"
        "  (default hybrid)\n"
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

/** Owns whichever engine stack --engine selected. */
struct EngineStack
{
    std::unique_ptr<FaultInjectionEnv> fault_env;
    std::unique_ptr<kv::KVStore> base;      //!< The engine itself.
    std::unique_ptr<kv::KVStore> wrapper;   //!< Lock or cache shim.
    kv::KVStore *serve = nullptr;           //!< What ethkvd serves.
};

struct Flags
{
    std::string engine = "hybrid";
    std::string host = "127.0.0.1";
    int port = 7070;
    std::string port_file;
    int workers = 4;
    std::string dir;
    bool sync = false;
    std::string env_kind = "posix";
    uint64_t fault_seed = 1;
    uint64_t checkpoint_wal_bytes = 0;
    uint64_t memtable_bytes = 0;
    int shards = 1;
    bool pin_cores = false;
    size_t max_frame_bytes = server::kDefaultMaxFrameBytes;
    uint64_t scan_limit = 4096;
    uint64_t scan_byte_budget = 0;
    std::string trace_path;
    int trace_sample_shift = 4;
    int stage_sample_shift = 4;
    int64_t slow_op_micros = 1000;
    uint64_t slow_op_capacity = 256;
    uint64_t metrics_interval_ms = 0;
    std::string metrics_file;
    bool repl = false;
    std::string follower_host;
    uint16_t follower_port = 0;
    bool repl_sync = false;
    uint64_t repl_segment_bytes = 0;
    int repl_ack_timeout_ms = 5000;
    int conn_idle_timeout_ms = 0;
    uint64_t cache_tier_bytes = 0;
    uint32_t cache_shards = 16;
    int prefetch_k = 4;
    std::string corr_table;
};

bool
parseFlags(int argc, char **argv, Flags &f)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&](const char *what) -> const char * {
            if (i + 1 >= argc)
                fatal("%s needs a value", what);
            return argv[++i];
        };
        if (arg == "--engine") {
            f.engine = next("--engine");
        } else if (arg == "--host") {
            f.host = next("--host");
        } else if (arg == "--port") {
            f.port = std::atoi(next("--port"));
        } else if (arg == "--port-file") {
            f.port_file = next("--port-file");
        } else if (arg == "--workers") {
            f.workers = std::atoi(next("--workers"));
        } else if (arg == "--dir") {
            f.dir = next("--dir");
        } else if (arg == "--sync") {
            f.sync = true;
        } else if (arg == "--env") {
            f.env_kind = next("--env");
        } else if (arg == "--fault-seed") {
            f.fault_seed = std::strtoull(
                next("--fault-seed"), nullptr, 10);
        } else if (arg == "--checkpoint-wal-bytes") {
            f.checkpoint_wal_bytes = std::strtoull(
                next("--checkpoint-wal-bytes"), nullptr, 10);
        } else if (arg == "--memtable-bytes") {
            f.memtable_bytes = std::strtoull(
                next("--memtable-bytes"), nullptr, 10);
        } else if (arg == "--shards") {
            f.shards = std::atoi(next("--shards"));
        } else if (arg == "--pin-cores") {
            f.pin_cores = true;
        } else if (arg == "--max-frame-bytes") {
            f.max_frame_bytes = std::strtoull(
                next("--max-frame-bytes"), nullptr, 10);
        } else if (arg == "--scan-limit") {
            f.scan_limit = std::strtoull(next("--scan-limit"),
                                         nullptr, 10);
        } else if (arg == "--scan-byte-budget") {
            f.scan_byte_budget = std::strtoull(
                next("--scan-byte-budget"), nullptr, 10);
        } else if (arg == "--trace") {
            f.trace_path = next("--trace");
            if (f.trace_path == "off")
                f.trace_path.clear();
        } else if (arg == "--trace-sample-shift") {
            f.trace_sample_shift =
                std::atoi(next("--trace-sample-shift"));
        } else if (arg == "--stage-sample-shift") {
            f.stage_sample_shift =
                std::atoi(next("--stage-sample-shift"));
        } else if (arg == "--slow-op-micros") {
            f.slow_op_micros = std::strtoll(
                next("--slow-op-micros"), nullptr, 10);
        } else if (arg == "--slow-op-capacity") {
            f.slow_op_capacity = std::strtoull(
                next("--slow-op-capacity"), nullptr, 10);
        } else if (arg == "--metrics-interval") {
            f.metrics_interval_ms = std::strtoull(
                next("--metrics-interval"), nullptr, 10);
        } else if (arg == "--metrics-file") {
            f.metrics_file = next("--metrics-file");
        } else if (arg == "--repl") {
            f.repl = true;
        } else if (arg == "--follower-of") {
            std::string hp = next("--follower-of");
            size_t colon = hp.rfind(':');
            if (colon == std::string::npos || colon == 0 ||
                colon + 1 >= hp.size())
                fatal("--follower-of wants host:port, got %s",
                      hp.c_str());
            f.follower_host = hp.substr(0, colon);
            f.follower_port = static_cast<uint16_t>(
                std::atoi(hp.c_str() + colon + 1));
        } else if (arg == "--repl-sync") {
            f.repl_sync = true;
        } else if (arg == "--repl-segment-bytes") {
            f.repl_segment_bytes = std::strtoull(
                next("--repl-segment-bytes"), nullptr, 10);
        } else if (arg == "--repl-ack-timeout-ms") {
            f.repl_ack_timeout_ms =
                std::atoi(next("--repl-ack-timeout-ms"));
        } else if (arg == "--conn-idle-timeout-ms") {
            f.conn_idle_timeout_ms =
                std::atoi(next("--conn-idle-timeout-ms"));
        } else if (arg == "--cache-tier-bytes") {
            f.cache_tier_bytes = std::strtoull(
                next("--cache-tier-bytes"), nullptr, 10);
        } else if (arg == "--cache-shards") {
            f.cache_shards = static_cast<uint32_t>(std::strtoul(
                next("--cache-shards"), nullptr, 10));
        } else if (arg == "--prefetch-k") {
            f.prefetch_k = std::atoi(next("--prefetch-k"));
        } else if (arg == "--corr-table") {
            f.corr_table = next("--corr-table");
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

Status
buildEngine(const Flags &f, obs::TraceEventLog *trace_log,
            EngineStack &stack)
{
    Env *env = Env::defaultEnv();
    if (f.env_kind == "fault") {
        stack.fault_env = std::make_unique<FaultInjectionEnv>(
            env, f.fault_seed);
        env = stack.fault_env.get();
    } else if (f.env_kind != "posix") {
        return Status::invalidArgument("unknown --env " +
                                       f.env_kind);
    }
    if (!f.dir.empty()) {
        Status s = env->createDirs(f.dir);
        if (!s.isOk())
            return s;
    }

    if (f.shards < 1 || f.shards > 256)
        return Status::invalidArgument(
            "--shards must be in [1, 256]");
    const bool sharded = f.shards > 1;
    if (sharded && !f.dir.empty() &&
        (f.engine == "lsm" || f.engine == "log")) {
        // Reopening a durable dir with a different shard count
        // would silently misroute every key; the marker refuses.
        Status s = kv::ShardedKVStore::checkShardMarker(
            env, f.dir, static_cast<uint32_t>(f.shards));
        if (!s.isOk())
            return s;
    }

    // Builds one engine instance rooted at `dir` (ignored by the
    // in-memory engines). Sets `internally_locked` when the
    // instance is safe for concurrent callers on its own.
    // `tl` is the trace sink — for a sharded lsm only shard 0
    // gets it, because maintenance spans use a fixed track id and
    // N shards sharing one track would interleave illegibly.
    auto make_one = [&](const std::string &dir,
                        obs::TraceEventLog *tl,
                        std::unique_ptr<kv::KVStore> &out,
                        bool &internally_locked) -> Status {
        internally_locked = false;
        if (f.engine == "mem") {
            out = std::make_unique<kv::MemStore>();
        } else if (f.engine == "hash") {
            out = std::make_unique<kv::HashStore>();
        } else if (f.engine == "btree") {
            out = std::make_unique<kv::BTreeStore>();
        } else if (f.engine == "log") {
            kv::LogStoreOptions log_options;
            log_options.dir = dir;
            log_options.sync_appends = f.sync;
            log_options.env = env;
            log_options.checkpoint_wal_bytes =
                f.checkpoint_wal_bytes;
            auto store = kv::AppendLogStore::open(log_options);
            if (!store.ok())
                return store.status();
            out = store.take();
        } else if (f.engine == "lsm") {
            if (f.dir.empty())
                return Status::invalidArgument(
                    "--engine lsm needs --dir");
            kv::LSMOptions options;
            options.dir = dir;
            options.sync_wal = f.sync;
            options.env = env;
            options.trace_log = tl;
            if (f.memtable_bytes > 0)
                options.memtable_bytes = f.memtable_bytes;
            auto store = kv::LSMStore::open(options);
            if (!store.ok())
                return store.status();
            out = store.take();
            // LSMStore is internally thread-safe with background
            // maintenance; serving it bare keeps worker threads
            // from serializing behind flushes and compactions.
            internally_locked = true;
        } else if (f.engine == "hybrid" ||
                   f.engine == "cached") {
            // The hybrid router locks internally (per-route
            // shards); its engines are in-memory (log dir is
            // ignored there).
            core::HybridKVStore::Options options;
            out = std::make_unique<core::HybridKVStore>(options);
            internally_locked = true;
        } else {
            return Status::invalidArgument("unknown --engine " +
                                           f.engine);
        }
        return Status::ok();
    };

    bool internally_locked = false;
    if (!sharded) {
        Status s = make_one(f.dir, trace_log, stack.base,
                            internally_locked);
        if (!s.isOk())
            return s;
    } else {
        // Sharded engine (DESIGN.md §15): N independent instances
        // behind a hash-partitioning router. Each durable shard
        // owns a subdirectory — its own WAL, manifest, and (lsm)
        // maintenance thread.
        std::vector<std::unique_ptr<kv::KVStore>> shards;
        shards.reserve(static_cast<size_t>(f.shards));
        for (int i = 0; i < f.shards; ++i) {
            std::string sdir;
            if (!f.dir.empty()) {
                sdir = f.dir + "/shard-" + std::to_string(i);
                Status s = env->createDirs(sdir);
                if (!s.isOk())
                    return s;
            }
            std::unique_ptr<kv::KVStore> one;
            Status s = make_one(
                sdir, i == 0 ? trace_log : nullptr, one,
                internally_locked);
            if (!s.isOk())
                return s;
            shards.push_back(std::move(one));
        }
        kv::ShardedOptions sopts;
        sopts.lock_shards = !internally_locked;
        stack.base = std::make_unique<kv::ShardedKVStore>(
            std::move(shards), sopts);
        // The router's data path is lock-free and the shards are
        // (made) thread-safe, so the stack never needs the big
        // outer lock.
        internally_locked = true;
    }

    if (f.engine == "cached") {
        stack.wrapper = std::make_unique<client::CachingKVStore>(
            *stack.base, client::CacheConfig{});
    } else if (!internally_locked) {
        stack.wrapper =
            std::make_unique<kv::LockedKVStore>(*stack.base);
    }
    stack.serve =
        stack.wrapper ? stack.wrapper.get() : stack.base.get();
    return Status::ok();
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
    Flags flags;
    if (!parseFlags(argc, argv, flags))
        return 2;
    obs::installExitDump(metrics_out);

    // Absolute-clock log: spans line up with tracing clients when
    // merged. ~64k spans caps a long run at a few MB of trace.
    std::unique_ptr<obs::TraceEventLog> trace_log;
    if (!flags.trace_path.empty()) {
        trace_log = std::make_unique<obs::TraceEventLog>(
            /*absolute_clock=*/true, /*max_spans=*/65536);
        trace_log->setProcessLabel(1, "ethkvd");
    }

    EngineStack stack;
    buildEngine(flags, trace_log.get(), stack)
        .expectOk("engine setup");

    // Replication (DESIGN.md §13): the hub owns the shipping log
    // and wraps the engine so "apply + log append" is one ordered
    // step. The log lives under <dir>/repl on the same Env as the
    // engine, so fault drills cover the replication path too.
    std::unique_ptr<server::ReplicationHub> repl_hub;
    kv::KVStore *serve = stack.serve;
    if (flags.repl || !flags.follower_host.empty()) {
        if (flags.dir.empty())
            fatal("replication needs --dir");
        server::ReplicationOptions ropts;
        ropts.dir = flags.dir + "/repl";
        ropts.sync_appends = flags.sync;
        ropts.sync_acks = flags.repl_sync;
        ropts.ack_timeout_ms = flags.repl_ack_timeout_ms;
        if (flags.repl_segment_bytes > 0)
            ropts.segment_bytes = flags.repl_segment_bytes;
        // Snapshots need a scan that covers the whole key space.
        ropts.snapshot_catch_up = flags.engine == "lsm" ||
                                  flags.engine == "btree" ||
                                  flags.engine == "mem";
        ropts.primary_host = flags.follower_host;
        ropts.primary_port = flags.follower_port;
        ropts.seed = flags.fault_seed;
        ropts.env = stack.fault_env.get(); // null = Posix
        auto hub = server::ReplicationHub::open(ropts);
        hub.status().expectOk("replication log");
        repl_hub = hub.take();
        serve = &repl_hub->wrap(*serve);
    }

    // Cache tier (DESIGN.md §14): stacked above replication so
    // primary-side mutations invalidate inline, while follower
    // replay — which mutates beneath this layer — invalidates via
    // the hub hook below. With --cache-tier-bytes 0 (default) the
    // stack is bit-identical to a cache-less build.
    std::unique_ptr<cachetier::CacheTier> cache_tier;
    std::unique_ptr<cachetier::CorrelationPrefetcher> prefetcher;
    if (flags.cache_tier_bytes > 0) {
        cachetier::CacheTierOptions copts;
        copts.capacity_bytes = flags.cache_tier_bytes;
        copts.shards = flags.cache_shards;
        cache_tier =
            std::make_unique<cachetier::CacheTier>(*serve, copts);
        if (flags.prefetch_k > 0) {
            cachetier::PrefetcherOptions popts;
            popts.top_k =
                static_cast<uint32_t>(flags.prefetch_k);
            prefetcher =
                std::make_unique<cachetier::CorrelationPrefetcher>(
                    *cache_tier, popts);
            if (!flags.corr_table.empty())
                prefetcher
                    ->loadTable(Env::defaultEnv(),
                                flags.corr_table)
                    .expectOk("corr table");
            cache_tier->setPrefetcher(prefetcher.get());
            prefetcher->start();
        }
        if (repl_hub) {
            cachetier::CacheTier *tier = cache_tier.get();
            repl_hub->setInvalidationHook(
                [tier](const std::vector<Bytes> &keys) {
                    for (const Bytes &k : keys)
                        tier->invalidate(k);
                });
        }
        serve = cache_tier.get();
    } else if (!flags.corr_table.empty()) {
        warn("ethkvd: --corr-table ignored without"
             " --cache-tier-bytes");
    }

    // Serve through the measuring decorator so op.engine.* metrics
    // (and the engine rows in STATS) are always populated.
    kv::InstrumentedKVStore instrumented(
        *serve, obs::MetricsRegistry::global(), "engine");

    server::ServerOptions options;
    options.host = flags.host;
    options.port = static_cast<uint16_t>(flags.port);
    options.workers = flags.workers;
    options.max_frame_bytes = flags.max_frame_bytes;
    options.scan_limit_max = flags.scan_limit;
    options.scan_byte_budget = flags.scan_byte_budget;
    options.trace_log = trace_log.get();
    options.trace_sample_shift = flags.trace_sample_shift;
    options.stage_sample_shift = flags.stage_sample_shift;
    options.slow_op_micros = flags.slow_op_micros;
    options.slow_op_capacity =
        static_cast<size_t>(flags.slow_op_capacity);
    options.repl = repl_hub.get();
    options.conn_idle_timeout_ms = flags.conn_idle_timeout_ms;
    options.pin_cores = flags.pin_cores;

    server::Server srv(instrumented, options);
    srv.start().expectOk("server start");
    // After the server: start() installed the ack-delivery hook,
    // and a follower's first replayed batch should find the
    // listener alive for symmetry with restarts.
    if (repl_hub)
        repl_hub->start().expectOk("replication start");

    obs::PeriodicMetricsWriter::Options writer_options;
    writer_options.path = flags.metrics_file;
    writer_options.interval_ms = flags.metrics_interval_ms;
    std::unique_ptr<obs::PeriodicMetricsWriter> metrics_writer;
    if (flags.metrics_interval_ms > 0 &&
        !flags.metrics_file.empty()) {
        metrics_writer = std::make_unique<obs::PeriodicMetricsWriter>(
            writer_options);
        metrics_writer->start();
    }

    if (!flags.port_file.empty()) {
        // The port file is how test harnesses discover an
        // ephemeral port; write it via the Env seam (tmp+rename so
        // a reader never sees a partial file).
        Env *env = Env::defaultEnv();
        std::string tmp = flags.port_file + ".tmp";
        auto file = env->newWritableFile(tmp);
        file.status().expectOk("port file");
        std::string text = std::to_string(srv.port()) + "\n";
        file.value()->append(text).expectOk("port file write");
        file.value()->close().expectOk("port file close");
        env->renameFile(tmp, flags.port_file)
            .expectOk("port file rename");
    }

    inform("ethkvd: engine=%s addr=%s:%u workers=%d%s%s",
           srv.engineName().c_str(), flags.host.c_str(),
           static_cast<unsigned>(srv.port()), flags.workers,
           flags.sync ? " sync" : "",
           repl_hub == nullptr   ? ""
           : repl_hub->isPrimary() ? " role=primary"
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
                            flags.trace_path);
        }
    }

    inform("ethkvd: shutting down");
    if (metrics_writer)
        metrics_writer->stop(); // writes one final snapshot
    srv.stop(); // joins threads, flushes the engine
    if (prefetcher)
        prefetcher->stop(); // after srv.stop(): no more GETs
    if (trace_log)
        writeTraceFile(*trace_log, flags.trace_path);
    return 0;
}
