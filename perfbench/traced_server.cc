/**
 * @file
 * perf_traced_server — ethkvd's lsm stack rebuilt from the same
 * public constructors, with a timing decorator between each pair of
 * adjacent layers and a counting Env under the engine and the
 * replication log.
 *
 *   Server -> InstrumentedKVStore -> [cachetier] CacheTier
 *          -> [repl] ReplicatedKVStore -> [sharded] ShardedKVStore
 *          -> [lsm] LSMStore x N -> (env) CountingEnv
 *
 * A decorator is named after the layer it calls into. Each call is a
 * span (layer, op class, start, end, parent) on the calling thread's
 * stack; a layer's self time is its span minus its child spans, and
 * fdatasync calls are child spans of layer `env`. Aggregates are
 * reset on SIGUSR1 and frozen on SIGUSR2 (the load generator sends
 * them around its open-loop phase); SIGTERM stops the server and
 * writes --stats-out (aggregates) and --spans-out (the first spans
 * recorded, one line each).
 *
 * Accepts ethkvd's flags for the lsm engine as the benchmark passes
 * them (no --sync: no workload syncs every write). Bench-only flags:
 *   --stats-out <path>   --spans-out <path>
 *   --no-decorators      serve the bare stack (no decorators, plain
 *                        Env) to compare with ethkvd
 *   --delay-layer <name> --delay-us <n>  busy-wait n us inside that
 *                        layer's decorator on every request-path call
 */

#include <sys/eventfd.h>

#include <atomic>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cachetier/cache_tier.hh"
#include "cachetier/prefetcher.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "kvstore/instrumented_store.hh"
#include "kvstore/lsm_store.hh"
#include "kvstore/sharded_store.hh"
#include "obs/metrics.hh"
#include "obs/scoped_timer.hh"
#include "server/net_socket.hh"
#include "server/replication.hh"
#include "server/server.hh"

namespace
{

using namespace ethkv;

// -- Spans ---------------------------------------------------------

enum Layer : int
{
    kCacheTier,
    kRepl,
    kSharded,
    kLsm,
    kEnv,
    kLayers
};

const char *const kLayerNames[kLayers] = {"cachetier", "repl", "sharded",
                                          "lsm", "env"};

enum OpClass : int
{
    kGet,
    kWrite,
    kOther,
    kClasses
};

const char *const kClassNames[kClasses] = {"get", "write", "other"};

/** Aggregates for one (layer, op class). */
struct Cell
{
    obs::LatencyHistogram self_ns;
    obs::LatencyHistogram total_ns;
    std::atomic<uint64_t> background{0}; //!< Calls off the request path.
};

Cell g_cells[kLayers][kClasses];
std::atomic<uint64_t> g_user_bytes{0};
std::atomic<uint64_t> g_shard_ops[256];
Layer g_entry = kLsm;   //!< The layer the server calls into.
int g_delay_layer = -1; //!< Self-check: layer to slow down.
uint64_t g_delay_ns = 0;
std::atomic<uint64_t> g_next_thread{1};

/** One recorded span, kept for --spans-out. */
struct SpanRecord
{
    uint64_t request;
    uint64_t start_ns;
    uint64_t end_ns;
    int8_t layer;
    int8_t cls;
    int8_t parent; //!< Layer of the enclosing span, -1 at the top.
};

constexpr size_t kMaxSpans = 200000;
std::vector<SpanRecord> g_spans(kMaxSpans);
std::atomic<size_t> g_span_count{0};

struct Frame
{
    uint64_t start;
    uint64_t child_ns;
    int layer;
    bool on_request_path; //!< Inherited by child spans.
};

struct ThreadState
{
    Frame stack[16];
    int depth = 0;
    uint64_t thread_id = g_next_thread.fetch_add(1);
    uint64_t request_seq = 0;
    uint64_t request = 0;
};

thread_local ThreadState t_state;

void
busyWait(uint64_t ns)
{
    uint64_t end = obs::nowNanos() + ns;
    while (obs::nowNanos() < end) {
    }
}

/** RAII span on the calling thread's stack. */
class Span
{
  public:
    Span(Layer layer, OpClass cls) : layer_(layer), cls_(cls)
    {
        ThreadState &t = t_state;
        if (t.depth == 0) {
            on_request_path_ = layer == g_entry;
            if (on_request_path_)
                t.request = (t.thread_id << 40) | ++t.request_seq;
        } else if (t.depth <= 16) {
            on_request_path_ = t.stack[t.depth - 1].on_request_path;
        }
        if (t.depth < 16)
            t.stack[t.depth] = {obs::nowNanos(), 0, layer, on_request_path_};
        ++t.depth;
        if (on_request_path_ && layer == g_delay_layer)
            busyWait(g_delay_ns);
    }

    ~Span()
    {
        ThreadState &t = t_state;
        --t.depth;
        if (t.depth >= 16)
            return;
        uint64_t end = obs::nowNanos();
        const Frame &f = t.stack[t.depth];
        uint64_t dur = end - f.start;
        Cell &cell = g_cells[layer_][cls_];
        cell.total_ns.record(dur);
        cell.self_ns.record(dur - std::min(dur, f.child_ns));
        if (!on_request_path_)
            cell.background.fetch_add(1, std::memory_order_relaxed);
        int parent = -1;
        if (t.depth > 0) {
            t.stack[t.depth - 1].child_ns += dur;
            parent = t.stack[t.depth - 1].layer;
        }
        size_t slot = g_span_count.fetch_add(1, std::memory_order_relaxed);
        if (slot < kMaxSpans) {
            g_spans[slot] = {on_request_path_ ? t.request : 0, f.start, end,
                             static_cast<int8_t>(layer_),
                             static_cast<int8_t>(cls_),
                             static_cast<int8_t>(parent)};
        }
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Layer layer_;
    OpClass cls_;
    bool on_request_path_ = true;
};

/** KVStore decorator: one span per call into `inner`. */
class TimedStore final : public kv::KVStore
{
  public:
    TimedStore(kv::KVStore &inner, Layer layer, int shard = -1)
        : inner_(inner), layer_(layer), shard_(shard)
    {}

    TimedStore(std::unique_ptr<kv::KVStore> owned, Layer layer, int shard)
        : owned_(std::move(owned)), inner_(*owned_), layer_(layer),
          shard_(shard)
    {}

    Status
    put(BytesView key, BytesView value) override
    {
        Span s(layer_, kWrite);
        count(key.size() + value.size());
        return inner_.put(key, value);
    }

    Status
    get(BytesView key, Bytes &value) override
    {
        Span s(layer_, kGet);
        count(0);
        return inner_.get(key, value);
    }

    Status
    del(BytesView key) override
    {
        Span s(layer_, kWrite);
        count(key.size());
        return inner_.del(key);
    }

    Status
    scan(BytesView start, BytesView end,
         const kv::ScanCallback &cb) override
    {
        Span s(layer_, kOther);
        count(0);
        return inner_.scan(start, end, cb);
    }

    Status
    apply(const kv::WriteBatch &batch) override
    {
        Span s(layer_, kWrite);
        count(batch.byteSize());
        return inner_.apply(batch);
    }

    bool
    contains(BytesView key) override
    {
        Span s(layer_, kGet);
        count(0);
        return inner_.contains(key);
    }

    Status flush() override { return inner_.flush(); }
    const kv::IOStats &stats() const override { return inner_.stats(); }
    std::string name() const override { return inner_.name(); }
    uint64_t liveKeyCount() override { return inner_.liveKeyCount(); }

  private:
    void
    count(uint64_t user_bytes)
    {
        if (layer_ == g_entry && t_state.depth == 1)
            g_user_bytes.fetch_add(user_bytes, std::memory_order_relaxed);
        if (shard_ >= 0)
            g_shard_ops[shard_].fetch_add(1, std::memory_order_relaxed);
    }

    std::unique_ptr<kv::KVStore> owned_;
    kv::KVStore &inner_;
    Layer layer_;
    int shard_;
};

// -- Counting Env --------------------------------------------------

enum FileKind : int
{
    kWal,
    kSst,
    kManifest,
    kReplLog,
    kKinds
};

const char *const kKindNames[kKinds] = {"wal", "sst", "manifest", "repl"};

std::atomic<uint64_t> g_append_bytes[kKinds];
std::atomic<uint64_t> g_syncs[kKinds];
obs::LatencyHistogram g_sync_ns;
std::atomic<uint64_t> g_sync_busy_ns{0};

FileKind
kindOf(const std::string &path)
{
    std::string base = path.substr(path.rfind('/') + 1);
    if (base.rfind("repl-", 0) == 0)
        return kReplLog;
    if (base.size() > 4 && base.compare(base.size() - 4, 4, ".sst") == 0)
        return kSst;
    if (base.rfind("wal", 0) == 0)
        return kWal;
    return kManifest;
}

class CountingFile final : public WritableFile
{
  public:
    CountingFile(std::unique_ptr<WritableFile> inner, FileKind kind)
        : inner_(std::move(inner)), kind_(kind)
    {}

    Status
    append(BytesView data) override
    {
        g_append_bytes[kind_].fetch_add(data.size(),
                                        std::memory_order_relaxed);
        return inner_->append(data);
    }

    Status flush() override { return inner_->flush(); }

    Status
    sync() override
    {
        uint64_t t0 = obs::nowNanos();
        Status s;
        {
            Span span(kEnv, kWrite);
            s = inner_->sync();
        }
        uint64_t dur = obs::nowNanos() - t0;
        g_syncs[kind_].fetch_add(1, std::memory_order_relaxed);
        g_sync_ns.record(dur);
        g_sync_busy_ns.fetch_add(dur, std::memory_order_relaxed);
        return s;
    }

    Status close() override { return inner_->close(); }

  private:
    std::unique_ptr<WritableFile> inner_;
    FileKind kind_;
};

class CountingEnv final : public Env
{
  public:
    explicit CountingEnv(Env *base) : base_(base) {}

    Result<std::unique_ptr<WritableFile>>
    newWritableFile(const std::string &path) override
    {
        return wrap(base_->newWritableFile(path), path);
    }

    Result<std::unique_ptr<WritableFile>>
    newAppendableFile(const std::string &path) override
    {
        return wrap(base_->newAppendableFile(path), path);
    }

    Result<std::unique_ptr<RandomAccessFile>>
    newRandomAccessFile(const std::string &path) override
    {
        return base_->newRandomAccessFile(path);
    }

    Result<std::unique_ptr<SequentialFile>>
    newSequentialFile(const std::string &path) override
    {
        return base_->newSequentialFile(path);
    }

    bool fileExists(const std::string &p) override
    {
        return base_->fileExists(p);
    }
    Result<uint64_t> fileSize(const std::string &p) override
    {
        return base_->fileSize(p);
    }
    Status createDirs(const std::string &d) override
    {
        return base_->createDirs(d);
    }
    Status removeFile(const std::string &p) override
    {
        return base_->removeFile(p);
    }
    Status truncateFile(const std::string &p, uint64_t n) override
    {
        return base_->truncateFile(p, n);
    }
    Status renameFile(const std::string &a, const std::string &b) override
    {
        return base_->renameFile(a, b);
    }
    Status syncDir(const std::string &d) override
    {
        return base_->syncDir(d);
    }

  private:
    Result<std::unique_ptr<WritableFile>>
    wrap(Result<std::unique_ptr<WritableFile>> file, const std::string &path)
    {
        if (!file.ok())
            return file;
        std::unique_ptr<WritableFile> inner = file.take();
        return std::unique_ptr<WritableFile>(
            std::make_unique<CountingFile>(std::move(inner), kindOf(path)));
    }

    Env *base_;
};

// -- Snapshots of the counters the aggregates do not cover --------

struct Counters
{
    uint64_t append_bytes[kKinds] = {};
    uint64_t syncs[kKinds] = {};
    uint64_t sync_busy_ns = 0;
    uint64_t user_bytes = 0;
    uint64_t shard_ops[256] = {};
    uint64_t lsm_reads = 0;
    uint64_t lsm_bytes_read = 0;
    uint64_t lsm_compaction_bytes = 0;
    uint64_t lsm_flush_bytes = 0;
    uint64_t registry[10] = {};
    uint64_t t_ns = 0;
};

const char *const kRegistryCounters[10] = {
    "cachetier.hits",          "cachetier.misses",
    "cachetier.evictions",     "cachetier.invalidations",
    "cachetier.admission_rejects", "cachetier.prefetch.hits",
    "cachetier.prefetch.issued", "kv.stall_micros",
    "cachetier.prefetch.redundant", "kv.bg_errors",
};

Counters
snapshotCounters(const std::vector<kv::LSMStore *> &lsms, int shards)
{
    Counters c;
    for (int k = 0; k < kKinds; ++k) {
        c.append_bytes[k] = g_append_bytes[k].load();
        c.syncs[k] = g_syncs[k].load();
    }
    c.sync_busy_ns = g_sync_busy_ns.load();
    c.user_bytes = g_user_bytes.load();
    for (int i = 0; i < shards; ++i)
        c.shard_ops[i] = g_shard_ops[i].load();
    for (kv::LSMStore *lsm : lsms) {
        const kv::IOStats &io = lsm->stats();
        c.lsm_reads += io.user_reads;
        c.lsm_bytes_read += io.bytes_read;
        c.lsm_compaction_bytes += io.compaction_bytes;
        c.lsm_flush_bytes += io.flush_bytes;
    }
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    for (int i = 0; i < 10; ++i)
        c.registry[i] = reg.counter(kRegistryCounters[i]).value();
    c.t_ns = obs::nowNanos();
    return c;
}

//! InstrumentedKVStore's GET timer above the entry layer: a second,
//! independent clock on the same calls as the entry span.
const char *const kEngineGetHist = "op.engine.get_ns";

void
resetAggregates()
{
    for (auto &row : g_cells) {
        for (Cell &cell : row) {
            cell.self_ns.reset();
            cell.total_ns.reset();
            cell.background = 0;
        }
    }
    g_sync_ns.reset();
    obs::MetricsRegistry::global().histogram(kEngineGetHist).reset();
}

/** Percentile from histogram buckets, interpolated in the bucket. */
double
percentile(const obs::HistogramSnapshot &h, double q)
{
    if (h.count == 0)
        return 0;
    double rank = q * static_cast<double>(h.count);
    uint64_t seen = 0;
    for (size_t i = 0; i < h.buckets.size(); ++i) {
        uint64_t n = h.buckets[i];
        if (n == 0)
            continue;
        if (static_cast<double>(seen + n) >= rank) {
            double lo = static_cast<double>(
                obs::LatencyHistogram::bucketLowerBound(i));
            double hi = static_cast<double>(
                obs::LatencyHistogram::bucketLowerBound(i + 1));
            double frac = (rank - static_cast<double>(seen)) /
                          static_cast<double>(n);
            return lo + (hi - lo) * frac;
        }
        seen += n;
    }
    return static_cast<double>(h.max);
}

void
appendHist(std::string &out, const char *name,
           const obs::LatencyHistogram &h)
{
    obs::HistogramSnapshot s = h.snapshot();
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "\"%s\": {\"count\": %" PRIu64 ", \"p50_ns\": %.1f,"
                  " \"p99_ns\": %.1f, \"sum_ns\": %" PRIu64 "}",
                  name, s.count, percentile(s, 0.50), percentile(s, 0.99),
                  s.sum);
    out += buf;
}

/** The aggregates since the last reset plus counter deltas. */
std::string
statsJson(const Counters &from, const Counters &to, int shards)
{
    std::string out = "{\n \"elapsed_s\": ";
    out += std::to_string(static_cast<double>(to.t_ns - from.t_ns) / 1e9);
    out += ",\n \"entry\": \"";
    out += kLayerNames[g_entry];
    out += "\",\n \"layers\": {";
    for (int l = 0; l < kLayers; ++l) {
        out += l ? ",\n  \"" : "\n  \"";
        out += kLayerNames[l];
        out += "\": {";
        for (int c = 0; c < kClasses; ++c) {
            Cell &cell = g_cells[l][c];
            out += c ? ", \"" : "\"";
            out += kClassNames[c];
            out += "\": {";
            appendHist(out, "self", cell.self_ns);
            out += ", ";
            appendHist(out, "total", cell.total_ns);
            out += ", \"background\": " +
                   std::to_string(cell.background.load()) + "}";
        }
        out += "}";
    }
    out += "},\n ";
    appendHist(out, "sync", g_sync_ns);
    out += ",\n ";
    appendHist(out, "engine_get",
               obs::MetricsRegistry::global().histogram(kEngineGetHist));
    out += ",\n \"files\": {";
    for (int k = 0; k < kKinds; ++k) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"append_bytes\": %" PRIu64
                      ", \"syncs\": %" PRIu64 "}",
                      k ? ", " : "", kKindNames[k],
                      to.append_bytes[k] - from.append_bytes[k],
                      to.syncs[k] - from.syncs[k]);
        out += buf;
    }
    out += "},\n \"sync_busy_ns\": " +
           std::to_string(to.sync_busy_ns - from.sync_busy_ns);
    out += ",\n \"user_bytes\": " +
           std::to_string(to.user_bytes - from.user_bytes);
    out += ",\n \"shard_ops\": [";
    for (int i = 0; i < shards; ++i) {
        out += i ? ", " : "";
        out += std::to_string(to.shard_ops[i] - from.shard_ops[i]);
    }
    out += "],\n \"lsm\": {\"user_reads\": " +
           std::to_string(to.lsm_reads - from.lsm_reads) +
           ", \"bytes_read\": " +
           std::to_string(to.lsm_bytes_read - from.lsm_bytes_read) +
           ", \"compaction_bytes\": " +
           std::to_string(to.lsm_compaction_bytes -
                          from.lsm_compaction_bytes) +
           ", \"flush_bytes\": " +
           std::to_string(to.lsm_flush_bytes - from.lsm_flush_bytes) +
           "},\n \"counters\": {";
    for (int i = 0; i < 10; ++i) {
        out += i ? ", \"" : "\"";
        out += kRegistryCounters[i];
        out += "\": " + std::to_string(to.registry[i] - from.registry[i]);
    }
    out += "}\n}\n";
    return out;
}

void
writeSpans(const std::string &path)
{
    std::FILE *fp = std::fopen(path.c_str(), "w");
    if (fp == nullptr)
        return;
    std::fprintf(fp, "request,layer,class,start_ns,end_ns,parent\n");
    size_t n = std::min(g_span_count.load(), kMaxSpans);
    for (size_t i = 0; i < n; ++i) {
        const SpanRecord &s = g_spans[i];
        std::fprintf(fp, "%" PRIu64 ",%s,%s,%" PRIu64 ",%" PRIu64 ",%s\n",
                     s.request, kLayerNames[s.layer], kClassNames[s.cls],
                     s.start_ns, s.end_ns,
                     s.parent < 0 ? "" : kLayerNames[s.parent]);
    }
    std::fclose(fp);
}

// -- Flags and main ------------------------------------------------

struct Flags
{
    std::string dir;
    std::string port_file;
    std::string host = "127.0.0.1";
    int port = 0;
    int workers = 4;
    int shards = 1;
    bool repl = false;
    uint64_t memtable_bytes = 0;
    uint64_t cache_tier_bytes = 0;
    uint32_t cache_shards = 16;
    int prefetch_k = 4;
    std::string corr_table;
    size_t max_frame_bytes = server::kDefaultMaxFrameBytes;
    uint64_t scan_limit = 4096;
    uint64_t scan_byte_budget = 0;
    int stage_sample_shift = 4;
    int64_t slow_op_micros = 1000;
    int conn_idle_timeout_ms = 0;
    std::string stats_out;
    std::string spans_out;
    bool decorators = true;
    std::string delay_layer;
    uint64_t delay_us = 0;
};

bool
parseFlags(int argc, char **argv, Flags &f)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--repl") {
            f.repl = true;
            continue;
        }
        if (arg == "--no-decorators") {
            f.decorators = false;
            continue;
        }
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s needs a value\n", arg.c_str());
            return false;
        }
        std::string v = argv[++i];
        auto u64 = [&] { return std::strtoull(v.c_str(), nullptr, 10); };
        if (arg == "--dir") f.dir = v;
        else if (arg == "--port-file") f.port_file = v;
        else if (arg == "--host") f.host = v;
        else if (arg == "--port") f.port = std::atoi(v.c_str());
        else if (arg == "--workers") f.workers = std::atoi(v.c_str());
        else if (arg == "--shards") f.shards = std::atoi(v.c_str());
        else if (arg == "--memtable-bytes") f.memtable_bytes = u64();
        else if (arg == "--cache-tier-bytes") f.cache_tier_bytes = u64();
        else if (arg == "--cache-shards")
            f.cache_shards = static_cast<uint32_t>(u64());
        else if (arg == "--prefetch-k") f.prefetch_k = std::atoi(v.c_str());
        else if (arg == "--corr-table") f.corr_table = v;
        else if (arg == "--max-frame-bytes") f.max_frame_bytes = u64();
        else if (arg == "--scan-limit") f.scan_limit = u64();
        else if (arg == "--scan-byte-budget") f.scan_byte_budget = u64();
        else if (arg == "--stage-sample-shift")
            f.stage_sample_shift = std::atoi(v.c_str());
        else if (arg == "--slow-op-micros")
            f.slow_op_micros = std::strtoll(v.c_str(), nullptr, 10);
        else if (arg == "--conn-idle-timeout-ms")
            f.conn_idle_timeout_ms = std::atoi(v.c_str());
        else if (arg == "--stats-out") f.stats_out = v;
        else if (arg == "--spans-out") f.spans_out = v;
        else if (arg == "--delay-layer") f.delay_layer = v;
        else if (arg == "--delay-us") f.delay_us = u64();
        else if (arg == "--engine") {
            if (v != "lsm") {
                std::fprintf(stderr, "only --engine lsm is traced\n");
                return false;
            }
        } else if (arg == "--env") {
            if (v != "posix") {
                std::fprintf(stderr, "only --env posix is traced\n");
                return false;
            }
        } else if (arg == "--trace") {
            // ethkvd's Chrome trace; the spans here replace it.
        } else {
            std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
            return false;
        }
    }
    if (f.dir.empty() || f.shards < 1 || f.shards > 256) {
        std::fprintf(stderr, "need --dir and 1 <= --shards <= 256\n");
        return false;
    }
    return true;
}

int g_event_fd = -1;
volatile std::sig_atomic_t g_sig_term = 0;
volatile std::sig_atomic_t g_sig_mark = 0;
volatile std::sig_atomic_t g_sig_freeze = 0;

extern "C" void
onSignal(int sig)
{
    if (sig == SIGUSR1)
        g_sig_mark = 1;
    else if (sig == SIGUSR2)
        g_sig_freeze = 1;
    else
        g_sig_term = 1;
    server::net::signalEventFd(g_event_fd);
}

} // namespace

int
main(int argc, char **argv)
{
    Flags f;
    if (!parseFlags(argc, argv, f))
        return 2;
    for (int l = 0; l < kLayers; ++l)
        if (f.delay_layer == kLayerNames[l])
            g_delay_layer = l;
    g_delay_ns = f.delay_us * 1000;

    CountingEnv counting_env(Env::defaultEnv());
    Env *env = f.decorators ? static_cast<Env *>(&counting_env)
                            : Env::defaultEnv();
    env->createDirs(f.dir).expectOk("data dir");
    if (f.shards > 1)
        kv::ShardedKVStore::checkShardMarker(
            env, f.dir, static_cast<uint32_t>(f.shards))
            .expectOk("shard marker");

    // Engine: one LSM per shard, each under an `lsm` decorator.
    std::vector<kv::LSMStore *> lsms;
    std::vector<std::unique_ptr<kv::KVStore>> shards;
    for (int i = 0; i < f.shards; ++i) {
        kv::LSMOptions options;
        options.dir = f.shards > 1
                          ? f.dir + "/shard-" + std::to_string(i)
                          : f.dir;
        env->createDirs(options.dir).expectOk("shard dir");
        options.env = env;
        if (f.memtable_bytes > 0)
            options.memtable_bytes = f.memtable_bytes;
        auto store = kv::LSMStore::open(options);
        store.status().expectOk("lsm open");
        std::unique_ptr<kv::KVStore> one = store.take();
        lsms.push_back(static_cast<kv::LSMStore *>(one.get()));
        if (f.decorators)
            one = std::make_unique<TimedStore>(std::move(one), kLsm, i);
        shards.push_back(std::move(one));
    }

    // Layers above the engine, bottom up; `top` is what the next
    // layer up calls, `top_layer` the layer it belongs to.
    std::vector<std::unique_ptr<kv::KVStore>> decorators;
    std::unique_ptr<kv::KVStore> sharded;
    kv::KVStore *top = nullptr;
    Layer top_layer = kLsm;
    if (f.shards > 1) {
        kv::ShardedOptions sopts;
        sopts.lock_shards = false;
        sharded = std::make_unique<kv::ShardedKVStore>(std::move(shards),
                                                       sopts);
        top = sharded.get();
        top_layer = kSharded;
    } else {
        top = shards.front().get();
    }
    auto decorate = [&](kv::KVStore &inner, Layer layer) -> kv::KVStore & {
        if (!f.decorators || (layer == kLsm && f.shards == 1))
            return inner; // the lsm decorator is already in place
        decorators.push_back(std::make_unique<TimedStore>(inner, layer));
        return *decorators.back();
    };

    std::unique_ptr<server::ReplicationHub> hub;
    if (f.repl) {
        server::ReplicationOptions ropts;
        ropts.dir = f.dir + "/repl";
        ropts.env = env;
        auto opened = server::ReplicationHub::open(ropts);
        opened.status().expectOk("replication log");
        hub = opened.take();
        top = &hub->wrap(decorate(*top, top_layer));
        top_layer = kRepl;
    }

    std::unique_ptr<cachetier::CacheTier> tier;
    std::unique_ptr<cachetier::CorrelationPrefetcher> prefetcher;
    if (f.cache_tier_bytes > 0) {
        cachetier::CacheTierOptions copts;
        copts.capacity_bytes = f.cache_tier_bytes;
        copts.shards = f.cache_shards;
        tier = std::make_unique<cachetier::CacheTier>(
            decorate(*top, top_layer), copts);
        if (f.prefetch_k > 0) {
            cachetier::PrefetcherOptions popts;
            popts.top_k = static_cast<uint32_t>(f.prefetch_k);
            prefetcher = std::make_unique<cachetier::CorrelationPrefetcher>(
                *tier, popts);
            if (!f.corr_table.empty())
                prefetcher->loadTable(Env::defaultEnv(), f.corr_table)
                    .expectOk("corr table");
            tier->setPrefetcher(prefetcher.get());
            prefetcher->start();
        }
        if (hub) {
            cachetier::CacheTier *t = tier.get();
            hub->setInvalidationHook([t](const std::vector<Bytes> &keys) {
                for (const Bytes &k : keys)
                    t->invalidate(k);
            });
        }
        top = tier.get();
        top_layer = kCacheTier;
    }
    g_entry = top_layer;
    kv::KVStore &served = decorate(*top, top_layer);
    kv::InstrumentedKVStore instrumented(
        served, obs::MetricsRegistry::global(), "engine");

    server::ServerOptions options;
    options.host = f.host;
    options.port = static_cast<uint16_t>(f.port);
    options.workers = f.workers;
    options.max_frame_bytes = f.max_frame_bytes;
    options.scan_limit_max = f.scan_limit;
    options.scan_byte_budget = f.scan_byte_budget;
    options.stage_sample_shift = f.stage_sample_shift;
    options.slow_op_micros = f.slow_op_micros;
    options.repl = hub.get();
    options.conn_idle_timeout_ms = f.conn_idle_timeout_ms;
    server::Server srv(instrumented, options);
    srv.start().expectOk("server start");
    if (hub)
        hub->start().expectOk("replication start");

    auto efd = server::net::makeEventFd();
    efd.status().expectOk("eventfd");
    g_event_fd = efd.value();
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGUSR1, onSignal);
    std::signal(SIGUSR2, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    if (!f.port_file.empty()) {
        std::string tmp = f.port_file + ".tmp";
        Env::defaultEnv()
            ->writeStringToFile(tmp, std::to_string(srv.port()) + "\n",
                                false)
            .expectOk("port file");
        Env::defaultEnv()->renameFile(tmp, f.port_file).expectOk("port file");
    }

    Counters from = snapshotCounters(lsms, f.shards);
    std::string frozen;
    while (!g_sig_term) {
        if (!server::net::waitReadable(g_event_fd, -1).isOk())
            break;
        server::net::drainEventFd(g_event_fd);
        if (g_sig_mark) {
            g_sig_mark = 0;
            resetAggregates();
            from = snapshotCounters(lsms, f.shards);
            frozen.clear();
        }
        if (g_sig_freeze) {
            g_sig_freeze = 0;
            frozen = statsJson(from, snapshotCounters(lsms, f.shards),
                               f.shards);
        }
    }

    srv.stop();
    if (prefetcher)
        prefetcher->stop();
    if (frozen.empty())
        frozen = statsJson(from, snapshotCounters(lsms, f.shards), f.shards);
    if (!f.stats_out.empty())
        Env::defaultEnv()
            ->writeStringToFile(f.stats_out, frozen, false)
            .expectOk("stats out");
    if (!f.spans_out.empty())
        writeSpans(f.spans_out);
    return 0;
}
