/**
 * @file
 * Closed-loop load generator for ethkvd (ethkv.wire.v1).
 *
 * Drives C pipelined connections from T threads against a running
 * server and reports throughput plus p50/p99/p999 latency. Three
 * synthetic modes plus trace replay:
 *
 *  - mixed  (default): Zipf-distributed GET/PUT over a key space
 *    spread across the schema classes, so `--engine hybrid`
 *    exercises every route. `--read-pct` sets the mix.
 *  - fill:  deterministically PUT keys [base, base+keys); every
 *    acked key id is written to --acked-file as it completes, so a
 *    crash harness knows exactly which writes the server
 *    acknowledged before it died. A connection dying mid-fill exits
 *    with code 75 (expected under kill -9), after flushing the
 *    acked file.
 *  - verify: GET every key listed in --acked-file (or the whole
 *    range when absent) through a fresh connection and compare
 *    against the deterministic fill value; any miss or mismatch is
 *    a data-loss failure (exit 1).
 *  - --trace <file>: replay a captured ethkv::trace through the
 *    wire instead of synthesizing ops (Read->GET, Write/Update->PUT,
 *    Delete->DELETE, Scan->SCAN).
 *
 * Latencies land in the process-global metrics registry
 * (bench.server.<op>.latency_ns); a human summary goes to stdout.
 * --metrics-out writes one combined ethkv.bench_server_load.v1
 * document: the client-side registry plus a STATS scrape of the
 * server's metrics, so a single artifact holds both ends of the
 * run. --trace-out records a client-side span per request (traced
 * wire-v2 frames), fetches the server's span log over TRACEDUMP,
 * and writes the merged Chrome trace — one timeline, both
 * processes, request ids linking the spans.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "common/bytes.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "common/rand.hh"
#include "common/status.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/scoped_timer.hh"
#include "obs/trace_event.hh"
// The load harness is operator tooling that drives ethkvd over
// the wire through its client library; it is the one bench
// binary allowed to see the server module.
// ethkv-analyze:allow(layering)
#include "server/client.hh"
#include "trace/trace_file.hh"

namespace
{

using namespace ethkv;
using bench::synthesizeKey;
using bench::synthesizeValue;

struct Flags
{
    std::string host = "127.0.0.1";
    int port = 0;
    std::string port_file;
    int connections = 8;
    int threads = 2;
    uint64_t ops = 100000;
    size_t window = 32;
    uint64_t keys = 50000;
    uint64_t key_base = 0;
    uint32_t value_bytes = 256;
    double zipf = 0.99;
    int read_pct = 50;
    uint64_t seed = 42;
    std::string mode = "mixed";
    std::string trace_path;
    std::string acked_file;
    std::string trace_out;
    std::string metrics_out;
    uint64_t zipf_accounts = 0;
    uint32_t corr_follow = 0;
    std::string corr_table_out;
};

/**
 * Correlated-read structure (DESIGN.md §14): key ids are grouped
 * in blocks of kCorrGroup; reading a key makes the next ids in its
 * block likely follow-up reads — the deterministic analogue of the
 * paper's Fig 4–5 read correlations (an account's trie node,
 * snapshot row, and code land near each other).
 */
constexpr uint64_t kCorrGroup = 8;

uint64_t
corrFollowerOf(uint64_t key_id, uint32_t j)
{
    uint64_t base = key_id - (key_id % kCorrGroup);
    return base + ((key_id - base + 1 + j) % kCorrGroup);
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --port <n> [options]\n"
        "  --host <ipv4>        server address (default"
        " 127.0.0.1)\n"
        "  --port <n>           server port\n"
        "  --port-file <path>   read the port from a file (polls"
        " up to 10s)\n"
        "  --connections <n>    pipelined connections (default 8)\n"
        "  --threads <n>        client threads (default 2)\n"
        "  --ops <n>            total operations (default 100000)\n"
        "  --window <n>         in-flight window per connection"
        " (default 32)\n"
        "  --keys <n>           key-space size (default 50000)\n"
        "  --key-base <n>       first key id (separates fill and"
        " mixed key spaces)\n"
        "  --value-bytes <n>    value size (default 256)\n"
        "  --zipf <s>           Zipf skew (default 0.99)\n"
        "  --read-pct <n>       GET share in mixed mode (default"
        " 50)\n"
        "  --seed <n>           RNG seed (default 42)\n"
        "  --mode <mixed|fill|verify>\n"
        "  --trace <path>       replay a captured trace instead\n"
        "  --acked-file <path>  fill: record acked key ids;"
        " verify: check them\n"
        "  --metrics-out <path> combined client+server JSON"
        " (ethkv.bench_server_load.v1)\n"
        "  --trace-out <path>   merged client+server Chrome trace"
        " JSON\n"
        "  --zipf-accounts <n>  Zipf-of-accounts mix: alias for"
        " --keys n (the ROADMAP's Zipf-of-millions client mix);"
        " when both appear, the last one wins\n"
        "  --corr-follow <n>    after each mixed-mode GET, read n"
        " correlated followers from the key's group of 8\n"
        "  --corr-table-out <p> write the correlation table (hex"
        " key + followers per line) for --corr-table and exit\n",
        argv0);
}

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
        if (arg == "--host") {
            f.host = next("--host");
        } else if (arg == "--port") {
            f.port = std::atoi(next("--port"));
        } else if (arg == "--port-file") {
            f.port_file = next("--port-file");
        } else if (arg == "--connections") {
            f.connections = std::atoi(next("--connections"));
        } else if (arg == "--threads") {
            f.threads = std::atoi(next("--threads"));
        } else if (arg == "--ops") {
            f.ops = std::strtoull(next("--ops"), nullptr, 10);
        } else if (arg == "--window") {
            f.window = std::strtoull(next("--window"), nullptr, 10);
        } else if (arg == "--keys") {
            f.keys = std::strtoull(next("--keys"), nullptr, 10);
        } else if (arg == "--key-base") {
            f.key_base =
                std::strtoull(next("--key-base"), nullptr, 10);
        } else if (arg == "--value-bytes") {
            f.value_bytes = static_cast<uint32_t>(
                std::strtoul(next("--value-bytes"), nullptr, 10));
        } else if (arg == "--zipf") {
            f.zipf = std::atof(next("--zipf"));
        } else if (arg == "--read-pct") {
            f.read_pct = std::atoi(next("--read-pct"));
        } else if (arg == "--seed") {
            f.seed = std::strtoull(next("--seed"), nullptr, 10);
        } else if (arg == "--mode") {
            f.mode = next("--mode");
        } else if (arg == "--trace") {
            f.trace_path = next("--trace");
        } else if (arg == "--acked-file") {
            f.acked_file = next("--acked-file");
        } else if (arg == "--trace-out") {
            f.trace_out = next("--trace-out");
        } else if (arg == "--metrics-out") {
            f.metrics_out = next("--metrics-out");
        } else if (arg == "--zipf-accounts") {
            // An alias for --keys, applied here so flag order
            // decides: the last of --keys/--zipf-accounts on the
            // command line wins (it used to override --keys
            // unconditionally after parsing).
            f.zipf_accounts = std::strtoull(
                next("--zipf-accounts"), nullptr, 10);
            if (f.zipf_accounts > 0)
                f.keys = f.zipf_accounts;
        } else if (arg == "--corr-follow") {
            f.corr_follow = static_cast<uint32_t>(
                std::strtoul(next("--corr-follow"), nullptr, 10));
        } else if (arg == "--corr-table-out") {
            f.corr_table_out = next("--corr-table-out");
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return false;
        } else {
            std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
            usage(argv[0]);
            return false;
        }
    }
    return true;
}

/**
 * Resolve the target port, polling --port-file (written tmp+rename
 * by ethkvd) so a harness can start both processes back to back.
 */
int
resolvePort(const Flags &f)
{
    if (f.port_file.empty())
        return f.port;
    for (int attempt = 0; attempt < 1000; ++attempt) {
        std::FILE *fp = std::fopen(f.port_file.c_str(), "r");
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
    fatal("port file %s never appeared", f.port_file.c_str());
}

/**
 * The deterministic key id -> class mapping. Spreading ids over
 * classes from all four hybrid routes means one load run exercises
 * the B+-tree, both logs, and the hash store; fill and verify use
 * the same mapping, so recovered data is checked against the exact
 * bytes that were acked.
 */
client::KVClass
classOfKeyId(uint64_t key_id)
{
    using client::KVClass;
    static const KVClass classes[] = {
        KVClass::TrieNodeAccount,  // LazyLog route
        KVClass::TrieNodeStorage,  // LazyLog
        KVClass::SnapshotAccount,  // Ordered
        KVClass::SnapshotStorage,  // Ordered
        KVClass::Code,             // LazyLog
        KVClass::BlockBody,        // Log
        KVClass::HeaderNumber,     // Hash
        KVClass::StateID,          // Hash
    };
    return classes[key_id % (sizeof(classes) /
                             sizeof(classes[0]))];
}

/** A key size classify() accepts for the class (schema.cc). */
uint16_t
keySizeOf(client::KVClass cls)
{
    if (cls == client::KVClass::SnapshotStorage)
        return 65;
    if (cls == client::KVClass::BlockBody)
        return 41;
    return 33;
}

Bytes
keyOf(uint64_t key_id)
{
    client::KVClass cls = classOfKeyId(key_id);
    return synthesizeKey(static_cast<uint16_t>(cls), key_id,
                         keySizeOf(cls));
}

/** Per-op latency histograms, shared by every worker thread. */
struct Instruments
{
    obs::LatencyHistogram *all;
    obs::LatencyHistogram *get;
    obs::LatencyHistogram *put;
    obs::Counter *acked;
    obs::Counter *errors;

    static Instruments
    fromRegistry()
    {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
        return Instruments{
            &reg.histogram("bench.server.all.latency_ns"),
            &reg.histogram("bench.server.get.latency_ns"),
            &reg.histogram("bench.server.put.latency_ns"),
            &reg.counter("bench.server.acked"),
            &reg.counter("bench.server.errors"),
        };
    }
};

/**
 * One pipelined connection plus the submission-order key queue its
 * completion callback pops (ethkvd answers a connection FIFO, so
 * the front of the queue is always the key being completed).
 */
struct Conn
{
    std::unique_ptr<server::PipelinedClient> client;
    std::deque<uint64_t> submitted_keys;
    std::vector<uint64_t> acked_keys; //!< fill mode only.
    bool record_acks = false;
};

/** What one worker thread reports back. */
struct WorkerResult
{
    uint64_t ops_done = 0;
    uint64_t errors = 0;
    bool connection_died = false;
};

Result<std::unique_ptr<server::PipelinedClient>>
openConn(const Flags &f, int port, Conn &conn,
         const Instruments &ins)
{
    return server::PipelinedClient::open(
        f.host, static_cast<uint16_t>(port), f.window,
        [&conn, ins](server::Opcode op, server::WireStatus status,
                     uint64_t latency_ns, const Bytes &) {
            ins.all->record(latency_ns);
            if (op == server::Opcode::Get)
                ins.get->record(latency_ns);
            else if (op == server::Opcode::Put)
                ins.put->record(latency_ns);
            uint64_t key_id = 0;
            if (!conn.submitted_keys.empty()) {
                key_id = conn.submitted_keys.front();
                conn.submitted_keys.pop_front();
            }
            bool ok = status == server::WireStatus::Ok ||
                      (op == server::Opcode::Get &&
                       status == server::WireStatus::NotFound);
            if (!ok) {
                ins.errors->inc();
                return;
            }
            ins.acked->inc();
            if (conn.record_acks && op == server::Opcode::Put)
                conn.acked_keys.push_back(key_id);
        });
}

/** Mixed Zipf GET/PUT, closed loop. */
WorkerResult
runMixed(const Flags &f, std::vector<Conn> &conns, uint64_t my_ops,
         uint64_t thread_seed)
{
    WorkerResult result;
    Rng rng(thread_seed);
    ZipfGenerator zipf(f.keys, f.zipf);
    for (uint64_t i = 0; i < my_ops; ++i) {
        Conn &conn = conns[i % conns.size()];
        uint64_t key_id = f.key_base + zipf.sample(rng);
        Bytes key = keyOf(key_id);
        conn.submitted_keys.push_back(key_id);
        Status s;
        if (rng.nextBounded(100) <
            static_cast<uint64_t>(f.read_pct)) {
            s = conn.client->submitGet(key);
            // Correlated follow-on reads: the workload the cache
            // tier's prefetcher is built for (keys in the same
            // group of kCorrGroup tend to be read together).
            for (uint32_t j = 0;
                 s.isOk() && j < f.corr_follow; ++j) {
                uint64_t follower_id = corrFollowerOf(key_id, j);
                conn.submitted_keys.push_back(follower_id);
                s = conn.client->submitGet(keyOf(follower_id));
                if (s.isOk())
                    ++result.ops_done;
            }
        } else {
            s = conn.client->submitPut(
                key, synthesizeValue(key_id, f.value_bytes));
        }
        if (!s.isOk()) {
            result.connection_died = true;
            return result;
        }
        ++result.ops_done;
    }
    for (Conn &conn : conns) {
        if (!conn.client->drain().isOk())
            result.connection_died = true;
    }
    return result;
}

/** Deterministic PUT of a contiguous key-id slice. */
WorkerResult
runFill(const Flags &f, std::vector<Conn> &conns, uint64_t lo,
        uint64_t hi)
{
    WorkerResult result;
    for (uint64_t key_id = lo; key_id < hi; ++key_id) {
        Conn &conn = conns[key_id % conns.size()];
        conn.submitted_keys.push_back(key_id);
        Status s = conn.client->submitPut(
            keyOf(key_id), synthesizeValue(key_id, f.value_bytes));
        if (!s.isOk()) {
            result.connection_died = true;
            return result;
        }
        ++result.ops_done;
    }
    for (Conn &conn : conns) {
        if (!conn.client->drain().isOk())
            result.connection_died = true;
    }
    return result;
}

/** Replay a slice of trace records through the wire. */
WorkerResult
runTrace(std::vector<Conn> &conns,
         const trace::TraceBuffer &buffer, uint64_t lo,
         uint64_t hi)
{
    WorkerResult result;
    const std::vector<trace::TraceRecord> &records =
        buffer.records();
    for (uint64_t i = lo; i < hi; ++i) {
        const trace::TraceRecord &rec = records[i];
        Conn &conn = conns[i % conns.size()];
        Bytes key = synthesizeKey(rec.class_id, rec.key_id,
                                  rec.key_size);
        conn.submitted_keys.push_back(rec.key_id);
        Status s;
        switch (rec.op) {
          case trace::OpType::Read:
            s = conn.client->submitGet(key);
            break;
          case trace::OpType::Write:
          case trace::OpType::Update:
            s = conn.client->submitPut(
                key, synthesizeValue(rec.key_id, rec.value_size));
            break;
          case trace::OpType::Delete:
            s = conn.client->submitDelete(key);
            break;
          case trace::OpType::Scan: {
            Bytes end = key;
            end.push_back('\xff');
            s = conn.client->submitScan(key, end, 128);
            break;
          }
        }
        if (!s.isOk()) {
            result.connection_died = true;
            return result;
        }
        ++result.ops_done;
    }
    for (Conn &conn : conns) {
        if (!conn.client->drain().isOk())
            result.connection_died = true;
    }
    return result;
}

/** Append acked key ids (one per line) for the crash harness. */
void
writeAckedFile(const std::string &path,
               const std::vector<Conn *> &conns)
{
    std::FILE *fp = std::fopen(path.c_str(), "w");
    if (!fp)
        fatal("cannot write %s", path.c_str());
    uint64_t total = 0;
    for (const Conn *conn : conns) {
        for (uint64_t key_id : conn->acked_keys) {
            std::fprintf(fp, "%llu\n",
                         static_cast<unsigned long long>(key_id));
            ++total;
        }
    }
    std::fclose(fp);
    inform("bench_server_load: %llu acked key ids -> %s",
           static_cast<unsigned long long>(total), path.c_str());
}

/**
 * Verify mode: every acked key must come back with the exact fill
 * value. Runs single-threaded over a blocking client — correctness
 * checking, not a throughput path.
 */
int
runVerify(const Flags &f, int port)
{
    std::vector<uint64_t> key_ids;
    if (!f.acked_file.empty()) {
        std::FILE *fp = std::fopen(f.acked_file.c_str(), "r");
        if (!fp)
            fatal("cannot read %s", f.acked_file.c_str());
        unsigned long long id = 0;
        while (std::fscanf(fp, "%llu", &id) == 1)
            key_ids.push_back(id);
        std::fclose(fp);
    } else {
        for (uint64_t i = 0; i < f.keys; ++i)
            key_ids.push_back(f.key_base + i);
    }

    auto client =
        server::Client::open(f.host, static_cast<uint16_t>(port));
    client.status().expectOk("verify connect");

    uint64_t missing = 0;
    uint64_t mismatched = 0;
    Bytes value;
    for (uint64_t key_id : key_ids) {
        Status s = client.value()->get(keyOf(key_id), value);
        if (!s.isOk()) {
            ++missing;
            continue;
        }
        if (value != synthesizeValue(key_id, f.value_bytes))
            ++mismatched;
    }
    std::printf(
        "verify: keys=%zu missing=%llu mismatched=%llu -> %s\n",
        key_ids.size(),
        static_cast<unsigned long long>(missing),
        static_cast<unsigned long long>(mismatched),
        missing + mismatched ? "DATA LOSS" : "ok");
    return missing + mismatched ? 1 : 0;
}

/**
 * --corr-table-out: emit the correlation table matching the
 * correlated-read mix above, in the format ethkvd's --corr-table
 * loads (hex key, then hex followers, strongest first). Runs
 * standalone — no server needed.
 */
int
runCorrTableOut(const Flags &f)
{
    std::string doc =
        "# ethkv correlation table (bench_server_load"
        " --corr-table-out)\n";
    uint32_t followers =
        f.corr_follow > 0 ? f.corr_follow
                          : static_cast<uint32_t>(kCorrGroup) - 1;
    if (followers > kCorrGroup - 1)
        followers = kCorrGroup - 1;
    for (uint64_t id = f.key_base; id < f.key_base + f.keys;
         ++id) {
        doc += toHex(keyOf(id));
        for (uint32_t j = 0; j < followers; ++j) {
            doc += ' ';
            doc += toHex(keyOf(corrFollowerOf(id, j)));
        }
        doc += '\n';
    }
    Env::defaultEnv()
        ->writeStringToFile(f.corr_table_out, doc, /*sync=*/false)
        .expectOk("corr table write");
    inform("bench_server_load: correlation table for %llu keys"
           " (%u followers each) -> %s",
           static_cast<unsigned long long>(f.keys), followers,
           f.corr_table_out.c_str());
    return 0;
}

void
writeFileOrWarn(const std::string &path, const std::string &doc)
{
    Status s = Env::defaultEnv()->writeStringToFile(path, doc,
                                                    /*sync=*/false);
    if (!s.isOk()) {
        warn("bench_server_load: write %s failed: %s",
             path.c_str(), s.toString().c_str());
    }
}

/**
 * End-of-run artifacts: the merged Chrome trace (--trace-out) and
 * the combined client+server metrics document (--metrics-out).
 * Server-side data comes from one fresh blocking connection; if the
 * server is already gone (crash harness), the client side is still
 * written with "server": null.
 */
/** Pull one counter out of a scraped stats.v3 / metrics.v1 doc. */
uint64_t
scrapedCounter(const obs::JsonValue &root, std::string_view name)
{
    const obs::JsonValue *metrics = root.find("metrics");
    const obs::JsonValue *counters =
        metrics != nullptr ? metrics->find("counters")
                           : root.find("counters");
    if (counters == nullptr)
        return 0;
    const obs::JsonValue *v = counters->find(name);
    return v != nullptr ? v->asU64() : 0;
}

void
writeRunArtifacts(const Flags &f, int port,
                  const obs::TraceEventLog *client_log,
                  const Instruments &ins, uint64_t ops_done,
                  uint64_t acked, uint64_t errors,
                  uint64_t elapsed_ns)
{
    if (f.trace_out.empty() && f.metrics_out.empty())
        return;

    Bytes server_stats;
    Bytes server_trace;
    auto client =
        server::Client::open(f.host, static_cast<uint16_t>(port));
    if (client.ok()) {
        if (!f.metrics_out.empty()) {
            ETHKV_IGNORE_STATUS(
                client.value()->stats(server_stats),
                "a failed scrape degrades the artifact to "
                "client-only; the run itself already finished");
        }
        if (!f.trace_out.empty()) {
            ETHKV_IGNORE_STATUS(
                client.value()->traceDump(server_trace),
                "a server without --trace returns an empty log; "
                "the client spans still stand alone");
        }
    } else {
        warn("bench_server_load: scrape connection failed: %s",
             client.status().toString().c_str());
    }

    if (!f.trace_out.empty()) {
        std::string client_json =
            client_log ? client_log->toJson() : std::string();
        writeFileOrWarn(
            f.trace_out,
            obs::mergeTraceJson(client_json,
                                std::string(server_trace)));
        inform("bench_server_load: merged trace (%zu client spans"
               " + %zu server bytes) -> %s",
               client_log ? client_log->size() : 0,
               server_trace.size(), f.trace_out.c_str());
    }

    if (!f.metrics_out.empty()) {
        obs::JsonWriter w;
        w.beginObject();
        w.key("schema");
        w.value("ethkv.bench_server_load.v1");
        w.key("mode");
        w.value(f.mode);
        w.key("connections");
        w.value(f.connections);
        w.key("threads");
        w.value(f.threads);
        // The key-space size the run actually used, after the
        // --keys / --zipf-accounts aliasing — so an artifact is
        // never misread against the wrong working set.
        w.key("keys");
        w.value(f.keys);
        w.key("ops_submitted");
        w.value(ops_done);
        w.key("acked");
        w.value(acked);
        w.key("errors");
        w.value(errors);
        w.key("elapsed_ns");
        w.value(elapsed_ns);
        w.key("get_p50_ns");
        w.value(ins.get->percentile(0.50));
        w.key("get_p99_ns");
        w.value(ins.get->percentile(0.99));
        w.key("get_p999_ns");
        w.value(ins.get->percentile(0.999));
        // Server cache-tier hit rate, when the scrape found one —
        // the acceptance number for --cache-tier-bytes runs.
        uint64_t ct_hits = 0;
        uint64_t ct_misses = 0;
        if (!server_stats.empty()) {
            obs::JsonValue root;
            if (obs::parseJson(server_stats, root).isOk()) {
                ct_hits = scrapedCounter(root, "cachetier.hits");
                ct_misses =
                    scrapedCounter(root, "cachetier.misses");
            }
        }
        w.key("cachetier_hits");
        w.value(ct_hits);
        w.key("cachetier_misses");
        w.value(ct_misses);
        w.key("cachetier_hit_rate");
        w.value(ct_hits + ct_misses > 0
                    ? static_cast<double>(ct_hits) /
                          static_cast<double>(ct_hits + ct_misses)
                    : 0.0);
        if (ct_hits + ct_misses > 0) {
            inform("bench_server_load: cachetier hit rate %.1f%%"
                   " (%llu hits / %llu misses)",
                   100.0 * static_cast<double>(ct_hits) /
                       static_cast<double>(ct_hits + ct_misses),
                   static_cast<unsigned long long>(ct_hits),
                   static_cast<unsigned long long>(ct_misses));
        }
        w.key("client");
        w.rawValue(obs::MetricsRegistry::global().toJson());
        w.key("server");
        if (server_stats.empty())
            w.null();
        else
            w.rawValue(server_stats);
        w.endObject();
        writeFileOrWarn(f.metrics_out, w.take());
        inform("bench_server_load: combined metrics -> %s%s",
               f.metrics_out.c_str(),
               server_stats.empty() ? " (server scrape missing)"
                                    : "");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Flags flags;
    if (!parseFlags(argc, argv, flags))
        return 2;
    if (!flags.corr_table_out.empty())
        return runCorrTableOut(flags); // standalone, no server
    if (flags.connections < flags.threads)
        flags.connections = flags.threads;
    int port = resolvePort(flags);
    if (port <= 0)
        fatal("need --port or --port-file");

    if (flags.mode == "verify")
        return runVerify(flags, port);
    bool fill = flags.mode == "fill";
    if (!fill && flags.mode != "mixed")
        fatal("unknown --mode %s", flags.mode.c_str());

    trace::TraceBuffer trace_buffer;
    if (!flags.trace_path.empty()) {
        auto loaded = trace::loadTraceFile(flags.trace_path);
        loaded.status().expectOk("trace load");
        trace_buffer = loaded.take();
        flags.ops = trace_buffer.records().size();
    }
    if (fill)
        flags.ops = flags.keys;

    Instruments ins = Instruments::fromRegistry();

    // Absolute clock so these spans merge with the server's
    // TRACEDUMP output onto one timeline. Capped: a huge --ops run
    // should bound the trace, not the address space.
    std::unique_ptr<obs::TraceEventLog> trace_log;
    if (!flags.trace_out.empty()) {
        trace_log = std::make_unique<obs::TraceEventLog>(
            /*absolute_clock=*/true, /*max_spans=*/262144);
    }

    // Each thread owns its share of connections outright (clients
    // are not thread-safe), so the hot loop takes no locks.
    int threads = flags.threads;
    std::vector<std::vector<Conn>> per_thread(threads);
    for (int c = 0; c < flags.connections; ++c) {
        Conn conn;
        conn.record_acks = fill;
        per_thread[c % threads].push_back(std::move(conn));
    }
    uint32_t conn_index = 0;
    for (std::vector<Conn> &conns : per_thread) {
        for (Conn &conn : conns) {
            auto opened = openConn(flags, port, conn, ins);
            opened.status().expectOk("connect");
            conn.client = opened.take();
            ++conn_index;
            if (trace_log) {
                // Disjoint id ranges per connection keep trace ids
                // unique across the whole run; tid = connection.
                conn.client->enableTrace(
                    trace_log.get(),
                    static_cast<uint64_t>(conn_index) << 32,
                    conn_index);
            }
        }
    }

    std::vector<WorkerResult> results(threads);
    uint64_t per_thread_ops = flags.ops / threads;
    uint64_t start_ns = obs::nowNanos();
    {
        std::vector<std::thread> workers;
        for (int t = 0; t < threads; ++t) {
            uint64_t lo = t * per_thread_ops;
            uint64_t hi = t + 1 == threads ? flags.ops
                                           : lo + per_thread_ops;
            workers.emplace_back([&, t, lo, hi] {
                std::vector<Conn> &conns = per_thread[t];
                if (!flags.trace_path.empty())
                    results[t] =
                        runTrace(conns, trace_buffer, lo, hi);
                else if (fill)
                    results[t] =
                        runFill(flags, conns, flags.key_base + lo,
                                flags.key_base + hi);
                else
                    results[t] =
                        runMixed(flags, conns, hi - lo,
                                 flags.seed * 7919 + t);
            });
        }
        for (std::thread &w : workers)
            w.join();
    }
    uint64_t elapsed_ns = obs::nowNanos() - start_ns;

    uint64_t ops_done = 0;
    bool died = false;
    for (const WorkerResult &r : results) {
        ops_done += r.ops_done;
        died = died || r.connection_died;
    }
    if (fill && !flags.acked_file.empty()) {
        std::vector<Conn *> all;
        for (std::vector<Conn> &conns : per_thread)
            for (Conn &conn : conns)
                all.push_back(&conn);
        writeAckedFile(flags.acked_file, all);
    }

    double secs = static_cast<double>(elapsed_ns) / 1e9;
    double ops_per_sec =
        secs > 0 ? static_cast<double>(ins.acked->value()) / secs
                 : 0;
    std::printf(
        "bench_server_load: mode=%s conns=%d threads=%d\n"
        "  submitted=%llu acked=%llu errors=%llu in %.2fs"
        " (%.0f ops/s)\n"
        "  latency p50=%lluus p99=%lluus p999=%lluus\n",
        flags.mode.c_str(), flags.connections, flags.threads,
        static_cast<unsigned long long>(ops_done),
        static_cast<unsigned long long>(ins.acked->value()),
        static_cast<unsigned long long>(ins.errors->value()),
        secs, ops_per_sec,
        static_cast<unsigned long long>(
            ins.all->percentile(0.50) / 1000),
        static_cast<unsigned long long>(
            ins.all->percentile(0.99) / 1000),
        static_cast<unsigned long long>(
            ins.all->percentile(0.999) / 1000));

    if (died) {
        // Expected when the crash harness kills the server
        // mid-load; the acked file above still names every write
        // the server acknowledged first.
        std::fprintf(stderr,
                     "bench_server_load: connection died\n");
        writeRunArtifacts(flags, port, trace_log.get(), ins,
                          ops_done, ins.acked->value(),
                          ins.errors->value(), elapsed_ns);
        return 75;
    }

    writeRunArtifacts(flags, port, trace_log.get(), ins, ops_done,
                      ins.acked->value(), ins.errors->value(),
                      elapsed_ns);
    if (!fill && ins.errors->value() > 0)
        return 1;
    return 0;
}
