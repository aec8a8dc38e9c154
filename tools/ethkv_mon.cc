/**
 * @file
 * ethkv_mon — live terminal dashboard for a running ethkvd.
 *
 * Polls the server's STATS op (ethkv.server.stats.v3) over the
 * wire, diffs consecutive snapshots into per-second rates, and
 * redraws a plain-ANSI dashboard (no curses): per-op counts, rates,
 * and latency percentiles; the sampled per-stage pipeline
 * breakdown; connection and backpressure gauges. Point it at the
 * same --port/--port-file as the server:
 *
 *   ethkv_mon --port-file /tmp/ethkvd.port
 *   ethkv_mon --port 7070 --interval-ms 500
 *   ethkv_mon --port 7070 --once        # one frame, no clearing
 *
 * Alternatively --file reads an ethkv.metrics.live.v1 snapshot
 * written by ethkvd --metrics-interval, monitoring without opening
 * a wire connection at all.
 *
 * Everything is parsed with the shared obs JSON parser; no metric
 * math happens server-side beyond what STATS already exports.
 */

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/status.hh"
#include "obs/json.hh"
#include "server/client.hh"

namespace
{

using namespace ethkv;

struct Flags
{
    std::string host = "127.0.0.1";
    int port = 0;
    std::string port_file;
    std::string file; //!< Read a metrics.live file, not the wire.
    uint64_t interval_ms = 1000;
    bool once = false;
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--port <n> | --port-file <p> | --file <p>]\n"
        "  --host <ipv4>       server address (default"
        " 127.0.0.1)\n"
        "  --port <n>          server port\n"
        "  --port-file <path>  read the port from a file\n"
        "  --file <path>       read ethkv.metrics.live.v1"
        " snapshots instead of the wire\n"
        "  --interval-ms <n>   poll period (default 1000)\n"
        "  --once              print one frame and exit\n",
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
        } else if (arg == "--file") {
            f.file = next("--file");
        } else if (arg == "--interval-ms") {
            f.interval_ms = std::strtoull(next("--interval-ms"),
                                          nullptr, 10);
        } else if (arg == "--once") {
            f.once = true;
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

/** Counter/gauge lookup in a metrics object; 0 when absent. */
uint64_t
metricU64(const obs::JsonValue &metrics, const char *section,
          const std::string &name)
{
    const obs::JsonValue *sec = metrics.find(section);
    if (!sec)
        return 0;
    const obs::JsonValue *v = sec->find(name);
    return v ? v->asU64() : 0;
}

/** Histogram field lookup (count/p50/p99/...); 0 when absent. */
uint64_t
histU64(const obs::JsonValue &metrics, const std::string &name,
        const char *field)
{
    const obs::JsonValue *hists = metrics.find("histograms");
    if (!hists)
        return 0;
    const obs::JsonValue *h = hists->find(name);
    if (!h)
        return 0;
    const obs::JsonValue *v = h->find(field);
    return v ? v->asU64() : 0;
}

/** Rates need the previous poll's counter values. */
struct PrevCounters
{
    std::vector<std::pair<std::string, uint64_t>> values;

    uint64_t
    lookup(const std::string &name) const
    {
        for (const auto &kv : values) {
            if (kv.first == name)
                return kv.second;
        }
        return 0;
    }
};

double
rateOf(const PrevCounters &prev, const std::string &name,
       uint64_t now_value, uint64_t elapsed_ms, bool have_prev)
{
    if (!have_prev || elapsed_ms == 0)
        return 0.0;
    uint64_t before = prev.lookup(name);
    uint64_t delta = now_value >= before ? now_value - before : 0;
    return static_cast<double>(delta) * 1000.0 /
           static_cast<double>(elapsed_ms);
}

const char *const kOps[] = {"get",  "put",   "delete",    "batch",
                            "scan", "stats", "tracedump", "slowlog"};

const char *const kStages[] = {"read",   "decode", "exec",
                               "encode", "flush",  "total"};

/**
 * Render one dashboard frame from a stats/metrics document.
 *
 * `root` is either an ethkv.server.stats.v3 document (metrics
 * nested under "metrics") or a bare metrics object; both shapes
 * resolve through the same lookups.
 */
void
renderFrame(const obs::JsonValue &root, const PrevCounters &prev,
            bool have_prev, uint64_t elapsed_ms,
            const std::string &source, bool clear)
{
    const obs::JsonValue *metrics_ptr = root.find("metrics");
    const obs::JsonValue &metrics =
        metrics_ptr ? *metrics_ptr : root;
    const obs::JsonValue *engine = root.find("engine");

    if (clear)
        std::printf("\x1b[2J\x1b[H");

    std::printf("ethkv_mon  %s  engine=%s\n", source.c_str(),
                engine && engine->isString()
                    ? engine->string.c_str()
                    : "?");
    std::printf(
        "conns=%" PRIu64 " inflight=%" PRIu64
        " write_queue=%" PRIu64 "B frames=%" PRIu64
        " bad=%" PRIu64 " slowops=%" PRIu64 "\n\n",
        metricU64(metrics, "gauges", "server.conns.active"),
        metricU64(metrics, "gauges",
                  "server.responses_inflight"),
        metricU64(metrics, "gauges", "server.write_queue_bytes"),
        metricU64(metrics, "counters", "server.frames.received"),
        metricU64(metrics, "counters", "server.frames.bad"),
        metricU64(metrics, "counters",
                  "server.slowops.recorded"));

    std::printf("%-10s %12s %10s %8s %7s %8s %8s %8s\n", "op",
                "count", "rate/s", "errors", "miss%", "p50us",
                "p99us", "p999us");
    for (const char *op : kOps) {
        std::string base = std::string("server.op.") + op;
        uint64_t count = metricU64(metrics, "counters", base);
        if (count == 0)
            continue;
        std::string lat = base + ".latency_ns";
        // NotFound answers are misses, not errors (stats.v3).
        uint64_t misses =
            metricU64(metrics, "counters", base + ".not_found");
        std::printf(
            "%-10s %12" PRIu64 " %10.0f %8" PRIu64 " %7.1f %8" PRIu64
            " %8" PRIu64 " %8" PRIu64 "\n",
            op, count,
            rateOf(prev, base, count, elapsed_ms, have_prev),
            metricU64(metrics, "counters", base + ".errors"),
            100.0 * static_cast<double>(misses) /
                static_cast<double>(count),
            histU64(metrics, lat, "p50") / 1000,
            histU64(metrics, lat, "p99") / 1000,
            histU64(metrics, lat, "p999") / 1000);
    }

    std::printf("\n%-10s %12s %10s %10s\n", "stage", "samples",
                "p50ns", "p99ns");
    for (const char *stage : kStages) {
        std::string name =
            std::string("op.server.") + stage + "_ns";
        uint64_t count = histU64(metrics, name, "count");
        if (count == 0)
            continue;
        std::printf("%-10s %12" PRIu64 " %10" PRIu64
                    " %10" PRIu64 "\n",
                    stage, count, histU64(metrics, name, "p50"),
                    histU64(metrics, name, "p99"));
    }

    // Cache tier (DESIGN.md §14): shown only when the server runs
    // with --cache-tier-bytes (hits+misses stay 0 otherwise).
    uint64_t ct_hits =
        metricU64(metrics, "counters", "cachetier.hits");
    uint64_t ct_misses =
        metricU64(metrics, "counters", "cachetier.misses");
    if (ct_hits + ct_misses > 0) {
        uint64_t pf_issued = metricU64(metrics, "counters",
                                       "cachetier.prefetch.issued");
        uint64_t pf_hits = metricU64(metrics, "counters",
                                     "cachetier.prefetch.hits");
        std::printf(
            "\ncachetier hit%%=%.1f hits=%" PRIu64 " (%.0f/s)"
            " misses=%" PRIu64 " (%.0f/s)\n"
            "  bytes=%" PRIu64 " entries=%" PRIu64
            " evict=%" PRIu64 " admit_rej=%" PRIu64
            " inval=%" PRIu64 "\n"
            "  prefetch issued=%" PRIu64 " (%.0f/s) hits=%" PRIu64
            " useful%%=%.1f qdepth=%" PRIu64 " drops=%" PRIu64
            "%s\n",
            100.0 * static_cast<double>(ct_hits) /
                static_cast<double>(ct_hits + ct_misses),
            ct_hits,
            rateOf(prev, "cachetier.hits", ct_hits, elapsed_ms,
                   have_prev),
            ct_misses,
            rateOf(prev, "cachetier.misses", ct_misses,
                   elapsed_ms, have_prev),
            metricU64(metrics, "gauges", "cachetier.bytes"),
            metricU64(metrics, "gauges", "cachetier.entries"),
            metricU64(metrics, "counters", "cachetier.evictions"),
            metricU64(metrics, "counters",
                      "cachetier.admission_rejects"),
            metricU64(metrics, "counters",
                      "cachetier.invalidations"),
            pf_issued,
            rateOf(prev, "cachetier.prefetch.issued", pf_issued,
                   elapsed_ms, have_prev),
            pf_hits,
            pf_issued > 0 ? 100.0 * static_cast<double>(pf_hits) /
                                static_cast<double>(pf_issued)
                          : 0.0,
            metricU64(metrics, "gauges",
                      "cachetier.prefetch.queue_depth"),
            metricU64(metrics, "counters",
                      "cachetier.prefetch.queue_drops"),
            metricU64(metrics, "gauges", "cachetier.degraded") > 0
                ? " DEGRADED(pass-through)"
                : "");
    }
    std::fflush(stdout);
}

/** Remember this poll's counters for the next frame's rates. */
void
captureCounters(const obs::JsonValue &root, PrevCounters &prev)
{
    prev.values.clear();
    const obs::JsonValue *metrics_ptr = root.find("metrics");
    const obs::JsonValue &metrics =
        metrics_ptr ? *metrics_ptr : root;
    const obs::JsonValue *counters = metrics.find("counters");
    if (!counters)
        return;
    for (const auto &member : counters->members)
        prev.values.emplace_back(member.first,
                                 member.second.asU64());
}

} // namespace

int
main(int argc, char **argv)
{
    Flags flags;
    if (!parseFlags(argc, argv, flags))
        return 2;

    std::unique_ptr<server::Client> client;
    std::string source;
    if (flags.file.empty()) {
        int port = resolvePort(flags);
        if (port <= 0) {
            usage(argv[0]);
            return 2;
        }
        auto opened = server::Client::open(
            flags.host, static_cast<uint16_t>(port));
        opened.status().expectOk("connect");
        client = opened.take();
        source = flags.host + ":" + std::to_string(port);
    } else {
        source = flags.file;
    }

    PrevCounters prev;
    bool have_prev = false;
    int consecutive_failures = 0;
    while (true) {
        Bytes doc;
        Status s;
        if (client) {
            s = client->stats(doc);
        } else {
            s = Env::defaultEnv()->readFileToString(flags.file,
                                                    doc);
        }
        if (!s.isOk()) {
            // A snapshot file mid-rename or a server mid-restart
            // is transient; a dead server is not.
            if (++consecutive_failures >= 5 || flags.once) {
                std::fprintf(stderr, "ethkv_mon: %s\n",
                             s.toString().c_str());
                return 1;
            }
        } else {
            consecutive_failures = 0;
            obs::JsonValue root;
            Status p = obs::parseJson(doc, root);
            if (!p.isOk()) {
                std::fprintf(stderr,
                             "ethkv_mon: bad stats JSON: %s\n",
                             p.toString().c_str());
                return 1;
            }
            renderFrame(root, prev, have_prev, flags.interval_ms,
                        source, /*clear=*/!flags.once);
            captureCounters(root, prev);
            have_prev = true;
        }
        if (flags.once)
            return 0;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(flags.interval_ms));
    }
}
