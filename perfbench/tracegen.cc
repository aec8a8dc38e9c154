/**
 * @file
 * perf_tracegen — capture the paper's CacheTrace op stream with real
 * key and value bytes, for replay over the wire.
 *
 *   perf_tracegen --blocks N --seed S --out DIR
 *
 * Runs wl::runSimulation(wl::cacheTraceConfig(N, S)) with an engine
 * (the SimConfig::make_engine seam) that logs every call it receives,
 * write batches kept whole. The simulator's TracingKVStore sits just
 * above that engine, so the last trace.size() logged entries are
 * exactly the captured window. Everything before it (seeded world
 * plus warm-up blocks) is folded into DIR/state.bin, the state to
 * preload; the window itself goes to DIR/ops.bin.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "kvstore/mem_store.hh"
#include "opfile.hh"
#include "workload/sim.hh"

namespace
{

using namespace ethkv;
using perfbench::Op;
using perfbench::OpKind;

constexpr uint64_t kWorldDivisor = 4;
constexpr uint64_t kWriteBackDivisor = 16;
//! Largest batch replayed as one BATCH frame: half the 16 MiB frame
//! cap the benchmark gives the server, leaving room for the encoding.
constexpr uint64_t kMaxBatchBytes = 8 << 20;

/** MemStore that appends every call to an op file. */
class RecordingStore final : public kv::KVStore
{
  public:
    explicit RecordingStore(std::FILE *log) : log_(log) {}

    Status
    put(BytesView key, BytesView value) override
    {
        Op op;
        op.kind = OpKind::Put;
        op.key = Bytes(key);
        op.value = Bytes(value);
        record(op, 1);
        return mem_.put(key, value);
    }

    Status
    get(BytesView key, Bytes &value) override
    {
        Op op;
        op.kind = OpKind::Get;
        op.key = Bytes(key);
        record(op, 1);
        return mem_.get(key, value);
    }

    Status
    del(BytesView key) override
    {
        Op op;
        op.kind = OpKind::Del;
        op.key = Bytes(key);
        record(op, 1);
        return mem_.del(key);
    }

    Status
    scan(BytesView start, BytesView end,
         const kv::ScanCallback &cb) override
    {
        Op op;
        op.kind = OpKind::Scan;
        op.key = Bytes(start);
        op.value = Bytes(end);
        record(op, 1);
        return mem_.scan(start, end, cb);
    }

    Status
    apply(const kv::WriteBatch &batch) override
    {
        if (batch.empty())
            return Status::ok();
        Op op;
        op.kind = OpKind::Batch;
        op.batch = batch;
        record(op, batch.size());
        return mem_.apply(batch);
    }

    Status flush() override { return mem_.flush(); }
    const kv::IOStats &stats() const override { return mem_.stats(); }
    std::string name() const override { return "recording"; }
    uint64_t liveKeyCount() override { return mem_.liveKeyCount(); }

    //! Trace records the logged calls stand for (TracingKVStore
    //! emits one per call and one per batch entry).
    uint64_t recordCount() const { return records_; }

  private:
    void
    record(const Op &op, uint64_t records)
    {
        perfbench::writeOp(log_, op);
        records_ += records;
    }

    std::FILE *log_;
    kv::MemStore mem_;
    uint64_t records_ = 0;
};

std::FILE *
openOrDie(const std::string &path, const char *mode)
{
    std::FILE *fp = std::fopen(path.c_str(), mode);
    if (fp == nullptr)
        fatal("cannot open %s", path.c_str());
    return fp;
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t blocks = 40;
    uint64_t seed = 1;
    std::string out;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string arg = argv[i];
        if (arg == "--blocks")
            blocks = std::strtoull(argv[i + 1], nullptr, 10);
        else if (arg == "--seed")
            seed = std::strtoull(argv[i + 1], nullptr, 10);
        else if (arg == "--out")
            out = argv[i + 1];
        else
            fatal("unknown flag %s", arg.c_str());
    }
    if (out.empty())
        fatal("usage: perf_tracegen --blocks N --seed S --out DIR");

    const std::string all_path = out + "/all.bin";
    std::FILE *all = openOrDie(all_path, "wb");
    uint64_t logged_records = 0;

    wl::SimConfig config = wl::cacheTraceConfig(blocks, seed);
    // The default world (2.4M keys, 250 MB) would make every set-up
    // a multi-second preload; a quarter of it keeps the same shape.
    // The node's read cache shrinks with it, which keeps its miss
    // pressure. The write-back buffer shrinks further, so a short
    // capture holds many flushes of a few thousand entries rather
    // than one or two 3 MB ones that decide a run's write latency
    // by when they land.
    config.node.cache.total_bytes /= kWorldDivisor;
    config.node.cache.write_back_bytes /= kWriteBackDivisor;
    wl::WorkloadConfig &w = config.workload;
    w.initial_accounts /= kWorldDivisor;
    w.initial_contracts /= kWorldDivisor;
    w.seeded_tx_lookups /= kWorldDivisor;
    w.seeded_header_numbers /= kWorldDivisor;
    w.seeded_bloom_bits /= kWorldDivisor;
    // The simulator keeps its own freezer outside the KV store; put
    // its scratch dir inside the output dir.
    config.node.freezer_dir = out + "/freezer";
    RecordingStore *recorder = nullptr;
    config.make_engine = [&]() -> std::unique_ptr<kv::KVStore> {
        auto store = std::make_unique<RecordingStore>(all);
        recorder = store.get();
        return store;
    };
    wl::SimResult result = wl::runSimulation(config);
    logged_records = recorder->recordCount();
    std::fclose(all);
    std::error_code ec;
    std::filesystem::remove_all(config.node.freezer_dir, ec);

    const uint64_t captured = result.trace.size();
    if (captured > logged_records)
        fatal("trace (%llu) longer than the engine log (%llu)",
              static_cast<unsigned long long>(captured),
              static_cast<unsigned long long>(logged_records));
    const uint64_t boundary = logged_records - captured;

    // Fold the pre-capture prefix into a state map; copy the window.
    perfbench::OpReader reader;
    if (!reader.open(all_path))
        fatal("cannot reread %s", all_path.c_str());
    std::unordered_map<Bytes, Bytes> state;
    std::FILE *ops_fp = openOrDie(out + "/ops.bin.tmp", "wb");
    uint64_t seen = 0;
    uint64_t window_ops = 0;
    std::vector<uint64_t> batch_sizes;
    Op op;
    while (reader.next(op)) {
        uint64_t n = op.kind == OpKind::Batch ? op.batch.size() : 1;
        if (seen >= boundary) {
            if (op.kind == OpKind::Batch) {
                if (op.batch.byteSize() > kMaxBatchBytes)
                    fatal("a %llu-byte batch exceeds the frame cap",
                          static_cast<unsigned long long>(
                              op.batch.byteSize()));
                batch_sizes.push_back(n);
            }
            perfbench::writeOp(ops_fp, op);
            ++window_ops;
        } else if (seen + n > boundary) {
            fatal("capture boundary falls inside a batch");
        } else {
            switch (op.kind) {
              case OpKind::Put: state[op.key] = op.value; break;
              case OpKind::Del: state.erase(op.key); break;
              case OpKind::Batch:
                for (const auto &e : op.batch.entries()) {
                    if (e.op == kv::BatchOp::Put)
                        state[e.key] = e.value;
                    else
                        state.erase(e.key);
                }
                break;
              case OpKind::Get:
              case OpKind::Scan: break;
            }
        }
        seen += n;
    }
    std::fclose(ops_fp);
    std::remove(all_path.c_str());

    std::FILE *state_fp = openOrDie(out + "/state.bin.tmp", "wb");
    for (const auto &[key, value] : state) {
        Op put;
        put.kind = OpKind::Put;
        put.key = key;
        put.value = value;
        perfbench::writeOp(state_fp, put);
    }
    std::fclose(state_fp);
    std::rename((out + "/state.bin.tmp").c_str(),
                (out + "/state.bin").c_str());
    std::rename((out + "/ops.bin.tmp").c_str(),
                (out + "/ops.bin").c_str());
    // Entries per replayed BATCH frame: median, 90th percentile, max.
    std::sort(batch_sizes.begin(), batch_sizes.end());
    auto at = [&](double q) -> unsigned long long {
        return batch_sizes.empty()
                   ? 0
                   : batch_sizes[static_cast<size_t>(
                         q * static_cast<double>(batch_sizes.size() - 1))];
    };
    std::printf("{\"state_keys\": %zu, \"window_requests\": %llu,"
                " \"trace_records\": %llu, \"batches\": %zu,"
                " \"batch_entries_p50\": %llu, \"batch_entries_p90\": %llu,"
                " \"batch_entries_max\": %llu}\n",
                state.size(),
                static_cast<unsigned long long>(window_ops),
                static_cast<unsigned long long>(captured),
                batch_sizes.size(), at(0.5), at(0.9), at(1.0));
    return 0;
}
