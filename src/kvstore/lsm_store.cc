#include "kvstore/lsm_store.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include <set>
#include <utility>

#include "common/dcheck.hh"
#include "common/logging.hh"
#include "kvstore/internal_iterator.hh"
#include "obs/scoped_timer.hh"
#include "obs/trace_event.hh"

namespace ethkv::kv
{

namespace
{

/**
 * Track identity for maintenance-thread spans: the server process
 * is pid 1 (workers take tids 1..N), so the maintenance thread gets
 * a tid far above any worker and shows up as its own lane.
 */
constexpr uint32_t kMaintenanceTracePid = 1;
constexpr uint32_t kMaintenanceTraceTid = 1000;

/** kv.lsm.compaction.l<N>.bytes_written: compaction output bytes
 *  written into level N, summed over every LSM in the process. */
obs::Counter &
levelCompactionBytes(int level)
{
    static const auto counters = [] {
        std::array<obs::Counter *, LSMStore::max_levels> c{};
        for (int n = 0; n < LSMStore::max_levels; ++n) {
            c[n] = &obs::MetricsRegistry::global().counter(
                "kv.lsm.compaction.l" + std::to_string(n) +
                ".bytes_written");
        }
        return c;
    }();
    return *counters[level];
}

/** First line of every MANIFEST this store reads or writes. */
constexpr const char *kManifestTag = "ethkv-manifest v2";

/** Decoded MANIFEST contents (plain text, one directive a line). */
struct ManifestImage
{
    uint64_t next_file = 0;
    uint64_t seq = 0;
    //! Oldest WAL offset an unflushed write may sit at.
    uint64_t log_start = 0;
    //! (level, file_no) pairs in file order.
    std::vector<std::pair<uint64_t, uint64_t>> files;
};

Status
parseManifest(BytesView data, ManifestImage &out)
{
    size_t pos = 0;
    while (pos < data.size()) {
        size_t eol = data.find('\n', pos);
        size_t len =
            eol == BytesView::npos ? data.size() - pos : eol - pos;
        std::string line(data.substr(pos, len));
        const bool header = pos == 0;
        pos = eol == BytesView::npos ? data.size() : eol + 1;
        uint64_t a, b;
        if (header) {
            // v1 named sealed WAL files; no store of that layout
            // is opened by this one.
            if (line != kManifestTag)
                return Status::notSupported("lsm: MANIFEST is \"" +
                                            line + "\", not \"" +
                                            kManifestTag + "\"");
        } else if (std::sscanf(line.c_str(), "next_file %" SCNu64,
                               &a) == 1) {
            out.next_file = a;
        } else if (std::sscanf(line.c_str(), "seq %" SCNu64, &a) ==
                   1) {
            out.seq = a;
        } else if (std::sscanf(line.c_str(),
                               "file %" SCNu64 " %" SCNu64, &a,
                               &b) == 2) {
            out.files.emplace_back(a, b);
        } else if (std::sscanf(line.c_str(), "log_start %" SCNu64,
                               &a) == 1) {
            out.log_start = a;
        }
    }
    if (data.empty())
        return Status::corruption("lsm: empty MANIFEST");
    return Status::ok();
}

} // namespace

LSMStore::TableHandle::~TableHandle()
{
    if (obsolete.load(std::memory_order_acquire)) {
        ETHKV_IGNORE_STATUS(
            env->removeFile(reader->path()),
            "the manifest no longer references this input table; "
            "leaking it costs disk, not correctness");
    }
}

LSMStore::CompactionScope::CompactionScope(
    LSMStore &store, std::unique_lock<std::mutex> &lock)
    : store_(store), lock_(lock)
{
    ETHKV_DCHECK(lock_.owns_lock());
    ETHKV_DCHECK(!store_.in_compaction_);
    store_.in_compaction_ = true;
}

LSMStore::CompactionScope::~CompactionScope()
{
    // Any early return or exception between pick and install lands
    // here; re-acquire the lock if the error path left it released
    // so the flag can never stay stuck and disable compaction.
    if (!lock_.owns_lock())
        lock_.lock();
    store_.in_compaction_ = false;
    store_.updateQueueGaugeLocked();
    store_.cv_.notify_all();
}

LSMStore::LSMStore(LSMOptions options)
    : options_(std::move(options)),
      env_(options_.env ? options_.env : Env::defaultEnv()),
      memtable_(std::make_unique<MemTable>()),
      version_(std::make_shared<Version>())
{
    if (options_.max_immutable_memtables < 1)
        options_.max_immutable_memtables = 1;
}

LSMStore::~LSMStore()
{
    {
        std::unique_lock<std::mutex> lock(mutex_.native());
        shutting_down_ = true;
    }
    cv_.notify_all();
    if (maintenance_)
        maintenance_->stop();
    // Unflushed memtables stay behind in the WAL, from the
    // MANIFEST's log_start on; recovery replays them. Best effort:
    // make buffered writes durable on clean shutdown.
    if (wal_) {
        ETHKV_IGNORE_STATUS(wal_->sync(),
                            "best-effort durability in dtor; a "
                            "failed sync is re-covered by WAL "
                            "replay on reopen");
    }
}

std::string
LSMStore::tablePath(uint64_t file_no) const
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "/%06" PRIu64 ".sst", file_no);
    return options_.dir + buf;
}

std::string
LSMStore::manifestPath() const
{
    return options_.dir + "/MANIFEST";
}

Result<std::unique_ptr<LSMStore>>
LSMStore::open(const LSMOptions &options)
{
    if (options.dir.empty())
        return Status::invalidArgument("lsm: empty directory");
    Env *env = options.env ? options.env : Env::defaultEnv();
    Status dir_s = env->createDirs(options.dir);
    if (!dir_s.isOk())
        return dir_s;

    auto store =
        std::unique_ptr<LSMStore>(new LSMStore(options));
    Status s = store->recover();
    if (!s.isOk())
        return s;
    return store;
}

void
LSMStore::degradeLocked(const Status &cause)
{
    if (degraded_)
        return;
    degraded_ = true;
    degraded_reason_ = cause.toString();
    obs::MetricsRegistry::global()
        .counter("kv.degraded_transitions")
        .inc();
    // Unblock stalled writers and flush() barriers: there will be
    // no more background progress for them to wait on.
    cv_.notify_all();
}

Status
LSMStore::degradeOnIOErrorLocked(Status s)
{
    if (s.code() != StatusCode::IOError || degraded_)
        return s;
    degradeLocked(s);
    return s;
}

void
LSMStore::recordBgErrorLocked(const Status &cause)
{
    static obs::Counter &bg_errors =
        obs::MetricsRegistry::global().counter("kv.bg_errors");
    bg_errors.inc();
    // A failed background flush means the immutable queue can never
    // drain (its memtable is already sealed), so any background
    // failure — not just IOError — must go sticky: the foreground
    // path surfaces IODegraded instead of stalling forever.
    degradeLocked(cause);
}

Status
LSMStore::ioDegradedStatusLocked() const
{
    return Status::ioDegraded("lsm: read-only after I/O failure: " +
                              degraded_reason_);
}

Status
LSMStore::recover()
{
    // Recovery is single-threaded: the maintenance thread starts
    // only at the end, so "Locked" helpers are safe to call bare.
    // A store of the v1 layout that never flushed has no MANIFEST
    // to refuse, only its single WAL: refuse that instead of
    // opening empty over it.
    if (env_->fileExists(options_.dir + "/wal.log"))
        return Status::notSupported(
            "lsm: " + options_.dir +
            "/wal.log is the v1 WAL layout; the log is now wal/");
    std::vector<TableVec> levels(max_levels);
    if (env_->fileExists(manifestPath())) {
        Bytes data;
        Status ms = env_->readFileToString(manifestPath(), data);
        if (!ms.isOk())
            return ms;
        ManifestImage img;
        ms = parseManifest(data, img);
        if (!ms.isOk())
            return ms;
        next_file_no_ = img.next_file;
        seq_ = img.seq;
        log_start_ = img.log_start;
        for (auto [level, file_no] : img.files) {
            if (level >= max_levels) {
                return Status::corruption(
                    "lsm: manifest level out of range");
            }
            auto reader =
                SSTableReader::open(tablePath(file_no), env_);
            if (!reader.ok())
                return reader.status();
            levels[level].push_back(std::make_shared<TableHandle>(
                file_no, reader.take(), env_));
        }
    }

    // L0 is searched newest-first; deeper levels are ordered by key.
    std::sort(levels[0].begin(), levels[0].end(),
              [](const auto &x, const auto &y) {
                  return x->file_no > y->file_no;
              });
    for (int level = 1; level < max_levels; ++level) {
        std::sort(levels[level].begin(), levels[level].end(),
                  [](const auto &x, const auto &y) {
                      return x->reader->props().smallest_key <
                             y->reader->props().smallest_key;
                  });
    }
    auto ver = std::make_shared<Version>();
    ver->levels = std::move(levels);
    version_ = std::move(ver);

    // Open the WAL (quarantining any torn tail, so new records are
    // never appended past one) and replay every write no SSTable
    // holds yet into a fresh memtable.
    ReplLogOptions lo;
    lo.dir = options_.dir + "/wal";
    lo.stem = "wal";
    lo.segment_bytes = options_.memtable_bytes;
    lo.sync_appends = options_.sync_wal;
    lo.env = env_;
    auto wal = ReplicationLog::open(lo);
    if (!wal.ok())
        return wal.status();
    wal_ = wal.take();
    quarantined_bytes_ = wal_->quarantinedBytes();
    if (quarantined_bytes_ > 0) {
        obs::MetricsRegistry::global()
            .counter("kv.quarantined_bytes")
            .inc(quarantined_bytes_);
    }
    if (wal_->startOffset() > log_start_)
        return Status::corruption(
            "lsm: WAL starts past the MANIFEST's log_start");
    Status s = Status::ok();
    if (wal_->endOffset() < log_start_) {
        // Unsynced records an SSTable already holds were torn off:
        // restart the log at log_start, where replay looks.
        s = wal_->reset(log_start_, seq_, false);
    } else {
        s = wal_->replay(
            log_start_,
            [this](const WriteBatch &batch, uint64_t first_seq) {
                uint64_t seq = first_seq;
                for (const BatchEntry &e : batch.entries()) {
                    memtable_->add(e.key, e.value, seq,
                                   e.op == BatchOp::Put
                                       ? EntryType::Put
                                       : EntryType::Tombstone);
                    ++seq;
                }
                if (seq > seq_)
                    seq_ = seq;
            });
    }
    if (!s.isOk())
        return s;
    active_log_start_ = log_start_;
    // Segments a crash kept from being dropped go now.
    s = wal_->trimTo(log_start_);
    if (!s.isOk())
        return s;
    // The wal/ directory may have just been created.
    s = env_->syncDir(options_.dir);
    if (!s.isOk())
        return s;

    maintenance_ = std::make_unique<MaintenanceThread>(
        [this] { return backgroundStep(); });
    maintenance_->start();
    return Status::ok();
}

Status
LSMStore::persistManifestLocked()
{
    std::string body = std::string(kManifestTag) + "\n";
    body += "next_file " + std::to_string(next_file_no_) + "\n";
    body += "seq " + std::to_string(seq_) + "\n";
    body += "log_start " + std::to_string(log_start_) + "\n";
    for (int level = 0; level < max_levels; ++level) {
        for (const auto &t : version_->levels[level]) {
            body += "file " + std::to_string(level) + " " +
                    std::to_string(t->file_no) + "\n";
        }
    }
    // Commit protocol: sync the temp file, rename it over MANIFEST,
    // then fsync the directory. Skipping either sync re-creates the
    // seed's bug where a crash could surface an empty or stale
    // manifest whose rename never reached disk.
    std::string tmp = manifestPath() + ".tmp";
    Status s = env_->writeStringToFile(tmp, body, /*sync=*/true);
    if (!s.isOk())
        return s;
    s = env_->renameFile(tmp, manifestPath());
    if (!s.isOk())
        return s;
    // This also persists the directory entries of any SSTables
    // created since the last commit (same directory).
    return env_->syncDir(options_.dir);
}

Status
LSMStore::put(BytesView key, BytesView value)
{
    WriteBatch batch;
    batch.put(key, value);
    return apply(batch);
}

Status
LSMStore::del(BytesView key)
{
    WriteBatch batch;
    batch.del(key);
    return apply(batch);
}

void
LSMStore::maybeStallLocked(std::unique_lock<std::mutex> &lock)
{
    static obs::Counter &stall_micros =
        obs::MetricsRegistry::global().counter("kv.stall_micros");

    auto over_hard_limit = [this] {
        return imm_.size() >= static_cast<size_t>(
                                  options_.max_immutable_memtables) ||
               version_->levels[0].size() >=
                   static_cast<size_t>(l0_stop_files_);
    };

    using Clock = std::chrono::steady_clock;
    if (over_hard_limit()) {
        auto begin = Clock::now();
        cv_.wait(lock, [&] {
            return degraded_ || shutting_down_ || !over_hard_limit();
        });
        auto waited =
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - begin)
                .count();
        stall_micros.inc(static_cast<uint64_t>(waited));
        return;
    }
    if (version_->levels[0].size() >=
        static_cast<size_t>(l0_slowdown_files_)) {
        // Soft backpressure: cede ~1 ms so maintenance can catch up
        // before L0 reaches the hard stop. Implemented as a timed
        // wait so a background install releases the writer early.
        auto begin = Clock::now();
        cv_.wait_for(lock, std::chrono::milliseconds(1), [&] {
            return degraded_ || shutting_down_ ||
                   version_->levels[0].size() <
                       static_cast<size_t>(l0_slowdown_files_);
        });
        auto waited =
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - begin)
                .count();
        stall_micros.inc(static_cast<uint64_t>(waited));
    }
}

Status
LSMStore::apply(const WriteBatch &batch)
{
    return applyPositions(batch, nullptr);
}

Status
LSMStore::applyEntries(const WriteBatch &batch,
                       const std::vector<uint32_t> &positions)
{
    return applyPositions(batch, &positions);
}

Status
LSMStore::applyPositions(const WriteBatch &batch,
                         const std::vector<uint32_t> *positions)
{
    const size_t count = positions ? positions->size() : batch.size();
    std::unique_lock<std::mutex> lock(mutex_.native());
    if (degraded_)
        return ioDegradedStatusLocked();
    if (count == 0)
        return Status::ok();
    maybeStallLocked(lock);
    if (degraded_)
        return ioDegradedStatusLocked();

    // The log fdatasyncs the record itself under sync_wal.
    uint64_t first_seq = seq_ + 1;
    Bytes record;
    if (positions)
        appendWalRecord(record, batch, *positions, first_seq);
    else
        appendWalRecord(record, batch, first_seq);
    uint64_t log_end = 0;
    Status s =
        wal_->appendRecord(record, first_seq + count - 1, &log_end);
    if (!s.isOk())
        return degradeOnIOErrorLocked(std::move(s));
    for (size_t i = 0; i < count; ++i) {
        const BatchEntry &e =
            batch.entries()[positions ? (*positions)[i] : i];
        ++seq_;
        if (e.op == BatchOp::Put) {
            ++stats_.user_writes;
            stats_.logical_bytes_written +=
                e.key.size() + e.value.size();
            memtable_->add(e.key, e.value, seq_, EntryType::Put);
        } else {
            ++stats_.user_deletes;
            ++stats_.tombstones_written;
            stats_.logical_bytes_written += e.key.size();
            memtable_->add(e.key, Bytes(), seq_,
                           EntryType::Tombstone);
        }
        stats_.bytes_written += e.key.size() + e.value.size();
    }
    // An overwrite grows approximateBytes() by the value-size
    // difference only, so traffic on a few keys would never seal
    // and the log behind the memtable would grow without bound;
    // the log span since the memtable's first record bounds it.
    if (memtable_->approximateBytes() >= options_.memtable_bytes ||
        log_end - active_log_start_ >=
            kSealLogSpanFactor * options_.memtable_bytes) {
        sealMemtableLocked();
    }
    return Status::ok();
}

void
LSMStore::sealMemtableLocked()
{
    if (memtable_->empty())
        return;
    // Its records stay in the WAL until the flush commits a
    // log_start past them.
    active_log_start_ = wal_->endOffset();
    imm_.push_back({std::shared_ptr<const MemTable>(
                        memtable_.release()),
                    active_log_start_});
    memtable_ = std::make_unique<MemTable>();
    updateQueueGaugeLocked();
    maintenance_->signal();
}

bool
LSMStore::backgroundStep()
{
    std::unique_lock<std::mutex> lock(mutex_.native());
    if (shutting_down_ || degraded_)
        return false;
    if (!imm_.empty()) {
        Status s = backgroundFlush(lock);
        if (!s.isOk()) {
            recordBgErrorLocked(s);
            return false;
        }
        return true;
    }
    // compactAll runs inline compactions with in_compaction_ held
    // across its own unlock windows; never double-claim.
    if (!in_compaction_ && compactionNeededLocked()) {
        Status s = backgroundCompact(lock);
        if (!s.isOk()) {
            recordBgErrorLocked(s);
            return false;
        }
        return true;
    }
    return false;
}

Status
LSMStore::writeTableFromMem(const MemTable &mem, uint64_t file_no,
                            uint64_t &file_bytes)
{
    auto writer = SSTableWriter::create(tablePath(file_no), env_);
    if (!writer.ok())
        return writer.status();
    Status add_status = Status::ok();
    mem.forEach(BytesView(), BytesView(),
                [&](const EntryView &e) {
                    add_status = writer.value()->add(e);
                    return add_status.isOk();
                });
    if (!add_status.isOk())
        return add_status;
    Status s = writer.value()->finish();
    if (!s.isOk())
        return s;
    file_bytes = writer.value()->fileBytes();
    return Status::ok();
}

void
LSMStore::installL0Locked(std::shared_ptr<TableHandle> handle)
{
    auto next = std::make_shared<Version>(*version_);
    next->levels[0].insert(next->levels[0].begin(),
                           std::move(handle));
    version_ = std::move(next);
}

Status
LSMStore::backgroundFlush(std::unique_lock<std::mutex> &lock)
{
    static obs::LatencyHistogram &flush_ns =
        obs::MetricsRegistry::global().histogram("kv.lsm.flush_ns");
    obs::ScopedTimer timer(flush_ns);
    obs::ScopedSpan span(options_.trace_log, "maint.flush",
                         "maintenance");
    span.setTrack(kMaintenanceTracePid, kMaintenanceTraceTid);

    ImmutableMemtable imm = imm_.front();
    uint64_t file_no = next_file_no_++;
    lock.unlock();

    // Table build runs without the lock: the sealed memtable is
    // frozen, and file numbers were claimed above.
    uint64_t file_bytes = 0;
    Status s = writeTableFromMem(*imm.mem, file_no, file_bytes);
    std::shared_ptr<TableHandle> handle;
    if (s.isOk()) {
        auto reader = SSTableReader::open(tablePath(file_no), env_);
        if (!reader.ok())
            s = reader.status();
        else
            handle = std::make_shared<TableHandle>(
                file_no, reader.take(), env_);
    }

    span.setArg("bytes", file_bytes);
    lock.lock();
    if (!s.isOk())
        return s;
    stats_.flush_bytes += file_bytes;
    stats_.bytes_written += file_bytes;
    installL0Locked(std::move(handle));
    ETHKV_DCHECK_EQ(version_->levels[0].front()->file_no, file_no);
    ETHKV_DCHECK(!imm_.empty());
    imm_.pop_front();
    log_start_ = imm.log_end;
    s = persistManifestLocked();
    if (!s.isOk())
        return s;
    // Only now may the log drop what the new table holds.
    ETHKV_IGNORE_STATUS(wal_->trimTo(log_start_),
                        "the segments stay on disk below log_start; "
                        "the next flush or rotation drops them");
    updateQueueGaugeLocked();
    cv_.notify_all();
    return Status::ok();
}

bool
LSMStore::compactionNeededLocked() const
{
    if (version_->levels[0].size() >=
        static_cast<size_t>(options_.l0_compaction_trigger)) {
        return true;
    }
    for (int level = 1; level < max_levels - 1; ++level) {
        if (!version_->levels[level].empty() &&
            levelBytesLocked(level) > levelLimit(level)) {
            return true;
        }
    }
    return false;
}

size_t
pickMinOverlapTable(const std::vector<TableSpan> &level,
                    const std::vector<TableSpan> &next)
{
    ETHKV_DCHECK(!level.empty());
    size_t best = 0;
    double best_ratio = 0;
    // Both runs are sorted and disjoint, so the first next-level
    // table a level table can overlap only moves right.
    size_t first = 0;
    for (size_t i = 0; i < level.size(); ++i) {
        const TableSpan &t = level[i];
        while (first < next.size() &&
               next[first].largest < t.smallest) {
            ++first;
        }
        uint64_t overlap = 0;
        for (size_t j = first;
             j < next.size() && next[j].smallest <= t.largest; ++j) {
            overlap += next[j].bytes;
        }
        double ratio =
            static_cast<double>(overlap) /
            static_cast<double>(std::max<uint64_t>(t.bytes, 1));
        if (i == 0 || ratio < best_ratio) {
            best = i;
            best_ratio = ratio;
        }
    }
    return best;
}

bool
LSMStore::pickCompactionLocked(TableVec &inputs, int &target_level)
{
    const auto &levels = version_->levels;
    if (levels[0].size() >=
        static_cast<size_t>(options_.l0_compaction_trigger)) {
        // All of L0 (kept newest-first) plus everything it overlaps
        // at L1.
        Bytes smallest, largest;
        bool first = true;
        for (const auto &t : levels[0]) {
            const SSTableProps &p = t->reader->props();
            if (first || p.smallest_key < smallest)
                smallest = p.smallest_key;
            if (first || p.largest_key > largest)
                largest = p.largest_key;
            first = false;
            inputs.push_back(t);
        }
        for (const auto &t : levels[1]) {
            const SSTableProps &p = t->reader->props();
            if (BytesView(p.largest_key) < BytesView(smallest) ||
                BytesView(p.smallest_key) > BytesView(largest)) {
                continue;
            }
            inputs.push_back(t);
        }
        target_level = 1;
        return true;
    }
    auto spans = [](const TableVec &tables) {
        std::vector<TableSpan> out;
        out.reserve(tables.size());
        for (const auto &t : tables) {
            const SSTableProps &p = t->reader->props();
            out.push_back({p.smallest_key, p.largest_key,
                           t->reader->fileBytes()});
        }
        return out;
    };
    for (int level = 1; level < max_levels - 1; ++level) {
        if (levels[level].empty() ||
            levelBytesLocked(level) <= levelLimit(level)) {
            continue;
        }
        // The least-overlapping file plus everything it overlaps one
        // level down.
        const auto &pick = levels[level][pickMinOverlapTable(
            spans(levels[level]), spans(levels[level + 1]))];
        inputs.push_back(pick);
        const SSTableProps &p = pick->reader->props();
        for (const auto &t : levels[level + 1]) {
            const SSTableProps &q = t->reader->props();
            if (BytesView(q.largest_key) <
                    BytesView(p.smallest_key) ||
                BytesView(q.smallest_key) >
                    BytesView(p.largest_key)) {
                continue;
            }
            inputs.push_back(t);
        }
        target_level = level + 1;
        return true;
    }
    return false;
}

Status
LSMStore::backgroundCompact(std::unique_lock<std::mutex> &lock)
{
    TableVec inputs;
    int target_level = 0;
    if (!pickCompactionLocked(inputs, target_level))
        return Status::ok();
    CompactionScope scope(*this, lock);
    return runCompaction(lock, inputs, target_level);
}

Status
LSMStore::runCompaction(std::unique_lock<std::mutex> &lock,
                        const TableVec &inputs, int target_level)
{
    ETHKV_DCHECK(lock.owns_lock());
    ETHKV_DCHECK(in_compaction_);
    if (inputs.empty())
        return Status::ok();

    static obs::LatencyHistogram &compaction_ns =
        obs::MetricsRegistry::global().histogram(
            "kv.lsm.compaction_ns");
    obs::ScopedTimer timer(compaction_ns);
    obs::ScopedSpan span(options_.trace_log, "maint.compact",
                         "maintenance");
    span.setTrack(kMaintenanceTracePid, kMaintenanceTraceTid);

    ++stats_.compactions;

    Bytes smallest, largest;
    bool first = true;
    for (const auto &t : inputs) {
        const SSTableProps &p = t->reader->props();
        if (first || p.smallest_key < smallest)
            smallest = p.smallest_key;
        if (first || p.largest_key > largest)
            largest = p.largest_key;
        first = false;
    }
    bool drop_tombstones =
        bottommostForRangeLocked(target_level, smallest, largest);

    // The merge itself runs without the lock. The input tables are
    // pinned by the shared_ptrs in `inputs`; concurrent flushes may
    // prepend new L0 tables meanwhile, which is fine because the
    // install below removes inputs by file number, not position.
    lock.unlock();

    std::vector<std::unique_ptr<InternalIterator>> sources;
    for (const auto &t : inputs)
        sources.push_back(t->reader->newIterator());
    MergingIterator merged(std::move(sources));
    merged.seek(BytesView());

    std::unique_ptr<SSTableWriter> writer;
    uint64_t new_bytes = 0;
    uint64_t dropped_tombstones = 0;
    std::vector<uint64_t> output_nos;

    auto close_writer = [&]() -> Status {
        if (!writer)
            return Status::ok();
        Status cs = writer->finish();
        if (!cs.isOk())
            return cs;
        new_bytes += writer->fileBytes();
        writer.reset();
        return Status::ok();
    };

    Status s = Status::ok();
    while (merged.valid()) {
        const EntryView e = merged.entry();
        if (e.type == EntryType::Tombstone && drop_tombstones) {
            ++dropped_tombstones;
            merged.next();
            continue;
        }
        if (!writer) {
            uint64_t file_no;
            {
                std::lock_guard<std::mutex> no_lock(
                    mutex_.native());
                file_no = next_file_no_++;
            }
            output_nos.push_back(file_no);
            auto w = SSTableWriter::create(tablePath(file_no), env_);
            if (!w.ok()) {
                s = w.status();
                break;
            }
            writer = w.take();
        }
        s = writer->add(e);
        if (!s.isOk())
            break;
        if (writer->props().data_bytes >
            options_.target_file_bytes) {
            s = close_writer();
            if (!s.isOk())
                break;
        }
        merged.next();
    }
    if (s.isOk())
        s = close_writer();

    // Open the outputs before touching the version, so a failure
    // here leaves the table set exactly as it was.
    std::vector<std::shared_ptr<TableHandle>> new_handles;
    if (s.isOk()) {
        for (uint64_t file_no : output_nos) {
            auto reader =
                SSTableReader::open(tablePath(file_no), env_);
            if (!reader.ok()) {
                s = reader.status();
                break;
            }
            new_handles.push_back(std::make_shared<TableHandle>(
                file_no, reader.take(), env_));
        }
    }

    lock.lock();
    if (!s.isOk())
        return s;

    span.setArg("bytes", new_bytes);
    levelCompactionBytes(target_level).inc(new_bytes);
    stats_.compaction_bytes += new_bytes;
    stats_.bytes_written += new_bytes;
    stats_.tombstones_dropped += dropped_tombstones;

    // Install: rebuild the version without the inputs and with the
    // outputs merged into the target level's sorted run.
    std::set<uint64_t> input_nos;
    for (const auto &t : inputs)
        input_nos.insert(t->file_no);
    auto next = std::make_shared<Version>();
    next->levels.resize(max_levels);
    for (int level = 0; level < max_levels; ++level) {
        for (const auto &t : version_->levels[level]) {
            if (!input_nos.count(t->file_no))
                next->levels[level].push_back(t);
        }
    }
    for (auto &h : new_handles)
        next->levels[target_level].push_back(std::move(h));
    std::sort(next->levels[target_level].begin(),
              next->levels[target_level].end(),
              [](const auto &x, const auto &y) {
                  return x->reader->props().smallest_key <
                         y->reader->props().smallest_key;
              });
#if ETHKV_DCHECK_ENABLED
    // The freshly installed run must be non-overlapping.
    for (size_t i = 1; i < next->levels[target_level].size(); ++i) {
        ETHKV_DCHECK(
            next->levels[target_level][i - 1]->reader->props()
                .largest_key <
            next->levels[target_level][i]->reader->props()
                .smallest_key);
    }
#endif
    version_ = std::move(next);

    s = persistManifestLocked();
    if (!s.isOk())
        return s;

    // Only after the manifest stops referencing the inputs may they
    // be deleted; the last Version snapshot holding a handle does
    // the actual unlink when it drops it.
    for (const auto &t : inputs) {
        retired_reader_bytes_.fetch_add(
            t->reader->bytesRead(), std::memory_order_relaxed);
        t->obsolete.store(true, std::memory_order_release);
    }

    updateQueueGaugeLocked();
    cv_.notify_all();
    return Status::ok();
}

Status
LSMStore::get(BytesView key, Bytes &value)
{
    std::unique_lock<std::mutex> lock(mutex_.native());
    ++stats_.user_reads;

    // Memtable hits copy out only the value; the active one's view
    // is read before the lock drops.
    EntryView hit;
    if (memtable_->get(key, hit)) {
        if (hit.type == EntryType::Tombstone)
            return Status::notFound();
        value.assign(hit.value);
        return Status::ok();
    }

    // Snapshot the frozen state, then search without the lock.
    std::vector<std::shared_ptr<const MemTable>> imms;
    imms.reserve(imm_.size());
    for (auto it = imm_.rbegin(); it != imm_.rend(); ++it)
        imms.push_back(it->mem); // Newest first.
    std::shared_ptr<const Version> ver = version_;
    lock.unlock();

    for (const auto &mem : imms) {
        if (mem->get(key, hit)) {
            if (hit.type == EntryType::Tombstone)
                return Status::notFound();
            value.assign(hit.value);
            return Status::ok();
        }
    }

    InternalEntry entry;
    SSTableReader::GetCost cost;
    Status s = getFromTables(*ver, key, entry, cost);
    static obs::Counter &tables_probed =
        obs::MetricsRegistry::global().counter(
            "kv.lsm.get.tables_probed");
    static obs::Counter &bloom_negatives =
        obs::MetricsRegistry::global().counter(
            "kv.lsm.get.bloom_negatives");
    static obs::Counter &block_bytes =
        obs::MetricsRegistry::global().counter(
            "kv.lsm.get.block_bytes");
    if (cost.tables_probed != 0)
        tables_probed.inc(cost.tables_probed);
    if (cost.bloom_negatives != 0)
        bloom_negatives.inc(cost.bloom_negatives);
    if (cost.block_bytes != 0)
        block_bytes.inc(cost.block_bytes);
    if (!s.isOk())
        return s;
    if (entry.type == EntryType::Tombstone)
        return Status::notFound();
    value = std::move(entry.value);
    return Status::ok();
}

Status
LSMStore::getFromTables(const Version &ver, BytesView key,
                        InternalEntry &entry,
                        SSTableReader::GetCost &cost)
{
    // L0: newest first; files may overlap.
    for (const auto &t : ver.levels[0]) {
        Status s = t->reader->get(key, entry, &cost);
        if (!s.isNotFound())
            return s;
    }

    // Deeper levels: at most one candidate file per level.
    for (int level = 1; level < max_levels; ++level) {
        const auto &files = ver.levels[level];
        if (files.empty())
            continue;
        // Last file whose smallest key <= key.
        size_t lo = 0, hi = files.size();
        while (lo < hi) {
            size_t mid = (lo + hi) / 2;
            if (BytesView(
                    files[mid]->reader->props().smallest_key) <=
                key) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if (lo == 0)
            continue;
        Status s = files[lo - 1]->reader->get(key, entry, &cost);
        if (!s.isNotFound())
            return s;
    }
    return Status::notFound();
}

Status
LSMStore::scan(BytesView start, BytesView end, const ScanCallback &cb)
{
    std::unique_lock<std::mutex> lock(mutex_.native());
    ++stats_.user_scans;

    // The live memtable mutates under concurrent writers, so copy
    // the requested range out under the lock (bounded by
    // memtable_bytes). Sealed memtables and tables are frozen and
    // iterate lock-free via the snapshot.
    std::vector<InternalEntry> active;
    memtable_->forEach(start, end, [&](const EntryView &e) {
        active.push_back(e.toEntry());
        return true;
    });
    std::vector<std::shared_ptr<const MemTable>> imms;
    imms.reserve(imm_.size());
    for (auto it = imm_.rbegin(); it != imm_.rend(); ++it)
        imms.push_back(it->mem); // Newest first.
    std::shared_ptr<const Version> ver = version_;
    lock.unlock();

    std::vector<std::unique_ptr<InternalIterator>> sources;
    sources.push_back(
        std::make_unique<VectorIterator>(std::move(active)));
    for (const auto &mem : imms)
        sources.push_back(mem->newIterator());
    for (const auto &t : ver->levels[0])
        sources.push_back(t->reader->newIterator());
    for (int level = 1; level < max_levels; ++level) {
        for (const auto &t : ver->levels[level]) {
            const SSTableProps &p = t->reader->props();
            if (!end.empty() && BytesView(p.smallest_key) >= end)
                continue;
            if (BytesView(p.largest_key) < start)
                continue;
            sources.push_back(t->reader->newIterator());
        }
    }

    MergingIterator merged(std::move(sources));
    merged.seek(start);
    while (merged.valid()) {
        const EntryView e = merged.entry();
        if (!end.empty() && e.key >= end)
            break;
        if (e.type == EntryType::Put) {
            if (!cb(e.key, e.value))
                break;
        }
        merged.next();
    }
    return Status::ok();
}

Status
LSMStore::flush()
{
    std::unique_lock<std::mutex> lock(mutex_.native());
    if (degraded_)
        return ioDegradedStatusLocked();
    sealMemtableLocked();
    maintenance_->signal();
    // Barrier: wait for full quiescence so callers (and tests) see
    // every write in an SSTable and the level shape settled.
    cv_.wait(lock, [this] {
        return degraded_ || shutting_down_ ||
               (imm_.empty() && !in_compaction_ &&
                !compactionNeededLocked());
    });
    if (degraded_)
        return ioDegradedStatusLocked();
    return degradeOnIOErrorLocked(wal_->sync());
}

uint64_t
LSMStore::levelBytesLocked(int level) const
{
    uint64_t total = 0;
    for (const auto &t : version_->levels[level])
        total += t->reader->fileBytes();
    return total;
}

uint64_t
LSMStore::levelLimit(int level) const
{
    double limit = static_cast<double>(options_.level_base_bytes);
    for (int i = 1; i < level; ++i)
        limit *= kLevelMultiplier;
    return static_cast<uint64_t>(limit);
}

bool
LSMStore::bottommostForRangeLocked(int level, BytesView smallest,
                                   BytesView largest) const
{
    for (int deeper = level + 1; deeper < max_levels; ++deeper) {
        for (const auto &t : version_->levels[deeper]) {
            const SSTableProps &p = t->reader->props();
            if (BytesView(p.largest_key) < smallest)
                continue;
            if (BytesView(p.smallest_key) > largest)
                continue;
            return false;
        }
    }
    return true;
}

Status
LSMStore::compactAll()
{
    std::unique_lock<std::mutex> lock(mutex_.native());
    if (degraded_)
        return ioDegradedStatusLocked();
    sealMemtableLocked();
    maintenance_->signal();
    // Drain the flush queue and any in-flight background
    // compaction, then run the full compaction inline while
    // in_compaction_ keeps the background thread out.
    cv_.wait(lock, [this] {
        return degraded_ || (imm_.empty() && !in_compaction_);
    });
    if (degraded_)
        return ioDegradedStatusLocked();

    CompactionScope scope(*this, lock);
    Status s = Status::ok();
    if (!version_->levels[0].empty()) {
        TableVec inputs;
        Bytes smallest, largest;
        bool first = true;
        for (const auto &t : version_->levels[0]) {
            const SSTableProps &p = t->reader->props();
            if (first || p.smallest_key < smallest)
                smallest = p.smallest_key;
            if (first || p.largest_key > largest)
                largest = p.largest_key;
            first = false;
            inputs.push_back(t);
        }
        for (const auto &t : version_->levels[1]) {
            const SSTableProps &p = t->reader->props();
            if (BytesView(p.largest_key) < BytesView(smallest) ||
                BytesView(p.smallest_key) > BytesView(largest)) {
                continue;
            }
            inputs.push_back(t);
        }
        s = runCompaction(lock, inputs, 1);
        if (!s.isOk())
            return degradeOnIOErrorLocked(std::move(s));
    }
    for (int level = 1; level < max_levels - 1; ++level) {
        while (!version_->levels[level].empty()) {
            TableVec inputs;
            inputs.push_back(version_->levels[level][0]);
            const SSTableProps &p =
                version_->levels[level][0]->reader->props();
            for (const auto &t : version_->levels[level + 1]) {
                const SSTableProps &q = t->reader->props();
                if (BytesView(q.largest_key) <
                        BytesView(p.smallest_key) ||
                    BytesView(q.smallest_key) >
                        BytesView(p.largest_key)) {
                    continue;
                }
                inputs.push_back(t);
            }
            s = runCompaction(lock, inputs, level + 1);
            if (!s.isOk())
                return degradeOnIOErrorLocked(std::move(s));
        }
        // Stop once everything is in one level.
        bool deeper_empty = true;
        for (int d = level + 1; d < max_levels; ++d)
            deeper_empty =
                deeper_empty && version_->levels[d].empty();
        if (deeper_empty)
            break;
    }
    return Status::ok();
}

Status
LSMStore::checkInvariants() const
{
    auto corrupt = [](const std::string &what) {
        return Status::corruption("lsm invariant: " + what);
    };

    std::unique_lock<std::mutex> lock(mutex_.native());
    std::shared_ptr<const Version> ver = version_;

    if (ver->levels.size() != static_cast<size_t>(max_levels))
        return corrupt("level vector has wrong arity");

    // Per-table sanity + global file-number uniqueness.
    std::set<uint64_t> file_nos;
    for (int level = 0; level < max_levels; ++level) {
        for (const auto &t : ver->levels[level]) {
            const SSTableProps &p = t->reader->props();
            if (p.smallest_key > p.largest_key) {
                return corrupt("table " +
                               std::to_string(t->file_no) +
                               " has smallest_key > largest_key");
            }
            if (t->file_no >= next_file_no_) {
                return corrupt("table " +
                               std::to_string(t->file_no) +
                               " not below next_file_no");
            }
            if (!file_nos.insert(t->file_no).second) {
                return corrupt("duplicate file number " +
                               std::to_string(t->file_no));
            }
        }
    }

    // L0 may overlap but is searched newest-first; deeper levels
    // are a single sorted, non-overlapping run each.
    for (size_t i = 1; i < ver->levels[0].size(); ++i) {
        if (ver->levels[0][i - 1]->file_no <=
            ver->levels[0][i]->file_no)
            return corrupt("L0 not ordered newest-first");
    }
    for (int level = 1; level < max_levels; ++level) {
        const auto &files = ver->levels[level];
        for (size_t i = 1; i < files.size(); ++i) {
            const SSTableProps &prev =
                files[i - 1]->reader->props();
            const SSTableProps &cur = files[i]->reader->props();
            if (prev.smallest_key > cur.smallest_key) {
                return corrupt("L" + std::to_string(level) +
                               " not sorted by smallest key");
            }
            if (prev.largest_key >= cur.smallest_key) {
                return corrupt("L" + std::to_string(level) +
                               " has overlapping key ranges");
            }
        }
    }

    // Sealed memtables queue oldest-first, each ending further into
    // the WAL, and the WAL holds every record none has flushed.
    for (size_t i = 1; i < imm_.size(); ++i) {
        if (imm_[i - 1].log_end > imm_[i].log_end)
            return corrupt("immutable queue not oldest-first");
    }
    if (log_start_ < wal_->startOffset() ||
        log_start_ > wal_->endOffset())
        return corrupt("log_start outside the WAL");

    // The on-disk MANIFEST must describe exactly the in-memory
    // table set and log_start (it is rewritten on every flush and
    // compaction). A degraded store is exempt: the failed commit
    // that degraded it may legitimately have left the manifest
    // behind memory.
    if (degraded_)
        return Status::ok();
    std::set<std::pair<uint64_t, uint64_t>> live_files;
    for (int level = 0; level < max_levels; ++level)
        for (const auto &t : ver->levels[level])
            live_files.insert(
                {static_cast<uint64_t>(level), t->file_no});
    if (!env_->fileExists(manifestPath())) {
        if (!live_files.empty())
            return corrupt("tables open but MANIFEST missing");
        return Status::ok();
    }
    Bytes data;
    Status ms = env_->readFileToString(manifestPath(), data);
    if (!ms.isOk())
        return ms;
    ManifestImage img;
    ms = parseManifest(data, img);
    if (!ms.isOk())
        return ms;
    std::set<std::pair<uint64_t, uint64_t>> manifest_files(
        img.files.begin(), img.files.end());
    if (manifest_files != live_files)
        return corrupt("MANIFEST table set disagrees with memory");
    if (img.log_start != log_start_)
        return corrupt("MANIFEST log_start disagrees with memory");
    if (img.next_file > next_file_no_)
        return corrupt("MANIFEST next_file ahead of memory");
    // Writes since the last flush live in the WAL, so the manifest
    // may lag seq_ but never lead it.
    if (img.seq > seq_)
        return corrupt("MANIFEST seq ahead of memory");
    return Status::ok();
}

const IOStats &
LSMStore::stats() const
{
    // Same pattern as LockedKVStore::stats(): each caller thread
    // gets its own stable snapshot.
    static thread_local IOStats snapshot;
    std::unique_lock<std::mutex> lock(mutex_.native());
    uint64_t read_bytes =
        retired_reader_bytes_.load(std::memory_order_relaxed);
    for (const auto &level : version_->levels)
        for (const auto &t : level)
            read_bytes += t->reader->bytesRead();
    stats_.bytes_read = read_bytes;
    snapshot = stats_;
    return snapshot;
}

uint64_t
LSMStore::liveKeyCount()
{
    // Bypass scan() so diagnostics don't perturb user_scans.
    std::unique_lock<std::mutex> lock(mutex_.native());
    std::vector<InternalEntry> active;
    memtable_->forEach(BytesView(), BytesView(),
                       [&](const EntryView &e) {
                           active.push_back(e.toEntry());
                           return true;
                       });
    std::vector<std::shared_ptr<const MemTable>> imms;
    for (auto it = imm_.rbegin(); it != imm_.rend(); ++it)
        imms.push_back(it->mem);
    std::shared_ptr<const Version> ver = version_;
    lock.unlock();

    std::vector<std::unique_ptr<InternalIterator>> sources;
    sources.push_back(
        std::make_unique<VectorIterator>(std::move(active)));
    for (const auto &mem : imms)
        sources.push_back(mem->newIterator());
    for (const auto &t : ver->levels[0])
        sources.push_back(t->reader->newIterator());
    for (int level = 1; level < max_levels; ++level)
        for (const auto &t : ver->levels[level])
            sources.push_back(t->reader->newIterator());
    MergingIterator merged(std::move(sources));
    merged.seek(BytesView());
    uint64_t count = 0;
    while (merged.valid()) {
        if (merged.entry().type == EntryType::Put)
            ++count;
        merged.next();
    }
    return count;
}

bool
LSMStore::isDegraded() const
{
    std::unique_lock<std::mutex> lock(mutex_.native());
    return degraded_;
}

std::string
LSMStore::degradedReason() const
{
    std::unique_lock<std::mutex> lock(mutex_.native());
    return degraded_reason_;
}

uint64_t
LSMStore::quarantinedBytes() const
{
    std::unique_lock<std::mutex> lock(mutex_.native());
    return quarantined_bytes_;
}

bool
LSMStore::compactionInProgressForTest() const
{
    std::unique_lock<std::mutex> lock(mutex_.native());
    return in_compaction_;
}

void
LSMStore::updateQueueGaugeLocked() const
{
    static obs::Gauge &depth =
        obs::MetricsRegistry::global().gauge(
            "kv.compaction_queue_depth");
    depth.set(static_cast<int64_t>(imm_.size()) +
              (in_compaction_ ? 1 : 0));
}

std::vector<size_t>
LSMStore::levelFileCounts() const
{
    std::unique_lock<std::mutex> lock(mutex_.native());
    std::vector<size_t> counts;
    counts.reserve(version_->levels.size());
    for (const auto &level : version_->levels)
        counts.push_back(level.size());
    return counts;
}

uint64_t
LSMStore::tableBytes() const
{
    std::unique_lock<std::mutex> lock(mutex_.native());
    uint64_t total = 0;
    for (const auto &level : version_->levels)
        for (const auto &t : level)
            total += t->reader->fileBytes();
    return total;
}

} // namespace ethkv::kv
