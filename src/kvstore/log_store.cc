#include "kvstore/log_store.hh"

#include "common/logging.hh"
#include "obs/scoped_timer.hh"

namespace ethkv::kv
{

AppendLogStore::AppendLogStore(LogStoreOptions options)
    : options_(std::move(options))
{
    segments_.push_back(Segment{next_segment_id_++, {}, 0, 0, false});
}

Result<std::unique_ptr<AppendLogStore>>
AppendLogStore::open(const LogStoreOptions &options)
{
    auto store = std::make_unique<AppendLogStore>(options);
    if (options.dir.empty())
        return store; // in-memory mode
    Status s = store->recoverDurable();
    if (!s.isOk())
        return s;
    return store;
}

Status
AppendLogStore::recoverDurable()
{
    env_ = options_.env ? options_.env : Env::defaultEnv();
    // A store of the old layout keeps its WAL in log.wal, which
    // this one would never read: refuse it rather than open empty.
    if (env_->fileExists(options_.dir + "/log.wal"))
        return Status::notSupported(
            "log store: " + options_.dir +
            "/log.wal is the old WAL layout; the log is now wal/");
    Status s = env_->createDirs(options_.dir);
    if (!s.isOk())
        return s;

    // A snapshot.tmp is a checkpoint that never committed (crash
    // before the rename); the old snapshot+WAL pair is authoritative.
    const std::string tmp = snapshotPath() + ".tmp";
    if (env_->fileExists(tmp)) {
        ETHKV_IGNORE_STATUS(env_->removeFile(tmp),
                            "stale tmp also gets removed by the "
                            "next checkpoint");
    }

    // Base state first, then the WAL on top of it.
    const RecordCallback apply = [this](const WriteBatch &batch,
                                        uint64_t first_seq) {
        for (const BatchEntry &e : batch.entries()) {
            if (e.op == BatchOp::Put)
                putInMemory(e.key, e.value);
            else
                delInMemory(e.key);
        }
        uint64_t end = first_seq + batch.size() - 1;
        if (end > seq_)
            seq_ = end;
    };
    s = replayRecordFile(snapshotPath(), apply, env_);
    if (!s.isOk())
        return s;

    // Opening the log quarantines any torn tail, so new records
    // are never appended past one.
    ReplLogOptions lo;
    lo.dir = options_.dir + "/wal";
    lo.stem = "wal";
    lo.segment_bytes = options_.segment_bytes;
    lo.sync_appends = options_.sync_appends;
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
    s = wal_->replay(wal_->startOffset(), apply);
    if (!s.isOk())
        return s;
    // The wal/ directory may have just been created.
    return env_->syncDir(options_.dir);
}

Status
AppendLogStore::degradeOnIOError(Status s)
{
    if (s.code() != StatusCode::IOError || degraded_)
        return s;
    degraded_ = true;
    degraded_reason_ = s.toString();
    obs::MetricsRegistry::global()
        .counter("kv.degraded_transitions")
        .inc();
    return s;
}

Status
AppendLogStore::logAppend(BatchOp op, BytesView key, BytesView value)
{
    if (!wal_)
        return Status::ok();
    WriteBatch batch;
    if (op == BatchOp::Put)
        batch.put(key, value);
    else
        batch.del(key);
    // The log fdatasyncs the record itself under sync_appends.
    return wal_->append(batch, ++seq_);
}

void
AppendLogStore::maybeCheckpoint()
{
    if (!wal_ || options_.checkpoint_wal_bytes == 0 || degraded_)
        return;
    if (walSizeBytes() < options_.checkpoint_wal_bytes)
        return;
    // A checkpoint failure degrades the store inside checkpoint();
    // the write that triggered us is already safe in the old WAL.
    ETHKV_IGNORE_STATUS(checkpoint(),
                        "failure degrades the store; the "
                        "triggering write is already durable");
}

Status
AppendLogStore::checkpoint()
{
    if (!wal_)
        return Status::ok(); // in-memory mode has no WAL
    if (degraded_) {
        return Status::ioDegraded("log store: read-only after I/O "
                                  "failure: " +
                                  degraded_reason_);
    }
    static obs::LatencyHistogram &checkpoint_ns =
        obs::MetricsRegistry::global().histogram(
            "kv.log.checkpoint_ns");
    obs::ScopedTimer timer(checkpoint_ns);

    const std::string tmp = snapshotPath() + ".tmp";
    if (env_->fileExists(tmp)) {
        ETHKV_IGNORE_STATUS(env_->removeFile(tmp),
                            "newWritableFile truncates it anyway");
    }

    // 1. Write every live entry to the tmp snapshot (WAL format).
    auto snap_result = env_->newWritableFile(tmp);
    if (!snap_result.ok())
        return degradeOnIOError(snap_result.status());
    std::unique_ptr<WritableFile> snap = snap_result.take();
    WriteBatch batch;
    uint64_t next_seq = 1;
    uint64_t snapshot_bytes = 0;
    auto append_batch = [&]() -> Status {
        Bytes record;
        appendWalRecord(record, batch, next_seq);
        next_seq += batch.size();
        batch.clear();
        snapshot_bytes += record.size();
        return snap->append(record);
    };
    Status s = Status::ok();
    for (const auto &[key, entry] : index_) {
        Segment *seg = findSegment(entry.segment_id);
        if (!seg)
            panic("log store: index points at missing segment");
        const Record &rec = seg->records[entry.record_idx];
        batch.put(rec.key, rec.value);
        if (batch.size() >= 512) {
            s = append_batch();
            if (!s.isOk())
                return degradeOnIOError(std::move(s));
        }
    }
    if (!batch.empty())
        s = append_batch();
    if (s.isOk())
        s = snap->sync();
    if (s.isOk())
        s = snap->close();
    if (!s.isOk())
        return degradeOnIOError(std::move(s));

    // 2. Commit: rename over the old snapshot, sync the directory.
    s = env_->renameFile(tmp, snapshotPath());
    if (!s.isOk())
        return degradeOnIOError(std::move(s));
    s = env_->syncDir(options_.dir);
    if (!s.isOk())
        return degradeOnIOError(std::move(s));

    // 3. Only now is the WAL redundant: restart it, empty, at its
    //    end.
    s = wal_->reset(wal_->endOffset(), wal_->lastSeq(), false);
    if (!s.isOk())
        return degradeOnIOError(std::move(s));

    ++checkpoints_;
    stats_.flush_bytes += snapshot_bytes;
    stats_.bytes_written += snapshot_bytes;
    obs::MetricsRegistry::global()
        .counter("kv.log.checkpoints")
        .inc();
    obs::MetricsRegistry::global()
        .counter("kv.log.checkpoint_bytes")
        .inc(snapshot_bytes);
    return Status::ok();
}

AppendLogStore::Segment &
AppendLogStore::activeSegment()
{
    return segments_.back();
}

AppendLogStore::Segment *
AppendLogStore::findSegment(uint64_t id)
{
    for (Segment &seg : segments_)
        if (seg.id == id)
            return &seg;
    return nullptr;
}

void
AppendLogStore::putInMemory(BytesView key, BytesView value)
{
    uint64_t bytes = key.size() + value.size();

    // Mark any older version dead.
    auto it = index_.find(Bytes(key));
    if (it != index_.end()) {
        Segment *old = findSegment(it->second.segment_id);
        if (old) {
            old->dead_bytes += it->second.bytes;
            old->live_bytes -= it->second.bytes;
        }
    }

    Segment &seg = activeSegment();
    seg.records.push_back({Bytes(key), Bytes(value)});
    seg.live_bytes += bytes;
    index_[Bytes(key)] =
        IndexEntry{seg.id, seg.records.size() - 1, bytes};

    sealIfFull();
    maybeGc();
}

void
AppendLogStore::delInMemory(BytesView key)
{
    auto it = index_.find(Bytes(key));
    if (it == index_.end())
        return;
    Segment *seg = findSegment(it->second.segment_id);
    if (seg) {
        seg->dead_bytes += it->second.bytes;
        seg->live_bytes -= it->second.bytes;
    }
    index_.erase(it);
    maybeGc();
}

Status
AppendLogStore::put(BytesView key, BytesView value)
{
    if (degraded_) {
        return Status::ioDegraded("log store: read-only after I/O "
                                  "failure: " +
                                  degraded_reason_);
    }
    Status s = logAppend(BatchOp::Put, key, value);
    if (!s.isOk())
        return degradeOnIOError(std::move(s));

    ++stats_.user_writes;
    uint64_t bytes = key.size() + value.size();
    stats_.logical_bytes_written += bytes;
    stats_.bytes_written += bytes;
    putInMemory(key, value);
    maybeCheckpoint();
    return Status::ok();
}

Status
AppendLogStore::get(BytesView key, Bytes &value)
{
    ++stats_.user_reads;
    auto it = index_.find(Bytes(key));
    if (it == index_.end())
        return Status::notFound();
    Segment *seg = findSegment(it->second.segment_id);
    if (!seg)
        panic("log store: index points at missing segment");
    const Record &rec = seg->records[it->second.record_idx];
    value = rec.value;
    stats_.bytes_read += rec.key.size() + rec.value.size();
    return Status::ok();
}

Status
AppendLogStore::del(BytesView key)
{
    if (degraded_) {
        return Status::ioDegraded("log store: read-only after I/O "
                                  "failure: " +
                                  degraded_reason_);
    }
    Status s = logAppend(BatchOp::Delete, key, BytesView());
    if (!s.isOk())
        return degradeOnIOError(std::move(s));

    ++stats_.user_deletes;
    stats_.logical_bytes_written += key.size();
    delInMemory(key);
    maybeCheckpoint();
    return Status::ok();
}

Status
AppendLogStore::scan(BytesView, BytesView, const ScanCallback &)
{
    ++stats_.user_scans;
    return Status::notSupported("log store has no key order");
}

Status
AppendLogStore::flush()
{
    if (!wal_)
        return Status::ok();
    if (degraded_) {
        return Status::ioDegraded("log store: read-only after I/O "
                                  "failure: " +
                                  degraded_reason_);
    }
    return degradeOnIOError(wal_->sync());
}

void
AppendLogStore::sealIfFull()
{
    Segment &seg = activeSegment();
    if (seg.live_bytes + seg.dead_bytes >= options_.segment_bytes) {
        seg.sealed = true;
        segments_.push_back(
            Segment{next_segment_id_++, {}, 0, 0, false});
    }
}

void
AppendLogStore::maybeGc()
{
    for (size_t i = 0; i < segments_.size(); ++i) {
        Segment &seg = segments_[i];
        if (!seg.sealed)
            continue;
        uint64_t total = seg.live_bytes + seg.dead_bytes;
        if (total == 0 ||
            static_cast<double>(seg.dead_bytes) /
                    static_cast<double>(total) >=
                options_.gc_dead_ratio) {
            gcSegment(i);
            // Segment indices shifted; one GC per trigger is enough
            // to bound work per operation.
            return;
        }
    }
}

void
AppendLogStore::gcSegment(size_t segment_pos)
{
    // Maintenance-path instrument: looked up once, then lock-free.
    static obs::LatencyHistogram &gc_ns =
        obs::MetricsRegistry::global().histogram("kv.log.gc_ns");
    obs::ScopedTimer timer(gc_ns);
    ++stats_.gc_runs;
    Segment seg = std::move(segments_[segment_pos]);
    segments_.erase(segments_.begin() +
                    static_cast<long>(segment_pos));

    // Re-append live records; dead ones vanish with the segment.
    for (size_t idx = 0; idx < seg.records.size(); ++idx) {
        Record &rec = seg.records[idx];
        auto it = index_.find(rec.key);
        if (it == index_.end() || it->second.segment_id != seg.id ||
            it->second.record_idx != idx) {
            continue; // dead or superseded
        }
        uint64_t bytes = rec.key.size() + rec.value.size();
        stats_.gc_bytes += bytes;
        stats_.bytes_written += bytes;
        Segment &active = activeSegment();
        active.records.push_back(std::move(rec));
        active.live_bytes += bytes;
        index_[active.records.back().key] =
            IndexEntry{active.id, active.records.size() - 1, bytes};
        // Seal inline if GC itself fills the active segment, but do
        // not recurse into GC.
        if (active.live_bytes + active.dead_bytes >=
            options_.segment_bytes) {
            active.sealed = true;
            segments_.push_back(
                Segment{next_segment_id_++, {}, 0, 0, false});
        }
    }
}

uint64_t
AppendLogStore::residentBytes() const
{
    uint64_t total = 0;
    for (const Segment &seg : segments_)
        total += seg.live_bytes + seg.dead_bytes;
    return total;
}

} // namespace ethkv::kv
