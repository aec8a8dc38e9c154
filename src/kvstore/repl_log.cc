#include "kvstore/repl_log.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/bytes.hh"
#include "common/dcheck.hh"
#include "common/varint.hh"
#include "common/xxhash.hh"

namespace ethkv::kv
{

namespace
{

constexpr uint64_t kFirstSegment = 1;

constexpr const char *kStartMarker = "START";
constexpr const char *kStartTag = "ethkv.repl.start.v1";

/** Read window slack: enough for a typical record so one read
 *  usually covers the budget without a second probe. */
constexpr uint64_t kReadSlack = 64u << 10;

uint32_t
readBE32(const unsigned char *p)
{
    return (static_cast<uint32_t>(p[0]) << 24) |
           (static_cast<uint32_t>(p[1]) << 16) |
           (static_cast<uint32_t>(p[2]) << 8) |
           static_cast<uint32_t>(p[3]);
}

uint64_t
readBE64(const unsigned char *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v = (v << 8) | p[i];
    return v;
}

void
writeBE32(char *dst, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        dst[i] = static_cast<char>((v >> (24 - 8 * i)) & 0xff);
}

void
writeBE64(char *dst, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        dst[i] = static_cast<char>((v >> (56 - 8 * i)) & 0xff);
}

bool
decodePayload(BytesView payload, WriteBatch &batch,
              uint64_t &first_seq)
{
    size_t pos = 0;
    uint64_t count;
    if (!readVarint(payload, pos, first_seq))
        return false;
    if (!readVarint(payload, pos, count))
        return false;
    // Each entry is at least 3 bytes (op, klen, vlen): an absurd
    // count is rejected before the batch reserves for it.
    if (count > (payload.size() - pos) / 3)
        return false;
    // Entries are parsed as views into the payload, so each key and
    // value is copied once, straight into the batch.
    batch.reserve(batch.size() + count);
    for (uint64_t i = 0; i < count; ++i) {
        if (pos >= payload.size())
            return false;
        uint8_t op = static_cast<uint8_t>(payload[pos++]);
        if (op > static_cast<uint8_t>(BatchOp::Delete))
            return false;
        uint64_t klen, vlen;
        if (!readVarint(payload, pos, klen))
            return false;
        if (klen > payload.size() - pos)
            return false;
        BytesView key = payload.substr(pos, klen);
        pos += klen;
        if (!readVarint(payload, pos, vlen))
            return false;
        if (vlen > payload.size() - pos)
            return false;
        BytesView value = payload.substr(pos, vlen);
        pos += vlen;
        if (op == static_cast<uint8_t>(BatchOp::Put))
            batch.put(key, value);
        else
            batch.del(key);
    }
    return pos == payload.size();
}

/** Call cb for each intact record from data[pos] on; returns the
 *  offset just past the last one. */
size_t
replayRecords(BytesView data, size_t pos, const RecordCallback &cb)
{
    for (;;) {
        WriteBatch batch;
        uint64_t first_seq = 0;
        if (!decodeWalRecord(data, pos, batch, first_seq).isOk())
            return pos; // clean EOF, torn tail, or corruption
        cb(batch, first_seq);
    }
}

/** The one record encoder: count entries, entry(i) the i-th. Sizes
 *  the payload exactly, then encodes header and payload in one pass
 *  into one reservation; the checksum fills the header once the
 *  payload is in place. */
template <typename EntryAt>
void
encodeRecord(Bytes &out, uint64_t first_seq, size_t count,
             EntryAt &&entry)
{
    size_t payload_len = varintLength(first_seq) + varintLength(count);
    for (size_t i = 0; i < count; ++i) {
        const BatchEntry &e = entry(i);
        payload_len += 1 + varintLength(e.key.size()) + e.key.size() +
                       varintLength(e.value.size()) + e.value.size();
    }
    const size_t header_at = out.size();
    out.resize(header_at + 12 + payload_len);
    char *const payload = out.data() + header_at + 12;
    char *p = encodeVarint(payload, first_seq);
    p = encodeVarint(p, count);
    for (size_t i = 0; i < count; ++i) {
        const BatchEntry &e = entry(i);
        *p++ = static_cast<char>(e.op);
        p = encodeVarint(p, e.key.size());
        p = std::copy(e.key.begin(), e.key.end(), p);
        p = encodeVarint(p, e.value.size());
        p = std::copy(e.value.begin(), e.value.end(), p);
    }
    ETHKV_DCHECK_EQ(static_cast<size_t>(p - payload), payload_len);
    writeBE32(out.data() + header_at,
              static_cast<uint32_t>(payload_len));
    writeBE64(out.data() + header_at + 4,
              xxhash64(BytesView(payload, payload_len)));
}

} // namespace

void
appendWalRecord(Bytes &out, const WriteBatch &batch,
                uint64_t first_seq)
{
    encodeRecord(out, first_seq, batch.size(),
                 [&](size_t i) -> const BatchEntry & {
                     return batch.entries()[i];
                 });
}

void
appendWalRecord(Bytes &out, const WriteBatch &batch,
                const std::vector<uint32_t> &positions,
                uint64_t first_seq)
{
    encodeRecord(out, first_seq, positions.size(),
                 [&](size_t i) -> const BatchEntry & {
                     return batch.entries()[positions[i]];
                 });
}

Status
peekWalRecord(BytesView data, size_t pos, size_t &len)
{
    if (pos + 12 > data.size())
        return Status::notFound(); // torn header / clean EOF
    const auto *hp =
        reinterpret_cast<const unsigned char *>(data.data() + pos);
    uint32_t payload_len = readBE32(hp);
    uint64_t checksum = readBE64(hp + 4);
    if (pos + 12 + payload_len > data.size())
        return Status::notFound(); // torn payload
    BytesView payload = data.substr(pos + 12, payload_len);
    if (xxhash64(payload) != checksum)
        return Status::corruption("wal record checksum mismatch");
    len = 12 + static_cast<size_t>(payload_len);
    return Status::ok();
}

Status
decodeWalRecord(BytesView data, size_t &pos, WriteBatch &batch,
                uint64_t &first_seq)
{
    size_t len = 0;
    Status s = peekWalRecord(data, pos, len);
    if (!s.isOk())
        return s;
    BytesView payload = data.substr(pos + 12, len - 12);
    if (!decodePayload(payload, batch, first_seq))
        return Status::corruption("wal record payload malformed");
    pos += len;
    return Status::ok();
}

Status
replayRecordFile(const std::string &path, const RecordCallback &cb,
                 Env *env)
{
    if (!env->fileExists(path))
        return Status::ok(); // nothing written yet
    Bytes data;
    Status s = env->readFileToString(path, data);
    if (s.isOk())
        replayRecords(data, 0, cb);
    return s;
}

ReplicationLog::ReplicationLog(const ReplLogOptions &options)
    : options_(options),
      env_(options.env ? options.env : Env::defaultEnv())
{}

ReplicationLog::~ReplicationLog()
{
    MutexLock lock(mutex_);
    if (active_) {
        ETHKV_IGNORE_STATUS(active_->close(),
                            "best-effort close in dtor; unsynced "
                            "bytes were never promised durable");
    }
}

std::string
ReplicationLog::segmentPath(uint64_t index) const
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "-%06llu.log",
                  static_cast<unsigned long long>(index));
    return options_.dir + "/" + options_.stem + buf;
}

Result<std::unique_ptr<ReplicationLog>>
ReplicationLog::open(const ReplLogOptions &options)
{
    if (options.dir.empty())
        return Status::invalidArgument("repl log needs a dir");
    auto log =
        std::unique_ptr<ReplicationLog>(new ReplicationLog(options));
    Env *env = log->env_;
    Status s = env->createDirs(options.dir);
    if (!s.isOk())
        return s;

    MutexLock lock(log->mutex_);

    // The marker names the first retained segment; without one the
    // log has never been truncated or reset.
    uint64_t first_index = kFirstSegment;
    const std::string marker = options.dir + "/" + kStartMarker;
    if (env->fileExists(marker)) {
        Bytes text;
        s = env->readFileToString(marker, text);
        if (!s.isOk())
            return s;
        char tag[32] = {};
        unsigned long long index = 0, start = 0, seq = 0;
        int pending = 0;
        if (std::sscanf(text.c_str(), "%31s %llu %llu %llu %d", tag,
                        &index, &start, &seq, &pending) != 5 ||
            std::string(tag) != kStartTag || index < kFirstSegment)
            return Status::corruption("repl log: bad START marker");
        first_index = index;
        log->start_offset_ = start;
        log->last_seq_ = seq;
        log->snapshot_pending_ = pending != 0;
    }
    // A crash between a marker write and its unlinks leaves stale
    // segments just below the first one; finish the job.
    for (uint64_t i = first_index; i > kFirstSegment; --i) {
        const std::string stale = log->segmentPath(i - 1);
        if (!env->fileExists(stale))
            break;
        s = env->removeFile(stale);
        if (!s.isOk())
            return s;
    }

    // Probe the dense numbering (Env has no directory listing).
    std::vector<uint64_t> sizes;
    for (uint64_t i = first_index;; ++i) {
        const std::string path = log->segmentPath(i);
        if (!env->fileExists(path))
            break;
        auto size = env->fileSize(path);
        if (!size.ok())
            return size.status();
        sizes.push_back(size.value());
    }

    // Validate every segment in order; the log ends at the first
    // record that does not decode.
    const std::string quarantine_dir = options.dir + "/quarantine";
    uint64_t offset = log->start_offset_;
    bool truncated_stream = false;
    for (size_t i = 0; i < sizes.size(); ++i) {
        const uint64_t index = first_index + i;
        const std::string path = log->segmentPath(index);
        if (truncated_stream) {
            // Bytes past a corrupt record are meaningless; keep
            // them for forensics, off the dense numbering.
            uint64_t salvaged = 0;
            s = env->quarantineTail(path, 0, quarantine_dir,
                                    &salvaged);
            if (!s.isOk())
                return s;
            log->quarantined_bytes_ += salvaged;
            s = env->removeFile(path);
            if (!s.isOk())
                return s;
            continue;
        }
        Bytes data;
        s = env->readFileToString(path, data);
        if (!s.isOk())
            return s;
        uint64_t seg_last_seq = log->last_seq_;
        uint64_t seg_records = 0;
        const size_t pos = replayRecords(
            data, 0, [&](const WriteBatch &batch, uint64_t first_seq) {
                if (batch.size() > 0)
                    seg_last_seq = first_seq + batch.size() - 1;
                ++seg_records;
            });
        if (pos < data.size()) {
            // Torn or corrupt tail: quarantine the bad bytes and
            // drop every later segment from the stream.
            uint64_t salvaged = 0;
            s = env->quarantineTail(path, pos, quarantine_dir,
                                    &salvaged);
            if (!s.isOk())
                return s;
            log->quarantined_bytes_ += salvaged;
            truncated_stream = true;
        }
        log->segments_.push_back(
            ReplSegment{index, offset, pos, seg_last_seq});
        offset += pos;
        log->last_seq_ = seg_last_seq;
        log->record_count_ += seg_records;
    }
    if (log->segments_.empty()) {
        // Fresh, or reset() crashed before creating the segment.
        log->segments_.push_back(ReplSegment{
            first_index, offset, 0, log->last_seq_});
    }
    log->end_offset_ = offset;

    s = log->openActiveLocked();
    if (!s.isOk())
        return s;
    // Pin the active segment's directory entry: fdatasync on the
    // file alone leaves a freshly created segment unreachable after
    // power loss.
    log->dir_unsynced_ = true;
    if (options.sync_appends) {
        s = log->syncLocked();
        if (!s.isOk())
            return s;
    }
    return log;
}

Status
ReplicationLog::openActiveLocked()
{
    auto file =
        env_->newAppendableFile(segmentPath(segments_.back().index));
    if (!file.ok())
        return file.status();
    active_ = file.take();
    return Status::ok();
}

Status
ReplicationLog::rotateIfNeededLocked()
{
    if (active_ && segments_.back().length < options_.segment_bytes)
        return Status::ok();
    Status s = rotateLocked();
    if (!s.isOk())
        return s;
    ETHKV_IGNORE_STATUS(retainLocked(),
                        "the segments stay readable; the next "
                        "rotation retries the truncation");
    return Status::ok();
}

Status
ReplicationLog::rotateLocked()
{
    if (!active_)
        return Status::ioError("repl log: failed reset left no "
                               "active segment");
    ReplSegment &last = segments_.back();
    if (options_.sync_appends) {
        Status s = active_->sync();
        if (!s.isOk())
            return s;
    } else {
        unsynced_sealed_.push_back(last.index);
    }
    Status s = active_->close();
    if (!s.isOk())
        return s;
    const uint64_t next = last.index + 1;
    auto file = env_->newWritableFile(segmentPath(next));
    if (!file.ok())
        return file.status();
    active_ = file.take();
    segments_.push_back(ReplSegment{next, end_offset_, 0, last_seq_});
    // Persist the new directory entry (now, or at the next sync())
    // so the segment chain survives power loss without a hole.
    dir_unsynced_ = true;
    if (options_.sync_appends) {
        s = env_->syncDir(options_.dir);
        if (!s.isOk())
            return s;
        dir_unsynced_ = false;
    }
    return Status::ok();
}

Status
ReplicationLog::retainLocked()
{
    // Sealed segments are all but the last; keep the newest
    // keep_sealed of them whatever the pin says.
    const uint64_t pin = retention_pin_.load(std::memory_order_acquire);
    const uint64_t keep = keep_sealed_.load(std::memory_order_acquire);
    const size_t sealed = segments_.size() - 1;
    size_t drop = 0;
    while (drop + keep < sealed &&
           segments_[drop].start_offset + segments_[drop].length <=
               pin)
        ++drop;
    if (drop == 0)
        return Status::ok();
    const ReplSegment first = segments_[drop];
    Status s = writeStartLocked(first.index, first.start_offset,
                                segments_[drop - 1].last_seq, false);
    if (!s.isOk())
        return s;
    // The marker now defines the start. A segment whose unlink
    // fails stays on disk below it until open() removes it.
    std::vector<ReplSegment> dropped(
        segments_.begin(),
        segments_.begin() + static_cast<long>(drop));
    segments_.erase(segments_.begin(),
                    segments_.begin() + static_cast<long>(drop));
    start_offset_ = first.start_offset;
    std::erase_if(unsynced_sealed_,
                  [&](uint64_t index) { return index < first.index; });
    for (const ReplSegment &seg : dropped) {
        Status u = env_->removeFile(segmentPath(seg.index));
        if (!u.isOk())
            s = u;
    }
    return s;
}

Status
ReplicationLog::writeStartLocked(uint64_t first_index,
                                 uint64_t start_offset,
                                 uint64_t last_seq,
                                 bool snapshot_pending)
{
    char text[128];
    std::snprintf(text, sizeof text,
                  "%s %" PRIu64 " %" PRIu64 " %" PRIu64 " %d\n",
                  kStartTag, first_index, start_offset, last_seq,
                  snapshot_pending ? 1 : 0);
    // Always synced, then the directory: the segments below the
    // marker are unlinked next, and a rename that reached the disk
    // ahead of the marker's bytes would leave a log that does not
    // open, or one that reopens empty.
    const std::string marker = options_.dir + "/" + kStartMarker;
    const std::string tmp = marker + ".tmp";
    Status s = env_->writeStringToFile(tmp, text, true);
    if (s.isOk())
        s = env_->renameFile(tmp, marker);
    if (!s.isOk())
        return s;
    dir_unsynced_ = true;
    s = env_->syncDir(options_.dir);
    if (s.isOk())
        dir_unsynced_ = false;
    return s;
}

Status
ReplicationLog::reset(uint64_t start_offset, uint64_t last_seq,
                      bool snapshot_pending)
{
    MutexLock lock(mutex_);
    const uint64_t next = segments_.back().index + 1;
    Status s = writeStartLocked(next, start_offset, last_seq,
                                snapshot_pending);
    if (!s.isOk())
        return s;
    s = active_->close();
    active_.reset();
    if (!s.isOk())
        return s;
    for (const ReplSegment &seg : segments_) {
        s = env_->removeFile(segmentPath(seg.index));
        if (!s.isOk())
            return s;
    }
    segments_.assign(
        1, ReplSegment{next, start_offset, 0, last_seq});
    unsynced_sealed_.clear();
    start_offset_ = start_offset;
    end_offset_ = start_offset;
    last_seq_ = last_seq;
    snapshot_pending_ = snapshot_pending;
    s = openActiveLocked();
    if (!s.isOk())
        return s;
    dir_unsynced_ = true;
    if (options_.sync_appends)
        return syncLocked();
    return Status::ok();
}

Status
ReplicationLog::appendRecordLocked(BytesView record,
                                   uint64_t last_seq)
{
    Status s = rotateIfNeededLocked();
    if (!s.isOk())
        return s;
    s = active_->append(record);
    if (!s.isOk())
        return s;
    if (options_.sync_appends) {
        s = active_->sync();
        if (!s.isOk())
            return s;
    }
    segments_.back().length += record.size();
    end_offset_ += record.size();
    if (last_seq > 0) {
        last_seq_ = last_seq;
        segments_.back().last_seq = last_seq;
    }
    ++record_count_;
    return Status::ok();
}

Status
ReplicationLog::append(const WriteBatch &batch, uint64_t first_seq,
                       uint64_t *end_offset)
{
    Bytes record;
    appendWalRecord(record, batch, first_seq);
    return appendRecord(
        record, batch.size() > 0 ? first_seq + batch.size() - 1 : 0,
        end_offset);
}

Status
ReplicationLog::appendRecord(BytesView record, uint64_t last_seq,
                             uint64_t *end_offset)
{
    MutexLock lock(mutex_);
    Status s = appendRecordLocked(record, last_seq);
    if (!s.isOk())
        return s;
    if (end_offset)
        *end_offset = end_offset_;
    return Status::ok();
}

Status
ReplicationLog::appendRaw(BytesView records, uint64_t *end_offset)
{
    // Validate before touching the file: every record must be
    // whole and intact, or the identical-bytes invariant breaks.
    struct Piece
    {
        size_t pos;
        size_t len;
        uint64_t last_seq;
    };
    std::vector<Piece> pieces;
    size_t pos = 0;
    while (pos < records.size()) {
        WriteBatch batch;
        uint64_t first_seq = 0;
        size_t start = pos;
        Status s =
            decodeWalRecord(records, pos, batch, first_seq);
        if (!s.isOk())
            return Status::corruption(
                "appendRaw: partial or corrupt record at byte " +
                std::to_string(start));
        pieces.push_back(Piece{
            start, pos - start,
            batch.size() > 0 ? first_seq + batch.size() - 1 : 0});
    }

    MutexLock lock(mutex_);
    for (const Piece &p : pieces) {
        Status s = appendRecordLocked(
            records.substr(p.pos, p.len), p.last_seq);
        if (!s.isOk())
            return s;
    }
    if (end_offset)
        *end_offset = end_offset_;
    return Status::ok();
}

Status
ReplicationLog::read(uint64_t offset, size_t max_bytes, Bytes &out)
{
    MutexLock lock(mutex_);
    if (offset < start_offset_)
        return Status::notFound(
            "repl read offset " + std::to_string(offset) +
            " below log start " + std::to_string(start_offset_));
    if (offset > end_offset_)
        return Status::invalidArgument(
            "repl read offset " + std::to_string(offset) +
            " past end " + std::to_string(end_offset_));

    size_t appended = 0;
    while (offset < end_offset_ && appended < max_bytes) {
        // Segment containing offset (last segment whose start is
        // <= offset and that has bytes past it).
        const ReplSegment *seg = nullptr;
        for (const ReplSegment &candidate : segments_) {
            if (candidate.start_offset <= offset &&
                offset < candidate.start_offset + candidate.length)
                seg = &candidate;
        }
        if (!seg)
            break; // only zero-length tail segments remain
        const uint64_t rel = offset - seg->start_offset;
        uint64_t want = std::min<uint64_t>(
            seg->length - rel, max_bytes - appended + kReadSlack);
        auto file = env_->newRandomAccessFile(segmentPath(seg->index));
        if (!file.ok())
            return file.status();
        Bytes window;
        Status s = file.value()->read(rel, want, window);
        if (!s.isOk())
            return s;
        // The window may be smaller than the one record at offset;
        // retry with the segment remainder so the caller always
        // makes progress.
        size_t probe_len = 0;
        if (peekWalRecord(window, 0, probe_len).code() ==
                StatusCode::NotFound &&
            want < seg->length - rel) {
            window.clear();
            s = file.value()->read(rel, seg->length - rel, window);
            if (!s.isOk())
                return s;
        }
        const BytesView view = window;

        // After the retry above, the view always covers the record
        // at `offset` whole. So NotFound at the window start cannot
        // mean "short window" — the offset points into the middle
        // of a record.
        const bool covers_tail = rel + view.size() == seg->length;
        size_t pos = 0;
        while (pos < view.size()) {
            size_t len = 0;
            Status st = peekWalRecord(view, pos, len);
            if (st.code() == StatusCode::NotFound) {
                if (pos == 0 && covers_tail)
                    return Status::invalidArgument(
                        "repl read offset " +
                        std::to_string(offset) +
                        " is not a record boundary");
                break; // window ends mid-record
            }
            if (!st.isOk()) {
                if (appended == 0 && pos == 0)
                    return Status::invalidArgument(
                        "repl read offset " +
                        std::to_string(offset) +
                        " is not a record boundary");
                return st;
            }
            if (appended + pos > 0 &&
                appended + pos + len > max_bytes)
                break; // budget reached (first record exempt)
            pos += len;
        }
        if (pos == 0)
            break;
        out.append(view.substr(0, pos));
        appended += pos;
        offset += pos;
    }
    return Status::ok();
}

uint64_t
ReplicationLog::endOffset() const
{
    MutexLock lock(mutex_);
    return end_offset_;
}

uint64_t
ReplicationLog::startOffset() const
{
    MutexLock lock(mutex_);
    return start_offset_;
}

Status
ReplicationLog::replay(uint64_t from, const RecordCallback &cb)
{
    MutexLock lock(mutex_);
    if (from < start_offset_ || from > end_offset_)
        return Status::invalidArgument(
            "replay offset " + std::to_string(from) +
            " outside the log [" + std::to_string(start_offset_) +
            ", " + std::to_string(end_offset_) + "]");
    for (const ReplSegment &seg : segments_) {
        if (seg.start_offset + seg.length <= from)
            continue;
        Bytes data;
        Status s = env_->readFileToString(segmentPath(seg.index), data);
        if (!s.isOk())
            return s;
        // open() validated every byte below the end, so the replay
        // stops exactly at the segment's validated length.
        const size_t begin =
            from > seg.start_offset ? from - seg.start_offset : 0;
        data.resize(seg.length);
        if (replayRecords(data, begin, cb) != seg.length)
            return Status::corruption(
                "replay offset " + std::to_string(from) +
                " is not a record boundary");
    }
    return Status::ok();
}

Status
ReplicationLog::trimTo(uint64_t offset)
{
    MutexLock lock(mutex_);
    retention_pin_.store(offset, std::memory_order_release);
    if (offset >= end_offset_ && segments_.back().length > 0) {
        // Nothing left is needed: seal the active segment so it can
        // go too.
        Status s = rotateLocked();
        if (!s.isOk())
            return s;
    }
    return retainLocked();
}

void
ReplicationLog::setRetention(uint64_t pin, uint64_t keep_sealed)
{
    keep_sealed_.store(keep_sealed, std::memory_order_release);
    retention_pin_.store(pin, std::memory_order_release);
}

bool
ReplicationLog::snapshotPending() const
{
    MutexLock lock(mutex_);
    return snapshot_pending_;
}

uint64_t
ReplicationLog::lastSeq() const
{
    MutexLock lock(mutex_);
    return last_seq_;
}

uint64_t
ReplicationLog::recordCount() const
{
    MutexLock lock(mutex_);
    return record_count_;
}

Status
ReplicationLog::sync()
{
    MutexLock lock(mutex_);
    return syncLocked();
}

Status
ReplicationLog::syncLocked()
{
    if (!active_)
        return Status::ioError("repl log: failed reset left no "
                               "active segment");
    for (uint64_t index : unsynced_sealed_) {
        if (index < segments_.front().index)
            continue; // retention dropped it
        auto file = env_->newAppendableFile(segmentPath(index));
        if (!file.ok())
            return file.status();
        Status s = file.value()->sync();
        if (s.isOk())
            s = file.value()->close();
        if (!s.isOk())
            return s;
    }
    unsynced_sealed_.clear();
    Status s = active_->sync();
    if (!s.isOk() || !dir_unsynced_)
        return s;
    s = env_->syncDir(options_.dir);
    if (s.isOk())
        dir_unsynced_ = false;
    return s;
}

uint64_t
ReplicationLog::quarantinedBytes() const
{
    MutexLock lock(mutex_);
    return quarantined_bytes_;
}

std::vector<ReplSegment>
ReplicationLog::segments() const
{
    MutexLock lock(mutex_);
    return segments_;
}

} // namespace ethkv::kv
