#include "kvstore/sstable.hh"

#include "common/logging.hh"
#include "common/varint.hh"

namespace ethkv::kv
{

namespace
{

constexpr uint64_t sstable_magic = 0x657468'6b76737374ULL;

void
appendEntry(Bytes &out, const EntryView &e)
{
    appendVarint(out, e.key.size());
    appendVarint(out, e.value.size());
    out.push_back(static_cast<char>(e.type));
    appendVarint(out, e.seq);
    out += e.key;
    out += e.value;
}

bool
readEntryView(BytesView data, size_t &pos, EntryView &e)
{
    uint64_t klen, vlen, seq;
    if (!readVarint(data, pos, klen))
        return false;
    if (!readVarint(data, pos, vlen))
        return false;
    if (pos >= data.size())
        return false;
    uint8_t type = static_cast<uint8_t>(data[pos++]);
    if (type > static_cast<uint8_t>(EntryType::Tombstone))
        return false;
    if (!readVarint(data, pos, seq))
        return false;
    // Compare against the remaining bytes, so a huge length cannot
    // wrap the sum past the bound.
    const uint64_t left = data.size() - pos;
    if (klen > left || vlen > left - klen)
        return false;
    e.key = data.substr(pos, klen);
    pos += klen;
    e.value = data.substr(pos, vlen);
    pos += vlen;
    e.seq = seq;
    e.type = static_cast<EntryType>(type);
    return true;
}

/**
 * The one data-block decoder: walk every entry of `block` in place,
 * calling fn(const EntryView &) for each.
 *
 * @return false at the first malformed entry. Entries after the
 *         one a caller wants are still checked, so a point lookup
 *         and a full scan reject the same blocks.
 */
template <typename Fn>
bool
forEachEntry(BytesView block, Fn &&fn)
{
    size_t pos = 0;
    EntryView e;
    while (pos < block.size()) {
        if (!readEntryView(block, pos, e))
            return false;
        fn(e);
    }
    return true;
}

void
appendString(Bytes &out, BytesView s)
{
    appendVarint(out, s.size());
    out += s;
}

bool
readString(BytesView data, size_t &pos, Bytes &out)
{
    uint64_t len;
    if (!readVarint(data, pos, len))
        return false;
    if (pos + len > data.size())
        return false;
    out = Bytes(data.substr(pos, len));
    pos += len;
    return true;
}

} // namespace

// ---------------------------------------------------------------
// SSTableWriter
// ---------------------------------------------------------------

SSTableWriter::SSTableWriter(std::string path,
                             std::unique_ptr<WritableFile> file)
    : path_(std::move(path)), file_(std::move(file))
{}

SSTableWriter::~SSTableWriter()
{
    if (file_) {
        ETHKV_IGNORE_STATUS(file_->close(),
                            "abandoned writer; the partial table is "
                            "never referenced by a manifest");
    }
}

Result<std::unique_ptr<SSTableWriter>>
SSTableWriter::create(const std::string &path, Env *env)
{
    if (!env)
        env = Env::defaultEnv();
    auto file = env->newWritableFile(path);
    if (!file.ok())
        return file.status();
    return std::unique_ptr<SSTableWriter>(
        new SSTableWriter(path, file.take()));
}

Status
SSTableWriter::add(const EntryView &entry)
{
    if (finished_)
        panic("SSTableWriter::add after finish");
    if (props_.entry_count > 0 &&
        entry.key <= BytesView(props_.largest_key)) {
        return Status::invalidArgument(
            "sstable: keys must be strictly ascending");
    }

    if (props_.entry_count == 0)
        props_.smallest_key.assign(entry.key);
    // Also the current block's last key when the block is cut.
    props_.largest_key.assign(entry.key);
    ++props_.entry_count;
    if (entry.type == EntryType::Tombstone)
        ++props_.tombstone_count;
    if (entry.seq > props_.max_seq)
        props_.max_seq = entry.seq;
    props_.data_bytes += entry.key.size() + entry.value.size();

    key_hashes_.push_back(BloomFilter::hashKey(entry.key));
    appendEntry(block_, entry);

    if (block_.size() >= block_target_bytes)
        return flushBlock();
    return Status::ok();
}

Status
SSTableWriter::flushBlock()
{
    if (block_.empty())
        return Status::ok();
    Status s = file_->append(block_);
    if (!s.isOk())
        return s;
    index_.push_back({props_.largest_key, file_offset_, block_.size()});
    file_offset_ += block_.size();
    block_.clear();
    return Status::ok();
}

Status
SSTableWriter::finish()
{
    if (finished_)
        panic("SSTableWriter::finish called twice");
    Status s = flushBlock();
    if (!s.isOk())
        return s;

    BloomFilter filter(key_hashes_.size());
    for (const BloomFilter::KeyHash &h : key_hashes_)
        filter.add(h);
    Bytes filter_block = filter.toBytes();
    uint64_t filter_off = file_offset_;

    Bytes index_block;
    for (const IndexEntry &ie : index_) {
        appendString(index_block, ie.last_key);
        appendVarint(index_block, ie.offset);
        appendVarint(index_block, ie.size);
    }
    uint64_t index_off = filter_off + filter_block.size();

    Bytes props_block;
    appendString(props_block, props_.smallest_key);
    appendString(props_block, props_.largest_key);
    appendVarint(props_block, props_.entry_count);
    appendVarint(props_block, props_.tombstone_count);
    appendVarint(props_block, props_.max_seq);
    appendVarint(props_block, props_.data_bytes);
    uint64_t props_off = index_off + index_block.size();

    Bytes tail;
    tail.reserve(filter_block.size() + index_block.size() +
                 props_block.size() + 56);
    tail += filter_block;
    tail += index_block;
    tail += props_block;
    appendBE64(tail, filter_off);
    appendBE64(tail, filter_block.size());
    appendBE64(tail, index_off);
    appendBE64(tail, index_block.size());
    appendBE64(tail, props_off);
    appendBE64(tail, props_block.size());
    appendBE64(tail, sstable_magic);

    s = file_->append(tail);
    if (!s.isOk())
        return s;
    file_offset_ += tail.size();

    s = file_->sync();
    if (!s.isOk())
        return s;
    s = file_->close();
    if (!s.isOk())
        return s;
    file_.reset();
    finished_ = true;
    return Status::ok();
}

// ---------------------------------------------------------------
// SSTableReader
// ---------------------------------------------------------------

SSTableReader::SSTableReader(std::string path,
                             std::unique_ptr<RandomAccessFile> file)
    : path_(std::move(path)), file_(std::move(file))
{}

SSTableReader::~SSTableReader() = default;

Result<std::unique_ptr<SSTableReader>>
SSTableReader::open(const std::string &path, Env *env)
{
    if (!env)
        env = Env::defaultEnv();
    auto file = env->newRandomAccessFile(path);
    if (!file.ok())
        return file.status();
    auto size = env->fileSize(path);
    if (!size.ok())
        return size.status();
    auto reader = std::unique_ptr<SSTableReader>(
        new SSTableReader(path, file.take()));
    Status s = reader->load(size.value());
    if (!s.isOk())
        return s;
    return reader;
}

Status
SSTableReader::load(uint64_t file_bytes)
{
    if (file_bytes < 56)
        return Status::corruption("sstable: file too small");
    file_bytes_ = file_bytes;

    Bytes footer;
    Status fs = file_->read(file_bytes_ - 56, 56, footer);
    if (!fs.isOk())
        return fs;
    uint64_t filter_off = decodeBE64(BytesView(footer).substr(0, 8));
    uint64_t filter_len = decodeBE64(BytesView(footer).substr(8, 8));
    uint64_t index_off = decodeBE64(BytesView(footer).substr(16, 8));
    uint64_t index_len = decodeBE64(BytesView(footer).substr(24, 8));
    uint64_t props_off = decodeBE64(BytesView(footer).substr(32, 8));
    uint64_t props_len = decodeBE64(BytesView(footer).substr(40, 8));
    uint64_t magic = decodeBE64(BytesView(footer).substr(48, 8));
    if (magic != sstable_magic)
        return Status::corruption("sstable: bad magic");
    if (props_off + props_len + 56 != file_bytes_ ||
        index_off + index_len != props_off ||
        filter_off + filter_len != index_off) {
        return Status::corruption("sstable: inconsistent footer");
    }

    auto read_section = [&](uint64_t off, uint64_t len,
                            Bytes &out) -> Status {
        Status s = file_->read(off, len, out);
        if (!s.isOk())
            return s;
        bytes_read_.fetch_add(len, std::memory_order_relaxed);
        return Status::ok();
    };

    Bytes filter_block, index_block, props_block;
    Status s = read_section(filter_off, filter_len, filter_block);
    if (!s.isOk())
        return s;
    s = read_section(index_off, index_len, index_block);
    if (!s.isOk())
        return s;
    s = read_section(props_off, props_len, props_block);
    if (!s.isOk())
        return s;

    filter_ = std::make_unique<BloomFilter>(
        BloomFilter::fromBytes(filter_block));
    filter_bytes_ = filter_len;

    size_t pos = 0;
    while (pos < index_block.size()) {
        IndexEntry ie;
        uint64_t off, len;
        if (!readString(index_block, pos, ie.last_key) ||
            !readVarint(index_block, pos, off) ||
            !readVarint(index_block, pos, len)) {
            return Status::corruption("sstable: bad index block");
        }
        ie.offset = off;
        ie.size = len;
        index_.push_back(std::move(ie));
    }

    pos = 0;
    if (!readString(props_block, pos, props_.smallest_key) ||
        !readString(props_block, pos, props_.largest_key) ||
        !readVarint(props_block, pos, props_.entry_count) ||
        !readVarint(props_block, pos, props_.tombstone_count) ||
        !readVarint(props_block, pos, props_.max_seq) ||
        !readVarint(props_block, pos, props_.data_bytes)) {
        return Status::corruption("sstable: bad props block");
    }
    return Status::ok();
}

bool
SSTableReader::mayContain(BytesView key) const
{
    return filter_->mayContain(key);
}

int
SSTableReader::findBlock(BytesView target) const
{
    // First block whose last_key >= target.
    size_t lo = 0, hi = index_.size();
    while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        if (BytesView(index_[mid].last_key) < target)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo == index_.size() ? -1 : static_cast<int>(lo);
}

Status
SSTableReader::readBlockBytes(size_t block_idx, Bytes &block)
{
    if (block_idx >= index_.size())
        panic("sstable: block index out of range");
    const IndexEntry &ie = index_[block_idx];
    Status s = file_->read(ie.offset, ie.size, block);
    if (!s.isOk())
        return s;
    bytes_read_.fetch_add(ie.size, std::memory_order_relaxed);
    return Status::ok();
}

Status
SSTableReader::get(BytesView key, InternalEntry &entry, GetCost *cost)
{
    // The range check is two compares; the filter costs two hashes.
    if (key < BytesView(props_.smallest_key) ||
        key > BytesView(props_.largest_key)) {
        return Status::notFound();
    }
    if (cost)
        ++cost->tables_probed;
    if (!mayContain(key)) {
        if (cost)
            ++cost->bloom_negatives;
        return Status::notFound();
    }
    int idx = findBlock(key);
    if (idx < 0)
        return Status::notFound();

    // Zero-copy probe: the block lands in a buffer this thread
    // reuses across lookups, entries are walked as views into it,
    // and only the match is copied out. The buffer never escapes
    // this call, so tables may share it.
    thread_local Bytes block;
    Status s = readBlockBytes(static_cast<size_t>(idx), block);
    if (!s.isOk())
        return s;
    if (cost)
        cost->block_bytes += block.size();
    bool found = false;
    bool intact = forEachEntry(block, [&](const EntryView &e) {
        if (found || e.key != key)
            return;
        entry.key.assign(e.key);
        entry.value.assign(e.value);
        entry.seq = e.seq;
        entry.type = e.type;
        found = true;
    });
    if (!intact)
        return Status::corruption("sstable: bad block entry");
    return found ? Status::ok() : Status::notFound();
}

/**
 * Cursor over one SSTable: walks blocks sequentially. Each block is
 * read into a buffer the cursor owns and decoded (and validated)
 * into views into it, so an entry costs no copy; the views die when
 * the cursor moves to the next block.
 */
class SSTableIterator : public InternalIterator
{
  public:
    explicit SSTableIterator(SSTableReader *reader) : reader_(reader)
    {}

    void
    seek(BytesView target) override
    {
        entries_.clear();
        entry_idx_ = 0;
        if (reader_->index_.empty())
            return;
        int idx = reader_->findBlock(target);
        if (idx < 0) {
            block_idx_ = reader_->index_.size();
            return;
        }
        block_idx_ = static_cast<size_t>(idx);
        loadBlock();
        while (entry_idx_ < entries_.size() &&
               entries_[entry_idx_].key < target) {
            ++entry_idx_;
        }
        // Target may fall between blocks' last keys; normalize.
        advanceIfExhausted();
    }

    bool valid() const override { return entry_idx_ < entries_.size(); }

    void
    next() override
    {
        if (!valid())
            panic("SSTableIterator::next on invalid iterator");
        ++entry_idx_;
        advanceIfExhausted();
    }

    EntryView
    entry() const override
    {
        if (!valid())
            panic("SSTableIterator::entry on invalid iterator");
        return entries_[entry_idx_];
    }

  private:
    void
    loadBlock()
    {
        reader_->readBlockBytes(block_idx_, block_)
            .expectOk("sstable iterator block read");
        entries_.clear();
        if (!forEachEntry(block_, [this](const EntryView &e) {
                entries_.push_back(e);
            })) {
            panic("sstable iterator block read: bad block entry");
        }
        entry_idx_ = 0;
    }

    void
    advanceIfExhausted()
    {
        while (entry_idx_ >= entries_.size()) {
            ++block_idx_;
            if (block_idx_ >= reader_->index_.size()) {
                entries_.clear();
                entry_idx_ = 0;
                return;
            }
            loadBlock();
        }
    }

    SSTableReader *reader_;
    size_t block_idx_ = 0;
    Bytes block_;                    //!< Owns what entries_ view.
    std::vector<EntryView> entries_; //!< The current block's.
    size_t entry_idx_ = 0;
};

std::unique_ptr<InternalIterator>
SSTableReader::newIterator()
{
    return std::make_unique<SSTableIterator>(this);
}

} // namespace ethkv::kv
