#include "kvstore/memtable.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ethkv::kv
{

/**
 * One skiplist node, carved from the arena together with its key
 * bytes (right after the tower) and, at insert, its value bytes.
 */
struct MemTable::Node
{
    const char *key_data;
    char *value_data;
    size_t key_size;
    size_t value_size;
    size_t value_capacity; //!< Arena bytes at value_data.
    uint64_t seq;
    EntryType type;
    int height;
    Node *next[1]; // over-allocated to `height` slots

    static size_t
    towerBytes(int height)
    {
        return sizeof(Node) + (height - 1) * sizeof(Node *);
    }

    BytesView key() const { return BytesView(key_data, key_size); }
    BytesView
    value() const
    {
        return BytesView(value_data, value_size);
    }

    EntryView
    view() const
    {
        return {key(), value(), seq, type};
    }
};

char *
MemTable::Arena::allocate(size_t n)
{
    constexpr size_t align = alignof(Node);
    n = (n + align - 1) & ~(align - 1);
    if (n > left_) {
        if (n > block_bytes / 4) {
            // Its own block; the current one keeps its tail.
            blocks_.push_back(
                std::make_unique_for_overwrite<char[]>(n));
            return blocks_.back().get();
        }
        blocks_.push_back(
            std::make_unique_for_overwrite<char[]>(block_bytes));
        ptr_ = blocks_.back().get();
        left_ = block_bytes;
    }
    char *out = ptr_;
    ptr_ += n;
    left_ -= n;
    return out;
}

MemTable::MemTable(uint64_t rng_seed) : rng_(rng_seed)
{
    head_ = new (arena_.allocate(Node::towerBytes(max_height)))
        Node{nullptr, nullptr, 0, 0, 0, 0, EntryType::Put,
             max_height, {nullptr}};
    for (int i = 0; i < max_height; ++i)
        head_->next[i] = nullptr;
}

MemTable::~MemTable() = default;

int
MemTable::randomHeight()
{
    // Geometric with p = 1/4, as in LevelDB/Pebble.
    int h = 1;
    while (h < max_height && (rng_.next() & 3) == 0)
        ++h;
    return h;
}

MemTable::Node *
MemTable::findGreaterOrEqual(BytesView key, Node **prev) const
{
    Node *x = head_;
    int level = height_ - 1;
    for (;;) {
        Node *next = x->next[level];
        if (next && next->key() < key) {
            x = next;
        } else {
            if (prev)
                prev[level] = x;
            if (level == 0)
                return next;
            --level;
        }
    }
}

void
MemTable::add(BytesView key, BytesView value, uint64_t seq,
              EntryType type)
{
    Node *prev[max_height];
    Node *existing = findGreaterOrEqual(key, prev);

    if (existing && existing->key() == key) {
        // Supersede in place; newest write wins.
        if (existing->seq > seq)
            panic("MemTable::add: non-monotone seq for key");
        approximate_bytes_ -= existing->value_size;
        approximate_bytes_ += value.size();
        if (value.size() > existing->value_capacity) {
            existing->value_data = arena_.allocate(value.size());
            existing->value_capacity = value.size();
        }
        std::copy(value.begin(), value.end(), existing->value_data);
        existing->value_size = value.size();
        existing->seq = seq;
        existing->type = type;
        return;
    }

    int h = randomHeight();
    if (h > height_) {
        for (int i = height_; i < h; ++i)
            prev[i] = head_;
        // height_ is mutable in spirit; MemTable is
        // single-writer so a const_cast-free design keeps add()
        // non-const instead.
        height_ = h;
    }

    const size_t tower = Node::towerBytes(h);
    char *mem = arena_.allocate(tower + key.size() + value.size());
    char *key_data = mem + tower;
    char *value_data = key_data + key.size();
    std::copy(key.begin(), key.end(), key_data);
    std::copy(value.begin(), value.end(), value_data);
    Node *n = new (mem) Node{key_data, value_data, key.size(),
                             value.size(), value.size(), seq, type,
                             h, {nullptr}};
    for (int i = 0; i < h; ++i) {
        n->next[i] = prev[i]->next[i];
        prev[i]->next[i] = n;
    }
    approximate_bytes_ += key.size() + value.size() + 32;
    ++entry_count_;
}

bool
MemTable::get(BytesView key, EntryView &entry) const
{
    Node *n = findGreaterOrEqual(key, nullptr);
    if (n && n->key() == key) {
        entry = n->view();
        return true;
    }
    return false;
}

/**
 * Cursor over a live memtable; wraps the level-0 linked list.
 */
class MemTableIterator : public InternalIterator
{
  public:
    explicit MemTableIterator(const MemTable *table) : table_(table)
    {}

    void
    seek(BytesView target) override
    {
        node_ = table_->findGreaterOrEqual(target, nullptr);
    }

    bool valid() const override { return node_ != nullptr; }

    void
    next() override
    {
        if (!node_)
            panic("MemTableIterator::next on invalid iterator");
        node_ = node_->next[0];
    }

    EntryView
    entry() const override
    {
        if (!node_)
            panic("MemTableIterator::entry on invalid iterator");
        return node_->view();
    }

  private:
    const MemTable *table_;
    MemTable::Node *node_ = nullptr;
};

std::unique_ptr<InternalIterator>
MemTable::newIterator() const
{
    return std::make_unique<MemTableIterator>(this);
}

bool
MemTable::forEach(
    BytesView start, BytesView end,
    const std::function<bool(const EntryView &)> &cb) const
{
    Node *n = findGreaterOrEqual(start, nullptr);
    while (n) {
        if (!end.empty() && n->key() >= end)
            break;
        if (!cb(n->view()))
            return false;
        n = n->next[0];
    }
    return true;
}

} // namespace ethkv::kv
