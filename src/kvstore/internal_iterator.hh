/**
 * @file
 * Cursor interface over internal LSM entries.
 *
 * Memtables and SSTables both expose this cursor so that scans and
 * compactions can k-way-merge any combination of sources through one
 * MergingIterator.
 */

#ifndef ETHKV_KVSTORE_INTERNAL_ITERATOR_HH
#define ETHKV_KVSTORE_INTERNAL_ITERATOR_HH

#include <memory>
#include <vector>

#include "common/bytes.hh"
#include "kvstore/entry.hh"

namespace ethkv::kv
{

/**
 * Forward cursor over internal entries in ascending key order.
 *
 * A freshly constructed iterator is positioned before the first
 * entry; call seek() (possibly with an empty key) to position it.
 */
class InternalIterator
{
  public:
    virtual ~InternalIterator() = default;

    /** Position at the first entry with key >= target. */
    virtual void seek(BytesView target) = 0;

    /** Whether the cursor points at an entry. */
    virtual bool valid() const = 0;

    /** Advance to the next entry; requires valid(). */
    virtual void next() = 0;

    /**
     * The current entry; requires valid(). Its views stay valid
     * until the cursor moves (see EntryView for who owns them).
     */
    virtual EntryView entry() const = 0;
};

/**
 * Cursor over an in-memory vector of entries already sorted by
 * ascending key.
 *
 * Scans use this to iterate a point-in-time copy of the active
 * memtable without holding the store mutex (the live memtable keeps
 * mutating underneath, so its own iterator is only safe under lock).
 */
class VectorIterator : public InternalIterator
{
  public:
    explicit VectorIterator(std::vector<InternalEntry> entries);

    void seek(BytesView target) override;
    bool valid() const override;
    void next() override;
    EntryView entry() const override;

  private:
    std::vector<InternalEntry> entries_;
    size_t pos_ = 0;
    bool positioned_ = false;
};

/**
 * Merges several sources into one ascending stream, newest first.
 *
 * Sources must be ordered newest-to-oldest. When multiple sources
 * hold the same user key, only the entry from the newest source is
 * yielded (including tombstones — callers filter those).
 */
class MergingIterator : public InternalIterator
{
  public:
    explicit MergingIterator(
        std::vector<std::unique_ptr<InternalIterator>> sources);

    void seek(BytesView target) override;
    bool valid() const override;
    void next() override;
    EntryView entry() const override;

  private:
    void findCurrent();

    std::vector<std::unique_ptr<InternalIterator>> sources_;
    size_t current_ = 0; //!< Index of the winning source.
    bool valid_ = false;
};

} // namespace ethkv::kv

#endif // ETHKV_KVSTORE_INTERNAL_ITERATOR_HH
