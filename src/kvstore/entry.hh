/**
 * @file
 * Internal LSM entry types shared by memtables, SSTables, and
 * iterators.
 */

#ifndef ETHKV_KVSTORE_ENTRY_HH
#define ETHKV_KVSTORE_ENTRY_HH

#include <cstdint>

#include "common/bytes.hh"

namespace ethkv::kv
{

/** Record type of an internal LSM entry. */
enum class EntryType : uint8_t
{
    Put = 0,
    Tombstone = 1,
};

struct InternalEntry;

/**
 * One internal entry viewed in place: what every InternalIterator
 * yields and SSTableWriter consumes.
 *
 * The views are valid only while whatever owns the bytes is alive
 * and unmodified: a sealed memtable, an SSTable iterator's current
 * block (until the iterator moves off it), or an InternalEntry. A
 * view of the active memtable is valid only under the store mutex,
 * because the next write may overwrite a value in place.
 */
struct EntryView
{
    BytesView key;
    BytesView value; //!< Empty for tombstones.
    uint64_t seq = 0;
    EntryType type = EntryType::Put;

    /** An owning copy. */
    InternalEntry toEntry() const;
};

/** One internal entry that owns its bytes. */
struct InternalEntry
{
    Bytes key;
    Bytes value;   //!< Empty for tombstones.
    uint64_t seq;  //!< Monotone per-store sequence number.
    EntryType type;

    operator EntryView() const { return {key, value, seq, type}; }
};

inline InternalEntry
EntryView::toEntry() const
{
    return {Bytes(key), Bytes(value), seq, type};
}

} // namespace ethkv::kv

#endif // ETHKV_KVSTORE_ENTRY_HH
