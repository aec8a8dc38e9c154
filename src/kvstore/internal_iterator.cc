#include "kvstore/internal_iterator.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ethkv::kv
{

VectorIterator::VectorIterator(std::vector<InternalEntry> entries)
    : entries_(std::move(entries))
{}

void
VectorIterator::seek(BytesView target)
{
    pos_ = std::lower_bound(entries_.begin(), entries_.end(), target,
                            [](const InternalEntry &e, BytesView t) {
                                return BytesView(e.key) < t;
                            }) -
           entries_.begin();
    positioned_ = true;
}

bool
VectorIterator::valid() const
{
    return positioned_ && pos_ < entries_.size();
}

void
VectorIterator::next()
{
    if (!valid())
        panic("VectorIterator::next on invalid iterator");
    ++pos_;
}

EntryView
VectorIterator::entry() const
{
    if (!valid())
        panic("VectorIterator::entry on invalid iterator");
    return entries_[pos_];
}

MergingIterator::MergingIterator(
    std::vector<std::unique_ptr<InternalIterator>> sources)
    : sources_(std::move(sources))
{}

void
MergingIterator::seek(BytesView target)
{
    for (auto &src : sources_)
        src->seek(target);
    findCurrent();
}

void
MergingIterator::findCurrent()
{
    // Pick the smallest key; among equals the newest source (lowest
    // index) wins and the older duplicates are advanced past it.
    valid_ = false;
    BytesView best_key;
    for (size_t i = 0; i < sources_.size(); ++i) {
        if (!sources_[i]->valid())
            continue;
        BytesView k = sources_[i]->entry().key;
        if (!valid_ || k < best_key) {
            valid_ = true;
            best_key = k;
            current_ = i;
        }
    }
    if (!valid_)
        return;
    // Skip shadowed duplicates in older sources.
    for (size_t i = 0; i < sources_.size(); ++i) {
        if (i == current_)
            continue;
        while (sources_[i]->valid() &&
               BytesView(sources_[i]->entry().key) == best_key) {
            sources_[i]->next();
        }
    }
}

bool
MergingIterator::valid() const
{
    return valid_;
}

void
MergingIterator::next()
{
    if (!valid_)
        panic("MergingIterator::next on invalid iterator");
    sources_[current_]->next();
    findCurrent();
}

EntryView
MergingIterator::entry() const
{
    if (!valid_)
        panic("MergingIterator::entry on invalid iterator");
    return sources_[current_]->entry();
}

} // namespace ethkv::kv
