#include "core/corr_cache.hh"

#include <algorithm>

namespace ethkv::core
{

CorrelationMiner::CorrelationMiner(size_t window,
                                   size_t max_followers)
    : window_(window), max_followers_(max_followers)
{
    recent_.reserve(window_);
}

void
CorrelationMiner::observe(uint64_t key_id)
{
    // Every key in the recent window gains `key_id` as a follower
    // candidate.
    for (uint64_t predecessor : recent_) {
        if (predecessor == key_id)
            continue;
        std::vector<Candidate> &candidates = table_[predecessor];
        bool found = false;
        for (Candidate &candidate : candidates) {
            if (candidate.key_id == key_id) {
                ++candidate.count;
                found = true;
                break;
            }
        }
        if (!found) {
            if (candidates.size() < max_followers_) {
                candidates.push_back({key_id, 1});
            } else {
                // LFU-style replacement: displace the weakest
                // candidate by decaying it (space-saving sketch).
                auto weakest = std::min_element(
                    candidates.begin(), candidates.end(),
                    [](const Candidate &x, const Candidate &y) {
                        return x.count < y.count;
                    });
                if (weakest->count <= 1) {
                    *weakest = {key_id, 1};
                } else {
                    --weakest->count;
                }
            }
        }
    }

    if (recent_.size() < window_) {
        recent_.push_back(key_id);
    } else {
        recent_[recent_pos_] = key_id;
        recent_pos_ = (recent_pos_ + 1) % window_;
    }
}

std::vector<uint64_t>
CorrelationMiner::followers(uint64_t key_id,
                            uint32_t min_support) const
{
    auto it = table_.find(key_id);
    if (it == table_.end())
        return {};
    std::vector<Candidate> qualified;
    for (const Candidate &candidate : it->second)
        if (candidate.count >= min_support)
            qualified.push_back(candidate);
    std::sort(qualified.begin(), qualified.end(),
              [](const Candidate &x, const Candidate &y) {
                  return x.count > y.count;
              });
    std::vector<uint64_t> out;
    out.reserve(qualified.size());
    for (const Candidate &candidate : qualified)
        out.push_back(candidate.key_id);
    return out;
}

} // namespace ethkv::core
