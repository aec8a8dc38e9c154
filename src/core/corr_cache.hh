/**
 * @file
 * Correlation mining for the paper's Section-V proposal (ii).
 *
 * Findings 8-9 show correlated reads cluster within small distances
 * and repeat; an LRU that treats keys independently leaves those
 * hits on the table (Finding 6). This module mines follower
 * relations from an access stream ("when k is read, k' tends to be
 * read within the next W reads"). The server cache tier's
 * CorrelationPrefetcher (src/cachetier) uses it to warm followers,
 * and bench_ablation_corr_cache measures that tier with and
 * without it.
 */

#ifndef ETHKV_CORE_CORR_CACHE_HH
#define ETHKV_CORE_CORR_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace ethkv::core
{

/**
 * Mines key -> follower associations from a read stream.
 *
 * Space-bounded: each key keeps at most `max_followers`
 * candidates, replaced LFU-style. Ids are interned trace key ids.
 */
class CorrelationMiner
{
  public:
    /**
     * @param window Reads within this distance count as followers
     *        (Finding 8: correlations concentrate within ~64).
     * @param max_followers Candidates retained per key.
     */
    explicit CorrelationMiner(size_t window = 8,
                              size_t max_followers = 3);

    /** Feed one read (in stream order). */
    void observe(uint64_t key_id);

    /**
     * Followers of a key whose association count reaches
     * min_support, strongest first.
     */
    std::vector<uint64_t> followers(uint64_t key_id,
                                    uint32_t min_support = 2) const;

    size_t trackedKeys() const { return table_.size(); }

  private:
    struct Candidate
    {
        uint64_t key_id;
        uint32_t count;
    };

    size_t window_;
    size_t max_followers_;
    std::vector<uint64_t> recent_; //!< Ring of last W reads.
    size_t recent_pos_ = 0;
    std::unordered_map<uint64_t, std::vector<Candidate>> table_;
};

} // namespace ethkv::core

#endif // ETHKV_CORE_CORR_CACHE_HH
