// A growable set of small non-negative indices with fast ascending
// iteration: 64-bit words plus one summary bit per non-empty word, so
// next(from) skips 4096 empty indices per summary word it reads.
//
// Built for ordered candidate sets over dense record indices (the PBS
// server's fit index), where std::set<int> paid a node allocation per member
// and a pointer chase per step. set() grows the storage geometrically;
// every other operation treats indices past the end as absent.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hc::util {

class IndexBitset {
public:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    void set(std::size_t i) {
        const std::size_t w = i >> 6;
        if (w >= words_.size()) {
            words_.resize(w + 1);
            summary_.resize((w >> 6) + 1);
        }
        const std::uint64_t bit = std::uint64_t{1} << (i & 63);
        if ((words_[w] & bit) != 0) return;
        words_[w] |= bit;
        summary_[w >> 6] |= std::uint64_t{1} << (w & 63);
        ++count_;
    }

    void reset(std::size_t i) {
        const std::size_t w = i >> 6;
        if (w >= words_.size()) return;
        const std::uint64_t bit = std::uint64_t{1} << (i & 63);
        if ((words_[w] & bit) == 0) return;
        words_[w] &= ~bit;
        if (words_[w] == 0) summary_[w >> 6] &= ~(std::uint64_t{1} << (w & 63));
        --count_;
    }

    [[nodiscard]] bool test(std::size_t i) const {
        const std::size_t w = i >> 6;
        return w < words_.size() && ((words_[w] >> (i & 63)) & 1) != 0;
    }

    /// Smallest member >= `from`, or npos when there is none.
    [[nodiscard]] std::size_t next(std::size_t from) const {
        std::size_t w = from >> 6;
        if (w >= words_.size()) return npos;
        const std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (from & 63));
        if (bits != 0) return (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
        // The rest of this word is empty: find the next non-empty word.
        ++w;
        std::size_t s = w >> 6;
        if (s >= summary_.size()) return npos;
        std::uint64_t sbits = summary_[s] & (~std::uint64_t{0} << (w & 63));
        while (sbits == 0) {
            if (++s >= summary_.size()) return npos;
            sbits = summary_[s];
        }
        w = (s << 6) + static_cast<std::size_t>(std::countr_zero(sbits));
        return (w << 6) + static_cast<std::size_t>(std::countr_zero(words_[w]));
    }

    [[nodiscard]] std::size_t count() const { return count_; }

private:
    std::vector<std::uint64_t> words_;    ///< bit i of word w = index 64w + i
    std::vector<std::uint64_t> summary_;  ///< bit j of word s = words_[64s + j] != 0
    std::size_t count_ = 0;
};

}  // namespace hc::util
