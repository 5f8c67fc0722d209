#include "util/text_document.hpp"

#include <algorithm>

namespace hc::util {

namespace {
// Below this many journal entries no trim ever happens; above it, the log is
// halved whenever it also exceeds twice the live chunk count, so the journal
// stays proportional to the document while bounding per-poll catch-up work.
constexpr std::size_t kJournalFloorEntries = 1024;
// Empty slots in front of the first chunk are dropped once there are this
// many and they are at least half the window, so moving the rest is
// amortized over the erases that emptied them.
constexpr std::size_t kFrontSlack = 4096;
}  // namespace

void TextDocument::journal(Key key) {
    ++version_;
    log_.emplace_back(version_, key);
    if (log_.size() > kJournalFloorEntries && log_.size() > 2 * size()) {
        const std::size_t drop = log_.size() / 2;
        journal_floor_ = log_[drop - 1].first;
        log_.erase(log_.begin(), log_.begin() + static_cast<std::ptrdiff_t>(drop));
        ++stats_.log_trims;
    }
}

std::size_t TextDocument::index_for(Key key) {
    if (size() == 0) {  // empty: anchor the window at this key
        slots_.clear();
        base_ = key;
        first_ = 0;
    } else if (key < base_) {
        // Grow the front at least geometrically, so keys arriving in
        // descending order cost amortized O(1) each.
        const auto room = static_cast<std::size_t>(
            std::min<Key>(std::max<Key>(base_ - key, slots_.size()), base_));
        slots_.insert(slots_.begin(), room, 0);
        base_ -= room;
        first_ += room;
    }
    const auto i = static_cast<std::size_t>(key - base_);
    if (i >= slots_.size()) slots_.resize(i + 1, 0);
    return i;
}

void TextDocument::set(Key key, std::string_view text) {
    const std::size_t i = index_for(key);
    if (slots_[i] != 0 && chunks_[slots_[i] - 1].text == text) return;  // byte-identical: no-op
    if (slots_[i] == 0) {  // a new key takes a pooled chunk when there is one
        if (free_.empty()) {
            chunks_.emplace_back();
            slots_[i] = static_cast<std::uint32_t>(chunks_.size());
        } else {
            slots_[i] = free_.back() + 1;
            free_.pop_back();
        }
        first_ = std::min(first_, i);
    }
    Chunk& chunk = chunks_[slots_[i] - 1];
    total_bytes_ += text.size() - chunk.text.size();
    chunk.text.assign(text);  // reuses the chunk's capacity
    journal(key);
    chunk.stamp = version_;
    ++stats_.sets;
}

void TextDocument::erase(Key key) {
    if (find(key) == nullptr) return;
    const auto i = static_cast<std::size_t>(key - base_);
    const std::uint32_t c = slots_[i] - 1;
    total_bytes_ -= chunks_[c].text.size();
    chunks_[c].text.clear();  // back to the pool, capacity kept
    free_.push_back(c);
    slots_[i] = 0;
    journal(key);
    ++stats_.erases;
    if (i != first_) return;
    while (first_ < slots_.size() && slots_[first_] == 0) ++first_;
    if (first_ >= kFrontSlack && first_ >= slots_.size() / 2) {
        slots_.erase(slots_.begin(), slots_.begin() + static_cast<std::ptrdiff_t>(first_));
        base_ += first_;
        first_ = 0;
    }
}

bool TextDocument::changed_since(std::uint64_t since, std::vector<Key>& out) const {
    out.clear();
    if (since < journal_floor_) return false;  // trimmed past `since`: resync
    // First journal entry with version > since (the log is version-sorted).
    auto it = std::upper_bound(log_.begin(), log_.end(), since,
                               [](std::uint64_t v, const auto& entry) { return v < entry.first; });
    for (; it != log_.end(); ++it) out.push_back(it->second);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return true;
}

const std::string& TextDocument::text() const {
    if (assembled_version_ != version_) {
        assembled_.clear();
        assembled_.reserve(total_bytes_);
        for_each_chunk([this](Key, const Chunk& chunk) { assembled_ += chunk.text; });
        assembled_version_ = version_;
        ++stats_.assemblies;
    }
    return assembled_;
}

}  // namespace hc::util
