// A chunked text buffer with a change journal — the transport between a
// text-rendering producer (the PBS command layer) and an incremental
// consumer (the detector's scraper).
//
// The document models one command output (`pbsnodes`, `qstat -f`) as an
// ordered sequence of self-contained chunks (one stanza each), keyed by a
// stable 64-bit key (node index, job sequence number). Producers patch only
// the chunks whose backing state moved; consumers ask "which keys changed
// since version V?" and re-read just those chunks, instead of diffing or
// re-parsing megabytes of assembled text per poll.
//
// Keys are dense (node indices, job sequence numbers), so a key finds its
// chunk through a flat window of 4-byte slots between the smallest and the
// largest live key, not a tree; the window's emptied front is dropped as it
// moves up. Chunk strings are pooled: an erased chunk's string keeps its
// capacity for the next new key. A producer re-renders a stanza into a
// buffer of its own and hands set() a view: an unchanged stanza is a no-op,
// a changed one is copied into the chunk's existing string, so patching a
// stanza, or adding one in place of an erased one, seldom allocates.
//
// The full string is still available via text() for humans, tools, and the
// whole-string scraper that serves as the detector's reference oracle; it is
// assembled lazily and memoized against the document version, so
// steady-state readers share one buffer.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hc::util {

class TextDocument {
public:
    using Key = std::uint64_t;

    struct Chunk {
        std::string text;
        std::uint64_t stamp = 0;  ///< document version this text was set at
    };

    struct Stats {
        std::uint64_t sets = 0;        ///< chunk writes that changed bytes
        std::uint64_t erases = 0;
        std::uint64_t assemblies = 0;  ///< full-text concatenations performed
        std::uint64_t log_trims = 0;
    };

    /// Install or replace the chunk at `key`. A write whose bytes are
    /// identical to the current chunk is a no-op (no version bump, no
    /// journal entry) so consumers never re-parse unchanged stanzas; any
    /// other write copies `text` into the chunk's existing string.
    void set(Key key, std::string_view text);

    /// Remove the chunk at `key` (no-op when absent). Removals are
    /// journaled like writes; consumers see the key and find no chunk.
    void erase(Key key);

    /// Monotonic document version: bumps on every effective set/erase.
    [[nodiscard]] std::uint64_t version() const { return version_; }

    /// The chunk at `key`, or nullptr; valid until the next set() or erase().
    [[nodiscard]] const Chunk* find(Key key) const {
        if (key < base_ || key - base_ >= slots_.size()) return nullptr;
        const std::uint32_t slot = slots_[static_cast<std::size_t>(key - base_)];
        return slot == 0 ? nullptr : &chunks_[slot - 1];
    }

    /// Number of chunks.
    [[nodiscard]] std::size_t size() const { return chunks_.size() - free_.size(); }

    /// Call fn(key, chunk) for every chunk, in key order.
    template <class Fn>
    void for_each_chunk(Fn&& fn) const {
        for (std::size_t i = first_; i < slots_.size(); ++i)
            if (slots_[i] != 0) fn(base_ + i, chunks_[slots_[i] - 1]);
    }

    /// Total bytes across all chunks (what text() will assemble).
    [[nodiscard]] std::size_t total_bytes() const { return total_bytes_; }

    /// Keys changed (set or erased) at versions > `since`, deduplicated and
    /// sorted. Returns false when the journal has been trimmed past `since`
    /// — the consumer must resync by walking every chunk instead.
    bool changed_since(std::uint64_t since, std::vector<Key>& out) const;

    /// The assembled document: every chunk concatenated in key order.
    /// Memoized against version(); a steady-state caller gets the cached
    /// string without touching chunk storage.
    [[nodiscard]] const std::string& text() const;

    [[nodiscard]] const Stats& stats() const { return stats_; }

private:
    void journal(Key key);
    /// The window index of `key`, growing the window to cover it.
    std::size_t index_for(Key key);

    // slots_[key - base_] is 1 + the index of key's chunk in chunks_, or 0.
    // first_ is at most the index of the first live slot. free_ lists the
    // chunks_ entries no key uses; their strings are empty but keep capacity.
    Key base_ = 0;
    std::vector<std::uint32_t> slots_;
    std::size_t first_ = 0;
    std::vector<Chunk> chunks_;
    std::vector<std::uint32_t> free_;
    std::uint64_t version_ = 0;
    std::size_t total_bytes_ = 0;

    // Change journal: (version, key) pairs in version order. Trimmed from
    // the front once it outgrows both the fixed floor and the live chunk
    // count; `journal_floor_` is the newest version the journal can no
    // longer answer for.
    std::vector<std::pair<std::uint64_t, Key>> log_;
    std::uint64_t journal_floor_ = 0;

    mutable std::string assembled_;
    mutable std::uint64_t assembled_version_ = ~0ull;
    mutable Stats stats_;
};

}  // namespace hc::util
