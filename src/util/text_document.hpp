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
// The full string is still available via text() for humans, tools, and the
// whole-string scraper that serves as the detector's reference oracle; it is
// assembled lazily and memoized against the document version, so
// steady-state readers share one buffer.
#pragma once

#include <cstdint>
#include <map>
#include <string>
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
    /// journal entry) so consumers never re-parse unchanged stanzas.
    void set(Key key, std::string text);

    /// Remove the chunk at `key` (no-op when absent). Removals are
    /// journaled like writes; consumers see the key and find no chunk.
    void erase(Key key);

    /// Monotonic document version: bumps on every effective set/erase.
    [[nodiscard]] std::uint64_t version() const { return version_; }

    [[nodiscard]] const std::map<Key, Chunk>& chunks() const { return chunks_; }
    [[nodiscard]] const Chunk* find(Key key) const {
        auto it = chunks_.find(key);
        return it == chunks_.end() ? nullptr : &it->second;
    }

    /// Total bytes across all chunks (what text() will assemble).
    [[nodiscard]] std::size_t total_bytes() const { return total_bytes_; }

    /// Keys changed (set or erased) at versions > `since`, deduplicated and
    /// sorted. Returns false when the journal has been trimmed past `since`
    /// — the consumer must resync by walking chunks() instead.
    bool changed_since(std::uint64_t since, std::vector<Key>& out) const;

    /// The assembled document: every chunk concatenated in key order.
    /// Memoized against version(); a steady-state caller gets the cached
    /// string without touching chunk storage.
    [[nodiscard]] const std::string& text() const;

    [[nodiscard]] const Stats& stats() const { return stats_; }

private:
    void journal(Key key);

    std::map<Key, Chunk> chunks_;
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
