// The compute nodes one scheduler head manages, kept once for both heads.
// pbs::PbsServer and winhpc::HpcScheduler see the same physical nodes and
// differ only in their front ends (scraped text for PBS, a typed SDK for
// Windows HPC), so their node bookkeeping lives here:
//  * the records, in attach order; a record's index is the head's node id;
//  * one flat CPU-owner array: record r owns the np slots from cpu_begin,
//    each holding the key of the job that owns the CPU (0 = free);
//  * per record the cached free count, its fit level and the counted flag
//    (the head's schedulable predicate, which the head sets);
//  * the fit levels: fit(p) holds the counted records with at least p free
//    CPUs, so a free-count change from a to b flips exactly |a - b| bits and
//    allocates nothing; idle() holds the counted records with every CPU free;
//  * the free-CPU total over counted records, and the total CPUs;
//  * the hostname and short-name index, which refuses a node or a name that
//    is already attached.
// Every walk goes in ascending record order, the order of a full scan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/node.hpp"
#include "util/errors.hpp"
#include "util/index_bitset.hpp"

namespace hc::cluster {

/// The part of a head's node record the table maintains; a head's record
/// type derives from it and adds what is its own.
struct NodeSlot {
    Node* node = nullptr;
    std::size_t cpu_begin = 0;  ///< first slot in the table's owner array
    int np = 0;                 ///< CPU slots, the node's np
    int free_count = 0;         ///< cached number of free owner slots
    /// Number of fit levels holding this record: free_count while counted,
    /// else 0. The record is in fit level p for p <= fit_level.
    int fit_level = 0;
    bool counted = false;  ///< schedulable: in the fit levels, idle set and free total

    [[nodiscard]] int free_cpus() const { return free_count; }
    [[nodiscard]] int used_cpus() const { return np - free_count; }
};

/// The table records a running job holds, in placement order. One record is
/// kept inline, so a single-node job allocates nothing for its placement and
/// a multi-node job allocates at most once (a requeued one reuses the
/// capacity). Callers see only span(), never which form holds the list.
class RecordList {
public:
    void assign(std::span<const int> records) {
        spill_.clear();
        if (records.size() == 1) {
            first_ = records[0];
        } else {
            first_ = -1;
            spill_.assign(records.begin(), records.end());
        }
    }
    void clear() {
        first_ = -1;
        spill_.clear();
    }
    [[nodiscard]] std::span<const int> span() const {
        if (first_ >= 0) return {&first_, 1};
        return spill_;
    }

private:
    int first_ = -1;          ///< the record when there is exactly one
    std::vector<int> spill_;  ///< the records when there are two or more
};

/// Which free CPUs of a record take() hands out first.
enum class CpuOrder { kLowFirst, kHighFirst };

template <typename Rec>
class NodeTable {
    static_assert(std::is_base_of_v<NodeSlot, Rec>, "a node record derives from NodeSlot");

public:
    using Owner = std::uint64_t;  ///< a job key; 0 marks a free CPU
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /// Append `rec` as the record of `node`, with every CPU free and not
    /// counted, and return its index. Throws, leaving the table unchanged,
    /// when the node's FQDN or short name is already indexed (the node
    /// itself, or another node with a colliding name).
    std::size_t attach(Node& node, Rec rec) {
        const std::size_t idx = records_.size();
        // Both keys view the node's own hostname: the short name is its
        // prefix up to the first dot, so attaching allocates no key strings.
        const std::string_view fqdn = node.hostname();
        const std::string_view short_name = fqdn.substr(0, fqdn.find('.'));
        bool fresh = name_index_.try_emplace(fqdn, idx).second;
        if (fresh && short_name != fqdn && !name_index_.try_emplace(short_name, idx).second) {
            name_index_.erase(fqdn);
            fresh = false;
        }
        if (!fresh)
            throw util::PreconditionError("attach_node: node or name already attached: " +
                                          node.hostname());
        rec.node = &node;
        rec.np = node.np();
        rec.cpu_begin = owner_.size();
        rec.free_count = rec.np;
        rec.fit_level = 0;
        rec.counted = false;
        owner_.resize(owner_.size() + static_cast<std::size_t>(rec.np), 0);
        if (fit_.size() < static_cast<std::size_t>(rec.np))
            fit_.resize(static_cast<std::size_t>(rec.np));
        total_cpus_ += rec.np;
        records_.push_back(std::move(rec));
        return idx;
    }

    [[nodiscard]] const std::vector<Rec>& records() const { return records_; }
    [[nodiscard]] std::size_t size() const { return records_.size(); }
    [[nodiscard]] Rec& operator[](std::size_t i) { return records_[i]; }
    [[nodiscard]] const Rec& operator[](std::size_t i) const { return records_[i]; }

    /// Record index for an FQDN or short name, or npos. O(1).
    [[nodiscard]] std::size_t find(std::string_view name) const {
        const auto it = name_index_.find(name);
        return it == name_index_.end() ? npos : it->second;
    }

    /// The owner of each of the record's CPUs (0 = free).
    [[nodiscard]] std::span<const Owner> owners(const NodeSlot& rec) const {
        return {owner_.data() + rec.cpu_begin, static_cast<std::size_t>(rec.np)};
    }

    [[nodiscard]] int total_cpus() const { return total_cpus_; }
    /// Free CPUs on counted records. O(1).
    [[nodiscard]] int free_cpus() const { return free_total_; }
    /// Counted records with at least `p` >= 1 free CPUs.
    [[nodiscard]] const util::IndexBitset& fit(int p) const {
        static const util::IndexBitset kNone;
        const auto level = static_cast<std::size_t>(p);
        return level >= 1 && level <= fit_.size() ? fit_[level - 1] : kNone;
    }
    /// Counted records with every CPU free.
    [[nodiscard]] const util::IndexBitset& idle() const { return idle_; }
    /// The records in idle(), in index order.
    [[nodiscard]] std::vector<const Rec*> idle_records() const {
        std::vector<const Rec*> out;
        out.reserve(idle_.count());
        for (std::size_t i = idle_.next(0); i != util::IndexBitset::npos; i = idle_.next(i + 1))
            out.push_back(&records_[i]);
        return out;
    }

    /// Count the record (or stop counting it) in the free total, the fit
    /// levels and the idle set. Idempotent.
    void set_counted(std::size_t i, bool counted) {
        Rec& rec = records_[i];
        if (rec.counted != counted) {
            rec.counted = counted;
            free_total_ += counted ? rec.free_count : -rec.free_count;
        }
        update_sets(i);
    }

    /// Give up to `n` free CPUs of record `i` to `owner`, in `order`.
    /// Returns how many it gave.
    int take(std::size_t i, Owner owner, int n, CpuOrder order) {
        const Rec& rec = records_[i];
        Owner* slot = owner_.data() + rec.cpu_begin;
        int taken = 0;
        const bool high_first = order == CpuOrder::kHighFirst;
        for (int k = 0; k < rec.np && taken < n; ++k) {
            const int cpu = high_first ? rec.np - 1 - k : k;
            if (slot[cpu] != 0) continue;
            slot[cpu] = owner;
            ++taken;
        }
        adjust_free(i, -taken);
        return taken;
    }

    /// Free up to `limit` of `owner`'s CPUs on record `i`, from the top down.
    /// Returns how many it freed.
    int release(std::size_t i, Owner owner, int limit) {
        const Rec& rec = records_[i];
        Owner* slot = owner_.data() + rec.cpu_begin;
        int freed = 0;
        for (int cpu = rec.np - 1; cpu >= 0 && freed < limit; --cpu) {
            if (slot[cpu] != owner) continue;
            slot[cpu] = 0;
            ++freed;
        }
        if (freed > 0) adjust_free(i, freed);
        return freed;
    }

    /// Brute-force recount of everything above against the cached state;
    /// `should_count(rec)` is the head's schedulable predicate. Throws on
    /// divergence (the heads' consistency-check hook).
    template <typename ShouldCount>
    void verify(ShouldCount&& should_count) const {
        std::size_t slots = 0;
        std::size_t names = 0;
        int free_total = 0;
        for (std::size_t i = 0; i < records_.size(); ++i) {
            const Rec& rec = records_[i];
            util::ensure(rec.cpu_begin == slots && rec.np == rec.node->np(),
                         "consistency: record's owner slots are not its own");
            slots += static_cast<std::size_t>(rec.np);
            int free = 0;
            for (const Owner owner : owners(rec)) free += owner == 0 ? 1 : 0;
            util::ensure(free == rec.free_count,
                         "consistency: cached free count diverged from the owner slots");
            const bool counted = should_count(rec);
            util::ensure(rec.counted == counted,
                         "consistency: counted flag diverged from node state");
            if (counted) free_total += free;
            const std::string_view fqdn = rec.node->hostname();
            const std::string_view short_name = fqdn.substr(0, fqdn.find('.'));
            names += short_name == fqdn ? 1 : 2;
            util::ensure(find(fqdn) == i && find(short_name) == i,
                         "consistency: name index diverged");
            util::ensure(rec.fit_level == (counted ? free : 0),
                         "consistency: fit level diverged from node state");
            for (std::size_t p = 1; p <= fit_.size(); ++p)
                util::ensure(fit_[p - 1].test(i) == (counted && free >= static_cast<int>(p)),
                             "consistency: fit-level membership diverged");
            util::ensure(idle_.test(i) == (counted && free == rec.np),
                         "consistency: idle-set membership diverged");
        }
        util::ensure(free_total == free_total_, "consistency: free-CPU total diverged");
        util::ensure(names == name_index_.size(), "consistency: name index holds a stale name");
        // No bit beyond the last record (next() would hand placement a bad index).
        for (const auto& fit : fit_)
            util::ensure(fit.next(records_.size()) == util::IndexBitset::npos,
                         "consistency: fit level holds a stale record");
        util::ensure(idle_.next(records_.size()) == util::IndexBitset::npos,
                     "consistency: idle set holds a stale record");
        util::ensure(slots == owner_.size() && total_cpus_ == static_cast<int>(slots),
                     "consistency: total-CPU count diverged");
    }

    /// Snapshot of the mutable state. The name index and the total are
    /// construction wiring and are left out; the records point into the
    /// nodes, so a snapshot restores only into the world that took it, and
    /// restore() throws, changing nothing, when a node was attached since.
    struct Saved {
        std::vector<Rec> records;
        std::vector<Owner> owner;
        int free_total = 0;
        std::vector<util::IndexBitset> fit;
        util::IndexBitset idle;
    };
    [[nodiscard]] Saved save() const { return {records_, owner_, free_total_, fit_, idle_}; }
    void restore(const Saved& s) {
        util::require(s.records.size() == records_.size(),
                      "NodeTable::restore: snapshot of a different node set");
        records_ = s.records;
        owner_ = s.owner;
        free_total_ = s.free_total;
        fit_ = s.fit;
        idle_ = s.idle;
    }

private:
    void adjust_free(std::size_t i, int delta) {
        Rec& rec = records_[i];
        rec.free_count += delta;
        util::ensure(rec.free_count >= 0 && rec.free_count <= rec.np,
                     "NodeTable: free count out of range");
        if (rec.counted) free_total_ += delta;
        update_sets(i);
    }

    /// Bring fit-level and idle-set membership in line with the record.
    void update_sets(std::size_t i) {
        Rec& rec = records_[i];
        const int level = rec.counted ? rec.free_count : 0;
        for (int p = rec.fit_level; p < level; ++p) fit_[static_cast<std::size_t>(p)].set(i);
        for (int p = level; p < rec.fit_level; ++p) fit_[static_cast<std::size_t>(p)].reset(i);
        rec.fit_level = level;
        if (rec.counted && rec.free_count == rec.np)
            idle_.set(i);
        else
            idle_.reset(i);
    }

    std::vector<Rec> records_;
    std::vector<Owner> owner_;  ///< record r owns [cpu_begin, cpu_begin + np)
    std::unordered_map<std::string_view, std::size_t> name_index_;  ///< FQDN/short → record
    int total_cpus_ = 0;
    int free_total_ = 0;
    std::vector<util::IndexBitset> fit_;  ///< fit_[p - 1] is fit level p
    util::IndexBitset idle_;
};

}  // namespace hc::cluster
