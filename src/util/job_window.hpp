// A job table over the dense integer keys a scheduler issues in order (PBS
// seqs, Windows HPC ids): slot i holds the job with key base() + i, or nullptr
// once purged, so a lookup is one subtraction and one bounds check. Finished
// jobs are retired in completion order and purged past a retention count
// (0 keeps everything). Purged front slots are popped, so the front slot is
// never a hole; a job that stays live (held, unplaceable, long-running) pins
// the front, and the table keeps an 8-byte slot per key issued after it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "util/errors.hpp"

namespace hc::util {

/// Jobs of type T keyed by their integer member `Key`.
template <typename T, auto Key>
class JobWindow {
public:
    using KeyType = std::uint64_t;

    /// `retention`: finished jobs kept before the oldest are purged (0 keeps
    /// all, and then nothing is ever retired).
    JobWindow(KeyType first_key, std::size_t retention)
        : base_(first_key), retention_(retention) {}

    [[nodiscard]] KeyType base() const { return base_; }
    /// The key the next push must carry: one past the newest issued.
    [[nodiscard]] KeyType next_key() const { return base_ + slots_.size(); }

    /// Append `job`, whose key must be next_key(). Returns the stored job.
    T& push(std::unique_ptr<T> job) {
        require(job != nullptr && key_of(*job) == next_key(), "JobWindow::push: key out of order");
        slots_.push_back(std::move(job));
        return *slots_.back();
    }

    /// The job with `key`, or nullptr when it was purged or never issued (a
    /// key below the base wraps to a huge slot and misses).
    [[nodiscard]] T* find(KeyType key) const {
        const KeyType slot = key - base_;
        return slot < slots_.size() ? slots_[slot].get() : nullptr;
    }

    /// Queue a finished job for purging (call in completion order).
    void retire(KeyType key) {
        if (retention_ > 0) retired_.push_back(key);
    }

    /// Destroy the oldest retired jobs beyond the retention and pop the
    /// purged front slots. Returns how many jobs were destroyed.
    std::size_t purge() {
        std::size_t purged = 0;
        while (retired_.size() > retention_) {
            const KeyType slot = retired_.front() - base_;
            retired_.pop_front();
            ensure(slot < slots_.size() && slots_[slot] != nullptr,
                   "JobWindow::purge: retention queue out of sync");
            slots_[slot].reset();
            ++purged;
        }
        for (; !slots_.empty() && slots_.front() == nullptr; ++base_) slots_.pop_front();
        return purged;
    }

    /// Call `fn(const T&)` for every unpurged job, in key order.
    template <typename Fn>
    void for_each(Fn&& fn) const {
        for (const auto& slot : slots_)
            if (slot != nullptr) fn(static_cast<const T&>(*slot));
    }

    /// A snapshot: the window [base, next), copies of the unpurged jobs in key
    /// order, and the retention queue.
    struct Saved {
        KeyType base = 0;
        KeyType next = 0;
        std::vector<T> jobs;
        std::deque<KeyType> retired;
    };

    [[nodiscard]] Saved save() const {
        Saved s{base_, next_key(), {}, retired_};
        for_each([&s](const T& job) { s.jobs.push_back(job); });
        return s;
    }

    /// Rebuild the table from a snapshot. Throws when the window is inverted
    /// or a job lies outside it.
    void restore(const Saved& s) {
        ensure(s.base <= s.next, "JobWindow::restore: base past the next key");
        base_ = s.base;
        slots_.clear();
        slots_.resize(s.next - s.base);
        for (const T& job : s.jobs) {
            const KeyType key = key_of(job);
            ensure(key >= s.base && key < s.next, "JobWindow::restore: job outside the window");
            slots_[key - s.base] = std::make_unique<T>(job);
        }
        retired_ = s.retired;
    }

    /// Throw unless the front slot is live (or the table empty), slot i holds
    /// key base + i, and every retired key names a live job with `ended(job)`.
    template <typename Ended>
    void verify(Ended&& ended) const {
        ensure(slots_.empty() || slots_.front() != nullptr,
               "consistency: job table front slot is a purged hole");
        for (std::size_t i = 0; i < slots_.size(); ++i)
            ensure(slots_[i] == nullptr || key_of(*slots_[i]) == base_ + i,
                   "consistency: job table slot diverged from its key");
        for (const KeyType key : retired_) {
            const T* job = find(key);
            ensure(job != nullptr && ended(*job), "consistency: retired job missing or live");
        }
    }

private:
    [[nodiscard]] static KeyType key_of(const T& job) { return static_cast<KeyType>(job.*Key); }

    std::deque<std::unique_ptr<T>> slots_;
    KeyType base_;
    std::size_t retention_;
    std::deque<KeyType> retired_;  ///< finished keys in completion order
};

}  // namespace hc::util
