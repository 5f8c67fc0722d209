// An intrusive first-come-first-served list: the links live in the element
// (a FifoHook member), so linking allocates nothing and a walk is a pointer
// chase through the elements. Both batch heads keep their queued jobs on one,
// in key order: a submit appends, and a job coming back to the queue (qrls, a
// requeue) is inserted at its arrival slot. The list never owns an element;
// its owner unlinks one before destroying it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/errors.hpp"

namespace hc::util {

/// The links an element carries for one IntrusiveFifo. A copy is never on a
/// list: copying an element (a snapshot) yields an unlinked hook, and
/// assigning over an element leaves its own links alone.
template <typename T>
struct FifoHook {
    T* prev = nullptr;
    T* next = nullptr;
    bool linked = false;

    FifoHook() = default;
    FifoHook(const FifoHook&) noexcept {}
    FifoHook& operator=(const FifoHook&) noexcept { return *this; }
};

/// Elements of T linked through the member `Hook`, in strictly ascending
/// order of the member `Key`.
template <typename T, FifoHook<T> T::*Hook, auto Key>
class IntrusiveFifo {
public:
    using KeyType = std::remove_cvref_t<decltype(std::declval<const T&>().*Key)>;

    [[nodiscard]] T* head() const { return head_; }
    [[nodiscard]] static T* next(const T& x) { return (x.*Hook).next; }
    [[nodiscard]] static bool linked(const T& x) { return (x.*Hook).linked; }
    [[nodiscard]] std::size_t size() const { return size_; }
    /// Bumps on every unlink, so a walk that calls out (an on_start hook may
    /// unlink any job) can tell whether its saved next pointer may be stale.
    [[nodiscard]] std::uint64_t unlinks() const { return unlinks_; }

    /// Append `x`; its key must exceed every linked key.
    void push_back(T& x) { link_before(x, nullptr); }

    /// Link `x` before the first element with a larger key. O(position).
    void insert_by_key(T& x) {
        T* after = head_;
        while (after != nullptr && after->*Key < x.*Key) after = next(*after);
        link_before(x, after);
    }

    /// Unlink `x`; a no-op when it is not linked.
    void unlink(T& x) {
        FifoHook<T>& h = x.*Hook;
        if (!h.linked) return;
        (h.prev != nullptr ? (h.prev->*Hook).next : head_) = h.next;
        (h.next != nullptr ? (h.next->*Hook).prev : tail_) = h.prev;
        h.prev = h.next = nullptr;
        h.linked = false;
        --size_;
        ++unlinks_;
    }

    /// The keys head→tail: the order a snapshot stores.
    [[nodiscard]] std::vector<KeyType> keys() const {
        std::vector<KeyType> out;
        for (const T* x = head_; x != nullptr; x = next(*x)) out.push_back(x->*Key);
        return out;
    }

    /// Rebuild the list from keys(), appending the unlinked element
    /// `lookup(key)` for each key; a missing or repeated key throws.
    template <typename Lookup>
    void relink(const std::vector<KeyType>& keys, Lookup&& lookup) {
        head_ = tail_ = nullptr;
        size_ = 0;
        for (const KeyType& key : keys) {
            T* x = lookup(key);
            ensure(x != nullptr, "IntrusiveFifo::relink: element missing");
            push_back(*x);
        }
    }

    /// Throw unless every listed element carries the linked flag, links are
    /// symmetric, keys strictly increase, and the tail and count match.
    void verify() const {
        std::size_t walked = 0;
        const T* prev = nullptr;
        for (const T* x = head_; x != nullptr; prev = x, x = next(*x), ++walked) {
            ensure(linked(*x), "consistency: listed element missing its linked flag");
            ensure((x->*Hook).prev == prev, "consistency: FIFO links broken");
            ensure(prev == nullptr || prev->*Key < x->*Key, "consistency: FIFO out of key order");
        }
        ensure(prev == tail_, "consistency: FIFO tail diverged");
        ensure(walked == size_, "consistency: FIFO count diverged");
    }

private:
    void link_before(T& x, T* after) {
        FifoHook<T>& h = x.*Hook;
        ensure(!h.linked, "IntrusiveFifo: element already linked");
        h.next = after;
        h.prev = after != nullptr ? (after->*Hook).prev : tail_;
        (h.prev != nullptr ? (h.prev->*Hook).next : head_) = &x;
        (after != nullptr ? (after->*Hook).prev : tail_) = &x;
        h.linked = true;
        ++size_;
    }

    T* head_ = nullptr;
    T* tail_ = nullptr;
    std::size_t size_ = 0;
    std::uint64_t unlinks_ = 0;
};

}  // namespace hc::util
