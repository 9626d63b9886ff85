#pragma once
// Round-robin arbitration primitive used by the VA and SA stages.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace nbtinoc::noc {

/// Fixed-capacity request bitset: the scratch request vector of one
/// arbitration. Word storage is allocated once at resize() (wiring time);
/// clear()/set()/test() never touch the allocator, which is what keeps the
/// per-cycle VA/SA hot path allocation-free.
class RequestSet {
 public:
  RequestSet() = default;
  explicit RequestSet(std::size_t size) { resize(size); }

  /// Sets the requester count; allocates word storage. Not for per-cycle
  /// use — size once at construction, clear() between arbitrations.
  void resize(std::size_t size) {
    size_ = size;
    words_.assign((size + 63) / 64, 0);
  }

  std::size_t size() const { return size_; }

  void clear() {
    for (auto& w : words_) w = 0;
  }
  void set(std::size_t i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  bool test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & std::uint64_t{1};
  }
  bool any() const {
    for (const auto w : words_)
      if (w != 0) return true;
    return false;
  }
  /// The first set index in [from, end), or `end` when there is none.
  /// Scans whole words: the first one masked below `from`, the bits of the
  /// last one at or past `end` ignored. Requires end <= size().
  std::size_t find_next(std::size_t from, std::size_t end) const {
    if (from >= end) return end;
    std::size_t w = from >> 6;
    const std::size_t last = (end - 1) >> 6;
    std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (from & 63));
    while (bits == 0) {
      if (w == last) return end;
      bits = words_[++w];
    }
    const std::size_t i = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
    return i < end ? i : end;
  }
  /// Calls f(i) for every set index i, in ascending order.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w)
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1)
        f(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
  }

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Classic rotating-priority arbiter over `size` requesters. The grant
/// pointer advances past the winner so that repeated contention is fair.
class RoundRobinArbiter {
 public:
  explicit RoundRobinArbiter(std::size_t size = 0) : size_(size) {}

  void resize(std::size_t size) {
    size_ = size;
    if (pointer_ >= size_) pointer_ = 0;
  }

  std::size_t size() const { return size_; }
  std::size_t pointer() const { return pointer_; }

  /// Grants the first asserted request at or after the pointer; returns -1
  /// if nothing requests. On a grant, the pointer moves one past the winner.
  int arbitrate(const std::vector<bool>& requests);
  int arbitrate(const RequestSet& requests);

  /// Same, but does not advance the pointer (pure query).
  int peek(const std::vector<bool>& requests) const;
  int peek(const RequestSet& requests) const;

  /// Moves the pointer one past `idx` (used when the winner is decided by a
  /// later arbitration stage, e.g. separable SA).
  void advance_past(std::size_t idx) {
    if (size_ > 0) pointer_ = (idx + 1) % size_;
  }

  /// Restores a checkpointed grant pointer (fairness state).
  void set_pointer(std::size_t pointer) { pointer_ = size_ > 0 ? pointer % size_ : 0; }

 private:
  std::size_t size_ = 0;
  std::size_t pointer_ = 0;
};

}  // namespace nbtinoc::noc
