#include "nbtinoc/noc/arbiter.hpp"

namespace nbtinoc::noc {

int RoundRobinArbiter::peek(const std::vector<bool>& requests) const {
  const std::size_t n = size_ < requests.size() ? size_ : requests.size();
  if (n == 0) return -1;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = (pointer_ + i) % n;
    if (requests[idx]) return static_cast<int>(idx);
  }
  return -1;
}

int RoundRobinArbiter::peek(const RequestSet& requests) const {
  const std::size_t n = size_ < requests.size() ? size_ : requests.size();
  if (n == 0) return -1;
  // The cyclic scan of the vector<bool> overload as two word-level finds:
  // from the pointer up, then wrapped below it.
  const std::size_t start = pointer_ < n ? pointer_ : pointer_ % n;
  const std::size_t upper = requests.find_next(start, n);
  if (upper != n) return static_cast<int>(upper);
  const std::size_t lower = requests.find_next(0, start);
  return lower != start ? static_cast<int>(lower) : -1;
}

int RoundRobinArbiter::arbitrate(const std::vector<bool>& requests) {
  const int winner = peek(requests);
  if (winner >= 0 && size_ > 0) pointer_ = (static_cast<std::size_t>(winner) + 1) % size_;
  return winner;
}

int RoundRobinArbiter::arbitrate(const RequestSet& requests) {
  const int winner = peek(requests);
  if (winner >= 0 && size_ > 0) pointer_ = (static_cast<std::size_t>(winner) + 1) % size_;
  return winner;
}

}  // namespace nbtinoc::noc
