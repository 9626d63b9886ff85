#pragma once
// Streaming summary statistics and small histogram helpers used by the
// simulator's stat registry and by the experiment benches (Table IV reports
// avg/std over 10 iterations per VC).

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace nbtinoc::util {

/// Welford-style running mean/variance with min/max tracking.
/// Numerically stable for long accumulations (30e6-cycle simulations).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void reset();

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Population variance (divide by n). Returns 0 for n < 1.
  double variance_population() const;
  /// Sample variance (divide by n-1). Returns 0 for n < 2.
  double variance_sample() const;
  double stddev_population() const;
  double stddev_sample() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// Raw accumulator state for checkpoint/restore. min/max carry their
  /// sentinel infinities while empty, so the round-trip must go through the
  /// raw fields, not the public (sanitised) accessors.
  struct State {
    std::size_t count = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };
  State state() const { return {count_, mean_, m2_, sum_, min_, max_}; }
  void set_state(const State& st) {
    count_ = st.count;
    mean_ = st.mean;
    m2_ = st.m2;
    sum_ = st.sum;
    min_ = st.min;
    max_ = st.max;
  }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-width histogram over [lo, hi); out-of-range samples clamp to the
/// edge bins.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  std::size_t bins() const { return counts_.size(); }
  std::size_t total() const { return total_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }

  /// Value below which the given fraction (0..1) of samples fall, linearly
  /// interpolated within the containing bin.
  double percentile(double fraction) const;

 private:
  double lo_;
  double hi_;
  double bin_width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Mean of a vector; 0 for empty input.
double mean_of(const std::vector<double>& xs);
/// Sample standard deviation of a vector; 0 for fewer than two samples.
double sample_stddev_of(const std::vector<double>& xs);

}  // namespace nbtinoc::util
