// Fixed-size latency histogram for serving statistics.
//
// A serving loop records one latency per request for as long as it runs, so
// keeping the samples would grow memory with throughput. LatencyHistogram
// keeps a fixed array of log-linear buckets instead: recording allocates
// nothing and its footprint does not depend on how many samples it saw.
//
// Buckets. A sample in ms is counted in units of 2^-15 ms (~30.5 ns). Units
// [0, 64) get one bucket each; above that every power of two [2^e, 2^(e+1))
// is split into 32 equal buckets, so a bucket's width is at most 1/32 of
// its lower bound: the BUCKET RELATIVE ERROR IS <= 1/32 for every sample
// from 2^-10 ms (~1 µs) up, and under one unit below that. Samples at or
// above 2^21 ms (~35 min) share the last bucket.
//
// Count, sum, min and max are exact. A quantile is the nearest-rank sample
// of latency_stats_from_samples (rank ceil(p*n/100)) read as the midpoint
// of its bucket and clamped to [min, max], so it lies within its bucket's
// width of the exact value (and is exact when every sample is equal).
// Histograms merge by adding buckets, so merging per-worker histograms
// equals one histogram over all their samples.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "ondevice/engine.h"

namespace memcom {

class LatencyHistogram {
 public:
  static constexpr int kSubBits = 5;       // 32 buckets per power of two
  static constexpr int kUnitShift = 15;    // a unit is 2^-15 ms
  static constexpr int kMaxExponent = 35;  // units < 2^36, i.e. < 2^21 ms
  // One bucket per unit below 2^(kSubBits+1) units, then 2^kSubBits per
  // power of two up to kMaxExponent: 64 + 30 * 32 = 1024 buckets, 8 KB.
  static constexpr std::size_t kLinear = std::size_t{2} << kSubBits;
  static constexpr std::size_t kBuckets =
      kLinear +
      (static_cast<std::size_t>(kMaxExponent - kSubBits) << kSubBits);

  // The bucket a sample of `ms` milliseconds is counted in.
  static std::size_t bucket_of(double ms) {
    if (!(ms > 0.0)) {  // zero, negative and NaN samples
      return 0;
    }
    const double units = std::ldexp(ms, kUnitShift);
    if (units >= std::ldexp(1.0, kMaxExponent + 1)) {
      return kBuckets - 1;
    }
    const auto u = static_cast<std::uint64_t>(units);
    if (u < kLinear) {
      return static_cast<std::size_t>(u);
    }
    const int e = 63 - __builtin_clzll(u);  // u in [2^e, 2^(e+1)), e > kSubBits
    const std::uint64_t sub = (u >> (e - kSubBits)) - (1u << kSubBits);
    return kLinear + (static_cast<std::size_t>(e - kSubBits - 1) << kSubBits) +
           static_cast<std::size_t>(sub);
  }
  // Bucket `b` covers [lower_ms(b), lower_ms(b + 1)).
  static double lower_ms(std::size_t b) {
    if (b < kLinear) {
      return std::ldexp(static_cast<double>(b), -kUnitShift);
    }
    const std::size_t rel = b - kLinear;
    const int e = static_cast<int>(rel >> kSubBits) + kSubBits + 1;
    const double sub = static_cast<double>(rel & ((1u << kSubBits) - 1));
    return std::ldexp(1.0 + sub / (1 << kSubBits), e - kUnitShift);
  }

  void record(double ms) {
    ++buckets_[bucket_of(ms)];
    ++count_;
    sum_ += ms;
    min_ = std::min(min_, ms);
    max_ = std::max(max_, ms);
  }

  void merge(const LatencyHistogram& other) {
    for (std::size_t b = 0; b < kBuckets; ++b) {
      buckets_[b] += other.buckets_[b];
    }
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  // Empties the histogram in place.
  void clear() { *this = LatencyHistogram{}; }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

  // The nearest-rank `percent` percentile (0 when empty).
  double percentile(int percent) const {
    if (count_ == 0) {
      return 0.0;
    }
    const std::uint64_t n = count_;
    const std::uint64_t rank = std::max<std::uint64_t>(
        (static_cast<std::uint64_t>(percent) * n + 99) / 100, 1);
    std::uint64_t seen = 0;
    std::size_t b = 0;
    for (; b + 1 < kBuckets; ++b) {
      seen += buckets_[b];
      if (seen >= rank) {
        break;
      }
    }
    const double mid =
        b + 1 < kBuckets ? 0.5 * (lower_ms(b) + lower_ms(b + 1)) : max_;
    return std::clamp(mid, min_, max_);
  }

  // The report form: runs, min/mean/max and p50/p95/p99.
  LatencyStats stats() const {
    LatencyStats s;
    s.runs = static_cast<int>(count_);
    if (count_ == 0) {
      return s;
    }
    s.min_ms = min_;
    s.max_ms = max_;
    s.mean_ms = sum_ / static_cast<double>(count_);
    s.p50_ms = percentile(50);
    s.p95_ms = percentile(95);
    s.p99_ms = percentile(99);
    return s;
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace memcom
