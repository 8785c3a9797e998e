// Measurement primitives shared by every workload: a fixed-memory latency
// histogram, the percentile and goodput derivations, clocks, and the result
// record main.cpp prints.
#pragma once

#include <time.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Log-linear histogram over non-negative integer nanoseconds, HdrHistogram
/// style: values below 2^11 get a bucket each, every octave above is split
/// into 2^10 equal buckets, so a reported value is within 2^-11 (0.05%) of
/// every sample in its bucket. Memory is fixed (128 KiB) whatever the run
/// length, so the recorders never move the process's peak RSS, and two
/// histograms merge by adding counts (per-site recorders, merged after the
/// loop threads stop).
class LogHistogram {
 public:
  static constexpr int kSubBits = 10;
  static constexpr int64_t kLinearLimit = int64_t{2} << kSubBits;  // 2048
  static constexpr int kMaxExp = 40;  // values clamp below 2^41 ns (~36 min)
  static constexpr size_t kBuckets =
      size_t(kLinearLimit) + size_t(kMaxExp - kSubBits) * (size_t{1} << kSubBits);

  void Add(int64_t ns) {
    ++counts_[Index(ns)];
    ++total_;
  }
  void Merge(const LogHistogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }
  uint64_t count() const { return total_; }

  /// Nearest-rank percentile (p in (0, 100]): the smallest recorded bucket
  /// whose cumulative count reaches ceil(p/100 * N), reported at the
  /// bucket's midpoint. 0 when empty.
  double Percentile(double p) const {
    if (total_ == 0) return 0;
    uint64_t rank = RankFor(p, total_);
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) return Midpoint(i);
    }
    return Midpoint(kBuckets - 1);
  }

  /// Mean of the bucket midpoints (exact below 2048 ns).
  double Mean() const {
    if (total_ == 0) return 0;
    double sum = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] != 0) sum += double(counts_[i]) * Midpoint(i);
    }
    return sum / double(total_);
  }

  static uint64_t RankFor(double p, uint64_t n) {
    double r = p / 100.0 * double(n);
    uint64_t rank = static_cast<uint64_t>(r);
    if (double(rank) < r) ++rank;
    return std::clamp<uint64_t>(rank, 1, n);
  }

  static size_t Index(int64_t ns) {
    if (ns < kLinearLimit) return ns < 0 ? 0 : size_t(ns);
    int exp = std::bit_width(uint64_t(ns)) - 1;  // >= kSubBits + 1
    if (exp > kMaxExp) return kBuckets - 1;
    int shift = exp - kSubBits;
    size_t mantissa = size_t(uint64_t(ns) >> shift) - (size_t{1} << kSubBits);
    return size_t(kLinearLimit) +
           size_t(exp - kSubBits - 1) * (size_t{1} << kSubBits) + mantissa;
  }

  static double Midpoint(size_t index) {
    if (index < size_t(kLinearLimit)) return double(index);
    size_t rel = index - size_t(kLinearLimit);
    int exp = kSubBits + 1 + int(rel >> kSubBits);
    int shift = exp - kSubBits;
    uint64_t low = ((uint64_t{1} << kSubBits) + (rel & ((1u << kSubBits) - 1)))
                   << shift;
    return double(low) + double((uint64_t{1} << shift) - 1) / 2.0;
  }

 private:
  std::array<uint32_t, kBuckets> counts_{};
  uint64_t total_ = 0;
};

/// Exact nearest-rank percentile of a sample vector (the reference the
/// histogram is checked against, and the median of per-run repetitions).
inline double ExactPercentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[LogHistogram::RankFor(p, v.size()) - 1];
}

inline double Median(const std::vector<double>& v) {
  if (v.empty()) return 0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  size_t n = s.size();
  return n % 2 ? s[n / 2] : (s[n / 2 - 1] + s[n / 2]) / 2.0;
}

/// Whether a decided transaction counts toward slo_goodput_tps: committed,
/// and no later than the limit. An abort counts as missing any limit.
inline bool WithinSlo(bool committed, int64_t latency, int64_t limit) {
  return committed && latency <= limit;
}

/// Transactions committed within the latency limit, per second of the
/// admission window. Aborted and undecided transactions never count.
inline double SloGoodput(uint64_t committed_within_limit, double window_s) {
  return window_s > 0 ? double(committed_within_limit) / window_s : 0;
}

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

inline int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
inline int64_t MonoNs() { return ClockNs(CLOCK_MONOTONIC); }
inline int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

/// Peak resident set of the process so far, MiB.
double PeakRssMb();

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed correctness gate: the run's operations all count as
  /// failed, and the reason goes to stderr.
  void Fail(const std::string& why);
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Result RunRedistribute(const Args& args);
Result RunWanPartition(const Args& args);

}  // namespace perfbench
