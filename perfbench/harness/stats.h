#ifndef PERFBENCH_HARNESS_STATS_H_
#define PERFBENCH_HARNESS_STATS_H_

// Order statistics the benchmark reports, kept free of any engine type so
// the self-test can pin their exact definitions.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Latency recorded for a statement that failed or was refused: it misses
/// every latency limit, so it sorts above any real sample.
inline constexpr double kFailedLatencyUs = 1e12;

/// Nearest-rank percentile (`q` in [0, 1]) of unsorted samples; 0 when empty.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * samples.size()));
  size_t index = rank == 0 ? 0 : std::min(rank, samples.size()) - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

/// Samples strictly above the `q` nearest-rank percentile's position.
inline size_t SamplesBeyond(size_t n, double q) {
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  return n - std::min(rank, n);
}

/// A percentile is reported only when at least ten samples lie beyond it.
inline bool TailSupported(size_t n, double q) {
  return SamplesBeyond(n, q) >= 10;
}

/// Quartiles exactly as Python's `statistics.quantiles(data, n=4)` (the
/// default "exclusive" method) computes them; needs at least two samples.
inline std::array<double, 3> Quartiles(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const long n = static_cast<long>(samples.size());
  std::array<double, 3> out{};
  if (n < 2) return out;
  const long m = n + 1;
  for (long i = 1; i <= 3; ++i) {
    long j = std::clamp(i * m / 4, 1L, n - 1);
    double delta = static_cast<double>(i * m - j * 4);
    out[i - 1] = samples[j - 1] + (samples[j] - samples[j - 1]) * delta / 4;
  }
  return out;
}

inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

/// Tail latency robust to a short host stall: splits samples (in completion
/// order) into up to `max_windows` consecutive windows, each large enough to
/// keep ten samples beyond the `q` percentile, and returns the median of the
/// windows' percentiles. With too few samples for two windows this is the
/// plain percentile.
inline double WindowedPercentile(const std::vector<double>& samples, double q,
                                 size_t max_windows = 5) {
  size_t min_window = static_cast<size_t>(std::ceil(10 / (1 - q) - 1e-9));
  size_t windows = std::clamp<size_t>(samples.size() / min_window, 1,
                                      max_windows);
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    auto begin = samples.begin() + samples.size() * w / windows;
    auto end = samples.begin() + samples.size() * (w + 1) / windows;
    per_window.push_back(Percentile(std::vector<double>(begin, end), q));
  }
  return Median(per_window);
}

/// Open-loop schedule: request i is due at start + i / rate. A request sent
/// late is still timed from its due time, so a stall is charged to every
/// request queued behind it; `late_us` is how far the generator ran behind.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(Clock::time_point start, double rate_per_s)
      : start_(start), period_us_(1e6 / rate_per_s) {}

  Clock::time_point Due(uint64_t i) const {
    return start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::micro>(
                            period_us_ * static_cast<double>(i)));
  }

  /// Microseconds from request i's due time to `sent` (0 if sent early).
  double LateUs(uint64_t i, Clock::time_point sent) const {
    return std::max(0.0, MicrosBetween(Due(i), sent));
  }

  /// Latency charged to request i completing at `done`.
  double LatencyUs(uint64_t i, Clock::time_point done) const {
    return MicrosBetween(Due(i), done);
  }

 private:
  Clock::time_point start_;
  double period_us_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_STATS_H_
