// Pure arithmetic behind the benchmark's reported numbers: the percentile
// rule, medians, span self time, max_rate_ok rung selection and
// error_rate counting. Header-only so the unit tests exercise exactly the
// code the benchmark runs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

/// A quantile in units of 1/10000 (5000 = p50, 9900 = p99, 9990 = p999):
/// integer ranks, so p99 of 1000 samples is exactly rank 990.
using Quantile = std::uint32_t;
inline constexpr Quantile kP50 = 5000;
inline constexpr Quantile kP90 = 9000;
inline constexpr Quantile kP99 = 9900;
inline constexpr Quantile kP999 = 9990;

/// Nearest-rank position (1-based) of quantile `q` among `n` samples:
/// ceil(q * n / 10000), at least 1.
inline std::size_t quantile_rank(std::size_t n, Quantile q) {
  const std::uint64_t rank =
      (static_cast<std::uint64_t>(q) * n + 9999) / 10000;
  return rank == 0 ? 1 : static_cast<std::size_t>(rank);
}

/// Samples strictly beyond the nearest-rank position of `q`.
inline std::size_t samples_beyond(std::size_t n, Quantile q) {
  return n == 0 ? 0 : n - quantile_rank(n, q);
}

/// The percentile rule: the highest of p50/p90/p99/p999 that has at least
/// ten samples beyond it. 0 when even p50 has fewer (n < 20).
inline Quantile tail_quantile(std::size_t n) {
  for (Quantile q : {kP999, kP99, kP90, kP50})
    if (samples_beyond(n, q) >= 10) return q;
  return 0;
}

/// "p99", "p999", ... for table labels.
inline std::string quantile_label(Quantile q) {
  switch (q) {
    case kP50: return "p50";
    case kP90: return "p90";
    case kP99: return "p99";
    case kP999: return "p999";
  }
  return "p?";
}

/// Nearest-rank quantile of `values` (copied and sorted). 0 when empty.
inline double percentile(std::vector<double> values, Quantile q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[quantile_rank(values.size(), q) - 1];
}

/// Median of repeated wall-clock measurements: the middle value, or the
/// mean of the two middle values. 0 when empty.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

/// One recorded wall-clock span. `parent` is the index of the enclosing
/// span in the same vector, or kNoParent for a root.
struct SpanRecord {
  static constexpr std::uint32_t kNoParent =
      std::numeric_limits<std::uint32_t>::max();
  std::string name;  // "<layer>.<call>"
  std::uint32_t parent = kNoParent;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Layer of a span: its name up to the first '.'.
inline std::string span_layer(const std::string& name) {
  return name.substr(0, name.find('.'));
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once, and a
/// child sticking out of its parent counts only inside it).
inline std::vector<std::int64_t> self_times(
    const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::uint32_t>> children(spans.size());
  for (std::uint32_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent != SpanRecord::kNoParent)
      children[spans[i].parent].push_back(i);
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    for (std::uint32_t c : children[i]) {
      const std::int64_t a = std::max(lo, spans[c].start_ns);
      const std::int64_t b = std::min(hi, spans[c].end_ns);
      if (a < b) covered.emplace_back(a, b);
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t union_ns = 0;
    std::int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [a, b] : covered) {
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
        continue;
      }
      if (open) union_ns += run_hi - run_lo;
      run_lo = a;
      run_hi = b;
      open = true;
    }
    if (open) union_ns += run_hi - run_lo;
    self[i] = std::max<std::int64_t>(0, hi - lo - union_ns);
  }
  return self;
}

/// One offered-rate rung of an open-loop run.
struct Rung {
  double rate = 0.0;          // offered arrivals per virtual second
  double close_p99_us = 0.0;  // refused or failed closes count as +inf
  bool backlog_growing = false;
};

/// The highest rung rate whose close p99 meets `limit_us` without a
/// growing backlog; 0 when no rung qualifies.
inline double max_rate_ok(const std::vector<Rung>& rungs, double limit_us) {
  double best = 0.0;
  for (const Rung& r : rungs)
    if (r.close_p99_us <= limit_us && !r.backlog_growing)
      best = std::max(best, r.rate);
  return best;
}

/// Least-squares slope of evenly spaced samples, per step. 0 for fewer than
/// two samples.
inline double trend(const std::vector<double>& ys) {
  const std::size_t n = ys.size();
  if (n < 2) return 0.0;
  const double mean_x = static_cast<double>(n - 1) / 2.0;
  double mean_y = 0.0;
  for (const double y : ys) mean_y += y;
  mean_y /= static_cast<double>(n);
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = static_cast<double>(i) - mean_x;
    num += dx * (ys[i] - mean_y);
    den += dx * dx;
  }
  return num / den;
}

/// A backlog sampled once per virtual second is growing when its trend
/// over a rung exceeds 5% of the rung's offered rate: the system falls
/// behind by more than one request in twenty.
inline bool backlog_growing(const std::vector<double>& per_second,
                            double rate) {
  return trend(per_second) > 0.05 * rate;
}

/// Outcome counts of every operation a run attempted.
struct OpCounts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;   // a backend or service error
  std::uint64_t refused = 0;  // admission control said no at offer
  std::uint64_t shed = 0;     // admitted, then shed from a full queue
};

/// Failed, refused or shed operations over operations attempted.
inline double error_rate(const OpCounts& c) {
  if (c.attempted == 0) return 0.0;
  return static_cast<double>(c.failed + c.refused + c.shed) /
         static_cast<double>(c.attempted);
}

}  // namespace perfbench
