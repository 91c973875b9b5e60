// Exact order statistics over raw per-request samples.
//
// Every latency percentile the benchmark prints comes from here, over
// the full list of samples it recorded — never from obs::Histogram
// bucket edges. A failed request enters its series as +infinity, so it
// misses every latency limit.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

namespace crowdbench {

inline constexpr double kFailed = std::numeric_limits<double>::infinity();

/// Nearest-rank quantile (the ceil(q * n)-th smallest value) of a sorted,
/// non-empty sample list, for q in (0, 1].
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  const double n = static_cast<double>(sorted.size());
  // The epsilon keeps 0.99 * 1000 at rank 990 despite rounding in q.
  const double rank = std::ceil(q * n - 1e-9);
  const auto idx = static_cast<std::size_t>(std::clamp(rank, 1.0, n)) - 1;
  return sorted[idx];
}

/// Samples strictly above the nearest-rank q-quantile.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const double rank =
      std::clamp(std::ceil(q * static_cast<double>(n) - 1e-9), 1.0,
                 static_cast<double>(n));
  return n - static_cast<std::size_t>(rank);
}

/// The highest of p50, p90, p99, p99.9, ... that has at least
/// `min_beyond` samples above it; 0 when not even the median has.
inline double highest_supported_quantile(std::size_t n,
                                         std::size_t min_beyond = 10) {
  double best = 0.0;
  for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999})
    if (n > 0 && samples_beyond(n, q) >= min_beyond) best = q;
  return best;
}

struct Summary {
  std::size_t count = 0;
  std::size_t failed = 0;  ///< +infinity samples
  double p50 = 0.0;
  double p99 = 0.0;
  double top_q = 0.0;  ///< highest supported quantile (see above)
  double top = 0.0;    ///< the value at top_q
  bool p99_supported = false;
};

inline Summary summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.failed = static_cast<std::size_t>(
      samples.end() - std::upper_bound(samples.begin(), samples.end(),
                                       std::numeric_limits<double>::max()));
  s.p50 = quantile_sorted(samples, 0.5);
  s.p99 = quantile_sorted(samples, 0.99);
  s.p99_supported = samples_beyond(s.count, 0.99) >= 10;
  s.top_q = highest_supported_quantile(s.count);
  s.top = s.top_q > 0.0 ? quantile_sorted(samples, s.top_q) : 0.0;
  return s;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Raw samples with the instant (ns) each one completed.
struct Series {
  std::vector<std::int64_t> at;
  std::vector<double> value;

  void add(std::int64_t t, double v) {
    at.push_back(t);
    value.push_back(v);
  }
  void append(const Series& o) {
    at.insert(at.end(), o.at.begin(), o.at.end());
    value.insert(value.end(), o.value.begin(), o.value.end());
  }
};

/// Splits [start, start + nwin * win) into `nwin` windows and takes the
/// exact q-quantile of the samples completing in each. Returns the median
/// of those per-window quantiles over the windows with at least
/// `min_beyond` samples beyond q, or nullopt when fewer than half of the
/// windows have that many. One stall then moves one window, not the
/// figure.
inline std::optional<double> windowed_quantile(const Series& s,
                                               std::int64_t start,
                                               std::int64_t win,
                                               std::size_t nwin, double q,
                                               std::size_t min_beyond = 10) {
  if (nwin == 0 || win <= 0) return std::nullopt;
  std::vector<std::vector<double>> buckets(nwin);
  for (std::size_t i = 0; i < s.at.size(); ++i) {
    if (s.at[i] < start) continue;
    const auto k = static_cast<std::size_t>((s.at[i] - start) / win);
    if (k < nwin) buckets[k].push_back(s.value[i]);
  }
  std::vector<double> per_window;
  for (auto& b : buckets) {
    if (b.empty() || samples_beyond(b.size(), q) < min_beyond) continue;
    std::sort(b.begin(), b.end());
    per_window.push_back(quantile_sorted(b, q));
  }
  if (per_window.size() * 2 < nwin) return std::nullopt;
  return median(per_window);
}

/// Median over the same windows of the number of instants in each, per
/// second of window.
inline double windowed_rate(const std::vector<std::int64_t>& at,
                            std::int64_t start, std::int64_t win,
                            std::size_t nwin) {
  if (nwin == 0 || win <= 0) return 0.0;
  std::vector<double> counts(nwin, 0.0);
  for (const std::int64_t t : at) {
    if (t < start) continue;
    const auto k = static_cast<std::size_t>((t - start) / win);
    if (k < nwin) counts[k] += 1.0;
  }
  return median(counts) / (static_cast<double>(win) / 1e9);
}

/// An interval [start, end) on one clock.
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Self time of a span: its duration minus the part of it covered by the
/// union of its children (children may overlap each other or spill past
/// the parent; only the covered part of the parent counts).
inline double self_time(Interval parent, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double covered = 0.0;
  double cur_s = 0.0, cur_e = 0.0;
  bool open = false;
  for (const Interval& c : children) {
    const double s = std::max(c.start, parent.start);
    const double e = std::min(c.end, parent.end);
    if (e <= s) continue;
    if (open && s <= cur_e) {
      cur_e = std::max(cur_e, e);
    } else {
      if (open) covered += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
      open = true;
    }
  }
  if (open) covered += cur_e - cur_s;
  return (parent.end - parent.start) - covered;
}

}  // namespace crowdbench
