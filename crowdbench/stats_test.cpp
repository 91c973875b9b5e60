// Unit test of the benchmark's quantile and stats helpers. Exits non-zero
// on the first failed check. Build and run:
//   cmake -S crowdbench -B .bench_build/crowdbench
//   cmake --build .bench_build/crowdbench --target crowdbench_stats_test
//   ctest --test-dir .bench_build/crowdbench
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

}  // namespace

int main() {
  using namespace crowdbench;

  // Nearest rank: the ceil(q n)-th smallest.
  const auto v1000 = one_to(1000);
  check(near(quantile_sorted(v1000, 0.5), 500.0), "p50 of 1..1000 is 500");
  check(near(quantile_sorted(v1000, 0.99), 990.0), "p99 of 1..1000 is 990");
  check(near(quantile_sorted(v1000, 0.999), 999.0), "p99.9 of 1..1000 is 999");
  check(near(quantile_sorted(v1000, 1.0), 1000.0), "p100 is the max");
  check(near(quantile_sorted({7.0}, 0.5), 7.0), "single sample");
  check(near(quantile_sorted(one_to(4), 0.5), 2.0), "p50 of 1..4 is 2");

  // Tail support: at least 10 samples strictly beyond the quantile.
  check(samples_beyond(1000, 0.99) == 10, "10 samples beyond p99 of 1000");
  check(samples_beyond(999, 0.99) == 9, "9 samples beyond p99 of 999");
  check(near(highest_supported_quantile(1000), 0.99), "1000 -> p99");
  check(near(highest_supported_quantile(999), 0.9), "999 -> p90");
  check(near(highest_supported_quantile(100000), 0.9999), "1e5 -> p99.99");
  check(near(highest_supported_quantile(15), 0.0), "15 -> none");
  check(near(highest_supported_quantile(20), 0.5), "20 -> p50");

  // Failures are +inf: they count, and they sort above every latency.
  auto with_failures = one_to(1000);
  for (int i = 0; i < 20; ++i) with_failures.push_back(kFailed);
  const Summary s = summarize(with_failures);
  check(s.count == 1020 && s.failed == 20, "summary counts failures");
  check(std::isinf(s.p99), "20 failures in 1020 push p99 to +inf");
  check(near(s.p50, 510.0), "failures shift the median");
  check(s.p99_supported, "p99 supported at 1020 samples");

  const Summary e = summarize({});
  check(e.count == 0 && !e.p99_supported, "empty summary");

  check(near(median({3.0, 1.0, 2.0}), 2.0), "odd median");
  check(near(median({4.0, 1.0, 3.0, 2.0}), 2.5), "even median");
  check(near(mean({1.0, 2.0, 3.0, 6.0}), 3.0), "mean");

  // Windowed figures: one bad window does not move the median.
  Series ser;
  for (int w = 0; w < 5; ++w)
    for (int i = 1; i <= 1000; ++i)
      ser.add(w * 100 + i % 100, (w == 2 && i > 500) ? 1e6 : double(i));
  const auto wq = windowed_quantile(ser, 0, 100, 5, 0.99);
  check(wq && near(*wq, 990.0), "windowed p99 ignores one stalled window");
  check(!windowed_quantile(ser, 0, 100, 5, 0.9999).has_value(),
        "windowed p99.99 unsupported at 1000 samples per window");
  check(near(windowed_rate(ser.at, 0, 100, 5), 1000.0 / 100e-9), "windowed rate");
  check(near(windowed_rate({1, 2, 3, 150, 250}, 0, 100, 3), 1.0 / 100e-9),
        "windowed rate is the median window");

  // Self time: parent minus the union of its (clipped) children.
  check(near(self_time({0, 10}, {}), 10.0), "no children");
  check(near(self_time({0, 10}, {{1, 3}, {5, 6}}), 7.0), "disjoint children");
  check(near(self_time({0, 10}, {{1, 4}, {2, 5}}), 6.0), "overlapping children");
  check(near(self_time({0, 10}, {{-5, 2}, {9, 20}}), 7.0), "clipped children");
  check(near(self_time({0, 10}, {{0, 10}}), 0.0), "fully covered");

  if (failures == 0) std::printf("crowdbench stats: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
