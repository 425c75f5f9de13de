#include "metrics/randomness.h"

#include <algorithm>
#include <cmath>
#include <math.h>

#include "util/contracts.h"

namespace nylon::metrics {

namespace {

/// ln Γ(a). std::lgamma stores the sign of Γ in the process-wide
/// `signgam`, a data race once universes run probes on several threads;
/// lgamma_r returns the same value and keeps the sign local.
double log_gamma(double a) {
  int sign = 0;
  return ::lgamma_r(a, &sign);
}

/// Lower-regularized gamma P(a, x) via its power series (x < a + 1).
double gamma_p_series(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int i = 0; i < 500; ++i) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::abs(del) < std::abs(sum) * 1e-14) break;
  }
  return sum * std::exp(-x + a * std::log(x) - log_gamma(a));
}

/// Upper-regularized gamma Q(a, x) via continued fraction (x >= a + 1).
double gamma_q_cf(double a, double x) {
  const double tiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / tiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < tiny) d = tiny;
    c = b + an / c;
    if (std::abs(c) < tiny) c = tiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::abs(del - 1.0) < 1e-14) break;
  }
  return std::exp(-x + a * std::log(x) - log_gamma(a)) * h;
}

}  // namespace

double gamma_q(double a, double x) {
  NYLON_EXPECTS(a > 0.0 && x >= 0.0);
  if (x == 0.0) return 1.0;
  if (x < a + 1.0) return 1.0 - gamma_p_series(a, x);
  return gamma_q_cf(a, x);
}

double normal_sf(double z) { return 0.5 * std::erfc(z / std::sqrt(2.0)); }

chi_square_result chi_square_uniform(
    std::span<const std::uint64_t> counts) {
  NYLON_EXPECTS(counts.size() >= 2);
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  NYLON_EXPECTS(total > 0);

  chi_square_result out;
  const double expected =
      static_cast<double>(total) / static_cast<double>(counts.size());
  for (const std::uint64_t c : counts) {
    const double diff = static_cast<double>(c) - expected;
    out.statistic += diff * diff / expected;
  }
  out.dof = counts.size() - 1;
  out.p_value =
      gamma_q(static_cast<double>(out.dof) / 2.0, out.statistic / 2.0);
  return out;
}

runs_test_result runs_test(std::span<const double> values) {
  runs_test_result out;
  if (values.size() < 2) return out;

  std::vector<double> sorted(values.begin(), values.end());
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  const double median = sorted[sorted.size() / 2];

  std::uint64_t n_above = 0;
  std::uint64_t n_below = 0;
  bool prev = false;
  bool first = true;
  for (const double v : values) {
    const bool above = v >= median;
    if (above) {
      ++n_above;
    } else {
      ++n_below;
    }
    if (first || above != prev) ++out.runs;
    prev = above;
    first = false;
  }
  if (n_above == 0 || n_below == 0) return out;

  const double na = static_cast<double>(n_above);
  const double nb = static_cast<double>(n_below);
  const double n = na + nb;
  out.expected_runs = 2.0 * na * nb / n + 1.0;
  const double variance =
      2.0 * na * nb * (2.0 * na * nb - n) / (n * n * (n - 1.0));
  if (variance <= 0.0) return out;
  out.z = (static_cast<double>(out.runs) - out.expected_runs) /
          std::sqrt(variance);
  out.p_value = 2.0 * normal_sf(std::abs(out.z));
  return out;
}

double serial_correlation(std::span<const double> values) {
  if (values.size() < 3) return 0.0;
  const std::size_t n = values.size();
  double mean = 0.0;
  for (const double v : values) mean += v;
  mean /= static_cast<double>(n);

  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = values[i] - mean;
    den += d * d;
    if (i + 1 < n) num += d * (values[i + 1] - mean);
  }
  if (den == 0.0) return 0.0;
  return num / den;
}

birthday_spacings_result birthday_spacings(
    std::span<const std::uint32_t> sampled_ids, std::size_t population) {
  NYLON_EXPECTS(population >= 2);
  birthday_spacings_result out;
  const std::size_t m = sampled_ids.size();
  if (m < 3) return out;

  std::vector<std::uint32_t> sorted(sampled_ids.begin(), sampled_ids.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::uint32_t> spacings;
  spacings.reserve(m - 1);
  for (std::size_t i = 1; i < m; ++i) {
    NYLON_EXPECTS(sorted[i] < population);
    spacings.push_back(sorted[i] - sorted[i - 1]);
  }
  std::sort(spacings.begin(), spacings.end());
  for (std::size_t i = 1; i < spacings.size(); ++i) {
    if (spacings[i] == spacings[i - 1]) ++out.repeats;
  }

  const double md = static_cast<double>(m);
  out.lambda = md * md * md / (4.0 * static_cast<double>(population));
  // Poisson upper tail: P(X >= k) = 1 - CDF(k - 1) = 1 - Q(k, lambda).
  out.p_value = out.repeats == 0
                    ? 1.0
                    : 1.0 - gamma_q(static_cast<double>(out.repeats),
                                    out.lambda);
  return out;
}

bool battery_result::passed(double alpha) const {
  if (samples == 0) return false;
  if (frequency.p_value < alpha) return false;
  if (runs.p_value < alpha) return false;
  if (birthday.p_value < alpha) return false;
  // Serial correlation of iid data has stddev ~ 1/sqrt(n); accept within
  // ~3 sigma (alpha-level agnostic but adequate as a smoke test).
  const double limit = 3.0 / std::sqrt(static_cast<double>(samples));
  return std::abs(serial) <= limit;
}

battery_result run_battery(std::span<const std::uint32_t> sampled_ids,
                           std::size_t population) {
  NYLON_EXPECTS(population >= 2);
  battery_result out;
  out.samples = sampled_ids.size();
  if (sampled_ids.empty()) return out;

  // Bucket counts: keep expected count per bucket >= ~10 by merging ids
  // into at most n_samples/10 buckets.
  const std::size_t max_buckets =
      std::max<std::size_t>(2, sampled_ids.size() / 10);
  const std::size_t buckets = std::min(population, max_buckets);
  std::vector<std::uint64_t> counts(buckets, 0);
  std::vector<double> as_doubles;
  as_doubles.reserve(sampled_ids.size());
  for (const std::uint32_t id : sampled_ids) {
    NYLON_EXPECTS(id < population);
    const std::size_t bucket =
        static_cast<std::size_t>(static_cast<std::uint64_t>(id) * buckets /
                                 population);
    ++counts[bucket];
    as_doubles.push_back(static_cast<double>(id));
  }
  out.frequency = chi_square_uniform(counts);
  out.runs = runs_test(as_doubles);
  out.serial = serial_correlation(as_doubles);
  // Birthday spacings is only asymptotically Poisson while the sample is
  // sparse in the id space (m^3 ~ population); the full stream usually is
  // not, so test a prefix sized for lambda ~ 8. The prefix comes from
  // independent early samples, so it is a fair subsample.
  const auto target = static_cast<std::size_t>(std::cbrt(
      4.0 * 8.0 * static_cast<double>(population)));
  const std::size_t bd_m =
      std::min(sampled_ids.size(), std::max<std::size_t>(8, target));
  out.birthday = birthday_spacings(sampled_ids.first(bd_m), population);
  return out;
}

}  // namespace nylon::metrics
