#include "net/latency.h"

#include <algorithm>
#include <cmath>

#include "util/contracts.h"

namespace nylon::net {

fixed_latency::fixed_latency(sim::sim_time delay) : delay_(delay) {
  NYLON_EXPECTS(delay >= 0);
}

sim::sim_time fixed_latency::sample(util::rng& /*rng*/) { return delay_; }

sim::sim_time fixed_latency::min_delay() const noexcept { return delay_; }

uniform_latency::uniform_latency(sim::sim_time lo, sim::sim_time hi)
    : lo_(lo), hi_(hi) {
  NYLON_EXPECTS(lo >= 0 && lo <= hi);
}

sim::sim_time uniform_latency::sample(util::rng& rng) {
  return static_cast<sim::sim_time>(
      rng.uniform(static_cast<std::uint64_t>(lo_),
                  static_cast<std::uint64_t>(hi_)));
}

sim::sim_time uniform_latency::min_delay() const noexcept { return lo_; }

lognormal_latency::lognormal_latency(sim::sim_time median, double sigma)
    : median_ms_(static_cast<double>(median)), sigma_(sigma) {
  NYLON_EXPECTS(median > 0);
  NYLON_EXPECTS(sigma >= 0.0);
}

sim::sim_time lognormal_latency::sample(util::rng& rng) {
  const double delay = median_ms_ * std::exp(sigma_ * rng.normal01());
  // Round to the millisecond grid; a sub-millisecond draw still takes 1 ms
  // (zero-delay packets would race their own send event).
  return std::max<sim::sim_time>(1, std::llround(delay));
}

sim::sim_time lognormal_latency::min_delay() const noexcept {
  return 1;  // sample() clamps to the millisecond grid
}

std::unique_ptr<latency_model> paper_latency() {
  return std::make_unique<fixed_latency>(sim::millis(50));
}

}  // namespace nylon::net
