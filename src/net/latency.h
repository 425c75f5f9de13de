// Message latency models. The paper fixes latency at 50 ms; the uniform
// model exists for sensitivity experiments (hole TTLs assume a latency
// upper bound, §4 footnote 3).
#pragma once

#include <memory>

#include "sim/time.h"
#include "util/rng.h"

namespace nylon::net {

/// Strategy for per-message one-way delay.
class latency_model {
 public:
  virtual ~latency_model() = default;

  /// One-way delay for the next message; must be >= 0.
  [[nodiscard]] virtual sim::sim_time sample(util::rng& rng) = 0;

  /// Guaranteed lower bound of `sample` (the model's lookahead). The
  /// sharded engine sizes its conservative synchronization window from
  /// this, so it must be exact, not optimistic: sample() >= min_delay()
  /// always.
  [[nodiscard]] virtual sim::sim_time min_delay() const noexcept = 0;
};

/// Constant delay (the paper's 50 ms).
class fixed_latency final : public latency_model {
 public:
  explicit fixed_latency(sim::sim_time delay);
  [[nodiscard]] sim::sim_time sample(util::rng& rng) override;
  [[nodiscard]] sim::sim_time min_delay() const noexcept override;

 private:
  sim::sim_time delay_;
};

/// Uniform delay in [lo, hi].
class uniform_latency final : public latency_model {
 public:
  uniform_latency(sim::sim_time lo, sim::sim_time hi);
  [[nodiscard]] sim::sim_time sample(util::rng& rng) override;
  [[nodiscard]] sim::sim_time min_delay() const noexcept override;

 private:
  sim::sim_time lo_;
  sim::sim_time hi_;
};

/// Log-normal delay, parameterized by its median and the log-space shape
/// `sigma` — the empirically observed shape of internet RTTs (a bulk of
/// short paths with a heavy slow tail). delay = median * exp(sigma * Z),
/// Z ~ N(0,1), rounded to whole milliseconds; `sigma` = 0 degrades to a
/// fixed delay at the median.
class lognormal_latency final : public latency_model {
 public:
  /// `median` > 0; `sigma` >= 0.
  lognormal_latency(sim::sim_time median, double sigma);
  [[nodiscard]] sim::sim_time sample(util::rng& rng) override;
  /// Samples are clamped to the 1 ms grid, so 1 ms is a hard floor.
  [[nodiscard]] sim::sim_time min_delay() const noexcept override;

 private:
  double median_ms_;
  double sigma_;
};

/// Convenience factory for the paper's default.
[[nodiscard]] std::unique_ptr<latency_model> paper_latency();

}  // namespace nylon::net
