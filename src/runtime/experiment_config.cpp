#include "runtime/experiment_config.h"

#include "util/contracts.h"

namespace nylon::runtime {

std::string_view to_string(transport_kind k) noexcept {
  switch (k) {
    case transport_kind::sim: return "sim";
    case transport_kind::sim_frames: return "sim-frames";
    case transport_kind::udp: return "udp";
  }
  return "?";
}

void experiment_config::validate() const {
  NYLON_EXPECTS(peer_count >= 2);
  NYLON_EXPECTS(natted_fraction >= 0.0 && natted_fraction <= 1.0);
  NYLON_EXPECTS(gossip.view_size > 0);
  NYLON_EXPECTS(gossip.view_size < peer_count);
  NYLON_EXPECTS(gossip.shuffle_period > 0);
  NYLON_EXPECTS(latency >= 0);
  NYLON_EXPECTS(latency < gossip.shuffle_period);
  if (latency_model == latency_kind::uniform) {
    NYLON_EXPECTS(latency_max >= latency);
    NYLON_EXPECTS(latency_max < gossip.shuffle_period);
  }
  if (latency_model == latency_kind::lognormal) {
    NYLON_EXPECTS(latency > 0);
    NYLON_EXPECTS(latency_sigma >= 0.0);
  }
  NYLON_EXPECTS(hole_timeout > 0);
  NYLON_EXPECTS(loss_rate >= 0.0 && loss_rate <= 1.0);
  if (shards > 0) {
    // The conservative window is the latency floor; a zero floor would
    // allow same-epoch cross-shard causality. (lognormal clamps to 1 ms.)
    NYLON_EXPECTS(latency >= 1);
    NYLON_EXPECTS(shards <= max_shards);
  }
  NYLON_EXPECTS(udp_time_scale > 0.0);
  if (transport == transport_kind::udp) {
    // Real sockets drive the serial engine's scheduler directly; the
    // sharded epoch barriers cannot pace a kernel.
    NYLON_EXPECTS(shards == 0);
  }
}

}  // namespace nylon::runtime
