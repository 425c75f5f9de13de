#include "sim/scheduler.h"

#include "util/contracts.h"

namespace nylon::sim {

void scheduler::run_until(sim_time deadline) {
  NYLON_EXPECTS(deadline >= now_);
  for (;;) {
    const sim_time next = queue_.next_time();
    if (next > deadline) break;  // time_never compares past any deadline
    now_ = next;
    queue_.pop_and_run();
  }
  now_ = deadline;
}

}  // namespace nylon::sim
