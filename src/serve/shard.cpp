#include "serve/shard.hpp"

#include <algorithm>

#include "faultsim/lanes.hpp"

namespace socfmea::serve {

std::vector<std::size_t> campaignOrder(const fault::FaultList& faults) {
  faultsim::LaneScheduler sched(faults);
  std::vector<std::size_t> order;
  order.reserve(faults.size());
  for (;;) {
    const std::vector<std::size_t> group = sched.takeGroup(faults.size() + 1);
    if (group.empty()) break;
    order.insert(order.end(), group.begin(), group.end());
  }
  return order;
}

ShardPlan planShards(const fault::FaultList& faults, unsigned workers,
                     std::size_t chunkFaults) {
  ShardPlan plan;
  plan.faultCount = faults.size();
  if (faults.empty()) return plan;
  if (workers == 0) workers = 1;
  if (chunkFaults == 0) {
    chunkFaults = std::max<std::size_t>(
        1, (faults.size() + workers * 4 - 1) / (workers * 4));
  }
  const std::vector<std::size_t> order = campaignOrder(faults);
  for (std::size_t at = 0; at < order.size(); at += chunkFaults) {
    const std::size_t end = std::min(order.size(), at + chunkFaults);
    plan.chunks.emplace_back(order.begin() + static_cast<std::ptrdiff_t>(at),
                             order.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return plan;
}

}  // namespace socfmea::serve
