// Shard planning: slices a campaign fault list into chunks a coordinator
// deals out to worker processes.  The order is the LaneScheduler's campaign
// order — permanents first, then transients by ascending activation cycle —
// so every chunk is cycle-coherent: its faults share a golden-prefix
// horizon, which keeps per-chunk early-abort and checkpoint behaviour close
// to the serial engine's and the per-chunk wall time balanced.  Chunks are
// claimed dynamically (work stealing over the pipe), so the plan itself
// only fixes chunk boundaries, not the chunk→worker mapping.
#pragma once

#include <cstddef>
#include <vector>

#include "fault/fault_list.hpp"

namespace socfmea::serve {

/// The scheduler-order permutation of the fault list (indices into it).
[[nodiscard]] std::vector<std::size_t> campaignOrder(
    const fault::FaultList& faults);

struct ShardPlan {
  /// Chunk c holds fault indices chunks[c] (scheduler order within and
  /// across chunks).  Every input index appears in exactly one chunk.
  std::vector<std::vector<std::size_t>> chunks;
  std::size_t faultCount = 0;
};

/// Plans chunks of `chunkFaults` faults each (0 = auto: about four chunks
/// per worker, so the dynamic dealing can rebalance a slow shard).
[[nodiscard]] ShardPlan planShards(const fault::FaultList& faults,
                                   unsigned workers,
                                   std::size_t chunkFaults = 0);

}  // namespace socfmea::serve
