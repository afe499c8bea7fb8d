// The flow-graph stage engine.  A stage is a named computation with a
// declared 64-bit input hash; run through the engine it either loads its
// artifact from the content-addressed store (input hash unchanged since a
// previous run) or computes, persists and returns it.  The engine records
// per-stage cache outcomes and wall time for the `flow.incremental.*`
// telemetry surface and the --json reports.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/artifact_store.hpp"
#include "obs/json.hpp"

namespace socfmea::core {

struct StageRecord {
  std::string name;
  std::uint64_t inputHash = 0;
  bool cached = false;
  double seconds = 0.0;
};

class FlowGraph {
 public:
  /// `store` null = always compute, never persist.
  explicit FlowGraph(ArtifactStore* store) : store_(store) {}

  /// Runs stage `name` keyed by `key`: returns the stored artifact when the
  /// store holds one under this key and `usable` (when set) accepts it,
  /// otherwise invokes `compute`, persists its result (overwriting a
  /// rejected artifact) and returns it.  `cached`, when non-null, reports
  /// which path was taken; a rejected artifact counts as a miss.
  obs::Json stage(std::string_view name, std::uint64_t key,
                  const std::function<obs::Json()>& compute,
                  bool* cached = nullptr,
                  const std::function<bool(const obs::Json&)>& usable = {});

  /// Per-stage table + hit/miss totals (+ store stats when attached).
  [[nodiscard]] obs::Json report() const;

 private:
  ArtifactStore* store_;
  std::vector<StageRecord> records_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace socfmea::core
