#include "core/flowgraph.hpp"

#include <chrono>

#include "netlist/hash.hpp"

namespace socfmea::core {

obs::Json FlowGraph::stage(
    std::string_view name, std::uint64_t key,
    const std::function<obs::Json()>& compute, bool* cached,
    const std::function<bool(const obs::Json&)>& usable) {
  const auto start = std::chrono::steady_clock::now();
  StageRecord rec;
  rec.name = std::string(name);
  rec.inputHash = key;

  obs::Json artifact;
  if (store_ != nullptr) {
    if (auto stored = store_->load(name, key);
        stored && (!usable || usable(*stored))) {
      rec.cached = true;
      artifact = std::move(*stored);
    }
  }
  if (!rec.cached) {
    artifact = compute();
    if (store_ != nullptr) store_->save(name, key, artifact);
  }

  rec.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  (rec.cached ? hits_ : misses_) += 1;
  records_.push_back(rec);
  if (cached != nullptr) *cached = rec.cached;
  return artifact;
}

obs::Json FlowGraph::report() const {
  obs::Json j = obs::Json::object();
  obs::Json stages = obs::Json::array();
  for (const StageRecord& rec : records_) {
    obs::Json s = obs::Json::object();
    s["name"] = rec.name;
    s["input_hash"] = netlist::hashHex(rec.inputHash);
    s["cached"] = rec.cached;
    s["seconds"] = rec.seconds;
    stages.push_back(std::move(s));
  }
  j["stages"] = std::move(stages);
  j["stage_hits"] = static_cast<long long>(hits_);
  j["stage_misses"] = static_cast<long long>(misses_);
  if (store_ != nullptr) j["store"] = store_->statsJson();
  return j;
}

}  // namespace socfmea::core
