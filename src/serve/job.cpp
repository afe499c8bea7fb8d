#include "serve/job.hpp"

#include "fault/serialize.hpp"
#include "netlist/hash.hpp"
#include "netlist/text_format.hpp"
#include "zones/serialize.hpp"

namespace socfmea::serve {

bool applyProtectionEdit(std::string_view edit, memsys::GateLevelOptions& o) {
  if (edit == "none") return true;
  if (edit == "wbuf-parity") {
    o.wbufParity = true;
  } else if (edit == "post-coder") {
    o.postCoderChecker = true;
  } else if (edit == "redundant-checker") {
    o.redundantChecker = true;
  } else if (edit == "addr-in-code") {
    o.addressInCode = true;
  } else if (edit == "v2") {
    o = memsys::GateLevelOptions::v2();
  } else {
    return false;
  }
  return true;
}

obs::Json protectionIpDesignSpec(
    std::string_view edit,
    const std::vector<search::TransformSpec>& transforms) {
  obs::Json j = obs::Json::object();
  j["builder"] = "protection-ip";
  j["edit"] = std::string(edit);
  if (!transforms.empty()) {
    obs::Json arr = obs::Json::array();
    for (const search::TransformSpec& t : transforms) {
      arr.push_back(t.toJson());
    }
    j["transforms"] = std::move(arr);
  }
  return j;
}

obs::Json textDesignSpec(const netlist::Netlist& nl) {
  obs::Json j = obs::Json::object();
  j["text"] = netlist::writeNetlistString(nl);
  return j;
}

obs::Json protectionIpWorkloadSpec(std::uint64_t cycles, std::uint64_t seed,
                                   std::uint64_t resetCycles,
                                   bool exerciseBist, bool exerciseMpu,
                                   bool plantEccErrors, std::uint64_t pacing) {
  obs::Json j = obs::Json::object();
  j["kind"] = "protection-ip";
  j["cycles"] = static_cast<long long>(cycles);
  j["seed"] = static_cast<long long>(seed);
  j["reset_cycles"] = static_cast<long long>(resetCycles);
  j["bist"] = exerciseBist;
  j["mpu"] = exerciseMpu;
  j["ecc"] = plantEccErrors;
  j["pacing"] = static_cast<long long>(pacing);
  return j;
}

obs::Json vectorWorkloadSpec(const netlist::Netlist& nl, std::string_view name,
                             const std::vector<netlist::NetId>& inputs,
                             const std::vector<std::vector<bool>>& stimulus) {
  obs::Json j = obs::Json::object();
  j["kind"] = "vector";
  j["name"] = std::string(name);
  obs::Json in = obs::Json::array();
  for (const netlist::NetId id : inputs) in.push_back(nl.net(id).name);
  j["inputs"] = std::move(in);
  obs::Json rows = obs::Json::array();
  for (const std::vector<bool>& cycle : stimulus) {
    std::string row;
    row.reserve(cycle.size());
    for (const bool b : cycle) row.push_back(b ? '1' : '0');
    rows.push_back(std::move(row));
  }
  j["stim"] = std::move(rows);
  return j;
}

namespace {

/// The structural hash the worker will compute after rebuilding the design
/// from `designSpec`.  For a text spec that is the hash of the *reparsed*
/// netlist.  The writer is id-preserving (net preamble + cells in id
/// order), so this normally equals the original's hash — but hashing the
/// reparse stays the rule: it is what the worker can actually compute, and
/// it keeps hand-written or legacy `.snl` (no preamble, ids renumber on
/// first parse) verifiable too.
std::string specDesignHash(const netlist::Netlist& nl,
                           const obs::Json& designSpec) {
  if (const obs::Json* text = designSpec.find("text");
      text != nullptr && text->isString()) {
    return netlist::hashHex(
        netlist::hashNetlist(netlist::readNetlistString(text->asString())));
  }
  return netlist::hashHex(netlist::hashNetlist(nl));
}

obs::Json campaignOptionsToJson(const netlist::Netlist& nl,
                                const inject::CampaignOptions& copt) {
  obs::Json j = obs::Json::object();
  j["early_abort"] = copt.earlyAbort;
  j["drain"] = static_cast<long long>(copt.drainCycles);
  j["engine"] = std::string(faultsim::engineKindName(copt.engine));
  j["lane_words"] = static_cast<long long>(copt.laneWords);
  j["threads"] = static_cast<long long>(copt.threads);
  j["checkpoint_interval"] = static_cast<long long>(copt.checkpointInterval);
  j["eval_mode"] = std::string(evalModeName(copt.evalMode));
  if (copt.preexisting) {
    j["preexisting"] = fault::faultToJson(nl, *copt.preexisting);
  }
  return j;
}

}  // namespace

obs::Json makeCampaignJob(const netlist::Netlist& nl,
                          const zones::ZoneDatabase& db,
                          const std::vector<std::string>& alarmNames,
                          std::uint64_t envSeed,
                          std::uint64_t detectionWindow,
                          const inject::CampaignOptions& copt,
                          const obs::Json& designSpec,
                          const obs::Json& workloadSpec) {
  obs::Json j = obs::Json::object();
  j["type"] = "job";
  j["kind"] = "campaign";
  j["design"] = designSpec;
  j["design_hash"] = specDesignHash(nl, designSpec);
  j["zones"] = zones::zonesToJson(db);
  obs::Json alarms = obs::Json::array();
  for (const std::string& a : alarmNames) alarms.push_back(a);
  j["alarm_names"] = std::move(alarms);
  obs::Json env = obs::Json::object();
  env["seed"] = static_cast<long long>(envSeed);
  env["window"] = static_cast<long long>(detectionWindow);
  j["env"] = std::move(env);
  j["campaign"] = campaignOptionsToJson(nl, copt);
  j["workload"] = workloadSpec;
  return j;
}

obs::Json makeFaultSimJob(const netlist::Netlist& nl,
                          const obs::Json& workloadSpec, sim::EvalMode evalMode,
                          bool earlyAbort) {
  obs::Json j = obs::Json::object();
  j["type"] = "job";
  j["kind"] = "faultsim";
  j["design"] = textDesignSpec(nl);
  j["design_hash"] = specDesignHash(nl, j["design"]);
  obs::Json fs = obs::Json::object();
  fs["early_abort"] = earlyAbort;
  fs["eval_mode"] = std::string(evalModeName(evalMode));
  j["faultsim"] = std::move(fs);
  j["workload"] = workloadSpec;
  return j;
}

std::string_view evalModeName(sim::EvalMode m) noexcept {
  return m == sim::EvalMode::EventDriven ? "event-driven" : "full-settle";
}

std::optional<sim::EvalMode> evalModeFromName(std::string_view n) noexcept {
  if (n == "event-driven") return sim::EvalMode::EventDriven;
  if (n == "full-settle") return sim::EvalMode::FullSettle;
  return std::nullopt;
}

std::optional<faultsim::EngineKind> engineKindFromName(
    std::string_view n) noexcept {
  for (const faultsim::EngineKind k :
       {faultsim::EngineKind::Serial, faultsim::EngineKind::Bitsliced}) {
    if (faultsim::engineKindName(k) == n) return k;
  }
  return std::nullopt;
}

}  // namespace socfmea::serve
