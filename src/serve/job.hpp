// Job descriptions for the distributed campaign layer.  A job message
// carries everything a worker process needs to rebuild the coordinator's
// simulation context from scratch — by *specification*, not by state
// transfer: the design is either a named builder (the memsys protection IP
// plus one Section-6 edit) or netlist text, the zone database travels as its
// full-fidelity artifact, and the workload is a named deterministic spec
// (workloads may act through backdoor(), which a recorded stimulus trace
// cannot replay).  The worker verifies the rebuilt design's structural hash
// against the coordinator's before simulating a single fault, so a version
// or builder mismatch fails loudly instead of corrupting verdicts.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "inject/manager.hpp"
#include "memsys/gatelevel.hpp"
#include "obs/json.hpp"
#include "search/transforms.hpp"

namespace socfmea::serve {

/// Applies one Section-6 architectural measure name to the v1 baseline
/// options ("none", "wbuf-parity", "post-coder", "redundant-checker",
/// "addr-in-code", "v2"); false on an unknown name.  Shared by the flow
/// CLIs and the worker-side design builder.
[[nodiscard]] bool applyProtectionEdit(std::string_view edit,
                                       memsys::GateLevelOptions& o);

/// Design spec for a builder the worker can run itself.  A non-empty
/// `transforms` list (search/transforms.hpp wire form) is re-applied on top
/// of the built base design under the canonical scopes, so architecture-
/// search candidates distribute exactly like the named Section-6 edits.
[[nodiscard]] obs::Json protectionIpDesignSpec(
    std::string_view edit,
    const std::vector<search::TransformSpec>& transforms = {});
/// Design spec carrying the netlist as .snl text (any design).
[[nodiscard]] obs::Json textDesignSpec(const netlist::Netlist& nl);

/// Workload spec for memsys::ProtectionIpWorkload (requires a builder
/// design spec — the workload needs the generated port handles).
[[nodiscard]] obs::Json protectionIpWorkloadSpec(
    std::uint64_t cycles, std::uint64_t seed = 42,
    std::uint64_t resetCycles = 4, bool exerciseBist = true,
    bool exerciseMpu = true, bool plantEccErrors = true,
    std::uint64_t pacing = 4);
/// Workload spec replaying explicit vectors (inputs by name, one "01..."
/// string per cycle) — the faultsim-job stimulus carrier.
[[nodiscard]] obs::Json vectorWorkloadSpec(
    const netlist::Netlist& nl, std::string_view name,
    const std::vector<netlist::NetId>& inputs,
    const std::vector<std::vector<bool>>& stimulus);

/// Builds a "campaign" job: the worker reconstructs design + zones +
/// effects + environment + workload and answers each work chunk with
/// campaign_artifact records (inject::campaignRecordsToJson entries).
[[nodiscard]] obs::Json makeCampaignJob(
    const netlist::Netlist& nl, const zones::ZoneDatabase& db,
    const std::vector<std::string>& alarmNames, std::uint64_t envSeed,
    std::uint64_t detectionWindow, const inject::CampaignOptions& copt,
    const obs::Json& designSpec, const obs::Json& workloadSpec);

/// Builds a "faultsim" job: the worker replays the vector workload through
/// the serial fault-sim oracle and answers each chunk with
/// {"key", "detected"} records.
[[nodiscard]] obs::Json makeFaultSimJob(const netlist::Netlist& nl,
                                        const obs::Json& workloadSpec,
                                        sim::EvalMode evalMode,
                                        bool earlyAbort);

// Name maps shared by the job serializer and the worker-side parser.
[[nodiscard]] std::string_view evalModeName(sim::EvalMode m) noexcept;
[[nodiscard]] std::optional<sim::EvalMode> evalModeFromName(
    std::string_view n) noexcept;
[[nodiscard]] std::optional<faultsim::EngineKind> engineKindFromName(
    std::string_view n) noexcept;

}  // namespace socfmea::serve
