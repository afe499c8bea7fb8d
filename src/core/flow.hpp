// FmeaFlow: the methodology of the paper end-to-end for one design —
// extract sensible zones from the synthesized netlist, build the FMEA
// spreadsheet (failure modes, FIT-derived λ, S/D/F factors, DDF claims),
// compute the IEC 61508 metrics (DC, SFF, SIL grant, criticality ranking),
// and span the assumptions (sensitivity).  The validation flow
// (core/validation.hpp) then cross-checks the sheet by fault injection.
//
// Internally the flow is an explicit graph of stages
// (compile → zones → fit → sheet → verdict), each keyed by the structural
// hash of its inputs and producing a content-addressed artifact through a
// FlowGraph.  With an ArtifactStore attached, unchanged-hash stages load
// from the store instead of recomputing (the zone stage rebuilds its
// database from the artifact); core/incremental.hpp extends the same graph
// with the fault-enumeration and injection-campaign stages.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/flowgraph.hpp"
#include "fmea/report.hpp"
#include "fmea/sensitivity.hpp"
#include "fmea/sheet.hpp"
#include "zones/correlation.hpp"
#include "zones/effects.hpp"
#include "zones/extract.hpp"

namespace socfmea::core {

struct FlowConfig {
  zones::ExtractOptions extract;
  /// Substrings naming the diagnostic alarm outputs.
  std::vector<std::string> alarmNames;
  fmea::FitModel fit;
  fmea::SheetConfig sheet;
  /// Hook that enters the architecture knowledge into the sheet: component
  /// reclassifications, S/D factors, frequency classes, DDF claims.  Runs
  /// after populateFromZones(); re-run for every sensitivity scenario.
  std::function<void(fmea::FmeaSheet&, const zones::ZoneDatabase&)>
      configureSheet;
  /// Content fingerprint of `configureSheet` (a std::function cannot be
  /// hashed): callers deriving the hook from options must fold those
  /// options in here, or sheet artifacts from different hooks would alias.
  std::uint64_t configTag = 0;
};

/// Stable hashes of the stage input options (for artifact keys).
[[nodiscard]] std::uint64_t extractOptionsHash(const zones::ExtractOptions& o);
[[nodiscard]] std::uint64_t fitModelHash(const fmea::FitModel& m);
[[nodiscard]] std::uint64_t sheetConfigHash(const fmea::SheetConfig& c);

class FmeaFlow {
 public:
  /// Runs extraction and the nominal analysis.  `nl` must outlive the flow.
  FmeaFlow(const netlist::Netlist& nl, FlowConfig cfg);
  /// Same, with the flow graph's stages backed by `store` (null = compute
  /// every stage).
  FmeaFlow(const netlist::Netlist& nl, FlowConfig cfg, ArtifactStore* store);

  [[nodiscard]] const netlist::Netlist& design() const noexcept { return *nl_; }
  [[nodiscard]] const zones::ZoneDatabase& zones() const noexcept {
    return *zones_;
  }
  [[nodiscard]] const zones::EffectsModel& effects() const noexcept {
    return *effects_;
  }
  [[nodiscard]] const zones::CorrelationMatrix& correlation() const noexcept {
    return *corr_;
  }
  [[nodiscard]] const fmea::FmeaSheet& sheet() const noexcept { return sheet_; }
  [[nodiscard]] fmea::FmeaSheet& sheet() noexcept { return sheet_; }
  /// The FIT model the nominal analysis used (base for custom spans).
  [[nodiscard]] const fmea::FitModel& fitModel() const noexcept {
    return cfg_.fit;
  }

  /// Structural hash of the design (content address of the compile stage).
  [[nodiscard]] std::uint64_t designHash() const noexcept {
    return designHash_;
  }
  /// Input key of the zone stage (design hash × extraction options).
  [[nodiscard]] std::uint64_t zonesKey() const noexcept { return zonesKey_; }
  /// The stage engine; core/incremental.hpp appends campaign stages to it.
  [[nodiscard]] FlowGraph& graph() noexcept { return *graph_; }
  [[nodiscard]] const FlowGraph& graph() const noexcept { return *graph_; }

  [[nodiscard]] double sff() const { return sheet_.sff(); }
  [[nodiscard]] double dc() const { return sheet_.dc(); }
  [[nodiscard]] fmea::Sil sil() const { return sheet_.sil(); }

  /// Runs the standard sensitivity spans, rebuilding the sheet per scenario
  /// with the configured hook.
  [[nodiscard]] fmea::SensitivityResult sensitivity() const;

  /// Rebuilds a sheet from scratch for an alternative FIT model (used by the
  /// sensitivity analyzer and the ablation benches).
  [[nodiscard]] fmea::FmeaSheet buildSheet(const fmea::FitModel& fit) const;

 private:
  const netlist::Netlist* nl_;
  FlowConfig cfg_;
  std::unique_ptr<FlowGraph> graph_;
  std::uint64_t designHash_ = 0;
  std::uint64_t zonesKey_ = 0;
  std::unique_ptr<zones::ZoneDatabase> zones_;
  std::unique_ptr<zones::EffectsModel> effects_;
  std::unique_ptr<zones::CorrelationMatrix> corr_;
  fmea::FmeaSheet sheet_;
};

}  // namespace socfmea::core
