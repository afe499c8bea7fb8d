// perfbench_trace: the traced half of the benchmark.  Re-runs one workload's
// flow in-process, the way its CLI does, with a span around every call into
// a module's public functions, and prints one JSON document:
//
//   {"layers":  {"<layer metric>": self seconds, ...},
//    "samples": {"<layer metric>": [seconds per call], ...},
//    "steps":   [{"telemetry": ..., "store": ..., <the CLI's result
//                 sections>}, ...]}
//
// One entry of "steps" stands for one process the CLI workload runs, so
// run.py can require the same work as the CLI: equal telemetry counters and
// gauges, and equal result sections.  The spans live here, in
// the benchmark, not in the program.
//
//   perfbench_trace paper_flow
//   perfbench_trace iterate <store-dir> <edit>...
//   perfbench_trace arch_search <store-dir> <seed> <rounds> <beam>
//                   <candidates> <target-sff>
//   perfbench_trace cpu_suite <per-bit> <seed> <tier>
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/artifact_store.hpp"
#include "core/flow_report.hpp"
#include "core/frmem_config.hpp"
#include "core/incremental.hpp"
#include "core/srs.hpp"
#include "core/validation.hpp"
#include "cpu/scenarios.hpp"
#include "fmea/iec61508.hpp"
#include "inject/coverage.hpp"
#include "inject/env_builder.hpp"
#include "memsys/workloads.hpp"
#include "netlist/hash.hpp"
#include "obs/telemetry.hpp"
#include "search/search.hpp"
#include "serve/job.hpp"
#include "sim/rng.hpp"

using namespace socfmea;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Span bookkeeping: a layer's self time is its span's duration minus the
/// part covered by spans opened inside it.
class Tracer {
 public:
  void open(const char* name) { stack_.push_back({name, Clock::now(), 0.0}); }

  void close() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const double total = secondsSince(f.start);
    self_[f.name] += total - f.childSeconds;
    samples_[f.name].push_back(total);
    if (!stack_.empty()) stack_.back().childSeconds += total;
  }

  /// An interval measured outside a span (between two progress events).
  void add(const std::string& name, double seconds) {
    self_[name] += seconds;
    samples_[name].push_back(seconds);
    if (!stack_.empty()) stack_.back().childSeconds += seconds;
  }

  [[nodiscard]] obs::Json layersJson() const {
    obs::Json j = obs::Json::object();
    for (const auto& [name, s] : self_) j[name] = obs::Json(s);
    return j;
  }

  [[nodiscard]] obs::Json samplesJson() const {
    obs::Json j = obs::Json::object();
    for (const auto& [name, v] : samples_) {
      obs::Json a = obs::Json::array();
      for (const double s : v) a.push_back(obs::Json(s));
      j[name] = std::move(a);
    }
    return j;
  }

 private:
  struct Frame {
    std::string name;
    Clock::time_point start;
    double childSeconds;
  };
  std::vector<Frame> stack_;
  std::map<std::string, double> self_;
  std::map<std::string, std::vector<double>> samples_;
};

Tracer tracer;

/// RAII span around one call into a layer.
class Span {
 public:
  explicit Span(const char* name) { tracer.open(name); }
  ~Span() { tracer.close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

/// Takes the telemetry one CLI process would have emitted and starts the
/// next step from an empty registry, as the next process would.
obs::Json takeTelemetry() {
  obs::Registry& reg = obs::Registry::global();
  obs::Json t = reg.toJson();
  reg.clear();
  return t;
}

// Alarm outputs of the design: the fault simulator's observation set in
// validation step (c).
std::vector<netlist::CellId> alarmOutputs(const netlist::Netlist& nl,
                                          const zones::EffectsModel& effects) {
  std::vector<netlist::CellId> out;
  for (const zones::ObservationPoint& p : effects.points()) {
    if (p.kind != zones::ObsKind::Alarm) continue;
    if (const auto cell = nl.findCell(p.name)) out.push_back(*cell);
  }
  return out;
}

double permanentDdf(const fmea::FmeaSheet& sheet,
                    const std::vector<zones::ZoneId>& scope) {
  double dd = 0.0;
  double d = 0.0;
  for (const fmea::FmeaRow& r : sheet.rows()) {
    if (r.persistence != fmea::Persistence::Permanent) continue;
    if (!scope.empty() &&
        std::find(scope.begin(), scope.end(), r.zone) == scope.end()) {
      continue;
    }
    dd += r.lambdaDD;
    d += r.lambdaD();
  }
  return d <= 0.0 ? 1.0 : dd / d;
}

/// core::runValidationFlow, call for call, with each layer's calls under
/// its own span.  run.py checks the report against the CLI's.
core::ValidationFlowReport tracedValidation(const core::FmeaFlow& flow,
                                            sim::Workload& workload,
                                            const core::ValidationOptions& opt) {
  core::ValidationFlowReport rep;
  const netlist::Netlist& nl = flow.design();
  const zones::ZoneDatabase& db = flow.zones();
  const zones::EffectsModel& effects = flow.effects();

  tracer.open("inject.profile_s");
  const inject::InjectionEnvironment env =
      inject::EnvironmentBuilder(db, effects)
          .withSeed(opt.seed)
          .withDetectionWindow(opt.detectionWindow)
          .build();
  inject::InjectionManager mgr(nl, env);
  const inject::OperationalProfile profile =
      inject::OperationalProfile::record(db, workload);
  tracer.close();
  inject::ResultAnalyzer analyzer(db, effects);
  sim::Rng rng(opt.seed);

  // step (a)
  {
    fault::FaultList faults;
    {
      Span s("inject.profile_s");
      faults = mgr.zoneFailureFaults(profile, opt.zoneFailuresPerBit, opt.seed);
    }
    Span s("inject.campaign_s");
    inject::CoverageCollector cov(mgr.environment());
    rep.zoneCampaign = mgr.run(workload, faults, &cov);
    rep.zoneValidation =
        analyzer.validate(flow.sheet(), rep.zoneCampaign, opt.tolerance);
    rep.campaignCompleteness = cov.completeness();
    rep.stepAPass = rep.zoneValidation.pass &&
                    rep.zoneValidation.effectsConsistent &&
                    rep.campaignCompleteness >= 0.90;
  }

  // step (b)
  {
    Span s("faultsim.toggle_s");
    rep.toggle = faultsim::measureToggle(nl, workload);
    rep.stepBPass = rep.toggle.passes(opt.toggleThreshold);
  }

  // step (c)
  {
    tracer.open("inject.profile_s");
    fault::FaultList local;
    std::vector<zones::ZoneId> criticalScope;
    for (const auto& entry : flow.sheet().ranking(opt.criticalZones)) {
      const zones::SensibleZone& z = db.zone(entry.zone);
      if (z.kind == zones::ZoneKind::Memory) continue;
      criticalScope.push_back(entry.zone);
      if (z.cone.gates.empty()) continue;
      for (std::size_t i = 0; i < opt.localFaultsPerZone; ++i) {
        const netlist::CellId g = z.cone.gates[rng.below(z.cone.gates.size())];
        const netlist::NetId net = nl.cell(g).output;
        if (net == netlist::kNoNet) continue;
        fault::Fault f;
        f.cell = g;
        f.net = net;
        switch (i % 3) {
          case 0: f.kind = fault::FaultKind::StuckAt0; break;
          case 1: f.kind = fault::FaultKind::StuckAt1; break;
          default: f.kind = fault::FaultKind::SetPulse; break;
        }
        local.push_back(f);
      }
    }
    const fault::FaultList randomized = inject::randomizeFaultList(
        db, profile, local, local.size(), opt.seed + 1);
    fault::FaultList stuckOnly;
    for (const fault::Fault& f : randomized) {
      if (f.kind == fault::FaultKind::StuckAt0 ||
          f.kind == fault::FaultKind::StuckAt1) {
        stuckOnly.push_back(f);
      }
    }
    tracer.close();
    {
      Span s("inject.campaign_s");
      rep.localCampaign = mgr.run(workload, randomized);
      rep.localMeasuredSff = rep.localCampaign.measuredSff();
    }
    {
      Span s("faultsim.faultsim_s");
      faultsim::FaultSimOptions fsOpt;
      fsOpt.observedOutputs = alarmOutputs(nl, effects);
      const auto fs =
          faultsim::runSerialFaultSim(nl, workload, stuckOnly, fsOpt);
      rep.faultSimCoverage = fs.coverage();
    }
    rep.sheetPermanentDdf = permanentDdf(flow.sheet(), criticalScope);
    const double sffDelta =
        std::fabs(rep.localMeasuredSff - rep.zoneCampaign.measuredSff());
    const double dcDelta =
        std::fabs(rep.faultSimCoverage - rep.sheetPermanentDdf);
    rep.stepCPass = sffDelta <= opt.tolerance && dcDelta <= opt.tolerance;
  }

  // step (d)
  {
    tracer.open("inject.profile_s");
    fault::FaultList wide;
    for (netlist::CellId c = 0;
         c < nl.cellCount() && wide.size() < opt.wideFaults; ++c) {
      if (!netlist::isCombinational(nl.cell(c).type)) continue;
      if (db.classifySite(c) != zones::FaultScope::Wide) continue;
      if (!rng.chance(0.25)) continue;
      fault::Fault f;
      f.kind = rng.coin() ? fault::FaultKind::StuckAt0
                          : fault::FaultKind::StuckAt1;
      f.cell = c;
      f.net = nl.cell(c).output;
      wide.push_back(f);
    }
    for (const zones::SensibleZone& z : db.zones()) {
      if (z.kind != zones::ZoneKind::CriticalNet) continue;
      for (const bool v : {false, true}) {
        fault::Fault f;
        f.kind = v ? fault::FaultKind::StuckAt1 : fault::FaultKind::StuckAt0;
        f.net = z.valueNets.front();
        const auto& drv = nl.net(f.net).driver;
        if (drv != netlist::kNoCell) f.cell = drv;
        wide.push_back(f);
      }
    }
    tracer.close();
    Span s("inject.campaign_s");
    inject::CampaignOptions copt;
    copt.earlyAbort = false;
    rep.wideCampaign = mgr.run(workload, wide, nullptr, copt);
    for (const inject::InjectionRecord& r : rep.wideCampaign.records) {
      if (r.obs.zonesDeviated.size() > 1) ++rep.multiZoneFailures;
    }
    const std::size_t activated =
        rep.wideCampaign.records.size() -
        rep.wideCampaign.count(inject::Outcome::NoEffect);
    rep.stepDPass = wide.empty() || activated == 0 || rep.multiZoneFailures > 0;
  }
  return rep;
}

/// The bare memsys_sil3_flow: v1/v2 analysis, sensitivity, validation a-d,
/// SRS.
obs::Json paperFlow() {
  tracer.open("memsys.build_s");
  const memsys::GateLevelDesign v1 =
      memsys::buildProtectionIp(memsys::GateLevelOptions::v1());
  tracer.close();
  tracer.open("core.analysis_s");
  const core::FmeaFlow flowV1(v1.nl, core::makeFrmemFlowConfig(v1));
  tracer.close();
  tracer.open("memsys.build_s");
  const memsys::GateLevelDesign v2 =
      memsys::buildProtectionIp(memsys::GateLevelOptions::v2());
  tracer.close();
  tracer.open("core.analysis_s");
  const core::FmeaFlow flowV2(v2.nl, core::makeFrmemFlowConfig(v2));
  tracer.close();
  {
    Span s("fmea.sensitivity_s");
    (void)flowV2.sensitivity();
  }
  memsys::ProtectionIpWorkload::Options wopt;
  wopt.cycles = 2000;
  memsys::ProtectionIpWorkload workload(v2, wopt);
  core::ValidationOptions vopt;
  vopt.zoneFailuresPerBit = 1;
  const core::ValidationFlowReport rep =
      tracedValidation(flowV2, workload, vopt);
  {
    Span s("core.srs_s");
    std::ofstream srs("frmem_v2_srs.md");
    core::SrsOptions sopt;
    sopt.author = "memsys_sil3_flow example";
    core::writeSrs(srs, flowV2, sopt, &rep);
    (void)core::srsToString(flowV2, sopt, &rep);
  }
  obs::Json step = obs::Json::object();
  step["validation"] = rep.toJson();
  step["sil3_pass"] = obs::Json(flowV2.sil() >= fmea::Sil::Sil3);
  step["telemetry"] = takeTelemetry();
  obs::Json steps = obs::Json::array();
  steps.push_back(std::move(step));
  return steps;
}

/// memsys_sil3_flow --cache-dir <store> --edit <e>, once per edit, each as a
/// fresh process would run it (own store handle, empty telemetry).
obs::Json iterate(const std::string& storeDir,
                  const std::vector<std::string>& edits) {
  obs::Json steps = obs::Json::array();
  for (const std::string& edit : edits) {
    tracer.open("memsys.build_s");
    memsys::GateLevelOptions gopt = memsys::GateLevelOptions::v1();
    if (!serve::applyProtectionEdit(edit, gopt)) {
      std::cerr << "perfbench_trace: unknown edit " << edit << "\n";
      std::exit(2);
    }
    const memsys::GateLevelDesign dut = memsys::buildProtectionIp(gopt);
    tracer.close();

    memsys::ProtectionIpWorkload::Options wopt;
    wopt.cycles = 2000;
    tracer.open("core.analysis_s");
    core::ArtifactStore store(storeDir);
    core::IncrementalOptions iopt;
    iopt.store = &store;
    iopt.workloadTag = netlist::hashMix(
        netlist::hashString("protection-ip-workload"),
        netlist::hashMix(wopt.cycles, wopt.seed));
    iopt.memFaultsPerKind = 48;
    core::IncrementalFlow inc(dut.nl, core::makeFrmemFlowConfig(dut), iopt);
    tracer.close();
    {
      Span s("core.campaign_stage_s");
      memsys::ProtectionIpWorkload workload(dut, wopt);
      (void)inc.runZoneFailureCampaign(workload, /*perBit=*/1, /*seed=*/7,
                                       /*detectionWindow=*/24, {});
    }
    obs::Json step = obs::Json::object();
    step["edit"] = obs::Json(edit);
    step["report"] = inc.report();
    step["store"] = store.statsJson();
    step["telemetry"] = takeTelemetry();
    steps.push_back(std::move(step));
  }
  return steps;
}

/// tools/arch_search with the given shape.  The search is one call; its
/// progress events split it into candidate evaluations and the verify.
obs::Json archSearch(const std::string& storeDir, unsigned seed,
                     unsigned rounds, unsigned beam, unsigned candidates,
                     double targetSff) {
  core::ArtifactStore store(storeDir);
  search::SearchOptions sopt;
  sopt.store = &store;
  sopt.targetSff = targetSff;
  sopt.seed = seed;
  sopt.beamWidth = beam;
  sopt.maxRounds = rounds;
  sopt.candidatesPerRound = candidates;
  Clock::time_point last = Clock::now();
  bool verifying = false;
  sopt.log = [&](const std::string& line) {
    const double dt = secondsSince(last);
    if (line.rfind("eval ", 0) == 0) tracer.add("search.candidate_s", dt);
    if (line.rfind("verifying ", 0) == 0) verifying = true;
    last = Clock::now();
  };
  search::ArchitectureSearch searcher(sopt);
  const search::SearchResult res = searcher.run();
  if (verifying) tracer.add("search.verify_s", secondsSince(last));

  obs::Json step = obs::Json::object();
  step["search"] = res.toJson();
  step["store"] = store.statsJson();
  step["telemetry"] = takeTelemetry();
  obs::Json steps = obs::Json::array();
  steps.push_back(std::move(step));
  return steps;
}

/// examples/cpu_mitigation_flow over every scenario.
obs::Json cpuSuite(std::size_t perBit, std::uint64_t seed,
                   const std::string& tier) {
  namespace sc = cpu::scenarios;
  sc::RunOptions run;
  run.perBit = perBit;
  run.seed = seed;
  const auto mode = inject::tierModeFromName(tier);
  if (!mode) {
    std::cerr << "perfbench_trace: unknown tier " << tier << "\n";
    std::exit(2);
  }
  run.tier = *mode;
  const std::vector<sc::Scenario>* registry = nullptr;
  {
    Span s("cpu.build_s");
    registry = &sc::all();
  }
  std::vector<sc::ScenarioResult> results;
  for (const sc::Scenario& s : *registry) {
    Span span("cpu.scenario_s");
    results.push_back(sc::runScenario(s, run));
  }
  obs::Json scenarios = obs::Json::array();
  for (std::size_t i = 0; i < registry->size(); ++i) {
    const sc::Scenario& s = (*registry)[i];
    obs::Json j = results[i].toJson();
    j["mitigation"] = std::string(cpu::swMitigationName(s.mitigation));
    j["verdict_ok"] = sc::verdictOk(s, results[i], results[0]);
    j["min_sff_gain"] = s.minSffGain;
    scenarios.push_back(std::move(j));
  }
  obs::Json step = obs::Json::object();
  step["scenarios"] = std::move(scenarios);
  step["telemetry"] = takeTelemetry();
  obs::Json steps = obs::Json::array();
  steps.push_back(std::move(step));
  return steps;
}

[[noreturn]] void usage() {
  std::cerr << "usage: perfbench_trace paper_flow\n"
               "       perfbench_trace iterate <store-dir> <edit>...\n"
               "       perfbench_trace arch_search <store-dir> <seed> <rounds>"
               " <beam> <candidates> <target-sff>\n"
               "       perfbench_trace cpu_suite <per-bit> <seed> <tier>\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string workload = argv[1];
  obs::Json steps;
  if (workload == "paper_flow" && argc == 2) {
    steps = paperFlow();
  } else if (workload == "iterate" && argc >= 4) {
    steps = iterate(argv[2], std::vector<std::string>(argv + 3, argv + argc));
  } else if (workload == "arch_search" && argc == 8) {
    steps = archSearch(argv[2], std::stoul(argv[3]), std::stoul(argv[4]),
                       std::stoul(argv[5]), std::stoul(argv[6]),
                       std::stod(argv[7]));
  } else if (workload == "cpu_suite" && argc == 5) {
    steps = cpuSuite(std::stoull(argv[2]), std::stoull(argv[3]), argv[4]);
  } else {
    usage();
  }
  obs::Json out = obs::Json::object();
  out["layers"] = tracer.layersJson();
  out["samples"] = tracer.samplesJson();
  out["steps"] = std::move(steps);
  std::cout << out.dump() << "\n";
  return 0;
}
