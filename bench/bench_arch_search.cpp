// Experiment SEARCH: the closed-loop architecture search rediscovering (and
// beating) the paper's v2 protection architecture from the v1 baseline.
// One full search runs against a fresh artifact store with a declared
// campaign budget; the headline numbers — candidates evaluated, delta-reuse
// ratio, the discovered architecture's SFF and gate cost, and the
// bit-identity of the search-path verdicts against a cold flat re-run —
// land in BENCH_search.json for the search-gate CI job, with the campaign
// engine the search ran on (its default, bit-sliced) and the host.
#include <chrono>
#include <filesystem>
#include <string>

#include "bench_util.hpp"
#include "core/artifact_store.hpp"
#include "memsys/gatelevel.hpp"
#include "search/search.hpp"
#include "search/transforms.hpp"

using namespace socfmea;

namespace {

/// The budget the gate declares: total faults re-simulated across every
/// candidate evaluation (the paper-level claim is "SIL3 margin within this
/// much campaign work from v1").
constexpr std::size_t kDeclaredBudget = 400000;
constexpr double kTargetSff = 0.9938;  // paper v2's measured envelope

void printTable() {
  benchutil::banner("SEARCH",
                    "closed-loop v1 -> SIL3: criticality-ranked checker "
                    "synthesis");
  const std::string dir = "bench_search_store";
  std::filesystem::remove_all(dir);
  core::ArtifactStore store(dir);

  search::SearchOptions sopt;
  sopt.store = &store;
  sopt.targetSff = kTargetSff;
  sopt.faultBudget = kDeclaredBudget;
  sopt.maxRounds = 24;
  sopt.verifyFinal = true;

  const auto t0 = std::chrono::steady_clock::now();
  search::ArchitectureSearch searcher(sopt);
  const search::SearchResult res = searcher.run();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::cout << "campaign engine: " << faultsim::engineKindName(sopt.engine)
            << "\ndiscovered: " << res.best.id << "\n";
  std::printf(
      "hybrid SFF %.6f (analytic %.6f, measured %.6f), +%zu GE\n"
      "%zu candidates / %zu rounds, %zu of %zu faults simulated "
      "(reuse %.3f), %.1f s\n",
      res.best.hybridSff, res.best.analyticSff, res.best.measuredSff,
      res.best.gateCost, res.evaluated.size(), res.rounds,
      res.faultsSimulated, res.faultsTotal, res.reuseRatio, seconds);
  std::cout << "target " << kTargetSff
            << (res.targetReached ? " reached" : " NOT reached")
            << "; cold-flat verdicts "
            << (res.verifiedIdentical ? "identical" : "** MISMATCH **")
            << " (" << res.verifiedRecords << " records)\n";
  std::cout << "pareto frontier:\n";
  for (const search::CandidateScore& c : res.pareto) {
    std::printf("  +%5zu GE  %.6f  %s\n", c.gateCost, c.hybridSff,
                c.id.c_str());
  }

  benchutil::JsonDump dump("BENCH_search.json");
  dump.field("baseline", "frmem-v1")
      .field("target_sff", kTargetSff)
      .field("declared_budget", static_cast<std::uint64_t>(kDeclaredBudget))
      .field("discovered", res.best.id)
      .field("discovered_sff", res.best.hybridSff)
      .field("discovered_analytic_sff", res.best.analyticSff)
      .field("discovered_measured_sff", res.best.measuredSff)
      .field("discovered_gate_cost",
             static_cast<std::uint64_t>(res.best.gateCost))
      .field("target_reached", res.targetReached)
      .field("budget_exhausted", res.budgetExhausted)
      .field("candidates_evaluated",
             static_cast<std::uint64_t>(res.evaluated.size()))
      .field("rounds", static_cast<std::uint64_t>(res.rounds))
      .field("faults_total", static_cast<std::uint64_t>(res.faultsTotal))
      .field("faults_simulated",
             static_cast<std::uint64_t>(res.faultsSimulated))
      .field("reuse_ratio", res.reuseRatio)
      .field("verified_identical", res.verifiedIdentical)
      .field("verified_records",
             static_cast<std::uint64_t>(res.verifiedRecords))
      .field("engine", std::string(faultsim::engineKindName(sopt.engine)))
      .field("host", benchutil::hostJson())
      .field("wall_s", seconds);
  dump.write();
}

// Timing probes for the two per-candidate fixed costs the loop pays before
// any simulation: building a candidate netlist (v1 + transforms) and
// attributing a campaign back onto sites/zones/rows.

void BM_ApplyTransforms(benchmark::State& state) {
  const memsys::GateLevelDesign v1 =
      memsys::buildProtectionIp(memsys::GateLevelOptions::v1());
  const std::vector<search::TransformSpec> specs = {
      {search::TransformKind::DuplicateCompare, "out/rdata_r", 0},
      {search::TransformKind::ParityPredict, "wbuf/data", 0},
      {search::TransformKind::MemSignature, "mem/array", 0},
  };
  for (auto _ : state) {
    netlist::Netlist nl = v1.nl;
    auto applied = search::applyTransforms(nl, specs);
    benchmark::DoNotOptimize(applied->size());
  }
}
BENCHMARK(BM_ApplyTransforms)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return benchutil::runBench(argc, argv, printTable);
}
