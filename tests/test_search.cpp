// Unit tests for the closed-loop architecture search
// (search::ArchitectureSearch): the budget stop, the target stop with the
// winner's cold-flat bit-identity verify, the round / beam / proposal
// limits, seed determinism, and serial-vs-bit-sliced identity of a whole
// one-round search.  Every search runs on a shortened protection-IP
// workload with a fresh artifact store, so the suite stays a few seconds on
// the bit-sliced default.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <string>

#include "core/artifact_store.hpp"
#include "search/search.hpp"

namespace core = socfmea::core;
namespace fs = std::filesystem;
namespace search = socfmea::search;

namespace {

/// Scratch store directory, emptied on construction and on destruction.
class ScratchStore {
 public:
  explicit ScratchStore(const std::string& name)
      : dir_(fs::temp_directory_path() / ("socfmea-search-" + name)) {
    fs::remove_all(dir_);
    store_ = std::make_unique<core::ArtifactStore>(dir_);
  }
  ~ScratchStore() {
    store_.reset();
    fs::remove_all(dir_);
  }
  ScratchStore(const ScratchStore&) = delete;
  ScratchStore& operator=(const ScratchStore&) = delete;

  [[nodiscard]] core::ArtifactStore* get() const { return store_.get(); }

 private:
  fs::path dir_;
  std::unique_ptr<core::ArtifactStore> store_;
};

/// A small search shape: a short workload and a thin memory-fault sample
/// keep one candidate evaluation well under a second on either engine.
search::SearchOptions smallSearch(core::ArtifactStore* store) {
  search::SearchOptions o;
  o.store = store;
  o.workloadCycles = 400;
  o.memFaultsPerKind = 8;
  o.verifyFinal = false;
  return o;
}

/// The v1 baseline's hybrid SFF under smallSearch() — the anchor the target
/// tests are set against.
double baselineSff() {
  static const double sff = [] {
    ScratchStore store("baseline");
    search::SearchOptions o = smallSearch(store.get());
    o.maxRounds = 0;
    return search::ArchitectureSearch(o).run().best.hybridSff;
  }();
  return sff;
}

}  // namespace

TEST(ArchitectureSearchTest, FaultBudgetStopsTheLoop) {
  ScratchStore store("budget");
  search::SearchOptions o = smallSearch(store.get());
  o.targetSff = 1.01;  // unreachable: only the budget can stop the loop
  o.faultBudget = 1;   // the v1 evaluation alone spends it
  const search::SearchResult r = search::ArchitectureSearch(o).run();

  EXPECT_TRUE(r.budgetExhausted);
  EXPECT_FALSE(r.targetReached);
  ASSERT_EQ(r.evaluated.size(), 1u);
  EXPECT_EQ(r.best.id, "v1");
  EXPECT_GE(r.faultsSimulated, o.faultBudget);
  EXPECT_EQ(r.faultsSimulated, r.evaluated.front().faultsSimulated);
}

TEST(ArchitectureSearchTest, EasyTargetIsReachedAndVerified) {
  ScratchStore store("target");
  search::SearchOptions o = smallSearch(store.get());
  // Any improvement on the baseline meets the target, so round one ends
  // the search with the best single transform.
  o.targetSff = std::nextafter(baselineSff(), 2.0);
  o.maxRounds = 1;
  o.beamWidth = 1;
  o.candidatesPerRound = 2;
  o.verifyFinal = true;
  const search::SearchResult r = search::ArchitectureSearch(o).run();

  EXPECT_TRUE(r.targetReached);
  EXPECT_FALSE(r.budgetExhausted);
  EXPECT_EQ(r.rounds, 1u);
  EXPECT_NE(r.best.id, "v1");
  EXPECT_GE(r.best.hybridSff, o.targetSff);
  EXPECT_EQ(r.best.round, 1u);
  EXPECT_TRUE(r.verifiedIdentical);
  EXPECT_GT(r.verifiedRecords, 0u);
  // The winner sits on the reported Pareto frontier.
  bool onFrontier = false;
  for (const search::CandidateScore& c : r.pareto) {
    onFrontier = onFrontier || c.id == r.best.id;
  }
  EXPECT_TRUE(onFrontier);
}

TEST(ArchitectureSearchTest, RoundsBeamAndProposalsAreBounded) {
  ScratchStore store("limits");
  search::SearchOptions o = smallSearch(store.get());
  o.targetSff = 1.01;
  o.maxRounds = 2;
  o.beamWidth = 2;
  o.candidatesPerRound = 2;
  const search::SearchResult r = search::ArchitectureSearch(o).run();

  EXPECT_FALSE(r.targetReached);
  EXPECT_FALSE(r.budgetExhausted);
  EXPECT_EQ(r.rounds, 2u);
  // Round one expands the lone v1 state; round two at most beamWidth
  // states, each by at most candidatesPerRound proposals.
  std::map<std::size_t, std::size_t> perRound;
  for (const search::CandidateScore& c : r.evaluated) ++perRound[c.round];
  EXPECT_EQ(perRound[0], 1u);
  EXPECT_GE(perRound[1], 1u);
  EXPECT_LE(perRound[1], o.candidatesPerRound);
  EXPECT_LE(perRound[2], o.beamWidth * o.candidatesPerRound);
  // A round adds at most one transform per architecture.
  for (const search::CandidateScore& c : r.evaluated) {
    EXPECT_LE(c.specs.size(), c.round) << c.id;
  }
}

TEST(ArchitectureSearchTest, SameSeedSameResult) {
  const auto once = [](const std::string& name) {
    ScratchStore store(name);
    search::SearchOptions o = smallSearch(store.get());
    o.targetSff = 1.01;
    o.maxRounds = 1;
    o.beamWidth = 1;
    o.candidatesPerRound = 2;
    o.seed = 5;
    return search::ArchitectureSearch(o).run().toJson().dump(2);
  };
  EXPECT_EQ(once("seed-a"), once("seed-b"));
}

TEST(ArchitectureSearchTest, SerialAndBitslicedSearchesAgree) {
  // One round, one proposal, verify on: every candidate score, the winner
  // and the cold-flat verdict must not depend on the campaign engine.
  const auto once = [](const std::string& name,
                       socfmea::faultsim::EngineKind engine) {
    ScratchStore store(name);  // fresh: the store key ignores the engine
    search::SearchOptions o = smallSearch(store.get());
    o.targetSff = std::nextafter(baselineSff(), 2.0);
    o.maxRounds = 1;
    o.beamWidth = 1;
    o.candidatesPerRound = 1;
    o.verifyFinal = true;
    o.engine = engine;
    return search::ArchitectureSearch(o).run();
  };
  const search::SearchResult serial =
      once("engine-serial", socfmea::faultsim::EngineKind::Serial);
  const search::SearchResult sliced =
      once("engine-bitsliced", socfmea::faultsim::EngineKind::Bitsliced);
  EXPECT_TRUE(serial.verifiedIdentical);
  EXPECT_TRUE(sliced.verifiedIdentical);
  EXPECT_EQ(serial.toJson().dump(2), sliced.toJson().dump(2));
}
