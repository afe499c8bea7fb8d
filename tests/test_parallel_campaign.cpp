// Tests for in-process campaign parallelism: the thread pool, the Simulator
// snapshot/restore API the bit-sliced engine's checkpoints rest on, and the
// headline determinism contract — the same fault list through the serial
// oracle and the bit-sliced engine on a worker pool (threads = 2, 4) on the
// memsys reference design produces identical InjectionRecords, coverage
// counters and FaultSimResult detections — and a list that names a fault
// more than once simulates it once and copies its record to every position.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/flow.hpp"
#include "core/thread_pool.hpp"
#include "cpu/flow_config.hpp"
#include "cpu/scenarios.hpp"
#include "cpu/workload.hpp"
#include "fault/collapse.hpp"
#include "fault/fault_list.hpp"
#include "faultsim/serial.hpp"
#include "inject/manager.hpp"
#include "inject/workload.hpp"
#include "memsys/gatelevel.hpp"
#include "memsys/workloads.hpp"
#include "netlist/builder.hpp"
#include "obs/telemetry.hpp"
#include "testkit/seed.hpp"
#include "zones/extract.hpp"

namespace tk = socfmea::testkit;
namespace nl = socfmea::netlist;
namespace zn = socfmea::zones;
namespace ft = socfmea::fault;
namespace fs = socfmea::faultsim;
namespace ij = socfmea::inject;
namespace sm = socfmea::sim;
namespace ms = socfmea::memsys;
namespace co = socfmea::core;

// ---------------------------------------------------------------------------
// thread pool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  co::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> seen(1000);
  pool.parallelFor(seen.size(), 7, [&](unsigned worker, std::size_t i) {
    ASSERT_LT(worker, pool.size());
    seen[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  co::ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallelFor(100, 1, [&](unsigned, std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ThreadPoolTest, PropagatesException) {
  co::ThreadPool pool(2);
  EXPECT_THROW(pool.parallelFor(10, 1,
                                [&](unsigned, std::size_t i) {
                                  if (i == 3) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The pool survives the throw.
  std::atomic<int> n{0};
  pool.parallelFor(8, 1, [&](unsigned, std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 8);
}

TEST(ThreadPoolTest, ZeroResolvesToHardwareConcurrency) {
  EXPECT_GE(co::resolveThreadCount(0), 1u);
  EXPECT_EQ(co::resolveThreadCount(5), 5u);
}

// ---------------------------------------------------------------------------
// Simulator snapshot / restore
// ---------------------------------------------------------------------------

namespace {

/// A small memsys build (64-word array) — fast enough for unit tests while
/// still exercising memories, checkers and alarms.
ms::GateLevelDesign smallMemsys() {
  ms::GateLevelOptions o = ms::GateLevelOptions::v2();
  o.addrBits = 6;
  return ms::buildProtectionIp(o);
}

// Campaign-wide seeds: the historical literals by default, or values derived
// from SOCFMEA_TEST_SEED so the whole bed can be re-rolled from the shell.
const std::uint64_t kWorkloadSeed = tk::testSeed(42);
const std::uint64_t kEnvSeed = tk::testSeed(7);
const std::uint64_t kFaultSeed = tk::testSeed(11);

ms::ProtectionIpWorkload::Options smallWorkload(std::uint64_t cycles) {
  ms::ProtectionIpWorkload::Options o;
  o.cycles = cycles;
  o.seed = kWorkloadSeed;
  return o;
}

/// One-line provenance for failure logs on every randomized campaign test.
std::string bedSeedTrace() {
  return tk::seedMessage(kWorkloadSeed) + "; env seed " +
         std::to_string(kEnvSeed) + "; fault-sample seed " +
         std::to_string(kFaultSeed);
}

std::vector<sm::Logic> allNetValues(const sm::Simulator& sim) {
  std::vector<sm::Logic> v;
  v.reserve(sim.design().netCount());
  for (nl::NetId n = 0; n < sim.design().netCount(); ++n) {
    v.push_back(sim.value(n));
  }
  return v;
}

}  // namespace

TEST(SnapshotTest, RoundTripReplaysIdentically) {
  const auto design = smallMemsys();
  ms::ProtectionIpWorkload wl(design, smallWorkload(80));
  sm::Simulator sim(design.nl);
  wl.restart();
  sim.reset();
  const auto runCycle = [&](std::uint64_t c) {
    wl.drive(sim, c);
    wl.backdoor(sim, c);
    sim.evalComb();
    sim.clockEdge();
  };
  for (std::uint64_t c = 0; c < 40; ++c) runCycle(c);

  const auto snap = sim.snapshot();
  EXPECT_EQ(snap.cycle, 40u);

  std::vector<std::vector<sm::Logic>> first;
  for (std::uint64_t c = 40; c < 80; ++c) {
    runCycle(c);
    first.push_back(allNetValues(sim));
  }
  const std::uint64_t mem0 = sim.memory(0).peek(3);

  sim.restore(snap);
  EXPECT_EQ(sim.cycle(), 40u);
  std::vector<std::vector<sm::Logic>> second;
  for (std::uint64_t c = 40; c < 80; ++c) {
    runCycle(c);
    second.push_back(allNetValues(sim));
  }
  EXPECT_EQ(first, second);
  EXPECT_EQ(sim.memory(0).peek(3), mem0);
}

TEST(SnapshotTest, CapturesInstalledFaultHooks) {
  nl::Netlist n{"tiny"};
  nl::NetId a;
  {
    nl::Builder b(n);
    a = b.input("a");
    b.output("o", b.bnot(a));
  }
  sm::Simulator sim(n);
  sim.setInput(a, sm::Logic::L0);
  ASSERT_EQ(sim.value(a), sm::Logic::L0);
  sim.forceNet(a, sm::Logic::L1);
  EXPECT_EQ(sim.value(a), sm::Logic::L1);
  const auto snap = sim.snapshot();
  sim.releaseAllNets();
  EXPECT_EQ(sim.value(a), sm::Logic::L0);
  sim.restore(snap);
  EXPECT_EQ(sim.value(a), sm::Logic::L1);
}

TEST(SnapshotTest, RejectsForeignDesign) {
  const auto design = smallMemsys();
  sm::Simulator sim(design.nl);
  const auto snap = sim.snapshot();

  nl::Netlist other;
  nl::Builder b(other);
  b.output("o", b.bnot(b.input("a")));
  sm::Simulator otherSim(other);
  EXPECT_THROW(otherSim.restore(snap), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// campaign determinism: serial oracle vs bit-sliced engine x threads
// ---------------------------------------------------------------------------

namespace {

struct MemsysBed {
  ms::GateLevelDesign design = smallMemsys();
  zn::ZoneDatabase db;
  zn::EffectsModel fx;
  ij::InjectionEnvironment env;

  MemsysBed()
      : db(zn::extractZones(design.nl)),
        fx(db, design.alarmNames),
        env(ij::EnvironmentBuilder(db, fx)
                .withSeed(kEnvSeed)
                .withDetectionWindow(24)
                .build()) {}

  /// A balanced sample: permanent stuck-at faults plus transient SEUs /
  /// soft errors.
  [[nodiscard]] ft::FaultList sampleFaults(ms::ProtectionIpWorkload& wl,
                                           std::size_t n) const {
    const auto profile = ij::OperationalProfile::record(db, wl);
    ft::FaultList candidates = ft::allStuckAtFaults(design.nl);
    ft::append(candidates, ft::allSeuFaults(design.nl));
    ij::collapseAgainstProfile(db, profile, candidates);
    return ij::randomizeFaultList(db, profile, candidates, n, kFaultSeed);
  }

  /// Transient SEUs only.  A word group forks from a golden checkpoint only
  /// when every lane in it activates late, and the scheduler packs
  /// permanents first, so a mixed sample may start every group at reset;
  /// a transient-only list makes the forking observable.
  [[nodiscard]] ft::FaultList sampleTransients(ms::ProtectionIpWorkload& wl,
                                               std::size_t n) const {
    const auto profile = ij::OperationalProfile::record(db, wl);
    ft::FaultList candidates = ft::allSeuFaults(design.nl);
    ij::collapseAgainstProfile(db, profile, candidates);
    return ij::randomizeFaultList(db, profile, candidates, n, kFaultSeed);
  }
};

void expectRecordsEqual(const ij::CampaignResult& a,
                        const ij::CampaignResult& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const auto& ra = a.records[i];
    const auto& rb = b.records[i];
    EXPECT_TRUE(ra.fault == rb.fault) << "record " << i;
    EXPECT_EQ(ra.zone, rb.zone) << "record " << i;
    EXPECT_EQ(ra.outcome, rb.outcome) << "record " << i;
    EXPECT_EQ(ra.obs.sens, rb.obs.sens) << "record " << i;
    EXPECT_EQ(ra.obs.sensCycle, rb.obs.sensCycle) << "record " << i;
    EXPECT_EQ(ra.obs.zonesDeviated, rb.obs.zonesDeviated) << "record " << i;
    EXPECT_EQ(ra.obs.obs, rb.obs.obs) << "record " << i;
    EXPECT_EQ(ra.obs.firstObsCycle, rb.obs.firstObsCycle) << "record " << i;
    EXPECT_EQ(ra.obs.obsDeviated, rb.obs.obsDeviated) << "record " << i;
    EXPECT_EQ(ra.obs.diag, rb.obs.diag) << "record " << i;
    EXPECT_EQ(ra.obs.diagCycle, rb.obs.diagCycle) << "record " << i;
  }
}

/// Bit-sliced campaign options on a pool of `threads` workers.  One-limb
/// (64-lane) words, so a fault list of more than 64 faults spans several
/// word groups and the workers really share the campaign.
ij::CampaignOptions bitslicedOn(unsigned threads) {
  ij::CampaignOptions o;
  o.engine = fs::EngineKind::Bitsliced;
  o.laneWords = 1;
  o.threads = threads;
  return o;
}

}  // namespace

TEST(ParallelCampaignTest, BitIdenticalToSerialAcrossThreadCounts) {
  SCOPED_TRACE(bedSeedTrace());
  MemsysBed bed;
  ms::ProtectionIpWorkload wl(bed.design, smallWorkload(260));
  const auto faults = bed.sampleFaults(wl, 160);
  ASSERT_GT(faults.size(), 128u);  // at least three 64-lane word groups

  ij::InjectionManager mgr(bed.design.nl, bed.env);

  ij::CampaignOptions serialOpt;  // the serial reference oracle
  ij::CoverageCollector serialCov(mgr.environment());
  const auto serial = mgr.run(wl, faults, &serialCov, serialOpt);
  EXPECT_EQ(serial.checkpointHits, 0u);

  for (const unsigned threads : {2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ij::CoverageCollector parCov(mgr.environment());
    const auto parallel = mgr.run(wl, faults, &parCov, bitslicedOn(threads));

    expectRecordsEqual(serial, parallel);
    EXPECT_EQ(serialCov.injections(), parCov.injections());
    EXPECT_EQ(serialCov.mismatches(), parCov.mismatches());
    EXPECT_EQ(serialCov.sensEvents(), parCov.sensEvents());
    EXPECT_EQ(serialCov.diagEvents(), parCov.diagEvents());
    EXPECT_DOUBLE_EQ(serialCov.sensCoverage(), parCov.sensCoverage());
    EXPECT_DOUBLE_EQ(serialCov.obseCoverage(), parCov.obseCoverage());
    EXPECT_DOUBLE_EQ(serialCov.completeness(), parCov.completeness());
    // Every IEC metric agrees bit-for-bit.
    EXPECT_EQ(serial.measuredSff(), parallel.measuredSff());
    EXPECT_EQ(serial.measuredDdf(), parallel.measuredDdf());
    EXPECT_EQ(serial.measuredSafeFraction(), parallel.measuredSafeFraction());
    EXPECT_EQ(serial.meanDetectionLatency(), parallel.meanDetectionLatency());
    EXPECT_EQ(serial.maxDetectionLatency(), parallel.maxDetectionLatency());
  }
}

TEST(ParallelCampaignTest, TransientWordGroupsSkipTheFaultFreePrefix) {
  SCOPED_TRACE(bedSeedTrace());
  MemsysBed bed;
  ms::ProtectionIpWorkload wl(bed.design, smallWorkload(260));
  const auto faults = bed.sampleTransients(wl, 160);
  ASSERT_GT(faults.size(), 64u);  // at least two 64-lane word groups

  ij::InjectionManager mgr(bed.design.nl, bed.env);
  const auto serial = mgr.run(wl, faults);
  EXPECT_EQ(serial.checkpointHits, 0u);

  for (const unsigned threads : {2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto parallel = mgr.run(wl, faults, nullptr, bitslicedOn(threads));
    expectRecordsEqual(serial, parallel);
    // The late word groups forked from golden checkpoints and skipped
    // their fault-free prefixes.
    EXPECT_GT(parallel.checkpointHits, 0u);
    EXPECT_GT(parallel.checkpointCyclesSkipped, 0u);
    EXPECT_LT(parallel.cyclesSimulated, serial.cyclesSimulated);
  }
}

TEST(ParallelCampaignTest, StuckAtFaultsFallBackToFullReplay) {
  SCOPED_TRACE(bedSeedTrace());
  MemsysBed bed;
  ms::ProtectionIpWorkload wl(bed.design, smallWorkload(120));
  ft::FaultList faults;
  const auto all = ft::allStuckAtFaults(bed.design.nl);
  for (std::size_t i = 0; i < all.size() && faults.size() < 12; i += 97) {
    faults.push_back(all[i]);
  }
  ASSERT_FALSE(faults.empty());

  ij::InjectionManager mgr(bed.design.nl, bed.env);
  const auto serial = mgr.run(wl, faults);

  const auto parallel = mgr.run(wl, faults, nullptr, bitslicedOn(4));
  expectRecordsEqual(serial, parallel);
  // Permanent faults are active from reset: no checkpoint may be used.
  EXPECT_EQ(parallel.checkpointHits, 0u);
  EXPECT_EQ(parallel.checkpointCyclesSkipped, 0u);
}

TEST(ParallelCampaignTest, LatentFaultCampaignStaysOnTheSerialOracle) {
  // Latent (dual-point) campaigns run on the serial engine only: `threads`
  // is a bit-sliced setting the serial engine ignores, and the bit-sliced
  // engine refuses a latent fault instead of dropping it.
  SCOPED_TRACE(bedSeedTrace());
  MemsysBed bed;
  ms::ProtectionIpWorkload wl(bed.design, smallWorkload(150));
  const auto faults = bed.sampleFaults(wl, 16);

  ij::CampaignOptions opt;
  opt.preexisting = faults.front();  // any first fault as the latent one

  ij::InjectionManager mgr(bed.design.nl, bed.env);
  const auto serial = mgr.run(wl, faults, nullptr, opt);
  auto wide = opt;
  wide.threads = 4;
  expectRecordsEqual(serial, mgr.run(wl, faults, nullptr, wide));

  auto sliced = bitslicedOn(4);
  sliced.preexisting = opt.preexisting;
  EXPECT_THROW((void)mgr.run(wl, faults, nullptr, sliced),
               std::invalid_argument);
}

TEST(ParallelCampaignTest, ExplicitCheckpointIntervalHonoured) {
  SCOPED_TRACE(bedSeedTrace());
  MemsysBed bed;
  ms::ProtectionIpWorkload wl(bed.design, smallWorkload(100));
  const auto faults = bed.sampleFaults(wl, 12);

  ij::InjectionManager mgr(bed.design.nl, bed.env);
  const auto serial = mgr.run(wl, faults);
  for (const unsigned threads : {2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto par = bitslicedOn(threads);
    par.checkpointInterval = 8;  // dense checkpoints
    const auto parallel = mgr.run(wl, faults, nullptr, par);
    expectRecordsEqual(serial, parallel);
  }
}

// ---------------------------------------------------------------------------
// bit-sliced fault simulation x threads (runFaultSim)
// ---------------------------------------------------------------------------

namespace {

struct DataPath {
  nl::Netlist n{"dp"};
  nl::NetId rst;
  nl::Bus a, b, q;

  DataPath() {
    nl::Builder bl(n);
    rst = bl.input("rst");
    a = bl.inputBus("a", 8);
    b = bl.inputBus("b", 8);
    const auto sum = bl.adder(a, b);
    q = bl.registerBus("r", sum, nl::kNoNet, rst, 0);
    bl.outputBus("sum", q);
    bl.output("par", bl.reduceXor(q));
    n.check();
  }
};

}  // namespace

TEST(BitslicedThreadsFaultSimTest, MatchesSerialOnMixedFaults) {
  const std::uint64_t seed = tk::testSeed(7);
  SCOPED_TRACE(tk::seedMessage(seed));
  DataPath d;
  ij::RandomWorkload wl(d.n, 160, seed, {{d.rst, false}});

  ft::FaultList faults = ft::allStuckAtFaults(d.n);
  ft::collapseStuckAt(d.n, faults);
  // Transient SEUs late in the workload.  Mixed with the stuck-ats they
  // share the reset-started word groups; on their own they form a group
  // that forks from the cycle-120 golden checkpoint.
  ft::FaultList seus;
  for (nl::CellId ff : d.n.flipFlops()) {
    ft::Fault f;
    f.kind = ft::FaultKind::SeuFlip;
    f.cell = ff;
    f.net = d.n.cell(ff).output;
    f.cycle = 120;
    seus.push_back(f);
  }
  ft::append(faults, seus);

  fs::FaultSimOptions serialOpt;
  const auto serial = fs::runFaultSim(d.n, wl, faults, serialOpt);
  EXPECT_EQ(serial.checkpointHits, 0u);

  for (const unsigned threads : {2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    fs::FaultSimOptions opt;
    opt.engine = fs::EngineKind::Bitsliced;
    opt.laneWords = 1;  // 64 lanes: several word groups for the workers
    opt.threads = threads;
    const auto par = fs::runFaultSim(d.n, wl, faults, opt);
    ASSERT_EQ(par.outcomes.size(), serial.outcomes.size());
    for (std::size_t i = 0; i < faults.size(); ++i) {
      EXPECT_EQ(par.outcomes[i], serial.outcomes[i])
          << faults[i].describe(d.n);
    }
    EXPECT_EQ(par.detected, serial.detected);
    EXPECT_EQ(par.total, serial.total);

    const auto seuSerial = fs::runFaultSim(d.n, wl, seus, serialOpt);
    const auto seuPar = fs::runFaultSim(d.n, wl, seus, opt);
    EXPECT_EQ(seuPar.outcomes, seuSerial.outcomes);
    EXPECT_GT(seuPar.checkpointHits, 0u);  // the cycle-120 SEUs forked
    EXPECT_GT(seuPar.checkpointCyclesSkipped, 0u);
    EXPECT_LT(seuPar.simulatedCycles, seuSerial.simulatedCycles);
  }
}

TEST(BitslicedThreadsFaultSimTest, ThreadsZeroUsesHardwareConcurrency) {
  const std::uint64_t seed = tk::testSeed(3);
  SCOPED_TRACE(tk::seedMessage(seed));
  DataPath d;
  ij::RandomWorkload wl(d.n, 60, seed, {{d.rst, false}});
  ft::FaultList faults = ft::allStuckAtFaults(d.n);
  ft::collapseStuckAt(d.n, faults);

  fs::FaultSimOptions serialOpt;
  const auto serial = fs::runFaultSim(d.n, wl, faults, serialOpt);
  fs::FaultSimOptions opt;
  opt.engine = fs::EngineKind::Bitsliced;
  opt.threads = 0;
  const auto par = fs::runFaultSim(d.n, wl, faults, opt);
  EXPECT_EQ(par.detected, serial.detected);
  ASSERT_EQ(par.outcomes.size(), serial.outcomes.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(par.outcomes[i], serial.outcomes[i]);
  }
}

// ---------------------------------------------------------------------------
// single-pass outcome tally (CampaignResult::tally)
// ---------------------------------------------------------------------------

TEST(TallyTest, MatchesPerOutcomeCounts) {
  SCOPED_TRACE(bedSeedTrace());
  MemsysBed bed;
  ms::ProtectionIpWorkload wl(bed.design, smallWorkload(150));
  const auto faults = bed.sampleFaults(wl, 24);
  ij::InjectionManager mgr(bed.design.nl, bed.env);
  const auto res = mgr.run(wl, faults);

  const auto t = res.tally();
  std::size_t sum = 0;
  for (const auto o :
       {ij::Outcome::NoEffect, ij::Outcome::SafeMasked,
        ij::Outcome::SafeDetected, ij::Outcome::DangerousDetected,
        ij::Outcome::DangerousUndetected}) {
    EXPECT_EQ(t.count(o), res.count(o));
    sum += t.count(o);
  }
  EXPECT_EQ(sum, res.records.size());
  EXPECT_EQ(t.total, res.records.size());
  EXPECT_DOUBLE_EQ(ij::CampaignResult::measuredSff(t), res.measuredSff());
  EXPECT_DOUBLE_EQ(ij::CampaignResult::measuredDdf(t), res.measuredDdf());
  EXPECT_DOUBLE_EQ(ij::CampaignResult::measuredSafeFraction(t),
                   res.measuredSafeFraction());
  EXPECT_DOUBLE_EQ(ij::CampaignResult::meanDetectionLatency(t),
                   res.meanDetectionLatency());
  EXPECT_EQ(t.latencyMax, res.maxDetectionLatency());
}

TEST(ParallelCampaignTest, JsonMetricsSectionIdenticalSerialVsParallel) {
  // The acceptance contract of the machine-readable report: the "metrics"
  // section of CampaignResult::toJson() is byte-identical between the
  // serial oracle and the bit-sliced engine on a worker pool; only
  // "execution" (cycles, checkpoint counters) may differ.
  SCOPED_TRACE(bedSeedTrace());
  MemsysBed bed;
  ms::ProtectionIpWorkload wl(bed.design, smallWorkload(260));
  // Transient-only, so the engines' execution sections really differ.
  const auto faults = bed.sampleTransients(wl, 160);
  ij::InjectionManager mgr(bed.design.nl, bed.env);

  ij::CampaignOptions serialOpt;  // the serial reference oracle
  const auto serial = mgr.run(wl, faults, nullptr, serialOpt);
  const auto parallel = mgr.run(wl, faults, nullptr, bitslicedOn(4));

  const auto metricsDump = [](const ij::CampaignResult& r) {
    return r.toJson().at("metrics").dump(2);
  };
  EXPECT_EQ(metricsDump(serial), metricsDump(parallel));
  // Sanity: the execution sections really do describe different engines.
  const auto parExec = parallel.toJson().at("execution");
  const auto serialExec = serial.toJson().at("execution");
  EXPECT_LT(parExec.at("cycles_simulated").asInt(),
            serialExec.at("cycles_simulated").asInt());
  EXPECT_GT(parExec.at("checkpoint_hits").asInt(), 0);
  EXPECT_EQ(serialExec.at("checkpoint_hits").asInt(), 0);
}

// ---------------------------------------------------------------------------
// duplicate faults: each distinct fault is simulated once
// ---------------------------------------------------------------------------

TEST(DuplicateFaultTest, EachDistinctFaultIsSimulatedOnceAndFannedOut) {
  // The cpu suite's unprotected scenario at per-bit 24, seed 1: SEU cycles
  // are drawn with replacement from a short program's live cycles, so the
  // list repeats many faults.
  namespace cpu = socfmea::cpu;
  const cpu::scenarios::Scenario& s = cpu::scenarios::all()[0];
  const cpu::CpuDesign d = cpu::buildTinyCpu(s.design);
  const co::FmeaFlow flow(d.nl, cpu::makeMitigationFlowConfig(d, s.mitigation));
  cpu::CpuWorkload wl(d, s.design.program, s.cycles);
  const ij::InjectionEnvironment env =
      ij::EnvironmentBuilder(flow.zones(), flow.effects())
          .withSeed(1)
          .withDetectionWindow(24)
          .build();
  ij::InjectionManager mgr(d.nl, env);
  const auto profile = ij::OperationalProfile::record(flow.zones(), wl);
  const ft::FaultList list = mgr.zoneFailureFaults(profile, 24, 1);

  ft::FaultList distinct;
  std::vector<std::size_t> slot;
  for (const ft::Fault& f : list) {
    const auto it = std::find(distinct.begin(), distinct.end(), f);
    slot.push_back(static_cast<std::size_t>(it - distinct.begin()));
    if (it == distinct.end()) distinct.push_back(f);
  }
  EXPECT_EQ(list.size(), 1368u);
  EXPECT_EQ(distinct.size(), 700u);

  ij::CampaignOptions serialOpt;  // the serial reference oracle
  for (const auto& [name, opt] : {std::pair{"serial", serialOpt},
                                  std::pair{"bitsliced x1", bitslicedOn(1)},
                                  std::pair{"bitsliced x4", bitslicedOn(4)}}) {
    SCOPED_TRACE(name);
    const socfmea::obs::Registry& reg = socfmea::obs::Registry::global();
    const std::uint64_t before = reg.counter("inject.faults_simulated");
    ij::CoverageCollector cov(mgr.environment());
    const ij::CampaignResult run = mgr.run(wl, list, &cov, opt);
    EXPECT_EQ(reg.counter("inject.faults_simulated") - before,
              distinct.size());

    const ij::CampaignResult once = mgr.run(wl, distinct, nullptr, opt);
    // Same work as a run of the distinct list (on a single thread; with
    // more, the bit-sliced cycle count depends on the scheduling).
    if (opt.threads == 1) {
      EXPECT_EQ(run.cyclesSimulated, once.cyclesSimulated);
    }
    ij::CampaignResult fannedOut;
    ij::CoverageCollector expectedCov(mgr.environment());
    for (const std::size_t i : slot) {
      fannedOut.records.push_back(once.records[i]);
      expectedCov.account(once.records[i].obs);
    }
    expectRecordsEqual(run, fannedOut);
    EXPECT_EQ(cov.injections(), list.size());
    EXPECT_DOUBLE_EQ(cov.completeness(), expectedCov.completeness());
    EXPECT_EQ(cov.toJson().dump(), expectedCov.toJson().dump());
  }
}
