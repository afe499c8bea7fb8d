// The distributed campaign layer's contracts:
//
//   * the wire protocol — pack/parse round trips, torn and foreign lines
//     degrade to drops (never to a dead coordinator), the line splitter
//     reassembles messages across arbitrary read boundaries;
//   * shard planning — every fault lands in exactly one chunk, permanents
//     lead and transients follow by ascending activation cycle;
//   * the artifact store under concurrency — two processes saving the same
//     content key race-free (atomic rename), a corrupt partial file is a
//     miss, --cache-dir paths are validated without side effects;
//   * the coordinator — merged shard verdicts are bit-identical to the
//     serial oracle on random designs, with a worker crashed mid-shard,
//     with a worker hanging past the heartbeat timeout, and with every
//     worker lost (local fallback);
//   * the campaign form — runShardedCampaign equals InjectionManager::run
//     record-for-record on the protection IP;
//   * the worker — a job naming an unknown campaign engine (including the
//     retired "threaded" / "auto") gets an error reply, not the default.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/artifact_store.hpp"
#include "core/frmem_config.hpp"
#include "fault/engine_context.hpp"
#include "fault/fault_list.hpp"
#include "faultsim/serial.hpp"
#include "inject/delta.hpp"
#include "inject/env_builder.hpp"
#include "inject/manager.hpp"
#include "inject/profile.hpp"
#include "inject/workload.hpp"
#include "memsys/workloads.hpp"
#include "netlist/compiled.hpp"
#include "serve/coordinator.hpp"
#include "serve/job.hpp"
#include "serve/protocol.hpp"
#include "serve/shard.hpp"
#include "serve/worker.hpp"
#include "testkit/netlist_gen.hpp"
#include "testkit/plan.hpp"
#include "testkit/seed.hpp"
#include "zones/extract.hpp"

namespace core = socfmea::core;
namespace fault = socfmea::fault;
namespace faultsim = socfmea::faultsim;
namespace fs = std::filesystem;
namespace inject = socfmea::inject;
namespace ms = socfmea::memsys;
namespace nlst = socfmea::netlist;
namespace serve = socfmea::serve;
namespace sim = socfmea::sim;
namespace tk = socfmea::testkit;

using socfmea::obs::Json;

namespace {

/// Scoped environment variable for the worker drill hooks.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~EnvGuard() { ::unsetenv(name_); }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
};

fs::path freshDir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  return dir;
}

/// Worker argv for every distributed test: the standalone shard executor
/// (the gtest binary itself does not speak --serve-worker).
std::vector<std::string> workerCmd() { return {SOCFMEA_WORKER_BIN}; }

struct FuzzCase {
  nlst::Netlist nl;
  tk::TestPlan plan;
};

/// First generated case from `seed` with enough faults to spread over
/// several chunks.
FuzzCase makeCase(std::uint64_t seed, std::size_t minFaults = 16) {
  for (std::uint64_t run = 0;; ++run) {
    sim::Rng rng(tk::derivedSeed(seed, run));
    const auto genOpt = tk::randomOptions(rng);
    nlst::Netlist nl = tk::generateNetlist(genOpt, rng);
    const auto planOpt = tk::randomPlanOptions(rng);
    tk::TestPlan plan = tk::generatePlan(nl, planOpt, rng);
    plan.name = "serve-case";
    if (plan.faults.size() >= minFaults && !plan.stimulus.empty()) {
      return {std::move(nl), std::move(plan)};
    }
  }
}

faultsim::FaultSimResult serialReference(const FuzzCase& c) {
  const fault::EngineContext ctx(c.nl);
  inject::VectorWorkload wl(c.plan.name, c.plan.inputs, c.plan.stimulus);
  return faultsim::runSerialFaultSim(ctx, wl, c.plan.faults);
}

Json faultSimJob(const FuzzCase& c) {
  return serve::makeFaultSimJob(
      c.nl,
      serve::vectorWorkloadSpec(c.nl, c.plan.name, c.plan.inputs,
                                c.plan.stimulus),
      sim::EvalMode::EventDriven, /*earlyAbort=*/true);
}

}  // namespace

// ---------------------------------------------------------------- protocol

TEST(ServeProtocol, PackParseRoundTrip) {
  Json m = Json::object();
  m["type"] = "work";
  m["chunk"] = static_cast<std::int64_t>(7);
  Json arr = Json::array();
  arr.push_back(Json("sa0 net x"));
  m["faults"] = std::move(arr);

  const std::string line = serve::packMessage(m);
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(line.find('\n'), line.size() - 1) << "framing must be one line";

  const auto parsed = serve::parseMessage(
      std::string_view(line).substr(0, line.size() - 1));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(serve::msgString(*parsed, "type"), "work");
  EXPECT_EQ(serve::msgInt(*parsed, "chunk"), 7);
}

TEST(ServeProtocol, TornAndForeignLinesAreDropped) {
  EXPECT_FALSE(serve::parseMessage("{\"type\":\"work\",\"chu").has_value());
  EXPECT_FALSE(serve::parseMessage("42").has_value());
  EXPECT_FALSE(serve::parseMessage("{\"no_type\":1}").has_value());
  EXPECT_FALSE(serve::parseMessage("").has_value());
  // Unknown types parse fine — the dispatcher skips them (forward compat).
  EXPECT_TRUE(serve::parseMessage("{\"type\":\"from_the_future\"}"));
}

TEST(ServeProtocol, TolerantAccessorsDefaultOnMismatch) {
  const auto m = serve::parseMessage("{\"type\":\"x\",\"n\":3,\"s\":\"v\"}");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(serve::msgString(*m, "s"), "v");
  EXPECT_EQ(serve::msgString(*m, "missing", "def"), "def");
  EXPECT_EQ(serve::msgString(*m, "n", "def"), "def") << "mistyped -> default";
  EXPECT_EQ(serve::msgInt(*m, "n"), 3);
  EXPECT_EQ(serve::msgInt(*m, "s", -1), -1);
  EXPECT_FALSE(serve::msgBool(*m, "n", false));
}

TEST(ServeProtocol, LineReaderReassemblesAcrossReads) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  serve::LineReader reader;
  std::vector<std::string> lines;

  const std::string msg = "{\"type\":\"hb\",\"chunk\":1}\n";
  ASSERT_EQ(::write(fds[1], msg.data(), 10), 10);
  EXPECT_EQ(reader.poll(fds[0], lines), serve::LineReader::Status::Data);
  EXPECT_TRUE(lines.empty()) << "half a message is not a line";

  const std::string rest = msg.substr(10) + "{\"type\":\"quit\"}\n";
  ASSERT_EQ(::write(fds[1], rest.data(), static_cast<ssize_t>(rest.size())),
            static_cast<ssize_t>(rest.size()));
  EXPECT_EQ(reader.poll(fds[0], lines), serve::LineReader::Status::Data);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], msg.substr(0, msg.size() - 1));
  EXPECT_EQ(lines[1], "{\"type\":\"quit\"}");

  ::close(fds[1]);
  EXPECT_EQ(reader.poll(fds[0], lines), serve::LineReader::Status::Eof);
  ::close(fds[0]);
}

// ------------------------------------------------------------------ shards

TEST(ServeShard, OrderIsPermanentsFirstThenTransientsByCycle) {
  fault::FaultList faults;
  fault::Fault seu;
  seu.kind = fault::FaultKind::SeuFlip;
  seu.cell = 0;
  seu.cycle = 30;
  faults.push_back(seu);
  fault::Fault sa0;
  sa0.kind = fault::FaultKind::StuckAt0;
  sa0.net = 1;
  faults.push_back(sa0);
  seu.cycle = 10;
  faults.push_back(seu);
  fault::Fault sa1;
  sa1.kind = fault::FaultKind::StuckAt1;
  sa1.net = 2;
  faults.push_back(sa1);
  seu.cycle = 20;
  faults.push_back(seu);

  const auto order = serve::campaignOrder(faults);
  ASSERT_EQ(order.size(), faults.size());
  bool seenTransient = false;
  std::uint64_t lastCycle = 0;
  for (const std::size_t idx : order) {
    const fault::Fault& f = faults[idx];
    if (f.transient()) {
      EXPECT_GE(f.cycle, lastCycle) << "transients by ascending cycle";
      lastCycle = f.cycle;
      seenTransient = true;
    } else {
      EXPECT_FALSE(seenTransient) << "permanent after a transient";
    }
  }
  EXPECT_TRUE(seenTransient);
}

TEST(ServeShard, PlanCoversEveryFaultExactlyOnce) {
  const FuzzCase c = makeCase(11, 24);
  const serve::ShardPlan plan = serve::planShards(c.plan.faults, 3);
  EXPECT_EQ(plan.faultCount, c.plan.faults.size());
  EXPECT_GE(plan.chunks.size(), 3u) << "auto sizing: several chunks/worker";

  std::vector<unsigned> hits(c.plan.faults.size(), 0);
  for (const auto& chunk : plan.chunks) {
    EXPECT_FALSE(chunk.empty());
    for (const std::size_t idx : chunk) {
      ASSERT_LT(idx, hits.size());
      ++hits[idx];
    }
  }
  for (const unsigned h : hits) EXPECT_EQ(h, 1u);

  const serve::ShardPlan fixed = serve::planShards(c.plan.faults, 2, 5);
  for (const auto& chunk : fixed.chunks) EXPECT_LE(chunk.size(), 5u);
}

// ------------------------------------------------------------------- store

TEST(ServeStore, ValidateDirDiagnosesWithoutSideEffects) {
  const fs::path ok = freshDir("socfmea-serve-validate");
  fs::create_directories(ok);
  EXPECT_FALSE(core::ArtifactStore::validateDir(ok).has_value());
  EXPECT_TRUE(fs::is_empty(ok)) << "the probe must clean up after itself";

  const auto missingParent =
      core::ArtifactStore::validateDir("/no-such-parent-anywhere/store");
  ASSERT_TRUE(missingParent.has_value());
  EXPECT_NE(missingParent->find("parent"), std::string::npos);
  EXPECT_FALSE(fs::exists("/no-such-parent-anywhere"));

  const fs::path file = ok / "occupied";
  std::ofstream(file) << "not a directory";
  EXPECT_TRUE(core::ArtifactStore::validateDir(file).has_value())
      << "a regular file cannot serve as a store";
  EXPECT_TRUE(core::ArtifactStore::validateDir(file / "child").has_value())
      << "a regular file cannot be a store parent";
  fs::remove_all(ok);
}

TEST(ServeStore, TwoProcessesSavingTheSameKeyRaceFree) {
  const fs::path dir = freshDir("socfmea-serve-race");
  Json artifact = Json::object();
  artifact["payload"] = "identical-in-both-processes";

  // Parent and child hammer the same stage/key concurrently; the atomic
  // tmp-file + rename discipline must leave a complete, parseable artifact
  // no matter how the renames interleave.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    core::ArtifactStore child(dir);
    for (int i = 0; i < 50; ++i) child.save("race-stage", 0xC0FFEE, artifact);
    std::_Exit(0);
  }
  {
    core::ArtifactStore parent(dir);
    for (int i = 0; i < 50; ++i) parent.save("race-stage", 0xC0FFEE, artifact);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  core::ArtifactStore fresh(dir);  // fresh LRU: forces the disk read
  const auto loaded = fresh.load("race-stage", 0xC0FFEE);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->dump(0), artifact.dump(0));
  for (const auto& e : fs::directory_iterator(dir)) {
    EXPECT_EQ(e.path().extension(), ".json")
        << "no tmp files may survive: " << e.path();
  }
  fs::remove_all(dir);
}

TEST(ServeStore, CorruptPartialFileIsAMiss) {
  const fs::path dir = freshDir("socfmea-serve-corrupt");
  Json artifact = Json::object();
  artifact["ok"] = true;
  {
    core::ArtifactStore store(dir);
    store.save("stage", 0xBAD, artifact);
  }
  fs::path artifactFile;
  for (const auto& e : fs::directory_iterator(dir)) artifactFile = e.path();
  ASSERT_FALSE(artifactFile.empty());
  std::ofstream(artifactFile, std::ios::trunc) << "{\"ok\":tr";  // torn write

  core::ArtifactStore store(dir);
  EXPECT_FALSE(store.load("stage", 0xBAD).has_value());
  fs::remove_all(dir);
}

// ------------------------------------------------------- distributed engine

TEST(ServeDistributed, ShardedFaultSimMatchesSerialOracle) {
  const FuzzCase c = makeCase(21);
  const auto ref = serialReference(c);

  serve::DistributedOptions dopt;
  dopt.workers = 2;
  dopt.workerCmd = workerCmd();
  serve::DistributedStats stats;
  const auto outcomes =
      serve::runShardedFaultSim(c.nl, faultSimJob(c), c.plan.faults, dopt,
                                &stats);
  EXPECT_EQ(outcomes, ref.outcomes);
  EXPECT_EQ(stats.workersSpawned, 2u);
  EXPECT_EQ(stats.workersLost, 0u) << stats.firstError;
  EXPECT_EQ(stats.faultsFallback, 0u);
  EXPECT_EQ(stats.faultsTotal, c.plan.faults.size());
}

TEST(ServeDistributed, CrashedWorkerChunksAreRequeued) {
  const FuzzCase c = makeCase(22, 24);
  const auto ref = serialReference(c);

  // Worker 0 dies (hard _Exit, no goodbye) right after heartbeating its
  // first chunk; the survivor must absorb the requeued work.
  const EnvGuard crash("SOCFMEA_SERVE_CRASH_WORKER", "0:1");
  serve::DistributedOptions dopt;
  dopt.workers = 2;
  dopt.chunkFaults = 4;
  dopt.workerCmd = workerCmd();
  serve::DistributedStats stats;
  const auto outcomes =
      serve::runShardedFaultSim(c.nl, faultSimJob(c), c.plan.faults, dopt,
                                &stats);
  EXPECT_EQ(outcomes, ref.outcomes) << "a crash must not change verdicts";
  EXPECT_EQ(stats.workersLost, 1u);
  EXPECT_GE(stats.chunksRequeued, 1u);
  EXPECT_EQ(stats.faultsFallback, 0u) << "the survivor covers everything";
}

TEST(ServeDistributed, HangingWorkerIsTimedOutAndReplaced) {
  const FuzzCase c = makeCase(23, 24);
  const auto ref = serialReference(c);

  const EnvGuard hang("SOCFMEA_SERVE_HANG_WORKER", "0");
  serve::DistributedOptions dopt;
  dopt.workers = 2;
  dopt.chunkFaults = 4;
  dopt.workerCmd = workerCmd();
  dopt.timeoutSeconds = 1.5;  // drill: fail the heartbeat fast
  serve::DistributedStats stats;
  const auto outcomes =
      serve::runShardedFaultSim(c.nl, faultSimJob(c), c.plan.faults, dopt,
                                &stats);
  EXPECT_EQ(outcomes, ref.outcomes);
  EXPECT_EQ(stats.workersLost, 1u);
  EXPECT_GE(stats.chunksRequeued, 1u);
}

TEST(ServeDistributed, AllWorkersLostFallsBackLocally) {
  const FuzzCase c = makeCase(24, 24);
  const auto ref = serialReference(c);

  const EnvGuard crash("SOCFMEA_SERVE_CRASH_WORKER", "0:1");
  serve::DistributedOptions dopt;
  dopt.workers = 1;  // the only worker dies -> nobody left
  dopt.chunkFaults = 4;
  dopt.workerCmd = workerCmd();
  serve::DistributedStats stats;
  const auto outcomes =
      serve::runShardedFaultSim(c.nl, faultSimJob(c), c.plan.faults, dopt,
                                &stats);
  EXPECT_EQ(outcomes, ref.outcomes);
  EXPECT_EQ(stats.workersLost, 1u);
  EXPECT_GT(stats.faultsFallback, 0u) << "the local fallback must engage";
}

TEST(ServeDistributed, ShardedCampaignMatchesInjectionManager) {
  const ms::GateLevelDesign dut =
      ms::buildProtectionIp(ms::GateLevelOptions::v2());
  core::FmeaFlow flow(dut.nl, core::makeFrmemFlowConfig(dut));
  const inject::InjectionEnvironment env =
      inject::EnvironmentBuilder(flow.zones(), flow.effects())
          .withSeed(42)
          .withDetectionWindow(24)
          .build();

  ms::ProtectionIpWorkload::Options wopt;
  wopt.cycles = 300;
  ms::ProtectionIpWorkload workload(dut, wopt);
  const auto profile =
      inject::OperationalProfile::record(flow.zones(), workload);
  fault::FaultList candidates = fault::allSeuFaults(dut.nl);
  fault::append(candidates, fault::allStuckAtFaults(dut.nl));
  inject::collapseAgainstProfile(flow.zones(), profile, candidates);
  const fault::FaultList faults =
      inject::randomizeFaultList(flow.zones(), profile, candidates, 48, 42);
  ASSERT_GE(faults.size(), 16u);

  inject::InjectionManager mgr(dut.nl, env);
  const inject::CampaignResult serial = mgr.run(workload, faults, nullptr);

  nlst::CompiledDesignPtr cd = flow.zones().compiledShared();
  if (!cd) cd = nlst::compile(dut.nl);
  const Json job = serve::makeCampaignJob(
      dut.nl, flow.zones(), flow.config().alarmNames, /*envSeed=*/42,
      /*detectionWindow=*/24, {}, serve::protectionIpDesignSpec("v2"),
      serve::protectionIpWorkloadSpec(wopt.cycles));
  serve::DistributedOptions dopt;
  dopt.workers = 2;
  dopt.workerCmd = workerCmd();
  serve::DistributedStats stats;
  inject::DeltaStats delta;
  const inject::CampaignResult sharded = serve::runShardedCampaign(
      mgr, workload, faults, *cd, job, dopt, /*revalidateFraction=*/0.02,
      /*revalidateSeed=*/0x5EEDCAFE, nullptr, {}, &delta, &stats);

  // Name-based record artifacts capture every verdict field; equality here
  // is the merge-soundness contract.
  const Json a = inject::campaignRecordsToJson(dut.nl, flow.zones(),
                                               flow.effects(), serial);
  const Json b = inject::campaignRecordsToJson(dut.nl, flow.zones(),
                                               flow.effects(), sharded);
  EXPECT_EQ(a.dump(0), b.dump(0));
  EXPECT_EQ(stats.workersLost, 0u);
  EXPECT_EQ(delta.mismatches, 0u) << "revalidation sample must agree";
  EXPECT_GT(delta.revalidated, 0u) << "the 2% self-heal sample must run";
}

// ------------------------------------------------------------------ worker

TEST(ServeWorker, UnknownCampaignEngineIsAnErrorReply) {
  const FuzzCase c = makeCase(tk::testSeed(0x5E1F));
  const socfmea::zones::ZoneDatabase db = socfmea::zones::extractZones(c.nl);
  const fs::path dir = freshDir("socfmea-serve-worker-engine");
  fs::create_directories(dir);
  for (const char* engine : {"threaded", "auto", "warp", "bitsliced"}) {
    SCOPED_TRACE(engine);
    Json job = serve::makeCampaignJob(
        c.nl, db, {}, /*envSeed=*/1, /*detectionWindow=*/16, {},
        serve::textDesignSpec(c.nl),
        serve::vectorWorkloadSpec(c.nl, c.plan.name, c.plan.inputs,
                                  c.plan.stimulus));
    job["campaign"]["engine"] = std::string(engine);
    const fs::path in = dir / "in.jsonl";
    const fs::path out = dir / "out.jsonl";
    std::ofstream(in) << serve::packMessage(job);

    const int inFd = ::open(in.c_str(), O_RDONLY);
    const int outFd = ::open(out.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(inFd, 0);
    ASSERT_GE(outFd, 0);
    const int rc = serve::workerMain(inFd, outFd);
    ::close(inFd);
    ::close(outFd);

    std::vector<Json> replies;
    std::ifstream lines(out);
    for (std::string l; std::getline(lines, l);) {
      if (auto m = serve::parseMessage(l)) replies.push_back(std::move(*m));
    }
    ASSERT_EQ(replies.size(), 2u);  // hello + the job's answer
    const Json& answer = replies.back();
    if (std::string(engine) == "bitsliced") {
      EXPECT_EQ(rc, 0);
      EXPECT_EQ(serve::msgString(answer, "type"), "ready");
    } else {
      EXPECT_NE(rc, 0);
      EXPECT_EQ(serve::msgString(answer, "type"), "error");
      EXPECT_NE(serve::msgString(answer, "message").find(engine),
                std::string::npos);
    }
  }
  fs::remove_all(dir);
}
