#include "serve/worker.hpp"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fault/engine_context.hpp"
#include "fault/serialize.hpp"
#include "faultsim/serial.hpp"
#include "inject/delta.hpp"
#include "inject/env_builder.hpp"
#include "inject/manager.hpp"
#include "inject/workload.hpp"
#include "memsys/gatelevel.hpp"
#include "memsys/workloads.hpp"
#include "netlist/hash.hpp"
#include "netlist/text_format.hpp"
#include "serve/job.hpp"
#include "serve/protocol.hpp"
#include "zones/effects.hpp"
#include "zones/serialize.hpp"

namespace socfmea::serve {

namespace {

// Everything a job rebuilds, in dependency order: the netlist outlives the
// compiled design, which outlives the zone database, which the effects
// model, environment and manager point into.  Members are destroyed in
// reverse declaration order, which is exactly the teardown the pointers
// require.
struct WorkerContext {
  std::unique_ptr<memsys::GateLevelDesign> builtDesign;
  std::unique_ptr<netlist::Netlist> parsedDesign;
  const netlist::Netlist* nl = nullptr;

  // Campaign kind.
  std::optional<zones::ZoneDatabase> db;
  std::unique_ptr<zones::EffectsModel> effects;
  inject::InjectionEnvironment env;
  std::unique_ptr<inject::InjectionManager> mgr;
  inject::CampaignOptions copt;

  // Faultsim kind.
  std::unique_ptr<fault::EngineContext> ctx;
  faultsim::FaultSimOptions fsOpt;

  std::unique_ptr<sim::Workload> wl;
  bool campaignKind = true;
};

bool sendError(int outFd, const std::string& message) {
  obs::Json m = obs::Json::object();
  m["type"] = "error";
  m["message"] = message;
  return writeMessage(outFd, m);
}

/// Builds the design named by the job spec; null + `error` on failure.
bool buildDesign(const obs::Json& job, WorkerContext& cx, std::string& error) {
  const obs::Json* design = job.find("design");
  if (design == nullptr || !design->isObject()) {
    error = "job has no design spec";
    return false;
  }
  if (const obs::Json* text = design->find("text");
      text != nullptr && text->isString()) {
    try {
      cx.parsedDesign =
          std::make_unique<netlist::Netlist>(
              netlist::readNetlistString(text->asString()));
    } catch (const std::exception& e) {
      error = std::string("design text parse failed: ") + e.what();
      return false;
    }
    cx.nl = cx.parsedDesign.get();
  } else if (msgString(*design, "builder") == "protection-ip") {
    memsys::GateLevelOptions opt;
    const std::string edit = msgString(*design, "edit", "none");
    if (!applyProtectionEdit(edit, opt)) {
      error = "unknown protection edit: " + edit;
      return false;
    }
    cx.builtDesign = std::make_unique<memsys::GateLevelDesign>(
        memsys::buildProtectionIp(opt));
    // Architecture-search candidates: re-apply the coordinator's transform
    // list under the canonical scopes; the hash check below then proves the
    // rebuild matched bit-for-bit.
    if (const obs::Json* specs = design->find("transforms");
        specs != nullptr && specs->isArray()) {
      std::vector<search::TransformSpec> list;
      for (const obs::Json& s : specs->elements()) {
        const auto spec = search::TransformSpec::fromJson(s);
        if (!spec) {
          error = "malformed transform spec in design";
          return false;
        }
        list.push_back(*spec);
      }
      const auto applied =
          search::applyTransforms(cx.builtDesign->nl, list);
      if (!applied) {
        error = "transform did not resolve on the rebuilt base design";
        return false;
      }
      for (const search::AppliedTransform& t : *applied) {
        cx.builtDesign->alarmNames.insert(cx.builtDesign->alarmNames.end(),
                                          t.alarmNames.begin(),
                                          t.alarmNames.end());
      }
    }
    cx.nl = &cx.builtDesign->nl;
  } else {
    error = "unsupported design spec";
    return false;
  }
  const std::string want = msgString(job, "design_hash");
  const std::string got = netlist::hashHex(netlist::hashNetlist(*cx.nl));
  if (!want.empty() && want != got) {
    error = "design hash mismatch: coordinator " + want + " vs worker " + got;
    return false;
  }
  return true;
}

/// Rebuilds the workload from its named deterministic spec.
bool buildWorkload(const obs::Json& job, WorkerContext& cx,
                   std::string& error) {
  const obs::Json* spec = job.find("workload");
  if (spec == nullptr || !spec->isObject()) {
    error = "job has no workload spec";
    return false;
  }
  const std::string kind = msgString(*spec, "kind");
  if (kind == "protection-ip") {
    if (!cx.builtDesign) {
      error = "protection-ip workload requires the protection-ip builder";
      return false;
    }
    memsys::ProtectionIpWorkload::Options wopt;
    wopt.cycles = static_cast<std::uint64_t>(msgInt(*spec, "cycles", 2000));
    wopt.seed = static_cast<std::uint64_t>(msgInt(*spec, "seed", 42));
    wopt.resetCycles =
        static_cast<std::uint64_t>(msgInt(*spec, "reset_cycles", 4));
    wopt.exerciseBist = msgBool(*spec, "bist", true);
    wopt.exerciseMpu = msgBool(*spec, "mpu", true);
    wopt.plantEccErrors = msgBool(*spec, "ecc", true);
    wopt.pacing = static_cast<std::uint64_t>(msgInt(*spec, "pacing", 4));
    cx.wl = std::make_unique<memsys::ProtectionIpWorkload>(*cx.builtDesign,
                                                           wopt);
    return true;
  }
  if (kind == "vector") {
    const obs::Json* in = spec->find("inputs");
    const obs::Json* stim = spec->find("stim");
    if (in == nullptr || !in->isArray() || stim == nullptr ||
        !stim->isArray()) {
      error = "vector workload spec is missing inputs/stim";
      return false;
    }
    std::vector<netlist::NetId> inputs;
    for (const obs::Json& name : in->elements()) {
      const std::optional<netlist::NetId> id =
          name.isString() ? cx.nl->findNet(name.asString()) : std::nullopt;
      if (!id) {
        error = "vector workload input not in design: " +
                (name.isString() ? name.asString() : std::string("<bad>"));
        return false;
      }
      inputs.push_back(*id);
    }
    std::vector<std::vector<bool>> values;
    values.reserve(stim->size());
    for (const obs::Json& row : stim->elements()) {
      if (!row.isString() || row.asString().size() != inputs.size()) {
        error = "vector workload stimulus row does not match inputs";
        return false;
      }
      std::vector<bool> cycle;
      cycle.reserve(inputs.size());
      for (const char c : row.asString()) cycle.push_back(c == '1');
      values.push_back(std::move(cycle));
    }
    cx.wl = std::make_unique<inject::VectorWorkload>(
        msgString(*spec, "name", "vector"), std::move(inputs),
        std::move(values));
    return true;
  }
  error = "unknown workload kind: " + kind;
  return false;
}

bool buildContext(const obs::Json& job, WorkerContext& cx,
                  std::string& error) {
  if (!buildDesign(job, cx, error)) return false;
  const std::string kind = msgString(job, "kind");
  if (kind == "campaign") {
    cx.campaignKind = true;
    netlist::CompiledDesignPtr cd;
    try {
      cd = netlist::compile(*cx.nl);
    } catch (const std::exception& e) {
      error = std::string("design compile failed: ") + e.what();
      return false;
    }
    const obs::Json* zj = job.find("zones");
    if (zj == nullptr) {
      error = "campaign job has no zones artifact";
      return false;
    }
    cx.db = zones::zonesFromJson(*cx.nl, cd, *zj);
    if (!cx.db) {
      error = "zones artifact does not bind to the design";
      return false;
    }
    std::vector<std::string> alarmNames;
    if (const obs::Json* a = job.find("alarm_names");
        a != nullptr && a->isArray()) {
      for (const obs::Json& n : a->elements()) {
        if (n.isString()) alarmNames.push_back(n.asString());
      }
    }
    cx.effects =
        std::make_unique<zones::EffectsModel>(*cx.db, std::move(alarmNames));
    std::uint64_t seed = 1;
    std::uint64_t window = 16;
    if (const obs::Json* e = job.find("env"); e != nullptr && e->isObject()) {
      seed = static_cast<std::uint64_t>(msgInt(*e, "seed", 1));
      window = static_cast<std::uint64_t>(msgInt(*e, "window", 16));
    }
    cx.env = inject::EnvironmentBuilder(*cx.db, *cx.effects)
                 .withSeed(seed)
                 .withDetectionWindow(window)
                 .build();
    cx.mgr = std::make_unique<inject::InjectionManager>(*cx.nl, cx.env);
    if (const obs::Json* c = job.find("campaign");
        c != nullptr && c->isObject()) {
      cx.copt.earlyAbort = msgBool(*c, "early_abort", true);
      cx.copt.drainCycles =
          static_cast<std::uint64_t>(msgInt(*c, "drain", 0));
      const std::string engine = msgString(*c, "engine", "serial");
      const std::optional<faultsim::EngineKind> k = engineKindFromName(engine);
      if (!k) {
        error = "unknown campaign engine: " + engine;
        return false;
      }
      cx.copt.engine = *k;
      cx.copt.laneWords =
          static_cast<unsigned>(msgInt(*c, "lane_words", 0));
      // A worker is one shard of a multi-process fan-out: one bit-sliced
      // worker thread unless the job explicitly asks for more on top.
      cx.copt.threads = static_cast<unsigned>(msgInt(*c, "threads", 1));
      cx.copt.checkpointInterval =
          static_cast<std::uint64_t>(msgInt(*c, "checkpoint_interval", 0));
      if (const std::optional<sim::EvalMode> m =
              evalModeFromName(msgString(*c, "eval_mode", "event-driven"))) {
        cx.copt.evalMode = *m;
      }
      if (const obs::Json* pre = c->find("preexisting")) {
        const std::optional<fault::Fault> f =
            fault::faultFromJson(*cx.nl, *pre);
        if (!f) {
          error = "preexisting fault does not bind to the design";
          return false;
        }
        cx.copt.preexisting = *f;
      }
    }
    return buildWorkload(job, cx, error);
  }
  if (kind == "faultsim") {
    cx.campaignKind = false;
    try {
      cx.ctx = std::make_unique<fault::EngineContext>(*cx.nl);
    } catch (const std::exception& e) {
      error = std::string("design compile failed: ") + e.what();
      return false;
    }
    if (const obs::Json* f = job.find("faultsim");
        f != nullptr && f->isObject()) {
      cx.fsOpt.earlyAbort = msgBool(*f, "early_abort", true);
      if (const std::optional<sim::EvalMode> m =
              evalModeFromName(msgString(*f, "eval_mode", "event-driven"))) {
        cx.fsOpt.evalMode = *m;
      }
    }
    cx.fsOpt.engine = faultsim::EngineKind::Serial;
    return buildWorkload(job, cx, error);
  }
  error = "unknown job kind: " + kind;
  return false;
}

/// Parses one work chunk's faults; null + `error` when any key fails to
/// bind (a partial chunk would silently drop verdicts).
std::optional<fault::FaultList> parseChunkFaults(const obs::Json& msg,
                                                 const netlist::Netlist& nl,
                                                 std::string& error) {
  const obs::Json* fj = msg.find("faults");
  if (fj == nullptr || !fj->isArray()) {
    error = "work message has no fault array";
    return std::nullopt;
  }
  fault::FaultList faults;
  faults.reserve(fj->size());
  for (const obs::Json& e : fj->elements()) {
    const std::optional<fault::Fault> f = fault::faultFromJson(nl, e);
    if (!f) {
      error = "work chunk fault does not bind to the design";
      return std::nullopt;
    }
    faults.push_back(*f);
  }
  return faults;
}

obs::Json runChunk(WorkerContext& cx, const fault::FaultList& faults) {
  obs::Json records = obs::Json::array();
  if (cx.campaignKind) {
    const inject::CampaignResult r =
        cx.mgr->run(*cx.wl, faults, nullptr, cx.copt);
    obs::Json art =
        inject::campaignRecordsToJson(*cx.nl, *cx.db, *cx.effects, r);
    if (const obs::Json* recs = art.find("records")) records = *recs;
  } else {
    const faultsim::FaultSimResult r =
        faultsim::runSerialFaultSim(*cx.ctx, *cx.wl, faults, cx.fsOpt);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      obs::Json rec = obs::Json::object();
      rec["key"] = fault::faultKey(*cx.nl, faults[i]);
      rec["detected"] = r.outcomes[i] == faultsim::FaultOutcome::Detected;
      records.push_back(std::move(rec));
    }
  }
  return records;
}

/// Parses "<index>:<n>" / "<index>" drill hooks against this worker's index.
bool crashesOnChunk(const char* spec, int workerIndex, std::uint64_t nth) {
  if (spec == nullptr || workerIndex < 0) return false;
  int idx = -1;
  unsigned long long n = 0;
  if (std::sscanf(spec, "%d:%llu", &idx, &n) != 2) return false;
  return idx == workerIndex && n == nth;
}

bool hangsOnChunk(const char* spec, int workerIndex) {
  if (spec == nullptr || workerIndex < 0) return false;
  int idx = -1;
  if (std::sscanf(spec, "%d", &idx) != 1) return false;
  return idx == workerIndex;
}

}  // namespace

int workerMain(int inFd, int outFd) {
  // The coordinator may die first; a write to the closed pipe must surface
  // as an error return, not SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  {
    obs::Json hello = obs::Json::object();
    hello["type"] = "hello";
    if (!writeMessage(outFd, hello)) return 1;
  }

  WorkerContext cx;
  bool haveJob = false;
  int workerIndex = -1;
  std::uint64_t chunksSeen = 0;

  LineReader reader;
  std::vector<std::string> lines;
  for (;;) {
    lines.clear();
    const LineReader::Status st = reader.poll(inFd, lines);
    for (const std::string& line : lines) {
      const std::optional<obs::Json> msg = parseMessage(line);
      if (!msg) continue;  // torn line: skip, the framing resyncs at '\n'
      const std::string type = msgString(*msg, "type");
      if (type == "quit") return 0;
      if (type == "job") {
        std::string error;
        if (!buildContext(*msg, cx, error)) {
          (void)sendError(outFd, error);
          return 1;
        }
        haveJob = true;
        workerIndex = static_cast<int>(msgInt(*msg, "worker_index", -1));
        obs::Json ready = obs::Json::object();
        ready["type"] = "ready";
        if (!writeMessage(outFd, ready)) return 1;
        continue;
      }
      if (type == "work") {
        if (!haveJob) {
          (void)sendError(outFd, "work before job");
          return 1;
        }
        ++chunksSeen;
        const std::int64_t chunk = msgInt(*msg, "chunk", -1);
        obs::Json hb = obs::Json::object();
        hb["type"] = "hb";
        hb["chunk"] = chunk;
        if (!writeMessage(outFd, hb)) return 1;
        if (crashesOnChunk(std::getenv("SOCFMEA_SERVE_CRASH_WORKER"),
                           workerIndex, chunksSeen)) {
          std::_Exit(42);  // drill: die mid-shard without a goodbye
        }
        if (chunksSeen == 1 &&
            hangsOnChunk(std::getenv("SOCFMEA_SERVE_HANG_WORKER"),
                         workerIndex)) {
          for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
        }
        std::string error;
        const std::optional<fault::FaultList> faults =
            parseChunkFaults(*msg, *cx.nl, error);
        if (!faults) {
          (void)sendError(outFd, error);
          return 1;
        }
        obs::Json reply = obs::Json::object();
        reply["type"] = "verdicts";
        reply["chunk"] = chunk;
        try {
          reply["records"] = runChunk(cx, *faults);
        } catch (const std::exception& e) {
          (void)sendError(outFd, std::string("chunk failed: ") + e.what());
          return 1;
        }
        if (!writeMessage(outFd, reply)) return 1;
        continue;
      }
      // Unknown message types are skipped (forward compatibility).
    }
    if (st == LineReader::Status::Eof) return 0;
    if (st == LineReader::Status::WouldBlock) {
      // The worker fd is blocking in production; tolerate a non-blocking
      // test harness by idling briefly instead of spinning.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
}

}  // namespace socfmea::serve
