#include "serve/coordinator.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <deque>
#include <optional>
#include <stdexcept>

#include "fault/serialize.hpp"
#include "inject/workload.hpp"
#include "serve/job.hpp"
#include "obs/telemetry.hpp"
#include "serve/protocol.hpp"
#include "serve/shard.hpp"

namespace socfmea::serve {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct WorkerProc {
  pid_t pid = -1;
  int inFd = -1;   ///< coordinator -> worker (worker's stdin)
  int outFd = -1;  ///< worker -> coordinator (worker's stdout)
  std::string outbuf;          ///< bytes queued toward the worker
  std::size_t outbufAt = 0;    ///< bytes of outbuf already written
  LineReader reader;
  std::deque<std::size_t> outstanding;  ///< dealt, unacknowledged chunk ids
  Clock::time_point lastActivity = Clock::now();
  bool alive = false;
};

void setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void closeFd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// fork/exec one worker; false when the plumbing itself fails.
bool spawnWorker(const std::vector<std::string>& cmd, WorkerProc& w) {
  int toChild[2] = {-1, -1};
  int fromChild[2] = {-1, -1};
  if (::pipe(toChild) != 0) return false;
  if (::pipe(fromChild) != 0) {
    ::close(toChild[0]);
    ::close(toChild[1]);
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(toChild[0]);
    ::close(toChild[1]);
    ::close(fromChild[0]);
    ::close(fromChild[1]);
    return false;
  }
  if (pid == 0) {
    // Child: wire the pipe pair to stdin/stdout and become the worker.
    ::dup2(toChild[0], 0);
    ::dup2(fromChild[1], 1);
    ::close(toChild[0]);
    ::close(toChild[1]);
    ::close(fromChild[0]);
    ::close(fromChild[1]);
    std::vector<char*> argv;
    argv.reserve(cmd.size() + 1);
    for (const std::string& a : cmd) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::_Exit(127);  // exec failed; coordinator sees EOF and falls back
  }
  ::close(toChild[0]);
  ::close(fromChild[1]);
  w.pid = pid;
  w.inFd = toChild[1];
  w.outFd = fromChild[0];
  setNonBlocking(w.inFd);
  setNonBlocking(w.outFd);
  w.alive = true;
  w.lastActivity = Clock::now();
  return true;
}

/// Drains as much of the worker's outbound buffer as the pipe accepts.
/// False on a fatal write error (worker is gone).
bool flushOutbuf(WorkerProc& w) {
  while (w.outbufAt < w.outbuf.size()) {
    const ssize_t n = ::write(w.inFd, w.outbuf.data() + w.outbufAt,
                              w.outbuf.size() - w.outbufAt);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    w.outbufAt += static_cast<std::size_t>(n);
  }
  if (w.outbufAt > 0) {
    w.outbuf.erase(0, w.outbufAt);
    w.outbufAt = 0;
  }
  return true;
}

}  // namespace

obs::Json DistributedStats::toJson() const {
  obs::Json j = obs::Json::object();
  j["workers_spawned"] = static_cast<long long>(workersSpawned);
  j["workers_lost"] = static_cast<long long>(workersLost);
  j["chunks_total"] = static_cast<long long>(chunksTotal);
  j["chunks_requeued"] = static_cast<long long>(chunksRequeued);
  j["verdict_batches"] = static_cast<long long>(verdictBatches);
  j["faults_total"] = static_cast<long long>(faultsTotal);
  j["faults_fallback"] = static_cast<long long>(faultsFallback);
  j["wall_seconds"] = wallSeconds;
  if (!firstError.empty()) j["first_error"] = firstError;
  return j;
}

std::unordered_map<std::string, obs::Json> runDistributed(
    const netlist::Netlist& nl, const obs::Json& jobSpec,
    const fault::FaultList& faults, const DistributedOptions& opt,
    const LocalFallback& fallback, DistributedStats* stats) {
  const Clock::time_point t0 = Clock::now();
  DistributedStats local;
  DistributedStats& st = stats != nullptr ? *stats : local;
  st = DistributedStats{};
  st.faultsTotal = faults.size();

  std::unordered_map<std::string, obs::Json> verdicts;
  verdicts.reserve(faults.size());
  if (faults.empty()) return verdicts;

  // A worker dying while we write its pipe must not kill the coordinator.
  std::signal(SIGPIPE, SIG_IGN);

  const unsigned workers = opt.workers == 0 ? 1 : opt.workers;
  const ShardPlan plan = planShards(faults, workers, opt.chunkFaults);
  st.chunksTotal = plan.chunks.size();

  std::vector<std::string> cmd = opt.workerCmd;
  if (cmd.empty()) cmd = {"/proc/self/exe", "--serve-worker"};

  // Pre-serialized work messages, one per chunk (a requeue resends the same
  // bytes, so serialization cost is paid once).
  std::vector<std::string> workWire(plan.chunks.size());
  for (std::size_t c = 0; c < plan.chunks.size(); ++c) {
    obs::Json m = obs::Json::object();
    m["type"] = "work";
    m["chunk"] = static_cast<long long>(c);
    obs::Json fj = obs::Json::array();
    for (const std::size_t fi : plan.chunks[c]) {
      fj.push_back(fault::faultToJson(nl, faults[fi]));
    }
    m["faults"] = std::move(fj);
    workWire[c] = packMessage(m);
  }

  std::deque<std::size_t> pending;
  for (std::size_t c = 0; c < plan.chunks.size(); ++c) pending.push_back(c);
  std::vector<char> chunkDone(plan.chunks.size(), 0);
  std::size_t doneCount = 0;

  std::vector<WorkerProc> procs(workers);
  for (unsigned i = 0; i < workers; ++i) {
    if (!spawnWorker(cmd, procs[i])) continue;
    ++st.workersSpawned;
    obs::Json job = jobSpec;
    job["worker_index"] = static_cast<long long>(i);
    procs[i].outbuf += packMessage(job);
  }

  const std::size_t maxOutstanding =
      opt.maxOutstanding == 0 ? 1 : opt.maxOutstanding;

  auto loseWorker = [&](WorkerProc& w) {
    if (!w.alive) return;
    w.alive = false;
    ++st.workersLost;
    closeFd(w.inFd);
    closeFd(w.outFd);
    if (w.pid > 0) {
      ::kill(w.pid, SIGKILL);
      (void)::waitpid(w.pid, nullptr, 0);
      w.pid = -1;
    }
    st.chunksRequeued += w.outstanding.size();
    // Requeue at the front: a crashed worker's chunks are the oldest
    // unfinished work and gate campaign completion.
    while (!w.outstanding.empty()) {
      pending.push_front(w.outstanding.back());
      w.outstanding.pop_back();
    }
  };

  auto handleMessage = [&](WorkerProc& w, const obs::Json& m) {
    const std::string type = msgString(m, "type");
    if (type == "verdicts") {
      const std::int64_t chunk = msgInt(m, "chunk", -1);
      ++st.verdictBatches;
      if (const obs::Json* recs = m.find("records");
          recs != nullptr && recs->isArray()) {
        for (const obs::Json& rec : recs->elements()) {
          const std::string key = msgString(rec, "key");
          if (!key.empty()) verdicts[key] = rec;
        }
      }
      for (auto it = w.outstanding.begin(); it != w.outstanding.end(); ++it) {
        if (static_cast<std::int64_t>(*it) == chunk) {
          w.outstanding.erase(it);
          break;
        }
      }
      if (chunk >= 0 && static_cast<std::size_t>(chunk) < chunkDone.size() &&
          chunkDone[static_cast<std::size_t>(chunk)] == 0) {
        chunkDone[static_cast<std::size_t>(chunk)] = 1;
        ++doneCount;
      }
    } else if (type == "error") {
      // The worker reported a fatal problem; treat it like a crash (it
      // exits right after sending this) and let the survivors absorb the
      // requeue.  The message is kept as the run's post-mortem.
      if (st.firstError.empty()) {
        st.firstError = msgString(m, "message", "(no message)");
      }
      loseWorker(w);
    }
    // hello / ready / hb only refresh lastActivity, done by the caller.
  };

  while (doneCount < plan.chunks.size()) {
    // Deal work to every worker with spare outstanding capacity.
    for (WorkerProc& w : procs) {
      if (!w.alive) continue;
      while (w.outstanding.size() < maxOutstanding && !pending.empty()) {
        const std::size_t c = pending.front();
        pending.pop_front();
        if (chunkDone[c] != 0) continue;
        w.outstanding.push_back(c);
        w.outbuf += workWire[c];
      }
      if (!flushOutbuf(w)) loseWorker(w);
    }

    std::vector<pollfd> fds;
    std::vector<WorkerProc*> fdOwner;
    for (WorkerProc& w : procs) {
      if (!w.alive) continue;
      pollfd p{};
      p.fd = w.outFd;
      p.events = POLLIN;
      fds.push_back(p);
      fdOwner.push_back(&w);
      if (w.outbufAt < w.outbuf.size()) {
        pollfd q{};
        q.fd = w.inFd;
        q.events = POLLOUT;
        fds.push_back(q);
        fdOwner.push_back(&w);
      }
    }
    if (fds.empty()) break;  // every worker is gone; fallback finishes up

    const int rv = ::poll(fds.data(), fds.size(), 200);
    if (rv < 0 && errno != EINTR) break;

    std::vector<std::string> lines;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      WorkerProc& w = *fdOwner[i];
      if (!w.alive || fds[i].revents == 0) continue;
      if ((fds[i].revents & POLLOUT) != 0) {
        if (!flushOutbuf(w)) {
          loseWorker(w);
          continue;
        }
      }
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
          fds[i].fd == w.outFd) {
        for (;;) {
          lines.clear();
          const LineReader::Status rs = w.reader.poll(w.outFd, lines);
          if (!lines.empty()) w.lastActivity = Clock::now();
          for (const std::string& line : lines) {
            const std::optional<obs::Json> m = parseMessage(line);
            if (m) handleMessage(w, *m);
            if (!w.alive) break;
          }
          if (!w.alive || rs != LineReader::Status::Data) {
            if (w.alive && rs == LineReader::Status::Eof) loseWorker(w);
            break;
          }
        }
      }
    }

    // Heartbeat timeout: a hung worker never closes its pipe, so silence is
    // the only signal.
    for (WorkerProc& w : procs) {
      if (w.alive && !w.outstanding.empty() &&
          secondsSince(w.lastActivity) > opt.timeoutSeconds) {
        loseWorker(w);
      }
    }
  }

  // Clean shutdown for the survivors.
  obs::Json quit = obs::Json::object();
  quit["type"] = "quit";
  const std::string quitWire = packMessage(quit);
  for (WorkerProc& w : procs) {
    if (!w.alive) continue;
    w.outbuf += quitWire;
    (void)flushOutbuf(w);
    closeFd(w.inFd);  // EOF backs up the quit message
    closeFd(w.outFd);
    if (w.pid > 0) (void)::waitpid(w.pid, nullptr, 0);
    w.alive = false;
  }

  // Whatever no worker answered runs locally — the campaign always
  // completes, even with every worker dead from the first chunk.
  fault::FaultList missing;
  for (const fault::Fault& f : faults) {
    if (verdicts.find(fault::faultKey(nl, f)) == verdicts.end()) {
      missing.push_back(f);
    }
  }
  if (!missing.empty()) {
    if (!fallback) {
      throw std::runtime_error(
          "runDistributed: " + std::to_string(missing.size()) +
          " faults unanswered and no local fallback");
    }
    st.faultsFallback = missing.size();
    for (obs::Json& rec : fallback(missing)) {
      const std::string key = msgString(rec, "key");
      if (!key.empty()) verdicts[key] = std::move(rec);
    }
  }

  st.wallSeconds = secondsSince(t0);
  obs::Registry& reg = obs::Registry::global();
  reg.add("serve.workers_spawned", st.workersSpawned);
  reg.add("serve.workers_lost", st.workersLost);
  reg.add("serve.chunks_total", st.chunksTotal);
  reg.add("serve.chunks_requeued", st.chunksRequeued);
  reg.add("serve.verdict_batches", st.verdictBatches);
  reg.add("serve.faults_total", st.faultsTotal);
  reg.add("serve.faults_fallback", st.faultsFallback);
  reg.record("serve.coordinator", st.wallSeconds, st.wallSeconds);
  return verdicts;
}

inject::CampaignResult runShardedCampaign(
    inject::InjectionManager& mgr, sim::Workload& wl,
    const fault::FaultList& faults, const netlist::CompiledDesign& cd,
    const obs::Json& job, const DistributedOptions& opt,
    double revalidateFraction, std::uint64_t revalidateSeed,
    inject::CoverageCollector* cov, const inject::CampaignOptions& copt,
    inject::DeltaStats* delta, DistributedStats* stats) {
  const netlist::Netlist& nl = cd.design();
  const zones::ZoneDatabase& db = *mgr.environment().zones;
  const zones::EffectsModel& effects = *mgr.environment().effects;

  const LocalFallback fallback =
      [&](const fault::FaultList& leftover) -> std::vector<obs::Json> {
    const inject::CampaignResult r = mgr.run(wl, leftover, nullptr, copt);
    const obs::Json art = inject::campaignRecordsToJson(nl, db, effects, r);
    std::vector<obs::Json> out;
    if (const obs::Json* recs = art.find("records");
        recs != nullptr && recs->isArray()) {
      out = recs->elements();
    }
    return out;
  };

  const std::unordered_map<std::string, obs::Json> verdicts =
      runDistributed(nl, job, faults, opt, fallback, stats);

  // Re-package the merged verdicts as a campaign artifact and bind them
  // through the PR-5 delta path: the all-false cone makes every key a cache
  // hit, so merged record order, coverage accounting and the revalidation
  // sample are exactly the incremental engine's.
  obs::Json art = obs::Json::object();
  art["schema"] = "socfmea.campaign_artifact/1";
  obs::Json recs = obs::Json::array();
  for (const fault::Fault& f : faults) {
    const auto it = verdicts.find(fault::faultKey(nl, f));
    if (it != verdicts.end()) recs.push_back(it->second);
  }
  art["records"] = std::move(recs);
  const inject::CachedCampaign cache = inject::CachedCampaign::fromJson(art);

  netlist::AffectedCone cone;
  cone.cell.assign(nl.cellCount(), 0);
  cone.mem.assign(nl.memoryCount(), 0);
  return inject::runCampaignDelta(mgr, wl, faults, cache, cone, cd, cov, copt,
                                  revalidateFraction, revalidateSeed, delta);
}

std::vector<faultsim::FaultOutcome> runShardedFaultSim(
    const netlist::Netlist& nl, const obs::Json& job,
    const fault::FaultList& faults, const DistributedOptions& opt,
    DistributedStats* stats) {
  const LocalFallback fallback =
      [&](const fault::FaultList& leftover) -> std::vector<obs::Json> {
    faultsim::FaultSimOptions fsOpt;
    if (const obs::Json* f = job.find("faultsim");
        f != nullptr && f->isObject()) {
      fsOpt.earlyAbort = msgBool(*f, "early_abort", true);
      if (const std::optional<sim::EvalMode> m =
              evalModeFromName(msgString(*f, "eval_mode", "event-driven"))) {
        fsOpt.evalMode = *m;
      }
    }
    fsOpt.engine = faultsim::EngineKind::Serial;
    // The workload spec is replayed exactly as a worker would replay it.
    const obs::Json* spec = job.find("workload");
    if (spec == nullptr) {
      throw std::runtime_error("faultsim job has no workload spec");
    }
    std::vector<netlist::NetId> inputs;
    if (const obs::Json* in = spec->find("inputs");
        in != nullptr && in->isArray()) {
      for (const obs::Json& name : in->elements()) {
        const std::optional<netlist::NetId> id =
            name.isString() ? nl.findNet(name.asString()) : std::nullopt;
        if (!id) throw std::runtime_error("faultsim workload input missing");
        inputs.push_back(*id);
      }
    }
    std::vector<std::vector<bool>> values;
    if (const obs::Json* rows = spec->find("stim");
        rows != nullptr && rows->isArray()) {
      for (const obs::Json& row : rows->elements()) {
        std::vector<bool> cycle;
        for (const char c : row.asString()) cycle.push_back(c == '1');
        values.push_back(std::move(cycle));
      }
    }
    inject::VectorWorkload wl(msgString(*spec, "name", "vector"), inputs,
                              std::move(values));
    const faultsim::FaultSimResult r =
        faultsim::runSerialFaultSim(nl, wl, leftover, fsOpt);
    std::vector<obs::Json> out;
    out.reserve(leftover.size());
    for (std::size_t i = 0; i < leftover.size(); ++i) {
      obs::Json rec = obs::Json::object();
      rec["key"] = fault::faultKey(nl, leftover[i]);
      rec["detected"] = r.outcomes[i] == faultsim::FaultOutcome::Detected;
      out.push_back(std::move(rec));
    }
    return out;
  };

  const std::unordered_map<std::string, obs::Json> verdicts =
      runDistributed(nl, job, faults, opt, fallback, stats);

  std::vector<faultsim::FaultOutcome> outcomes;
  outcomes.reserve(faults.size());
  for (const fault::Fault& f : faults) {
    const auto it = verdicts.find(fault::faultKey(nl, f));
    const bool detected =
        it != verdicts.end() && msgBool(it->second, "detected", false);
    outcomes.push_back(detected ? faultsim::FaultOutcome::Detected
                                : faultsim::FaultOutcome::Undetected);
  }
  return outcomes;
}

}  // namespace socfmea::serve
