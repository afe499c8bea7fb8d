#!/usr/bin/env python3
"""End-to-end benchmark of the socfmea CLIs, plus a traced per-layer run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  It builds the CLIs (and, for --trace 1,
the perfbench_trace harness) from source into .bench_build, runs every CLI
from a scratch working directory under .bench_build/work with a fresh
--cache-dir, checks every output, and prints one JSON object as the last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb),
measured by running the CLIs with default flags.  --trace 1 reports the
per-layer metrics: one untraced CLI run, then the same work through the
traced harness, whose telemetry and results must equal the CLI's.

perfbench/README.md says why each workload exists and what it judges.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
REFERENCE = os.path.join(BENCH, "reference")
GOLDEN = os.path.join(ROOT, "reports", "memsys_sil3.golden.json")

FLOW = os.path.join(BUILD, "socfmea", "examples", "memsys_sil3_flow")
CPU_FLOW = os.path.join(BUILD, "socfmea", "examples", "cpu_mitigation_flow")
ARCH_SEARCH = os.path.join(BUILD, "socfmea", "tools", "arch_search")
REPORT_GATE = os.path.join(BUILD, "socfmea", "tools", "report_gate")
TRACE = os.path.join(BUILD, "perfbench_trace")
CLI_TARGETS = ["memsys_sil3_flow", "cpu_mitigation_flow", "arch_search",
               "report_gate"]

# iterate: one delta edit, then two revisits that are full store hits.
# post-coder / redundant-checker / addr-in-code re-simulate nearly every
# fault, i.e. they are cold runs in disguise, so they are left out.
ITERATE_EDITS = ["wbuf-parity", "none", "wbuf-parity"]
# arch_search: one round, one proposal, the winner's cold-flat verify on.
# The target is one a single round reaches, so a correct run exits 0.
ARCH_SHAPE = {"rounds": 1, "beam": 1, "candidates": 1, "target_sff": 0.96}
# cpu_suite: the per-bit density that makes one suite run last seconds.
CPU_PER_BIT = 24
CPU_TIER = "auto"
# Set-ups of the workloads whose set-up is short are repeated and the
# median is reported.
SETUP_REPEATS = 3
# Wall-clock allowance for everything after the build.
RUN_LIMIT_S = 170.0

TIME_LAYERS = [
    "memsys.build_s", "cpu.build_s", "core.analysis_s", "fmea.sensitivity_s",
    "core.srs_s", "inject.profile_s", "inject.campaign_s", "faultsim.toggle_s",
    "faultsim.faultsim_s", "core.campaign_stage_s", "search.candidate_s",
    "search.verify_s", "cpu.scenario_s",
]
# The spans inside which the workloads' injection campaigns run.
CAMPAIGN_LAYERS = ["inject.campaign_s", "core.campaign_stage_s",
                   "search.candidate_s", "search.verify_s", "cpu.scenario_s"]


class BenchError(Exception):
    """The benchmark itself cannot run (no sources, build failure)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        return max(1.0, self.end - time.monotonic())


# ---------------------------------------------------------------- build ---

def build(targets):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no socfmea source tree at " + ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    if subprocess.call(cmd, stdout=sys.stderr) != 0:
        raise BenchError("build failed: " + " ".join(targets))


def host():
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, _, value = line.rstrip("\n").partition("=")
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    native = cache.get("SOCFMEA_NATIVE_SIMD", "OFF").upper() in ("ON", "1", "TRUE")
    return {
        "nproc": os.cpu_count(),
        "simd": "native (-march=native)" if native else "portable",
        "build_type": cache.get("CMAKE_BUILD_TYPE") or "RelWithDebInfo",
        "compiler": version[0] if version else compiler,
    }


# ------------------------------------------------------------ processes ---

class Proc:
    """One finished child process: wall time, peak RSS, exit code."""

    def __init__(self, argv, cwd, limit, stdout_path=None):
        out = (open(stdout_path, "wb") if stdout_path
               else open(os.path.join(cwd, "stdout.log"), "ab"))
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=cwd, stdout=out,
                             stderr=None if stdout_path else subprocess.STDOUT)
        killer = threading.Timer(limit, p.kill)
        killer.start()
        _, status, usage = os.wait4(p.pid, 0)
        self.wall = time.perf_counter() - t0
        killer.cancel()
        out.close()
        p.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.argv = argv
        if self.rc != 0:
            log("exit %d: %s" % (self.rc, " ".join(argv)))


def gate(reference, report, cwd, limit):
    return Proc([REPORT_GATE, "check", reference, report], cwd, limit).rc == 0


def load(path):
    with open(path) as f:
        return json.load(f)


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def dir_bytes(path):
    total = 0
    for base, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


def counts_of(telemetry):
    return {"counters": telemetry.get("counters", {}),
            "gauges": telemetry.get("gauges", {})}


class Rep:
    """One timed repetition of a workload's user flow."""

    def __init__(self):
        self.procs = []
        self.ok = True
        self.work = None  # exact work counts; equal across repetitions
        self.outputs = []  # per-process results, for the traced comparison

    def run(self, argv, cwd, deadline):
        p = Proc(argv, cwd, deadline.left())
        self.procs.append(p)
        self.ok = self.ok and p.rc == 0
        return p

    @property
    def wall(self):
        return sum(p.wall for p in self.procs)

    @property
    def rss_mb(self):
        return max((p.rss_mb for p in self.procs), default=0.0)


# A CLI that exits 0 but writes a malformed or incomplete report fails its
# check, like any other wrong output.
BAD_OUTPUT = (OSError, ValueError, KeyError, TypeError, IndexError)


def attempt(wl):
    r = Rep()
    try:
        wl.fill(r)
    except BAD_OUTPUT as e:
        log("check failed: %r" % (e,))
        r.ok = False
    return r


def set_up(wl):
    t0 = time.perf_counter()
    try:
        wl.setup()
    except BAD_OUTPUT as e:
        log("set-up failed: %r" % (e,))
        wl.setup_ok = False
    return time.perf_counter() - t0


# ------------------------------------------------------------ workloads ---

class Workload:
    """Set-up, one timed repetition, and the traced-harness counterpart."""

    repeat_setup = True

    def __init__(self, work, seed, deadline):
        self.work = work
        self.seed = seed
        self.deadline = deadline
        self.setup_ok = True

    def warm_up(self):
        # Untimed warm-up: a short CPU-bound run of the same libraries (the
        # CPU suite at its shipped defaults), so the first timed run does
        # not pay for a cold host.
        warm = fresh_dir(os.path.join(self.work, "warm"))
        p = Proc([CPU_FLOW, "--tier", CPU_TIER], warm, self.deadline.left())
        self.setup_ok = self.setup_ok and p.rc == 0

    def setup(self):
        fresh_dir(os.path.join(self.work, "run"))
        self.warm_up()

    def run_dir(self):
        return os.path.join(self.work, "run")

    def trace_args(self):
        raise NotImplementedError

    def compare(self, rep, steps):
        raise NotImplementedError


class PaperFlow(Workload):
    """The bare memsys_sil3_flow --json; seed fixed by the golden report."""

    def fill(self, r):
        cwd = self.run_dir()
        report = os.path.join(cwd, "report.json")
        if os.path.exists(report):
            os.remove(report)
        r.run([FLOW, "--json", report], cwd, self.deadline)
        if r.ok:
            r.ok = gate(GOLDEN, report, cwd, self.deadline.left())
            doc = load(report)
            r.work = counts_of(doc["telemetry"])
            r.outputs.append(doc)

    def trace_args(self):
        return ["paper_flow"], self.run_dir()

    def compare(self, rep, steps):
        cli = rep.outputs[0]
        return (len(steps) == 1
                and steps[0]["validation"] == cli["validation"]
                and steps[0]["sil3_pass"] == cli["sil3_pass"]
                and counts_of(steps[0]["telemetry"]) == rep.work)


def strip_timings(report):
    """An incremental report without its wall-clock fields and without the
    keys the CLI wraps around IncrementalFlow::report()."""
    report = json.loads(json.dumps(report))
    for stage in report.get("graph", {}).get("stages", []):
        stage.pop("seconds", None)
    report.pop("telemetry", None)
    for key in ("schema", "edit", "sil_name"):
        report.pop(key, None)
    return report


class Iterate(Workload):
    """Cold v1 run into a fresh store (set-up), then the edit sequence from
    that store state (timed); seed fixed by the references."""

    repeat_setup = False

    def store(self):
        return os.path.join(self.run_dir(), "store")

    def setup(self):
        cwd = fresh_dir(self.run_dir())
        self.warm_up()
        report = os.path.join(cwd, "cold.json")
        p = Proc([FLOW, "--cache-dir", self.store(), "--json", report], cwd,
                 self.deadline.left())
        self.setup_ok = (self.setup_ok and p.rc == 0
                         and self.check_step("none", report))
        shutil.copytree(self.store(), os.path.join(cwd, "store.cold"))

    def restore(self):
        shutil.rmtree(self.store(), ignore_errors=True)
        shutil.copytree(os.path.join(self.run_dir(), "store.cold"), self.store())

    def check_step(self, edit, report):
        if not gate(os.path.join(REFERENCE, "iterate_%s.json" % edit), report,
                    self.run_dir(), self.deadline.left()):
            return False
        counters = load(report)["telemetry"].get("counters", {})
        return counters.get("flow.incremental.revalidate_mismatches", 0) == 0

    def fill(self, r):
        self.restore()
        cwd = self.run_dir()
        reports = []
        for i, edit in enumerate(ITERATE_EDITS):
            report = os.path.join(cwd, "step%d.json" % i)
            if os.path.exists(report):
                os.remove(report)
            if r.run([FLOW, "--cache-dir", self.store(), "--edit", edit,
                      "--json", report], cwd, self.deadline).rc == 0:
                reports.append(report)
        if r.ok:
            r.ok = all(self.check_step(e, rp)
                       for e, rp in zip(ITERATE_EDITS, reports))
            r.outputs = [load(rp) for rp in reports]
            r.work = {
                "steps": [counts_of(d["telemetry"]) for d in r.outputs],
                "store": [d["graph"]["store"] for d in r.outputs],
                "store_bytes": dir_bytes(self.store()),
            }

    def trace_args(self):
        self.restore()
        return ["iterate", self.store()] + ITERATE_EDITS, self.run_dir()

    def compare(self, rep, steps):
        if len(steps) != len(rep.outputs):
            return False
        for step, cli in zip(steps, rep.outputs):
            if (strip_timings(step["report"]) != strip_timings(cli)
                    or step["store"] != cli["graph"]["store"]
                    or counts_of(step["telemetry"]) != counts_of(cli["telemetry"])):
                return False
        return dir_bytes(self.store()) == rep.work["store_bytes"]


class ArchSearch(Workload):
    """tools/arch_search from a fresh store with the seed forwarded."""

    def cli_seed(self):
        return self.seed % 2**32

    def fill(self, r):
        cwd = self.run_dir()
        store = fresh_dir(os.path.join(cwd, "store"))
        report = os.path.join(cwd, "search.json")
        if os.path.exists(report):
            os.remove(report)
        s = ARCH_SHAPE
        r.run([ARCH_SEARCH, "--cache-dir", store, "--seed", str(self.cli_seed()),
               "--rounds", str(s["rounds"]), "--beam", str(s["beam"]),
               "--candidates", str(s["candidates"]),
               "--target-sff", str(s["target_sff"]), "--json", report],
              cwd, self.deadline)
        if r.ok:
            doc = load(report)
            r.ok = (doc["search"]["verified_identical"] is True
                    and doc["search"]["target_reached"] is True)
            r.work = {"telemetry": counts_of(doc["telemetry"]),
                      "store_bytes": dir_bytes(store)}
            r.outputs.append(doc)

    def trace_args(self):
        store = fresh_dir(os.path.join(self.run_dir(), "store"))
        s = ARCH_SHAPE
        return (["arch_search", store, str(self.cli_seed()), str(s["rounds"]),
                 str(s["beam"]), str(s["candidates"]), str(s["target_sff"])],
                self.run_dir())

    def compare(self, rep, steps):
        cli = rep.outputs[0]
        return (len(steps) == 1
                and steps[0]["search"] == cli["search"]
                and counts_of(steps[0]["telemetry"]) == rep.work["telemetry"]
                and dir_bytes(os.path.join(self.run_dir(), "store"))
                == rep.work["store_bytes"])


class CpuSuite(Workload):
    """All seven cpu_mitigation_flow scenarios, tiered, seed forwarded."""

    def fill(self, r):
        cwd = self.run_dir()
        report = os.path.join(cwd, "cpu.json")
        if os.path.exists(report):
            os.remove(report)
        r.run([CPU_FLOW, "--tier", CPU_TIER, "--seed", str(self.seed),
               "--per-bit", str(CPU_PER_BIT), "--json", report],
              cwd, self.deadline)
        if r.ok:
            doc = load(report)
            r.ok = (len(doc["scenarios"]) == 7
                    and all(s["verdict_ok"] is True for s in doc["scenarios"]))
            r.work = doc["scenarios"]
            r.outputs.append(doc)

    def trace_args(self):
        return (["cpu_suite", str(CPU_PER_BIT), str(self.seed), CPU_TIER],
                self.run_dir())

    def compare(self, rep, steps):
        return len(steps) == 1 and steps[0]["scenarios"] == rep.work


WORKLOADS = {"paper_flow": PaperFlow, "iterate": Iterate,
             "arch_search": ArchSearch, "cpu_suite": CpuSuite}


# -------------------------------------------------------------- metrics ---

def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(wl, seconds):
    setups = [set_up(wl) for _ in range(SETUP_REPEATS if wl.repeat_setup else 1)]
    reps = []
    t0 = time.perf_counter()
    while True:
        reps.append(attempt(wl))
        if time.perf_counter() - t0 >= seconds:
            break
    # Same work on every repetition: any drift in the exact counts fails it.
    first = next((r.work for r in reps if r.ok), None)
    for r in reps:
        if r.ok and r.work != first:
            log("work counts drifted between repetitions")
            r.ok = False
    good = [r for r in reps if r.ok] or reps
    failed = sum(1 for r in reps if not r.ok) + (0 if wl.setup_ok else 1)
    print("# walls_s " + json.dumps([round(r.wall, 6) for r in reps]))
    print("# setups_s " + json.dumps([round(s, 6) for s in setups]))
    metrics = {
        "wall_s": metric(statistics.median(r.wall for r in good), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(max((r.rss_mb for r in good), default=0.0), "MB"),
    }
    return len(reps), failed, metrics


def per_layer(wl):
    set_up(wl)
    untraced = attempt(wl)
    args, cwd = wl.trace_args()
    out_path = os.path.join(cwd, "trace.json")
    traced = Proc([TRACE] + args, cwd, wl.deadline.left(), stdout_path=out_path)
    traced_wall = traced.wall
    trace = {"layers": {}, "samples": {}, "steps": []}
    same = False
    if traced.rc == 0 and untraced.ok:
        try:
            trace = load(out_path)
            same = wl.compare(untraced, trace["steps"])
        except BAD_OUTPUT as e:
            log("traced run unreadable: %r" % (e,))
    if not same:
        log("traced harness and CLI disagree on the work done")
    failed = (0 if untraced.ok else 1) + (0 if same else 1) + (0 if wl.setup_ok else 1)

    layers = trace["layers"]
    m = {name: metric(layers.get(name, 0.0), "s") for name in TIME_LAYERS}
    candidates = trace["samples"].get("search.candidate_s", [])
    m["search.candidate_median_s"] = metric(
        statistics.median(candidates) if candidates else 0.0, "s")
    m["traced_wall_s"] = metric(traced_wall, "s")
    m["unattributed_s"] = metric(traced_wall - sum(layers.values()), "s")
    m["trace_overhead_s"] = metric(traced_wall - untraced.wall, "s")

    def total(section, name):
        return sum(s["telemetry"].get(section, {}).get(name, 0)
                   for s in trace["steps"])

    faults = total("counters", "inject.faults_simulated")
    campaign_s = sum(layers.get(n, 0.0) for n in CAMPAIGN_LAYERS)
    reuse_total = total("counters", "flow.incremental.faults_total")
    stores = [s["store"] for s in trace["steps"] if "store" in s]
    m["inject.faults_simulated"] = metric(faults, "count")
    m["inject.cycles_simulated"] = metric(
        total("counters", "inject.cycles_simulated"), "count")
    m["inject.cell_evals"] = metric(total("counters", "inject.cell_evals"), "count")
    m["faultsim.lane_cycles"] = metric(
        total("counters", "faultsim.bitsliced.lane_cycles"), "count")
    m["inject.faults_per_s"] = metric(
        faults / campaign_s if campaign_s > 0 else 0.0, "1/s")
    m["inject.delta_reuse_ratio"] = metric(
        total("counters", "flow.incremental.faults_reused") / reuse_total
        if reuse_total else 0.0, "ratio")
    m["core.store_hits"] = metric(
        sum(s["memory_hits"] + s["disk_hits"] for s in stores), "count")
    m["core.store_misses"] = metric(sum(s["misses"] for s in stores), "count")
    m["core.store_writes"] = metric(sum(s["stores"] for s in stores), "count")
    store_dir = os.path.join(cwd, "store")
    m["core.store_bytes"] = metric(
        dir_bytes(store_dir) if os.path.isdir(store_dir) else 0, "bytes")
    search = [s["search"] for s in trace["steps"] if "search" in s]
    m["search.candidates"] = metric(
        sum(s["candidates_evaluated"] for s in search), "count")
    m["search.reuse_ratio"] = metric(
        search[0]["reuse_ratio"] if search else 0.0, "ratio")
    tiers = [sc["tiers"] for s in trace["steps"]
             for sc in s.get("scenarios", []) if "tiers" in sc]
    sources = sum(t["source_faults"] for t in tiers)
    m["inject.tiered_escalation_rate"] = metric(
        sum(t["escalated_faults"] for t in tiers) / sources if sources else 0.0,
        "ratio")
    m["faultsim.lane_occupancy"] = metric(
        max((s["telemetry"].get("gauges", {}).get(
            "faultsim.bitsliced.lane_occupancy", 0.0) for s in trace["steps"]),
            default=0.0), "ratio")
    print("# layer_samples_s " + json.dumps(trace["samples"]))
    return 2, failed, m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        build(CLI_TARGETS + (["perfbench_trace"] if args.trace else []))
    except BenchError as e:
        log("perfbench: %s" % e)
        return 2
    deadline = Deadline(RUN_LIMIT_S)
    work = fresh_dir(os.path.join(BUILD, "work", args.workload))
    wl = WORKLOADS[args.workload](work, args.seed, deadline)
    print("# host " + json.dumps(host()))
    if args.trace:
        attempted, failed, metrics = per_layer(wl)
    else:
        attempted, failed, metrics = end_to_end(wl, args.seconds)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
