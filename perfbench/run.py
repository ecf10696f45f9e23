#!/usr/bin/env python3
"""The reproduction's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload report --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Every run builds what it needs from
source into a run-private cache root under ``.perfbench/`` and removes
it afterwards.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced run.  Lines above it are the human-readable table (every metric
with its unit and sample count) and the run's provenance; the full
record also goes to ``.perfbench/results/``.  A failed correctness
check makes the command exit 1.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import phases  # noqa: E402
import tracer as tr  # noqa: E402

WORKLOADS = ("report", "power_mc", "serve")
#: End-to-end metrics: (name, unit); every workload reports all of them.
#: ``p99_ms`` is printed but not among them: its run-to-run spread on a
#: shared host exceeds any bound a regression check may use.
END_TO_END = (("setup_s", "s"), ("rss_mb", "MiB"), ("work_s", "s"),
              ("p50_ms", "ms"))
#: Per-layer metrics of a traced run: (name, unit).
PER_LAYER = (
    ("circuits.build_s", "s"), ("circuits.builds", "count"),
    ("hdl.optimize_s", "s"), ("hdl.buffering_s", "s"),
    ("hdl.timing.sta_s", "s"), ("hdl.timing.calls", "count"),
    ("hdl.area_s", "s"),
    ("hdl.sim.compile.codegen_s", "s"), ("hdl.sim.compile.pycompile_s", "s"),
    ("hdl.sim.compile.kernels", "count"),
    ("hdl.sim.compile.kernels_per_netlist", "ratio"),
    ("eval.experiments.module_cache_hit_ratio", "ratio"),
    ("hdl.sim.levelized.settle_s", "s"),
    ("hdl.sim.levelized.patterns", "count"),
    ("hdl.sim.event.replay_s", "s"), ("hdl.sim.event.events", "count"),
    ("hdl.sim.event.events_per_s", "1/s"),
    ("hdl.sim.event.cancel_ratio", "ratio"),
    ("hdl.power.assemble_s", "s"), ("hdl.power.merge_s", "s"),
    ("eval.fault.campaign_s", "s"), ("eval.fault.mutations_per_s", "1/s"),
    ("eval.fault.early_exit_ratio", "ratio"),
    ("eval.fault.gates_per_mutation", "count"),
    ("eval.sweep.point_s", "s"),
    ("eval.cache.load_s", "s"), ("eval.cache.store_s", "s"),
    ("eval.cache.hit_ratio", "ratio"), ("eval.cache.bytes", "bytes"),
    ("eval.sched.leaves", "count"), ("eval.sched.steals", "count"),
    ("eval.sched.speedup", "ratio"), ("eval.sched.efficiency", "ratio"),
    ("eval.sched.max_leaf_frac", "ratio"), ("eval.sched.leaf_self_s", "s"),
    ("eval.report.render_s", "s"),
    ("serve.submit_us", "us"), ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"), ("serve.gen_late_p99_ms", "ms"),
    ("serve.word_ms", "ms"), ("serve.unit_ms", "ms"),
    ("serve.demux_ms", "ms"), ("serve.words", "count"),
    ("serve.occupancy.open", "ratio"),
    ("serve.occupancy.saturation", "ratio"),
    ("serve.software_lanes", "count"),
    ("unattributed_frac", "ratio"), ("trace.overhead_frac", "ratio"),
)
#: Set-ups from empty caches per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A run stops its children and fails after this many seconds.
RUN_BUDGET_S = 170.0
#: The program's own knobs, cleared before every run.
KNOBS = ("REPRO_POWER_WORKERS", "REPRO_TRACE", "REPRO_NO_OBS",
         "REPRO_NO_CKERNEL", "REPRO_REPORT_WORKERS", "REPRO_RESULT_CACHE_MB",
         "REPRO_MODULE_CACHE", "REPRO_CKERNEL_CACHE", "REPRO_RESULT_CACHE")
#: Recorded outputs of this benchmark's checks.
EXPECTED = json.loads((HERE / "expected.json").read_text())


class RunFailed(Exception):
    """A child phase crashed or overran the run's time budget."""


def calibrate():
    """Seconds of a fixed pure-Python loop (best of three)."""
    best = float("inf")
    for __ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


class Run:
    """One benchmark run: its private directory, children and samples."""

    def __init__(self, root, args):
        self.root = root
        self.args = args
        self.nproc = os.cpu_count() or 1
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.dir = root / ".perfbench" / f"run-{args.workload}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self._n = 0
        #: Kept after the run: its record and a traced phase's spans.
        self.results = root / ".perfbench" / "results"
        self.results.mkdir(parents=True, exist_ok=True)
        self.stem = (f"{args.workload}-s{args.seed}-t{args.trace}-"
                     f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
        self.spans = self.results / f"{self.stem}-spans.json"
        self.samples = {}          # name -> (unit, [values])
        self.extra = {}            # provenance and side figures
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.kernels = set()

    # -- bookkeeping ----------------------------------------------------

    def sample(self, name, unit, *values):
        self.samples.setdefault(name, (unit, []))[1].extend(values)

    def check(self, ok, problem, failed_ops):
        """Record a correctness check; a failure counts ``failed_ops``."""
        if not ok:
            self.problems.append(problem)
            self.failed += failed_ops

    def fresh(self, name):
        self._n += 1
        path = self.dir / f"{self._n:02d}-{name}"
        path.mkdir()
        return path

    # -- children -------------------------------------------------------

    def env(self, caches, results=None):
        env = {k: v for k, v in os.environ.items()
               if k not in KNOBS and not k.startswith("REPRO_SCHED_")}
        src = str(self.root / "src")
        env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src)
        env["REPRO_MODULE_CACHE"] = str(caches / "modules")
        env["REPRO_CKERNEL_CACHE"] = str(caches / "ckernel")
        env["REPRO_RESULT_CACHE"] = str(results or caches / "results")
        return env

    def child(self, phase, argv, caches, results=None):
        """Run one phase in a fresh process; returns (launch-to-exit s, out)."""
        out = self.fresh(phase) / "out.json"
        log = out.with_name("log.txt")
        cmd = [sys.executable, str(HERE / "phases.py"), phase,
               "--out", str(out)] + [str(a) for a in argv]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunFailed(f"time budget spent before the {phase} phase")
        overran = threading.Event()

        def kill_group():
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        def overrun():
            overran.set()
            kill_group()

        with open(log, "w") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, stdout=fh,
                                    stderr=subprocess.STDOUT,
                                    env=self.env(caches, results),
                                    start_new_session=True)
            # A blocking wait returns as the child exits; a wait with a
            # timeout polls, which blurs the wall time by up to 50 ms.
            timer = threading.Timer(remaining, overrun)
            timer.start()
            try:
                code = proc.wait()
                wall = time.perf_counter() - t0
            finally:
                timer.cancel()
                # Reap any worker the phase left behind.
                kill_group()
        if overran.is_set():
            raise RunFailed(f"{phase} phase overran the run budget")
        if code != 0:
            tail = log.read_text()[-2000:]
            raise RunFailed(f"{phase} phase exited {code}:\n{tail}")
        return wall, json.loads(out.read_text())

    def setups(self, argv):
        """``SETUP_REPEATS`` set-ups from empty caches; returns the last root."""
        walls = []
        for __ in range(SETUP_REPEATS):
            caches = self.fresh("caches")
            wall, out = self.child("setup", argv, caches)
            walls.append(wall)
            if out["kernel"]:
                self.kernels.add(out["kernel"])
        self.sample("setup_s", "s", *walls)
        return caches

    def passes(self, one_pass):
        """Repeat ``one_pass`` until ``--seconds`` of it were measured."""
        spent = 0.0
        while True:
            t0 = time.perf_counter()
            one_pass()
            spent += time.perf_counter() - t0
            if spent >= self.args.seconds:
                return


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def report_workload(run):
    """Set-up, then the cold report (phase 1) and its replay (phase 2)."""
    digest = EXPECTED["report_sha256"]
    if run.args.trace:
        return report_traced(run, digest)
    caches = run.setups(["--designs", ",".join(phases.ALL_DESIGNS)])

    def one_pass():
        results = run.fresh("results")
        text = [results / "phase1.txt", results / "phase2.txt"]
        wall1, p1 = run.child("report", ["--workers", run.nproc,
                                         "--report", text[0]],
                              caches, results / "store")
        wall2, p2 = run.child("report", ["--workers", run.nproc,
                                         "--report", text[1]],
                              caches, results / "store")
        run.sample("work_s", "s", wall1)
        run.sample("report_s", "s", wall1)
        run.sample("replay_s", "s", wall2)
        sample_latency(run, p1["results_ms"])
        run.attempted += p1["leaves"] + p2["leaves"]
        run.check(p1["sha256"][0] == digest, "phase-1 report digest "
                  f"{p1['sha256'][0]} != recorded {digest}", p1["leaves"])
        run.check(p2["sha256"][0] == digest and
                  text[0].read_bytes() == text[1].read_bytes(),
                  "phase-2 report differs from phase 1", p2["leaves"])
        served = p2["counters"].get("orchestrator.jobs.cached", 0)
        run.check(served == p2["leaves"], f"replay served {served} of "
                  f"{p2['leaves']} leaves from the store", p2["leaves"]
                  - served)

    run.passes(one_pass)


def sample_latency(run, results_ms):
    """p50/p99 of the times at which a pass's results landed."""
    run.sample("p50_ms", "ms", tr.median(results_ms))
    run.sample("p99_ms", "ms", tr.quantile(results_ms, 0.99))
    run.extra["latency_samples"] = len(results_ms)


def report_traced(run, digest):
    """Traced inline report + replay, paired with untraced runs."""
    # The traced process sets up from empty caches; the untraced pair
    # then runs on the module and kernel caches it left behind.
    caches = run.fresh("caches")
    __, traced = run.child("report", ["--workers", 1, "--trace", run.spans],
                           caches)
    __, inline = run.child("report", ["--workers", 1],
                           caches, run.fresh("results"))
    __, parallel = run.child("report", ["--workers", run.nproc],
                             caches, run.fresh("results"))
    run.kernels.add(traced["kernel"])
    for name, out in (("traced", traced), ("inline", inline),
                      ("parallel", parallel)):
        run.attempted += out["leaves"] * len(out["sha256"])
        run.check(all(sha == digest for sha in out["sha256"]),
                  f"{name} report digest differs from the recorded one",
                  out["leaves"])
    metrics = traced["metrics"]
    metrics["eval.cache.bytes"] = sum(
        p.stat().st_size for p in (caches / "results").rglob("*")
        if p.is_file())
    pair_metrics(run, metrics, traced, inline, parallel)
    return traced


def pair_metrics(run, metrics, traced, inline, parallel):
    """Overhead from traced vs untraced inline; speedup from inline vs
    parallel (both untraced, timed in-process around the same call)."""
    metrics["trace.overhead_frac"] = traced["wall_s"] / inline["wall_s"] - 1
    speedup = inline["wall_s"] / parallel["wall_s"]
    metrics["eval.sched.speedup"] = speedup
    metrics["eval.sched.efficiency"] = speedup / run.nproc
    metrics["eval.sched.steals"] = parallel["counters"].get(
        "orchestrator.steals", 0)
    run.extra.update(inline_s=inline["wall_s"], parallel_s=parallel["wall_s"],
                     traced_s=traced["wall_s"])


def check_points(run, got, want, what):
    """Per-point mW and toggle counts must match exactly."""
    per_point = max(1, phases.MC_CYCLES // 16)
    for name in sorted(set(got) | set(want)):
        a, b = got.get(name), want.get(name)
        same = (a is not None and b is not None and a["mw"] == b["mw"]
                and a["toggles"] == b["toggles"])
        run.check(same, f"{what}: point {name} {a} != {b}", per_point)


def power_mc_workload(run):
    """Set-up, then Tables III and V at 256 Monte Carlo cycles."""
    seed = run.args.seed
    recorded = EXPECTED["power_mc"].get(str(seed))
    argv = ["--designs", ",".join(phases.POWER_DESIGNS)]
    if run.args.trace:
        caches = run.fresh("caches")
        __, traced = run.child("mc", ["--seed", seed, "--workers", 1,
                                      "--trace", run.spans], caches)
        __, inline = run.child("mc", ["--seed", seed, "--workers", 1],
                               caches)
        __, parallel = run.child("mc", ["--seed", seed,
                                        "--workers", run.nproc], caches)
        run.attempted += 3 * traced["leaves"]
        check_points(run, traced["points"], parallel["points"],
                     "inline traced vs parallel")
        check_points(run, inline["points"], parallel["points"],
                     "inline vs parallel")
        if recorded:
            check_points(run, parallel["points"], recorded, "recorded")
        pair_metrics(run, traced["metrics"], traced, inline, parallel)
        run.kernels.update(p["kernel"] for p in traced["points"].values())
        return traced
    caches = run.setups(argv)

    def one_pass():
        wall, out = run.child("mc", ["--seed", seed, "--workers", run.nproc],
                              caches)
        run.sample("work_s", "s", wall)
        run.sample("mc_cycles_per_s", "cycles/s",
                   len(out["points"]) * phases.MC_CYCLES / wall)
        run.sample("paper_err_pct", "%", out["paper_err_pct"])
        sample_latency(run, out["results_ms"])
        run.kernels.update(p["kernel"] for p in out["points"].values())
        run.attempted += out["leaves"]
        run.check(len(out["points"]) == 8, "missing power points",
                  out["leaves"])
        if recorded:
            check_points(run, out["points"], recorded, "recorded")

    run.passes(one_pass)


def serve_workload(run):
    """Set-up, then open-loop and saturation load on one ``Server``."""
    argv = ["--seed", run.args.seed, "--seconds", run.args.seconds]
    if run.args.trace:
        caches = run.fresh("caches")
        __, traced = run.child("serve", argv + ["--trace", run.spans],
                               caches)
        __, plain = run.child("serve", argv, caches)
        for out in (plain, traced):
            serve_checks(run, out)
        traced["metrics"]["trace.overhead_frac"] = (
            traced["wall_s"] / plain["wall_s"] - 1)
        return traced
    caches = run.setups(["--serve"])
    __, out = run.child("serve", argv, caches)
    serve_checks(run, out)
    run.sample("work_s", "s", out["wall_s"])
    run.sample("tx_per_s", "tx/s", out["tx_per_s"])
    run.sample("p50_ms", "ms", out["p50_ms"])
    run.sample("p99_ms", "ms", out["p99_ms"])
    for key in ("latency_samples", "offered_per_s", "achieved_per_s",
                "gen_late_p99_ms", "gen_late_max_ms", "rounds"):
        run.extra[key] = out[key]


def serve_checks(run, out):
    run.attempted += out["attempted"]
    for key in ("refused", "timed_out", "raised", "mismatched"):
        run.check(out[key] == 0, f"{out[key]} transactions {key}", out[key])


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------

def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def render(run, layer_metrics, traced):
    """The human-readable lines printed above the result line."""
    lines = [f"perfbench workload={run.args.workload} seed={run.args.seed} "
             f"seconds={run.args.seconds} trace={run.args.trace}",
             "provenance: " + " ".join(f"{k}={_fmt(v)}" for k, v in
                                       run.extra["provenance"].items())]
    if layer_metrics is None:
        for name, (unit, values) in run.samples.items():
            if len(values) > 1:
                q1, __, q3 = statistics.quantiles(values, n=4)
                spread = f"q1={_fmt(q1)} q3={_fmt(q3)}"
            else:
                spread = ""
            lines.append(f"  {name:<18} {_fmt(statistics.median(values)):>12}"
                         f" {unit:<9} n={len(values):<3} {spread}")
        for key in sorted(set(run.extra) - {"provenance"}):
            lines.append(f"  {key:<18} {_fmt(run.extra[key]):>12}")
    else:
        lines.append(f"  {'layer':<26} {'self_s':>10} {'total_s':>10} "
                     f"{'calls':>8} {'count':>10}")
        wall = traced["layers"]["run"]["total_s"]
        for layer, row in sorted(traced["layers"].items(),
                                 key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"  {layer:<26} {row['self_s']:>10.4f} "
                         f"{row['total_s']:>10.4f} {row['calls']:>8} "
                         f"{row['count']:>10}")
        lines.append(" ".join([f"  traced wall {wall:.4f} s"] + [
            f"{k}={_fmt(v)}" for k, v in sorted(run.extra.items())
            if k != "provenance"]))
        for name, unit in PER_LAYER:
            lines.append(f"  {name:<40} {_fmt(layer_metrics[name]):>14} "
                         f"{unit}")
    fail_frac = run.failed / run.attempted if run.attempted else 1.0
    lines.append(f"  {'fail_frac':<18} {_fmt(fail_frac):>12} ratio     "
                 f"failed={run.failed} attempted={run.attempted}")
    for problem in run.problems:
        lines.append(f"  FAILED: {problem}")
    return lines


def result_line(run, layer_metrics):
    if layer_metrics is None:
        metrics = {name: {"value": statistics.median(run.samples[name][1]),
                          "unit": unit} for name, unit in END_TO_END}
    else:
        metrics = {name: {"value": layer_metrics[name], "unit": unit}
                   for name, unit in PER_LAYER}
    return {"correct": not run.problems and run.failed == 0,
            "attempted": max(1, run.attempted), "failed": run.failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one workload of the reproduction's benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed of power_mc and serve (default 1; "
                             "check claims on seed 2 as well)")
    parser.add_argument("--seconds", type=int, default=10,
                        help="measured time per run: the timed pass repeats "
                             "until this much was measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a repro checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    run = Run(root, args)
    run.extra["provenance"] = {
        "nproc": run.nproc, "python": platform.python_version(),
        "calibration_s": calibrate()}
    workload = {"report": report_workload, "power_mc": power_mc_workload,
                "serve": serve_workload}[args.workload]
    traced = None
    try:
        traced = workload(run)
    except RunFailed as exc:
        run.problems.append(str(exc))
        run.failed = max(run.failed, 1)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    usage = max(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    run.sample("rss_mb", "MiB", usage / 1024.0)
    run.extra["provenance"]["kernel"] = ",".join(sorted(run.kernels)) or "-"

    layer_metrics = None
    if args.trace and traced is not None:
        layer_metrics = {name: 0.0 for name, __ in PER_LAYER}
        layer_metrics.update(traced["metrics"])
    complete = (layer_metrics is not None if args.trace else
                all(name in run.samples for name, __ in END_TO_END))
    if not complete:
        save(run, None, traced)
        for problem in run.problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        return 1
    result = result_line(run, layer_metrics)
    save(run, result, traced)
    for line in render(run, layer_metrics, traced):
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def save(run, result, traced):
    """Keep the full record of the run under ``.perfbench/results/``."""
    record = {"workload": run.args.workload, "seed": run.args.seed,
              "seconds": run.args.seconds, "trace": run.args.trace,
              "extra": run.extra, "samples": run.samples,
              "problems": run.problems, "result": result}
    if traced is not None:
        record["layers"] = traced["layers"]
    (run.results / f"{run.stem}.json").write_text(
        json.dumps(record, indent=1))


if __name__ == "__main__":
    sys.exit(main())
