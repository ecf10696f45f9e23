"""Child-process phases of the benchmark (one phase per process).

``run.py`` launches each phase as a fresh interpreter with the
run-private cache roots already set in the environment, so every
phase sees exactly the caches the benchmark prepared for it.  A phase
writes one JSON object to ``--out`` and talks to the program only
through its public API.

    python3 perfbench/phases.py setup --designs r4,r16 --out s.json
    python3 perfbench/phases.py report --workers 2 --report r.txt --out p.json
    python3 perfbench/phases.py mc --seed 1 --workers 2 --out p.json
    python3 perfbench/phases.py serve --seed 1 --seconds 10 --out p.json

``--trace SPANS`` makes a phase build its designs from empty caches
inside the process and record spans around every layer (``tracer.py``),
written to ``SPANS`` at the end; traced report and mc phases run the
job graph inline (``--workers 1``).
"""

import argparse
import contextlib
import gc
import hashlib
import json
import sys
import time

import tracer as tr

#: Every fixed design ``cached_module`` serves.
ALL_DESIGNS = ("r16", "r16_pipe", "r4", "r4_pipe", "r8", "mf", "mf_quad",
               "reducer")
#: The designs of the paper's Tables III and V.
POWER_DESIGNS = ("r4", "r4_pipe", "r16", "r16_pipe", "mf")
#: The report's Monte Carlo depth and mutation count (CLI ``--cycles 6
#: --mutations 8``), with sweeps and verification on.
REPORT_ARGS = {"n_cycles": 6, "mutations": 8, "include_sweeps": True,
               "include_verification": True}
#: Monte Carlo depth of the power_mc workload.
MC_CYCLES = 256
#: Open-loop offered rate of the serve workload (transactions/s): a
#: light load, so a latency is the 5 ms flush timeout plus one word of
#: about 3 ms, with little queueing.  At 5000 tx/s the five lanes'
#: timeout flushes keep the single dispatcher busy all the time and
#: latency becomes its round-robin cycle: a host slowdown of 1.6x moved
#: p50 by 2.3x.  At 200 tx/s the dispatcher is still about half busy,
#: and p50 over ten runs on a busy host spread 0.24; at 50 tx/s a
#: busy-loop process beside the server left p50 where it was.
OPEN_RATE = 50.0
#: Saturation-phase transactions per second of ``--seconds``.
SATURATION_TX_PER_S = 8000
#: Serve load alternates open and saturation phases this many times;
#: each figure is the median over rounds, which a short stall of the
#: shared host cannot move.  A saturation round's time swings by up to
#: 1.5x from one round to the next (how the submitting thread and the
#: dispatcher hand the interpreter lock to each other), so the median
#: needs many rounds.
SERVE_ROUNDS = 10
#: Special operands in the serve traffic (zero/inf/NaN/subnormal).
SPECIALS = 0.02
#: Seconds any drain may take before its transactions count as timed out.
DRAIN_TIMEOUT_S = 60.0


def _kernel_kind():
    """``"c"`` when the compiled event kernel loads, else ``"python"``."""
    from repro.hdl.sim import ckernel

    return "c" if ckernel.load_kernel() is not None else "python"


def _build(designs):
    from repro.eval.experiments import cached_module

    for which in designs:
        cached_module(which)


def _leaf_count(requests):
    """Leaf jobs of a job graph (merges excluded)."""
    from repro.eval.orchestrator import build_jobs

    return sum(1 for name, params in requests
               for jb in build_jobs(name, params) if not jb.deps)


class ResultClock:
    """``progress`` callback timing when each named result lands.

    Records milliseconds from :meth:`start` to the completion of every
    job in ``names`` -- the moment a user of the ``--live`` view sees
    that section (or power point) done.
    """

    def __init__(self, names):
        self.names = set(names)
        self.t0 = time.perf_counter()
        self.ms = []

    def start(self):
        self.t0 = time.perf_counter()

    def __call__(self, info):
        if info["name"] in self.names:
            self.ms.append((time.perf_counter() - self.t0) * 1e3)


def capture_points():
    """Record every Table III/V point's mW, toggle count and kernel.

    Wraps the point merges the job graph calls by name; the values are
    the ones the merges return, observed, not recomputed.
    """
    points, current = {}, []

    def keyed(table, name):
        def make(fn):
            def point(*args, **kwargs):
                key = args[0] if args else kwargs[name]
                current.append(f"{table}/{key}")
                try:
                    return fn(*args, **kwargs)
                finally:
                    current.pop()
            return point
        return make

    def make_report(fn):
        def report(*args, **kwargs):
            rep = fn(*args, **kwargs)
            if current:
                points[current[-1]] = {
                    "mw": rep.total_mw, "toggles": rep.total_toggles,
                    "kernel": rep.sim_stats["kernel"]}
            return rep
        return report

    tr.patch("repro.eval.experiments:table3_point_from_shards",
             keyed("table3", "key"))
    tr.patch("repro.eval.experiments:table5_point_from_shards",
             keyed("table5", "fmt"))
    tr.patch("repro.hdl.power.monte_carlo:power_report_from_shards",
             make_report)
    return points


def paper_error_pct(points):
    """Mean |measured / paper - 1| over the 8 mW rows, in percent."""
    from repro.eval.experiments import PAPER

    errs = []
    for name, point in points.items():
        table, key = name.split("/")
        paper = PAPER[table][key]
        if table == "table5":
            paper = paper[0]
        errs.append(abs(point["mw"] / paper - 1.0))
    return 100.0 * sum(errs) / len(errs) if errs else 0.0


def _counters(*snapshots):
    total = {}
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            total[name] = total.get(name, 0) + value
    return total


def _instrument(args):
    """The tracer for ``--trace``, else ``None``.

    Call it before importing the functions a phase calls: a name bound
    by an earlier ``from X import f`` would bypass the wrapper.
    """
    if not args.trace:
        return None
    tracer = tr.Tracer()
    tracer.install()
    return tracer


def _finish_trace(tracer, out, path):
    out["layers"] = tr.layer_table(tracer.spans)
    out["metrics"].update(tr.layer_metrics(tracer.spans, out["counters"],
                                           tracer.netlists))
    tracer.dump(path)


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------

def phase_setup(args):
    """Build and disk-cache designs (and the event kernel) from empty caches."""
    if args.serve:
        from repro.serve.loadgen import warm_engines

        warm_engines()
        return {"kernel": None}
    _build(args.designs.split(","))
    return {"kernel": _kernel_kind()}


def phase_report(args):
    """The one-command report; a traced run also replays it in-process."""
    tracer = _instrument(args)
    from repro import obs
    from repro.eval.report import generate_report, report_sections

    sections = report_sections(n_cycles=REPORT_ARGS["n_cycles"],
                               mutations=REPORT_ARGS["mutations"])
    clock = ResultClock(name for __, name, ___ in sections)
    snaps, texts = [], []
    kernel = None
    with tracer.span("run") if tracer else contextlib.nullcontext():
        if tracer:
            _build(ALL_DESIGNS)
            kernel = _kernel_kind()
            snaps.append(obs.registry().snapshot())
        metrics = {}
        clock.start()
        texts.append(generate_report(out_path=args.report,
                                     workers=args.workers, metrics=metrics,
                                     progress=clock, **REPORT_ARGS))
        wall = time.perf_counter() - clock.t0
        snaps.append(metrics)
        if tracer:
            replay = {}
            texts.append(generate_report(workers=args.workers,
                                         metrics=replay, **REPORT_ARGS))
            snaps.append(replay)
    out = {"wall_s": wall, "results_ms": clock.ms, "kernel": kernel,
           "sha256": [hashlib.sha256(t.encode()).hexdigest()
                      for t in texts],
           "leaves": _leaf_count([(n, p) for __, n, p in sections]),
           "counters": _counters(*snaps), "metrics": {}}
    if tracer:
        _finish_trace(tracer, out, args.trace)
    return out


def phase_mc(args):
    """Tables III and V at ``MC_CYCLES`` Monte Carlo cycles, no result cache."""
    tracer = _instrument(args)
    from repro import obs
    from repro.eval.experiments import TABLE3_CONFIGS, TABLE5_FLOPS
    from repro.eval.orchestrator import run_experiments

    points = capture_points()
    params = {"n_cycles": MC_CYCLES, "seed": args.seed}
    requests = [("table3", params), ("table5", params)]
    clock = ResultClock([f"table3/{key}" for key, __ in TABLE3_CONFIGS]
                        + [f"table5/{fmt}" for fmt in TABLE5_FLOPS])
    with tracer.span("run") if tracer else contextlib.nullcontext():
        if tracer:
            _build(POWER_DESIGNS)
            _kernel_kind()
        clock.start()
        run_experiments(requests, workers=args.workers, cache=False,
                        progress=clock)
        wall = time.perf_counter() - clock.t0
    out = {"wall_s": wall, "results_ms": clock.ms, "points": points,
           "paper_err_pct": paper_error_pct(points),
           "leaves": _leaf_count(requests),
           "counters": obs.registry().snapshot()["counters"],
           "metrics": {}}
    if tracer:
        _finish_trace(tracer, out, args.trace)
    return out


class ServeProbe:
    """Per-word observations of a traced serve run.

    ``due`` maps ``id(tx)`` to the transaction's due time on the
    tracer's clock; a word's queue wait is measured from there to the
    start of its ``LaneEngine.execute``.
    """

    def __init__(self):
        self.due = {}
        self.waits_ms = []
        self.phase = "setup"
        self.occupancy = {}

    def engine_hook(self, args, kwargs, result, t0):
        txs = args[1]
        for tx in txs:
            due = self.due.get(id(tx))
            if due is not None:
                self.waits_ms.append((t0 - due) * 1e3)
        self.occupancy.setdefault(self.phase, []).append(len(txs))
        return len(txs)


def _serve_layer_metrics(spans, probe, capacity, counters):
    """Named ``serve.*`` per-layer metrics from the traced spans."""
    words = [s for s in spans if s[1] == "serve.engine"]
    word_ids = {s[0] for s in words}
    # Kernel time a word spends inside the unit (multiply lanes) or the
    # levelized run (reduce lane), called directly from execute().
    unit_s = sum(t1 - t0 for __, layer, t0, t1, parent, ___ in spans
                 if parent in word_ids
                 and layer in ("core.pipeline_unit", "hdl.sim.levelized"))
    n_words = len(words)
    word_ms = (1e3 * sum(t1 - t0 for __, ___, t0, t1, ____, _____ in words)
               / n_words) if n_words else 0.0
    unit_ms = 1e3 * unit_s / n_words if n_words else 0.0
    occ = {phase: sum(sizes) / (len(sizes) * capacity)
           for phase, sizes in probe.occupancy.items()}
    submits = tr.durations(spans, "serve.submit")
    return {
        "serve.submit_us": 1e6 * tr.median(submits),
        "serve.queue_wait_ms.p50": tr.quantile(probe.waits_ms, 0.50),
        "serve.queue_wait_ms.p99": tr.quantile(probe.waits_ms, 0.99),
        "serve.word_ms": word_ms,
        "serve.unit_ms": unit_ms,
        "serve.demux_ms": word_ms - unit_ms,
        "serve.words": n_words,
        "serve.occupancy.open": occ.get("open", 0.0),
        "serve.occupancy.saturation": occ.get("saturation", 0.0),
        "serve.software_lanes": counters.get("serve.software_lanes", 0),
    }


def _open_loop(server, txs, span, due_of):
    """Submit ``txs`` at ``OPEN_RATE`` on schedule, never blocking.

    Returns ``(entries, late_s, span_s)``; ``entries`` holds ``(tx, due,
    ticket or None if refused)`` and ``due_of(tx, due)`` is told every
    due time.
    """
    from repro.errors import ReproError

    entries, late = [], []
    start = time.monotonic() + 0.01
    for i, tx in enumerate(txs):
        due = start + i / OPEN_RATE
        now = time.monotonic()
        if now < due:
            with span("bench.idle"):
                time.sleep(due - now)
            now = time.monotonic()
        late.append(now - due)
        due_of(tx, due)
        try:
            entries.append((tx, due, server.submit(tx, block=False)))
        except ReproError:
            entries.append((tx, due, None))
    span_s = time.monotonic() - start
    with span("bench.idle"), contextlib.suppress(ReproError):
        server.drain(timeout=DRAIN_TIMEOUT_S)
    return entries, late, span_s


def _saturate(server, txs, span):
    """Submit ``txs`` back to back (blocking); returns (entries, seconds)."""
    from repro.errors import ReproError

    entries = []
    t0 = time.monotonic()
    for tx in txs:
        try:
            entries.append((tx, t0, server.submit(tx,
                                                  timeout=DRAIN_TIMEOUT_S)))
        except ReproError:
            entries.append((tx, t0, None))
    with span("bench.idle"), contextlib.suppress(ReproError):
        server.drain(timeout=DRAIN_TIMEOUT_S)
    done = [tk.completed_at for __, ___, tk in entries
            if tk is not None and tk.done()]
    return entries, (max(done) if done else time.monotonic()) - t0


def _verify(entries, reference_result, tally):
    """Check every ticket; returns latencies (ms from due) of the good ones."""
    from repro.errors import ReproError

    latencies = []
    for tx, due, tk in entries:
        if tk is None:
            tally["refused"] += 1
        elif not tk.done():
            tally["timed_out"] += 1
        else:
            try:
                result = tk.result(timeout=0)
            except ReproError:
                tally["raised"] += 1
                continue
            if result != reference_result(tx):
                tally["mismatched"] += 1
            else:
                latencies.append((tk.completed_at - due) * 1e3)
    return latencies


def phase_serve(args):
    """``SERVE_ROUNDS`` rounds of open-loop then saturation load on one
    default ``Server``; per-round figures, summarized by their median."""
    from repro import obs
    from repro.serve.loadgen import TrafficGenerator, warm_engines
    from repro.serve.server import Server
    from repro.serve.transactions import reference_result

    tracer = None
    probe = ServeProbe()
    if args.trace:
        tracer = tr.Tracer()
        tracer.install(hooks={"serve.engine": probe.engine_hook})
    # Tracer spans use perf_counter; tickets use monotonic.
    to_tracer_clock = time.perf_counter() - time.monotonic()

    def span(layer):
        return tracer.span(layer) if tracer else contextlib.nullcontext()

    def due_of(tx, due):
        if tracer:
            probe.due[id(tx)] = due + to_tracer_clock

    n_open = int(OPEN_RATE * args.seconds / SERVE_ROUNDS)
    n_sat = SATURATION_TX_PER_S * args.seconds // SERVE_ROUNDS
    tally = dict.fromkeys(("refused", "timed_out", "raised", "mismatched"), 0)
    p50s, p99s, sat_s, late_ms, achieved = [], [], [], [], []
    with span("run"):
        warm_engines()
        gen = TrafficGenerator(seed=args.seed, specials=SPECIALS)
        server = Server()
        capacity = server.word_patterns
        try:
            for __ in range(SERVE_ROUNDS):
                # Inputs are made, and results checked, between the timed
                # phases.  Each round starts from a full collection, so a
                # full-heap pause of the collector (tens of ms, set by the
                # netlists' object count) does not land in one round's
                # open loop and not another's depending on how much the
                # benchmark itself allocated before it.
                with span("bench.generate"):
                    open_txs = [gen.next_transaction()
                                for ___ in range(n_open)]
                    sat_txs = [gen.next_transaction()
                               for ___ in range(n_sat)]
                with span("bench.gc"):
                    gc.collect()
                probe.phase = "open"
                opened, late, span_s = _open_loop(server, open_txs, span,
                                                  due_of)
                probe.phase = "saturation"
                saturated, seconds = _saturate(server, sat_txs, span)
                with span("bench.verify"):
                    latencies = _verify(opened, reference_result, tally)
                    _verify(saturated, reference_result, tally)
                p50s.append(tr.quantile(latencies, 0.50))
                p99s.append(tr.quantile(latencies, 0.99))
                sat_s.append(seconds)
                late_ms.extend(x * 1e3 for x in late)
                achieved.append(n_open / span_s)
                probe.due.clear()
                del open_txs, sat_txs, opened, saturated
        finally:
            server.stop()
    counters = obs.registry().snapshot()["counters"]
    out = {"wall_s": tr.median(sat_s), "attempted": SERVE_ROUNDS
           * (n_open + n_sat), **tally,
           "p50_ms": tr.median(p50s), "p99_ms": tr.median(p99s),
           "latency_samples": SERVE_ROUNDS * n_open,
           "tx_per_s": n_sat / tr.median(sat_s),
           "offered_per_s": OPEN_RATE,
           "achieved_per_s": tr.median(achieved),
           "gen_late_p99_ms": tr.quantile(late_ms, 0.99),
           "gen_late_max_ms": max(late_ms, default=0.0),
           "rounds": {"p50_ms": p50s, "p99_ms": p99s, "sat_s": sat_s},
           "counters": counters, "metrics": {}}
    if tracer:
        out["metrics"] = _serve_layer_metrics(tracer.spans, probe, capacity,
                                              counters)
        out["metrics"]["serve.gen_late_p99_ms"] = out["gen_late_p99_ms"]
        _finish_trace(tracer, out, args.trace)
    return out


PHASES = {"setup": phase_setup, "report": phase_report, "mc": phase_mc,
          "serve": phase_serve}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=sorted(PHASES))
    parser.add_argument("--out", required=True)
    parser.add_argument("--designs", default=",".join(ALL_DESIGNS))
    parser.add_argument("--serve", action="store_true",
                        help="setup: warm the serve lane engines")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--report", default=None,
                        help="report: where to write the report text")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", default=None, metavar="SPANS")
    args = parser.parse_args(argv)
    out = PHASES[args.phase](args)
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
