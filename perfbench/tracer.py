"""Span tracing from outside the program, for the benchmark's traced runs.

The benchmark changes nothing under ``src/``.  Per-layer time comes
from wrappers this module installs around public functions of each
layer.  A wrapper is patched into the defining module or class *and*
into every loaded ``repro`` module that holds its own reference (a
``from X import f`` copy), so every caller reaches it.

Each span records ``(id, layer, start, end, parent, count)``; spans
live in memory and are written out when the run ends.  Self time is a
span's duration minus the time of its direct children (children run
in the same thread, so they never overlap).
"""

import builtins
import contextlib
import functools
import hashlib
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

#: Layers that only contain work: their self time is unattributed.
CONTAINERS = ("run", "eval.sched.leaf")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _levelized_patterns(args, kwargs, result, t0):
    return _arg(args, kwargs, 2, "n_patterns")


def _segment_patterns(args, kwargs, result, t0):
    return sum(n for __, n in _arg(args, kwargs, 1, "jobs"))


#: (layer, "module:qualname", count hook or None) for every wrapped
#: public function.  A count hook sees (args, kwargs, result, start).
LAYER_TARGETS = [
    ("circuits", "repro.circuits.mult_common:build_multiplier", None),
    ("circuits", "repro.circuits.mult_radix4:radix4_multiplier", None),
    ("circuits", "repro.circuits.mult_radix8:radix8_multiplier", None),
    ("circuits", "repro.circuits.mult_radix16:radix16_multiplier", None),
    ("circuits", "repro.core.pipeline_unit:build_mf_multiplier", None),
    ("circuits", "repro.circuits.reducer:build_reducer", None),
    ("hdl.optimize", "repro.hdl.optimize:optimize", None),
    ("hdl.optimize", "repro.hdl.optimize:tie_input", None),
    ("hdl.buffering", "repro.hdl.buffering:insert_buffers", None),
    ("hdl.timing", "repro.hdl.timing.sta:analyze", None),
    ("hdl.timing", "repro.hdl.timing.sta:critical_path_breakdown", None),
    ("hdl.area", "repro.hdl.area.model:area_report", None),
    ("hdl.sim.compile.codegen", "repro.hdl.sim.compile:compile_module",
     None),
    ("hdl.sim.compile.kernel", "repro.hdl.sim.compile:_compile_chunks",
     None),
    ("hdl.sim.compile.kernel",
     "repro.hdl.sim.compile:_compile_eval_factories", None),
    ("hdl.sim.levelized", "repro.hdl.sim.levelized:LevelizedSimulator.run",
     _levelized_patterns),
    ("hdl.sim.levelized",
     "repro.hdl.sim.levelized:LevelizedSimulator.run_segments",
     _segment_patterns),
    ("hdl.sim.event", "repro.hdl.sim.event:EventSimulator.replay", None),
    ("hdl.power", "repro.hdl.power.monte_carlo:estimate_power", None),
    ("hdl.power", "repro.hdl.power.monte_carlo:estimate_power_batch", None),
    ("hdl.power", "repro.hdl.power.monte_carlo:power_replay_shard", None),
    ("hdl.power.assemble", "repro.hdl.power.monte_carlo:_assemble_report",
     None),
    ("hdl.power.merge",
     "repro.hdl.power.monte_carlo:power_report_from_shards", None),
    ("hdl.power.merge", "repro.hdl.power.monte_carlo:merge_shard_results",
     None),
    ("eval.fault", "repro.eval.fault_injection:coverage_chunk", None),
    ("eval.fault", "repro.eval.fault_injection:campaign_engine", None),
    ("hdl.sim.differential",
     "repro.hdl.sim.differential:DifferentialEngine.run_mutant", None),
    ("eval.sweep", "repro.eval.sweep:measure_design_point", None),
    ("eval.sweep", "repro.eval.sweep:radix_point", None),
    ("eval.sweep", "repro.eval.sweep:cpa_point", None),
    ("eval.sweep", "repro.eval.sweep:cut_point", None),
    ("eval.sweep", "repro.eval.sweep:tree_point", None),
    ("eval.sweep", "repro.eval.sweep:specialization_point", None),
    ("eval.cache.load", "repro.eval.cache:ResultCache.load", None),
    ("eval.cache.store", "repro.eval.cache:ResultCache.store", None),
    ("eval.orchestrator", "repro.eval.orchestrator:run_experiments", None),
    ("eval.sched.leaf", "repro.eval.sched.base:call_leaf", None),
    ("eval.report", "repro.eval.report:generate_report", None),
    ("eval.experiments", "repro.eval.experiments:cached_module", None),
    ("serve.submit", "repro.serve.server:Server.submit", None),
    ("serve.engine", "repro.serve.engine:LaneEngine.execute", None),
    ("core.pipeline_unit", "repro.core.pipeline_unit:MFMultUnit.run_batch",
     None),
]


def patch(spec, make):
    """Replace the function named by ``spec`` with ``make(original)``.

    ``spec`` is ``"module:qualname"``.  A module-level function is also
    rebound in every loaded ``repro`` module holding its own reference
    to it, so ``from X import f`` callers reach the replacement too.
    Returns the replacement.
    """
    modname, __, qualname = spec.partition(":")
    owner = importlib.import_module(modname)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = owner.__dict__[attr]
    replacement = make(original)
    setattr(owner, attr, replacement)
    if not path:
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
    return replacement


def netlist_digest(module):
    """Structural hash of a netlist: gates, registers, ports, constants."""
    digest = hashlib.sha1()
    for gate in module.gates:
        digest.update(repr((gate.kind, gate.inputs, gate.output)).encode())
    for reg in module.registers:
        digest.update(repr((reg.d, reg.q)).encode())
    digest.update(repr((sorted(module.inputs.items()),
                        sorted(module.outputs.items()),
                        sorted(module.constants.items()))).encode())
    return digest.hexdigest()


class Tracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.netlists = set()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer, fn, hook=None):
        """``fn`` wrapped so that every call records one span."""
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            count, result = 0, None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                if hook is not None:
                    count = hook(args, kwargs, result, t0)
                    # The hook's own cost is tracing, not the caller's.
                    spans.append((next(ids), "trace.hook", t1, clock(),
                                  parent, 0))
                spans.append((sid, layer, t0, t1, parent, count))
        return traced

    @contextlib.contextmanager
    def span(self, layer):
        """Record one span of ``layer`` around a ``with`` block."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, layer, t0, t1, parent, 0))

    def install(self, targets=LAYER_TARGETS, hooks=None):
        """Wrap every target; ``hooks`` overrides count hooks by layer."""
        hooks = dict(hooks or {})
        hooks.setdefault("hdl.sim.compile.codegen", self._netlist_hook)
        for layer, spec, hook in targets:
            patch(spec, lambda fn, layer=layer, hook=hook: self.wrap(
                layer, fn, hooks.get(layer, hook)))
        # Time the builtin compile() where the codegen module looks it up.
        compile_mod = importlib.import_module("repro.hdl.sim.compile")
        compile_mod.compile = self.wrap("hdl.sim.compile.pycompile",
                                        builtins.compile)

    def _netlist_hook(self, args, kwargs, result, t0):
        self.netlists.add(netlist_digest(_arg(args, kwargs, 0, "module")))
        return 0

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "layer", "start", "end", "parent",
                                  "count"], "spans": self.spans}, fh)


def layer_table(spans):
    """Per-layer self time, outermost-call time and counts.

    Returns ``{layer: {"self_s", "total_s", "calls", "outer_calls",
    "count"}}``.  ``total_s`` sums only outermost spans of a layer, so
    a layer calling itself is not counted twice.
    """
    child_time = defaultdict(float)
    info = {}
    for sid, layer, t0, t1, parent, count in spans:
        child_time[parent] += t1 - t0
        info[sid] = (layer, parent)
    rows = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0,
                                "outer_calls": 0, "count": 0})
    for sid, layer, t0, t1, parent, count in spans:
        row = rows[layer]
        row["self_s"] += (t1 - t0) - child_time[sid]
        row["calls"] += 1
        row["count"] += count
        up = parent
        while up and info[up][0] != layer:
            up = info[up][1]
        if not up:
            row["outer_calls"] += 1
            row["total_s"] += t1 - t0
    return dict(rows)


def layer_metrics(spans, counters, netlists):
    """The named per-layer metrics of one traced process.

    ``*_s`` metrics are self time, except ``eval.fault.campaign_s``,
    which is the whole campaign (outermost spans).  Counts and ratios
    of simulated work come from the metrics-registry ``counters``.
    """
    rows = layer_table(spans)

    def row(layer, key):
        return rows.get(layer, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    counter = counters.get
    wall = row("run", "total_s")
    replay_s = row("hdl.sim.event", "self_s")
    events = counter("sim.replay.events", 0)
    campaign_s = row("eval.fault", "total_s")
    mutations = counter("fault.mutations", 0)
    kernels = row("hdl.sim.compile.kernel", "calls")
    # cached_module() is also memoized in-process, and only its disk
    # layer ticks the registry: every wrapped call not counted as a
    # miss was served from one of the two cache levels.
    lookups = row("eval.experiments", "calls")
    cache_hits = counter("orchestrator.cache.hits", 0)
    leaves = durations(spans, "eval.sched.leaf")
    return {
        "circuits.build_s": row("circuits", "self_s"),
        "circuits.builds": row("circuits", "outer_calls"),
        "hdl.optimize_s": row("hdl.optimize", "self_s"),
        "hdl.buffering_s": row("hdl.buffering", "self_s"),
        "hdl.timing.sta_s": row("hdl.timing", "self_s"),
        "hdl.timing.calls": row("hdl.timing", "outer_calls"),
        "hdl.area_s": row("hdl.area", "self_s"),
        "hdl.sim.compile.codegen_s": row("hdl.sim.compile.codegen",
                                         "self_s"),
        "hdl.sim.compile.pycompile_s": row("hdl.sim.compile.pycompile",
                                           "self_s"),
        "hdl.sim.compile.kernels": kernels,
        "hdl.sim.compile.kernels_per_netlist": ratio(kernels,
                                                     len(netlists)),
        "eval.experiments.module_cache_hit_ratio": ratio(
            lookups - counter("module_cache.misses", 0), lookups),
        "hdl.sim.levelized.settle_s": row("hdl.sim.levelized", "self_s"),
        "hdl.sim.levelized.patterns": row("hdl.sim.levelized", "count"),
        "hdl.sim.event.replay_s": replay_s,
        "hdl.sim.event.events": events,
        "hdl.sim.event.events_per_s": ratio(events, replay_s),
        "hdl.sim.event.cancel_ratio": ratio(
            counter("sim.replay.cancellations", 0), events),
        "hdl.power.assemble_s": row("hdl.power.assemble", "self_s"),
        "hdl.power.merge_s": row("hdl.power.merge", "self_s"),
        "eval.fault.campaign_s": campaign_s,
        "eval.fault.mutations_per_s": ratio(mutations, campaign_s),
        "eval.fault.early_exit_ratio": ratio(
            counter("fault.early_exits", 0), mutations),
        "eval.fault.gates_per_mutation": ratio(
            counter("fault.gates_evaluated", 0), mutations),
        "eval.sweep.point_s": row("eval.sweep", "self_s"),
        "eval.cache.load_s": row("eval.cache.load", "self_s"),
        "eval.cache.store_s": row("eval.cache.store", "self_s"),
        "eval.cache.hit_ratio": ratio(
            cache_hits,
            cache_hits + counter("orchestrator.cache.misses", 0)),
        "eval.sched.leaves": len(leaves),
        "eval.sched.leaf_self_s": row("eval.sched.leaf", "self_s"),
        "eval.sched.max_leaf_frac": ratio(max(leaves, default=0.0), wall),
        "eval.report.render_s": row("eval.report", "self_s"),
        "unattributed_frac": ratio(
            sum(row(layer, "self_s") for layer in CONTAINERS), wall),
    }


def durations(spans, layer):
    """Durations (s) of every span of ``layer``, in recording order."""
    return [t1 - t0 for __, name, t0, t1, ___, ____ in spans
            if name == layer]


def quantile(values, q):
    """Nearest-rank quantile of ``values`` (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def median(values):
    return statistics.median(values) if values else 0.0
