"""Equivalence tests for the compiled simulation backend.

Every fast path the compiled backend introduced — the codegen levelized
kernel, the per-gate closures, the truth-table C event kernel, the
delta-stimulus :meth:`EventSimulator.replay`, the sharded Monte Carlo —
claims bit-identity with the historic reference implementation it
replaced.  These tests pin that claim down kind-by-kind, on random
netlists, and on the real multipliers.  The on-disk caches behind it
(netlist pickles and marshalled kernels) must hit across processes,
survive unrelated source edits, miss on any change to what the
generated code depends on, and recover from damaged files.
"""

import json
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro import obs
from repro.errors import NetlistError, SimulationError
from repro.hdl.cell import CELL_KINDS, cell_eval, cell_num_inputs
from repro.hdl.library import default_library
from repro.hdl.module import Gate, Module
from repro.hdl.power.monte_carlo import estimate_power, shared_event_simulator
from repro.hdl.sim import ckernel
from repro.hdl.sim.compile import (
    EXPR_TEMPLATES,
    CompiledModule,
    gate_expr,
    netlist_digest,
)
from repro.hdl.sim.event import EventSimulator
from repro.hdl.sim.levelized import LevelizedSimulator
from repro.hdl.sim.toposort import topo_gate_order, topo_node_order
from tests.test_hdl_properties import module_and_patterns

KINDS = sorted(CELL_KINDS)
SRC_ROOT = Path(__file__).resolve().parents[1] / "src"


def _input_stim(module, patterns, t):
    return {net: (patterns[t] >> i) & 1
            for i, net in enumerate(module.inputs["a"])}


# ----------------------------------------------------------------------
# codegen templates and truth tables vs cell_eval, kind by kind
# ----------------------------------------------------------------------

class TestCodegenTemplates:
    @pytest.mark.parametrize("kind", KINDS)
    def test_scalar_expression_matches_cell_eval(self, kind):
        arity = cell_num_inputs(kind)
        gate = Gate(kind, tuple(range(arity)), arity, "")
        expr = gate_expr(gate)
        fn = cell_eval(kind)
        for idx in range(1 << arity):
            bits = [(idx >> j) & 1 for j in range(arity)]
            got = eval(expr, {"v": bits, "M": 1}) & 1
            assert got == fn(1, *bits) & 1, (kind, bits)

    @pytest.mark.parametrize("kind", KINDS)
    def test_packed_expression_matches_cell_eval(self, kind):
        # All input combinations at once: pattern i carries combination i.
        arity = cell_num_inputs(kind)
        n = 1 << arity
        m = (1 << n) - 1
        words = []
        for j in range(arity):
            packed = 0
            for i in range(n):
                packed |= ((i >> j) & 1) << i
            words.append(packed)
        gate = Gate(kind, tuple(range(arity)), arity, "")
        expr = gate_expr(gate)
        got = eval(expr, {"v": words, "M": m}) & m
        assert got == cell_eval(kind)(m, *words) & m

    def test_every_kind_has_a_template(self):
        assert set(EXPR_TEMPLATES) == set(CELL_KINDS)


class TestTruthTable:
    @pytest.mark.parametrize("kind", KINDS)
    def test_table_matches_cell_eval(self, kind):
        arity = cell_num_inputs(kind)
        fn = cell_eval(kind)
        table = ckernel.truth_table(fn, arity)
        # All 16 slots — including the padded high bits, which must
        # replicate the low-arity output so a padded input slot (wired
        # to input 0 by the kernel) can never change the result.
        for idx in range(16):
            bits = [(idx >> j) & 1 for j in range(arity)]
            assert (table >> idx) & 1 == fn(1, *bits) & 1, (kind, idx)


# ----------------------------------------------------------------------
# compiled levelized kernel vs interpreted reference
# ----------------------------------------------------------------------

class TestCompiledLevelized:
    @given(module_and_patterns())
    @settings(max_examples=50, deadline=None)
    def test_matches_interpreter_on_random_netlists(self, case):
        module, patterns = case
        n = len(patterns)
        compiled = LevelizedSimulator(module).run({"a": patterns}, n)
        interp = LevelizedSimulator(module, compiled=False).run(
            {"a": patterns}, n)
        # Net-for-net, every pattern word identical.
        assert compiled.values == interp.values

    def test_matches_interpreter_on_radix16(self):
        from repro.eval.experiments import cached_module
        from repro.eval.workloads import WorkloadGenerator

        module = cached_module("r16")
        stim = WorkloadGenerator(7).multiplier_stimulus(4)
        compiled = LevelizedSimulator(module).run(stim, 4)
        interp = LevelizedSimulator(module, compiled=False).run(stim, 4)
        assert compiled.values == interp.values


# ----------------------------------------------------------------------
# time-wheel engine vs heapq reference
# ----------------------------------------------------------------------

class TestWheelMatchesHeap:
    @given(module_and_patterns())
    @settings(max_examples=40, deadline=None)
    def test_identical_transition_counts(self, case):
        module, patterns = case
        lib = default_library()
        wheel = EventSimulator(module, lib, engine="wheel")
        heap = EventSimulator(module, lib, engine="heap")
        wheel.initialize(_input_stim(module, patterns, 0))
        heap.initialize(_input_stim(module, patterns, 0))
        assert wheel.values == heap.values
        for t in range(1, len(patterns)):
            cw = wheel.apply(_input_stim(module, patterns, t))
            ch = heap.apply(_input_stim(module, patterns, t))
            assert cw.toggles == ch.toggles
            assert cw.settle_time_ps == ch.settle_time_ps
            assert wheel.values == heap.values

    def test_unknown_engine_rejected(self):
        m = Module("demo")
        a = m.input("a", 1)
        m.output("o", [m.gate("INV", a[0])])
        with pytest.raises(SimulationError, match="engine"):
            EventSimulator(m, default_library(), engine="wheelbarrow")


# ----------------------------------------------------------------------
# replay(): C kernel, wheel fallback, heap reference — one answer
# ----------------------------------------------------------------------

class TestReplay:
    @given(module_and_patterns())
    @settings(max_examples=30, deadline=None)
    def test_matches_per_cycle_heap_apply(self, case):
        module, patterns = case
        n = len(patterns)
        lib = default_library()
        run = LevelizedSimulator(module).run({"a": patterns}, n)

        esim = EventSimulator(module, lib)
        counts = esim.replay(run.values, 1, n - 1)

        heap = EventSimulator(module, lib, engine="heap")
        heap.initialize(_input_stim(module, patterns, 0))
        totals = [0] * module.n_nets
        last = None
        for t in range(1, n):
            last = heap.apply(_input_stim(module, patterns, t),
                              toggles_out=totals)
        assert counts.toggles == totals
        assert counts.settle_time_ps == last.settle_time_ps
        assert esim.values == heap.values

    @given(module_and_patterns())
    @settings(max_examples=20, deadline=None)
    def test_python_fallback_matches_kernel_path(self, case):
        module, patterns = case
        n = len(patterns)
        lib = default_library()
        run = LevelizedSimulator(module).run({"a": patterns}, n)
        fast = EventSimulator(module, lib)
        slow = EventSimulator(module, lib)
        slow._ck = None        # force the pure-Python replay path
        cf = fast.replay(run.values, 1, n - 1)
        cs = slow.replay(run.values, 1, n - 1)
        assert cf.toggles == cs.toggles
        assert cf.settle_time_ps == cs.settle_time_ps
        assert fast.values == slow.values

    def test_settles_to_final_cycle_state(self):
        from repro.eval.experiments import cached_module
        from repro.eval.workloads import WorkloadGenerator

        module = cached_module("r4")
        n = 6
        stim = WorkloadGenerator(11).multiplier_stimulus(n)
        run = LevelizedSimulator(module).run(stim, n)
        esim = EventSimulator(module, default_library())
        counts = esim.replay(run.values, 1, n - 1)
        # Feed-forward logic: the settled state after the last transition
        # is the zero-delay state of the last cycle.
        for net in range(module.n_nets):
            assert esim.values[net] == run.net_value(net, n - 1)
        assert counts.total() >= sum(run.toggles_per_net())
        # Perf counters accumulated across the whole window.
        assert esim.stats["applies"] == n - 1
        assert esim.stats["events"] == counts.events_processed

    def test_window_validation(self):
        m = Module("demo")
        a = m.input("a", 1)
        m.output("o", [m.gate("INV", a[0])])
        esim = EventSimulator(m, default_library())
        packed = [0] * m.n_nets
        with pytest.raises(SimulationError, match="window"):
            esim.replay(packed, 0, 3)
        with pytest.raises(SimulationError, match="window"):
            esim.replay(packed, 3, 2)
        with pytest.raises(SimulationError, match="every net"):
            esim.replay([0], 1, 2)

    def test_long_window_chunking(self):
        # More transitions than one C-kernel window (63) in one replay.
        m = Module("chain")
        a = m.input("a", 1)
        net = a[0]
        for __ in range(5):
            net = m.gate("INV", net)
        m.output("o", [net])
        n = 150
        patterns = [(t * 0x9E3779B9 >> 7) & 1 for t in range(n)]
        run = LevelizedSimulator(m).run({"a": patterns}, n)
        esim = EventSimulator(m, default_library())
        counts = esim.replay(run.values, 1, n - 1)
        flips = sum(patterns[t] != patterns[t - 1] for t in range(1, n))
        # A pure inverter chain can't glitch: every net toggles exactly
        # once per input flip.
        assert counts.toggles == [flips] * m.n_nets
        for net_id in range(m.n_nets):
            assert esim.values[net_id] == run.net_value(net_id, n - 1)


# ----------------------------------------------------------------------
# shared toposort
# ----------------------------------------------------------------------

class TestToposort:
    @given(module_and_patterns())
    @settings(max_examples=40, deadline=None)
    def test_gate_order_is_topological(self, case):
        module, __ = case
        order = topo_gate_order(module)
        assert sorted(order) == list(range(len(module.gates)))
        position = {gidx: pos for pos, gidx in enumerate(order)}
        producer = {g.output: i for i, g in enumerate(module.gates)}
        for gidx, gate in enumerate(module.gates):
            for net in gate.inputs:
                if net in producer:
                    assert position[producer[net]] < position[gidx]

    def test_node_order_includes_registers(self):
        m = Module("reg")
        a = m.input("a", 1)
        inv = m.gate("INV", a[0])
        q = m.register(inv, stage=1)
        m.output("o", [m.gate("BUF", q)])
        order = topo_node_order(m)
        assert -1 in order                   # register 0 encoded as -1
        assert sorted(i for i in order if i >= 0) == [0, 1]
        # The register comes after its d-producer and before its q-consumer.
        assert order.index(0) < order.index(-1) < order.index(1)

    def test_cycle_raises_requested_error_type(self):
        m = Module("cyclic")
        a = m.input("a", 1)
        out1 = m.new_net()
        out2 = m.new_net()
        m._driver[out1] = "gate"
        m._driver[out2] = "gate"
        m.gates.append(Gate("AND2", (a[0], out2), out1, ""))
        m.gates.append(Gate("INV", (out1,), out2, ""))
        for fn in (topo_gate_order, topo_node_order):
            with pytest.raises(SimulationError, match="cycle"):
                fn(m)
            with pytest.raises(NetlistError, match="cycle"):
                fn(m, error=NetlistError)


# ----------------------------------------------------------------------
# Monte Carlo: shared simulator, stats, sharding
# ----------------------------------------------------------------------

def _power_fields(report):
    return (report.dynamic_mw, report.register_mw, report.leakage_mw,
            report.zero_delay_dynamic_mw, report.by_block_mw,
            report.total_toggles)


class TestMonteCarlo:
    def _module_and_stim(self, n_cycles):
        from repro.eval.experiments import cached_module
        from repro.eval.workloads import WorkloadGenerator

        module = cached_module("r4")
        stim = WorkloadGenerator(2017).multiplier_stimulus(n_cycles)
        return module, stim

    def test_shared_simulator_is_reused(self):
        module, __ = self._module_and_stim(2)
        lib = default_library()
        esim = shared_event_simulator(module, lib)
        assert shared_event_simulator(module, lib) is esim
        # Library matching is by equality, not identity.
        assert shared_event_simulator(module, default_library()) is esim

    def test_sim_stats_in_report(self):
        module, stim = self._module_and_stim(4)
        lib = default_library()
        report = estimate_power(module, lib, stim, 4)
        stats = report.sim_stats
        assert stats["engine"] == "wheel"
        assert stats["kernel"] in ("c", "python")
        assert stats["kernel"] == shared_event_simulator(module, lib).kernel
        assert stats["transitions"] == 3
        assert stats["workers"] == 1
        assert stats["events_processed"] > 0

        flat = estimate_power(module, lib, stim, 4, glitch=False)
        assert flat.sim_stats["engine"] == "zero-delay"

    def test_workers_match_serial(self):
        module, stim = self._module_and_stim(8)
        lib = default_library()
        serial = estimate_power(module, lib, stim, 8)
        sharded = estimate_power(module, lib, stim, 8, workers=2)
        assert _power_fields(sharded) == _power_fields(serial)
        assert sharded.sim_stats["workers"] == 2
        assert (sharded.sim_stats["events_processed"]
                == serial.sim_stats["events_processed"])

    def test_workers_env_opt_in(self, monkeypatch):
        module, stim = self._module_and_stim(4)
        monkeypatch.setenv("REPRO_POWER_WORKERS", "2")
        report = estimate_power(module, default_library(), stim, 4)
        assert report.sim_stats["workers"] == 2

    def test_workers_env_rejects_garbage(self, monkeypatch):
        module, stim = self._module_and_stim(4)
        monkeypatch.setenv("REPRO_POWER_WORKERS", "abc")
        with pytest.raises(SimulationError, match="REPRO_POWER_WORKERS"):
            estimate_power(module, default_library(), stim, 4)


# ----------------------------------------------------------------------
# on-disk module cache
# ----------------------------------------------------------------------

class TestModuleDiskCache:
    def test_pickle_roundtrip(self, tmp_path, monkeypatch):
        from repro.eval import experiments

        monkeypatch.setenv("REPRO_MODULE_CACHE", str(tmp_path))
        experiments.cached_module.cache_clear()
        try:
            first = experiments.cached_module("r4")
            files = list(tmp_path.glob("build_multiplier-*.pkl"))
            assert len(files) == 1
            experiments.cached_module.cache_clear()
            second = experiments.cached_module("r4")   # from pickle
            assert second.n_nets == first.n_nets
            assert ([g.kind for g in second.gates]
                    == [g.kind for g in first.gates])
            assert second.inputs.keys() == first.inputs.keys()
        finally:
            # Don't leave tmp_path-backed entries in the process-wide cache.
            experiments.cached_module.cache_clear()

    def test_cache_disabled_by_env(self, monkeypatch):
        from repro.hdl.diskcache import module_cache_dir

        monkeypatch.setenv("REPRO_MODULE_CACHE", "0")
        assert module_cache_dir() is None

    def test_failed_pickle_write_leaves_no_temp_file(self, tmp_path,
                                                     monkeypatch):
        from repro.eval import experiments

        def boom(*args, **kwargs):
            raise pickle.PicklingError("refused")

        monkeypatch.setenv("REPRO_MODULE_CACHE", str(tmp_path))
        monkeypatch.setattr(experiments.pickle, "dump", boom)
        module = experiments.load_netlist(_tiny_module)
        assert module.n_nets == _tiny_module().n_nets
        assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# on-disk kernel artefacts
# ----------------------------------------------------------------------

def _tiny_module(kind="AND2"):
    module = Module("tiny")
    a = module.input("a", 3)
    x = module.gate(kind, a[0], a[1])
    y = module.gate("XOR2", x, a[2])
    module.output("o", [x, module.register(y, 1)])
    return module


#: Runs r4's levelized kernel once and prints the counters as JSON,
#: with bit-identity against the interpreter checked in-process.
_PROBE = """
import json
from repro import obs
from repro.eval.experiments import cached_module
from repro.eval.workloads import WorkloadGenerator
from repro.hdl.sim.levelized import LevelizedSimulator

module = cached_module("r4")
stim = WorkloadGenerator(11).multiplier_stimulus(8)
run = LevelizedSimulator(module).run(stim, 8)
ref = LevelizedSimulator(module, compiled=False).run(stim, 8)
counters = obs.registry().snapshot()["counters"]
print(json.dumps({"identical": run.values == ref.values,
                  "counters": counters}))
"""


def _probe(src_root, cache_dir):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(src_root), REPRO_MODULE_CACHE=str(cache_dir))
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["identical"]
    return result["counters"]


class TestKernelArtefacts:
    def test_second_process_compiles_nothing(self, tmp_path):
        cold = _probe(SRC_ROOT, tmp_path)
        assert cold.get("compile.kernels", 0) == 1
        assert cold.get("compile.artefacts.misses", 0) == 1
        assert len(list(tmp_path.glob("kernel-*-levelized.marshal"))) == 1
        warm = _probe(SRC_ROOT, tmp_path)
        assert warm.get("compile.kernels", 0) == 0
        assert warm.get("compile.artefacts.hits", 0) == 1
        assert warm.get("module_cache.hits", 0) == 1

    def test_unrelated_source_edit_keeps_kernels(self, tmp_path):
        src = tmp_path / "src"
        shutil.copytree(SRC_ROOT / "repro", src / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        cache = tmp_path / "cache"
        _probe(src, cache)
        with open(src / "repro" / "serve" / "server.py", "a") as fh:
            fh.write("\n# an edit outside the codegen\n")
        warm = _probe(src, cache)
        assert warm.get("module_cache.misses", 0) == 1   # pickle stale
        assert warm.get("compile.artefacts.hits", 0) == 1
        assert warm.get("compile.kernels", 0) == 0

    def test_digest_tracks_structure(self):
        base = netlist_digest(_tiny_module())
        assert netlist_digest(_tiny_module()) == base
        assert netlist_digest(_tiny_module("OR2")) != base
        rewired = _tiny_module()
        gate = rewired.gates[0]
        rewired.gates[0] = Gate(gate.kind, (gate.inputs[1], gate.inputs[0]),
                                gate.output, gate.block)
        assert netlist_digest(rewired) != base
        renamed = _tiny_module()
        renamed.name = "other"
        assert netlist_digest(renamed) == base

    def test_digest_tracks_interpreter_and_templates(self, monkeypatch):
        import importlib.util

        base = netlist_digest(_tiny_module())
        with monkeypatch.context() as mp:
            mp.setattr(importlib.util, "MAGIC_NUMBER", b"\x00\x00\r\n")
            assert netlist_digest(_tiny_module()) != base
        with monkeypatch.context() as mp:
            mp.setitem(EXPR_TEMPLATES, "XOR2", "({1} ^ {0})")
            assert netlist_digest(_tiny_module()) != base
        assert netlist_digest(_tiny_module()) == base

    def test_truncated_artefact_is_rebuilt(self, tmp_path, monkeypatch):
        from repro.eval.experiments import cached_module
        from repro.eval.workloads import WorkloadGenerator
        from repro.hdl.sim import compile as compile_mod

        monkeypatch.setenv("REPRO_MODULE_CACHE", str(tmp_path))
        compiles = []
        real = compile_mod.compile_module
        monkeypatch.setattr(compile_mod, "compile_module",
                            lambda *a: compiles.append(a[1]) or real(*a))
        module = cached_module("r4")
        stim = WorkloadGenerator(5).multiplier_stimulus(4)
        ref = LevelizedSimulator(module, compiled=False).run(stim, 4).values

        def run():
            sim = LevelizedSimulator(module)
            sim._kernel = CompiledModule(module)     # bypass the memo
            return sim.run(stim, 4).values

        assert run() == ref
        (path,) = tmp_path.glob("kernel-*-levelized.marshal")
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:size // 2])
        assert run() == ref                  # recompiled, not raised
        assert compiles == ["levelized", "levelized"]
        assert path.stat().st_size == size   # and rewritten
        assert run() == ref
        assert compiles == ["levelized", "levelized"]

    def test_failed_artefact_write_leaves_no_temp_file(self, tmp_path,
                                                       monkeypatch):
        from repro.eval.experiments import cached_module
        from repro.hdl import diskcache

        def refuse(*args):
            raise OSError("read-only")

        monkeypatch.setenv("REPRO_MODULE_CACHE", str(tmp_path))
        monkeypatch.setattr(diskcache.os, "replace", refuse)
        module = cached_module("r4")
        CompiledModule(module).run_levelized([0] * module.n_nets, 1)
        assert list(tmp_path.iterdir()) == []

    def test_full_mode_mutants_write_no_artefacts(self, tmp_path,
                                                  monkeypatch):
        """Fault-injection clones are throwaway netlists: their kernels
        compile in process, so a full-mode campaign leaves no
        per-mutant files in the cache root."""
        from repro.eval.experiments import cached_module
        from repro.eval.fault_injection import (
            campaign_battery,
            mutation_coverage,
        )

        monkeypatch.setenv("REPRO_MODULE_CACHE", str(tmp_path))
        module = cached_module("r4")
        reg = obs.registry()
        kernels_before = reg.counter_value("compile.kernels") or 0
        result = mutation_coverage(module, n_mutations=4, seed=3,
                                   mode="full",
                                   battery=campaign_battery("r16", module))
        assert result.attempted == 4
        assert (reg.counter_value("compile.kernels") or 0) > kernels_before
        digests = {path.name.split("-")[1]
                   for path in tmp_path.glob("kernel-*.marshal")}
        assert digests <= {netlist_digest(module)}
        assert list(tmp_path.glob("*.tmp")) == []

    def test_disabled_cache_is_never_keyed(self, monkeypatch):
        from repro.eval.experiments import cached_module

        monkeypatch.setenv("REPRO_MODULE_CACHE", "0")
        module = cached_module("r4")
        cm = CompiledModule(module)
        cm.run_levelized([0] * module.n_nets, 1)
        assert cm._digest is None            # never even keyed
