"""Equivalence tests for the compiled simulation backend.

Every fast path the compiled backend introduced — the per-kind template
loops and closures, the straight-line levelized kernel, the truth-table
C event kernel, the delta-stimulus :meth:`EventSimulator.replay`, the
sharded Monte Carlo — claims bit-identity with the historic reference
implementation it replaced.  These tests pin that claim down
kind-by-kind, on random netlists, and on the real multipliers.  One-shot
simulation must generate no per-netlist code; only an explicit
:meth:`CompiledModule.compile` (the serve lane engines) does.  The
on-disk netlist pickles must round-trip and fail safe.
"""

import builtins
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.errors import NetlistError, SimulationError
from repro.hdl.cell import CELL_KINDS, cell_eval, cell_num_inputs
from repro.hdl.library import default_library
from repro.hdl.module import Gate, Module
from repro.hdl.power.monte_carlo import estimate_power, shared_event_simulator
from repro.hdl.sim import ckernel
from repro.hdl.sim import compile as compile_mod
from repro.hdl.sim.compile import (
    _FACTORIES,
    _LOOPS,
    EXPR_TEMPLATES,
    REG,
    CompiledModule,
    compiled_module,
    gate_expr,
)
from repro.hdl.sim.event import EventSimulator
from repro.hdl.sim.levelized import LevelizedSimulator
from repro.hdl.sim.toposort import topo_gate_order, topo_node_order
from tests.test_hdl_properties import module_and_patterns

KINDS = sorted(CELL_KINDS)


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
        assert set(_FACTORIES) == set(CELL_KINDS)
        assert set(_LOOPS) == set(CELL_KINDS) | {REG}

    @pytest.mark.parametrize("kind", KINDS)
    def test_scalar_loop_and_factory_match_cell_eval(self, kind):
        # One column holding a gate per input combination.
        arity = cell_num_inputs(kind)
        n = 1 << arity
        v = [(i >> j) & 1 for i in range(n) for j in range(arity)]
        ins = [tuple(arity * i + j for i in range(n)) for j in range(arity)]
        out = tuple(range(len(v), len(v) + n))
        v += [0] * n
        _LOOPS[kind](v, 1, 1, out, *ins)
        fn = cell_eval(kind)
        for i in range(n):
            bits = [v[col[i]] for col in ins]
            expect = fn(1, *bits) & 1
            assert v[out[i]] == expect, (kind, bits)
            assert _FACTORIES[kind](v, 1, *[col[i] for col in ins])() \
                == expect, (kind, bits)

    @pytest.mark.parametrize("kind", KINDS)
    def test_packed_loop_and_factory_match_cell_eval(self, kind):
        # Pattern i of the single gate carries input combination i.
        arity = cell_num_inputs(kind)
        n = 1 << arity
        m = (1 << n) - 1
        words = [sum(((i >> j) & 1) << i for i in range(n))
                 for j in range(arity)]
        v = words + [0]
        _LOOPS[kind](v, m, m, (arity,), *[(j,) for j in range(arity)])
        expect = cell_eval(kind)(m, *words) & m
        assert v[arity] == expect
        assert _FACTORIES[kind](v, m, *range(arity))() == expect

    def test_register_loop_shifts_under_the_register_mask(self):
        v = [0b1011, 0, 0b0110, 0]
        _LOOPS[REG](v, 0b1111, 0b1110, (1, 3), (0, 2))
        assert v == [0b1011, 0b0110, 0b0110, 0b1100]


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

@st.composite
def registered_module_and_patterns(draw):
    """A :func:`module_and_patterns` netlist with pipeline registers
    (and gates reading them) appended, observed on bus ``r``."""
    module, patterns = draw(module_and_patterns())
    nets = list(range(module.n_nets))
    tail = []
    for __ in range(draw(st.integers(1, 3))):
        q = module.register(nets[draw(st.integers(0, len(nets) - 1))], 1)
        kind = draw(st.sampled_from(("XOR2", "AND2", "NOR2", "MUX2")))
        other = [nets[draw(st.integers(0, len(nets) - 1))]
                 for __ in range(cell_num_inputs(kind) - 1)]
        nets += [q, module.gate(kind, q, *other)]
        tail.append(nets[-1])
    module.output("r", tail)
    return module, patterns


def _three_kernels(module, run):
    """``run(simulator)`` on the template plan, the interpreted
    reference and the straight-line kernel, in that order."""
    cm = compiled_module(module)
    assert cm._straight is None
    plan = run(LevelizedSimulator(module))
    interp = run(LevelizedSimulator(module, compiled=False))
    cm.compile()
    straight = run(LevelizedSimulator(module))
    return plan, interp, straight


class TestCompiledLevelized:
    @given(registered_module_and_patterns(), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_segments_agree_at_a_register_boundary(self, case, cut):
        # The second segment starts at bit ``cut``: its register
        # shift-in is masked off there, in every kernel.
        module, patterns = case
        jobs = [({"a": patterns[:cut]}, cut),
                ({"a": patterns[cut:]}, len(patterns) - cut)]
        plan, interp, straight = _three_kernels(
            module, lambda sim: sim.run_segments(jobs).values)
        assert plan == interp == straight
        alone = LevelizedSimulator(module, compiled=False).run(*jobs[1])
        second = [(v >> cut) & ((1 << jobs[1][1]) - 1) for v in plan]
        assert second == alone.values

    @given(registered_module_and_patterns())
    @settings(max_examples=40, deadline=None)
    def test_settle_plan_matches_interpreted_settle(self, case):
        module, patterns = case
        lib = default_library()
        stim = _input_stim(module, patterns, 0)
        stim.update((reg.q, (patterns[1] >> i) & 1)
                    for i, reg in enumerate(module.registers))
        wheel = EventSimulator(module, lib, engine="wheel")
        heap = EventSimulator(module, lib, engine="heap")
        wheel.initialize(stim)
        heap.initialize(stim)
        assert wheel.values == heap.values

    @given(registered_module_and_patterns())
    @settings(max_examples=50, deadline=None)
    def test_matches_interpreter_on_random_netlists(self, case):
        module, patterns = case
        n = len(patterns)
        plan, interp, straight = _three_kernels(
            module, lambda sim: sim.run({"a": patterns}, n).values)
        # Net-for-net, every pattern word identical.
        assert plan == interp == straight

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
        # One algorithm on both paths: toggles, settle time and every
        # counter (events, cancellations, buckets) agree.
        assert cf == cs
        assert fast.values == slow.values
        assert fast.stats == slow.stats

    @pytest.mark.parametrize("name", ["r4", "r16_pipe", "mf"])
    def test_kernel_matches_python_wheel_on_multipliers(self, name):
        from repro.eval.experiments import cached_module
        from repro.eval.workloads import WorkloadGenerator

        module = cached_module(name)
        n = 4
        gen = WorkloadGenerator(5)
        stim = (gen.mf_stimulus("fp64", n) if name == "mf"
                else gen.multiplier_stimulus(n))
        run = LevelizedSimulator(module).run(stim, n)
        lib = default_library()
        fast = EventSimulator(module, lib)
        slow = EventSimulator(module, lib)
        slow._ck = None
        cf = fast.replay(run.values, 1, n - 1)
        assert cf == slow.replay(run.values, 1, n - 1)
        assert cf.wheel_buckets > 0 and cf.cancelled > 0
        assert fast.values == slow.values

    def test_same_time_retrigger_is_evaluated_once(self):
        # Two equal-delay inverters feed one XOR2; when their common
        # input rises, both fall in one timestamp's bucket.  The heap
        # engine evaluates the XOR after each (scheduling a 1, then a
        # cancelling 0); the wheel defers to one evaluation after the
        # bucket drains, which finds the output unchanged and
        # schedules nothing.
        m = Module("retrigger")
        a = m.input("a", 1)
        x = m.gate("INV", a[0])
        y = m.gate("INV", a[0])
        z = m.gate("XOR2", x, y)
        m.output("o", [z])
        lib = default_library()
        run = LevelizedSimulator(m).run({"a": [0, 1]}, 2)
        fast = EventSimulator(m, lib)
        assert fast._delay[0] == fast._delay[1]
        slow = EventSimulator(m, lib)
        slow._ck = None
        cf = fast.replay(run.values, 1, 1)
        assert cf == slow.replay(run.values, 1, 1)
        assert (cf.events_processed, cf.cancelled) == (2, 0)
        assert (cf.wheel_buckets, cf.wheel_max_bucket) == (1, 2)

        heap = EventSimulator(m, lib, engine="heap")
        heap.initialize({a[0]: 0})
        ch = heap.apply({a[0]: 1})
        assert (ch.events_processed, ch.cancelled) == (4, 1)
        assert cf.toggles == ch.toggles
        assert cf.toggles[z] == 0 and cf.toggles[x] == cf.toggles[y] == 1

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
# Monte Carlo: shared simulator, stats
# ----------------------------------------------------------------------

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


    def test_shard_leaves_match_serial(self):
        from repro.hdl.power.monte_carlo import (
            power_replay_shard,
            power_report_from_shards,
            power_shard_plan,
        )

        module, stim = self._module_and_stim(8)
        lib = default_library()
        serial = estimate_power(module, lib, stim, 8)
        plan = power_shard_plan(8, max_transitions=3)
        assert len(plan) == 3
        shards = [power_replay_shard(module, lib, stim, 8, lo, hi)
                  for lo, hi in plan]
        merged = power_report_from_shards(module, lib, stim, 8, shards)
        assert merged.dynamic_mw == serial.dynamic_mw
        assert merged.by_block_mw == serial.by_block_mw
        assert merged.total_toggles == serial.total_toggles
        assert merged.sim_stats["workers"] == 3
        for key in ("transitions", "events_processed", "cancellations"):
            assert merged.sim_stats[key] == serial.sim_stats[key]


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
# which kernels get compiled
# ----------------------------------------------------------------------

def _tiny_module(kind="AND2"):
    module = Module("tiny")
    a = module.input("a", 3)
    x = module.gate(kind, a[0], a[1])
    y = module.gate("XOR2", x, a[2])
    module.output("o", [x, module.register(y, 1)])
    return module


@pytest.fixture
def compile_calls(monkeypatch):
    """Every call of the builtin ``compile()`` the kernel module makes."""
    calls = []

    def spy(source, filename, *args, **kwargs):
        calls.append(filename)
        return builtins.compile(source, filename, *args, **kwargs)

    monkeypatch.setattr(compile_mod, "compile", spy, raising=False)
    return calls


def _fresh(which):
    """A private copy of a named design: no kernel state shared with
    other tests."""
    from repro.eval.experiments import cached_module

    return pickle.loads(pickle.dumps(cached_module(which)))


class TestKernelSelection:
    def test_one_shot_simulation_compiles_nothing(self, compile_calls):
        from repro.eval.sweep import measure_design_point
        from repro.eval.workloads import WorkloadGenerator

        point = measure_design_point("radix-4", _fresh("r4"))
        assert point.gates > 0
        stim = WorkloadGenerator(3).multiplier_stimulus(4)
        report = estimate_power(_fresh("r4_pipe"), default_library(),
                                stim, 4)
        assert report.total_toggles > 0
        assert compile_calls == []

    def test_plans_are_not_counted_as_compiled_kernels(self, compile_calls):
        module = _tiny_module()
        reg = obs.registry()
        before = reg.counter_value("compile.kernels") or 0
        LevelizedSimulator(module).run({"a": [1, 2, 3]}, 3)
        assert (reg.counter_value("compile.kernels") or 0) == before
        assert "levelized" in compiled_module(module)._plans
        assert compile_calls == []

    def test_compile_twice_compiles_once(self, compile_calls):
        module = _tiny_module()
        stim = {"a": [5, 6, 7, 1]}
        ref = LevelizedSimulator(module, compiled=False).run(stim, 4).values
        reg = obs.registry()
        before = reg.counter_value("compile.kernels") or 0
        cm = compiled_module(module)
        assert cm.compile() is cm
        cm.compile()
        assert (reg.counter_value("compile.kernels") or 0) == before + 1
        assert len(compile_calls) == 1
        assert "levelized" not in cm._plans
        assert LevelizedSimulator(module).run(stim, 4).values == ref

    @pytest.mark.parametrize("lane", ["int64", "reduce64"])
    def test_lane_engines_run_straight_line_code(self, lane):
        from repro.serve.engine import lane_engine
        from repro.serve.loadgen import TrafficGenerator
        from repro.serve.transactions import TxKind, reference_result

        kind = TxKind(lane)
        engine = lane_engine(kind)
        cm = compiled_module(engine._module)
        assert cm._straight is not None
        gen = TrafficGenerator(seed=5, mix={lane: 1.0})
        txs = [gen.next_transaction() for __ in range(3)]
        assert engine.execute(txs) == [reference_result(tx) for tx in txs]
        assert "levelized" not in cm._plans

    def test_grown_module_rebuilds_its_plan(self):
        module = _tiny_module()
        stim = {"a": [1, 6, 3, 4]}
        first = compiled_module(module)
        LevelizedSimulator(module).run(stim, 4)
        assert "levelized" in first._plans
        module.output("g", [module.gate("INV", module.outputs["o"][0])])
        grown = LevelizedSimulator(module)
        assert grown._kernel is not first
        assert (grown.run(stim, 4).values
                == LevelizedSimulator(module, compiled=False).run(
                    stim, 4).values)
        assert "levelized" in grown._kernel._plans
