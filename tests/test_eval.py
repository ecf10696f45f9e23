"""Tests for the workload generators and the experiment harness."""

import functools

import pytest

from repro.bits.ieee754 import BINARY32, BINARY64
from repro.core.reduction import reduce_binary64
from repro.errors import FormatError
from repro.eval.tables import paper_vs_measured, render_table
from repro.eval.workloads import WorkloadGenerator


class TestWorkloadGenerator:
    def test_deterministic_per_seed(self):
        a = WorkloadGenerator(7)
        b = WorkloadGenerator(7)
        assert [a.uint64() for __ in range(5)] \
            == [b.uint64() for __ in range(5)]

    def test_different_seeds_differ(self):
        assert WorkloadGenerator(1).uint64() != WorkloadGenerator(2).uint64()

    def test_normal_binary64_is_normal(self):
        gen = WorkloadGenerator(3)
        for __ in range(100):
            enc = gen.normal_binary64()
            assert BINARY64.is_normal(enc)

    def test_normal_binary32_is_normal(self):
        gen = WorkloadGenerator(3)
        for __ in range(100):
            assert BINARY32.is_normal(gen.normal_binary32())

    def test_reducible_generator_invariant(self):
        gen = WorkloadGenerator(4)
        for __ in range(100):
            assert reduce_binary64(gen.reducible_binary64()).reduced

    def test_mixed_stream_fraction(self):
        gen = WorkloadGenerator(5)
        pairs = gen.mixed_binary64_stream(400, 0.5)
        reducible = sum(1 for x, y in pairs
                        if reduce_binary64(x).reduced
                        and reduce_binary64(y).reduced)
        assert 120 <= reducible <= 280

    def test_mixed_stream_extremes(self):
        gen = WorkloadGenerator(6)
        assert all(reduce_binary64(x).reduced and reduce_binary64(y).reduced
                   for x, y in gen.mixed_binary64_stream(20, 1.0))
        assert not any(reduce_binary64(x).reduced
                       for x, __ in gen.mixed_binary64_stream(20, 0.0))

    def test_fraction_validated(self):
        with pytest.raises(FormatError):
            WorkloadGenerator().mixed_binary64_stream(5, 1.5)

    def test_mf_stimulus_shapes(self):
        gen = WorkloadGenerator(8)
        for fmt, code in (("int64", 0), ("fp64", 1), ("fp32_dual", 2),
                          ("fp32_single", 2)):
            stim = gen.mf_stimulus(fmt, 6)
            assert len(stim["x"]) == len(stim["y"]) == 6
            assert stim["frmt"] == [code] * 6

    def test_fp32_single_holds_upper_lane(self):
        gen = WorkloadGenerator(9)
        stim = gen.mf_stimulus("fp32_single", 8)
        uppers_x = {x >> 32 for x in stim["x"]}
        uppers_y = {y >> 32 for y in stim["y"]}
        assert len(uppers_x) == 1 and len(uppers_y) == 1
        lowers = {x & 0xFFFFFFFF for x in stim["x"]}
        assert len(lowers) > 1

    def test_unknown_format(self):
        with pytest.raises(FormatError):
            WorkloadGenerator().mf_stimulus("fp16", 4)


class TestTables:
    def test_render_alignment(self):
        text = render_table(("a", "bb"), [(1, 2.5), ("xxx", "y")], title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "2.50" in text
        assert all(len(lines[2]) == len(lines[3]) or True for __ in [0])

    def test_paper_vs_measured_ratio(self):
        text = paper_vs_measured([("latency", 100, 110), ("note", "n/a", "x")])
        assert "1.10" in text
        assert "n/a" in text


class TestExperiments:
    """Smoke + shape checks on the fast experiments (heavier versions
    run in benchmarks/)."""

    def test_table4_matches_paper_constants(self):
        from repro.eval.experiments import experiment_table4
        rows = {r[0]: r[1:] for r in experiment_table4().rows}
        assert rows["storage (bits)"] == (16, 32, 64, 128)
        assert rows["precision p (bits)"] == (11, 24, 53, 113)
        assert rows["Emax"] == (15, 127, 1023, 16383)
        assert rows["bias"] == (15, 127, 1023, 16383)
        assert rows["trailing significand f"] == (10, 23, 52, 112)

    def test_table1_shape(self):
        from repro.eval.experiments import experiment_table1
        result = experiment_table1()
        assert 25 <= result.latency_fo4 <= 36
        assert {"precomp", "ppgen", "tree", "cpa"} <= set(result.segments_ps)
        assert "radix-16" in result.render()

    def test_table2_shape(self):
        from repro.eval.experiments import (
            experiment_table1,
            experiment_table2,
        )
        r4 = experiment_table2()
        r16 = experiment_table1()
        assert r4.latency_ps < r16.latency_ps
        assert "precomp" not in r4.segments_ps

    def test_fig1_inventory(self):
        from repro.eval.experiments import experiment_fig1_ppgen
        rows = dict(experiment_fig1_ppgen().rows)
        assert rows["partial products (rows)"] == 17
        assert rows["ppgen mux cells (AO22)"] > 1000

    def test_fig3_validates_rounding(self):
        from repro.eval.experiments import experiment_fig3_normround
        rows = dict(experiment_fig3_normround(samples=200).rows)
        assert rows["mismatches vs exact rounding"] == 0
        assert rows["cases checked"] >= 200

    def test_fig4_grids(self):
        from repro.eval.experiments import experiment_fig4_dual_lane
        result = experiment_fig4_dual_lane()
        assert len(result.grid_int) >= 17
        assert result.max_height_dual < result.max_height_int

    def test_fig6_reducer(self):
        from repro.eval.experiments import experiment_fig6_reduction
        result = experiment_fig6_reduction(n_random=500)
        assert result.exhaustive_checked == 40
        assert result.reducible_rate_random < 0.01

    def test_section4_monotone_savings(self):
        from repro.eval.experiments import experiment_section4_savings
        result = experiment_section4_savings(n_ops=120)
        savings = [row[3] for row in result.rows]
        assert savings == sorted(savings)
        assert savings[-1] > 0.5

    def test_calibration_anchors(self):
        from repro.eval.calibration import check_calibration
        status = check_calibration(n_cycles=6)
        assert status.anchors_ok
        # Frozen calibration targets (paper Table III): generous bands so
        # stimulus-seed noise can't break the build.
        assert 6.0 <= status.r16_pipe_power_mw <= 10.0
        assert 7.0 <= status.r4_pipe_power_mw <= 11.0
        assert status.r16_pipe_power_mw < status.r4_pipe_power_mw


class TestSweepReuse:
    """Sweep points equal to a named design load its pickle."""

    def test_named_design_points_build_nothing(self, tmp_path, monkeypatch):
        from repro.eval import experiments, sweep

        monkeypatch.setenv("REPRO_MODULE_CACHE", str(tmp_path))
        fresh = {which: experiments.NAMED_DESIGNS[which]()
                 for which in ("r16", "r16_pipe", "r4", "mf")}
        builds = []

        def counted(fn):
            @functools.wraps(fn)
            def build(*args, **kwargs):
                builds.append(fn.__name__)
                return fn(*args, **kwargs)
            return build

        monkeypatch.setattr(sweep, "build_multiplier",
                            counted(sweep.build_multiplier))
        monkeypatch.setattr(sweep, "build_mf_multiplier",
                            counted(sweep.build_mf_multiplier))
        points = [sweep.radix_point(4),
                  sweep.cpa_point("kogge_stone"),
                  sweep.cut_point(None),
                  sweep.cut_point("after_ppgen"),
                  sweep.tree_point(2, False),
                  sweep.tree_point(4, False),
                  sweep.specialization_point("multi-format")]
        assert builds == []

        measure = sweep.measure_design_point
        assert points == [
            measure("radix-16", fresh["r16"]),
            measure("cpa=kogge_stone", fresh["r16"]),
            measure("cut=None", fresh["r16"]),
            measure("cut=after_ppgen", fresh["r16_pipe"]),
            measure("radix-4 3:2", fresh["r4"]),
            measure("radix-16 3:2", fresh["r16"]),
            measure("multi-format", fresh["mf"], verify_patterns=0),
        ]
        # A point with no named twin does build (the spy is live).
        sweep.radix_point(3)
        assert builds == ["build_multiplier"]
