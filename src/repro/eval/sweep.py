"""Design-space sweeps (the ablation studies).

The paper makes several design choices it argues for but does not
sweep; we do:

* **radix** — 4 vs 8 vs 16 (Sec. II-A argues radix-8 is dominated);
* **final CPA style** — ripple / Brent-Kung / Kogge-Stone / carry-select;
* **pipeline cut** — after the pre-computation vs after PPGEN;
* **tree style** — Dadda 3:2 vs 4:2-compressor-first.

Every point loads its netlist through
:func:`repro.eval.experiments.load_netlist`, so the points that equal a
named design (radix-4/8/16, ``cpa=kogge_stone``, ``cut=None``,
``cut=after_ppgen``, the 3:2 trees, ``multi-format``) reuse its
pickle instead of building it again.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.circuits.mult_common import build_multiplier
from repro.core.pipeline_unit import (
    FRMT_FP32X2,
    FRMT_FP64,
    FRMT_INT64,
    build_mf_multiplier,
)
from repro.eval.experiments import load_netlist
from repro.eval.tables import render_table
from repro.eval.workloads import WorkloadGenerator
from repro.hdl.area.model import area_report
from repro.hdl.buffering import insert_buffers
from repro.hdl.library import default_library
from repro.hdl.optimize import optimize, tie_input
from repro.hdl.power.monte_carlo import estimate_power
from repro.hdl.sim.levelized import LevelizedSimulator
from repro.hdl.timing.sta import analyze


@dataclass
class DesignPoint:
    """One multiplier configuration's measurements."""

    label: str
    gates: int
    registers: int
    latency_ps: float
    clock_ps: float
    area_knand2: float
    power_mw: Optional[float] = None

    def as_row(self):
        return (self.label, self.gates, self.registers,
                round(self.latency_ps), round(self.clock_ps),
                round(self.area_knand2, 1),
                "-" if self.power_mw is None else round(self.power_mw, 2))


@dataclass
class SweepResult:
    title: str
    points: List[DesignPoint]

    def render(self):
        return render_table(
            ("config", "gates", "regs", "latency[ps]", "clock[ps]",
             "area[K]", "power[mW]"),
            [p.as_row() for p in self.points], title=self.title)


def measure_design_point(label, module, power_cycles=0, seed=2017,
                         verify_patterns=16):
    """STA + area (+ optional power) for one built multiplier module.

    The stimulus is generated **once** for the longest pass and sliced:
    the verify pass reads the first ``verify_patterns`` words of the
    same stream the power pass replays (the simulators only consume the
    first ``n_patterns`` entries of each bus list), instead of paying
    ``WorkloadGenerator`` twice per design point.
    """
    lib = default_library()
    n_patterns = max(verify_patterns, power_cycles)
    stim = (WorkloadGenerator(seed).multiplier_stimulus(n_patterns)
            if n_patterns else None)
    if verify_patterns:
        run = LevelizedSimulator(module).run(stim, verify_patterns)
        latency = module.stage_count() - 1
        words = run.bus_words(module.outputs["p"])
        for t in range(verify_patterns - latency):
            expect = stim["x"][t] * stim["y"][t]
            assert words[t + latency] == expect, \
                f"{label}: wrong product at pattern {t}"
    timing = analyze(module, lib)
    area = area_report(module, lib)
    power = None
    if power_cycles:
        power = estimate_power(module, lib, stim, power_cycles).total_mw
    return DesignPoint(
        label=label,
        gates=len(module.gates),
        registers=len(module.registers),
        latency_ps=timing.latency_ps,
        clock_ps=timing.clock_period_ps,
        area_knand2=area.total_nand2_eq / 1000.0,
        power_mw=power,
    )


#: The swept configurations, in rendering order.  Each sweep's leaf
#: function below measures exactly one of these — module-level and
#: keyword-addressable so the orchestrator can fan the points out over
#: worker processes and merge them back deterministically.
RADIX_POINTS = ((2, "radix-4"), (3, "radix-8"), (4, "radix-16"))
CPA_STYLES = ("ripple", "brent_kung", "kogge_stone", "carry_select")
PIPELINE_CUTS = (None, "after_precomp", "after_ppgen")
TREE_POINTS = ((2, "radix-4", False), (2, "radix-4", True),
               (4, "radix-16", False), (4, "radix-16", True))
SPECIALIZATION_LABELS = ("multi-format", "int64-only", "fp64-only",
                         "fp32x2-only")


def radix_point(radix_log2, power_cycles=0):
    """One radix-sweep design point (leaf job)."""
    label = dict((k, lbl) for k, lbl in RADIX_POINTS)[radix_log2]
    module = load_netlist(build_multiplier, radix_log2=radix_log2)
    return measure_design_point(label, module, power_cycles=power_cycles)


def cpa_point(style, radix_log2=4, power_cycles=0):
    """One CPA-style design point (leaf job)."""
    module = load_netlist(build_multiplier, radix_log2=radix_log2,
                          adder_style=style)
    return measure_design_point(f"cpa={style}", module,
                                power_cycles=power_cycles)


def cut_point(cut, radix_log2=4, power_cycles=0):
    """One pipeline-cut design point (leaf job)."""
    module = load_netlist(build_multiplier, radix_log2=radix_log2,
                          pipeline_cut=cut)
    return measure_design_point(f"cut={cut}", module,
                                power_cycles=power_cycles)


def tree_point(radix_log2, use_4_2, power_cycles=0):
    """One tree-style design point (leaf job)."""
    module = load_netlist(build_multiplier, radix_log2=radix_log2,
                          use_4_2=use_4_2)
    label = dict((k, lbl) for k, lbl, __ in TREE_POINTS)[radix_log2]
    tag = "4:2" if use_4_2 else "3:2"
    return measure_design_point(f"{label} {tag}", module,
                                power_cycles=power_cycles)


#: ``frmt`` code each single-format specialization ties.
SPECIALIZED_FORMATS = {"int64-only": FRMT_INT64, "fp64-only": FRMT_FP64,
                       "fp32x2-only": FRMT_FP32X2}


def specialized_mf_multiplier(label):
    """The MF unit with ``frmt`` tied to one format, optimized, buffered.

    Tying ``frmt`` lets the optimizer reap the other formats' logic.
    """
    module = build_mf_multiplier(buffer_max_load=None)
    tie_input(module, "frmt", SPECIALIZED_FORMATS[label])
    optimize(module)
    insert_buffers(module, default_library())
    return module


def specialization_point(label):
    """One format-specialization design point (leaf job).

    ``"multi-format"`` measures the full unit; the ``*-only`` labels
    measure :func:`specialized_mf_multiplier`.
    """
    if label == "multi-format":
        module = load_netlist(build_mf_multiplier)
    else:
        module = load_netlist(specialized_mf_multiplier, label=label)
    return measure_design_point(label, module, verify_patterns=0)


def sweep_radix(power_cycles=0):
    """Radix 4 / 8 / 16, combinational (the Sec. II-A trade-off)."""
    return SweepResult(
        title="Ablation: radix",
        points=[radix_point(k, power_cycles=power_cycles)
                for k, __ in RADIX_POINTS])


def sweep_cpa_style(radix_log2=4, power_cycles=0):
    """Final CPA style on the radix-16 multiplier."""
    return SweepResult(
        title="Ablation: CPA style",
        points=[cpa_point(style, radix_log2=radix_log2,
                          power_cycles=power_cycles)
                for style in CPA_STYLES])


def sweep_pipeline_cut(radix_log2=4, power_cycles=0):
    """Register placement for the 2-stage multiplier (Sec. III-D theme)."""
    return SweepResult(
        title="Ablation: pipeline cut",
        points=[cut_point(cut, radix_log2=radix_log2,
                          power_cycles=power_cycles)
                for cut in PIPELINE_CUTS])


def sweep_specialization():
    """The cost of multi-format flexibility.

    Ties the MF unit's ``frmt`` input to each single format and lets the
    optimizer reap the other formats' logic; the cell-count delta vs the
    full unit bounds what the paper's flexibility costs.
    """
    return SweepResult(
        title="Ablation: format specialization",
        points=[specialization_point(label)
                for label in SPECIALIZATION_LABELS])


def sweep_tree_style(power_cycles=0):
    """Dadda 3:2 vs 4:2-first reduction, radix-4 and radix-16."""
    return SweepResult(
        title="Ablation: tree style",
        points=[tree_point(k, use42, power_cycles=power_cycles)
                for k, __, use42 in TREE_POINTS])
