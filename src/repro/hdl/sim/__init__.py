"""Netlist simulators.

* :mod:`repro.hdl.sim.compile` — the netlist compile pass: generates
  specialized straight-line evaluation code in topological order (the
  kernels both simulators run), cached on disk by netlist structure.
* :mod:`repro.hdl.sim.levelized` — zero-delay, **bit-parallel** over
  patterns: functional verification and zero-delay switching activity.
  Registers are modeled as one-cycle time shifts of the pattern axis,
  which is exact for the feed-forward pipelines used here.
* :mod:`repro.hdl.sim.event` — event-driven with per-gate load-dependent
  delays: counts *all* transitions including glitches, the quantity the
  paper's combinational-vs-pipelined power comparison hinges on.  The
  default engine is a bucketed time wheel; the historic heapq engine
  remains as the reference implementation.
* :mod:`repro.hdl.sim.toposort` — the shared Kahn topological ordering
  everything above (and timing/pipelining) builds on.
"""

from repro.hdl.sim.compile import CompiledModule, compile_module, compiled_module
from repro.hdl.sim.event import EventSimulator, TransitionCounts
from repro.hdl.sim.levelized import LevelizedSimulator, SimRun
from repro.hdl.sim.toposort import topo_gate_order, topo_node_order

__all__ = [
    "CompiledModule",
    "EventSimulator",
    "LevelizedSimulator",
    "SimRun",
    "TransitionCounts",
    "compile_module",
    "compiled_module",
    "topo_gate_order",
    "topo_node_order",
]
