"""Per-lane execution engines: pack a batch, run the netlist, demux.

One :class:`LaneEngine` per transaction kind owns the compiled module
serving that lane and turns a list of transactions into a list of
:class:`~repro.serve.transactions.TxResult`:

* multiply lanes drive the 3-stage multi-format unit through
  :class:`~repro.core.pipeline_unit.MFMultUnit` (``int64``/``fp64``/
  ``fp32x2`` share the base ``mf`` netlist; ``fp16x4`` uses the quad
  build) — every transaction becomes one pattern of the stimulus word;
* the ``reduce64`` lane drives the standalone Fig. 6 reducer
  (combinational, so no latency padding).

Batch size is unbounded here: the packed net values are Python big
ints, so a batch wider than 64 patterns simply packs into a multi-limb
superword (``ceil(len(txs)/64)`` limbs per net) and runs in the same
single kernel pass — including the per-limb fp16x4 sub-lane split,
which the software-envelope patcher indexes per transaction.  The
*policy* width lives in the server/queue (``word_patterns``).

Modules come from :func:`repro.eval.experiments.cached_module` — the
two-level (in-process + on-disk pickle) module cache — so a long-lived
server pays netlist construction at most once per process lifetime and
usually never.  Each lane's netlist runs thousands of short kernel
passes, so the engine asks for straight-line generated code
(:meth:`repro.hdl.sim.compile.CompiledModule.compile`): one compile per
netlist and process, paid when the engine is built, buys a faster pass
than the per-kind template loops every one-shot simulation uses.

FP lanes whose operands are special (zero/subnormal/inf/NaN) are
outside the silicon envelope: the engine substitutes 1.0 into those
lanes of the stimulus word (the netlist only ever sees normalized
operands) and splices in the IEEE formatter-wrapper result computed in
software — the same split the functional model performs internally.
"""

import functools
from typing import List

from repro import obs
from repro.bits.utils import mask
from repro.core.pipeline_unit import MFMultUnit
from repro.core.formats import OperandBundle
from repro.errors import FormatError
from repro.hdl.sim.compile import compiled_module
from repro.hdl.sim.levelized import LevelizedSimulator
from repro.serve.transactions import (
    LANE_GEOMETRY,
    MFFORMAT_OF,
    ONE_ENCODING,
    Transaction,
    TxKind,
    TxResult,
    software_lane_result,
)

#: Module-cache key backing each lane.
MODULE_OF = {
    TxKind.INT64: "mf",
    TxKind.FP64: "mf",
    TxKind.FP32X2: "mf",
    TxKind.FP16X4: "mf_quad",
    TxKind.REDUCE64: "reducer",
}


def _compiled_netlist(module_key):
    """The named netlist, with its straight-line levelized kernel built."""
    from repro.eval.experiments import cached_module

    module = cached_module(module_key)
    compiled_module(module).compile()
    return module


@functools.lru_cache(maxsize=None)
def _shared_unit(module_key):
    """One batch driver per netlist, shared by every lane and server."""
    return MFMultUnit(module=_compiled_netlist(module_key))


@functools.lru_cache(maxsize=None)
def _shared_reducer_sim():
    module = _compiled_netlist("reducer")
    return module, LevelizedSimulator(module)


#: Lanes whose engine finished building in this process, and the repr of
#: the failure for any lane whose build raised — what /healthz reports.
_READY_LANES = set()
_FAILED_LANES = {}


@functools.lru_cache(maxsize=None)
def lane_engine(kind):
    """The process-wide engine for ``kind`` (compile-once, share-everywhere)."""
    try:
        engine = LaneEngine(kind)
    except Exception as exc:
        _FAILED_LANES[kind.value] = repr(exc)
        raise
    _READY_LANES.add(kind.value)
    _FAILED_LANES.pop(kind.value, None)
    return engine


def ready_lanes():
    """Lane names whose engines are built (readiness is lazy: a lane
    becomes ready on its first batch — or via :func:`warm_lanes`)."""
    return frozenset(_READY_LANES)


def failed_lanes():
    """``{lane: error-repr}`` for engines whose build raised."""
    return dict(_FAILED_LANES)


def warm_lanes(kinds):
    """Eagerly build the engines for ``kinds``; returns the ready set."""
    for kind in kinds:
        try:
            lane_engine(kind)
        except Exception:
            pass                   # recorded in failed_lanes()
    return ready_lanes()


class LaneEngine:
    """Executes transaction batches for one lane on its compiled module."""

    def __init__(self, kind):
        self.kind = kind
        if kind is TxKind.REDUCE64:
            self._module, self._sim = _shared_reducer_sim()
            self._unit = None
        else:
            self._unit = _shared_unit(MODULE_OF[kind])
            self._module = self._unit.module

    # -- execution ------------------------------------------------------

    def execute(self, txs) -> List[TxResult]:
        """Run one coalesced batch; returns per-transaction results."""
        if not txs:
            return []
        for tx in txs:
            if tx.kind is not self.kind:
                raise FormatError(
                    f"{tx.kind} transaction routed to the {self.kind} lane")
        with obs.span(f"serve:run:{self.kind.value}", cat="serve",
                      patterns=len(txs), limbs=(len(txs) + 63) // 64,
                      module=self._module.name):
            if self.kind is TxKind.REDUCE64:
                return self._execute_reduce(txs)
            return self._execute_multiply(txs)

    def _execute_reduce(self, txs):
        run = self._sim.run({"d": [tx.x for tx in txs]}, len(txs))
        out_words = run.bus_words(self._module.outputs["out"])
        reduced_words = run.bus_words(self._module.outputs["reduced"])
        return [TxResult(kind=TxKind.REDUCE64, ph=out_words[t],
                         reduced=bool(reduced_words[t]))
                for t in range(len(txs))]

    def _execute_multiply(self, txs):
        fmt = MFFORMAT_OF[self.kind]
        geometry = LANE_GEOMETRY.get(self.kind)
        ops = []
        patches = []                       # (tx index, lane, encoding)
        if geometry is None:               # int64: no special envelope
            int64_bundle = OperandBundle.int64
            ops = [(int64_bundle(tx.x, tx.y), fmt) for tx in txs]
        else:
            # Hot per-transaction loop: the format attributes and the
            # normalized-exponent test are hoisted/inlined — at wide
            # words this demux, not the kernel, bounds throughput.
            ieee, lanes = geometry
            width = 64 // lanes
            one = ONE_ENCODING[ieee]
            tbits = ieee.trailing_significand_bits
            emask = ieee.exponent_mask
            wmask = mask(width)
            shifts = [width * k for k in range(lanes)]
            for i, tx in enumerate(txs):
                xw, yw = tx.x, tx.y
                for sh in shifts:
                    xe = (xw >> sh) & wmask
                    ye = (yw >> sh) & wmask
                    ex = (xe >> tbits) & emask
                    ey = (ye >> tbits) & emask
                    if 0 < ex < emask and 0 < ey < emask:
                        continue
                    patches.append((i, sh,
                                    software_lane_result(self.kind, xe,
                                                         ye)))
                    lane_mask = wmask << sh
                    xw = (xw & ~lane_mask) | (one << sh)
                    yw = (yw & ~lane_mask) | (one << sh)
                ops.append((OperandBundle(xw, yw), fmt))
        if patches:
            obs.registry().inc("serve.software_lanes", len(patches))

        unit_results = self._unit.run_batch(ops)
        ph_words = [r.ph for r in unit_results]
        for i, shift, enc in patches:
            lanes = geometry[1]
            width = 64 // lanes
            lane_mask = mask(width) << shift
            ph_words[i] = (ph_words[i] & ~lane_mask) | (enc << shift)
        if self.kind is TxKind.INT64:
            return [TxResult(kind=self.kind, ph=ph, pl=r.pl)
                    for ph, r in zip(ph_words, unit_results)]
        return [TxResult(kind=self.kind, ph=ph) for ph in ph_words]
