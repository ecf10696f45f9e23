"""Bit-parallel levelized (zero-delay) simulation.

Every net value is a Python int whose bit ``t`` is the net's logic value
in pattern/cycle ``t`` — bitwise gate evaluation then simulates **all
patterns at once**, which is what makes exhaustive functional
verification of 30k-gate multipliers practical in pure Python.

Registers become *time shifts*: ``q = d << 1`` moves every pattern one
cycle later, exactly the behaviour of a flip-flop bank in a feed-forward
pipeline (cycle ``t`` sees the previous cycle's ``d``).  Pattern ``t``
of a primary input is therefore the word applied at cycle ``t``, and an
``L``-stage unit's outputs line up with inputs ``L - 1`` cycles earlier.

Two evaluation kernels exist:

* the default **compiled** kernel (see :mod:`repro.hdl.sim.compile`)
  runs straight-line generated code — one statement per gate — and is
  what every hot path uses;
* the historic **interpreted** kernel (``compiled=False``) dispatches
  through ``cell_eval`` per gate; it is kept as the independent
  reference implementation the equivalence tests compare against.

Both produce bit-identical values.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.bits.utils import mask, popcount
from repro.errors import SimulationError
from repro.hdl.cell import cell_eval
from repro.hdl.sim.compile import compiled_module
from repro.hdl.sim.toposort import topo_node_order

_M64 = (1 << 64) - 1
_Z8 = bytes(8)


def _delta_swap_masks():
    """(delta, mask) ladder for the in-place 64x64 bit-matrix transpose.

    The matrix lives row-major in one 4096-bit int (row ``r`` at bit
    offset ``64*r``).  At scale ``s`` the upper-right s-by-s sub-block of
    every 2s-by-2s block swaps with its lower-left partner; flat bit
    ``p`` pairs with ``p + 63*s``.  Six rounds (s = 32..1) complete the
    transpose.
    """
    ladder = []
    s = 32
    while s:
        col = sum(1 << c for c in range(64) if (c % (2 * s)) >= s)
        full = sum(col << (64 * r) for r in range(64) if (r % (2 * s)) < s)
        ladder.append((63 * s, full))
        s >>= 1
    return tuple(ladder)


_DELTA_MASKS = _delta_swap_masks()


def bit_transpose(rows, width):
    """Transpose a bit matrix held as a list of ints.

    ``rows[r]`` bit ``c`` becomes bit ``r`` of ``result[c]`` for
    ``c < width``; bits at or beyond ``width`` are ignored.  Works in
    64x64 blocks: each block is packed into one 4096-bit int, transposed
    with six masked delta-swaps, and unpacked straight out of its byte
    image — O(cells/64) word operations instead of one Python-level
    shift/or per bit.

    Both matrix sides are multi-limb: a wide row is converted to its
    byte image **once** and each 64x64 block slices an 8-byte limb out
    of it; output columns spanning several row blocks accumulate into
    per-column byte buffers materialized with one ``int.from_bytes`` at
    the end.  Packing therefore stays linear in the total bit count at
    W×64-pattern superword widths, where the historic per-block big-int
    ``>> cbase`` / ``|= << rbase`` arithmetic went quadratic.
    """
    cols = [0] * width
    n_rows = len(rows)
    if not n_rows or not width:
        return cols
    n_cblocks = (width + 63) >> 6
    span_bytes = n_cblocks << 3
    span_mask = (1 << (n_cblocks << 6)) - 1
    single_rblock = n_rows <= 64
    col_bytes = ((n_rows + 63) >> 6) << 3
    acc = None if single_rblock else [None] * width
    for rbase in range(0, n_rows, 64):
        rchunk = rows[rbase:rbase + 64]
        if n_cblocks == 1:
            blk = bytearray(512)
            for j, r in enumerate(rchunk):
                if r:
                    blk[8 * j:8 * j + 8] = (r & _M64).to_bytes(8, "little")
            blocks = (bytes(blk),)
        else:
            images = [(r & span_mask).to_bytes(span_bytes, "little")
                      if r else None for r in rchunk]
            blocks = []
            for cb in range(n_cblocks):
                off = cb << 3
                blk = bytearray(512)
                for j, img in enumerate(images):
                    if img is not None:
                        blk[8 * j:8 * j + 8] = img[off:off + 8]
                blocks.append(bytes(blk))
        for cb, raw in enumerate(blocks):
            m = int.from_bytes(raw, "little")
            if not m:
                continue
            for delta, mk in _DELTA_MASKS:
                t = ((m >> delta) ^ m) & mk
                m ^= t ^ (t << delta)
            image = m.to_bytes(512, "little")
            cbase = cb << 6
            hi = min(64, width - cbase)
            if single_rblock:
                for i in range(hi):
                    chunk = image[8 * i:8 * i + 8]
                    if chunk != _Z8:
                        cols[cbase + i] = int.from_bytes(chunk, "little")
            else:
                rshift = rbase >> 3
                for i in range(hi):
                    chunk = image[8 * i:8 * i + 8]
                    if chunk != _Z8:
                        buf = acc[cbase + i]
                        if buf is None:
                            buf = acc[cbase + i] = bytearray(col_bytes)
                        buf[rshift:rshift + 8] = chunk
    if not single_rblock:
        for c, buf in enumerate(acc):
            if buf is not None:
                cols[c] = int.from_bytes(buf, "little")
    return cols


@dataclass
class SimRun:
    """Result of one levelized run."""

    n_patterns: int
    values: List[int]           # per net: packed pattern values

    def net_value(self, net, t):
        return (self.values[net] >> t) & 1

    def bus_word(self, bus, t):
        """Assemble the integer word on ``bus`` (LSB-first) at pattern t."""
        word = 0
        for i, net in enumerate(bus):
            word |= ((self.values[net] >> t) & 1) << i
        return word

    def bus_words(self, bus):
        """All patterns' words on ``bus`` (LSB-first), one per pattern.

        The bulk counterpart of :meth:`bus_word`: a block bit-matrix
        transpose of the packed per-net pattern words instead of one
        bit-poke per wire per pattern, which is what verification loops
        over whole runs want.  ``bus_words(bus)[t] == bus_word(bus, t)``
        always.
        """
        return bit_transpose([self.values[net] for net in bus],
                             self.n_patterns)

    def toggles_per_net(self):
        """Zero-delay toggle count of every net across consecutive patterns."""
        m = mask(self.n_patterns - 1) if self.n_patterns > 1 else 0
        return [popcount((v ^ (v >> 1)) & m) for v in self.values]


@dataclass
class SegmentedRun:
    """Result of one superword run over concatenated independent segments.

    ``values`` are ordinary packed pattern words covering every segment
    back to back; ``segments[i]`` is segment ``i``'s ``(offset,
    n_patterns)`` window.  Because the register shifts were masked at
    each segment's first pattern, bits ``offset .. offset+n-1`` of every
    net are **bit-identical** to an independent
    :meth:`LevelizedSimulator.run` over that segment alone — consumers
    may therefore window straight into the shared words (toggle counts,
    glitch-replay seeding) without extracting per-segment copies.
    """

    segments: List[Tuple[int, int]]      # (offset, n_patterns) per segment
    values: List[int]                    # per net: packed pattern words

    @property
    def n_patterns(self):
        """Total patterns across every segment (the superword width)."""
        off, n = self.segments[-1]
        return off + n

    def segment_run(self, i):
        """Segment ``i`` extracted as an independent :class:`SimRun`."""
        off, n = self.segments[i]
        m = mask(n)
        return SimRun(n_patterns=n,
                      values=[(v >> off) & m for v in self.values])

    def toggles_per_net(self, i):
        """Zero-delay toggles of every net *within* segment ``i``.

        Equal to ``segment_run(i).toggles_per_net()`` without the
        extraction: the transition window is just the segment's pattern
        mask shifted to its offset.
        """
        off, n = self.segments[i]
        m = (mask(n - 1) << off) if n > 1 else 0
        return [popcount((v ^ (v >> 1)) & m) for v in self.values]


def segment_plan(lengths):
    """``(segments, total, boundary_bits)`` for concatenated runs.

    ``segments`` are ``(offset, n_patterns)`` pairs, ``boundary_bits``
    has a 1 at each segment's first pattern — the positions whose
    register shift-in must be cleared so every segment starts from a
    zeroed flip-flop bank, exactly like an independent run.
    """
    segments = []
    boundary = 0
    off = 0
    for n in lengths:
        if n < 1:
            raise SimulationError("every segment needs at least one pattern")
        segments.append((off, n))
        boundary |= 1 << off
        off += n
    if not segments:
        raise SimulationError("need at least one segment")
    return segments, off, boundary


class LevelizedSimulator:
    """Topologically ordered bit-parallel evaluator for one module."""

    def __init__(self, module, compiled=True):
        self.module = module
        self._kernel = compiled_module(module) if compiled else None
        self._order = None if compiled else topo_node_order(module)

    def run(self, stimulus, n_patterns):
        """Simulate ``n_patterns`` patterns.

        ``stimulus`` maps input bus names to lists of integer words, one
        per pattern (missing patterns default to 0; missing buses raise).
        """
        module = self.module
        if n_patterns < 1:
            raise SimulationError("need at least one pattern")
        for name in module.inputs:
            if name not in stimulus:
                raise SimulationError(f"no stimulus for input bus {name!r}")
        m = mask(n_patterns)
        values = [0] * module.n_nets
        for name, bus in module.inputs.items():
            packed = bit_transpose(stimulus[name][:n_patterns], len(bus))
            for i, net in enumerate(bus):
                values[net] = packed[i]
        for net, cval in module.constants.items():
            values[net] = m if cval else 0

        if self._kernel is not None:
            self._kernel.run_levelized(values, m)
        else:
            self._run_interpreted(values, m)
        return SimRun(n_patterns=n_patterns, values=values)

    def run_segments(self, jobs):
        """Simulate several independent stimulus sequences in ONE kernel
        invocation — a W×64-pattern superword settle pass.

        ``jobs`` is a sequence of ``(stimulus, n_patterns)`` pairs (each
        exactly as :meth:`run` takes them).  The per-input pattern lists
        are concatenated back to back into one wide word and the
        register time shifts are masked at each segment's first pattern
        (``q = (d << 1) & m & ~boundary``), so segment ``k`` never sees
        segment ``k-1``'s trailing flip-flop state.  The returned
        :class:`SegmentedRun` is therefore **bit-identical**, segment by
        segment, to ``len(jobs)`` separate :meth:`run` calls — while
        paying the per-gate interpreter overhead once.
        """
        module = self.module
        lengths = [n for __, n in jobs]
        segments, total, boundary = segment_plan(lengths)
        for stimulus, __ in jobs:
            for name in module.inputs:
                if name not in stimulus:
                    raise SimulationError(
                        f"no stimulus for input bus {name!r}")
        m = mask(total)
        reg_mask = m & ~boundary
        values = [0] * module.n_nets
        for name, bus in module.inputs.items():
            merged = []
            for (stimulus, n) in jobs:
                words = list(stimulus[name][:n])
                if len(words) < n:
                    words.extend([0] * (n - len(words)))
                merged.extend(words)
            packed = bit_transpose(merged, len(bus))
            for i, net in enumerate(bus):
                values[net] = packed[i]
        for net, cval in module.constants.items():
            values[net] = m if cval else 0

        if self._kernel is not None:
            self._kernel.run_levelized(values, m, reg_mask)
        else:
            self._run_interpreted(values, m, reg_mask)
        return SegmentedRun(segments=segments, values=values)

    def _run_interpreted(self, values, m, reg_mask=None):
        """Per-gate ``cell_eval`` dispatch — the reference kernel."""
        gates = self.module.gates
        registers = self.module.registers
        if reg_mask is None:
            reg_mask = m
        for node in self._order:
            if node >= 0:
                gate = gates[node]
                fn = cell_eval(gate.kind)
                ins = gate.inputs
                if len(ins) == 1:
                    values[gate.output] = fn(m, values[ins[0]]) & m
                elif len(ins) == 2:
                    values[gate.output] = fn(m, values[ins[0]],
                                             values[ins[1]]) & m
                elif len(ins) == 3:
                    values[gate.output] = fn(m, values[ins[0]],
                                             values[ins[1]],
                                             values[ins[2]]) & m
                else:
                    values[gate.output] = fn(
                        m, *[values[n] for n in ins]) & m
            else:
                reg = registers[-node - 1]
                values[reg.q] = (values[reg.d] << 1) & reg_mask
