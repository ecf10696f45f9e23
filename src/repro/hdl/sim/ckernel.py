"""Optional compiled event kernel (C via the system compiler + ctypes).

The Python wheel engine (:mod:`repro.hdl.sim.event`) is limited by
CPython's per-operation cost: a glitch replay of one cycle transition on
the 20k-gate radix-16 multiplier is ~100k interpreter operations no
matter how the loop is written.  This module removes the interpreter
from the inner loop entirely: a C translation of the wheel engine
(``EventSimulator._apply_wheel``) is compiled **once** with the system C
compiler (``cc`` / ``gcc``, or ``$CC``), cached as a shared library
under the repository's ``.cache/`` directory, and driven through
:mod:`ctypes` — no third-party packages, no build system, and a clean
fallback to the pure-Python wheel when no compiler is available (or
``REPRO_NO_CKERNEL=1`` is set).

The kernel and the Python wheel run one algorithm, so they agree not
only on toggles, values and settle time but on every counter —
events processed, cancellations, buckets drained and the largest
bucket:

* **exact-time buckets** — pending events sit in FIFO buckets keyed by
  their exact maturity time: a min-heap over the *distinct* times, plus
  a lookup from a time's IEEE-754 bit pattern to its bucket (Python's
  ``dict`` keyed by ``float``).  Maturity times are double sums of the
  same per-gate delays Python computes with ``float`` — identical
  values, identical coincidences, identical buckets;
* **deferred evaluation** — draining a bucket only *triggers* the
  fanout gates (bumping each output's live sequence number at once);
  each triggered gate is evaluated once after the bucket drains, in
  last-trigger order.  ``trig_mark`` (per gate, persistent across calls
  like ``live_seq``) records which trigger is a gate's last;
* **no-op suppression** — an evaluation that leaves its output
  unchanged bumps ``live_seq`` (cancelling the pending event) and
  schedules nothing;
* gate evaluation uses a 16-entry truth table per cell kind, indexed by
  the concatenated input bits — exhaustively equal to ``cell_eval`` by
  construction (and swept by a unit test).

The exported entry point replays a *window* of cycle transitions in one
call: per-stimulus-net value words (bit ``i`` = value in the window's
cycle ``i``) are expanded to per-transition deltas inside the kernel,
so Python overhead is O(stimulus nets) per window rather than per
event; seeding the net values and reading back toggles are bulk
buffer copies.
"""

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

from repro.errors import SimulationError

#: Transitions per kernel call — one bit of the stimulus words each,
#: plus bit 0 for the seed cycle, bounded by the 64-bit word.
WINDOW_TRANSITIONS = 63

_U64 = (1 << 64) - 1

#: Gate arity the truth-table evaluation supports (covers every kind in
#: ``CELL_KINDS``; modules exceeding it simply fall back to Python).
MAX_INPUTS = 4

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* One pending output event, chained FIFO within its time bucket. */
typedef struct {
    int64_t seq;
    int32_t net;
    int32_t next;       /* next event of the bucket, -1 at its tail */
    int32_t val;
} Ev;

/* All events maturing at one exact time, in scheduling order. */
typedef struct {
    int32_t head, tail, count, done;
} Bucket;

/* Min-heap entry over the *distinct* pending times. */
typedef struct {
    double t;
    int32_t bucket;
} TimeEnt;

/* Time -> bucket lookup by the time's exact bit pattern (linear
 * probing).  Entries from earlier transitions are recognised by their
 * generation and read as empty, so nothing is ever cleared. */
typedef struct {
    uint64_t key;
    uint32_t gen;
    int32_t bucket;
} Slot;

typedef struct {
    Ev *ev;
    int64_t n_ev, cap_ev;
    Bucket *bk;
    int64_t n_bk, cap_bk;
    TimeEnt *heap;
    int64_t n_heap, cap_heap;
    Slot *slot;
    uint32_t mask, n_slot, gen, shift;
    int32_t *trig;
    int64_t n_trig, cap_trig;
} Wheel;

/* Make room for `need` elements of `size` bytes in *a (doubling). */
static int grow(void **a, int64_t *cap, int64_t need, size_t size)
{
    if (need <= *cap)
        return 0;
    int64_t nc = *cap ? *cap : 1024;
    while (nc < need)
        nc *= 2;
    void *na = realloc(*a, (size_t)nc * size);
    if (!na)
        return -1;
    *a = na;
    *cap = nc;
    return 0;
}

static uint32_t slot_of(const Wheel *w, uint64_t key)
{
    return (uint32_t)((key * 0x9E3779B97F4A7C15ull) >> w->shift) & w->mask;
}

static int slots_rehash(Wheel *w)
{
    uint32_t size = (w->mask + 1) * 2;
    Slot *ns = (Slot *)calloc(size, sizeof(Slot));
    if (!ns)
        return -1;
    Slot *old = w->slot;
    uint32_t old_size = w->mask + 1;
    w->slot = ns;
    w->mask = size - 1;
    w->shift--;
    for (uint32_t i = 0; i < old_size; i++) {
        if (old[i].gen != w->gen)
            continue;
        uint32_t j = slot_of(w, old[i].key);
        while (ns[j].gen == w->gen)
            j = (j + 1) & w->mask;
        ns[j] = old[i];
    }
    free(old);
    return 0;
}

static int heap_push(Wheel *w, double t, int32_t bucket)
{
    if (grow((void **)&w->heap, &w->cap_heap, w->n_heap + 1,
             sizeof(TimeEnt)))
        return -1;
    int64_t i = w->n_heap++;
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (t < w->heap[p].t) {
            w->heap[i] = w->heap[p];
            i = p;
        } else {
            break;
        }
    }
    w->heap[i].t = t;
    w->heap[i].bucket = bucket;
    return 0;
}

static TimeEnt heap_pop(Wheel *w)
{
    TimeEnt top = w->heap[0];
    TimeEnt last = w->heap[--w->n_heap];
    int64_t n = w->n_heap, i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && w->heap[c + 1].t < w->heap[c].t)
            c++;
        if (w->heap[c].t < last.t) {
            w->heap[i] = w->heap[c];
            i = c;
        } else {
            break;
        }
    }
    w->heap[i] = last;
    return top;
}

/* The open bucket for exact time t, created (and t pushed on the time
 * heap) when t has none — or only one that already drained, which is
 * the Python wheel's ``wheel.pop(t)``.  Returns -1 on allocation
 * failure. */
static int32_t bucket_at(Wheel *w, double t)
{
    uint64_t key;
    memcpy(&key, &t, sizeof key);
    uint32_t j = slot_of(w, key);
    while (w->slot[j].gen == w->gen) {
        if (w->slot[j].key == key) {
            int32_t b = w->slot[j].bucket;
            if (!w->bk[b].done)
                return b;
            break;
        }
        j = (j + 1) & w->mask;
    }
    if (grow((void **)&w->bk, &w->cap_bk, w->n_bk + 1, sizeof(Bucket)))
        return -1;
    int32_t b = (int32_t)w->n_bk++;
    w->bk[b].head = w->bk[b].tail = -1;
    w->bk[b].count = w->bk[b].done = 0;
    if (heap_push(w, t, b))
        return -1;
    if (w->slot[j].gen == w->gen) {     /* drained bucket: re-point */
        w->slot[j].bucket = b;
        return b;
    }
    w->slot[j].key = key;
    w->slot[j].gen = w->gen;
    w->slot[j].bucket = b;
    if (++w->n_slot * 2 > w->mask + 1 && slots_rehash(w))
        return -1;
    return b;
}

static int bucket_append(Wheel *w, int32_t b, int32_t net, int32_t val,
                         int64_t seq)
{
    if (grow((void **)&w->ev, &w->cap_ev, w->n_ev + 1, sizeof(Ev)))
        return -1;
    int32_t e = (int32_t)w->n_ev++;
    w->ev[e].seq = seq;
    w->ev[e].net = net;
    w->ev[e].val = val;
    w->ev[e].next = -1;
    Bucket *bk = &w->bk[b];
    if (bk->tail < 0)
        bk->head = e;
    else
        w->ev[bk->tail].next = e;
    bk->tail = e;
    bk->count++;
    return 0;
}

/* Trigger every gate driven by `net`: bump its output's live sequence
 * number now (cancelling the gate's pending events, including ones
 * later in the bucket being drained) and queue it for evaluation. */
static int trigger_fanout(Wheel *w, int32_t net, const int32_t *fo_ptr,
                          const int32_t *fo_dat, const int32_t *gout,
                          int64_t *live_seq, int64_t *trig_mark,
                          int64_t *counter)
{
    int32_t lo = fo_ptr[net], hi = fo_ptr[net + 1];
    if (grow((void **)&w->trig, &w->cap_trig, w->n_trig + (hi - lo),
             sizeof(int32_t)))
        return -1;
    int64_t c = *counter;
    for (int32_t k = lo; k < hi; k++) {
        int32_t g = fo_dat[k];
        c++;
        trig_mark[g] = c;
        live_seq[gout[g]] = c;
        w->trig[w->n_trig++] = g;
    }
    *counter = c;
    return 0;
}

/* Replay `transitions` cycle transitions on the time wheel.
 *
 * gin:   4 input net ids per gate (unused slots repeat input 0 — the
 *        truth table's output is replicated over the padded bits).
 * ttab:  16-entry truth table per gate, indexed by concatenated input
 *        bits (in0 | in1<<1 | in2<<2 | in3<<3).
 * fo_ptr/fo_dat: CSR fanout (net -> driven gate indices).
 * values/live_seq/trig_mark: persistent simulator state
 *        (callee-updated); the monotone counter keeps stale marks and
 *        sequence numbers from ever matching.
 * stim_words: per stimulus net, bit i = the net's value in the window's
 *        cycle i (bit 0 = the already-settled seed cycle).
 * stats: [0] in/out monotone schedule counter, [1] out events
 *        processed, [2] out inertial cancellations, [3] out buckets
 *        drained, [4] out largest bucket.
 * settle_out: settle time (ps) of the final transition.
 *
 * Returns events processed, or -1 on allocation failure.
 */
int64_t sim_replay(
    int32_t n_nets, int32_t n_gates,
    const int32_t *gin, const uint16_t *ttab,
    const int32_t *gout, const double *gdelay,
    const int32_t *fo_ptr, const int32_t *fo_dat,
    uint8_t *values, int64_t *live_seq, int64_t *trig_mark,
    const int32_t *stim_net, const uint64_t *stim_words, int32_t n_stim,
    int32_t transitions,
    int64_t *toggles, int64_t *stats, double *settle_out)
{
    (void)n_nets;
    (void)n_gates;
    Wheel w;
    memset(&w, 0, sizeof w);
    w.mask = 1023;
    w.shift = 64 - 10;
    w.slot = (Slot *)calloc(w.mask + 1, sizeof(Slot));
    int64_t counter = stats[0];
    int64_t events = 0, cancelled = 0, n_buckets = 0, max_bucket = 0;
    double settle = 0.0;
    int fail = !w.slot;

    for (int32_t tr = 1; tr <= transitions && !fail; tr++) {
        w.gen++;
        w.n_ev = w.n_bk = 0;
        w.n_slot = 0;
        w.n_trig = 0;
        settle = 0.0;

        /* Stimulus delta: step every stimulus net (canonical order)
         * to its cycle-tr value; count the functional toggles. */
        for (int32_t i = 0; i < n_stim && !fail; i++) {
            uint8_t v = (uint8_t)((stim_words[i] >> tr) & 1u);
            int32_t net = stim_net[i];
            if (values[net] != v) {
                values[net] = v;
                toggles[net]++;
                fail = trigger_fanout(&w, net, fo_ptr, fo_dat, gout,
                                      live_seq, trig_mark, &counter);
            }
        }

        /* The wheel algorithm of repro/hdl/sim/event.py
         * (EventSimulator._apply_wheel), step for step. */
        double t = 0.0;
        while (!fail) {
            /* Evaluate each gate triggered at time t once, in
             * last-trigger order, scheduling only value-changing
             * events. */
            int64_t mark = counter - w.n_trig;
            for (int64_t j = 0; j < w.n_trig; j++) {
                int32_t g = w.trig[j];
                if (trig_mark[g] != ++mark)
                    continue;       /* re-triggered later at this time */
                const int32_t *in = gin + 4 * (int64_t)g;
                int idx = values[in[0]] | (values[in[1]] << 1)
                        | (values[in[2]] << 2) | (values[in[3]] << 3);
                int32_t val = (ttab[g] >> idx) & 1;
                counter++;
                int32_t out = gout[g];
                live_seq[out] = counter;
                if (values[out] == val)
                    continue;
                int32_t b = bucket_at(&w, t + gdelay[g]);
                if (b < 0 || bucket_append(&w, b, out, val, counter)) {
                    fail = 1;
                    break;
                }
            }
            if (fail || !w.n_heap)
                break;
            TimeEnt top = heap_pop(&w);
            t = top.t;
            Bucket *bk = &w.bk[top.bucket];
            bk->done = 1;
            n_buckets++;
            if (bk->count > max_bucket)
                max_bucket = bk->count;
            w.n_trig = 0;
            for (int32_t e = bk->head; e >= 0 && !fail; e = w.ev[e].next) {
                const Ev *ev = &w.ev[e];
                events++;
                if (ev->seq != live_seq[ev->net]) {
                    cancelled++;    /* cancelled by a newer evaluation */
                    continue;
                }
                values[ev->net] = (uint8_t)ev->val;
                toggles[ev->net]++;
                settle = t;
                fail = trigger_fanout(&w, ev->net, fo_ptr, fo_dat, gout,
                                      live_seq, trig_mark, &counter);
            }
        }
    }

    free(w.ev);
    free(w.bk);
    free(w.heap);
    free(w.slot);
    free(w.trig);
    if (fail)
        return -1;
    stats[0] = counter;
    stats[1] = events;
    stats[2] = cancelled;
    stats[3] = n_buckets;
    stats[4] = max_bucket;
    *settle_out = settle;
    return events;
}
"""

_lib = None
_load_attempted = False


def _cache_dir():
    """Where the compiled shared library lives.

    ``REPRO_CKERNEL_CACHE`` overrides; the default is the repository's
    ``.cache/ckernel/`` (this file is ``<repo>/src/repro/hdl/sim/``),
    with the system temp directory as a last resort for installed
    trees.
    """
    env = os.environ.get("REPRO_CKERNEL_CACHE")
    candidates = []
    if env:
        candidates.append(Path(env))
    candidates.append(
        Path(__file__).resolve().parents[4] / ".cache" / "ckernel")
    candidates.append(Path(tempfile.gettempdir()) / "repro-ckernel")
    for cand in candidates:
        try:
            cand.mkdir(parents=True, exist_ok=True)
            return cand
        except OSError:
            continue
    raise OSError("no writable cache directory for the compiled kernel")


def _build_and_load():
    cache = _cache_dir()
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    so_path = cache / f"eventkernel-{digest}.so"
    if not so_path.exists():
        cc = (os.environ.get("CC") or shutil.which("cc")
              or shutil.which("gcc"))
        if not cc:
            return None
        c_path = cache / f"eventkernel-{digest}.c"
        c_path.write_text(_SOURCE)
        tmp_path = cache / f"eventkernel-{digest}.{os.getpid()}.tmp.so"
        subprocess.run(
            [cc, "-O2", "-std=c99", "-fPIC", "-shared",
             "-o", str(tmp_path), str(c_path)],
            check=True, capture_output=True)
        os.replace(tmp_path, so_path)   # atomic: races just re-link
    lib = ctypes.CDLL(str(so_path))
    fn = lib.sim_replay
    fn.restype = ctypes.c_int64
    fn.argtypes = [
        ctypes.c_int32, ctypes.c_int32,
        ctypes.POINTER(ctypes.c_int32), ctypes.POINTER(ctypes.c_uint16),
        ctypes.POINTER(ctypes.c_int32), ctypes.POINTER(ctypes.c_double),
        ctypes.POINTER(ctypes.c_int32), ctypes.POINTER(ctypes.c_int32),
        ctypes.POINTER(ctypes.c_uint8), ctypes.POINTER(ctypes.c_int64),
        ctypes.POINTER(ctypes.c_int64),
        ctypes.POINTER(ctypes.c_int32), ctypes.POINTER(ctypes.c_uint64),
        ctypes.c_int32,
        ctypes.c_int32,
        ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_int64),
        ctypes.POINTER(ctypes.c_double),
    ]
    return lib


def load_kernel():
    """The loaded kernel library, or ``None`` when unavailable.

    First call compiles (or re-links) the shared library; failures of
    any kind — no compiler, unwritable cache, compile error — disable
    the kernel for the process and the Python engines take over.
    """
    global _lib, _load_attempted
    if _load_attempted:
        return _lib
    _load_attempted = True
    if os.environ.get("REPRO_NO_CKERNEL", ""):
        return None
    try:
        _lib = _build_and_load()
    except Exception:
        _lib = None
    return _lib


def supports(module):
    """Whether the kernel's truth-table evaluation covers this module."""
    return all(len(g.inputs) <= MAX_INPUTS for g in module.gates)


def truth_table(eval_fn, arity):
    """The 16-entry truth table of ``eval_fn`` over ``arity`` inputs.

    Bit ``i`` of the result is the output for input bits
    ``in0 = i&1, in1 = (i>>1)&1, ...``; bits beyond ``arity`` replicate
    the output, so padded input slots never affect it.
    """
    table = 0
    for idx in range(16):
        bits = [(idx >> j) & 1 for j in range(arity)]
        if eval_fn(1, *bits) & 1:
            table |= 1 << idx
    return table


class CKernel:
    """One module + library flattened into the kernel's array layout.

    Holds the persistent simulator state (net values, live sequence
    numbers, trigger marks, accumulated toggles) in ctypes buffers
    shared with the C side; construction is pure preprocessing and
    involves no C calls.
    """

    def __init__(self, lib, module, delays, evals, fanout, stim_order):
        if not supports(module):
            raise SimulationError(
                "compiled kernel supports gates with at most "
                f"{MAX_INPUTS} inputs")
        self._lib = lib
        self.n_nets = n_nets = module.n_nets
        gates = module.gates
        n_gates = len(gates)
        self._n_gates = n_gates

        gin = (ctypes.c_int32 * (4 * n_gates))()
        ttab = (ctypes.c_uint16 * max(n_gates, 1))()
        gout = (ctypes.c_int32 * max(n_gates, 1))()
        tables = {}
        for idx, gate in enumerate(gates):
            ins = list(gate.inputs)
            table = tables.get(gate.kind)
            if table is None:
                table = truth_table(evals[idx], len(ins))
                tables[gate.kind] = table
            ttab[idx] = table
            gout[idx] = gate.output
            padded = ins + [ins[0]] * (4 - len(ins))
            gin[4 * idx: 4 * idx + 4] = padded
        self._gin = gin
        self._ttab = ttab
        self._gout = gout
        self._gdelay = (ctypes.c_double * max(n_gates, 1))(*delays)

        fo_ptr = (ctypes.c_int32 * (n_nets + 1))()
        total = 0
        for net in range(n_nets):
            fo_ptr[net] = total
            total += len(fanout[net])
        fo_ptr[n_nets] = total
        fo_dat = (ctypes.c_int32 * max(total, 1))()
        pos = 0
        for net in range(n_nets):
            for g in fanout[net]:
                fo_dat[pos] = g
                pos += 1
        self._fo_ptr = fo_ptr
        self._fo_dat = fo_dat

        self._stim_order = list(stim_order)
        n_stim = len(self._stim_order)
        self._stim_net = (ctypes.c_int32 * max(n_stim, 1))(*self._stim_order)
        self._stim_words = (ctypes.c_uint64 * max(n_stim, 1))()

        self.values = (ctypes.c_uint8 * n_nets)()
        self._live_seq = (ctypes.c_int64 * n_nets)()
        self._trig_mark = (ctypes.c_int64 * max(n_gates, 1))()
        self.toggles = (ctypes.c_int64 * n_nets)()
        self._stats = (ctypes.c_int64 * 5)()
        self._settle = (ctypes.c_double * 1)()

    def zero_toggles(self):
        ctypes.memset(self.toggles, 0, ctypes.sizeof(self.toggles))

    def seed(self, packed_values, shift):
        """Load every net's value from bit ``shift`` of its pattern word."""
        n = self.n_nets
        bits = bytes([(w >> shift) & 1 for w in packed_values[:n]])
        if len(bits) != n:
            raise SimulationError("packed_values must cover every net")
        ctypes.memmove(self.values, bits, n)

    def toggle_list(self):
        """:attr:`toggles` as a list of ints (one bulk copy)."""
        return memoryview(self.toggles).cast("B").cast("q").tolist()

    def run(self, packed_values, shift, transitions):
        """Replay ``transitions`` transitions from the seeded state.

        Stimulus bit ``i`` (``0 <= i <= transitions``) of each net's
        word is its value in cycle ``shift + i``; toggles accumulate
        into :attr:`toggles`.  Returns ``(events, cancelled, buckets,
        max_bucket, settle)``.
        """
        if not 1 <= transitions <= WINDOW_TRANSITIONS:
            raise SimulationError(
                f"kernel window must be 1..{WINDOW_TRANSITIONS} transitions")
        words = self._stim_words
        words[:len(self._stim_order)] = [
            (packed_values[net] >> shift) & _U64 for net in self._stim_order]
        rc = self._lib.sim_replay(
            self.n_nets, self._n_gates,
            self._gin, self._ttab, self._gout, self._gdelay,
            self._fo_ptr, self._fo_dat,
            self.values, self._live_seq, self._trig_mark,
            self._stim_net, words, len(self._stim_order),
            transitions,
            self.toggles, self._stats, self._settle)
        if rc < 0:
            raise SimulationError("compiled event kernel allocation failure")
        stats = self._stats
        return stats[1], stats[2], stats[3], stats[4], self._settle[0]
