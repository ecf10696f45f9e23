"""Netlist compile pass: flatten once, specialize via source codegen.

The interpreting simulators pay a per-gate dispatch tax on every
evaluation: fetch the ``Gate`` dataclass, look up its ``cell_eval``
function, branch on arity, build an argument list.  On a 20k-gate
multiplier that tax dominates the runtime of both the levelized runs and
the event-driven glitch replay.

This module removes it by *compiling* a :class:`~repro.hdl.module.Module`
into four kernels, each built on its first use:

* ``levelized`` — straight-line Python source, one statement per
  gate/register in topological order, operating bit-parallel on the
  packed pattern words (``v[out] = M ^ (v[a] & v[b])`` …), built with
  ``compile()``/``exec`` and chunked into several functions to keep the
  code objects small;
* ``settle`` — the same straight-line code over the combinational gates
  only (mask fixed to 1), used by the event simulator to settle the
  network from scratch;
* ``evals`` — one zero-argument lambda per gate that recomputes the
  gate's scalar output from the simulator's live ``values`` list, used
  in the event simulator's inner scheduling loop;
* ``masked-evals`` — the same closures bit-parallel under a pattern
  mask, for the differential fault engine.

Generated expressions mirror :data:`repro.hdl.cell.CELL_KINDS` exactly
(a unit test sweeps every kind against ``cell_eval``), and because the
kernels evaluate the same exact integer operations in the same
topological discipline, compiled results are **bit-identical** to the
interpreters' — the compile pass is a pure speedup.

Kernels are cached at two levels.  In process, :func:`compiled_module`
keeps one :class:`CompiledModule` per ``Module`` instance (weakly, so
modules remain collectable; a module that grew since is recompiled).
On disk, the kernels of netlists marked by :func:`mark_reusable` (the
cached netlists :func:`repro.eval.experiments.load_netlist` returns)
are marshalled under the module cache root (:mod:`repro.hdl.diskcache`;
``REPRO_MODULE_CACHE=0`` disables) and keyed by :func:`netlist_digest`
— the netlist's structure, this module's and ``toposort.py``'s source
bytes, the expression templates and the interpreter's bytecode magic
number.  So such a kernel is generated and compiled once per cache
root: every later process, worker, or structurally identical netlist
(a sweep point equal to a named design) loads it.  Counters
``compile.artefacts.hits`` / ``compile.artefacts.misses`` count
lookups, ``compile.kernels`` counts real compilations.
"""

import functools
import hashlib
import importlib.util
import marshal
import weakref
from pathlib import Path

from repro import obs
from repro.errors import NetlistError
from repro.hdl.cell import CELL_KINDS
from repro.hdl.diskcache import module_cache_dir, write_atomic
from repro.hdl.sim.toposort import topo_gate_order, topo_node_order

#: kind -> expression template.  ``{M}`` is the all-patterns mask
#: (``1`` in scalar mode); positional fields are operand expressions.
#: Semantics must mirror ``CELL_KINDS`` — tested kind-by-kind.
EXPR_TEMPLATES = {
    "INV": "({M} ^ {0})",
    "BUF": "{0}",
    "AND2": "({0} & {1})",
    "AND3": "({0} & {1} & {2})",
    "OR2": "({0} | {1})",
    "OR3": "({0} | {1} | {2})",
    "NAND2": "({M} ^ ({0} & {1}))",
    "NAND3": "({M} ^ ({0} & {1} & {2}))",
    "NOR2": "({M} ^ ({0} | {1}))",
    "NOR3": "({M} ^ ({0} | {1} | {2}))",
    "XOR2": "({0} ^ {1})",
    "XNOR2": "({M} ^ {0} ^ {1})",
    "XOR3": "({0} ^ {1} ^ {2})",
    "MAJ3": "(({0} & {1}) | ({0} & {2}) | ({1} & {2}))",
    "MUX2": "({0} ^ (({0} ^ {1}) & {2}))",
    "AOI21": "({M} ^ (({0} & {1}) | {2}))",
    "OAI21": "({M} ^ (({0} | {1}) & {2}))",
    "AO22": "(({0} & {1}) | ({2} & {3}))",
    "OA22": "(({0} | {1}) & ({2} | {3}))",
}

_missing = set(CELL_KINDS) - set(EXPR_TEMPLATES)
if _missing:  # pragma: no cover - import-time sync guard
    raise NetlistError(f"no codegen template for cell kinds: {sorted(_missing)}")

#: Statements per generated function.  Keeps individual code objects a
#: comfortable size for CPython's compiler without fragmenting the work.
CHUNK_STATEMENTS = 4000


def gate_expr(gate, mask_name="M"):
    """The Python expression recomputing ``gate``'s output from ``v``."""
    try:
        template = EXPR_TEMPLATES[gate.kind]
    except KeyError:
        raise NetlistError(f"unknown cell kind {gate.kind!r}") from None
    return template.format(*[f"v[{net}]" for net in gate.inputs], M=mask_name)


def _statements(module, kind):
    """The generated source lines of one kernel of ``module``."""
    gates = module.gates
    if kind == "levelized":
        registers = module.registers
        stmts = []
        for node in topo_node_order(module):
            if node >= 0:
                gate = gates[node]
                stmts.append(f"v[{gate.output}] = {gate_expr(gate)}")
            else:
                reg = registers[-node - 1]
                stmts.append(f"v[{reg.q}] = (v[{reg.d}] << 1) & R")
        return stmts
    if kind == "settle":
        return [f"v[{gates[idx].output}] = {gate_expr(gates[idx])}"
                for idx in topo_gate_order(module)]
    if kind in ("evals", "masked-evals"):
        mask_name = "M" if kind == "masked-evals" else "1"
        return [f"a(lambda: {gate_expr(g, mask_name=mask_name)})"
                for g in gates]
    raise NetlistError(f"unknown kernel {kind!r}")


def _compile_source(statements, tag, args):
    """``compile()`` chunks of statements as ``def _k(args)`` modules."""
    codes = []
    with obs.span("compile:kernel", cat="compile", tag=tag,
                  statements=len(statements)):
        for start in range(0, len(statements), CHUNK_STATEMENTS):
            body = statements[start:start + CHUNK_STATEMENTS] or ["pass"]
            src = f"def _k({args}):\n    " + "\n    ".join(body)
            codes.append(compile(
                src, f"<repro.hdl.sim.compile:{tag}:{start}>", "exec"))
    obs.registry().inc("compile.kernels")
    return codes


def _compile_chunks(statements, tag):
    """Code objects defining ``_k(v, M, R)`` straight-line kernels.

    ``M`` is the all-patterns mask; ``R`` is the register shift mask
    (``M`` for a plain run, ``M & ~segment_starts`` for a segmented
    superword run — see :meth:`CompiledModule.run_levelized`).
    """
    return _compile_source(statements, tag, "v, M, R")


def _compile_eval_factories(statements, tag, masked=False):
    """Code objects defining ``_k`` factories of per-gate closures.

    Scalar factories take ``(v, a)`` (the event simulator's case);
    ``masked`` ones take ``(v, M, a)`` and their closures evaluate
    **bit-parallel** over the packed pattern words — what the
    differential fault engine binds against its overlay value list.
    """
    return _compile_source(statements, tag,
                           "v, M, a" if masked else "v, a")


def compile_module(module, kind):
    """Generate and compile one kernel of ``module`` (uncached).

    Returns the kernel's code objects; :func:`compiled_module` is the
    cached entry point.
    """
    tag = f"{module.name or 'module'}:{kind}"
    with obs.span("compile:module", cat="compile", module=module.name,
                  kernel=kind, gates=len(module.gates)):
        statements = _statements(module, kind)
        if kind in ("levelized", "settle"):
            return _compile_chunks(statements, tag)
        return _compile_eval_factories(statements, tag,
                                       masked=kind == "masked-evals")


@functools.lru_cache(maxsize=1)
def _codegen_source():
    here = Path(__file__).resolve().parent
    return b"".join((here / name).read_bytes()
                    for name in ("compile.py", "toposort.py"))


def netlist_digest(module):
    """Key of ``module``'s kernel artefacts: everything their code
    depends on.

    Covers the interpreter's bytecode magic number (marshal output is
    version-specific), the codegen sources and templates, and the
    netlist's structure: ``n_nets``, every gate's ``(kind, inputs,
    output)`` in index order and every register's ``(d, q)``.  Names,
    ports and block labels do not enter the generated code.
    """
    digest = hashlib.sha256(importlib.util.MAGIC_NUMBER)
    digest.update(_codegen_source())
    digest.update(repr((sorted(EXPR_TEMPLATES.items()), CHUNK_STATEMENTS,
                        module.n_nets)).encode())
    digest.update(repr([(g.kind, g.inputs, g.output)
                        for g in module.gates]).encode())
    digest.update(repr([(r.d, r.q) for r in module.registers]).encode())
    return digest.hexdigest()[:32]


def _checksum(payload):
    return hashlib.blake2b(payload, digest_size=16).digest()


def _load_artefact(path):
    """The code objects stored at ``path``; ``None`` if absent or bad."""
    try:
        data = path.read_bytes()
    except OSError:
        return None
    head, payload = data[:16], memoryview(data)[16:]
    if len(head) < 16 or head != _checksum(payload):
        return None
    try:
        return marshal.loads(payload)
    except (EOFError, ValueError, TypeError):
        return None


def _store_artefact(path, codes):
    payload = marshal.dumps(codes)

    def write(fh):
        fh.write(_checksum(payload))
        fh.write(payload)
    write_atomic(path, write)


def _bind(code):
    namespace = {}
    exec(code, namespace)
    return namespace["_k"]


class CompiledModule:
    """One module's simulation kernels, each built on first use.

    A consumer that only runs levelized patterns (or hands the event
    loop to the compiled C kernel) never pays for the kernels it
    doesn't call.  Only the bound kernel functions are kept — never the
    generated statements.
    """

    def __init__(self, module):
        self.n_nets = module.n_nets
        self.n_gates = len(module.gates)
        self.n_registers = len(module.registers)
        # Weak: the in-process cache maps module -> CompiledModule, so a
        # strong reference back would keep every module alive.
        self._module = weakref.ref(module)
        self._digest = None
        self._kernels = {}

    def _kernel(self, kind):
        fns = self._kernels.get(kind)
        if fns is None:
            fns = self._kernels[kind] = [_bind(c) for c in self._codes(kind)]
        return fns

    def _codes(self, kind):
        """Load ``kind``'s code objects from disk, or compile and store."""
        module = self._module()
        if module is None:
            raise NetlistError("compiled module outlived its netlist")
        cache_dir = module_cache_dir()
        if cache_dir is None or module not in _REUSABLE:
            return compile_module(module, kind)
        if self._digest is None:
            self._digest = netlist_digest(module)
        path = cache_dir / f"kernel-{self._digest}-{kind}.marshal"
        reg = obs.registry()
        codes = _load_artefact(path)
        if codes is not None:
            reg.inc("compile.artefacts.hits")
            return codes
        reg.inc("compile.artefacts.misses")
        codes = compile_module(module, kind)
        _store_artefact(path, codes)
        return codes

    def run_levelized(self, values, m, reg_mask=None):
        """Evaluate every gate and register time-shift, bit-parallel.

        ``reg_mask`` (default: ``m``) masks the register time shifts —
        a segmented superword run passes ``m & ~segment_start_bits`` so
        each segment's first pattern sees a cleared flip-flop bank,
        which is exactly what makes concatenated independent stimulus
        sequences bit-identical to separate runs.
        """
        if reg_mask is None:
            reg_mask = m
        for fn in self._kernel("levelized"):
            fn(values, m, reg_mask)

    def settle(self, values):
        """Zero-delay scalar settle of the combinational gates."""
        for fn in self._kernel("settle"):
            fn(values, 1, 1)

    def make_gate_evals(self, values):
        """Per-gate re-evaluation closures over ``values``.

        Index ``g`` of the returned list recomputes gate ``g``'s output
        from the current ``values`` — the event simulator's inner loop
        calls these instead of dispatching through ``cell_eval``.
        """
        evals = []
        for fn in self._kernel("evals"):
            fn(values, evals.append)
        return evals

    def make_masked_gate_evals(self, values, m):
        """Bit-parallel per-gate closures under all-patterns mask ``m``.

        Index ``g`` recomputes gate ``g``'s packed pattern word from the
        current ``values`` — the differential fault engine's inner loop.
        The factories are mask-agnostic and cached; the mask binds per
        call, so engines over different pattern counts share them.
        """
        evals = []
        for fn in self._kernel("masked-evals"):
            fn(values, m, evals.append)
        return evals


_CACHE = weakref.WeakKeyDictionary()

#: Modules whose kernels are stored on disk (see :func:`mark_reusable`).
_REUSABLE = weakref.WeakSet()


def mark_reusable(module):
    """Store and load ``module``'s kernels as on-disk artefacts.

    For netlists that later processes build again identically — the
    cached netlists :func:`repro.eval.experiments.load_netlist` hands
    out.  Unmarked modules (fault-injection clones, ad-hoc test
    netlists) compile in process only, so one-off netlists never write
    files that nothing reads again.
    """
    _REUSABLE.add(module)


def compiled_module(module):
    """The compile-once cache: one :class:`CompiledModule` per module.

    A module that grew since its first compilation (the builders mutate
    modules only during construction, but nothing enforces it) is
    transparently recompiled.
    """
    cm = _CACHE.get(module)
    if (cm is None or cm.n_nets != module.n_nets
            or cm.n_gates != len(module.gates)
            or cm.n_registers != len(module.registers)):
        cm = _CACHE[module] = CompiledModule(module)
    return cm
