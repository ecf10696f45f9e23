"""Netlist compile pass: per-kind template kernels, straight-line on request.

The interpreting simulators pay a per-gate dispatch tax on every
evaluation: fetch the ``Gate`` dataclass, look up its ``cell_eval``
function, branch on arity, build an argument list.  On a 20k-gate
multiplier that tax dominates the runtime of both the levelized runs and
the event-driven glitch replay.

This module removes it without compiling anything per netlist.  At
import, :func:`_compile_eval_factories` turns each cell kind's
:data:`EXPR_TEMPLATES` entry into two functions:

* a **column loop** evaluating the kind's expression over a column of
  gates (``for y, x0, x1 in zip(...): v[y] = (v[x0] & v[x1])``), plus
  one for the register time shift ``v[q] = (v[d] << 1) & R``;
* a **closure factory** returning ``lambda: <template>`` over ``v``,
  ``M`` and one gate's input ids.

A :class:`CompiledModule` then simulates from these alone:

* ``levelized`` and ``settle`` kernels are *plans* — lists of
  (topological level, kind) steps, each one column loop over that
  group's gates, built once per module.  Nodes of one level never feed
  each other, so any order of a level's steps is a topological order;
* the scalar (event simulator) and masked (differential fault engine)
  per-gate evaluators come straight from the factories.

Straight-line code — one generated statement per gate, built with
``compile()``/``exec`` and chunked into several functions — is still
available, but only behind an explicit :meth:`CompiledModule.compile`.
It pays off where one netlist runs thousands of short passes (the
``serve`` lane engines and the width tuner that sizes their words);
its ~0.5 s compile costs more than it saves for the few passes a
report or Monte Carlo point runs.

Generated expressions mirror :data:`repro.hdl.cell.CELL_KINDS` exactly
(a unit test sweeps every kind's template, loop and factory against
``cell_eval``), and because every kernel evaluates the same exact
integer operations in a topological discipline, results are
**bit-identical** to the interpreters' — the compile pass is a pure
speedup.

:func:`compiled_module` keeps one :class:`CompiledModule` per ``Module``
instance (weakly, so modules remain collectable; a module that grew
since gets a fresh one).  Counter ``compile.kernels`` counts
straight-line compilations.
"""

import weakref

from repro import obs
from repro.errors import NetlistError
from repro.hdl.cell import CELL_KINDS
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

#: Plan-step kind of a register time shift (``R`` is the register mask).
REG = "REG"

#: Statements per generated straight-line function.  Keeps individual
#: code objects a comfortable size for CPython's compiler without
#: fragmenting the work.
CHUNK_STATEMENTS = 4000


def gate_expr(gate):
    """The Python expression recomputing ``gate``'s output from ``v``."""
    try:
        template = EXPR_TEMPLATES[gate.kind]
    except KeyError:
        raise NetlistError(f"unknown cell kind {gate.kind!r}") from None
    return template.format(*[f"v[{net}]" for net in gate.inputs], M="M")


def _compile_eval_factories():
    """Compile every kind's column loop and closure factory (at import).

    Returns ``(loops, factories)``.  ``loops[kind](v, M, R, out, *ins)``
    evaluates one column of gates (``out`` and each ``ins[j]`` are
    equal-length tuples of net ids) — ``loops[REG]`` shifts registers
    under ``R``.  ``factories[kind](v, M, *inputs)`` returns one gate's
    zero-argument evaluator.  This is the only ``compile()`` the
    template kernels need; per-netlist code is never generated.
    """
    src = []
    for kind, template in EXPR_TEMPLATES.items():
        xs = [f"x{j}" for j in range(CELL_KINDS[kind][1])]
        expr = template.format(*[f"v[{x}]" for x in xs], M="M")
        cols = ", ".join(f"c{j}" for j in range(len(xs)))
        src += [f"def _loop_{kind}(v, M, R, out, {cols}):",
                f"    for y, {', '.join(xs)} in zip(out, {cols}):",
                f"        v[y] = {expr}",
                f"def _make_{kind}(v, M, {', '.join(xs)}):",
                f"    return lambda: {expr}"]
    src += [f"def _loop_{REG}(v, M, R, out, c0):",
            "    for y, x0 in zip(out, c0):",
            "        v[y] = (v[x0] << 1) & R"]
    namespace = {}
    exec(compile("\n".join(src), "<repro.hdl.sim.compile:templates>",
                 "exec"), namespace)
    loops = {kind: namespace[f"_loop_{kind}"]
             for kind in (*EXPR_TEMPLATES, REG)}
    factories = {kind: namespace[f"_make_{kind}"] for kind in EXPR_TEMPLATES}
    return loops, factories


_LOOPS, _FACTORIES = _compile_eval_factories()


def _build_plan(module, kind):
    """The ``levelized`` or ``settle`` plan of ``module``.

    A list of ``(loop, columns)`` steps; running ``loop(v, M, R,
    *columns)`` for each in order is one kernel pass.  A node's level
    is one more than the highest level among its inputs (primary
    inputs, constants and — for ``settle`` — register outputs are level
    0), and the nodes of each (level, kind) pair form one step, so a
    step only reads nets written by earlier steps.
    """
    gates = module.gates
    if kind == "levelized":
        registers = module.registers
        nodes = []
        for node in topo_node_order(module):
            if node >= 0:
                gate = gates[node]
                nodes.append((gate.kind, gate.output, gate.inputs))
            else:
                reg = registers[-node - 1]
                nodes.append((REG, reg.q, (reg.d,)))
    elif kind == "settle":
        nodes = [(gates[idx].kind, gates[idx].output, gates[idx].inputs)
                 for idx in topo_gate_order(module)]
    else:
        raise NetlistError(f"unknown kernel {kind!r}")
    level = [0] * module.n_nets
    level_of = level.__getitem__
    groups = {}
    for cell, out, ins in nodes:
        lv = level[out] = 1 + max(map(level_of, ins))
        key = (lv, cell)
        rows = groups.get(key)
        if rows is None:
            rows = groups[key] = []
        rows.append((out, *ins))
    return [(_LOOPS[cell], tuple(zip(*groups[(lv, cell)])))
            for lv, cell in sorted(groups)]


def _statements(module):
    """The generated straight-line source lines of ``module``'s
    levelized kernel."""
    gates = module.gates
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


def _compile_chunks(statements, tag):
    """Code objects defining ``_k(v, M, R)`` straight-line kernels.

    ``M`` is the all-patterns mask; ``R`` is the register shift mask
    (``M`` for a plain run, ``M & ~segment_starts`` for a segmented
    superword run — see :meth:`CompiledModule.run_levelized`).
    """
    codes = []
    with obs.span("compile:kernel", cat="compile", tag=tag,
                  statements=len(statements)):
        for start in range(0, len(statements), CHUNK_STATEMENTS):
            body = statements[start:start + CHUNK_STATEMENTS] or ["pass"]
            src = "def _k(v, M, R):\n    " + "\n    ".join(body)
            codes.append(compile(
                src, f"<repro.hdl.sim.compile:{tag}:{start}>", "exec"))
    obs.registry().inc("compile.kernels")
    return codes


def compile_module(module):
    """Generate and compile ``module``'s straight-line levelized kernel.

    Returns the kernel's code objects; :meth:`CompiledModule.compile`
    is the cached entry point.
    """
    with obs.span("compile:module", cat="compile", module=module.name,
                  kernel="straight-line", gates=len(module.gates)):
        return _compile_chunks(_statements(module),
                               f"{module.name or 'module'}:levelized")


def _bind(code):
    namespace = {}
    exec(code, namespace)
    return namespace["_k"]


class CompiledModule:
    """One module's simulation kernels, each built on first use.

    A consumer that only runs levelized patterns (or hands the event
    loop to the compiled C kernel) never pays for the plans it doesn't
    run.
    """

    def __init__(self, module):
        self.n_nets = module.n_nets
        self.n_gates = len(module.gates)
        self.n_registers = len(module.registers)
        # Weak: the in-process cache maps module -> CompiledModule, so a
        # strong reference back would keep every module alive.
        self._module = weakref.ref(module)
        self._plans = {}
        self._straight = None

    def _netlist(self):
        module = self._module()
        if module is None:
            raise NetlistError("compiled module outlived its netlist")
        return module

    def _plan(self, kind):
        plan = self._plans.get(kind)
        if plan is None:
            module = self._netlist()
            with obs.span("compile:module", cat="compile",
                          module=module.name, kernel=kind,
                          gates=len(module.gates)):
                plan = self._plans[kind] = _build_plan(module, kind)
        return plan

    def compile(self):
        """Switch :meth:`run_levelized` to straight-line generated code.

        For a netlist that will run many short passes: the one-off
        ``compile()`` (about 0.5 s for a 20k-gate multiplier) saves
        0.3-0.7 ms per pass over the template loops, a quarter or more
        of a pass of a few patterns.  Idempotent; returns ``self``.
        """
        if self._straight is None:
            self._straight = [_bind(code)
                              for code in compile_module(self._netlist())]
            self._plans.pop("levelized", None)
        return self

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
        if self._straight is not None:
            for fn in self._straight:
                fn(values, m, reg_mask)
            return
        for loop, cols in self._plan("levelized"):
            loop(values, m, reg_mask, *cols)

    def settle(self, values):
        """Zero-delay scalar settle of the combinational gates."""
        for loop, cols in self._plan("settle"):
            loop(values, 1, 1, *cols)

    def make_gate_evals(self, values):
        """Per-gate re-evaluation closures over ``values``.

        Index ``g`` of the returned list recomputes gate ``g``'s output
        from the current ``values`` — the event simulator's inner loop
        calls these instead of dispatching through ``cell_eval``.
        """
        return self.make_masked_gate_evals(values, 1)

    def make_masked_gate_evals(self, values, m):
        """Bit-parallel per-gate closures under all-patterns mask ``m``.

        Index ``g`` recomputes gate ``g``'s packed pattern word from the
        current ``values`` — the differential fault engine's inner loop.
        """
        factories = _FACTORIES
        return [factories[g.kind](values, m, *g.inputs)
                for g in self._netlist().gates]


_CACHE = weakref.WeakKeyDictionary()


def compiled_module(module):
    """The build-once cache: one :class:`CompiledModule` per module.

    A module that grew since its first use (the builders mutate
    modules only during construction, but nothing enforces it) gets a
    fresh one, so its plans are rebuilt.
    """
    cm = _CACHE.get(module)
    if (cm is None or cm.n_nets != module.n_nets
            or cm.n_gates != len(module.gates)
            or cm.n_registers != len(module.registers)):
        cm = _CACHE[module] = CompiledModule(module)
    return cm
