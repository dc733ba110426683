"""Kernel IR → C translation for the native backend.

This is the code generator the paper's translator architecture points at:
the same lowered kernel IR that backs the linter and the abstract
certifier (:mod:`repro.lint.ir`) is walked a third time, now emitting a
small C translation unit per loop.  Two generators share one expression
emitter:

* :func:`generate_ops` — a dense loop nest over the block ranges, with
  per-dat base pointers pre-offset to the range origin and outer strides
  passed at run time (so one ``.so`` serves every tile shape of a given
  structural signature), and
* :func:`generate_op2` — a two-phase loop over an unstructured set:
  phase A computes each element (indirect reads through the map columns,
  writes landing in per-arg scratch), phase B replays the scatters in
  argument order, reproducing the vec executor's gather/compute/scatter
  schedule bitwise (``np.add.at`` and the segment scatter accumulate in
  element order; fancy assignment is last-writer-wins in element order).

Sums are *staged*, never folded in C.  NumPy's ``sum`` is pairwise, so a
sequential C accumulator would differ in the last bits; instead the C
writes what the vec tier would have handed to NumPy — the per-element
``(n, dim)`` increment rows of an op2 global ``INC`` argument, the dense
range-shaped value of an ops ``red.inc(expr)`` — into a stage, and the
plan layer reduces that stage with the very NumPy call the vec tier
makes.  Same operand bits, same reducer: equal by construction.

Bitwise discipline.  The generated C must produce the *same bits* as the
vec path, so only constructs with an exact NumPy↔C correspondence are
emitted: ``+ - * /`` (IEEE), ``sqrt`` (correctly rounded on both sides),
``fabs``, ``x ** 2`` (NumPy's fast scalar power lowers it to ``x*x``),
ternary selects (``np.where`` computes both branches but selects the
identical value), and NumPy's NaN-aware ``minimum``/``maximum``, whose C
loop is ``(a < b || a != a) ? a : b`` — ties go to the second operand
(``np.minimum(-0.0, 0.0)`` is ``0.0``), the first NaN met propagates.
Transcendentals other than ``sqrt`` (``exp``/``log``/``sin``…) are
*declined*: NumPy's SIMD routines are not libm.  Everything declined
raises :class:`Untranslatable` with a reason string that flows into the
``native.fallback`` telemetry instant.

Vectorisation keeps every bit.  Each OPS loop's innermost dimension runs
under ``#pragma omp simd``, which SSE2 lanes execute with the scalar
unit's IEEE rounding; what makes the loop vectorisable changes no value:

* dat pointers are ``restrict``: admission proves that no written dat's
  storage overlaps another argument's, so there is no aliasing to respect;
* ``cv`` constants are read once, into ``const double c<j>``, before the
  nest — the same doubles;
* conditions join with ``&``/``|`` instead of ``&&``/``||`` — they are pure
  and 0/1 valued, so the truth value is the same, without a branch;
* both arms of a ternary or ``np.where`` are computed into temporaries
  before the select: the selected value is the one the branch would have
  computed, and every load in either arm is proven in bounds;
* a min/max reduction no longer carries a register across points: each
  point folds into its own register (from the identity, which the select
  leaves unchanged), stores it into a fixed 256-double row chunk
  (:data:`CHUNK`), and the chunk folds into the running register serially,
  in point order, right after the chunk — the single-thread fold's order;
* ``sqrt`` compiles to one instruction under ``-fno-math-errno`` (see
  :mod:`.cache`): the same correctly rounded value, and the same NaN for a
  negative operand, minus the ``errno`` call-out that kept loops scalar.

Contraction stays off (``-ffp-contract=off``).  Staged ``.inc()`` sums are
untouched: the stage is still written point by point and summed by NumPy.

Scalar constants that are not part of the kernel *source* — closure
cells, module globals, defaulted trailing parameters — are never baked
into the C text.  They are loaded from the ``cv`` (constant-vector)
argument at run time, so per-timestep closures (CloverLeaf's ``dt``)
re-use one cached shared object instead of recompiling every step, and
``bool`` flags (``first`` in CloverLeaf's ``advec_cell`` factories) travel
as 0.0/1.0 so both settings share it too.
Integer constants used in *index* position are the exception: they change
the stencil, i.e. the structure of the loop, and are baked.

Every entry point has one fixed signature::

    void kernel_run(double **p, const long long **m, const long long *n,
                    double *red, const double *cv)

``p``: data pointers (dats, scratch, globals) — ``m``: integer arrays
(map columns / ops strides) — ``n``: iteration extents, then the team
size (op2: then the row counts the owner rule cuts) — ``red``: reduction
cells (in: identity or current value, out: folded) — ``cv``: runtime
scalar constants.

Threads.  ``kernel_run`` cuts an extent into one contiguous block per
team member and runs a static ``sweep`` over each under ``#pragma omp
parallel for``; a team of 1 calls ``sweep`` once, outside any OpenMP
region.  The extent is ``n[0]`` (OPS rows, OP2 elements), or — for an OP2
loop with an in-sweep INC — the rows of that INC's dat, each thread
computing the elements whose row it owns; OP2 phase B splits every
scatter by ownership of its rows the same way.  Each block folds its
min/max registers from the identity and the blocks fold into ``red`` in
block order, which the select's associativity makes bitwise equal to one
thread.
"""

from __future__ import annotations

import ast
import builtins
import inspect
import math
import textwrap
from dataclasses import dataclass

import numpy as np

from repro.lint.ir import (
    EBin,
    ECall,
    ECmp,
    EConst,
    EIf,
    ELoad,
    EName,
    EUn,
    KernelIR,
    SAssign,
    SAug,
    SExpr,
    SFold,
    SFor,
    SIf,
    SReturn,
    TLocal,
    TParam,
    lower_kernel,
)

__all__ = [
    "Untranslatable",
    "NativeCode",
    "ir_for_callable",
    "generate_ops",
    "generate_op2",
]

ENTRY = "kernel_run"


class Untranslatable(Exception):
    """The kernel (or this binding of it) has no bitwise-exact C form."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class NativeCode:
    """Generated C plus the binding recipe the plan layer marshals."""

    source: str
    entry: str
    #: what each ``p[j]`` slot is: ("dat", argidx) | ("scratch", argidx)
    #: | ("glob", argidx) | ("stage", None) — in slot order
    ptr_spec: tuple = ()
    #: what each ``m[j]`` slot is: ("strides",) for ops; for op2
    #: ("map", argidx), the base of the first argument's ``Map.values`` —
    #: one slot per distinct map
    map_spec: tuple = ()
    #: reduction cells in ``red`` order: ("red", argidx, kind) for ops
    #: Reduction handles, ("gmm", argidx, cell, kind) for op2 globals
    red_spec: tuple = ()
    #: names resolved into ``cv`` slots at plan-build time, in slot order;
    #: ``"="name`` is a free/closure read, ``"@"name`` a defaulted parameter
    const_names: tuple = ()
    #: op2 scratch slots: (argidx, n_components) of each staged indirect
    #: write; a global INC argument's slot is the stage the plan layer sums
    scratch_spec: tuple = ()
    #: ops: the reduction argument each ``.inc()`` call folds into, in call
    #: order; sweep ``j`` (``n[ndim] == j``) fills the stage for call ``j``
    stage_args: tuple = ()
    #: why every team size runs this loop on one thread (op2 loops the
    #: owner rule cannot split), or None: it splits over the team size in
    #: ``n[1]`` (op2) or the last ``n`` slot (ops)
    serial_reason: str | None = None
    #: op2: the argument whose dat's row count ``n[2 + j]`` holds — the
    #: swept INC whose rows split phase A (first, when it does), then each
    #: phase-B scatter; written once at plan build
    row_args: tuple = ()

    @property
    def threaded(self) -> bool:
        return self.serial_reason is None


# -- IR retrieval ------------------------------------------------------------

_IR_CACHE: dict = {}


def ir_for_callable(fn) -> KernelIR:
    """The lowered IR of a kernel function, cached by code object.

    Mirrors ``certify_callable``'s source extraction exactly; raises
    :class:`Untranslatable` where the certifier would degrade gracefully,
    because codegen needs the structured body, not just the footprints.
    """
    fn = getattr(fn, "func", fn)  # unwrap Kernel-like wrappers
    code = getattr(fn, "__code__", None)
    if code is None:
        raise Untranslatable("not a plain Python function")
    cached = _IR_CACHE.get(code)
    if cached is not None:
        return cached
    try:
        src = textwrap.dedent(inspect.getsource(fn))
        tree = ast.parse(src)
    except (OSError, TypeError, SyntaxError) as exc:
        raise Untranslatable(f"kernel source unavailable: {exc}") from exc
    fndef = next((n for n in tree.body if isinstance(n, ast.FunctionDef)), None)
    if fndef is None:
        raise Untranslatable("kernel is not a plain `def` function")
    ir = _IR_CACHE[code] = lower_kernel(fndef)
    return ir


# -- C literal spelling / free-name resolution --------------------------------

def _c_double(v: float) -> str:
    f = float(v)
    if f != f:
        return "NAN"
    if f == math.inf:
        return "INFINITY"
    if f == -math.inf:
        return "-INFINITY"
    # hex float literals round-trip every finite double exactly
    return float(f).hex()


def resolve_free(fn, dotted: str):
    """Resolve a free (closure / global / builtin) name read by the kernel."""
    parts = dotted.split(".")
    root = parts[0]
    code = fn.__code__
    if root in code.co_freevars and fn.__closure__ is not None:
        try:
            obj = fn.__closure__[code.co_freevars.index(root)].cell_contents
        except ValueError as exc:  # empty cell
            raise Untranslatable(f"unbound closure cell {root!r}") from exc
    elif root in fn.__globals__:
        obj = fn.__globals__[root]
    elif hasattr(builtins, root):
        obj = getattr(builtins, root)
    else:
        raise Untranslatable(f"unresolvable free name {dotted!r}")
    for attr in parts[1:]:
        try:
            obj = getattr(obj, attr)
        except AttributeError as exc:
            raise Untranslatable(f"unresolvable free name {dotted!r}") from exc
    return obj


def is_scalar_const(obj) -> bool:
    """A value the ``cv`` vector can carry as a double.

    Python ``bool`` flags ride along as 0.0/1.0: ``a if flag else b``
    selects the same operand, and ``x * flag`` is ``x * 1`` either way.
    """
    return isinstance(obj, (bool, int, float, np.floating, np.integer))


#: callables with a bitwise-exact scalar C spelling, matched by identity
#: (a user shadowing ``sqrt`` with their own function must not be compiled)
_SQRT_FNS = (math.sqrt, np.sqrt)
_ABS_FNS = (abs, math.fabs, np.abs, np.absolute)
_MIN_FNS = (min, np.minimum)
_MAX_FNS = (max, np.maximum)
_WHERE_FNS = (np.where,)
_FLOAT_FNS = (float, np.float64)


def _np_select(keep: str, other: str, op: str) -> str:
    """NumPy's minimum/maximum C loop, ``(a OP b || a != a) ? a : b``,
    spelled branch-free: ``((a OP b) | (a != a)) ? a : b``.

    The first operand's NaN propagates, else the second operand wins ties
    and propagates its NaN (the select falls through to it).  As a fold
    this keeps the first NaN, else the last extreme: associative bit for
    bit, with ±inf as identity, so folds over blocks combine exactly.
    """
    return f"((({keep} {op} {other}) | ({keep} != {keep})) ? {keep} : {other})"


#: the register a block's min/max fold starts from
_IDENTITY = {"min": "INFINITY", "max": "-INFINITY"}

#: innermost-dimension points per row chunk of an ops loop with min/max
#: reductions: the chunk's point values are buffered, then folded in order
CHUNK = 256


def _subexprs(e) -> list:
    """The direct sub-expressions of an IR expression node."""
    subs = [
        v for attr in ("left", "right", "operand", "test", "body", "orelse")
        if (v := getattr(e, attr, None)) is not None
    ]
    for attr in ("operands", "args", "elts"):
        subs.extend(getattr(e, attr, ()) or ())
    return subs


# -- bindings ----------------------------------------------------------------

@dataclass
class _Bind:
    """How one kernel parameter is realised in C."""

    role: str  # opsdat | opsred | direct | iread | ibuf | iacc | gread | gmm | default
    k: int  # argument position (-1 for defaults)
    dim: int = 1  # components (op2); unused for ops dats
    writable: bool = False
    kind: str = ""  # reduction kind (opsred/gmm) or access name (ibuf/iacc)


class _Emitter:
    """Shared statement/expression emitter for both generators."""

    def __init__(self, fn, ir: KernelIR, binds: dict[str, _Bind], kind: str):
        self.fn = fn
        self.ir = ir
        self.binds = binds
        self.kind = kind  # "ops" | "op2"
        self.lines: list[str] = []
        self.loop_vars: set[str] = set()
        self.locals: set[str] = set()
        self.const_slots: dict[str, int] = {}  # tagged name -> cv index
        self._tmp = 0
        self._depth = 1

    # -- constant-vector slots ----------------------------------------------

    #: how the body spells cv slot ``j`` (ops reads each into a local first)
    CONST = "cv[{}]"

    def _cv(self, tagged: str) -> str:
        j = self.const_slots.setdefault(tagged, len(self.const_slots))
        return self.CONST.format(j)

    def free_scalar(self, dotted: str) -> str:
        """A free name that must resolve to a Python/NumPy scalar → cv slot."""
        obj = resolve_free(self.fn, dotted)
        if not is_scalar_const(obj):
            raise Untranslatable(f"free name {dotted!r} is not a numeric scalar")
        return self._cv("=" + dotted)

    # -- expression contexts --------------------------------------------------

    def value(self, e) -> str:
        """Emit ``e`` as a double-valued C expression."""
        if isinstance(e, EConst):
            if isinstance(e.value, bool) or not isinstance(e.value, (int, float)):
                raise Untranslatable(f"non-numeric constant {e.value!r}")
            return _c_double(e.value)
        if isinstance(e, EName):
            return self._name_value(e)
        if isinstance(e, ELoad):
            return self.load(e.param, e.index, store=False)
        if isinstance(e, EBin):
            return self._bin(e)
        if isinstance(e, EUn):
            if e.op == "-":
                return f"(-{self.value(e.operand)})"
            if e.op == "+":
                return self.value(e.operand)
            raise Untranslatable(f"unary {e.op!r} in value context")
        if isinstance(e, EIf):
            if self.kind == "ops" and self._data_dependent(e.test):
                # the vec path feeds the original kernel whole arrays; a
                # per-point ternary only has array semantics via np.where
                raise Untranslatable("data-dependent ternary (use np.where)")
            return self._select(e.test, e.body, e.orelse)
        if isinstance(e, ECall):
            return self._call(e)
        if isinstance(e, ECmp):
            raise Untranslatable("boolean value used arithmetically")
        raise Untranslatable(f"unsupported expression {type(e).__name__}")

    def _name_value(self, e: EName) -> str:
        if e.kind == "param":
            b = self.binds.get(e.name)
            if b is None:
                raise Untranslatable(f"unbound parameter {e.name!r}")
            if b.role == "default":
                return self._cv("@" + e.name)
            raise Untranslatable(f"bare reference to array parameter {e.name!r}")
        if e.name in self.loop_vars:
            return f"(double)v_{e.name}"
        if e.name in self.locals:
            return f"l_{e.name}"
        return self.free_scalar(e.name)

    def _bin(self, e: EBin) -> str:
        if e.op in ("+", "-", "*", "/"):
            return f"({self.value(e.left)} {e.op} {self.value(e.right)})"
        if e.op == "**":
            exp = e.right
            if isinstance(exp, EConst) and not isinstance(exp.value, bool):
                ev = float(exp.value)
                x = self.value(e.left)
                # NumPy's fast_scalar_power: square / identity / sqrt /
                # reciprocal are the only exactly-mirrorable exponents
                if ev == 2.0:
                    t = self._fresh()
                    self.emit(f"const double {t} = {x};")
                    return f"({t} * {t})"
                if ev == 1.0:
                    return x
                if ev == 0.5:
                    return f"sqrt({x})"
                if ev == -1.0:
                    return f"(1.0 / {x})"
            raise Untranslatable("general ** has no bitwise C equivalent")
        raise Untranslatable(f"operator {e.op!r} has no bitwise C equivalent")

    def _select(self, test, body, orelse) -> str:
        """``body if test else orelse``: both arms into temporaries, then a
        select — no branch for the vectoriser to keep (``np.where`` computes
        both arms too, and every load in either is proven in bounds)."""
        c = self.cond(test)
        a, b = self._fresh(), self._fresh()
        self.emit(f"const double {a} = {self.value(body)};")
        self.emit(f"const double {b} = {self.value(orelse)};")
        return f"({c} ? {a} : {b})"

    def cond(self, e) -> str:
        """Emit ``e`` as a 0/1-valued C condition.

        Conditions are pure and 0/1 valued, so ``and``/``or`` (and chained
        comparisons) join with the non-short-circuit ``&``/``|``: the same
        truth value, without a branch per operand.
        """
        if isinstance(e, ECmp):
            if e.ops and e.ops[0] in ("and", "or"):
                j = " & " if e.ops[0] == "and" else " | "
                return "(" + j.join(self.cond(v) for v in e.operands) + ")"
            if not e.ops or len(e.ops) != len(e.operands) - 1:
                raise Untranslatable("comparison with unknown operators")
            parts = []
            for i, op in enumerate(e.ops):
                if op == "?":
                    raise Untranslatable("unsupported comparison operator")
                parts.append(
                    f"({self.value(e.operands[i])} {op} {self.value(e.operands[i + 1])})"
                )
            return "(" + " & ".join(parts) + ")"
        if isinstance(e, EUn) and e.op == "not":
            return f"(!{self.cond(e.operand)})"
        if isinstance(e, EConst) and isinstance(e.value, bool):
            return "1" if e.value else "0"
        # a numeric expression used for truthiness
        return f"({self.value(e)} != 0.0)"

    # -- integer index expressions -------------------------------------------

    def _index_const(self, e) -> int:
        if isinstance(e, EConst) and isinstance(e.value, int) and not isinstance(e.value, bool):
            return e.value
        if isinstance(e, EUn) and e.op in ("-", "+"):
            v = self._index_const(e.operand)
            return -v if e.op == "-" else v
        if isinstance(e, EBin) and e.op in ("+", "-", "*"):
            lv, rv = self._index_const(e.left), self._index_const(e.right)
            return {"+": lv + rv, "-": lv - rv, "*": lv * rv}[e.op]
        if (
            isinstance(e, EName)
            and e.kind == "name"
            and e.name not in self.loop_vars
            and e.name not in self.locals
        ):
            obj = resolve_free(self.fn, e.name)
            if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
                return int(obj)
        raise Untranslatable("index is not a compile-time integer")

    def index(self, e) -> str:
        try:
            return str(self._index_const(e))
        except Untranslatable:
            pass
        if isinstance(e, EName) and e.kind == "name" and e.name in self.loop_vars:
            return f"v_{e.name}"
        if isinstance(e, EBin) and e.op in ("+", "-", "*"):
            return f"({self.index(e.left)} {e.op} {self.index(e.right)})"
        if isinstance(e, EUn) and e.op in ("-", "+"):
            return f"({e.op}{self.index(e.operand)})"
        raise Untranslatable("unsupported index expression")

    # -- calls ----------------------------------------------------------------

    def _call(self, e: ECall) -> str:
        if e.func is None:
            raise Untranslatable("dynamic call")
        try:
            target = resolve_free(self.fn, e.func)
        except Untranslatable:
            target = None

        def _is(group) -> bool:
            return any(target is g for g in group)

        if _is(_SQRT_FNS):
            self._arity(e, 1)
            return f"sqrt({self.value(e.args[0])})"
        if _is(_ABS_FNS):
            self._arity(e, 1)
            return f"fabs({self.value(e.args[0])})"
        if _is(_FLOAT_FNS):
            self._arity(e, 1)
            return self.value(e.args[0])
        if _is(_MIN_FNS) or _is(_MAX_FNS):
            if len(e.args) < 2:
                raise Untranslatable(f"{e.func}() needs >= 2 arguments")
            is_min = _is(_MIN_FNS)
            if (target is min or target is max) and self.kind == "ops":
                # the ops vec path calls the *builtin* on scalars: the new
                # value wins only on strict compare, ties/NaNs keep the left
                acc = self.value(e.args[0])
                for a in e.args[1:]:
                    ta, tb = self._fresh(), self._fresh()
                    self.emit(f"const double {ta} = {acc};")
                    self.emit(f"const double {tb} = {self.value(a)};")
                    op = "<" if is_min else ">"
                    acc = f"(({tb} {op} {ta}) ? {tb} : {ta})"
                return acc
            # op2's kernelvec rewrites builtin min/max to a left fold of
            # np.minimum/np.maximum; direct np.minimum calls are the same
            op = "<" if is_min else ">"
            acc = self.value(e.args[0])
            for a in e.args[1:]:
                ta, tb = self._fresh(), self._fresh()
                self.emit(f"const double {ta} = {acc};")
                self.emit(f"const double {tb} = {self.value(a)};")
                acc = _np_select(ta, tb, op)
            return acc
        if _is(_WHERE_FNS):
            self._arity(e, 3)
            return self._select(*e.args)
        raise Untranslatable(f"call to {e.func!r} has no bitwise C equivalent")

    @staticmethod
    def _arity(e: ECall, n: int) -> None:
        if len(e.args) != n:
            raise Untranslatable(f"{e.func}() expects {n} argument(s)")

    # -- parameter loads/stores (provided by the concrete generators) --------

    def load(self, param: str, index, store: bool) -> str:
        raise NotImplementedError

    # -- statements -----------------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " * self._depth + line)

    def _fresh(self) -> str:
        self._tmp += 1
        return f"t{self._tmp}"

    def body(self, stmts: list) -> None:
        for i, s in enumerate(stmts):
            if (
                isinstance(s, SExpr)
                and isinstance(s.value, EConst)
                and isinstance(s.value.value, str)
            ):
                continue  # docstring
            if isinstance(s, SReturn):
                if (
                    i == len(stmts) - 1
                    and isinstance(s.value, EConst)
                    and s.value.value is None
                ):
                    continue  # trailing bare return
                raise Untranslatable("return inside kernel body")
            self.stmt(s)

    def stmt(self, s) -> None:
        if isinstance(s, SAssign):
            if len(s.targets) != 1:
                raise Untranslatable("chained assignment")
            self._assign(s.targets[0], s.value, aug=None)
        elif isinstance(s, SAug):
            if s.op not in ("+", "-", "*", "/"):
                raise Untranslatable(f"augmented {s.op}= has no bitwise C equivalent")
            self._assign(s.target, s.value, aug=s.op)
        elif isinstance(s, SFold):
            self._fold(s)
        elif isinstance(s, SIf):
            self._if(s)
        elif isinstance(s, SFor):
            self._for(s)
        elif isinstance(s, SExpr):
            raise Untranslatable("expression statement with effects")
        else:
            raise Untranslatable(f"unsupported statement {type(s).__name__}")

    def _assign(self, target, value, aug: str | None) -> None:
        if isinstance(target, TLocal):
            if target.name in self.loop_vars:
                raise Untranslatable(f"loop variable {target.name!r} reassigned")
            rhs = self.value(value)
            lhs = f"l_{target.name}"
            self.locals.add(target.name)
        elif isinstance(target, TParam):
            b = self.binds.get(target.param)
            if b is None or not b.writable:
                raise Untranslatable(f"write to read-only parameter {target.param!r}")
            rhs = self.value(value)
            lhs = self.load(target.param, target.index, store=True)
        else:
            raise Untranslatable("opaque assignment target")
        if aug is None:
            self.emit(f"{lhs} = {rhs};")
        else:
            self.emit(f"{lhs} {aug}= {rhs};")

    def _fold(self, s: SFold) -> None:
        raise Untranslatable("reduction fold not supported here")

    def _if(self, s: SIf) -> None:
        if self.kind == "op2":
            # kernelvec rejects `if` statements outright: no vec semantics
            raise Untranslatable("if statement (op2 kernels use ternaries)")
        if self._data_dependent(s.test):
            # a data-dependent `if` test on whole arrays has no defined vec
            # meaning; only uniform (scalar) tests ever ran under vec
            raise Untranslatable("data-dependent if test")
        self.emit(f"if {self.cond(s.test)} {{")
        self._depth += 1
        self.body(s.body)
        self._depth -= 1
        if s.orelse:
            self.emit("} else {")
            self._depth += 1
            self.body(s.orelse)
            self._depth -= 1
        self.emit("}")

    def _data_dependent(self, e) -> bool:
        stack = [e]
        while stack:
            x = stack.pop()
            if isinstance(x, ELoad):
                return True
            if isinstance(x, EName) and (x.kind == "param" or x.name in self.locals):
                return True
            stack.extend(_subexprs(x))
        return False

    def _for(self, s: SFor) -> None:
        var = s.var
        if var in self.binds or var in self.locals:
            raise Untranslatable(f"loop variable {var!r} shadows another name")
        lo, hi, st = self.index(s.start), self.index(s.stop), self.index(s.step)
        if st != "1":
            raise Untranslatable("non-unit range step")
        self.emit(f"for (long long v_{var} = {lo}; v_{var} < {hi}; ++v_{var}) {{")
        self.loop_vars.add(var)
        self._depth += 1
        self.body(s.body)
        self._depth -= 1
        self.loop_vars.discard(var)
        self.emit("}")

    def declared_locals(self) -> list[str]:
        return sorted(self.locals)


# -- ops generator ------------------------------------------------------------

class _OpsEmitter(_Emitter):
    CONST = "c{}"

    def __init__(self, fn, ir, binds, ndim: int):
        super().__init__(fn, ir, binds, "ops")
        self.ndim = ndim
        self.red_regs: dict[str, int] = {}  # param name -> red slot
        self.stages: list[int] = []  # NativeCode.stage_args in the making
        self._shape: dict[str, str] = {}  # local -> _vec_shape of its value

    def _vec_shape(self, e) -> str:
        """What the vec tier holds for ``e`` when it runs the kernel on views.

        ``"scalar"`` (a Python number), ``"view"`` (a strided window of dat
        storage), ``"fresh"`` (a newly allocated C-contiguous range-shaped
        array — what every arithmetic result on a view is) or ``"mixed"``
        (depends on the path taken).  ``np.sum`` walks a view and a fresh
        array in different orders, so only ``"fresh"`` values can be staged.
        """
        if isinstance(e, ELoad):
            return "view"
        if isinstance(e, EName):
            return self._shape.get(e.name, "scalar")
        if isinstance(e, EIf):
            taken, other = self._vec_shape(e.body), self._vec_shape(e.orelse)
            return taken if taken == other else "mixed"
        shapes = {self._vec_shape(sub) for sub in _subexprs(e)}
        if "mixed" in shapes:
            return "mixed"
        return "fresh" if shapes - {"scalar"} else "scalar"

    def _assign(self, target, value, aug: str | None) -> None:
        if isinstance(target, TLocal):
            new = self._vec_shape(value)
            old = self._shape.get(target.name)
            if aug is not None:
                if old == "fresh":
                    new = "fresh"  # in place on the array the local owns
                elif old == "scalar":
                    # rebound to the result: an array as soon as one is in it
                    new = new if new in ("scalar", "mixed") else "fresh"
                else:
                    new = "mixed"  # updates a dat through its view: not ours
            elif self._depth != self.ndim and old not in (None, new):
                new = "mixed"  # assigned under a branch that may not run
            self._shape[target.name] = new
        super()._assign(target, value, aug)

    def load(self, param: str, index, store: bool) -> str:
        b = self.binds.get(param)
        if b is None:
            raise Untranslatable(f"unbound parameter {param!r}")
        if b.role != "opsdat":
            raise Untranslatable(f"subscript on non-dat parameter {param!r}")
        if index is None or len(index) != self.ndim:
            raise Untranslatable(f"{param!r} indexed with wrong arity")
        terms = []
        for d in range(self.ndim):
            off = self.index(index[d])
            pos = f"i{d}" if off == "0" else f"(i{d} + ({off}))"
            if d < self.ndim - 1:
                terms.append(f"{pos} * s{b.k}_{d}")
            else:
                terms.append(pos)
        return f"p{b.k}[{' + '.join(terms)}]"

    def _fold(self, s: SFold) -> None:
        b = self.binds.get(s.param)
        if b is None or b.role != "opsred":
            raise Untranslatable("fold on a non-reduction parameter")
        if s.method != b.kind:
            raise Untranslatable(f".{s.method}() fold on a {b.kind!r} reduction")
        if b.kind == "inc":
            self._stage_inc(s, b)
            return
        # the point's own register x<j>, from the fold identity, is stored
        # to the row-chunk buffer after the body
        op = "<" if b.kind == "min" else ">"
        x = f"x{self.red_regs[s.param]}"
        for a in s.args:
            t = self._fresh()
            self.emit(f"const double {t} = {self.value(a)};")
            # np.min folds sequentially with the NumPy select: the
            # register propagates its NaN, else the new value wins ties
            self.emit(f"{x} = {_np_select(x, t, op)};")

    def _stage_inc(self, s: SFold, b: _Bind) -> None:
        """``red.inc(expr)``: store ``expr`` per point; the plan layer sums.

        The stage is dense over the swept extents, i.e. exactly the array
        the vec tier passes to ``Reduction.inc`` — which the plan layer
        then calls on it.  There is one stage and one sweep per ``.inc()``
        call (``sel`` picks whose value is stored), in source order, so a
        summary kernel with five folds holds one range-sized buffer, not
        five; the price is that such a loop may not write a dat, or the
        repeated sweeps would repeat the writes.
        """
        if any(bb.role == "opsdat" and bb.writable for bb in self.binds.values()):
            raise Untranslatable("inc fold in a loop that writes a dat")
        if self._depth != self.ndim:
            raise Untranslatable("inc fold under control flow")
        if len(s.args) != 1:
            raise Untranslatable(".inc() takes exactly one value")
        shape = self._vec_shape(s.args[0])
        if shape == "scalar":
            # np.sum of a scalar adds it once, not once per point
            raise Untranslatable("inc of a value that reads no dat")
        if shape != "fresh":
            raise Untranslatable("inc of a dat view (np.sum walks strided storage)")
        value = self.value(s.args[0])
        flat = "i0"
        for d in range(1, self.ndim):
            flat = f"({flat}) * n{d} + i{d}"
        self.emit(f"if (sel == {len(self.stages)}) q[{flat}] = {value};")
        self.stages.append(b.k)


def generate_ops(fn, argspecs, ndim: int, loop_name: str) -> NativeCode:
    """Generate C for one OPS structured loop.

    ``argspecs`` classifies each loop argument: ``("dat", writes)`` or
    ``("red", kind)`` — structure only, never values.  A kernel with
    ``.inc()`` calls takes one ``("stage", None)`` pointer slot after the
    dats and a sweep selector in ``n[ndim]`` (see ``stage_args``).

    Every admitted OPS loop splits its outermost dimension over the team
    size ``n[ndim + 1]``: admission leaves only centre-only, unaliased
    written dats and per-point ``.inc()`` stages, so rows are independent.
    The same independence lets the innermost dimension run under ``omp
    simd``, in :data:`CHUNK`-point row chunks when min/max reductions fold
    (see "Vectorisation keeps every bit" above).
    """
    fn = getattr(fn, "func", fn)
    ir = ir_for_callable(fn)
    params = ir.params
    if len(argspecs) > len(params):
        raise Untranslatable("more loop arguments than kernel parameters")
    if len(params) - len(argspecs) > ir.n_defaults:
        raise Untranslatable("unbound kernel parameters without defaults")

    binds: dict[str, _Bind] = {}
    ptr_spec: list = []
    red_spec: list = []
    dat_args: list[int] = []
    for k, spec in enumerate(argspecs):
        name = params[k]
        if spec[0] == "dat":
            binds[name] = _Bind("opsdat", k, writable=bool(spec[1]))
            ptr_spec.append(("dat", k))
            dat_args.append(k)
        elif spec[0] == "red":
            binds[name] = _Bind("opsred", k, kind=spec[1])
            if spec[1] != "inc":
                red_spec.append(("red", k, spec[1]))
        else:
            raise Untranslatable(f"argument {k} is neither dat nor reduction")
    for name in params[len(argspecs):]:
        binds[name] = _Bind("default", -1)

    em = _OpsEmitter(fn, ir, binds, ndim)
    for j, (_, k, _kind) in enumerate(red_spec):
        em.red_regs[params[k]] = j
    em._depth = ndim
    em.body(ir.body)

    decls: list[str] = []
    for j, (_, k) in enumerate(ptr_spec):
        # admission proves no written dat's storage overlaps another
        # argument's, which is what restrict promises
        decls.append(f"    double *restrict p{k} = p[{j}];")
    if em.stages:
        decls.append(f"    double *restrict q = p[{len(ptr_spec)}];")
        decls.append(f"    const long long sel = n[{ndim}];")
        ptr_spec.append(("stage", None))
    si = 0
    for k in dat_args:
        for d in range(ndim - 1):
            decls.append(f"    const long long s{k}_{d} = m[0][{si}];")
            si += 1
    decls += [f"    const double c{j} = cv[{j}];" for j in range(len(em.const_slots))]
    for j, (_, _k, kind) in enumerate(red_spec):
        decls.append(f"    double r{j} = {_IDENTITY[kind]}, w{j}[{CHUNK}];")
    for d in range(1, ndim):
        decls.append(f"    const long long n{d} = n[{d}];")

    def ind(level: int) -> str:
        return "    " * level

    # the outer dimensions, then the innermost one under `omp simd`; with
    # min/max reductions it runs in row chunks whose point values land in
    # w<j>, folded in order right after the chunk: the serial fold's order
    last = ndim - 1
    bounds = [("lo", "hi")] + [("0", f"n{d}") for d in range(1, ndim)]
    nest = [
        ind(d + 1) + f"for (long long i{d} = {lo}; i{d} < {hi}; ++i{d}) {{"
        for d, (lo, hi) in enumerate(bounds[:last])
    ]
    level = ndim
    lo, hi = bounds[last]
    if red_spec:
        nest += [
            ind(level) + f"for (long long b = {lo}; b < {hi}; b += {CHUNK}) {{",
            ind(level + 1) + f"const long long e = b + {CHUNK} < {hi} ? b + {CHUNK} : {hi};",
        ]
        level += 1
        lo, hi = "b", "e"
    nest += [
        "#pragma omp simd",
        ind(level) + f"for (long long i{last} = {lo}; i{last} < {hi}; ++i{last}) {{",
    ]
    inner = ind(level + 1)
    nest += [inner + f"double l_{nm};" for nm in em.declared_locals()]
    nest += [
        inner + f"double x{j} = {_IDENTITY[kind]};" for j, (*_, kind) in enumerate(red_spec)
    ]
    # the emitter indents the body for ndim loops
    nest += [ind(level + 1 - ndim) + ln for ln in em.lines]
    nest += [inner + f"w{j}[i{last} - b] = x{j};" for j in range(len(red_spec))]
    nest.append(ind(level) + "}")
    if red_spec:
        nest.append(ind(level) + "for (long long k = 0; k < e - b; ++k) {")
        for j, (*_, kind) in enumerate(red_spec):
            op = "<" if kind == "min" else ">"
            nest.append(ind(level + 1) + f"r{j} = {_np_select(f'r{j}', f'w{j}[k]', op)};")
        nest.append(ind(level) + "}")
    nest += [ind(d) + "}" for d in range(level - 1, 0, -1)]
    epilogue = [f"    r[{j}] = r{j};" for j in range(len(red_spec))]

    source = "\n".join(
        [
            "#include <math.h>",
            "",
            f"/* ops loop '{loop_name}': kernel '{ir.name}', {ndim}-D nest, "
            "rows [lo, hi) of the outer dimension */",
            "static void sweep(double **p, const long long **m, const long long *n,",
            "                  const double *cv, long long lo, long long hi, double *r)",
            "{",
            "    (void)p; (void)m; (void)n; (void)cv; (void)r;",
            *decls,
            *nest,
            *epilogue,
            "}",
            "",
            *_kernel_run("p, m, n, cv", ndim + 1, [kind for _, _k, kind in red_spec], True),
        ]
    )
    return NativeCode(
        source=source,
        entry=ENTRY,
        ptr_spec=tuple(ptr_spec),
        map_spec=(("strides",),) if dat_args else (),
        red_spec=tuple(red_spec),
        const_names=tuple(em.const_slots),
        stage_args=tuple(em.stages),
    )


# -- op2 generator -------------------------------------------------------------

class _Op2Emitter(_Emitter):
    def __init__(self, fn, ir, binds):
        super().__init__(fn, ir, binds, "op2")

    def load(self, param: str, index, store: bool) -> str:
        b = self.binds.get(param)
        if b is None:
            raise Untranslatable(f"unbound parameter {param!r}")
        if index is None or len(index) != 1:
            raise Untranslatable(f"{param!r} indexed with wrong arity")
        c = self.index(index[0])
        if b.role == "direct":
            return f"p{b.k}[e * {b.dim} + {c}]"
        if b.role == "iread":
            if store:
                raise Untranslatable(f"write to READ parameter {param!r}")
            return f"p{b.k}[row{b.k} * {b.dim} + {c}]"
        if b.role == "ibuf":
            return f"S{b.k}[e * {b.dim} + {c}]"
        if b.role == "iacc":
            return f"s{b.k}[{c}]"
        if b.role == "gread":
            if store:
                raise Untranslatable(f"write to READ global {param!r}")
            return f"g{b.k}[{c}]"
        if b.role == "gmm":
            return f"a{b.k}[{c}]"
        raise Untranslatable(f"subscript on scalar parameter {param!r}")

    def _fold(self, s: SFold) -> None:
        # `t[0] = min(t[0], x)` on a MIN/MAX global: kernelvec runs it as
        # row = np.minimum(row, x) — x (second operand) wins ties
        b = self.binds.get(s.param)
        if b is None or b.role != "gmm":
            raise Untranslatable("fold on a non-global parameter")
        if s.method != b.kind:
            raise Untranslatable(f"{s.method} fold on a {b.kind} global")
        if s.index is None or len(s.index) != 1:
            raise Untranslatable("fold with wrong index arity")
        cell = f"a{b.k}[{self.index(s.index[0])}]"
        op = "<" if b.kind == "min" else ">"
        for a in s.args:
            t = self._fresh()
            self.emit(f"const double {t} = {self.value(a)};")
            self.emit(f"{cell} = {_np_select(cell, t, op)};")


def generate_op2(fn, argspecs, loop_name: str) -> NativeCode:
    """Generate two-phase C for one OP2 unstructured loop.

    ``argspecs`` classifies each argument: ``("direct", dim, access)``,
    ``("ind", dim, access, slot, arity, idx, staged)``, ``("gread", dim)``,
    ``("gmm", dim, kind)`` or ``("ginc", dim)``.

    An indirect argument reads its target row in place from the map's
    C-contiguous ``(n, arity)`` values: ``m[slot]`` is that map's base
    pointer (one slot per distinct map, numbered in first-use order) and
    the row of element ``e`` is ``M[e * arity + idx]``.  Phase A is the
    sweep over elements; phase B replays the staged writes:

    * an indirect INC with ``staged`` false (the plan layer's call: the
      first INC on its dat, which no other argument reads) accumulates
      into a per-element local ``s[dim] = {0}`` added to its target row
      at the end of the element — ``((old + c1) + c2)...`` in element
      order, the vec segment scatter's association;
    * a staged indirect argument (a later INC on the same dat, or any
      WRITE/RW) computes into an ``(n, dim)`` scratch row that phase B
      scatters, argument by argument, in element order;
    * a ``ginc`` argument is a scratch slot like a staged INC buffer —
      zeroed per element, the kernel's ``+=`` land in its row in source
      order — but nothing scatters it: the ``(n, dim)`` rows are the stage
      the plan layer hands to NumPy's own ``sum``.

    Threads (team size ``n[1]``; ``n[2:]`` hold the row counts of
    ``row_args``).  Without a swept argument, phase A splits its elements
    into contiguous blocks.  With one, it splits by *ownership*: thread
    ``t`` owns rows ``[R·t/nt, R·(t+1)/nt)`` of the swept dat, walks every
    element in order and skips, before any other load, each element whose
    swept row it does not own — so every element is computed once, and
    every row receives its in-sweep adds in element order, the serial
    association.  Phase B splits each scatter the same way over the rows
    of its own dat.  Swept INCs through one map entry share the owner
    (one row index per element).  Two loops stay on one thread
    (``serial_reason``): swept INCs through different map entries (one
    partition cannot serve two owners) and a swept INC beside a MIN/MAX
    global (the fold would follow ownership, not contiguous element
    blocks).
    """
    fn = getattr(fn, "func", fn)
    ir = ir_for_callable(fn)
    params = ir.params
    if len(argspecs) != len(params):
        raise Untranslatable("argument/parameter count mismatch")

    binds: dict[str, _Bind] = {}
    ptr_spec: list = []
    map_spec: list = []
    red_spec: list = []
    scratch_spec: list = []
    gmm_args: list[int] = []
    rows: dict[int, str] = {}  # indirect argidx -> its map entry's C index
    swept: list[int] = []  # indirect INC arguments applied inside the sweep
    for k, spec in enumerate(argspecs):
        name = params[k]
        role = spec[0]
        if role == "gread":
            binds[name] = _Bind("gread", k, dim=int(spec[1]))
            ptr_spec.append(("glob", k))
        elif role == "ginc":
            dim = int(spec[1])
            binds[name] = _Bind("ibuf", k, dim=dim, writable=True, kind="INC")
            ptr_spec.append(("scratch", k))
            scratch_spec.append((k, dim))
        elif role == "gmm":
            dim, kind = int(spec[1]), spec[2]
            binds[name] = _Bind("gmm", k, dim=dim, writable=True, kind=kind)
            gmm_args.append(k)
            for c in range(dim):
                red_spec.append(("gmm", k, c, kind))
        elif role in ("direct", "ind"):
            dim, acc = int(spec[1]), spec[2]
            if acc not in ("READ", "WRITE", "RW", "INC"):
                raise Untranslatable(f"access {acc} on a dat argument")
            writes = acc != "READ"
            ptr_spec.append(("dat", k))
            if role == "direct":
                binds[name] = _Bind("direct", k, dim=dim, writable=writes)
                continue
            slot, arity, idx, staged = int(spec[3]), int(spec[4]), int(spec[5]), spec[6]
            if slot == len(map_spec):
                map_spec.append(("map", k))
            rows[k] = f"M{slot}[e * {arity} + {idx}]"
            if not writes:
                binds[name] = _Bind("iread", k, dim=dim)
            elif staged or acc != "INC":
                binds[name] = _Bind("ibuf", k, dim=dim, writable=True, kind=acc)
                ptr_spec.append(("scratch", k))
                scratch_spec.append((k, dim))
            else:
                binds[name] = _Bind("iacc", k, dim=dim, writable=True, kind="INC")
                swept.append(k)
        else:
            raise Untranslatable(f"unknown argument role {role!r}")

    em = _Op2Emitter(fn, ir, binds)
    em._depth = 2
    em.body(ir.body)

    # the owner rule: a swept INC's rows split phase A — each thread walks
    # every element and computes those whose swept row it owns; swept INCs
    # through one map entry target one row index, so they share the owner
    serial = None
    if len({rows[k] for k in swept}) > 1:
        serial = "threads: in-sweep INCs through different map entries"
    elif swept and gmm_args:
        serial = "threads: MIN/MAX global with in-sweep INC"
    owner = swept[0] if swept and serial is None else None
    # a ginc stage is summed by the plan layer's NumPy call, not scattered
    scatters = [k for k, _ in scratch_spec if argspecs[k][0] != "ginc"]
    row_args = ([owner] if owner is not None else []) + scatters

    decls: list[str] = []
    for j, (role, k) in enumerate(ptr_spec):
        if role == "dat":
            decls.append(f"    double *p{k} = p[{j}];")
        elif role == "scratch":
            decls.append(f"    double *S{k} = p[{j}];")
        else:
            decls.append(f"    const double *g{k} = p[{j}];")
    for j in range(len(map_spec)):
        decls.append(f"    const long long *M{j} = m[{j}];")
    registers = [
        f"    double acc{k}_{c} = {_IDENTITY[binds[params[k]].kind]};"
        for k in gmm_args
        for c in range(binds[params[k]].dim)
    ]

    # phase A prologue per element: target rows (the owned row first: an
    # element another thread owns is skipped before any other load),
    # accumulators, scratch init, global cells
    pro: list[str] = []
    if owner is not None:
        pro.append(f"        const long long row{owner} = {rows[owner]};")
        pro.append(f"        if (row{owner} < lo || row{owner} >= hi) continue;")
    pro += [f"        const long long row{k} = {r};" for k, r in rows.items() if k != owner]
    for k in swept:
        pro.append(f"        double s{k}[{binds[params[k]].dim}] = {{0}};")
    for k, dim in scratch_spec:
        b = binds[params[k]]
        if b.kind == "INC":
            for c in range(dim):
                pro.append(f"        S{k}[e * {dim} + {c}] = 0.0;")
        else:
            # WRITE and RW both gather the current values (the vec path's
            # _G_TAKE), so an unwritten component scatters back unchanged
            for c in range(dim):
                pro.append(
                    f"        S{k}[e * {dim} + {c}] = p{k}[row{k} * {dim} + {c}];"
                )
    for k in gmm_args:
        b = binds[params[k]]
        pro.append(f"        double a{k}[{b.dim}];")
        for c in range(b.dim):
            pro.append(f"        a{k}[{c}] = red[{_red_slot(red_spec, k, c)}];")

    # per-element epilogue: add each swept accumulator to its row (every
    # component, as the vec scatter adds its whole zero-initialised row),
    # then fold each global row into the block's register the way
    # buf.min(axis=0) does — sequential over elements, the later operand
    # wins ties; kernel_run folds the blocks' registers onto g_old in block
    # order, which matches the final np.minimum(g, buf.min(axis=0)) exactly
    epi: list[str] = []
    for k in swept:
        dim = binds[params[k]].dim
        for c in range(dim):
            epi.append(f"        p{k}[row{k} * {dim} + {c}] += s{k}[{c}];")
    for k in gmm_args:
        b = binds[params[k]]
        op = "<" if b.kind == "min" else ">"
        for c in range(b.dim):
            acc = f"acc{k}_{c}"
            epi.append(f"        {acc} = {_np_select(acc, f'a{k}[{c}]', op)};")
    epilogue = [
        f"    r[{_red_slot(red_spec, k, c)}] = acc{k}_{c};"
        for k in gmm_args
        for c in range(binds[params[k]].dim)
    ]

    local_decls = [f"        double l_{nm};" for nm in em.declared_locals()]

    # phase B: staged scatters replayed in argument order (np.add.at
    # element order for INC; fancy-assign last-writer-wins element order
    # otherwise), each over the slice of its dat's rows thread t owns —
    # every row still sees all its writes in the serial order
    phase_b: list[str] = []
    for k in scatters:
        slot = 2 + row_args.index(k)
        dim = binds[params[k]].dim
        assign = "+=" if binds[params[k]].kind == "INC" else "="
        phase_b += [
            f"    const long long lo{k} = n[{slot}] * t / nt, hi{k} = n[{slot}] * (t + 1) / nt;",
            "    for (long long e = 0; e < n0; ++e) {",
            f"        const long long w{k} = {rows[k]};",
            f"        if (w{k} < lo{k} || w{k} >= hi{k}) continue;",
            *(
                f"        p{k}[w{k} * {dim} + {c}] {assign} S{k}[e * {dim} + {c}];"
                for c in range(dim)
            ),
            "    }",
        ]
    if phase_b:
        phase_b = [
            "/* phase B: thread t of nt applies the rows it owns */",
            "static void scatter(double **p, const long long **m, const long long *n,",
            "                    long long t, long long nt)",
            "{",
            *decls,
            "    const long long n0 = n[0];",
            *phase_b,
            "}",
            "",
        ]

    if owner is not None:
        head = "phase A over all elements, computing those whose swept row is in [lo, hi)"
        loop = "    for (long long e = 0, ne = n[0]; e < ne; ++e) {"
    else:
        head = "phase A over elements [lo, hi)"
        loop = "    for (long long e = lo; e < hi; ++e) {"
    source = "\n".join(
        [
            "#include <math.h>",
            "",
            f"/* op2 loop '{loop_name}': kernel '{ir.name}', two-phase; {head} */",
            "static void sweep(double **p, const long long **m, const long long *n,",
            "                  const double *red, const double *cv, long long lo, long long hi,",
            "                  double *r)",
            "{",
            "    (void)p; (void)m; (void)n; (void)red; (void)cv; (void)r;",
            *decls,
            *registers,
            loop,
            *pro,
            *local_decls,
            *em.lines,
            *epi,
            "    }",
            *epilogue,
            "}",
            "",
            *phase_b,
            *_kernel_run(
                "p, m, n, red, cv", 1, [kind for *_, kind in red_spec], serial is None,
                extent="n0" if owner is None else "n[2]", scatter=bool(phase_b),
            ),
        ]
    )
    return NativeCode(
        source=source,
        entry=ENTRY,
        ptr_spec=tuple(ptr_spec),
        map_spec=tuple(map_spec),
        red_spec=tuple(red_spec),
        const_names=tuple(em.const_slots),
        scratch_spec=tuple(scratch_spec),
        serial_reason=serial,
        row_args=tuple(row_args),
    )


def _team(threaded: bool, split: str, whole: str) -> list:
    """``split`` once per thread ``t`` under an OpenMP team of ``nt``, or
    ``whole`` outside any region when ``nt`` is 1 (even an ``if(0)``
    region costs a team set-up per call)."""
    if not threaded:
        return [f"    {whole}"]
    return [
        "    if (nt > 1) {",
        "#pragma omp parallel for num_threads(nt) schedule(static)",
        "        for (long long t = 0; t < nt; ++t)",
        f"            {split}",
        "    } else {",
        f"        {whole}",
        "    }",
    ]


def _kernel_run(
    args: str, nt_slot: int, kinds: list, threaded: bool, *,
    extent: str = "n0", scatter: bool = False,
) -> list:
    """The entry point: split ``sweep`` over ``n[nt_slot]`` threads, fold
    the blocks' min/max registers into ``red`` in block order, then run
    the op2 phase-B ``scatter`` over the same team.

    Thread ``t`` sweeps the contiguous static block ``[E·t/nt,
    E·(t+1)/nt)`` of ``extent`` E: the outer extent ``n[0]`` (OPS rows,
    OP2 elements) or, under the op2 owner rule, the swept dat's rows.
    Each block's registers start from the fold identity.  The select is
    associative (NaN-first, else the later operand on ties, both
    bit-for-bit), so folding the block registers onto ``red`` in block
    order yields the single-thread fold's bits at any team size.  The end
    of the sweep's region is the barrier before the scatter's.
    """
    nred = len(kinds)
    part = "part" if nred else "(double *)0"
    nt = f"n[{nt_slot}]" if threaded else "1"
    lines = [
        "void kernel_run(double **p, const long long **m, const long long *n,",
        "                double *red, const double *cv)",
        "{",
        "    (void)red;",
        f"    const long long n0 = n[0], nt = {nt};",
    ]
    if nred:
        lines.append(f"    double part[{nred} * nt];")
    block = f"part + t * {nred}" if nred else part
    lines += _team(
        threaded,
        f"sweep({args}, {extent} * t / nt, {extent} * (t + 1) / nt, {block});",
        f"sweep({args}, 0, {extent}, {part});",
    )
    if nred:
        lines.append("    for (long long t = 0; t < nt; ++t) {")
        for j, kind in enumerate(kinds):
            op = "<" if kind == "min" else ">"
            lines.append(
                f"        red[{j}] = {_np_select(f'red[{j}]', f'part[t * {nred} + {j}]', op)};"
            )
        lines.append("    }")
    if scatter:
        lines += _team(threaded, "scatter(p, m, n, t, nt);", "scatter(p, m, n, 0, 1);")
    return [*lines, "}", ""]


def _red_slot(red_spec: list, k: int, c: int) -> int:
    for j, entry in enumerate(red_spec):
        if entry[0] == "gmm" and entry[1] == k and entry[2] == c:
            return j
    raise Untranslatable("missing reduction slot")
