"""Translator frontend: find parallel-loop call sites in application source.

Mirrors the paper's Fig 1 flow: the application, written against the
high-level API, "is then parsed by a python source-to-source translator".
We walk the application module's AST and lift every ``par_loop(...)`` /
``op2.par_loop(...)`` / ``ops.par_loop(...)`` call — and every prebound
site, ``op2.loop(...)`` / ``ops.loop(...)``, which takes the same
arguments — into a :class:`LoopSite` record: the kernel name, the
iteration space expression and one :class:`ArgSite` per argument with
its dat/map/index/access text.

Beyond the basic form, the lifter understands the idioms the bundled apps
actually use:

* module aliases (``import repro.op2 as o2``; ``from repro import ops as o``),
* keyword arguments (``kernel=``, ``iterset=``, ``name=``, ``backend=``),
* the distributed call shape ``rm.par_loop(comm, kernel, ...)`` (the
  leading communicator is skipped),
* OPS calls ``ops.par_loop(kernel, block, ranges, *descriptors)`` — the
  range expression is lifted into :attr:`LoopSite.ranges`,
* *loop wrappers*: a method whose body forwards its ``*args`` to a
  ``par_loop`` (CloverLeaf's ``self._loop``) is detected and its call
  sites are lifted as loops themselves,
* non-descriptor positional arguments (OPS reduction handles) are kept as
  raw text in :attr:`LoopSite.raw_args` for the static analyser.

Call sites that *look* like parallel loops but cannot be lifted (starred
argument lists, ``**kwargs``, missing operands) are no longer silently
dropped from the chain: :func:`parse_app_full` records them as
:class:`UnliftableSite` entries (diagnostic code OPL900), and the strict
translation path turns them into :class:`TranslatorError`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.errors import TranslatorError

_ACCESS_NAMES = {"READ", "WRITE", "RW", "INC", "MIN", "MAX"}

#: names accepted as a bare par_loop call
_BARE_LOOP_NAMES = {"par_loop": "op2", "op_par_loop": "op2", "ops_par_loop": "ops"}


@dataclass
class ArgSite:
    """One argument of a lifted loop call, as source text fragments."""

    dat: str
    access: str
    map: str | None = None
    idx: str | None = None
    is_global: bool = False
    stencil: str | None = None  # OPS: declared stencil expression text
    lineno: int = 0

    @property
    def is_indirect(self) -> bool:
        return self.map is not None


@dataclass
class RawArg:
    """One descriptor-position argument, parsed when possible.

    ``arg`` is ``None`` for expressions that are not ``dat(ACCESS, ...)``
    descriptors — bare reduction handles, misplaced operands — which the
    static analyser resolves (or reports) with module context the frontend
    does not have.
    """

    text: str
    lineno: int
    arg: ArgSite | None = None


@dataclass
class LoopSite:
    """One ``par_loop`` call site lifted from the application."""

    kernel: str
    iterset: str
    args: list[ArgSite] = field(default_factory=list)
    lineno: int = 0
    api: str = "op2"  # "op2" or "ops"
    ranges: str | None = None  # OPS: iteration-range expression text
    name_hint: str | None = None  # the name= keyword, when a string literal
    enclosing: str = "<module>"  # dotted path of the containing function
    in_loop: bool = False  # lexically inside a for/while
    raw_args: list[RawArg] = field(default_factory=list)

    @property
    def has_indirection(self) -> bool:
        return any(a.is_indirect for a in self.args)

    @property
    def display_name(self) -> str:
        return self.name_hint or self.kernel


@dataclass
class UnliftableSite:
    """A par_loop-shaped call the frontend could not lift (OPL900)."""

    lineno: int
    reason: str
    enclosing: str = "<module>"
    code: str = "OPL900"


@dataclass
class ParseResult:
    """Everything one frontend pass found in an application module."""

    sites: list[LoopSite] = field(default_factory=list)
    unliftable: list[UnliftableSite] = field(default_factory=list)
    filename: str = "<app>"


def _access_of(node: ast.expr) -> str | None:
    """Extract an access-mode name from e.g. ``op2.READ`` or ``READ``."""
    if isinstance(node, ast.Attribute) and node.attr in _ACCESS_NAMES:
        return node.attr
    if isinstance(node, ast.Name) and node.id in _ACCESS_NAMES:
        return node.id
    return None


def _parse_arg(node: ast.expr, api: str = "op2") -> ArgSite | None:
    """Parse one loop argument expression: ``dat(ACCESS[, map, idx])``."""
    if not isinstance(node, ast.Call):
        return None
    dat_txt = ast.unparse(node.func)
    if not node.args:
        return None
    access = _access_of(node.args[0])
    if access is None:
        return None
    map_txt = idx_txt = stencil_txt = None
    if len(node.args) >= 2:
        map_txt = ast.unparse(node.args[1])
        if api == "ops":
            stencil_txt = map_txt
    if len(node.args) >= 3:
        idx_txt = ast.unparse(node.args[2])
    return ArgSite(
        dat=dat_txt, access=access, map=map_txt, idx=idx_txt,
        stencil=stencil_txt, lineno=getattr(node, "lineno", 0),
    )


def module_aliases(tree: ast.AST) -> dict[str, str]:
    """Local names that refer to the op2/ops API modules.

    Maps e.g. ``{"o2": "op2"}`` for ``import repro.op2 as o2`` and
    ``{"o": "ops"}`` for ``from repro import ops as o``; the canonical
    spellings are always present.
    """
    aliases = {"op2": "op2", "ops": "ops", "repro.op2": "op2", "repro.ops": "ops"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name in ("repro.op2", "repro.ops"):
                    short = a.name.rsplit(".", 1)[-1]
                    aliases[a.asname or a.name] = short
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "") == "repro":
                for a in node.names:
                    if a.name in ("op2", "ops"):
                        aliases[a.asname or a.name] = a.name
    return aliases


def _classify_par_loop(
    call: ast.Call, aliases: dict[str, str]
) -> tuple[str | None, bool]:
    """(api, known) if the call is a parallel loop, else (None, False).

    ``known`` is True when the api came from a recognised module alias
    rather than the generic ``<anything>.par_loop`` fallback.
    """
    f = call.func
    if isinstance(f, ast.Attribute) and f.attr in ("par_loop", "loop"):
        base = ast.unparse(f.value)
        if base in aliases:
            return aliases[base], True
        if f.attr == "par_loop":
            return "op2", False
    if isinstance(f, ast.Name) and f.id in _BARE_LOOP_NAMES:
        return _BARE_LOOP_NAMES[f.id], True
    return None, False


def _is_comm_like(node: ast.expr) -> bool:
    """True for the leading communicator of distributed par_loop forms."""
    txt = ast.unparse(node)
    return txt == "comm" or txt.endswith(".comm")


@dataclass
class _Wrapper:
    """A detected loop-forwarding method (e.g. CloverLeaf's ``_loop``).

    ``roles`` maps a role name ("kernel", "iterset", "ranges") to the
    call-site positional index of the wrapper parameter carrying it;
    ``fixed`` maps a role to a constant source text the wrapper supplies
    itself (e.g. the block ``self.st.block``).  Descriptors start at
    ``desc_start``.
    """

    name: str
    api: str
    api_known: bool
    roles: dict[str, int] = field(default_factory=dict)
    fixed: dict[str, str] = field(default_factory=dict)
    desc_start: int = 0


def _role_names(api: str) -> list[str]:
    return ["kernel", "iterset"] if api == "op2" else ["kernel", "iterset", "ranges"]


def _detect_wrappers(
    tree: ast.AST, aliases: dict[str, str]
) -> tuple[dict[str, _Wrapper], set[int]]:
    """Find functions that forward ``*args`` into a par_loop call.

    Returns the wrappers by name plus the AST ids of their internal
    forwarding calls (excluded from direct lifting).
    """
    wrappers: dict[str, _Wrapper] = {}
    internal: set[int] = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or fn.args.vararg is None:
            continue
        vararg = fn.args.vararg.arg
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            api, known = _classify_par_loop(call, aliases)
            if api is None:
                continue
            if not any(
                isinstance(a, ast.Starred)
                and isinstance(a.value, ast.Name)
                and a.value.id == vararg
                for a in call.args
            ):
                continue
            internal.add(id(call))
            pos = [a for a in call.args if not isinstance(a, ast.Starred)]
            if pos and _is_comm_like(pos[0]):
                pos = pos[1:]
            params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
            if params and params[0] == "self":
                params = params[1:]
            w = _Wrapper(name=fn.name, api=api, api_known=known,
                         desc_start=len(params))
            for role, node in zip(_role_names(api), pos):
                if isinstance(node, ast.Name) and node.id in params:
                    w.roles[role] = params.index(node.id)
                else:
                    w.fixed[role] = ast.unparse(node)
            prev = wrappers.get(fn.name)
            # an api-known definition wins over a generic override
            if prev is None or (known and not prev.api_known):
                wrappers[fn.name] = w
    return wrappers, internal


def _is_wrapper_call(call: ast.Call, wrappers: dict[str, _Wrapper]) -> _Wrapper | None:
    f = call.func
    if isinstance(f, ast.Attribute) and f.attr in wrappers:
        return wrappers[f.attr]
    if isinstance(f, ast.Name) and f.id in wrappers:
        return wrappers[f.id]
    return None


def _lift_call(
    call: ast.Call,
    api: str,
    enclosing: str,
    in_loop: bool,
    result: ParseResult,
) -> None:
    """Lift one direct par_loop call into a LoopSite (or an OPL900 record)."""
    kw = {k.arg: k.value for k in call.keywords if k.arg is not None}
    if any(k.arg is None for k in call.keywords):
        result.unliftable.append(UnliftableSite(
            call.lineno, "par_loop called with **kwargs; argument list is "
            "not statically known", enclosing))
        return
    pos = list(call.args)
    if pos and not isinstance(pos[0], ast.Starred) and _is_comm_like(pos[0]):
        pos = pos[1:]

    roles = _role_names(api)
    operands: dict[str, ast.expr] = {}
    for i, role in enumerate(roles):
        if i < len(pos):
            operands[role] = pos[i]
        elif role in kw:
            operands[role] = kw[role]
        elif role == "iterset" and api == "ops" and "block" in kw:
            operands[role] = kw["block"]
    missing = [r for r in roles if r not in operands]
    if missing:
        raise TranslatorError(
            f"{result.filename}:{call.lineno}: par_loop needs a kernel and "
            f"an iteration set (missing: {', '.join(missing)})"
        )
    starred = [r for r, n in operands.items() if isinstance(n, ast.Starred)]
    if starred:
        result.unliftable.append(UnliftableSite(
            call.lineno,
            f"par_loop {', '.join(starred)} operand is a starred expression",
            enclosing))
        return

    descriptors = pos[len(roles):]
    if any(isinstance(a, ast.Starred) for a in descriptors):
        result.unliftable.append(UnliftableSite(
            call.lineno, "par_loop argument list is forwarded with *args; "
            "descriptors are not statically known", enclosing))
        return

    name_hint = None
    if "name" in kw and isinstance(kw["name"], ast.Constant) \
            and isinstance(kw["name"].value, str):
        name_hint = kw["name"].value

    site = LoopSite(
        kernel=ast.unparse(operands["kernel"]),
        iterset=ast.unparse(operands["iterset"]),
        lineno=call.lineno,
        api=api,
        ranges=ast.unparse(operands["ranges"]) if "ranges" in operands else None,
        name_hint=name_hint,
        enclosing=enclosing,
        in_loop=in_loop,
    )
    for node in descriptors:
        arg = _parse_arg(node, api)
        site.raw_args.append(RawArg(ast.unparse(node), getattr(node, "lineno", call.lineno), arg))
        if arg is not None:
            site.args.append(arg)
    result.sites.append(site)


def _lift_wrapper_call(
    call: ast.Call,
    w: _Wrapper,
    enclosing: str,
    in_loop: bool,
    result: ParseResult,
) -> None:
    """Lift a call through a detected loop wrapper."""
    kw = {k.arg: k.value for k in call.keywords if k.arg is not None}
    pos = list(call.args)
    if any(isinstance(a, ast.Starred) for a in pos):
        result.unliftable.append(UnliftableSite(
            call.lineno,
            f"loop wrapper {w.name!r} called with a starred argument list; "
            "kernel and descriptors are not statically known", enclosing))
        return

    operands: dict[str, str] = dict(w.fixed)
    for role, idx in w.roles.items():
        if idx < len(pos):
            operands[role] = ast.unparse(pos[idx])
    roles = _role_names(w.api)
    if any(r not in operands for r in ("kernel", "iterset")):
        result.unliftable.append(UnliftableSite(
            call.lineno, f"loop wrapper {w.name!r} call is missing operands",
            enclosing))
        return

    name_hint = None
    if "name" in kw and isinstance(kw["name"], ast.Constant) \
            and isinstance(kw["name"].value, str):
        name_hint = kw["name"].value

    site = LoopSite(
        kernel=operands["kernel"],
        iterset=operands["iterset"],
        lineno=call.lineno,
        api=w.api,
        ranges=operands.get("ranges") if "ranges" in roles else None,
        name_hint=name_hint,
        enclosing=enclosing,
        in_loop=in_loop,
    )
    for node in pos[w.desc_start:]:
        arg = _parse_arg(node, w.api)
        site.raw_args.append(RawArg(ast.unparse(node), getattr(node, "lineno", call.lineno), arg))
        if arg is not None:
            site.args.append(arg)
    result.sites.append(site)


class _SiteCollector(ast.NodeVisitor):
    """Walks a module recording loop sites with their enclosing function."""

    def __init__(self, aliases, wrappers, internal, result):
        self.aliases = aliases
        self.wrappers = wrappers
        self.internal = internal
        self.result = result
        self.stack: list[str] = []
        self.loop_depth = 0

    @property
    def enclosing(self) -> str:
        return ".".join(self.stack) if self.stack else "<module>"

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.stack.append(node.name)
        outer = self.loop_depth
        self.loop_depth = 0
        self.generic_visit(node)
        self.loop_depth = outer
        self.stack.pop()

    def _visit_function(self, node) -> None:
        self.stack.append(node.name)
        outer = self.loop_depth
        self.loop_depth = 0
        self.generic_visit(node)
        self.loop_depth = outer
        self.stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_For(self, node: ast.For) -> None:
        self.loop_depth += 1
        self.generic_visit(node)
        self.loop_depth -= 1

    def visit_While(self, node: ast.While) -> None:
        self.loop_depth += 1
        self.generic_visit(node)
        self.loop_depth -= 1

    def visit_Call(self, node: ast.Call) -> None:
        if id(node) not in self.internal:
            api, _known = _classify_par_loop(node, self.aliases)
            if api is not None:
                _lift_call(node, api, self.enclosing, self.loop_depth > 0, self.result)
            else:
                w = _is_wrapper_call(node, self.wrappers)
                if w is not None:
                    _lift_wrapper_call(node, w, self.enclosing,
                                       self.loop_depth > 0, self.result)
        self.generic_visit(node)


def parse_app_full(source: str, filename: str = "<app>") -> ParseResult:
    """Lift every parallel-loop call site, keeping unliftable-site records."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        raise TranslatorError(f"cannot parse application {filename}: {exc}") from exc
    result = ParseResult(filename=filename)
    aliases = module_aliases(tree)
    wrappers, internal = _detect_wrappers(tree, aliases)
    _SiteCollector(aliases, wrappers, internal, result).visit(tree)
    result.sites.sort(key=lambda s: s.lineno)
    result.unliftable.sort(key=lambda s: s.lineno)
    return result


def parse_app_source(source: str, filename: str = "<app>") -> list[LoopSite]:
    """Lift every parallel-loop call site from application source text."""
    return parse_app_full(source, filename=filename).sites


def parse_app_file(path: str | Path) -> list[LoopSite]:
    """Lift loop sites from an application file on disk."""
    p = Path(path)
    return parse_app_source(p.read_text(), filename=str(p))


def parse_app_file_full(path: str | Path) -> ParseResult:
    """Like :func:`parse_app_file`, with unliftable-site records."""
    p = Path(path)
    return parse_app_full(p.read_text(), filename=str(p))
