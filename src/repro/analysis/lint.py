"""Static AST lint pass for PPM programs.

Builds a light semantic model of one Python module — which names are
PPM shared variables (and of which kind), which functions are PPM
functions, how ``ppm.do`` call sites map shared arguments onto PPM
function parameters, and how each PPM function's body segments into a
VP-private prologue followed by phase bodies — then runs every
registered rule (:mod:`repro.analysis.rules`) over that model.

The analysis is deliberately heuristic: it resolves names within one
module only (the idiom of every example and app in this repository,
where driver and kernel live together), and segments phases by source
line — the phase governing a statement is the closest preceding
``yield`` of a phase declaration.  Rules only fire on accesses they can
positively attribute to a shared variable, so unresolved names never
produce noise.

Entry points: :func:`lint_source`, :func:`lint_file`, :func:`lint_paths`.
"""

from __future__ import annotations

import ast
import os
from collections import deque
from dataclasses import dataclass, field

from repro.analysis.diagnostics import Diagnostic

#: Method names that declare shared variables, mapped to the kind.
_DECL_METHODS = {"global_shared": "global", "node_shared": "node"}

#: Decorator names that mark a PPM function.
_PPM_DECORATORS = {"ppm_function"}


def walk(node, parents: dict | None = None):
    """Every node under ``node`` (itself first) in the standard
    library walk's breadth-first order, without the per-field generator
    layers of ``ast.iter_child_nodes``.  With ``parents``, each child's
    parent is recorded there before the child is yielded.  The
    analyzer's one tree walker."""
    todo = deque((node,))
    pop, push = todo.popleft, todo.append
    while todo:
        node = pop()
        for name in node._fields:
            child = getattr(node, name, None)
            if isinstance(child, list):
                for c in child:
                    if isinstance(c, ast.AST):
                        push(c)
                        if parents is not None:
                            parents[c] = node
            elif isinstance(child, ast.AST):
                push(child)
                if parents is not None:
                    parents[child] = node
        yield node


# ======================================================================
# Model types
# ======================================================================
@dataclass
class SharedVar:
    """A name bound to a shared variable (or a container of them)."""

    name: str
    kind: str  # "global" | "node" | "unknown"
    container: bool = False  # list/tuple of shared handles (e.g. mg's U)
    lineno: int = 0
    extent: int | None = None  # axis-0 length when declared as a literal
    size_expr: str | None = None  # normalized axis-0 size expression
    dtype: str = "float"  # "float" | "int" from the declaration's dtype=


@dataclass
class Access:
    """One shared-variable access inside a PPM function."""

    name: str  # parameter name of the shared variable
    kind: str  # "read" | "write" | "accumulate"
    lineno: int
    stmt_id: int  # source-order index of the enclosing statement
    node: ast.AST
    stmt: ast.stmt  # the enclosing statement
    base_dump: str  # ast.dump of the shared base expression
    index_dump: str | None = None  # ast.dump of the subscript index
    branch: tuple = ()  # enclosing (if-id, arm) pairs, outermost first


@dataclass
class PhaseYield:
    """One ``yield <PhaseDecl>`` in a PPM function."""

    lineno: int
    kind: str | None  # "global" | "node" | None when not statically known


@dataclass
class DoCall:
    """One ``*.do(K, func, ...)`` launch site.

    The callee is resolved through local aliasing (``k = _kernel``)
    and ``functools.partial`` wrapping; ``partial_args`` /
    ``partial_kwargs`` carry the argument expressions a partial bound
    ahead of the context.  ``func_name`` stays ``None`` when the
    callee cannot be resolved statically (``unresolved_reason`` says
    why — rule PPM405 reports it)."""

    node: ast.Call
    k_expr: ast.expr
    func_name: str | None
    lineno: int
    partial_args: list = field(default_factory=list)
    partial_kwargs: dict = field(default_factory=dict)
    unresolved_reason: str | None = None


@dataclass
class FunctionModel:
    """A PPM function with its shared-parameter bindings resolved."""

    node: ast.FunctionDef
    name: str
    ctx_name: str | None
    shared_params: dict[str, SharedVar] = field(default_factory=dict)
    yields: list[PhaseYield] = field(default_factory=list)
    accesses: list[Access] = field(default_factory=list)
    # The kernel index (``build_index``), so no query re-walks a subtree.
    # ``ylines``: per node, the yield lines under it (itself included) in
    # walk order, the order a walk of that node alone finds them.
    # ``touches``: the nodes with a shared parameter's ``Name`` under them.
    ylines: dict | None = field(default=None, repr=False)
    touches: set = field(default_factory=set, repr=False)

    def build_index(self, nodes=None, parents: dict | None = None) -> None:
        """Fill ``ylines``, ``touches`` and ``yields`` from a walk's
        ``Yield``/``Name`` nodes (walk order, any may lie outside the
        kernel) and parent links, else from one walk of ``node``."""
        if parents is None:
            parents = {}
            nodes = walk(self.node, parents)
        self.ylines, self.touches, self.yields = {}, set(), []
        for node in nodes:
            if isinstance(node, ast.Yield):
                chain = [node]
                while chain[-1] is not self.node and chain[-1] in parents:
                    chain.append(parents[chain[-1]])
                if chain[-1] is self.node:
                    self.yields.append(PhaseYield(node.lineno, _yield_kind(node.value)))
                    for up in chain:
                        self.ylines.setdefault(up, []).append(node.lineno)
            elif isinstance(node, ast.Name) and node.id in self.shared_params:
                # Marks ancestors outside the kernel too: true, never asked.
                while node is not None and node not in self.touches:
                    self.touches.add(node)
                    node = parents.get(node)
        self.yields.sort(key=lambda y: y.lineno)

    def phase_of(self, lineno: int) -> PhaseYield | None:
        """The phase governing source line ``lineno`` (None =
        VP-private prologue)."""
        governing = None
        for py in self.yields:
            if py.lineno <= lineno:
                governing = py
            else:
                break
        return governing


@dataclass
class ModuleModel:
    """Everything the rules need to know about one module."""

    path: str
    tree: ast.Module
    shared_vars: dict[str, SharedVar] = field(default_factory=dict)
    do_calls: list[DoCall] = field(default_factory=list)
    functions: list[FunctionModel] = field(default_factory=list)
    module_func_names: set = field(default_factory=set)
    """Every function defined anywhere in the module (PPM or not);
    rule PPM405 treats do-callees outside this set as unanalyzed."""


# ======================================================================
# Model construction
# ======================================================================
def _decl_kind(value: ast.expr) -> tuple[str, bool] | None:
    """(kind, container) when ``value`` constructs shared variable(s)."""
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
        kind = _DECL_METHODS.get(value.func.attr)
        if kind is not None:
            return kind, False
    if isinstance(value, ast.ListComp):
        inner = _decl_kind(value.elt)
        if inner is not None:
            return inner[0], True
    if isinstance(value, (ast.List, ast.Tuple)) and value.elts:
        kinds = {k for k in (_decl_kind(e) for e in value.elts) if k is not None}
        if len(kinds) == 1 and all(not c for _, c in kinds):
            return next(iter(kinds))[0], True
    return None


def _decl_shape(value: ast.expr) -> tuple[int | None, str | None, str]:
    """(extent, size_expr, dtype) of a shared declaration call.

    ``extent`` is the axis-0 length when it is a literal int;
    ``size_expr`` is the whitespace-normalized source of the axis-0
    size expression (the grouping key for same-size sibling arrays);
    ``dtype`` collapses to ``"int"``/``"float"``."""
    extent: int | None = None
    size_expr: str | None = None
    dtype = "float"
    if not isinstance(value, ast.Call) or len(value.args) < 2:
        return extent, size_expr, dtype
    size = value.args[1]
    if isinstance(size, ast.Tuple) and size.elts:  # (n, width) shapes
        size = size.elts[0]
    if isinstance(size, ast.Constant) and isinstance(size.value, int):
        extent = size.value
    try:
        size_expr = " ".join(ast.unparse(size).split())
    except Exception:  # pragma: no cover
        size_expr = None
    for kw in value.keywords:
        if kw.arg == "dtype":
            try:
                if "int" in ast.unparse(kw.value):
                    dtype = "int"
            except Exception:  # pragma: no cover
                pass
    return extent, size_expr, dtype


def _is_ppm_function(fn: ast.FunctionDef) -> bool:
    for dec in fn.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id in _PPM_DECORATORS:
            return True
        if isinstance(target, ast.Attribute) and target.attr in _PPM_DECORATORS:
            return True
    return False


def _is_partial_call(expr: ast.expr) -> bool:
    if not isinstance(expr, ast.Call):
        return False
    func = expr.func
    return (isinstance(func, ast.Name) and func.id == "partial") or (
        isinstance(func, ast.Attribute) and func.attr == "partial"
    )


def _resolve_callee(
    expr: ast.expr, aliases: dict[str, ast.expr], depth: int = 0
) -> tuple[str | None, list, dict, str | None]:
    """Resolve a ``do`` callee expression to its underlying function.

    Follows simple local aliasing (``k = _kernel``) and peels
    ``functools.partial`` wrappers, accumulating the partially-applied
    argument expressions.  Returns ``(func_name, partial_args,
    partial_kwargs, unresolved_reason)`` — ``func_name`` is ``None``
    exactly when ``unresolved_reason`` is set.
    """
    if depth > 8:
        return None, [], {}, "alias chain deeper than 8 links"
    if isinstance(expr, ast.Name):
        if expr.id in aliases:
            target = aliases[expr.id]
            if target is None:  # poisoned: rebound in this module
                return None, [], {}, (
                    f"name {expr.id!r} is rebound in this module"
                )
            return _resolve_callee(target, aliases, depth + 1)
        return expr.id, [], {}, None
    if _is_partial_call(expr):
        if not expr.args:
            return None, [], {}, "functools.partial(...) with no target"
        name, pargs, pkwargs, reason = _resolve_callee(
            expr.args[0], aliases, depth + 1
        )
        pargs = pargs + list(expr.args[1:])
        pkwargs = dict(pkwargs)
        pkwargs.update(
            (kw.arg, kw.value) for kw in expr.keywords if kw.arg is not None
        )
        return name, pargs, pkwargs, reason
    if isinstance(expr, ast.Lambda):
        return None, [], {}, "lambda callee (name the kernel instead)"
    try:
        shown = ast.unparse(expr)
    except Exception:  # pragma: no cover
        shown = "<expression>"
    return None, [], {}, f"dynamic callee expression `{shown}`"


def _yield_kind(value: ast.expr | None) -> str | None:
    """Phase kind of a ``yield`` value, when statically known."""
    if isinstance(value, ast.Attribute):
        if value.attr == "global_phase":
            return "global"
        if value.attr == "node_phase":
            return "node"
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Attribute)
        and value.func.attr == "phase"
        and value.args
        and isinstance(value.args[0], ast.Constant)
        and isinstance(value.args[0].value, str)
    ):
        return value.args[0].value
    return None


def _iter_statements(body: list[ast.stmt], branch: tuple = ()):
    """All ``(stmt, branch)`` pairs in source order, recursing into
    compound bodies (but not into nested function definitions).

    ``branch`` records the chain of enclosing ``if`` arms as
    ``(id(if_node), arm_index)`` pairs; rules use it to tell apart
    accesses in mutually exclusive branches (same ``if``, different
    arm) from accesses on one control path."""
    for stmt in body:
        yield stmt, branch
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(stmt, ast.If):
            yield from _iter_statements(stmt.body, branch + ((id(stmt), 0),))
            yield from _iter_statements(stmt.orelse, branch + ((id(stmt), 1),))
            continue
        for attr in ("body", "orelse", "finalbody"):
            inner = getattr(stmt, attr, None)
            if inner:
                yield from _iter_statements(inner, branch)
        for handler in getattr(stmt, "handlers", []) or []:
            yield from _iter_statements(handler.body, branch)
        for case in getattr(stmt, "cases", []) or []:
            yield from _iter_statements(case.body, branch)


def _shared_base(expr: ast.expr, shared: dict[str, SharedVar]) -> tuple[str, ast.expr] | None:
    """Resolve ``expr`` to (shared name, base expr) when it denotes a
    shared handle: ``X`` for plain shared names, ``C[i]`` for
    containers of shared handles."""
    if isinstance(expr, ast.Name):
        var = shared.get(expr.id)
        if var is not None and not var.container:
            return expr.id, expr
    if isinstance(expr, ast.Subscript) and isinstance(expr.value, ast.Name):
        var = shared.get(expr.value.id)
        if var is not None and var.container:
            return expr.value.id, expr
    return None


def _own_expr_roots(stmt: ast.stmt):
    """The expression subtrees that belong to ``stmt`` itself — i.e.
    excluding nested statement bodies, which get their own stmt_id."""
    for name, value in ast.iter_fields(stmt):
        if name in ("body", "orelse", "finalbody", "handlers", "decorator_list"):
            continue
        values = value if isinstance(value, list) else [value]
        for v in values:
            if isinstance(v, ast.expr):
                yield v
            elif isinstance(v, ast.withitem):
                yield v.context_expr
                if v.optional_vars is not None:
                    yield v.optional_vars


def _collect_accesses(fn: FunctionModel) -> None:
    """Populate ``fn.accesses`` with every positively-attributed shared
    access, tagged with its enclosing statement's source-order index."""
    shared = fn.shared_params
    for stmt_id, (stmt, branch) in enumerate(_iter_statements(fn.node.body)):
        for node in (n for root in _own_expr_roots(stmt) for n in walk(root)):
            if isinstance(node, ast.Subscript):
                resolved = _shared_base(node.value, shared)
                if resolved is None:
                    continue
                name, base = resolved
                kind = "write" if isinstance(node.ctx, (ast.Store, ast.Del)) else "read"
                if isinstance(node.ctx, ast.Store) and isinstance(stmt, ast.AugAssign):
                    kind = "write"
                fn.accesses.append(
                    Access(
                        name=name,
                        kind=kind,
                        lineno=node.lineno,
                        stmt_id=stmt_id,
                        node=node,
                        stmt=stmt,
                        base_dump=ast.dump(base),
                        index_dump=ast.dump(node.slice),
                        branch=branch,
                    )
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("accumulate", "gather")
            ):
                resolved = _shared_base(node.func.value, shared)
                if resolved is None:
                    continue
                kind = "read" if node.func.attr == "gather" else "accumulate"
                # X.gather(I, ...) reads I, then X.
                index = _shared_base(node.args[0], shared) if kind == "read" and node.args else None
                for name, base in filter(None, (index, resolved)):
                    fn.accesses.append(
                        Access(
                            name=name,
                            kind=kind,
                            lineno=node.lineno,
                            stmt_id=stmt_id,
                            node=node,
                            stmt=stmt,
                            base_dump=ast.dump(base),
                            branch=branch,
                        )
                    )
    fn.accesses.sort(key=lambda a: (a.stmt_id, a.lineno))


def build_module_model(source: str, path: str = "<source>") -> ModuleModel:
    """Parse ``source`` and build the semantic model the rules consume."""
    tree = ast.parse(source, filename=path)
    model = ModuleModel(path=path, tree=tree)

    # Passes 1 and 2, on the module's one walk (which keeps the parent
    # links and Yield/Name nodes pass 4 indexes kernels with): shared
    # declarations, callee aliases, do-launch sites and PPM functions.
    # Alias entries record simple single-target assignments whose value
    # could denote a kernel (a bare name or a functools.partial call)
    # so do-callees resolve through them.
    aliases: dict[str, ast.expr] = {}
    parents: dict = {}
    marks: list = []  # Yield and Name nodes, in walk order
    functions_by_name: dict[str, FunctionModel] = {}
    for node in walk(tree, parents):
        if isinstance(node, (ast.Yield, ast.Name)):
            marks.append(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            model.module_func_names.add(node.name)
            if isinstance(node, ast.FunctionDef) and _is_ppm_function(node):
                params = [a.arg for a in node.args.args]
                fn = FunctionModel(node, node.name, params[0] if params else None)
                functions_by_name[node.name] = fn
                model.functions.append(fn)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                decl = _decl_kind(node.value)
                if decl is not None:
                    kind, container = decl
                    extent, size_expr, dtype = _decl_shape(node.value)
                    model.shared_vars[target.id] = SharedVar(
                        target.id, kind, container, node.lineno,
                        extent=extent, size_expr=size_expr, dtype=dtype,
                    )
                elif isinstance(node.value, ast.Name) or _is_partial_call(
                    node.value
                ):
                    if target.id in aliases:
                        # Rebinding makes the alias ambiguous; poison it
                        # (the callee then reports as unresolved).
                        aliases[target.id] = None
                    else:
                        aliases[target.id] = node.value
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "do"
            and len(node.args) >= 2
        ):
            model.do_calls.append(
                DoCall(node=node, k_expr=node.args[0], func_name=None,
                       lineno=node.lineno)
            )
    for call in model.do_calls:
        name, pargs, pkwargs, reason = _resolve_callee(
            call.node.args[1], aliases
        )
        call.func_name = name
        call.partial_args = pargs
        call.partial_kwargs = pkwargs
        call.unresolved_reason = reason

    # Pass 3: map shared arguments of do-launches onto callee params.
    # With ``functools.partial(f, p1..pk)``, the callee is invoked as
    # ``f(p1..pk, ctx, *do_args)`` — the partial's args bind the
    # leading params, the context sits at index k, and the do-site
    # args bind the rest.
    for call in model.do_calls:
        fn = functions_by_name.get(call.func_name or "")
        if fn is None:
            continue
        params_all = [a.arg for a in fn.node.args.args]
        off = len(call.partial_args)
        if off >= len(params_all):
            continue
        if off:
            fn.ctx_name = params_all[off]
        params = params_all[off + 1:]  # skip ctx
        bound: list[tuple[str, ast.expr]] = list(
            zip(params_all[:off], call.partial_args)
        )
        bound += list(zip(params, call.node.args[2:]))
        bound += [
            (kw.arg, kw.value) for kw in call.node.keywords if kw.arg in params
        ]
        bound += [
            (name, value)
            for name, value in call.partial_kwargs.items()
            if name in params_all
        ]
        for param, arg in bound:
            if isinstance(arg, ast.Name) and arg.id in model.shared_vars:
                var = model.shared_vars[arg.id]
                known = fn.shared_params.get(param)
                if known is not None and known.kind != var.kind:
                    var = SharedVar(var.name, "unknown", var.container, var.lineno)
                fn.shared_params[param] = SharedVar(
                    param, var.kind, var.container, var.lineno,
                    extent=var.extent, size_expr=var.size_expr,
                    dtype=var.dtype,
                )

    # Pass 4: kernel indexes, yields and accesses (need the bindings).
    for fn in model.functions:
        fn.build_index(marks, parents)
        if fn.shared_params:
            _collect_accesses(fn)
    return model


# ======================================================================
# Entry points
# ======================================================================
def lint_source(
    source: str, path: str = "<source>", rules=None
) -> list[Diagnostic]:
    """Lint one module's source; returns the findings in source order."""
    try:
        model = build_module_model(source, path)
    except SyntaxError as exc:
        return [unparsable(exc, path)]
    return lint_model(model, rules)


def unparsable(exc: SyntaxError, path: str) -> Diagnostic:
    """The PPM100 finding for a module that does not parse."""
    return Diagnostic(
        tool="lint",
        rule="PPM100",
        severity="error",
        message=f"could not parse module: {exc.msg}",
        path=path,
        line=exc.lineno or 0,
    )


def lint_model(model: ModuleModel, rules=None) -> list[Diagnostic]:
    """Run the rules over an already built module model."""
    from repro.analysis.rules import ALL_RULES

    found: list[Diagnostic] = []
    for rule in rules if rules is not None else ALL_RULES:
        found.extend(rule.check(model))
    found.sort(key=lambda d: (d.path or "", d.line or 0, d.rule))
    return found


def lint_file(path: str, rules=None) -> list[Diagnostic]:
    """Lint one Python file."""
    with open(path, encoding="utf-8") as fh:
        return lint_source(fh.read(), path=path, rules=rules)


def iter_python_files(paths: list[str]):
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, files in os.walk(path):
                out.extend(
                    os.path.join(root, f) for f in files if f.endswith(".py")
                )
        elif path.endswith(".py"):
            out.append(path)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")
    return sorted(out)


def lint_paths(paths: list[str], rules=None) -> list[Diagnostic]:
    """Lint every ``.py`` file under the given files/directories."""
    found: list[Diagnostic] = []
    for path in iter_python_files(paths):
        found.extend(lint_file(path, rules=rules))
    return found
