"""Abstract interpretation of PPM kernels: static phase-conflict proofs.

This is the verifier behind ``python -m repro.analysis verify``.  It
symbolically executes a ``ppm_function``'s AST over the affine domain
of :mod:`repro.analysis.summaries`, collecting a per-phase symbolic
access summary for every shared-variable read, write and accumulate,
then proves — or fails to prove — that no two virtual processors can
write a common array row in one phase.

Diagnostics (docs/DIAGNOSTICS.md#ppm401 .. #ppm404):

* **PPM401** — provable write-write overlap between distinct VPs in
  one phase (commit order decides the value: the dynamic analogue is
  PPM201/PPM203);
* **PPM402** — a VP reads rows it wrote earlier in the same phase (the
  read observes the phase-*start* snapshot, rule R1, which is rarely
  what such code means);
* **PPM403** — ``accumulate`` calls with different combining operators
  may hit the same rows (rule R4 blesses exactly one operator per
  element per phase);
* **PPM404** — an access the verifier cannot place in the affine
  domain where it matters: the index expression and location are
  named, and the phase loses its certificate.

A phase whose write accesses are all proven pairwise disjoint (or
serialised by a single-rank guard, or blessed same-op accumulates) is
*certified*: ``run_ppm(..., sanitize="auto")`` skips the dynamic
sanitizer for it (:mod:`repro.analysis.certify`).

Certification additionally requires a statically *uniform phase
structure* — every VP must reach the same ``yield`` in the same
round — so yields may only appear at loop-body or function top level,
loops containing yields must iterate uniform iterables and start with
their yield, and rank-dependent ``continue``/``break`` must not skip
a later yield.  Violations make the kernel unanalyzable (reported,
never silently certified).
"""

from __future__ import annotations

import ast
from bisect import bisect_right
from dataclasses import replace

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.lint import (
    FunctionModel,
    _yield_kind,
    build_module_model,
    lint_model,
    unparsable,
)
from repro.analysis.summaries import (
    SET_TOP,
    SET_WHOLE,
    TOP,
    U_GLOBAL,
    U_NODE,
    U_RANK,
    AccessSummary,
    DependenceEdge,
    KernelSummary,
    PhaseSummary,
    cross_vp_relation,
    is_const,
    iset_iv,
    iset_pt,
    s_add,
    s_const,
    s_max,
    s_min,
    s_mul,
    s_nodesym,
    s_rank,
    s_sub,
    s_sym,
    same_vp_relation,
    subst,
    uniform_for,
    vclass,
)

__all__ = [
    "analyze_function",
    "analyze_module",
    "verify_source",
    "verify_file",
    "verify_paths",
]


# ======================================================================
# Environment value tags (beyond plain symbolic values)
# ======================================================================
# ("shared", name, kind, container)      a shared parameter
# ("sharedelt", name, idx, kind)         one element of a container
# ("tuple", (v, ...))                    a Python tuple/list of values
# ("splitlist", span, count)             split_range(span, count)
# ("arr", lo, hi, exact)                 int array with known row bounds
# ("lmap", loopsym, template)            list built per loop iteration
# ("list", [v, ...])                     list literal under construction
# ("range", lo, hi)                      a range object
# ("coll", key) / ("scan", key)          collective handles
# ("pyconst", value)                     non-integer constant
# ("ext", path)                          unresolved module-level object
_ABSENT = ("absent",)


def _class_of(v) -> int:
    """Uniformity class of any environment value."""
    if not isinstance(v, tuple) or not v:
        return U_RANK
    tag = v[0]
    if tag in ("pyconst", "ext", "coll", "shared", "sharedelt"):
        return U_GLOBAL
    if tag == "scan":
        return U_RANK
    if tag == "tuple":
        return max((_class_of(x) for x in v[1]), default=U_GLOBAL)
    if tag in ("splitlist", "range"):
        return max(vclass(v[1]), vclass(v[2]))
    if tag == "arr":
        return max(vclass(v[1]), vclass(v[2]))
    if tag in ("lmap", "list", "lambda"):
        return U_GLOBAL  # identity uniform; elements classified on read
    return vclass(v)


def _is_sym(v) -> bool:
    """Is ``v`` a plain symbolic (integer) value?"""
    return isinstance(v, tuple) and bool(v) and v[0] in (
        "top", "const", "sym", "nodesym", "rank", "nodelo", "nodehi",
        "splitlo", "splithi", "add", "neg", "mul", "max", "min",
    )


def _frame_if(frame) -> tuple:
    """(if_id, arm) of a guard frame."""
    return frame[-2], frame[-1]


# ======================================================================
# The interpreter
# ======================================================================
#: Statements whose body the interpreter runs and whose other clauses
#: it does not (``except*`` parses from Python 3.11 on).
_TRY = (ast.Try, getattr(ast, "TryStar", ast.Try))


class KernelInterp:
    """Symbolically executes one PPM function body."""

    def __init__(self, fn: FunctionModel, path: str):
        self.fn = fn
        self.path = path
        self.accesses: list[AccessSummary] = []
        self.reasons: list[str] = []  # why certification is impossible
        self.blocking: list[Diagnostic] = []  # PPM404 for nested defs etc.
        self.yield_lines = sorted(y.lineno for y in fn.yields)
        self._loops: list[dict] = []  # enclosing loop records
        self._fresh = 0
        self._meta: dict[str, tuple] = {}  # name -> (width, is_float)

    # -- plumbing ------------------------------------------------------
    def fresh(self, key, cls: int):
        if cls >= U_RANK:
            return TOP
        return (s_nodesym if cls == U_NODE else s_sym)(key)

    def fail_cert(self, reason: str) -> None:
        if reason not in self.reasons:
            self.reasons.append(reason)

    def segment_of(self, lineno: int) -> int:
        """Index of the phase governing ``lineno`` (-1 = prologue)."""
        return bisect_right(self.yield_lines, lineno) - 1

    # -- structural certifiability pre-checks --------------------------
    def precheck(self) -> None:
        fnode = self.fn.node
        ylines_of = self.fn.ylines.get

        def check_block(body, top: bool) -> None:
            for stmt in body:
                ylines = ylines_of(stmt)
                if not ylines:
                    continue
                if isinstance(stmt, ast.Expr) and isinstance(
                    stmt.value, ast.Yield
                ):
                    if _yield_kind(stmt.value.value) is None:
                        self.fail_cert(
                            f"phase kind of yield at line {stmt.lineno} is "
                            "not statically known"
                        )
                    continue
                if isinstance(stmt, (ast.For, ast.While)):
                    check_loop(stmt)
                    continue
                self.fail_cert(
                    f"yield at line {ylines[0]} is nested under a "
                    f"{type(stmt).__name__} statement; phase structure is "
                    "not statically uniform"
                )

        def check_loop(loop) -> None:
            seen_yield_stmt = False
            for stmt in loop.body:
                ylines = ylines_of(stmt)
                if not seen_yield_stmt and not ylines and stmt in self.fn.touches:
                    self.fail_cert(
                        f"shared access at line {stmt.lineno} precedes the "
                        "loop's first yield; it would execute in two "
                        "different phases across iterations"
                    )
                if ylines:
                    seen_yield_stmt = True
            if any(ylines_of(s) for s in loop.orelse):
                self.fail_cert(
                    f"yield in the else-clause of the loop at line "
                    f"{loop.lineno}"
                )
            first = loop.body[0] if loop.body else None
            ok_head = (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Yield)
            ) or isinstance(first, (ast.For, ast.While))
            if not ok_head:
                self.fail_cert(
                    f"loop at line {loop.lineno} contains yields but does "
                    "not begin with one; phase boundaries depend on "
                    "control flow"
                )
            check_block(loop.body, top=False)

        check_block(fnode.body, top=True)

    # -- top level -----------------------------------------------------
    def run(self) -> None:
        env: dict = {}
        params = [a.arg for a in self.fn.node.args.args]
        for p in params:
            sv = self.fn.shared_params.get(p)
            if sv is not None:
                env[p] = ("shared", p, sv.kind, sv.container)
            elif p == self.fn.ctx_name:
                env[p] = ("ctx",)
            else:
                env[p] = s_sym(("param", p))
        self.precheck()
        self.exec_block(self.fn.node.body, env, (), record=True)

    # -- statements ----------------------------------------------------
    def exec_block(self, body, env, guards, record: bool) -> None:
        extra = ()  # frames accrued from terminated if-arms
        for stmt in body:
            self.exec_stmt(stmt, env, guards + extra, record)
            if isinstance(stmt, ast.If) and not stmt.orelse and _terminates(
                stmt.body
            ):
                extra = extra + (self.guard_frame(stmt, 1, env, guards, record),)

    def exec_stmt(self, stmt, env, guards, record: bool) -> None:
        if isinstance(stmt, ast.Expr):
            if isinstance(stmt.value, ast.Yield):
                return
            self.eval(stmt.value, env, guards, record, stmt)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self.exec_assign(stmt, env, guards, record)
        elif isinstance(stmt, ast.If):
            self.exec_if(stmt, env, guards, record)
        elif isinstance(stmt, (ast.For, ast.While)):
            self.exec_loop(stmt, env, guards, record)
        elif isinstance(stmt, ast.Continue):
            self.check_escape(stmt, guards, "continue")
        elif isinstance(stmt, ast.Break):
            self.check_escape(stmt, guards, "break")
        elif isinstance(stmt, (ast.Return, ast.Pass, ast.Raise, ast.Assert,
                               ast.Import, ast.ImportFrom, ast.Global,
                               ast.Nonlocal, ast.Delete)):
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                self.eval(stmt.value, env, guards, record, stmt)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self.eval(item.context_expr, env, guards, record, stmt)
            self.exec_block(stmt.body, env, guards, record)
        elif isinstance(stmt, _TRY):
            self.exec_block(stmt.body, env, guards, record)
            self.unexecuted("except handler", stmt.handlers)
            self.unexecuted("try's else-clause", stmt.orelse)
            self.unexecuted("try's finally-clause", stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.unexecuted("nested function", [stmt])
        else:  # match, class bodies, ...: never executed
            self.unexecuted(f"{type(stmt).__name__} statement", [stmt])

    def unexecuted(self, what: str, nodes) -> None:
        """Code the interpreter never executes has no abstract effect,
        so certification fails if any of ``nodes`` touches shared
        variables."""
        hit = next((n for n in nodes if n in self.fn.touches), None)
        if hit is not None:
            self.fail_cert(
                f"{what} at line {hit.lineno} touches shared variables; "
                "not analyzed"
            )

    def check_escape(self, stmt, guards, what: str) -> None:
        for loop in reversed(self._loops):
            if loop["yields"]:
                depth = loop["guard_depth"]
                inner = guards[depth:]
                ranky = any(f[0] in ("rk", "r1") for f in inner)
                if what == "break" and ranky:
                    self.fail_cert(
                        f"rank-dependent break at line {stmt.lineno} in a "
                        "phase loop desynchronises phase rounds"
                    )
                elif what == "continue" and ranky and any(
                    y > stmt.lineno for y in loop["yields"]
                ):
                    self.fail_cert(
                        f"rank-dependent continue at line {stmt.lineno} "
                        "skips a later yield in the same loop body"
                    )
            break  # only the innermost loop matters

    # -- assignment ----------------------------------------------------
    def exec_assign(self, stmt, env, guards, record: bool) -> None:
        if isinstance(stmt, ast.AugAssign):
            targets = [stmt.target]
            value_node = stmt.value
            value = TOP
            if isinstance(stmt.target, ast.Name):
                cur = env.get(stmt.target.id, TOP)
                rhs = self.eval(stmt.value, env, guards, record, stmt)
                value = self.binop(stmt.op, cur, rhs)
            else:
                self.eval(stmt.value, env, guards, record, stmt)
        else:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            value_node = stmt.value
            if value_node is None:  # bare annotation
                return
            value = self.eval(value_node, env, guards, record, stmt)
        if isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                w0, f0 = self._meta.get(stmt.target.id, (None, False))
                _w, f1 = self.value_meta(stmt.value, env)
                self._meta[stmt.target.id] = (
                    w0, f0 or f1 or isinstance(stmt.op, ast.Div)
                )
        else:
            for target in targets:
                if isinstance(target, ast.Name):
                    self._meta[target.id] = self.value_meta(value_node, env)
        for target in targets:
            self.bind(target, value, env, guards, record, stmt,
                      aug=isinstance(stmt, ast.AugAssign))

    def bind(self, target, value, env, guards, record, stmt, aug=False) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            elts = target.elts
            if isinstance(value, tuple) and value and value[0] == "tuple" and len(
                value[1]
            ) == len(elts):
                for t, v in zip(elts, value[1]):
                    self.bind(t, v, env, guards, record, stmt)
            else:
                cls = _class_of(value)
                for t in elts:
                    if isinstance(t, ast.Name):
                        env[t.id] = self.fresh(
                            ("unpack", t.id, t.lineno, t.col_offset), cls
                        )
                    else:
                        self.bind(t, TOP, env, guards, record, stmt)
        elif isinstance(target, ast.Subscript):
            base = self.eval(target.value, env, guards, record, stmt,
                             as_store_base=True)
            resolved = self._as_shared(base)
            if resolved is not None:
                name, obj_idx, kind = resolved
                iset = self.eval_index(target.slice, env, guards, record, stmt)
                vs = None
                if not aug and (
                    _is_sym(value)
                    or (
                        isinstance(value, tuple)
                        and len(value) == 2
                        and value[0] == "pyconst"
                        and isinstance(
                            value[1], (bool, int, float, str, type(None))
                        )
                    )
                ):
                    vs = value
                vw, vf = None, False
                if not aug and isinstance(
                    stmt, (ast.Assign, ast.AnnAssign)
                ) and getattr(stmt, "value", None) is not None:
                    vw, vf = self.value_meta(stmt.value, env)
                self.record(
                    "write", name, obj_idx, kind, iset, target, stmt, guards,
                    record, value_sym=vs, value_width=vw, value_float=vf,
                )
            else:
                self.eval_index(target.slice, env, guards, record, stmt)
        elif isinstance(target, ast.Starred):
            self.bind(target.value, TOP, env, guards, record, stmt)
        # attribute targets: no abstract effect

    # -- if / guards ---------------------------------------------------
    def guard_frame(self, if_stmt, arm: int, env, guards, record) -> tuple:
        test = if_stmt.test
        r1 = self._single_rank_test(test, env, guards, record, if_stmt)
        if r1 is not None:
            kind, key = r1
            return ("r1", kind, key, id(if_stmt), arm)
        val = self.eval(test, env, guards, record, if_stmt)
        cls = _class_of(val)
        if isinstance(test, (ast.Compare, ast.BoolOp, ast.UnaryOp)):
            cls = self._test_class(test, env, guards, record, if_stmt)
        if cls <= U_NODE:
            return ("u", cls, id(if_stmt), arm)
        return ("rk", id(if_stmt), arm)

    def _test_class(self, test, env, guards, record, stmt) -> int:
        if isinstance(test, ast.Compare):
            vals = [self.eval(test.left, env, guards, record, stmt)] + [
                self.eval(c, env, guards, record, stmt) for c in test.comparators
            ]
            return max(_class_of(v) for v in vals)
        if isinstance(test, ast.BoolOp):
            return max(
                self._test_class(v, env, guards, record, stmt)
                for v in test.values
            )
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            return self._test_class(test.operand, env, guards, record, stmt)
        return _class_of(self.eval(test, env, guards, record, stmt))

    def _single_rank_test(self, test, env, guards, record, stmt):
        """``ctx.global_rank == <uniform>`` -> ("global", key)."""
        if not (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)
        ):
            return None
        left = self.eval(test.left, env, guards, record, stmt)
        right = self.eval(test.comparators[0], env, guards, record, stmt)
        for rank, other in ((left, right), (right, left)):
            if (
                isinstance(rank, tuple)
                and rank
                and rank[0] == "rank"
                and uniform_for(other, "global" if rank[1] == "global" else "node")
            ):
                return rank[1], other
        return None

    def exec_if(self, stmt, env, guards, record: bool) -> None:
        f0 = self.guard_frame(stmt, 0, env, guards, record)
        f1 = (*f0[:-1], 1)
        body_env = dict(env)
        self.exec_block(stmt.body, body_env, guards + (f0,), record)
        else_env = dict(env)
        if stmt.orelse:
            self.exec_block(stmt.orelse, else_env, guards + (f1,), record)
        body_term = _terminates(stmt.body)
        else_term = bool(stmt.orelse) and _terminates(stmt.orelse)
        if body_term and not else_term:
            env.clear()
            env.update(else_env)
        elif else_term and not body_term:
            env.clear()
            env.update(body_env)
        else:
            merged = self.merge(body_env, else_env, key=id(stmt))
            env.clear()
            env.update(merged)

    def merge(self, a: dict, b: dict, key) -> dict:
        out = {}
        for name in set(a) | set(b):
            va, vb = a.get(name, _ABSENT), b.get(name, _ABSENT)
            out[name] = va if va == vb else self.widen(
                va, vb, ("merge", key, name)
            )
        return out

    def widen(self, old, new, key, loopsym=None):
        if old == new:
            return old
        if old == _ABSENT:
            return new
        if new == _ABSENT:
            return old
        # list growing by per-iteration appends -> symbolic map
        if (
            loopsym is not None
            and isinstance(old, tuple)
            and isinstance(new, tuple)
            and old[0] == "list"
            and new[0] == "list"
            and len(new[1]) == len(old[1]) + 1
            and new[1][: len(old[1])] == old[1]
        ):
            return ("lmap", loopsym, new[1][-1])
        if (
            isinstance(old, tuple)
            and isinstance(new, tuple)
            and old[0] == "tuple"
            and new[0] == "tuple"
            and len(old[1]) == len(new[1])
        ):
            return (
                "tuple",
                tuple(
                    self.widen(x, y, ("t", key, i), loopsym)
                    for i, (x, y) in enumerate(zip(old[1], new[1]))
                ),
            )
        # collective handles stay collective (the .value stays uniform)
        tags = {old[0] if isinstance(old, tuple) and old else None,
                new[0] if isinstance(new, tuple) and new else None}
        if "coll" in tags and tags <= {"coll", "pyconst"}:
            return ("coll", ("widen", key))
        cls = max(_class_of(old), _class_of(new))
        return self.fresh(("widen", key), cls)

    # -- loops ---------------------------------------------------------
    def exec_loop(self, stmt, env, guards, record: bool) -> None:
        yields = self.fn.ylines.get(stmt, [])
        loopsym = None
        if isinstance(stmt, ast.For):
            itv = self.eval(stmt.iter, env, guards, record, stmt)
            if yields and _class_of(itv) != U_GLOBAL:
                self.fail_cert(
                    f"loop at line {stmt.lineno} yields phases but its "
                    "iterable is not provably uniform across VPs"
                )
            loopsym = self.bind_loop_target(stmt.target, itv, env)
        else:
            cls = self._test_class(stmt.test, env, guards, record, stmt)
            if yields and cls > U_GLOBAL:
                self.fail_cert(
                    f"while-loop at line {stmt.lineno} yields phases but "
                    "its condition is not provably uniform across VPs"
                )
        self._loops.append(
            {"yields": yields, "guard_depth": len(guards)}
        )
        try:
            # Pass A: discover the loop's effect on the environment and
            # widen every changed binding to a stable fixed point.
            before = dict(env)
            self.exec_block(stmt.body, env, guards, record=False)
            for name in set(env) | set(before):
                old = before.get(name, _ABSENT)
                new = env.get(name, _ABSENT)
                if old != new:
                    env[name] = self.widen(
                        old, new, ("loop", id(stmt), name), loopsym=loopsym
                    )
            # Pass B: interpret once more over the widened environment,
            # recording accesses if requested.
            if record:
                self.exec_block(stmt.body, env, guards, record=True)
        finally:
            self._loops.pop()
        for s in stmt.orelse:
            self.exec_stmt(s, env, guards, record)

    def bind_loop_target(self, target, itv, env):
        """Bind the loop variable(s); returns the placeholder sym of a
        single-name target (for the lmap widening pattern)."""
        cls = _class_of(itv)
        elem: object = None
        if isinstance(itv, tuple) and itv:
            if itv[0] == "range":
                elem = self.fresh(("loopvar", target.lineno, target.col_offset),
                                  max(vclass(itv[1]), vclass(itv[2])))
            elif itv[0] == "lmap":
                ph = self.fresh(("loopvar", target.lineno, target.col_offset),
                                U_GLOBAL)
                elem = subst(itv[2], {itv[1]: ph})
            elif itv[0] == "list":
                elem = self.widen_all(itv[1], ("loopelems", target.lineno))
            elif itv[0] == "tuple":
                elem = self.widen_all(list(itv[1]), ("loopelems", target.lineno))
            elif itv[0] == "arr":
                elem = TOP
        if elem is None:
            elem = self.fresh(
                ("loopvar", target.lineno, target.col_offset), cls
            )
        if isinstance(target, ast.Name):
            env[target.id] = elem
            return elem if _is_sym(elem) else None
        if isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(elem, tuple) and elem and elem[0] == "tuple" and len(
                elem[1]
            ) == len(target.elts):
                for t, v in zip(target.elts, elem[1]):
                    if isinstance(t, ast.Name):
                        env[t.id] = v
            else:
                ecls = _class_of(elem)
                for t in target.elts:
                    if isinstance(t, ast.Name):
                        env[t.id] = self.fresh(
                            ("loopvar", t.id, t.lineno, t.col_offset), ecls
                        )
        return None

    def widen_all(self, values, key):
        out = _ABSENT
        for i, v in enumerate(values):
            out = v if out == _ABSENT else self.widen(out, v, (key, "all"))
        return TOP if out == _ABSENT else out

    # ==================================================================
    # Expressions
    # ==================================================================
    def eval(self, node, env, guards, record, stmt, as_store_base=False):
        if node is None:
            return ("pyconst", None)
        if isinstance(node, ast.Constant):
            v = node.value
            if isinstance(v, bool) or not isinstance(v, int):
                return ("pyconst", v)
            return s_const(v)
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            return ("ext", (node.id,))
        if isinstance(node, ast.Attribute):
            return self.eval_attr(node, env, guards, record, stmt)
        if isinstance(node, ast.Call):
            return self.eval_call(node, env, guards, record, stmt)
        if isinstance(node, ast.Subscript):
            return self.eval_subscript(
                node, env, guards, record, stmt, as_store_base
            )
        if isinstance(node, ast.BinOp):
            left = self.eval(node.left, env, guards, record, stmt)
            right = self.eval(node.right, env, guards, record, stmt)
            return self.binop(node.op, left, right)
        if isinstance(node, ast.UnaryOp):
            v = self.eval(node.operand, env, guards, record, stmt)
            if isinstance(node.op, ast.USub) and _is_sym(v):
                return s_sub(s_const(0), v)
            return self.opaque(node, (v,))
        if isinstance(node, (ast.Tuple, ast.List)):
            vals = tuple(
                self.eval(e, env, guards, record, stmt) for e in node.elts
            )
            if isinstance(node, ast.List):
                return ("list", list(vals))
            return ("tuple", vals)
        if isinstance(node, ast.Compare):
            vals = [self.eval(node.left, env, guards, record, stmt)] + [
                self.eval(c, env, guards, record, stmt)
                for c in node.comparators
            ]
            return self.opaque(node, vals)
        if isinstance(node, ast.BoolOp):
            vals = [self.eval(v, env, guards, record, stmt) for v in node.values]
            return self.opaque(node, vals)
        if isinstance(node, ast.IfExp):
            self.eval(node.test, env, guards, record, stmt)
            a = self.eval(node.body, env, guards, record, stmt)
            b = self.eval(node.orelse, env, guards, record, stmt)
            return a if a == b else self.widen(a, b, ("ifexp", node.lineno,
                                                      node.col_offset))
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self.eval_comp(node, env, guards, record, stmt)
        if isinstance(node, ast.Lambda):
            inner = dict(env)
            for a in node.args.args:
                inner[a.arg] = TOP
            self.eval(node.body, inner, guards, record, stmt)
            return ("lambda", None)
        if isinstance(node, ast.Starred):
            return self.eval(node.value, env, guards, record, stmt)
        if isinstance(node, ast.JoinedStr):
            return ("pyconst", "<fstring>")
        # walk unknown expression kinds for shared reads, then give up
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, ast.expr):
                self.eval(sub, env, guards, record, stmt)
        return TOP

    def binop(self, op, a, b):
        if _is_sym(a) and _is_sym(b):
            if isinstance(op, ast.Add):
                return s_add(a, b)
            if isinstance(op, ast.Sub):
                return s_sub(a, b)
            if isinstance(op, ast.Mult):
                return s_mul(a, b)
        cls = max(_class_of(a), _class_of(b))
        key = ("binop", type(op).__name__, a, b)
        return self.fresh(key, cls)

    def opaque(self, node, args):
        cls = max((_class_of(a) for a in args), default=U_GLOBAL)
        try:
            text = ast.unparse(node)
        except Exception:  # pragma: no cover - unparse is total on 3.9+
            text = f"<expr@{node.lineno}>"
        return self.fresh(("expr", text, tuple(map(repr, args))), cls)

    # -- attributes ----------------------------------------------------
    def eval_attr(self, node, env, guards, record, stmt):
        base = self.eval(node.value, env, guards, record, stmt)
        attr = node.attr
        if isinstance(base, tuple) and base:
            tag = base[0]
            if tag == "ctx":
                if attr == "node_rank":
                    return s_rank("node")
                if attr == "global_rank":
                    return s_rank("global")
                if attr == "node_id":
                    return s_nodesym(("node_id",))
                if attr == "node_vp_count":
                    return s_nodesym(("node_vp_count",))
                if attr in ("global_vp_count", "node_count", "cores_per_node"):
                    return s_sym((attr,))
                if attr in ("global_phase", "node_phase"):
                    return ("pyconst", attr)
                return ("ctxattr", attr)
            if tag == "coll" and attr == "value":
                return s_sym(("collval", base[1]))
            if tag == "scan" and attr == "value":
                return TOP
            if tag == "ext":
                return ("ext", base[1] + (attr,))
            if tag in ("shared", "sharedelt"):
                return ("sharedattr", base, attr)
            if tag == "arr" and attr == "size":
                return self.fresh(("size", base), _class_of(base))
        cls = _class_of(base)
        return self.fresh(("attr", repr(base), attr), cls)

    # -- calls ---------------------------------------------------------
    def eval_call(self, node, env, guards, record, stmt):
        func = node.func
        # Method calls with receiver semantics
        if isinstance(func, ast.Attribute):
            recv = self.eval(func.value, env, guards, record, stmt)
            out = self.method_call(
                node, func, recv, env, guards, record, stmt
            )
            if out is not NotImplemented:
                return out
        dotted = _dotted_name(func)
        args = node.args
        if dotted is not None:
            tail = dotted.split(".")[-1]
            if tail == "split_range" and len(args) == 2:
                span = self.eval(args[0], env, guards, record, stmt)
                count = self.eval(args[1], env, guards, record, stmt)
                if _is_sym(span) and _is_sym(count):
                    return ("splitlist", span, count)
            if tail == "arange" and args:
                vals = [
                    self.eval(a, env, guards, record, stmt) for a in args[:2]
                ]
                if len(vals) == 1:
                    vals = [s_const(0), vals[0]]
                if all(_is_sym(v) for v in vals):
                    return ("arr", vals[0], vals[1], True)
            if tail == "range" and isinstance(func, ast.Name):
                vals = [
                    self.eval(a, env, guards, record, stmt) for a in args[:2]
                ]
                if len(vals) == 1:
                    vals = [s_const(0), vals[0]]
                if len(vals) == 2 and all(_is_sym(v) for v in vals):
                    return ("range", vals[0], vals[1])
            if tail in ("max", "min") and isinstance(func, ast.Name):
                vals = [self.eval(a, env, guards, record, stmt) for a in args]
                if all(_is_sym(v) for v in vals) and len(vals) >= 2:
                    return (s_max if tail == "max" else s_min)(*vals)
            if tail in ("int", "float") and len(args) == 1:
                v = self.eval(args[0], env, guards, record, stmt)
                return v if _is_sym(v) else self.fresh(
                    ("cast", repr(v)), _class_of(v)
                )
            if tail in ("enumerate", "zip"):
                vals = tuple(
                    self.eval(a, env, guards, record, stmt) for a in args
                )
                cls = max((_class_of(v) for v in vals), default=U_GLOBAL)
                return self.fresh(("iter", node.lineno, node.col_offset), cls)
        # Generic call: evaluate everything (recording reads), result is
        # opaque with the worst argument class.
        vals = [self.eval(a, env, guards, record, stmt) for a in node.args]
        vals += [
            self.eval(kw.value, env, guards, record, stmt)
            for kw in node.keywords
        ]
        if isinstance(func, ast.Attribute):
            vals.append(self.eval(func.value, env, guards, record, stmt))
        cls = max((_class_of(v) for v in vals), default=U_GLOBAL)
        try:
            text = ast.unparse(func)
        except Exception:  # pragma: no cover
            text = f"<call@{node.lineno}>"
        return self.fresh(
            ("callexpr", text, tuple(map(repr, vals))), cls
        )

    def method_call(self, node, func, recv, env, guards, record, stmt):
        attr = func.attr
        shared = self._as_shared(recv)
        if shared is not None:
            name, obj_idx, kind = shared
            if attr == "accumulate":
                iset = SET_TOP
                if node.args:
                    iset = self.value_to_iset(
                        self.eval(node.args[0], env, guards, record, stmt)
                    )
                for a in node.args[1:]:
                    self.eval(a, env, guards, record, stmt)
                op = "add"
                for kw in node.keywords:
                    v = self.eval(kw.value, env, guards, record, stmt)
                    if kw.arg == "op":
                        op = v[1] if v[0] == "pyconst" else None
                if len(node.args) >= 3:
                    opv = self.eval(node.args[2], env, guards, record, stmt)
                    op = opv[1] if opv[0] == "pyconst" else None
                self.record(
                    "accumulate", name, obj_idx, kind, iset, node, stmt,
                    guards, record, op=op,
                )
                return ("pyconst", None)
            if attr == "local_range":
                argv = (
                    self.eval(node.args[0], env, guards, record, stmt)
                    if node.args
                    else TOP
                )
                if argv == s_nodesym(("node_id",)):
                    pk = (name, repr(obj_idx))
                    return ("tuple", (("nodelo", pk), ("nodehi", pk)))
                key = ("local_range", name, repr(obj_idx), repr(argv))
                return ("tuple", (s_sym(key + ("lo",)), s_sym(key + ("hi",))))
            if attr == "gather":
                # X.gather(I, starts, counts): reads rows of I, then of
                # X, neither set known statically.
                args = [self.eval(a, env, guards, record, stmt) for a in node.args]
                index = self._as_shared(args[0]) if args else None
                if index is not None:
                    self.record("read", *index, SET_TOP, node, stmt, guards, record)
                self.record("read", name, obj_idx, kind, SET_TOP, node, stmt, guards, record)
                return TOP
            # other shared-handle methods (.instance(), .snapshot(), ...)
            for a in node.args:
                self.eval(a, env, guards, record, stmt)
            return self.fresh(("sharedcall", name, attr, node.lineno), U_GLOBAL)
        if isinstance(recv, tuple) and recv and recv[0] == "ctx":
            if attr in ("reduce", "scan"):
                for a in node.args:
                    self.eval(a, env, guards, record, stmt)
                key = ("ph", node.lineno, node.col_offset)
                return ("coll", key) if attr == "reduce" else ("scan", key)
            if attr == "phase":
                return ("pyconst", "phase")
            if attr in ("work", "mem_work"):
                for a in node.args:
                    self.eval(a, env, guards, record, stmt)
                return ("pyconst", None)
        if attr == "append" and isinstance(func.value, ast.Name):
            lst = env.get(func.value.id)
            if isinstance(lst, tuple) and lst and lst[0] == "list":
                v = self.eval(node.args[0], env, guards, record, stmt)
                env[func.value.id] = ("list", lst[1] + [v])
                return ("pyconst", None)
        return NotImplemented

    # -- comprehensions ------------------------------------------------
    def eval_comp(self, node, env, guards, record, stmt):
        inner = dict(env)
        loopsyms = []
        for gen in node.generators:
            itv = self.eval(gen.iter, inner, guards, record, stmt)
            ph = self.bind_loop_target(gen.target, itv, inner)
            loopsyms.append(ph)
            for cond in gen.ifs:
                self.eval(cond, inner, guards, record, stmt)
        elt = getattr(node, "elt", None)
        if elt is None:
            return TOP
        v = self.eval(elt, inner, guards, record, stmt)
        if isinstance(node, ast.ListComp):
            ph = loopsyms[0] if loopsyms else None
            if ph is not None and any(ph == t for t in _sym_leaves(v)):
                return ("lmap", ph, v)
            return ("list", [v]) if v != TOP else TOP
        return self.fresh(("comp", node.lineno, node.col_offset),
                          _class_of(v))

    # -- subscripts ----------------------------------------------------
    def eval_subscript(self, node, env, guards, record, stmt, as_store_base):
        base = self.eval(node.value, env, guards, record, stmt)
        if isinstance(base, tuple) and base:
            tag = base[0]
            if tag == "shared" and base[3]:  # container: select element
                idx = self.index_value(node.slice, env, guards, record, stmt)
                return ("sharedelt", base[1], idx, base[2])
            if tag in ("shared", "sharedelt"):
                if as_store_base:
                    # e.g. ``X[rows][k] = v`` — outer store resolves here
                    return base
                name, obj_idx, kind = self._as_shared(base)
                iset = self.eval_index(node.slice, env, guards, record, stmt)
                self.record(
                    "read", name, obj_idx, kind, iset, node, stmt, guards,
                    record,
                )
                from repro.analysis.summaries import iset_class

                cls = iset_class(iset, "global")
                return self.fresh(("readval", name, repr(obj_idx), iset), cls)
            if tag == "splitlist":
                idx = self.index_value(node.slice, env, guards, record, stmt)
                if isinstance(idx, tuple) and idx and idx[0] == "rank":
                    sk = (base[1], base[2], idx[1])
                    return ("tuple", (("splitlo", sk), ("splithi", sk)))
                key = ("split", base[1], base[2], repr(idx))
                cls = max(_class_of(base), _class_of(idx))
                return (
                    "tuple",
                    (
                        self.fresh(key + ("lo",), cls),
                        self.fresh(key + ("hi",), cls),
                    ),
                )
            if tag == "tuple":
                idx = self.index_value(node.slice, env, guards, record, stmt)
                if is_const(idx) and 0 <= idx[1] < len(base[1]):
                    return base[1][idx[1]]
                return self.widen_all(
                    list(base[1]), ("tupidx", node.lineno, node.col_offset)
                )
            if tag in ("list", "lmap"):
                idx = self.index_value(node.slice, env, guards, record, stmt)
                if tag == "list":
                    if is_const(idx) and 0 <= idx[1] < len(base[1]):
                        return base[1][idx[1]]
                    return self.widen_all(
                        base[1], ("listidx", node.lineno, node.col_offset)
                    )
                if _is_sym(idx):
                    return subst(base[2], {base[1]: idx})
                return TOP
            if tag == "arr":
                # any further indexing selects a subset of the values
                self.index_value(node.slice, env, guards, record, stmt)
                return ("arr", base[1], base[2], False)
        # Boolean-mask refinement: ``rows[(rows >= lo) & (rows < hi)]``
        refined = self.mask_pattern(node, env, guards, record, stmt)
        if refined is not None:
            return refined
        idx = self.index_value(node.slice, env, guards, record, stmt)
        cls = max(_class_of(base), _class_of(idx))
        if cls == U_GLOBAL and isinstance(base, tuple) and base and base[0] in (
            "ext", "sym", "nodesym", "sharedattr"
        ):
            return self.fresh(("getitem", repr(base), repr(idx)), cls)
        return self.fresh(
            ("getitem", node.lineno, node.col_offset, repr(idx)), cls
        )

    def mask_pattern(self, node, env, guards, record, stmt):
        """``base[(base >= lo) & (base < hi)]`` — the result's values
        are a subset of ``[lo, hi)`` whatever ``base`` holds."""
        if not isinstance(node.value, ast.Name):
            return None
        bname = node.value.id
        m = node.slice
        if not (isinstance(m, ast.BinOp) and isinstance(m.op, ast.BitAnd)):
            return None
        lo = hi = None
        for side in (m.left, m.right):
            if not (
                isinstance(side, ast.Compare)
                and len(side.ops) == 1
                and isinstance(side.left, ast.Name)
                and side.left.id == bname
            ):
                return None
            bound = self.eval(
                side.comparators[0], env, guards, record, stmt
            )
            if not _is_sym(bound):
                return None
            op = side.ops[0]
            if isinstance(op, ast.GtE):
                lo = bound
            elif isinstance(op, ast.Gt):
                lo = s_add(bound, s_const(1))
            elif isinstance(op, ast.Lt):
                hi = bound
            elif isinstance(op, ast.LtE):
                hi = s_add(bound, s_const(1))
            else:
                return None
        if lo is None or hi is None:
            return None
        return ("arr", lo, hi, False)

    # -- index sets ----------------------------------------------------
    def index_value(self, slc, env, guards, record, stmt):
        if isinstance(slc, ast.Slice):
            return TOP
        return self.eval(slc, env, guards, record, stmt)

    def eval_index(self, slc, env, guards, record, stmt) -> tuple:
        """The axis-0 index set of a subscript's slice expression."""
        if isinstance(slc, ast.Tuple) and slc.elts:
            # multi-axis: rows are axis 0; evaluate the rest for reads
            for extra in slc.elts[1:]:
                if not isinstance(extra, ast.Slice):
                    self.eval(extra, env, guards, record, stmt)
            return self.eval_index(slc.elts[0], env, guards, record, stmt)
        if isinstance(slc, ast.Slice):
            if slc.lower is None and slc.upper is None and slc.step is None:
                return SET_WHOLE
            lo = (
                s_const(0)
                if slc.lower is None
                else self.eval(slc.lower, env, guards, record, stmt)
            )
            hi = (
                self.fresh(("alen", id(stmt)), U_GLOBAL)
                if slc.upper is None
                else self.eval(slc.upper, env, guards, record, stmt)
            )
            exact = True
            if slc.step is not None:
                stepv = self.eval(slc.step, env, guards, record, stmt)
                if is_const(stepv, 1):
                    pass
                elif is_const(stepv):
                    exact = False
                else:
                    return SET_TOP
            if not (_is_sym(lo) and _is_sym(hi)):
                return SET_TOP
            # Negative bounds would wrap; constants tell us directly.
            if (is_const(lo) and lo[1] < 0) or (is_const(hi) and hi[1] < 0):
                return SET_TOP
            return iset_iv(lo, hi, exact=exact)
        return self.value_to_iset(self.eval(slc, env, guards, record, stmt))

    def value_to_iset(self, v) -> tuple:
        if _is_sym(v):
            if v == TOP:
                return SET_TOP
            if is_const(v) and v[1] < 0:
                return SET_TOP
            return iset_pt(v)
        if isinstance(v, tuple) and v:
            if v[0] == "arr":
                return iset_iv(v[1], v[2], exact=bool(v[3]))
            if v[0] == "range":
                return iset_iv(v[1], v[2], exact=True)
            if v[0] == "list" and v[1] and all(_is_sym(e) for e in v[1]):
                if len(v[1]) == 1:
                    return self.value_to_iset(v[1][0])
                if all(is_const(e) for e in v[1]):
                    vals = sorted(e[1] for e in v[1])
                    if vals[0] >= 0:
                        exact = vals == list(range(vals[0], vals[-1] + 1))
                        return iset_iv(
                            s_const(vals[0]), s_const(vals[-1] + 1),
                            exact=exact,
                        )
        return SET_TOP

    # -- value shape/dtype metadata (PPM408) ---------------------------
    def value_meta(self, node, env) -> tuple:
        """``(width, is_float)`` of an RHS expression: the symbolic
        axis-0 length of the value when statically known, and whether
        the value is provably floating-point (float constants and true
        division only — everything else stays unknown)."""
        if isinstance(node, ast.Constant):
            return None, isinstance(node.value, float)
        if isinstance(node, ast.Name):
            got = self._meta.get(node.id)
            if got is not None:
                return got
            v = env.get(node.id)
            if isinstance(v, tuple) and v and v[0] == "arr" and v[3]:
                return s_sub(v[2], v[1]), False
            return None, False
        if isinstance(node, ast.Subscript):
            _w, base_f = self.value_meta(node.value, env)
            slc = node.slice
            if isinstance(slc, ast.Tuple) and slc.elts:
                slc = slc.elts[0]
            if isinstance(slc, ast.Slice) and slc.step is None:
                lo = (
                    s_const(0)
                    if slc.lower is None
                    else self.eval(slc.lower, env, (), False, node)
                )
                hi = (
                    None
                    if slc.upper is None
                    else self.eval(slc.upper, env, (), False, node)
                )
                if (
                    hi is not None
                    and _is_sym(lo)
                    and _is_sym(hi)
                    and not (is_const(lo) and lo[1] < 0)
                    and not (is_const(hi) and hi[1] < 0)
                ):
                    return s_sub(hi, lo), base_f
            return None, base_f
        if isinstance(node, ast.BinOp):
            wl, fl = self.value_meta(node.left, env)
            wr, fr = self.value_meta(node.right, env)
            w = wl if wr is None else wr if wl is None else (
                wl if wl == wr else None
            )
            return w, fl or fr or isinstance(node.op, ast.Div)
        if isinstance(node, ast.UnaryOp):
            return self.value_meta(node.operand, env)
        if isinstance(node, ast.Call):
            dotted = _dotted_name(node.func)
            tail = dotted.split(".")[-1] if dotted else None
            if tail in ("zeros", "ones", "empty", "full") and node.args:
                size = node.args[0]
                if isinstance(size, ast.Tuple) and size.elts:
                    size = size.elts[0]
                v = self.eval(size, env, (), False, node)
                return (v if _is_sym(v) and v != TOP else None), False
            if tail == "arange" and node.args:
                vals = [
                    self.eval(a, env, (), False, node)
                    for a in node.args[:2]
                ]
                if len(vals) == 1:
                    vals = [s_const(0), vals[0]]
                if all(_is_sym(v) for v in vals):
                    return s_sub(vals[1], vals[0]), False
            if tail == "float" and isinstance(node.func, ast.Name):
                return None, True
            return None, False
        return None, False

    # -- shared resolution & access recording --------------------------
    def _as_shared(self, v):
        if isinstance(v, tuple) and v:
            if v[0] == "shared" and not v[3]:
                return v[1], None, v[2]
            if v[0] == "sharedelt":
                return v[1], v[2], v[3]
        return None

    def record(
        self, kind, name, obj_idx, var_kind, iset, node, stmt, guards,
        record, op=None, value_sym=None, value_width=None, value_float=False,
    ) -> None:
        if not record:
            return
        lineno = getattr(node, "lineno", stmt.lineno)
        self.accesses.append(
            AccessSummary(
                variable=name,
                obj_index=obj_idx,
                kind=kind,
                op=op,
                iset=iset,
                lineno=lineno,
                stmt_id=len(self.accesses),
                guards=guards,
                expr=_index_text(node),
                value_sym=value_sym,
                value_width=value_width,
                value_float=value_float,
            )
        )


def _sym_leaves(v):
    if isinstance(v, tuple):
        yield v
        for x in v:
            yield from _sym_leaves(x)


def _dotted_name(node) -> str | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _terminates(body: list) -> bool:
    if not body:
        return False
    last = body[-1]
    if isinstance(last, (ast.Continue, ast.Break, ast.Return, ast.Raise)):
        return True
    if isinstance(last, ast.If) and last.orelse:
        return _terminates(last.body) and _terminates(last.orelse)
    return False


def _index_text(node) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover
        return "<expr>"


# ======================================================================
# Conflict analysis over the collected summaries
# ======================================================================
def _r1_valid(frame, scope: str) -> bool:
    # Only the equality arm (arm 0) pins execution to one rank; the
    # else arm runs on *every other* rank and must not count.
    return frame[4] == 0 and (frame[1] == "global" or scope == "node")


def _cross_vp_excluded(a: AccessSummary, b: AccessSummary, scope: str) -> bool:
    """Can we rule out that two *distinct* VPs execute ``a`` and ``b``
    in one round (one VP doing ``a``, the other ``b``)?"""
    a_r1 = [f for f in a.guards if f[0] == "r1" and _r1_valid(f, scope)]
    if a is b:
        return bool(a_r1)
    b_r1 = [f for f in b.guards if f[0] == "r1" and _r1_valid(f, scope)]
    for fa in a_r1:
        for fb in b_r1:
            if fa[1] == fb[1] and fa[2] == fb[2]:
                return True  # both run on the same single rank
    lim = U_GLOBAL if scope == "global" else U_NODE
    a_u = {
        (f[2], f[3]) for f in a.guards if f[0] == "u" and f[1] <= lim
    }
    b_u = {
        (f[2], f[3]) for f in b.guards if f[0] == "u" and f[1] <= lim
    }
    for if_id, arm in a_u:
        if any(bi == if_id and ba != arm for bi, ba in b_u):
            return True  # mutually exclusive uniform branches
    return False


def _same_vp_excluded(a: AccessSummary, b: AccessSummary) -> bool:
    af = {_frame_if(f) for f in a.guards}
    bf = {_frame_if(f) for f in b.guards}
    return any(
        ai == bi and aa != ba for ai, aa in af for bi, ba in bf
    )


def _objects_distinct(a: AccessSummary, b: AccessSummary) -> bool:
    """U[l] vs U[l+1]: container elements at provably different
    indices are different arrays."""
    if a.obj_index is None and b.obj_index is None:
        return False
    if a.obj_index is None or b.obj_index is None:
        return True  # different parameters handle this before; safe
    diff = s_sub(a.obj_index, b.obj_index)
    return is_const(diff) and diff[1] != 0


def _diag(
    rule, severity, message, path, access: AccessSummary, seg: int, kind,
    kernel=None,
) -> Diagnostic:
    return Diagnostic(
        tool="dataflow",
        rule=rule,
        severity=severity,
        message=message,
        path=path,
        line=access.lineno,
        phase_index=seg if seg >= 0 else None,
        phase_kind=kind,
        variable=access.variable,
        expr=access.expr,
        kernel=kernel,
    )


def analyze_function(fn: FunctionModel, path: str) -> tuple[list, KernelSummary]:
    """Verify one PPM function; returns (diagnostics, summary)."""
    interp = KernelInterp(fn, path)
    try:
        interp.run()
    except RecursionError:  # pragma: no cover - pathological inputs
        interp.fail_cert("kernel too deeply nested to analyze")
    summary = KernelSummary(name=fn.name, path=path)
    if interp.reasons:
        summary.analyzable = False
        summary.reason = "; ".join(interp.reasons)
    diags: list[Diagnostic] = []

    yields = sorted(fn.yields, key=lambda y: y.lineno)
    segments: dict[int, PhaseSummary] = {}
    if yields:
        for i, y in enumerate(yields):
            segments[i] = PhaseSummary(yield_lineno=y.lineno, kind=y.kind)
    else:
        segments[0] = PhaseSummary(yield_lineno=0, kind="global")

    by_seg: dict[int, list[AccessSummary]] = {}
    for acc in interp.accesses:
        seg = interp.segment_of(acc.lineno) if yields else 0
        if seg < 0:
            # Shared access in the VP-private prologue: PPM101 territory
            # (lint); the kernel cannot be certified.
            summary.analyzable = False
            summary.reason = summary.reason or (
                f"shared access at line {acc.lineno} in the VP-private "
                "prologue"
            )
            continue
        by_seg.setdefault(seg, []).append(acc)
        segments[seg].accesses.append(acc)

    for seg, phase in segments.items():
        accs = by_seg.get(seg, [])
        blockers = _check_segment(accs, phase, seg, path)
        phase.blockers = blockers
        diags.extend(blockers)
        hard = [d for d in blockers if d.rule != "PPM402"]
        phase.certified = summary.analyzable and not hard

    summary.phases = [segments[i] for i in sorted(segments)]
    summary.edges = _dependence_edges(summary.phases)

    from repro.analysis import liveness
    from repro.analysis.bounds import check_bounds_and_shapes

    diags.extend(check_bounds_and_shapes(fn, summary, path))
    diags.extend(liveness.analyze_liveness(fn, summary, path))
    diags = [
        replace(d, kernel=fn.name) if d.kernel is None else d for d in diags
    ]
    for phase in summary.phases:
        phase.blockers = [
            replace(d, kernel=fn.name) if d.kernel is None else d
            for d in phase.blockers
        ]
    return diags, summary


def _check_segment(accs, phase: PhaseSummary, seg: int, path: str) -> list:
    diags: list[Diagnostic] = []
    writes = [a for a in accs if a.kind in ("write", "accumulate")]
    reads = [a for a in accs if a.kind == "read"]
    # Disjointness is always proved against every VP of the cluster:
    # the shared variable's kind does not reach this check, so the
    # weaker per-node proof a NodeShared write would admit is never used.
    scope = "global"

    # -- write/write conflicts across VPs ------------------------------
    reported = set()
    for i, a in enumerate(writes):
        for b in writes[i:]:
            if a.variable != b.variable or _objects_distinct(a, b):
                continue
            if (
                a.kind == "accumulate"
                and b.kind == "accumulate"
                and a.op is not None
                and a.op == b.op
            ):
                # Rule R4: one commutative op combines freely.  Still
                # record whether the combined rows may overlap across
                # VPs — the committed value is certified either way,
                # but an overlapping combine is order-sensitive at the
                # floating-point level, which the zero-merge committer
                # must know (see PhaseSummary.acc_unordered).
                if not _cross_vp_excluded(a, b, scope):
                    if cross_vp_relation(a.iset, b.iset, scope) != "disjoint":
                        phase.acc_unordered = True
                continue
            if _cross_vp_excluded(a, b, scope):
                continue
            rel = cross_vp_relation(a.iset, b.iset, scope)
            if rel == "disjoint":
                continue
            key = (a.lineno, b.lineno, a.variable)
            if key in reported:
                continue
            reported.add(key)
            both_acc = a.kind == "accumulate" and b.kind == "accumulate"
            if rel == "overlap":
                if both_acc:
                    diags.append(_diag(
                        "PPM403", "error",
                        f"accumulate ops {a.op!r} (line {a.lineno}) and "
                        f"{b.op!r} (line {b.lineno}) combine overlapping "
                        f"rows of {a.variable!r}; one phase admits one "
                        "combining operator per element (rule R4)",
                        path, a, seg, phase.kind,
                    ))
                elif a.kind != b.kind:
                    diags.append(_diag(
                        "PPM401", "error",
                        f"plain write (line {min(a.lineno, b.lineno)}) and "
                        f"accumulate (line {max(a.lineno, b.lineno)}) from "
                        f"distinct VPs overlap on {a.variable!r}; the "
                        "committed value depends on VP rank order",
                        path, a, seg, phase.kind,
                    ))
                else:
                    benign = (
                        a.value_sym is not None
                        and a.value_sym == b.value_sym
                        and uniform_for(a.value_sym, scope)
                    )
                    if benign:
                        diags.append(_diag(
                            "PPM401", "warning",
                            f"distinct VPs write identical values to "
                            f"overlapping rows of {a.variable!r} "
                            f"({a.expr}); benign, but one guarded writer "
                            "would make the intent explicit",
                            path, a, seg, phase.kind,
                        ))
                    else:
                        where = (
                            f"lines {a.lineno} and {b.lineno}"
                            if a.lineno != b.lineno
                            else f"line {a.lineno}"
                        )
                        diags.append(_diag(
                            "PPM401", "error",
                            f"distinct VPs write overlapping rows of "
                            f"{a.variable!r} in one phase ({a.expr}, "
                            f"{where}); the committed value depends on VP "
                            "rank order",
                            path, a, seg, phase.kind,
                        ))
            else:  # unknown
                if both_acc and a.op != b.op:
                    diags.append(_diag(
                        "PPM403", "warning",
                        f"accumulate ops {a.op!r} and {b.op!r} on "
                        f"{a.variable!r} may combine common rows "
                        f"(lines {a.lineno}, {b.lineno})",
                        path, a, seg, phase.kind,
                    ))
                else:
                    culprit = a if a.iset == SET_TOP else (
                        b if b.iset == SET_TOP else a
                    )
                    other = b if culprit is a else a
                    if culprit.iset == SET_TOP:
                        msg = (
                            f"cannot analyze index expression "
                            f"`{culprit.expr}` (line {culprit.lineno}); "
                            f"writes to {culprit.variable!r} escape the "
                            "affine domain, so phase disjointness is "
                            "unprovable"
                        )
                    else:
                        msg = (
                            f"cannot prove writes to {culprit.variable!r} "
                            f"disjoint across VPs "
                            f"(`{culprit.expr}` line {culprit.lineno} vs "
                            f"`{other.expr}` line {other.lineno})"
                        )
                    diags.append(_diag(
                        "PPM404", "note", msg, path, culprit, seg, phase.kind,
                    ))

    # -- same-VP read-after-write --------------------------------------
    for w in writes:
        if w.kind != "write":
            continue
        for r in reads:
            if (
                r.variable != w.variable
                or _objects_distinct(r, w)
                or r.stmt_id <= w.stmt_id
                or _same_vp_excluded(r, w)
            ):
                continue
            if same_vp_relation(r.iset, w.iset) == "overlap":
                diags.append(_diag(
                    "PPM402", "warning",
                    f"read of {r.variable} at line {r.lineno} follows "
                    f"a write of the same rows at line {w.lineno} in one "
                    "phase; the read observes the phase-start snapshot "
                    "(rule R1), not the new value",
                    path, r, seg, phase.kind,
                ))
    return diags


def _dependence_edges(phases: list) -> list:
    edges: list[DependenceEdge] = []
    seen = set()
    for i, src in enumerate(phases):
        for dst in phases[i + 1:]:
            for a in src.accesses:
                for b in dst.accesses:
                    if a.variable != b.variable or _objects_distinct(a, b):
                        continue
                    kinds = (a.kind != "read", b.kind != "read")
                    if kinds == (False, False):
                        continue
                    if kinds == (True, False):
                        dep = "RAW"
                    elif kinds == (False, True):
                        dep = "WAR"
                    else:
                        dep = "WAW"
                    if (
                        cross_vp_relation(a.iset, b.iset, "global")
                        == "disjoint"
                        and same_vp_relation(a.iset, b.iset) == "disjoint"
                    ):
                        continue
                    key = (a.variable, src.yield_lineno, dst.yield_lineno, dep)
                    if key in seen:
                        continue
                    seen.add(key)
                    edges.append(DependenceEdge(
                        variable=a.variable,
                        src_phase=src.yield_lineno,
                        dst_phase=dst.yield_lineno,
                        kind=dep,
                    ))
    return edges


# ======================================================================
# Module-level entry points
# ======================================================================
def analyze_module(source: str, path: str = "<source>"):
    """Verify every PPM function of one module.

    Returns ``(diagnostics, summaries)``; functions whose shared
    parameters cannot be resolved from the module's ``ppm.do`` sites
    are skipped (the lint layer reports those separately).
    """
    return _analyze_model(build_module_model(source, path))


def _analyze_model(model):
    diags: list[Diagnostic] = []
    summaries: list[KernelSummary] = []
    for fn in model.functions:
        if not fn.shared_params:
            continue
        d, s = analyze_function(fn, model.path)
        diags.extend(d)
        summaries.append(s)
    diags.sort(key=lambda d: (d.path or "", d.line or 0, d.rule))
    return diags, summaries


def verify_source(source: str, path: str = "<source>"):
    """Lint + dataflow verification of one module's source, both over
    one module model (building it, parse included, is 23-24 % of this
    call on the six apps, so the second build a separate lint would
    pay is worth avoiding)."""
    try:
        model = build_module_model(source, path)
    except SyntaxError as exc:
        return [unparsable(exc, path)], []
    lint_diags = lint_model(model)
    flow_diags, summaries = _analyze_model(model)
    return lint_diags + flow_diags, summaries


def verify_file(path: str):
    with open(path, encoding="utf-8") as fh:
        return verify_source(fh.read(), path=path)


def verify_paths(paths: list[str]):
    from repro.analysis.lint import iter_python_files

    diags: list[Diagnostic] = []
    summaries: list[KernelSummary] = []
    for path in iter_python_files(paths):
        d, s = verify_file(path)
        diags.extend(d)
        summaries.extend(s)
    return diags, summaries
