"""Overlap certificates: the bridge from static proofs to the runtime.

:func:`certificate_for` runs the :mod:`repro.analysis.dataflow`
verifier over the *live* function handed to ``ppm.do`` — classifying
its actual runtime arguments instead of statically resolving the
``do`` site — and returns a :class:`KernelCertificate` naming the
phases (by ``yield`` source line) that are proven conflict-free.

``run_ppm(..., sanitize="auto")`` consults the certificate each phase
round: when every active VP is suspended at a certified yield of the
certified code object, the dynamic per-phase conflict check is
skipped and the scheduler may treat the phase's communication as
certified-overlappable.  Any VP sitting at an uncertified yield — or
any analysis failure at all — falls back to the full ``"strict"``
dynamic check, so ``"auto"`` is never less safe than ``"strict"``.
"""

from __future__ import annotations

import ast
import functools
import inspect
import textwrap
from dataclasses import dataclass, field

from repro.analysis.lint import FunctionModel, PhaseYield, SharedVar, _yield_kind

__all__ = ["KernelCertificate", "certificate_for"]

_CACHE_ATTR = "__ppm_certificates__"


@dataclass(frozen=True)
class KernelCertificate:
    """Static conflict-freedom proof for one kernel's phases."""

    name: str
    code: object  # the kernel's code object (None for plain functions)
    whole: bool  # every phase of the kernel is certified
    certified: dict = field(default_factory=dict)  # yield lineno -> kind
    summary: object = None  # the KernelSummary behind the proof
    #: Certified yield linenos whose proof leaned on rule R4 with rows
    #: that may overlap across VPs (same-op accumulates combining
    #: common elements).  The committed *value* is still certified, but
    #: the floating-point combine order is the global rank order — so
    #: these phases are excluded from worker-local (zero-merge)
    #: commits, which would reorder the combination.
    unordered: frozenset = frozenset()

    def round_flags(self, vps, kind: str) -> tuple:
        """``(certified, zero_merge)`` of one phase round, read off the
        suspended frames of ``vps`` in a single pass; ``(None, None)``
        when none of them is active (the caller has no vote).

        *certified*: every active VP is suspended at a certified yield
        of the certified code object.  *zero_merge* strengthens it for
        the worker-local commit: every active VP also sits at a phase
        whose certified writes are provably *disjoint* across VPs (no
        R4-blessed overlapping accumulates), so a per-shard commit
        applies each element's operations in the same order the global
        rank-ordered commit would."""
        whole = self.whole
        unordered = self.unordered
        # Plain-function certificates cannot match lines; any
        # order-sensitive phase disables zero-merge for the kernel.
        zero_merge = not (whole and unordered)
        any_active = False
        for vp in vps:
            if vp.done:
                continue
            any_active = True
            if whole:
                continue
            frame = getattr(vp.gen, "gi_frame", None)
            if frame is None or frame.f_code is not self.code:
                return (False, False)
            lineno = frame.f_lineno
            if self.certified.get(lineno) != kind:
                return (False, False)
            if lineno in unordered:
                zero_merge = False
        if not any_active:
            return (None, None)
        return (True, zero_merge)


def _classify_arg(value) -> tuple[str, bool] | None:
    """(kind, container) when ``value`` is a shared handle (or a
    homogeneous list/tuple of them)."""
    from repro.core.shared import GlobalShared, NodeShared

    if isinstance(value, GlobalShared):
        return "global", False
    if isinstance(value, NodeShared):
        return "node", False
    if (
        isinstance(value, (list, tuple))
        and value
        and all(isinstance(v, (GlobalShared, NodeShared)) for v in value)
    ):
        kinds = {"global" if isinstance(v, GlobalShared) else "node" for v in value}
        if len(kinds) == 1:
            return kinds.pop(), True
    return None


def _unwrap(func):
    """Peel ``functools.partial`` layers; returns (inner, bound_args,
    bound_kwargs) with positional args in final call order."""
    pargs: list = []
    pkwargs: dict = {}
    while isinstance(func, functools.partial):
        pargs = list(func.args) + pargs
        merged = dict(func.keywords or {})
        merged.update(pkwargs)
        pkwargs = merged
        func = func.func
    return func, pargs, pkwargs


def certificate_for(func, args: tuple, kwargs: dict | None = None):
    """Analyze ``func`` as invoked by ``ppm.do(K, func, *args)``.

    Returns a :class:`KernelCertificate`, or ``None`` when the kernel
    cannot be analyzed (source unavailable, unparseable, or the
    verifier reports conflicts/unknowns).  ``None`` means "run the
    full dynamic check", never "assume safe".
    """
    inner, pargs, pkwargs = _unwrap(func)
    if not callable(inner) or isinstance(inner, type):
        return None
    classification = (
        tuple(_classify_arg(a) for a in pargs),
        tuple(_classify_arg(a) for a in args),
        tuple(sorted((k, _classify_arg(v)) for k, v in (pkwargs or {}).items())),
        tuple(sorted((k, _classify_arg(v)) for k, v in (kwargs or {}).items())),
    )
    cache = getattr(inner, _CACHE_ATTR, None)
    if cache is not None and classification in cache:
        return cache[classification]
    cert = _build_certificate(inner, pargs, pkwargs, args, kwargs or {})
    try:
        if cache is None:
            cache = {}
            setattr(inner, _CACHE_ATTR, cache)
        cache[classification] = cert
    except (AttributeError, TypeError):  # builtins, slotted callables
        pass
    return cert


def _decl_facts(value) -> tuple[int | None, str | None, str]:
    """(extent, size_expr, dtype) observed from a live shared handle;
    arrays with equal axis-0 extents share one extent group."""
    data = getattr(value, "_data", None)
    shape = getattr(data, "shape", None)
    if not shape:
        return None, None, "float"
    extent = int(shape[0])
    kind = getattr(getattr(data, "dtype", None), "kind", "f")
    dtype = "int" if kind in ("i", "u") else "float"
    return extent, str(extent), dtype


def _build_certificate(inner, pargs, pkwargs, do_args, do_kwargs):
    from repro.analysis.dataflow import analyze_function

    try:
        lines, start = inspect.getsourcelines(inner)
        source = textwrap.dedent("".join(lines))
        tree = ast.parse(source)
    except (OSError, TypeError, SyntaxError, IndentationError):
        return None
    ast.increment_lineno(tree, start - 1)
    fn_node = next(
        (
            n
            for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ),
        None,
    )
    if not isinstance(fn_node, ast.FunctionDef):
        return None

    params = [a.arg for a in fn_node.args.args]
    # partial(f, p1..pk)(ctx, *do_args): params[:k] take the partial's
    # positional args, params[k] is the context, the rest take do args.
    k = len(pargs)
    if k >= len(params):
        return None
    binding: dict[str, object] = {}
    for name, value in zip(params[:k], pargs):
        binding[name] = value
    ctx_name = params[k]
    for name, value in zip(params[k + 1:], do_args):
        binding[name] = value
    for name, value in {**pkwargs, **do_kwargs}.items():
        binding.setdefault(name, value)

    shared_params: dict[str, SharedVar] = {}
    for name, value in binding.items():
        cls = _classify_arg(value)
        if cls is not None:
            extent, size_expr, dtype = (
                (None, None, "float") if cls[1] else _decl_facts(value)
            )
            shared_params[name] = SharedVar(
                name=name, kind=cls[0], container=cls[1],
                lineno=fn_node.lineno, extent=extent,
                size_expr=size_expr, dtype=dtype,
            )
    if not shared_params:
        # Nothing shared: the kernel cannot conflict with anyone.
        return KernelCertificate(
            name=fn_node.name, code=inner.__code__, whole=True
        )

    yields = [
        PhaseYield(lineno=n.lineno, kind=_yield_kind(n.value))
        for n in ast.walk(fn_node)
        if isinstance(n, ast.Yield)
    ]
    yields.sort(key=lambda y: y.lineno)
    if any(y.kind is None for y in yields):
        return None
    fn = FunctionModel(
        node=fn_node,
        name=fn_node.name,
        ctx_name=ctx_name,
        shared_params=shared_params,
        yields=yields,
    )
    path = getattr(inner, "__code__", None)
    path = path.co_filename if path is not None else "<live>"
    try:
        _diags, summary = analyze_function(fn, path)
    except Exception:  # never let analysis break execution
        return None
    if not summary.analyzable:
        return KernelCertificate(
            name=fn_node.name, code=inner.__code__, whole=False,
            certified={}, summary=summary,
        )
    certified = {
        ph.yield_lineno: ph.kind for ph in summary.phases if ph.certified
    }
    unordered = frozenset(
        ph.yield_lineno
        for ph in summary.phases
        if ph.certified and ph.acc_unordered
    )
    if not yields:
        # Plain function: ``do`` wraps it in a single implicit phase
        # whose yield lives in the runtime wrapper, so line-level
        # matching is impossible; certify all-or-nothing instead.
        whole = bool(summary.phases) and all(
            ph.certified for ph in summary.phases
        )
        return KernelCertificate(
            name=fn_node.name, code=inner.__code__, whole=whole,
            certified={}, summary=summary, unordered=unordered,
        )
    whole = bool(summary.phases) and all(ph.certified for ph in summary.phases)
    # Even a fully certified generator kernel keeps per-line checking:
    # the frame test is what ties the static proof to the running code.
    return KernelCertificate(
        name=fn_node.name, code=inner.__code__, whole=False,
        certified=certified, summary=summary, unordered=unordered,
    )
