"""Symbolic access summaries: the affine domain of the dataflow verifier.

The static verifier (:mod:`repro.analysis.dataflow`) abstracts every
index expression of a PPM kernel into a small symbolic language and
every shared-variable access into an *index set* over that language.
This module is the domain itself: symbolic values, their normalisation,
a lightweight inequality prover, and the cross-VP relation test that
decides whether two accesses from distinct virtual processors can
touch a common array row.

Symbolic values are canonical nested tuples (hashable, comparable):

``("top",)``
    unknown, possibly rank-dependent (the top element of the domain);
``("const", c)``
    the integer ``c``;
``("sym", key)`` / ``("nodesym", key)``
    an opaque value that is identical for every VP in the phase /
    for every VP on one node (e.g. problem sizes vs ``ctx.node_id``);
``("rank", kind)``
    ``ctx.node_rank`` (``kind="node"``) or ``ctx.global_rank``;
``("nodelo", pk)`` / ``("nodehi", pk)``
    the bounds of a shared array's node block,
    ``X.local_range(ctx.node_id)``, keyed by the array ``pk``;
``("extent", pk)``
    the axis-0 extent of the shared array keyed by ``pk`` (the bounds
    verifier's upper fence; node blocks always lie inside it);
``("splitlo", sk)`` / ``("splithi", sk)``
    the bounds of ``split_range(span, count)[rank]``, keyed by
    ``sk = (span, count, rank_kind)``;
``("add", ((atom, coeff), ...), c)``
    a normalised linear combination plus integer constant;
``("max", atoms)`` / ``("min", atoms)``
    pointwise max/min of the argument values.

Index sets (always axis-0 rows, the granularity of the dynamic
sanitizer) are:

``("topset",)``  unknown rows; ``("whole",)``  every row;
``("pt", v)``    the single row ``v``;
``("iv", lo, hi)``     exactly the rows ``[lo, hi)``;
``("ivsub", lo, hi)``  an unknown subset of ``[lo, hi)``.

The prover (:func:`le`) is deliberately small: structural equality
after normalisation, constant folding, max/min decomposition, and
difference cancellation against the axioms of the domain
(``0 <= splitlo <= splithi <= span``, ``0 <= nodelo <= nodehi``).
Everything it cannot prove is reported "unknown", never "disjoint" —
soundness over completeness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# ======================================================================
# Symbolic values
# ======================================================================
TOP = ("top",)

#: Uniformity classes: 0 = identical on every VP of the phase,
#: 1 = identical on every VP of one node, 2 = may differ per VP.
U_GLOBAL, U_NODE, U_RANK = 0, 1, 2


def s_const(c) -> tuple:
    return ("const", int(c))


def s_sym(key) -> tuple:
    return ("sym", key)


def s_nodesym(key) -> tuple:
    return ("nodesym", key)


def s_rank(kind: str) -> tuple:
    assert kind in ("node", "global")
    return ("rank", kind)


def s_extent(pk) -> tuple:
    return ("extent", pk)


def is_const(v, c=None) -> bool:
    return v[0] == "const" and (c is None or v[1] == c)


def _linearize(v) -> tuple[dict, int] | None:
    """``v`` as ``{atom: coeff} + const``; None when TOP is involved."""
    if v == TOP:
        return None
    if v[0] == "const":
        return {}, v[1]
    if v[0] == "add":
        return dict(v[1]), v[2]
    if v[0] == "neg":
        lin = _linearize(v[1])
        if lin is None:
            return None
        terms, c = lin
        return {a: -k for a, k in terms.items()}, -c
    if v[0] == "mul":
        c0, x = v[1], v[2]
        lin = _linearize(x)
        if lin is None:
            return None
        terms, c = lin
        return {a: c0 * k for a, k in terms.items()}, c0 * c
    return {v: 1}, 0


def _from_linear(terms: dict, c: int) -> tuple:
    terms = {a: k for a, k in terms.items() if k != 0}
    if not terms:
        return s_const(c)
    if len(terms) == 1 and c == 0:
        (atom, k), = terms.items()
        if k == 1:
            return atom
        if k == -1:
            return ("neg", atom)
        return ("mul", k, atom)
    packed = tuple(sorted(terms.items(), key=repr))
    return ("add", packed, c)


def s_add(*vs) -> tuple:
    terms: dict = {}
    c = 0
    for v in vs:
        lin = _linearize(v)
        if lin is None:
            return TOP
        t, k = lin
        for a, n in t.items():
            terms[a] = terms.get(a, 0) + n
        c += k
    return _from_linear(terms, c)


def s_neg(v) -> tuple:
    if v == TOP:
        return TOP
    lin = _linearize(v)
    if lin is None:
        return TOP
    terms, c = lin
    return _from_linear({a: -k for a, k in terms.items()}, -c)


def s_sub(a, b) -> tuple:
    return s_add(a, s_neg(b))


def s_mul(a, b) -> tuple:
    if is_const(a) and is_const(b):
        return s_const(a[1] * b[1])
    for c, x in ((a, b), (b, a)):
        if is_const(c):
            if c[1] == 0:
                return s_const(0)
            if c[1] == 1:
                return x
            lin = _linearize(x)
            if lin is None:
                return TOP
            terms, k = lin
            return _from_linear(
                {at: c[1] * n for at, n in terms.items()}, c[1] * k
            )
    return TOP


def _s_extreme(tag: str, vs) -> tuple:
    flat: list = []
    for v in vs:
        if v == TOP:
            return TOP
        if v[0] == tag:
            flat.extend(v[1])
        else:
            flat.append(v)
    consts = [v[1] for v in flat if is_const(v)]
    rest = sorted({v for v in flat if not is_const(v)}, key=repr)
    if consts:
        c = (max if tag == "max" else min)(consts)
        rest.append(s_const(c))
        rest.sort(key=repr)
    if len(rest) == 1:
        return rest[0]
    return (tag, tuple(rest))


def s_max(*vs) -> tuple:
    return _s_extreme("max", vs)


def s_min(*vs) -> tuple:
    return _s_extreme("min", vs)


# ======================================================================
# Structure helpers: uniformity class, substitution
# ======================================================================
def vclass(v) -> int:
    """Uniformity class of a symbolic value (worst leaf wins)."""
    if not isinstance(v, tuple):
        return U_GLOBAL
    tag = v[0] if v and isinstance(v[0], str) else None
    if tag in ("top", "rank", "splitlo", "splithi"):
        return U_RANK
    if tag in ("nodelo", "nodehi", "nodesym"):
        return U_NODE
    if tag == "sym":
        # Opaque-but-uniform by construction; its key is identity
        # material, not a value to classify.
        return U_GLOBAL
    return max((vclass(x) for x in v), default=U_GLOBAL)


def _walk_tuples(v):
    yield v
    if isinstance(v, tuple):
        for x in v:
            yield from _walk_tuples(x)


def uniform_for(v, scope: str) -> bool:
    """Is ``v`` provably identical across the VPs the phase relates?

    ``scope="global"`` relates all VPs cluster-wide; ``scope="node"``
    relates only VPs of one node (node-block bounds then count as
    uniform)."""
    c = vclass(v)
    return c == U_GLOBAL if scope == "global" else c <= U_NODE


def subst(v, mapping: dict):
    """Substitute whole symbolic sub-trees (e.g. a loop variable's
    placeholder sym) throughout ``v``, including inside sym keys."""
    if not isinstance(v, tuple):
        return v
    if v in mapping:
        return mapping[v]
    out = tuple(subst(x, mapping) for x in v)
    if out and isinstance(out[0], str) and out[0] in (
        "add", "max", "min", "neg", "mul", "const"
    ):
        # Re-normalise: substitution may enable folding/cancellation.
        if out[0] == "add":
            return s_add(
                *(s_mul(s_const(k), a) for a, k in out[1]), s_const(out[2])
            )
        if out[0] == "max":
            return s_max(*out[1])
        if out[0] == "min":
            return s_min(*out[1])
        if out[0] == "neg":
            return s_neg(out[1])
        if out[0] == "mul":
            return s_mul(s_const(out[1]), out[2])
    return out


# ======================================================================
# The prover
# ======================================================================
def _atom_nonneg(atom, coeff: int) -> bool:
    if coeff < 0:
        return False
    tag = atom[0]
    if tag in ("splitlo", "splithi", "nodelo", "nodehi", "extent", "rank"):
        return True
    if tag == "const":
        return atom[1] >= 0
    if tag == "max":
        return any(_atom_nonneg(a, 1) for a in atom[1])
    if tag == "min":
        return all(_atom_nonneg(a, 1) for a in atom[1])
    return False


def _atom_ge(p, n, depth: int) -> bool:
    """``p >= n`` for single atoms, from the domain's axioms."""
    if p == n:
        return True
    if n[0] == "splitlo" and p[0] == "splithi" and p[1] == n[1]:
        return True
    if n[0] == "nodelo" and p[0] == "nodehi" and p[1] == n[1]:
        return True
    # Node blocks lie inside the array: extent >= nodehi >= nodelo.
    if n[0] in ("nodelo", "nodehi") and p == ("extent", n[1]):
        return True
    # split_range(span, count) bounds never exceed span.
    if n[0] in ("splitlo", "splithi") and p == n[1][0]:
        return True
    if p[0] == "max" and any(_atom_ge(a, n, depth + 1) for a in p[1]):
        return True
    if n[0] == "min" and any(_atom_ge(p, a, depth + 1) for a in n[1]):
        return True
    return False


def le(a, b, depth: int = 0) -> bool:
    """Prove ``a <= b``.  False means "could not prove", not ``a > b``."""
    if depth > 8 or a == TOP or b == TOP:
        return False
    if a == b:
        return True
    if is_const(a) and is_const(b):
        return a[1] <= b[1]
    if b[0] == "max" and any(le(a, t, depth + 1) for t in b[1]):
        return True
    if a[0] == "min" and any(le(t, b, depth + 1) for t in a[1]):
        return True
    if a[0] == "max" and all(le(t, b, depth + 1) for t in a[1]):
        return True
    if b[0] == "min" and all(le(a, t, depth + 1) for t in b[1]):
        return True
    return _prove_nonneg(s_sub(b, a), depth)


def _prove_nonneg(diff, depth: int) -> bool:
    """Prove ``diff >= 0`` by greedy axiom discharge, falling back to
    sound relaxations (split bounds -> spans, max/min case splits)."""
    if depth > 8 or diff == TOP:
        return False
    lin = _linearize(diff)
    if lin is None:
        return False
    terms, c = lin
    pos = [(at, k) for at, k in terms.items() if k > 0]
    neg = [(at, -k) for at, k in terms.items() if k < 0]
    if c >= 0:
        # Greedily discharge each negative atom against a positive one
        # that dominates it (axiom pairs), multiplicity-respecting.
        rem = list(pos)
        ok = True
        for at, k in neg:
            matched = False
            for i, (p, pk) in enumerate(rem):
                if pk >= k and _atom_ge(p, at, depth):
                    rem[i] = (p, pk - k)
                    matched = True
                    break
            if not matched:
                ok = False
                break
        if ok and all(_atom_nonneg(p, k) for p, k in rem if k > 0):
            return True
    # Relaxation 1: split_range bounds never exceed their span, so a
    # *negatively*-weighted splitlo/splithi atom may be replaced by the
    # span symbol (``-k*split >= -k*span``), which often cancels the
    # nodelo/nodehi pair the span was built from.
    relaxed = {
        at: at[1][0]
        for at, k in terms.items()
        if k < 0 and at[0] in ("splitlo", "splithi")
    }
    if relaxed:
        diff2 = subst(diff, relaxed)
        if diff2 != diff and _prove_nonneg(diff2, depth + 1):
            return True
    # Relaxation 2: a max/min atom always equals one of its members, so
    # proving the inequality under *every* member substitution proves
    # it outright (and a positively-weighted max, or negatively-weighted
    # min, needs only one member as a lower bound).
    for at, k in terms.items():
        if at[0] not in ("max", "min"):
            continue
        one_sided = (k > 0) == (at[0] == "max")
        results = [
            _prove_nonneg(subst(diff, {at: member}), depth + 1)
            for member in at[1]
        ]
        if (any(results) if one_sided else all(results)):
            return True
        break  # case-split on the first extreme atom only
    return False


def ge(a, b) -> bool:
    return le(b, a)


# ======================================================================
# Index sets
# ======================================================================
SET_TOP = ("topset",)
SET_WHOLE = ("whole",)


def iset_pt(v) -> tuple:
    return SET_TOP if v == TOP else ("pt", v)


def iset_iv(lo, hi, exact: bool = True) -> tuple:
    if lo == TOP or hi == TOP:
        return SET_TOP
    return ("iv" if exact else "ivsub", lo, hi)


def iset_bounds(s) -> tuple | None:
    """``(lo, hi)`` with the set contained in ``[lo, hi)``, or None."""
    if s[0] in ("iv", "ivsub"):
        return s[1], s[2]
    if s[0] == "pt":
        return s[1], s_add(s[1], s_const(1))
    return None


def iset_nonempty(s) -> bool:
    """Definitely non-empty (needed to *prove* an overlap)."""
    if s[0] == "pt":
        return True
    if s[0] == "whole":
        return True  # zero-length shared arrays do not occur
    if s[0] == "iv":
        return is_const(s[1]) and is_const(s[2]) and s[1][1] < s[2][1]
    return False


def iset_class(s, scope: str) -> int:
    if s[0] in ("topset",):
        return U_RANK
    if s[0] == "whole":
        return U_GLOBAL
    parts = s[1:]
    return max(vclass(p) for p in parts)


# ----------------------------------------------------------------------
# Chunk families: B + split_range(span, count)[rank]
# ----------------------------------------------------------------------
def _find_family(lo):
    """``lo == B + splitlo(sk)`` -> ``(B, sk)``; else None."""
    lin = _linearize(lo)
    if lin is None:
        return None
    terms, c = lin
    splits = [a for a, k in terms.items() if a[0] == "splitlo" and k == 1]
    if len(splits) != 1:
        return None
    sk = splits[0][1]
    rest = {a: k for a, k in terms.items() if a != splits[0]}
    return _from_linear(rest, c), sk


def chunk_family(s, scope: str):
    """The validated chunk family ``(B, sk)`` containing index set
    ``s``, or None.  Two accesses in the same family are disjoint
    across distinct VPs of the scope."""
    bounds = iset_bounds(s)
    if bounds is None:
        return None
    lo, hi = bounds
    cands = [lo]
    if lo[0] == "max":
        cands.extend(lo[1])
    for lc in cands:
        fam = _find_family(lc)
        if fam is None:
            continue
        base, sk = fam
        chunk_hi = s_add(base, ("splithi", sk))
        if le(hi, chunk_hi) and ge(lo, lc) and _family_valid(base, sk, scope):
            return (base, sk)
    return None


def _span_nonempty(span):
    """The span with the ``max(0, x)`` emptiness clamp peeled off —
    valid under the assumption the chunk is non-empty."""
    if span[0] == "max":
        args = [a for a in span[1] if not (is_const(a) and a[1] <= 0)]
        if len(args) == 1:
            return args[0]
    return span


def _family_valid(base, sk, scope: str) -> bool:
    span, _count, rank_kind = sk
    if rank_kind == "global":
        # Distinct VPs have distinct global ranks everywhere.
        return uniform_for(base, scope)
    if rank_kind != "node":
        return False
    if scope == "node":
        return uniform_for(base, "node")
    # Global scope, node-rank split: every (non-empty) chunk must lie
    # inside its node's block of some array, and node blocks partition
    # the index space — so chunks of distinct VPs stay disjoint.
    ub = s_add(base, _span_nonempty(span))
    for atom in _walk_tuples(base):
        if isinstance(atom, tuple) and atom and atom[0] == "nodelo":
            pk = atom[1]
            if ge(base, ("nodelo", pk)) and le(ub, ("nodehi", pk)):
                return True
    return False


# ----------------------------------------------------------------------
# Rank-linear profile: index = coeff * rank + uniform
# ----------------------------------------------------------------------
def _ranklin(s, scope: str):
    """``(kind, coeff, width)`` when the set is an interval of width
    ``width`` sliding linearly in the VP rank, or None."""
    bounds = iset_bounds(s)
    if bounds is None:
        return None
    lo, hi = bounds
    lin_lo, lin_hi = _linearize(lo), _linearize(hi)
    if lin_lo is None or lin_hi is None:
        return None
    terms_lo, _ = lin_lo
    ranks = [(a, k) for a, k in terms_lo.items() if a[0] == "rank"]
    if len(ranks) != 1:
        return None
    (atom, coeff) = ranks[0]
    width = s_sub(hi, lo)
    # The non-rank remainder must be uniform and match between lo/hi.
    if vclass(width) != U_GLOBAL:
        return None
    rest = s_sub(lo, ("mul", coeff, atom) if coeff != 1 else atom)
    if not uniform_for(rest, scope):
        return None
    kind = atom[1]
    if kind == "node" and scope == "global":
        return None  # same node_rank recurs on every node
    return kind, coeff, width


# ----------------------------------------------------------------------
# Cross-VP relation
# ----------------------------------------------------------------------
def cross_vp_relation(a, b, scope: str) -> str:
    """Can two *distinct* VPs of the phase scope touch a common row,
    one through set ``a``, the other through ``b``?

    Returns ``"disjoint"`` (proven impossible), ``"overlap"`` (proven
    possible) or ``"unknown"``.  ``a is b`` poses the self-pair
    question: the same static access executed by two distinct VPs.
    """
    if a[0] == "topset" or b[0] == "topset":
        return "unknown"
    ca, cb = iset_class(a, scope), iset_class(b, scope)
    uniform_a = ca == U_GLOBAL or (scope == "node" and ca <= U_NODE)
    uniform_b = cb == U_GLOBAL or (scope == "node" and cb <= U_NODE)
    if uniform_a and uniform_b:
        # Both VPs address the very same set.
        if a == b:
            return "overlap" if iset_nonempty(a) else "unknown"
        return _const_relation(a, b)
    fa = chunk_family(a, scope)
    if fa is not None and fa == chunk_family(b, scope):
        return "disjoint"
    ra, rb = _ranklin(a, scope), _ranklin(b, scope)
    if ra is not None and ra == rb is not None:
        kind, coeff, width = ra
        if is_const(width) and width[1] <= abs(coeff):
            return "disjoint"
    return "unknown"


def _const_relation(a, b) -> str:
    """Exact relation of two fully-constant sets, else unknown."""
    ba, bb = iset_bounds(a), iset_bounds(b)
    if a[0] == "whole" and iset_nonempty(b):
        return "overlap"
    if b[0] == "whole" and iset_nonempty(a):
        return "overlap"
    if ba is None or bb is None:
        return "unknown"
    (lo1, hi1), (lo2, hi2) = ba, bb
    if le(hi1, lo2) or le(hi2, lo1):
        return "disjoint"
    if all(is_const(v) for v in (lo1, hi1, lo2, hi2)):
        inter_lo = max(lo1[1], lo2[1])
        inter_hi = min(hi1[1], hi2[1])
        if inter_lo < inter_hi and a[0] in ("pt", "iv") and b[0] in ("pt", "iv"):
            return "overlap"
    return "unknown"


def same_vp_relation(a, b) -> str:
    """Relation of two sets as addressed by *one* VP (for the
    read-after-write check): identical symbols denote equal values."""
    if a[0] == "topset" or b[0] == "topset":
        return "unknown"
    if a == b:
        return "overlap" if a[0] in ("pt", "whole") or a[0] == "iv" else "unknown"
    if a[0] == "whole" and iset_nonempty(b):
        return "overlap"
    if b[0] == "whole" and iset_nonempty(a):
        return "overlap"
    ba, bb = iset_bounds(a), iset_bounds(b)
    if ba and bb and (le(ba[1], bb[0]) or le(bb[1], ba[0])):
        return "disjoint"
    return "unknown"


# ======================================================================
# Pretty-printing
# ======================================================================
def fmt_sym(v) -> str:
    if not isinstance(v, tuple):
        return str(v)
    tag = v[0]
    if tag == "top":
        return "?"
    if tag == "const":
        return str(v[1])
    if tag in ("sym", "nodesym"):
        key = v[1]
        if isinstance(key, tuple) and key and key[0] == "expr":
            return str(key[1])
        return str(key)
    if tag == "rank":
        return f"{v[1]}_rank"
    if tag == "extent":
        return f"len({_fmt_key(v[1])})"
    if tag in ("nodelo", "nodehi"):
        which = "lo" if tag == "nodelo" else "hi"
        return f"block_{which}({_fmt_key(v[1])})"
    if tag in ("splitlo", "splithi"):
        which = "lo" if tag == "splitlo" else "hi"
        return f"chunk_{which}({fmt_sym(v[1][0])}/{fmt_sym(v[1][1])})"
    if tag == "neg":
        return f"-{fmt_sym(v[1])}"
    if tag == "mul":
        return f"{v[1]}*{fmt_sym(v[2])}"
    if tag == "add":
        parts = [
            (f"{k}*" if k not in (1, -1) else ("-" if k == -1 else ""))
            + fmt_sym(a)
            for a, k in v[1]
        ]
        if v[2]:
            parts.append(str(v[2]))
        return " + ".join(parts).replace("+ -", "- ")
    if tag in ("max", "min"):
        return f"{tag}({', '.join(fmt_sym(a) for a in v[1])})"
    return repr(v)


def _fmt_key(key) -> str:
    if isinstance(key, tuple):
        return ",".join(_fmt_key(k) for k in key if k is not None)
    return str(key)


# ======================================================================
# Summary records
# ======================================================================
@dataclass(frozen=True)
class AccessSummary:
    """One shared-variable access with its symbolic index set."""

    variable: str  # parameter name of the shared array
    obj_index: object  # container element index (symbolic) or None
    kind: str  # "read" | "write" | "accumulate"
    op: str | None  # accumulate op name, when statically known
    iset: tuple  # the symbolic index set
    lineno: int
    stmt_id: int
    guards: tuple  # guard frames, outermost first
    expr: str  # source text of the index expression
    value_sym: object = None  # symbolic RHS value (plain writes only)
    value_width: object = None  # symbolic axis-1 width of the RHS, if known
    value_float: bool = False  # RHS provably floating-point (dtype check)


@dataclass
class PhaseSummary:
    """Everything the verifier derived about one phase segment."""

    yield_lineno: int  # 0 = the single phase of a plain PPM function
    kind: str | None  # "global" | "node" | None (unknown)
    accesses: list = field(default_factory=list)
    certified: bool = False
    blockers: list = field(default_factory=list)  # Diagnostics
    #: Certified via rule R4 with rows that may *overlap* across VPs:
    #: same-operator accumulates combine freely (the committed value is
    #: order-independent for the simulated semantics), but the
    #: floating-point combination *order* is the global VP-rank order.
    #: Consumers that re-order the commit (the zero-merge worker-side
    #: committer) must treat such phases as uncommittable locally.
    acc_unordered: bool = False


@dataclass(frozen=True)
class DependenceEdge:
    """A cross-phase dependence on one shared variable."""

    variable: str
    src_phase: int  # yield lineno of the earlier phase
    dst_phase: int
    kind: str  # "RAW" | "WAR" | "WAW"


@dataclass
class KernelSummary:
    """Per-kernel verification result."""

    name: str
    path: str
    phases: list = field(default_factory=list)  # PhaseSummary
    edges: list = field(default_factory=list)  # DependenceEdge
    analyzable: bool = True
    reason: str | None = None  # why no certificate is possible

    @property
    def certified(self) -> bool:
        return self.analyzable and all(p.certified for p in self.phases)

    @property
    def certified_lines(self) -> frozenset:
        return frozenset(
            p.yield_lineno for p in self.phases if self.analyzable and p.certified
        )
