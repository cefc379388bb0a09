"""Certified countermodels against the commutation and Church-Rosser schemes.

Products of the sequence spaces separate the fusion from the product logic:
at the all-zero anchor, the stabilization-rank valuation

    p(alpha', beta')  iff  beta' = beta0  or  st(beta') >= st(alpha')

makes [1][2]p true but [2][1]p false, and its punctured variant (additionally
requiring alpha' != alpha0) kills <1>[2]p -> [2]<1>p. The failing directions
need arbitrarily deep points, which is why no finite product exhibits them.

A certificate discharges every quantifier layer of those two claims over
explicit witnesses: universally quantified base-set indices run to a bound,
universally quantified members run over an enumeration window, and every
existential choice is a concrete constructed point that is re-checked for
membership. The certificates work on the stored tuples of the coordinates
(st is the length + 1) and read their members from the all-zero anchor's
rows of an omega.MembershipTable over the sequences with support <= d_enum,
the rows the window lemmas read.

The valuations are rank valuations: at the all-zero anchor they read only
the lengths of the two stored tuples (a coordinate equals the anchor's iff
its length is 0), so they refuse any other anchor. A bounded evaluator
computes the same truth values by blind recursion over the formula as a
cross-check. The stored lengths of the members of U_k(c) are exactly
{len(c) if the kind is reflexive} and every length from max(k, st(c)) + 1
on, whatever the tree shape, the branching or the entries of c, so the
evaluator's window is a set of lengths: it enumerates no suffix and never
meets the sequence budget. Its true@bounds / false@bounds labels and their
one-sided meaning stay as they were; an exact evaluator for rank valuations
is ROADMAP open item 5.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable

from .formula import OP_ATOM, OP_BOTTOM, OP_IMPLIES, Formula, compile_formula
from .kripke import SymbolicTreeFrame
from .omega import (MembershipTable, ProductPoint, _enumerate_stored, _fw, _u_fast,
                    point_json, zero_seq)

Stored = tuple[int, ...]
Rows = Callable[[int], list[Stored]]


@dataclass(frozen=True)
class Bounds:
    m_max: int = 8
    k_max: int = 8
    d_enum: int = 4

    def __post_init__(self) -> None:
        if self.m_max < 1 or self.k_max < 1 or self.d_enum < 1:
            raise ValueError("bounds must be positive")

    def to_dict(self) -> dict[str, int]:
        return {"m": self.m_max, "k": self.k_max, "d": self.d_enum}


DEFAULT_BOUNDS = Bounds()


@dataclass
class SymbolicValuation:
    """Valuation of the single atom p as a rank predicate: rank(len_a, len_b)
    on the lengths of the coordinates' stored tuples."""

    name: str
    rank: Callable[[int, int], bool]

    def contains(self, q: ProductPoint) -> bool:
        return self.rank(len(q.first.stored), len(q.second.stored))


def _require_zero_anchor(anchor: ProductPoint) -> None:
    """The stabilization-rank valuations read alpha0 and beta0 as length 0."""
    if anchor.first.stored or anchor.second.stored:
        raise ValueError("rank valuations are defined at the all-zero anchor")


def st_com_valuation(anchor: ProductPoint) -> SymbolicValuation:
    _require_zero_anchor(anchor)
    return SymbolicValuation("st_com", lambda la, lb: lb == 0 or lb >= la)


def st_chr_valuation(anchor: ProductPoint) -> SymbolicValuation:
    _require_zero_anchor(anchor)
    return SymbolicValuation("st_chr", lambda la, lb: la > 0 and (lb == 0 or lb >= la))


def const_true_valuation(anchor: ProductPoint) -> SymbolicValuation:
    """Sanity control: under p = everywhere-true no consequent can fail."""
    return SymbolicValuation("const_true", lambda la, lb: True)


@dataclass
class Certificate:
    """The quantifier layers checked so far, in order; a rejected
    certificate ends at the layer that failed."""

    axiom: str
    kinds: tuple[str, str]
    branchings: tuple[int, int]
    anchor: ProductPoint
    valuation: str
    bounds: Bounds
    layers: list[dict[str, Any]] = field(default_factory=list)
    accepted: bool = True
    failure: dict[str, Any] | None = None

    def layer(self, name: str, **fields: Any) -> dict[str, Any]:
        """Open the next layer; its checks count into the returned entry."""
        entry = {"name": name, "checked": 0, "ok": True, **fields}
        self.layers.append(entry)
        return entry

    def reject(self, failure: dict[str, Any]) -> Certificate:
        """Fail the open layer, and with it the certificate."""
        self.layers[-1]["ok"] = False
        self.accepted = False
        self.failure = failure
        return self

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "axiom": self.axiom,
            "kinds": list(self.kinds),
            "branchings": list(self.branchings),
            "anchor": point_json(self.anchor.first.stored, self.anchor.second.stored),
            "valuation": self.valuation,
            "bounds": self.bounds.to_dict(),
            "accepted": self.accepted,
            "layers": self.layers,
        }
        if self.failure is not None:
            out["failure"] = self.failure
        return out


def _zero_rows(frame: SymbolicTreeFrame, d: int) -> Rows:
    """k -> the members of U_k(0) with support <= d, in shortlex order: the
    all-zero anchor's rows of a MembershipTable over that window."""
    table = MembershipTable(frame.kind, _enumerate_stored(frame.branching, d))
    return functools.partial(table.members, ())


def _open(axiom: str, frames: tuple[SymbolicTreeFrame, SymbolicTreeFrame],
          bounds: Bounds, valuation: SymbolicValuation | None,
          default: Callable[[ProductPoint], SymbolicValuation]) -> tuple[
              Certificate, SymbolicValuation, Rows, Rows]:
    """A certificate at the all-zero anchor, the valuation it reads (default
    at the anchor unless one is given) and the U_k(0) rows of both frames."""
    anchor = ProductPoint(zero_seq(frames[0].branching), zero_seq(frames[1].branching))
    val = default(anchor) if valuation is None else valuation
    cert = Certificate(axiom, (frames[0].kind.value, frames[1].kind.value),
                       (frames[0].branching, frames[1].branching), anchor, val.name, bounds)
    return cert, val, *(_zero_rows(frame, bounds.d_enum) for frame in frames)


def _in_zero_u(frame: SymbolicTreeFrame, k: int, beta: Stored) -> bool:
    """beta in U_k(0), decided as u_contains decides it."""
    return _u_fast(frame.kind, (), (), beta, _fw(beta), k)


def check_com_certificate(frame1: SymbolicTreeFrame, frame2: SymbolicTreeFrame,
                          bounds: Bounds = DEFAULT_BOUNDS,
                          valuation: SymbolicValuation | None = None) -> Certificate:
    """Certificate that [1][2]p -> [2][1]p fails at the all-zero anchor.

    Antecedent layer: the modality-1 base set at index 1 witnesses [1][2]p;
    for each enumerated member alpha' the inner index max(st(alpha'), st(beta0))
    puts every enumerated second coordinate inside the truth set of p.

    Consequent layer: every modality-2 base set (indices below the U_0 = U_1
    identification start at 1) contains the member (m zeros, 1) at which [1]p
    fails: for every k the member (max(k, st(beta')) zeros, 1) of U_k falsifies
    p by out-ranking beta'.
    """
    cert, val, first_u, second_u = _open("com", (frame1, frame2), bounds, valuation,
                                         st_com_valuation)

    layer = cert.layer("antecedent", outer_m=1, inner_rule="max(st(alpha'), st(beta0))")
    # inner_j grows with len(alpha') alone, so each inner row is read once
    row_j, row = 0, []
    for ap in first_u(1):
        la = len(ap)
        inner_j = max(la, len(cert.anchor.second.stored)) + 1
        if inner_j != row_j:
            row_j, row = inner_j, second_u(inner_j)
        for bp in row:
            layer["checked"] += 1
            if not val.rank(la, len(bp)):
                return cert.reject({"layer": "antecedent",
                                    "witness": point_json(ap, bp),
                                    "inner_j": inner_j})

    layer = cert.layer("consequent", witnesses=[])
    for m in range(1, bounds.m_max + 1):
        beta = (0,) * m + (1,)
        layer["checked"] += 1
        if not _in_zero_u(frame2, m, beta):
            return cert.reject({"layer": "consequent", "m": m,
                                "reason": "beta witness not in U_m(beta0)",
                                "beta": list(beta)})
        entry: dict[str, Any] = {"m": m, "beta": list(beta), "alphas": []}
        for k in range(1, bounds.k_max + 1):
            alpha = (0,) * max(k, len(beta) + 1) + (1,)
            layer["checked"] += 1
            if not _in_zero_u(frame1, k, alpha):
                return cert.reject({"layer": "consequent", "m": m, "k": k,
                                    "reason": "alpha witness not in U_k(alpha0)",
                                    "alpha": list(alpha)})
            if val.rank(len(alpha), len(beta)):
                return cert.reject({"layer": "consequent", "m": m, "k": k,
                                    "reason": "p not falsified",
                                    "witness": point_json(alpha, beta)})
            entry["alphas"].append({"k": k, "alpha": list(alpha)})
        layer["witnesses"].append(entry)
    return cert


def check_chr_certificate(frame1: SymbolicTreeFrame, frame2: SymbolicTreeFrame,
                          bounds: Bounds = DEFAULT_BOUNDS,
                          valuation: SymbolicValuation | None = None) -> Certificate:
    """Certificate that <1>[2]p -> [2]<1>p fails at the all-zero anchor.

    Antecedent layer: for every modality-1 base-set index m the member
    (m zeros, 1) differs from alpha0 and satisfies [2]p through the inner
    index st of the member.

    Consequent layer: every modality-2 base set contains (j zeros, 1), and at
    that point <1>p fails: at index max(k_max, st(beta')) every enumerated
    member of U_k(alpha0) falsifies p (alpha0 itself through the puncture,
    deeper members by out-ranking beta').
    """
    cert, val, first_u, second_u = _open("chr", (frame1, frame2), bounds, valuation,
                                         st_chr_valuation)

    layer = cert.layer("antecedent", witnesses=[])
    for m in range(1, bounds.m_max + 1):
        alpha = (0,) * m + (1,)
        layer["checked"] += 1
        if not _in_zero_u(frame1, m, alpha) or alpha == cert.anchor.first.stored:
            return cert.reject({"layer": "antecedent", "m": m,
                                "reason": "alpha witness not a fresh member of U_m(alpha0)",
                                "alpha": list(alpha)})
        la = len(alpha)
        inner_j = la + 1
        row = second_u(inner_j)
        for bp in row:
            layer["checked"] += 1
            if not val.rank(la, len(bp)):
                return cert.reject({"layer": "antecedent", "m": m,
                                    "reason": "p fails inside the inner base set",
                                    "witness": point_json(alpha, bp)})
        layer["witnesses"].append({"m": m, "alpha": list(alpha),
                                   "inner_j": inner_j, "inner_checked": len(row)})

    layer = cert.layer("consequent", witnesses=[])
    for j in range(1, bounds.m_max + 1):
        beta = (0,) * j + (1,)
        layer["checked"] += 1
        if not _in_zero_u(frame2, j, beta):
            return cert.reject({"layer": "consequent", "j": j,
                                "reason": "beta witness not in U_j(beta0)",
                                "beta": list(beta)})
        lb = len(beta)
        k_star = max(bounds.k_max, lb + 1)
        row = first_u(k_star)
        for ap in row:
            layer["checked"] += 1
            if val.rank(len(ap), lb):
                return cert.reject({"layer": "consequent", "j": j, "k_star": k_star,
                                    "reason": "p not falsified",
                                    "witness": point_json(ap, beta)})
        layer["witnesses"].append({"j": j, "beta": list(beta),
                                   "k_star": k_star, "inner_checked": len(row)})
    return cert


# --- bounded evaluator --------------------------------------------------------------

@dataclass(frozen=True)
class BoundedResult:
    value: bool
    bounds: Bounds

    @property
    def label(self) -> str:
        return ("true" if self.value else "false") + "@bounds"

    def __bool__(self) -> bool:
        return self.value


def eval_bounded(frame1: SymbolicTreeFrame, frame2: SymbolicTreeFrame,
                 phi: Formula, point: ProductPoint, valuation: SymbolicValuation,
                 bounds: Bounds = DEFAULT_BOUNDS) -> BoundedResult:
    """Truth of phi (single atom p) at a product point, bounded exploration.

    The base-index existential collapses: the neighborhoods around a point
    form a descending chain, so "some base set is all-body" holds exactly
    when the deepest inspected one is. Each box is therefore checked at a
    single index, cap = max(m_max, st of both coordinates); the escalation
    past m_max lets honest evidence at deep points surface (their own
    neighborhoods only shrink from st onward).

    The window is a set of lengths. The members relative to a point are its
    prefix up to cap followed by a canonical suffix of length <= d_enum,
    kept when in the frame relation, and the point itself on a reflexive
    kind. Their lengths are exactly the point's own (reflexive kinds) and
    cap + 1 .. cap + d_enum, since each prefix + 0...0x is a member of
    every kind. The valuation reads lengths only, so the truth value at a
    point depends only on the two lengths, and the recursion is memoised on
    (node, len a, len b) without enumerating any suffix: it never meets the
    sequence budget, whatever d_enum.

    One-sided by design: a false box rests on a real falsifying member, so
    falsity is sound; a true box only says the window holds no falsifier.
    Results carry the @bounds label for that reason; the certificates supply
    the unbounded argument for the layers that matter.
    """
    nodes = compile_formula(phi)
    if any(op == OP_ATOM and x != "p" for op, x, _ in nodes):
        raise ValueError("eval_bounded supports the single atom p")
    frames = (frame1, frame2)
    # u_contains's branching and signedness checks, once for the caller's point
    for seq, frame in zip((point.first, point.second), frames):
        if seq.branching != frame.branching:
            raise ValueError("sequence branching does not match the frame")
        if seq.signed:
            raise ValueError("cannot mix signed and unsigned sequences")
    reflexive = [frame.kind.reflexive for frame in frames]

    def lengths(i: int, own: int, cap: int) -> range | tuple[int, ...]:
        deeper = range(cap + 1, cap + bounds.d_enum + 1)
        return (own, *deeper) if reflexive[i] else deeper

    @functools.cache
    def ev(k: int, la: int, lb: int) -> bool:
        op, x, y = nodes[k]
        if op == OP_BOTTOM:
            return False
        if op == OP_ATOM:
            return valuation.rank(la, lb)
        if op == OP_IMPLIES:
            return (not ev(x, la, lb)) or ev(y, la, lb)
        cap = max(bounds.m_max, la + 1, lb + 1)
        if x == 1:
            return all(ev(y, c, lb) for c in lengths(0, la, cap))
        return all(ev(y, la, c) for c in lengths(1, lb, cap))

    value = ev(len(nodes) - 1, len(point.first.stored), len(point.second.stored))
    ev.cache_clear()  # ev refers to itself: its memo would wait for the cycle collector
    return BoundedResult(value, bounds)
