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
membership. A bounded evaluator computes the same truth values by blind
recursion over the formula as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .formula import OP_ATOM, OP_BOTTOM, OP_IMPLIES, Formula, compile_formula
from .kripke import SymbolicTreeFrame
from .omega import (MembershipTable, ProductPoint, PseudoSeq, enumerate_pseudo,
                    point_json, prefix, pseudo, u_contains, zero_seq)


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
    """Valuation of the single atom p over product points."""

    name: str
    anchor: ProductPoint
    contains: Callable[[ProductPoint], bool]


def st_com_valuation(anchor: ProductPoint) -> SymbolicValuation:
    def contains(q: ProductPoint) -> bool:
        return q.second == anchor.second or q.second.st >= q.first.st
    return SymbolicValuation("st_com", anchor, contains)


def st_chr_valuation(anchor: ProductPoint) -> SymbolicValuation:
    def contains(q: ProductPoint) -> bool:
        return q.first != anchor.first and \
            (q.second == anchor.second or q.second.st >= q.first.st)
    return SymbolicValuation("st_chr", anchor, contains)


def const_true_valuation(anchor: ProductPoint) -> SymbolicValuation:
    """Sanity control: under p = everywhere-true no consequent can fail."""
    return SymbolicValuation("const_true", anchor, lambda q: True)


@dataclass
class Certificate:
    axiom: str
    kinds: tuple[str, str]
    branchings: tuple[int, int]
    anchor: ProductPoint
    valuation: str
    bounds: Bounds
    layers: list[dict[str, Any]]
    accepted: bool
    failure: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "axiom": self.axiom,
            "kinds": list(self.kinds),
            "branchings": list(self.branchings),
            "anchor": point_json(self.anchor),
            "valuation": self.valuation,
            "bounds": self.bounds.to_dict(),
            "accepted": self.accepted,
            "layers": self.layers,
        }
        if self.failure is not None:
            out["failure"] = self.failure
        return out


def _zeros_then_one(count: int, branching: int) -> PseudoSeq:
    return pseudo((0,) * count + (1,), branching)


def _zero_neighborhoods(frame: SymbolicTreeFrame,
                        d: int) -> Callable[[int], list[PseudoSeq]]:
    """k -> the members of U_k(0) with support <= d, in enumeration order."""
    universe = enumerate_pseudo(frame.branching, d)
    table = MembershipTable(frame.kind, [x.stored for x in universe])
    return lambda k: [universe[i] for i in table.members((), k)]


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
    b1, b2 = frame1.branching, frame2.branching
    anchor = ProductPoint(zero_seq(b1), zero_seq(b2))
    val = st_com_valuation(anchor) if valuation is None else valuation
    layers: list[dict[str, Any]] = []
    failure: dict[str, Any] | None = None

    first_u = _zero_neighborhoods(frame1, bounds.d_enum)
    second_u = _zero_neighborhoods(frame2, bounds.d_enum)

    checked = 0
    ok = True
    outer_m = 1
    for ap in first_u(outer_m):
        inner_j = max(ap.st, anchor.second.st)
        for bp in second_u(inner_j):
            checked += 1
            if not val.contains(ProductPoint(ap, bp)):
                ok = False
                failure = {"layer": "antecedent",
                           "witness": point_json(ProductPoint(ap, bp)),
                           "inner_j": inner_j}
                break
        if not ok:
            break
    layers.append({"name": "antecedent", "outer_m": outer_m,
                   "inner_rule": "max(st(alpha'), st(beta0))",
                   "checked": checked, "ok": ok})

    if ok:
        checked = 0
        witnesses: list[dict[str, Any]] = []
        for m in range(1, bounds.m_max + 1):
            beta = _zeros_then_one(m, b2)
            checked += 1
            if not u_contains(frame2, anchor.second, m, beta):
                ok = False
                failure = {"layer": "consequent", "m": m,
                           "reason": "beta witness not in U_m(beta0)",
                           "beta": list(beta.stored)}
                break
            entry: dict[str, Any] = {"m": m, "beta": list(beta.stored), "alphas": []}
            for k in range(1, bounds.k_max + 1):
                alpha = _zeros_then_one(max(k, beta.st), b1)
                checked += 1
                if not u_contains(frame1, anchor.first, k, alpha):
                    ok = False
                    failure = {"layer": "consequent", "m": m, "k": k,
                               "reason": "alpha witness not in U_k(alpha0)",
                               "alpha": list(alpha.stored)}
                    break
                if val.contains(ProductPoint(alpha, beta)):
                    ok = False
                    failure = {"layer": "consequent", "m": m, "k": k,
                               "reason": "p not falsified",
                               "witness": point_json(ProductPoint(alpha, beta))}
                    break
                entry["alphas"].append({"k": k, "alpha": list(alpha.stored)})
            if not ok:
                break
            witnesses.append(entry)
        layers.append({"name": "consequent", "checked": checked, "ok": ok,
                       "witnesses": witnesses})

    return Certificate("com", (frame1.kind.value, frame2.kind.value), (b1, b2),
                       anchor, val.name, bounds, layers,
                       accepted=all(layer["ok"] for layer in layers),
                       failure=failure)


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
    b1, b2 = frame1.branching, frame2.branching
    anchor = ProductPoint(zero_seq(b1), zero_seq(b2))
    val = st_chr_valuation(anchor) if valuation is None else valuation
    layers: list[dict[str, Any]] = []
    failure: dict[str, Any] | None = None

    first_u = _zero_neighborhoods(frame1, bounds.d_enum)
    second_u = _zero_neighborhoods(frame2, bounds.d_enum)

    checked = 0
    ok = True
    witnesses: list[dict[str, Any]] = []
    for m in range(1, bounds.m_max + 1):
        alpha = _zeros_then_one(m, b1)
        checked += 1
        if not u_contains(frame1, anchor.first, m, alpha) or alpha == anchor.first:
            ok = False
            failure = {"layer": "antecedent", "m": m,
                       "reason": "alpha witness not a fresh member of U_m(alpha0)",
                       "alpha": list(alpha.stored)}
            break
        inner_j = alpha.st
        inner_checked = 0
        for bp in second_u(inner_j):
            inner_checked += 1
            checked += 1
            if not val.contains(ProductPoint(alpha, bp)):
                ok = False
                failure = {"layer": "antecedent", "m": m,
                           "reason": "p fails inside the inner base set",
                           "witness": point_json(ProductPoint(alpha, bp))}
                break
        if not ok:
            break
        witnesses.append({"m": m, "alpha": list(alpha.stored),
                          "inner_j": inner_j, "inner_checked": inner_checked})
    layers.append({"name": "antecedent", "checked": checked, "ok": ok,
                   "witnesses": witnesses})

    if ok:
        checked = 0
        witnesses = []
        for j in range(1, bounds.m_max + 1):
            beta = _zeros_then_one(j, b2)
            checked += 1
            if not u_contains(frame2, anchor.second, j, beta):
                ok = False
                failure = {"layer": "consequent", "j": j,
                           "reason": "beta witness not in U_j(beta0)",
                           "beta": list(beta.stored)}
                break
            k_star = max(bounds.k_max, beta.st)
            inner_checked = 0
            for ap in first_u(k_star):
                inner_checked += 1
                checked += 1
                if val.contains(ProductPoint(ap, beta)):
                    ok = False
                    failure = {"layer": "consequent", "j": j, "k_star": k_star,
                               "reason": "p not falsified",
                               "witness": point_json(ProductPoint(ap, beta))}
                    break
            if not ok:
                break
            witnesses.append({"j": j, "beta": list(beta.stored),
                              "k_star": k_star, "inner_checked": inner_checked})
        layers.append({"name": "consequent", "checked": checked, "ok": ok,
                       "witnesses": witnesses})

    return Certificate("chr", (frame1.kind.value, frame2.kind.value), (b1, b2),
                       anchor, val.name, bounds, layers,
                       accepted=all(layer["ok"] for layer in layers),
                       failure=failure)


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
    neighborhoods only shrink from st onward). Members are enumerated
    relative to the point: the fixed prefix up to cap, then every canonical
    suffix of length <= d_enum, filtered by the frame relation. Relative
    windows never degenerate, and every enumerated member is a real one.

    One-sided by design: a false box rests on a real falsifying member, so
    falsity is sound; a true box only says the window holds no falsifier.
    Results carry the @bounds label for that reason; the certificates supply
    the unbounded argument for the layers that matter.
    """
    nodes = compile_formula(phi)
    if any(op == OP_ATOM and x != "p" for op, x, _ in nodes):
        raise ValueError("eval_bounded supports the single atom p")
    frames = {1: frame1, 2: frame2}
    suffixes = {i: [s.stored for s in
                    enumerate_pseudo(frames[i].branching, bounds.d_enum)
                    if s.stored]
                for i in (1, 2)}
    members_cache: dict[tuple[int, PseudoSeq, int], list[PseudoSeq]] = {}
    memo: dict[tuple[int, ProductPoint], bool] = {}

    def members(i: int, center: PseudoSeq, cap: int) -> list[PseudoSeq]:
        key = (i, center, cap)
        hit = members_cache.get(key)
        if hit is None:
            frame = frames[i]
            base = prefix(center, cap)
            candidates = [center] + [pseudo(base + s, frame.branching)
                                     for s in suffixes[i]]
            hit = [c for c in candidates if u_contains(frame, center, cap, c)]
            members_cache[key] = hit
        return hit

    def ev(k: int, q: ProductPoint) -> bool:
        key = (k, q)
        hit = memo.get(key)
        if hit is not None:
            return hit
        op, x, y = nodes[k]
        if op == OP_BOTTOM:
            out = False
        elif op == OP_ATOM:
            out = valuation.contains(q)
        elif op == OP_IMPLIES:
            out = (not ev(x, q)) or ev(y, q)
        else:
            cap = max(bounds.m_max, q.first.st, q.second.st)
            if x == 1:
                out = all(ev(y, ProductPoint(c, q.second))
                          for c in members(1, q.first, cap))
            else:
                out = all(ev(y, ProductPoint(q.first, c))
                          for c in members(2, q.second, cap))
        memo[key] = out
        return out

    return BoundedResult(ev(len(nodes) - 1, point), bounds)
