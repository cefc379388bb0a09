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

from dataclasses import dataclass, field
from typing import Any, Callable

from .formula import OP_ATOM, OP_BOTTOM, OP_IMPLIES, Formula, compile_formula
from .kripke import SymbolicTreeFrame
from .omega import (MembershipTable, ProductPoint, PseudoSeq, enumerate_pseudo,
                    point_json, pseudo, relative_members, u_contains, zero_seq)


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
    contains: Callable[[ProductPoint], bool]


def st_com_valuation(anchor: ProductPoint) -> SymbolicValuation:
    def contains(q: ProductPoint) -> bool:
        return q.second == anchor.second or q.second.st >= q.first.st
    return SymbolicValuation("st_com", contains)


def st_chr_valuation(anchor: ProductPoint) -> SymbolicValuation:
    def contains(q: ProductPoint) -> bool:
        return q.first != anchor.first and \
            (q.second == anchor.second or q.second.st >= q.first.st)
    return SymbolicValuation("st_chr", contains)


def const_true_valuation(anchor: ProductPoint) -> SymbolicValuation:
    """Sanity control: under p = everywhere-true no consequent can fail."""
    return SymbolicValuation("const_true", lambda q: True)


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
    cert = Certificate("com", (frame1.kind.value, frame2.kind.value), (b1, b2),
                       anchor, val.name, bounds)

    first_u = _zero_neighborhoods(frame1, bounds.d_enum)
    second_u = _zero_neighborhoods(frame2, bounds.d_enum)

    outer_m = 1
    layer = cert.layer("antecedent", outer_m=outer_m,
                       inner_rule="max(st(alpha'), st(beta0))")
    for ap in first_u(outer_m):
        inner_j = max(ap.st, anchor.second.st)
        for bp in second_u(inner_j):
            layer["checked"] += 1
            if not val.contains(ProductPoint(ap, bp)):
                return cert.reject({"layer": "antecedent",
                                    "witness": point_json(ProductPoint(ap, bp)),
                                    "inner_j": inner_j})

    layer = cert.layer("consequent", witnesses=[])
    for m in range(1, bounds.m_max + 1):
        beta = _zeros_then_one(m, b2)
        layer["checked"] += 1
        if not u_contains(frame2, anchor.second, m, beta):
            return cert.reject({"layer": "consequent", "m": m,
                                "reason": "beta witness not in U_m(beta0)",
                                "beta": list(beta.stored)})
        entry: dict[str, Any] = {"m": m, "beta": list(beta.stored), "alphas": []}
        for k in range(1, bounds.k_max + 1):
            alpha = _zeros_then_one(max(k, beta.st), b1)
            layer["checked"] += 1
            if not u_contains(frame1, anchor.first, k, alpha):
                return cert.reject({"layer": "consequent", "m": m, "k": k,
                                    "reason": "alpha witness not in U_k(alpha0)",
                                    "alpha": list(alpha.stored)})
            if val.contains(ProductPoint(alpha, beta)):
                return cert.reject({"layer": "consequent", "m": m, "k": k,
                                    "reason": "p not falsified",
                                    "witness": point_json(ProductPoint(alpha, beta))})
            entry["alphas"].append({"k": k, "alpha": list(alpha.stored)})
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
    b1, b2 = frame1.branching, frame2.branching
    anchor = ProductPoint(zero_seq(b1), zero_seq(b2))
    val = st_chr_valuation(anchor) if valuation is None else valuation
    cert = Certificate("chr", (frame1.kind.value, frame2.kind.value), (b1, b2),
                       anchor, val.name, bounds)

    first_u = _zero_neighborhoods(frame1, bounds.d_enum)
    second_u = _zero_neighborhoods(frame2, bounds.d_enum)

    layer = cert.layer("antecedent", witnesses=[])
    for m in range(1, bounds.m_max + 1):
        alpha = _zeros_then_one(m, b1)
        layer["checked"] += 1
        if not u_contains(frame1, anchor.first, m, alpha) or alpha == anchor.first:
            return cert.reject({"layer": "antecedent", "m": m,
                                "reason": "alpha witness not a fresh member of U_m(alpha0)",
                                "alpha": list(alpha.stored)})
        inner_j = alpha.st
        inner_checked = 0
        for bp in second_u(inner_j):
            inner_checked += 1
            layer["checked"] += 1
            if not val.contains(ProductPoint(alpha, bp)):
                return cert.reject({"layer": "antecedent", "m": m,
                                    "reason": "p fails inside the inner base set",
                                    "witness": point_json(ProductPoint(alpha, bp))})
        layer["witnesses"].append({"m": m, "alpha": list(alpha.stored),
                                   "inner_j": inner_j, "inner_checked": inner_checked})

    layer = cert.layer("consequent", witnesses=[])
    for j in range(1, bounds.m_max + 1):
        beta = _zeros_then_one(j, b2)
        layer["checked"] += 1
        if not u_contains(frame2, anchor.second, j, beta):
            return cert.reject({"layer": "consequent", "j": j,
                                "reason": "beta witness not in U_j(beta0)",
                                "beta": list(beta.stored)})
        k_star = max(bounds.k_max, beta.st)
        inner_checked = 0
        for ap in first_u(k_star):
            inner_checked += 1
            layer["checked"] += 1
            if val.contains(ProductPoint(ap, beta)):
                return cert.reject({"layer": "consequent", "j": j, "k_star": k_star,
                                    "reason": "p not falsified",
                                    "witness": point_json(ProductPoint(ap, beta))})
        layer["witnesses"].append({"j": j, "beta": list(beta.stored),
                                   "k_star": k_star, "inner_checked": inner_checked})
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
    frames = (frame1, frame2)
    for seq, frame in zip((point.first, point.second), frames):
        if seq.branching != frame.branching:
            raise ValueError("sequence branching does not match the frame")
        if seq.signed:
            raise ValueError("cannot mix signed and unsigned sequences")
    # The recursion runs on stored tuples. Each distinct member becomes a
    # PseudoSeq once, and a ProductPoint only where the valuation reads it.
    seqs = ({point.first.stored: point.first}, {point.second.stored: point.second})
    suffixes = [[s.stored for s in enumerate_pseudo(frame.branching, bounds.d_enum)
                 if s.stored] for frame in frames]
    windows: dict[tuple[int, tuple[int, ...], int], list[tuple[int, ...]]] = {}
    memo: dict[tuple[int, tuple[int, ...], tuple[int, ...]], bool] = {}

    def members(i: int, center: tuple[int, ...], cap: int) -> list[tuple[int, ...]]:
        key = (i, center, cap)
        hit = windows.get(key)
        if hit is None:
            hit = windows[key] = relative_members(frames[i].kind, center, cap,
                                                  suffixes[i])
            for c in hit:
                if c not in seqs[i]:
                    seqs[i][c] = PseudoSeq(c, frames[i].branching)
        return hit

    def ev(k: int, a: tuple[int, ...], b: tuple[int, ...]) -> bool:
        key = (k, a, b)
        out = memo.get(key)
        if out is not None:
            return out
        op, x, y = nodes[k]
        if op == OP_BOTTOM:
            out = False
        elif op == OP_ATOM:
            out = valuation.contains(ProductPoint(seqs[0][a], seqs[1][b]))
        elif op == OP_IMPLIES:
            out = (not ev(x, a, b)) or ev(y, a, b)
        else:
            cap = max(bounds.m_max, len(a) + 1, len(b) + 1)
            if x == 1:
                out = all(ev(y, c, b) for c in members(0, a, cap))
            else:
                out = all(ev(y, a, c) for c in members(1, b, cap))
        memo[key] = out
        return out

    return BoundedResult(ev(len(nodes) - 1, point.first.stored, point.second.stored),
                         bounds)
