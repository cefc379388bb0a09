"""Countermodel certificates against commutation and Church-Rosser on
products of sequence spaces, cross-checked by the bounded evaluator.

The two stabilization-rank valuations are implementer-supplied content, so
every claim about them runs through two independent checkers: the layered
certificate and the blind bounded recursion. Controls document what rejection
looks like.
"""

import functools
import itertools
import json

import pytest

from nbhdprod.countermodel import (Bounds, Certificate, SymbolicValuation,
                                   check_chr_certificate, check_com_certificate,
                                   const_true_valuation, eval_bounded,
                                   st_chr_valuation, st_com_valuation)
from nbhdprod.formula import (OP_ATOM, OP_BOTTOM, OP_IMPLIES, compile_formula,
                              generate_formulas, parse)
from nbhdprod.kripke import FrameKind, SymbolicTreeFrame
from nbhdprod.omega import (ProductPoint, enumerate_pseudo, prefix, pseudo,
                            u_contains, zero_seq)

COM = parse("[1][2] p -> [2][1] p")
CHR = parse("~[1]~[2] p -> [2]~[1]~p")

FRAMES = {kind: SymbolicTreeFrame(kind, 1) for kind in FrameKind}
PAIRS = list(itertools.product(FrameKind, FrameKind))
ANCHOR = ProductPoint(zero_seq(1), zero_seq(1))


def test_bounds_validation():
    assert Bounds().to_dict() == {"m": 8, "k": 8, "d": 4}
    with pytest.raises(ValueError):
        Bounds(m_max=0)
    with pytest.raises(ValueError):
        Bounds(d_enum=-1)


def test_com_certificates_accepted_all_pairs():
    for k1, k2 in PAIRS:
        cert = check_com_certificate(FRAMES[k1], FRAMES[k2])
        assert cert.accepted, (k1, k2, cert.failure)
        assert [layer["name"] for layer in cert.layers] == \
            ["antecedent", "consequent"]
        assert all(layer["ok"] for layer in cert.layers)


def test_chr_certificates_accepted_all_pairs():
    for k1, k2 in PAIRS:
        cert = check_chr_certificate(FRAMES[k1], FRAMES[k2])
        assert cert.accepted, (k1, k2, cert.failure)
        assert all(layer["ok"] for layer in cert.layers)


def test_certificates_stable_at_larger_bounds():
    wide = Bounds(m_max=10, k_max=10, d_enum=5)
    for k1, k2 in PAIRS:
        assert check_com_certificate(FRAMES[k1], FRAMES[k2], wide).accepted
        assert check_chr_certificate(FRAMES[k1], FRAMES[k2], wide).accepted


def test_const_true_control_rejected():
    """Com is valid under a constant valuation, so the consequent layer must
    refuse to certify falsity."""
    for k1, k2 in PAIRS:
        cert = check_com_certificate(FRAMES[k1], FRAMES[k2],
                                     valuation=const_true_valuation(ANCHOR))
        assert not cert.accepted
        assert cert.failure["layer"] == "consequent"
        assert cert.failure["reason"] == "p not falsified"
        assert cert.valuation == "const_true"


def test_st_com_on_chr_control_all_kinds():
    """st_com is st_chr without the puncture alpha' != alpha0. On a reflexive
    kind (rn, rt) alpha0 lies in every U_k(alpha0), so the anchor itself
    witnesses <1>p at (alpha0, beta') and the Church-Rosser consequent cannot
    be falsified. Irreflexive kinds (in, it) leave alpha0 out of U_k(alpha0),
    so the puncture is redundant there and the certificate is accepted: the
    control discriminates only on reflexive kinds."""
    for kind in FrameKind:
        frame = FRAMES[kind]
        cert = check_chr_certificate(frame, frame, valuation=st_com_valuation(ANCHOR))
        assert cert.valuation == "st_com"
        if kind in (FrameKind.IN, FrameKind.IT):
            assert cert.accepted, (kind, cert.failure)
            continue
        assert not cert.accepted, kind
        assert cert.failure["layer"] == "consequent"
        assert cert.failure["reason"] == "p not falsified"
        assert cert.failure["witness"]["first"] == []


def test_certificate_json_shape():
    cert = check_com_certificate(FRAMES[FrameKind.IN], FRAMES[FrameKind.RT])
    data = json.loads(json.dumps(cert.to_dict()))
    assert data["axiom"] == "com"
    assert data["kinds"] == ["in", "rt"]
    assert data["branchings"] == [1, 1]
    assert data["anchor"] == {"first": [], "second": []}
    assert data["valuation"] == "st_com"
    assert data["bounds"] == {"m": 8, "k": 8, "d": 4}
    assert data["accepted"] is True
    assert isinstance(data["layers"], list) and len(data["layers"]) == 2
    assert "failure" not in data

    rejected = check_com_certificate(FRAMES[FrameKind.IN], FRAMES[FrameKind.IN],
                                     valuation=const_true_valuation(ANCHOR))
    assert "failure" in rejected.to_dict()


@functools.cache
def _reference_zero_row(kind, branching, d, k):
    """The members of U_k(0) with support <= d, in enumeration order: the
    absolute window filtered by pointwise u_contains."""
    frame, zero = SymbolicTreeFrame(kind, branching), zero_seq(branching)
    return tuple(x for x in enumerate_pseudo(branching, d)
                 if u_contains(frame, zero, k, x))


def _reference_zero_neighborhoods(frame, d):
    """k -> the members of U_k(0) with support <= d, in enumeration order."""
    return lambda k: _reference_zero_row(frame.kind, frame.branching, d, k)


def point_json(p):
    return {"first": list(p.first.stored), "second": list(p.second.stored)}


def _zeros_then_one(count, branching):
    return pseudo((0,) * count + (1,), branching)


def reference_check_com_certificate(frame1, frame2, bounds=Bounds(), valuation=None):
    """check_com_certificate on PseudoSeq members of an absolute window
    (enumerate_pseudo filtered by u_contains) and ProductPoint witnesses,
    with u_contains on every constructed witness."""
    b1, b2 = frame1.branching, frame2.branching
    anchor = ProductPoint(zero_seq(b1), zero_seq(b2))
    val = st_com_valuation(anchor) if valuation is None else valuation
    cert = Certificate("com", (frame1.kind.value, frame2.kind.value), (b1, b2),
                       anchor, val.name, bounds)

    first_u = _reference_zero_neighborhoods(frame1, bounds.d_enum)
    second_u = _reference_zero_neighborhoods(frame2, bounds.d_enum)

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
        entry = {"m": m, "beta": list(beta.stored), "alphas": []}
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


def reference_check_chr_certificate(frame1, frame2, bounds=Bounds(), valuation=None):
    """check_chr_certificate on the objects of reference_check_com_certificate."""
    b1, b2 = frame1.branching, frame2.branching
    anchor = ProductPoint(zero_seq(b1), zero_seq(b2))
    val = st_chr_valuation(anchor) if valuation is None else valuation
    cert = Certificate("chr", (frame1.kind.value, frame2.kind.value), (b1, b2),
                       anchor, val.name, bounds)

    first_u = _reference_zero_neighborhoods(frame1, bounds.d_enum)
    second_u = _reference_zero_neighborhoods(frame2, bounds.d_enum)

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


def test_certificates_match_reference():
    """The same to_dict() as the certificates on PseudoSeq members of an
    absolute window: every kind pair, branching 1 and 2 at four bounds and
    branching 3 at two (windows of at most 256 points), and the default,
    const_true, st_com and st_chr valuations. The settings include accepted
    and rejected certificates of both axioms."""
    settings = [*itertools.product((1, 2), (Bounds(1, 1, 1), Bounds(3, 3, 2),
                                            Bounds(8, 8, 4), Bounds(10, 10, 5))),
                (3, Bounds(3, 3, 2)), (3, Bounds(8, 8, 4))]
    outcomes = set()
    for (k1, k2), (b, bounds) in itertools.product(PAIRS, settings):
        f1, f2 = SymbolicTreeFrame(k1, b), SymbolicTreeFrame(k2, b)
        anchor = ProductPoint(zero_seq(b), zero_seq(b))
        for make in (None, const_true_valuation, st_com_valuation, st_chr_valuation):
            val = None if make is None else make(anchor)
            for check, reference in (
                    (check_com_certificate, reference_check_com_certificate),
                    (check_chr_certificate, reference_check_chr_certificate)):
                got = check(f1, f2, bounds, valuation=val)
                want = reference(f1, f2, bounds, valuation=val)
                assert got.to_dict() == want.to_dict(), \
                    (k1, k2, b, bounds, val and val.name, check.__name__)
                outcomes.add((got.axiom, got.accepted))
    assert outcomes == {("com", True), ("com", False), ("chr", True), ("chr", False)}


# --- bounded evaluator ---------------------------------------------------------------

def test_eval_box_under_const_true():
    result = eval_bounded(FRAMES[FrameKind.IN], FRAMES[FrameKind.IN],
                          parse("[1] p"), ANCHOR, const_true_valuation(ANCHOR))
    assert result.value is True
    assert result.label == "true@bounds"
    assert bool(result)


def test_eval_requires_parsed_formula():
    with pytest.raises(TypeError, match="not a formula"):
        eval_bounded(FRAMES[FrameKind.IN], FRAMES[FrameKind.IN],
                     "[1] p", ANCHOR, const_true_valuation(ANCHOR))


def test_eval_box_bottom_false_on_all_kinds():
    """Every kind is serial: each box over bottom meets a real member."""
    for k1, k2 in PAIRS:
        val = st_com_valuation(ANCHOR)
        for phi in (parse("[1] false"), parse("[2] false")):
            result = eval_bounded(FRAMES[k1], FRAMES[k2], phi, ANCHOR, val)
            assert result.value is False, (k1, k2, phi)
            assert result.label == "false@bounds"


def test_eval_com_instance_pin():
    result = eval_bounded(FRAMES[FrameKind.IN], FRAMES[FrameKind.IN], COM,
                          ANCHOR, st_com_valuation(ANCHOR))
    assert result.label == "false@bounds"


def test_evaluator_agrees_with_certificates():
    """false@bounds iff the certificate is accepted, per kind pair and axiom."""
    for k1, k2 in PAIRS:
        f1, f2 = FRAMES[k1], FRAMES[k2]
        com_cert = check_com_certificate(f1, f2)
        com_eval = eval_bounded(f1, f2, COM, ANCHOR, st_com_valuation(ANCHOR))
        assert com_cert.accepted == (not com_eval.value), (k1, k2)
        chr_cert = check_chr_certificate(f1, f2)
        chr_eval = eval_bounded(f1, f2, CHR, ANCHOR, st_chr_valuation(ANCHOR))
        assert chr_cert.accepted == (not chr_eval.value), (k1, k2)


def test_evaluator_agrees_with_rejected_controls():
    in_, rt = FRAMES[FrameKind.IN], FRAMES[FrameKind.RT]
    for f1, f2 in ((in_, in_), (rt, rt)):
        cert = check_com_certificate(f1, f2,
                                     valuation=const_true_valuation(ANCHOR))
        result = eval_bounded(f1, f2, COM, ANCHOR, const_true_valuation(ANCHOR))
        assert not cert.accepted and result.value is True
    cert = check_chr_certificate(rt, rt, valuation=st_com_valuation(ANCHOR))
    result = eval_bounded(rt, rt, CHR, ANCHOR, st_com_valuation(ANCHOR))
    assert not cert.accepted and result.value is True


def test_eval_rejects_other_atoms():
    val = st_com_valuation(ANCHOR)
    with pytest.raises(ValueError, match="single atom p"):
        eval_bounded(FRAMES[FrameKind.IN], FRAMES[FrameKind.IN],
                     parse("q"), ANCHOR, val)
    with pytest.raises(ValueError, match="single atom p"):
        eval_bounded(FRAMES[FrameKind.IN], FRAMES[FrameKind.IN],
                     parse("[1] (p -> q)"), ANCHOR, val)


def reference_eval_bounded(frame1, frame2, phi, point, valuation, bounds):
    """eval_bounded's value, computed on PseudoSeq coordinates and
    ProductPoint memo keys, with u_contains on every candidate member."""
    nodes = compile_formula(phi)
    if any(op == OP_ATOM and x != "p" for op, x, _ in nodes):
        raise ValueError("eval_bounded supports the single atom p")
    frames = {1: frame1, 2: frame2}
    suffixes = {i: [s.stored for s in
                    enumerate_pseudo(frames[i].branching, bounds.d_enum)
                    if s.stored]
                for i in (1, 2)}
    members_cache = {}
    memo = {}

    def members(i, center, cap):
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

    def ev(k, q):
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

    return ev(len(nodes) - 1, point)


def _eval_points(b):
    """The zero anchor and three points off it, at branching b."""
    return [ProductPoint(pseudo(x, b), pseudo(y, b))
            for x, y in (((), ()), ((0, 1), ()), ((b,), (0, 0, 1)), ((1, 0, 1), (b,)))]


def test_eval_bounded_matches_reference():
    """The same labels as the PseudoSeq evaluator over the 1514 formulas of
    generate_formulas(2, ("p",)), taken in turn, three per setting (one at
    b2 with bounds 8,8,4, where a formula costs about 20 ms): every kind
    pair, branching 1 and 2, bounds 8,8,4 and 3,3,2, the three valuations,
    and four points. The cycle goes round the family more than once."""
    formulas = itertools.cycle(generate_formulas(2, ("p",)))
    checked = 0
    for (k1, k2), b, bounds in itertools.product(
            PAIRS, (1, 2), (Bounds(8, 8, 4), Bounds(3, 3, 2))):
        f1, f2 = SymbolicTreeFrame(k1, b), SymbolicTreeFrame(k2, b)
        anchor = ProductPoint(zero_seq(b), zero_seq(b))
        per_setting = 1 if b == 2 and bounds.d_enum == 4 else 3
        for make in (st_com_valuation, st_chr_valuation, const_true_valuation):
            val = make(anchor)
            for point in _eval_points(b):
                for phi in itertools.islice(formulas, per_setting):
                    want = reference_eval_bounded(f1, f2, phi, point, val, bounds)
                    got = eval_bounded(f1, f2, phi, point, val, bounds)
                    assert got.value is want, (k1, k2, b, bounds, val.name, point, phi)
                    checked += 1
    assert checked == 1920


def _probe_valuation(anchor):
    """A rank valuation with no order in it, so that a window shifted by one
    length changes some truth value (the three above only compare lengths)."""
    return SymbolicValuation("probe", lambda la, lb: (la * la + 3 * lb) % 5 != 2)


# The settings of test_eval_bounded_matches_reference_at_wide_bounds: (branching,
# bounds, kinds of the diagonal pairs, formulas, valuations). The reference
# walks every pair of members, so Com on a transitive pair at b3 (10,10,5)
# visits about 1024^2 points (6-14 s each); those pairs take (10,10,5) at b2.
DEPTH_TWO = [parse(text) for text in
             ("[1][2] p", "[2]<1> p", "<1>[2] p -> [1] p", "[2]([1] p -> p)")]
VALUATIONS = (st_com_valuation, st_chr_valuation, const_true_valuation)
WIDE_SETTINGS = [
    (3, Bounds(1, 1, 1), tuple(FrameKind), [COM, CHR, *DEPTH_TWO],
     (*VALUATIONS, _probe_valuation)),
    (3, Bounds(10, 10, 5), tuple(FrameKind), [CHR], (*VALUATIONS, _probe_valuation)),
    (3, Bounds(10, 10, 5), (FrameKind.IN, FrameKind.RN), [COM], VALUATIONS),
    (3, Bounds(10, 10, 5), (FrameKind.IN, FrameKind.RN), DEPTH_TWO,
     (st_com_valuation,)),
    (2, Bounds(10, 10, 5), (FrameKind.IT, FrameKind.RT), [COM],
     (st_com_valuation, st_chr_valuation)),
]


def test_eval_bounded_matches_reference_at_wide_bounds():
    """The evaluator on lengths gives the PseudoSeq evaluator's labels at the
    anchor on the diagonal kind pairs, at branching 3 and the bounds 1,1,1
    and 10,10,5, under the three valuations and a probe that reads exact
    lengths (Com on transitive pairs at b2, see above)."""
    checked = 0
    for b, bounds, kinds, formulas, valuations in WIDE_SETTINGS:
        anchor = ProductPoint(zero_seq(b), zero_seq(b))
        for kind, phi, make in itertools.product(kinds, formulas, valuations):
            frame = SymbolicTreeFrame(kind, b)
            val = make(anchor)
            want = reference_eval_bounded(frame, frame, phi, anchor, val, bounds)
            got = eval_bounded(frame, frame, phi, anchor, val, bounds)
            assert got.value is want, (kind, b, bounds, val.name, phi)
            checked += 1
    assert checked == 96 + 16 + 6 + 8 + 4


def test_eval_rejects_mismatched_points():
    """One check at entry, with the messages u_contains gives."""
    val = st_com_valuation(ANCHOR)
    in1 = FRAMES[FrameKind.IN]
    for point in (ProductPoint(zero_seq(2), zero_seq(1)),
                  ProductPoint(zero_seq(1), zero_seq(2))):
        with pytest.raises(ValueError, match="branching does not match"):
            eval_bounded(in1, in1, parse("p"), point, val)
    with pytest.raises(ValueError, match="signed and unsigned"):
        eval_bounded(in1, in1, parse("[1] p"),
                     ProductPoint(zero_seq(1, signed=True), zero_seq(1)), val)


# --- valuations -----------------------------------------------------------------------

def test_valuations_depend_only_on_canonical_form():
    val = st_com_valuation(ANCHOR)
    a = ProductPoint(pseudo((0, 1, 0, 0), 1), pseudo((1,), 1))
    b = ProductPoint(pseudo((0, 1), 1), pseudo((1, 0), 1))
    assert a == b
    assert val.contains(a) == val.contains(b)


def test_valuations_match_their_pseudoseq_definitions():
    """rank on the stored lengths agrees with the valuations as written on
    PseudoSeq coordinates (dataclass equality, the st property)."""
    for b in (1, 2):
        anchor = ProductPoint(zero_seq(b), zero_seq(b))
        definitions = {
            "st_com": lambda q: q.second == anchor.second or q.second.st >= q.first.st,
            "st_chr": lambda q: q.first != anchor.first and (
                q.second == anchor.second or q.second.st >= q.first.st),
            "const_true": lambda q: True,
        }
        window = enumerate_pseudo(b, 3)
        for make in (st_com_valuation, st_chr_valuation, const_true_valuation):
            val = make(anchor)
            for x, y in itertools.product(window, window):
                assert val.rank(len(x.stored), len(y.stored)) == \
                    definitions[val.name](ProductPoint(x, y)), (val.name, x, y)


def test_rank_valuations_refuse_a_nonzero_anchor():
    """st_com and st_chr read alpha0 and beta0 as length 0, so they exist
    only at the all-zero anchor; const_true reads nothing."""
    for b in (1, 2):
        for first, second in (((1,), ()), ((), (0, 1)), ((b,), (b,))):
            anchor = ProductPoint(pseudo(first, b), pseudo(second, b))
            for make in (st_com_valuation, st_chr_valuation):
                with pytest.raises(ValueError, match="all-zero anchor"):
                    make(anchor)
            assert const_true_valuation(anchor).rank(3, 0)


def test_valuation_pins():
    com_val = st_com_valuation(ANCHOR)
    chr_val = st_chr_valuation(ANCHOR)
    deep_first = ProductPoint(pseudo((0, 0, 1), 1), pseudo((1,), 1))
    assert not com_val.contains(deep_first)
    assert com_val.contains(ProductPoint(pseudo((0, 0, 1), 1), zero_seq(1)))
    assert com_val.contains(ProductPoint(pseudo((1,), 1), pseudo((0, 1), 1)))
    assert not chr_val.contains(ProductPoint(zero_seq(1), pseudo((1,), 1)))
    assert chr_val.contains(ProductPoint(pseudo((1,), 1), pseudo((0, 1), 1)))
