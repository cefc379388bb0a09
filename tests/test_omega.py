"""Pseudo-infinite sequences: canonical form, stabilization index, U_k
neighborhoods, the zero-forgetting and interleaving morphisms with their
constructive witnesses, axiom evidence, and the signed lexicographic order.

u_contains is checked against a direct-definition oracle (public prefix plus
word_rel on zero-forgotten words) before any derived value is pinned.
"""

import functools
import itertools

import pytest

from nbhdprod.kripke import (FrameKind, SymbolicTreeFrame,
                             enumerate_tagged_words, enumerate_words,
                             tagged_word, word, word_rel)
from nbhdprod.omega import (MembershipTable, ProductPoint, PseudoSeq,
                            axiom_evidence, check_chain, enumerate_pseudo,
                            forget_zeros, g_map, g_preimage, lex_between,
                            lex_compare, lex_window_compare, lift, prefix,
                            product_u_contains, pseudo, relative_members,
                            strict_bounds_witnesses, u_contains,
                            verify_ff_morphism, verify_g_morphism, zero_seq)
from nbhdprod.report import BudgetExceeded

IN2 = SymbolicTreeFrame(FrameKind.IN, 2)
IT2 = SymbolicTreeFrame(FrameKind.IT, 2)
RN2 = SymbolicTreeFrame(FrameKind.RN, 2)
RT2 = SymbolicTreeFrame(FrameKind.RT, 2)
ALL_KINDS = (IN2, RN2, IT2, RT2)


# --- canonical form and st ---------------------------------------------------------

def st_oracle(alpha: PseudoSeq) -> int:
    """The defining minimum, probed on a materialized window."""
    horizon = alpha.st + 3
    for n in range(1, horizon + 1):
        if all(alpha.entry(k) == 0 for k in range(n, horizon + 1)):
            return n
    return horizon + 1


def test_st_pins():
    assert zero_seq(2).st == 1
    assert pseudo((2, 0, 1), 2).st == 4
    assert pseudo((1,), 2).st == 2


def test_st_matches_defining_minimum():
    for alpha in enumerate_pseudo(2, 4):
        assert alpha.st == st_oracle(alpha)


def test_constructor_canonicalizes():
    assert pseudo((1, 0, 0), 2).stored == (1,)
    assert pseudo((0, 0), 2).stored == ()
    with pytest.raises(ValueError):
        PseudoSeq((1, 0), 2)
    with pytest.raises(ValueError):
        pseudo((3,), 2)
    with pytest.raises(ValueError):
        pseudo((-1,), 2)
    assert pseudo((-1,), 2, signed=True).stored == (-1,)
    with pytest.raises(ValueError):
        pseudo((1,), 0)


def test_prefix_pins():
    assert prefix(pseudo((2, 0, 1), 2), 5) == (2, 0, 1, 0, 0)
    assert prefix(zero_seq(2), 3) == (0, 0, 0)
    assert prefix(pseudo((1,), 2), 0) == ()
    with pytest.raises(ValueError):
        prefix(zero_seq(2), -1)


def test_forget_zeros_and_lift():
    assert forget_zeros(pseudo((2, 0, 1), 2)) == word((2, 1), 2)
    lifted = lift(word((1, 2), 2))
    assert lifted.stored == (1, 2)
    assert forget_zeros(lifted) == word((1, 2), 2)
    assert forget_zeros(zero_seq(2)) == word((), 2)


def test_round_trip_directions():
    for w in enumerate_words(2, 3):
        assert forget_zeros(lift(w)) == w
    for alpha in enumerate_pseudo(2, 3):
        back = lift(forget_zeros(alpha))
        assert (back == alpha) == (0 not in alpha.stored)


# --- enumeration ---------------------------------------------------------------------

def test_enumerate_counts_and_order():
    out = enumerate_pseudo(2, 3)
    assert len(out) == 3 ** 3
    assert len(set(out)) == len(out)
    keys = [(len(a.stored), a.stored) for a in out]
    assert keys == sorted(keys)
    signed = enumerate_pseudo(1, 2, signed=True)
    assert len(signed) == 3 ** 2


def test_enumerate_monotone_and_budget():
    small = set(enumerate_pseudo(2, 2))
    assert small <= set(enumerate_pseudo(2, 3))
    with pytest.raises(BudgetExceeded):
        enumerate_pseudo(3, 14)


# --- neighborhoods -------------------------------------------------------------------

def u_oracle(frame: SymbolicTreeFrame, alpha: PseudoSeq, k: int,
             beta: PseudoSeq) -> bool:
    m = max(k, alpha.st)
    return prefix(alpha, m) == prefix(beta, m) and \
        word_rel(frame, forget_zeros(alpha), forget_zeros(beta))


def test_u_contains_matches_oracle():
    universe = enumerate_pseudo(2, 3)
    for frame in ALL_KINDS:
        for alpha, beta in itertools.product(universe, universe):
            for k in range(5):
                assert u_contains(frame, alpha, k, beta) == \
                    u_oracle(frame, alpha, k, beta)


def test_u_contains_pins():
    zero = zero_seq(2)
    assert u_contains(IN2, zero, 1, pseudo((0, 2), 2))
    assert not u_contains(IN2, zero, 1, pseudo((1,), 2))
    deep = pseudo((0, 1, 2), 2)
    assert not u_contains(IN2, zero, 1, deep)
    assert u_contains(IT2, zero, 1, deep)


def test_u_contains_errors():
    zero = zero_seq(2)
    with pytest.raises(ValueError):
        u_contains(IN2, zero_seq(3), 1, zero_seq(3))
    with pytest.raises(ValueError):
        u_contains(IN2, zero, 1, zero_seq(2, signed=True))
    with pytest.raises(ValueError):
        u_contains(IN2, zero, -1, zero)


def test_clipped_relative_window_is_the_absolute_row():
    """U_k of the all-zero anchor over the sequences of support <= d, as the
    certificates read it: the anchor's relative window with only the
    suffixes of length <= d - max(k, 1), which are the first
    (b + 1)^(d - max(k, 1)) - 1 in shortlex order. Same members, same order
    as the MembershipTable row over the absolute window."""
    for kind, b, d in itertools.product(FrameKind, (1, 2, 3), range(1, 7)):
        window = [x.stored for x in enumerate_pseudo(b, d)]
        table = MembershipTable(kind, window)
        suffixes = window[1:]
        for k in range(14):
            fit = d - max(k, 1)
            clipped = [s for s in suffixes if len(s) <= fit]
            assert clipped == suffixes[:(b + 1) ** max(fit, 0) - 1], (b, d, k)
            assert relative_members(kind, (), k, clipped) == \
                [window[i] for i in table.members((), k)], (kind, b, d, k)


# --- chain lemma ---------------------------------------------------------------------

def test_chain_pins():
    for frame in (RT2, IN2):
        report = check_chain(frame, 4, 5)
        assert report.passed
        assert report.checked > 0


def test_chain_all_kinds_small_window():
    for frame in ALL_KINDS:
        assert check_chain(frame, 3, 4).passed


def test_chain_reverse_control():
    report = check_chain(RT2, 3, 3, reverse_inclusion=True)
    assert not report.passed
    cx = report.counterexample
    assert cx["m"] < cx["k"]
    alpha, beta = pseudo(cx["alpha"], 2), pseudo(cx["beta"], 2)
    assert u_contains(RT2, alpha, cx["m"], beta)
    assert not u_contains(RT2, alpha, cx["k"], beta)


# --- zero-forgetting morphism ---------------------------------------------------------

def test_ff_morphism_pins():
    report = verify_ff_morphism(IN2, 5)
    assert report.passed
    layers = report.params["layers"]
    assert all(layers[name] > 0 for name in ("surjectivity", "forward", "covering"))
    assert verify_ff_morphism(RT2, 4).passed


def test_ff_witness_instance():
    zero = zero_seq(2)
    target = word((2,), 2)
    m = max(1, zero.st)
    beta = pseudo(prefix(zero, m) + target.letters, 2)
    assert beta == pseudo((0, 2), 2)
    assert u_contains(IN2, zero, 1, beta)
    assert forget_zeros(beta) == target


# --- axiom evidence -------------------------------------------------------------------

def test_axiom_evidence_pins():
    four = axiom_evidence(IT2, 4, "four")
    assert four.passed and four.params["evidence"] == ["four"]
    t = axiom_evidence(RT2, 4, "t")
    assert t.passed and t.params["evidence"] == ["t"]
    d = axiom_evidence(IN2, 4, "d")
    assert d.passed and d.params["evidence"] == ["d"]


def test_axiom_evidence_defaults_by_kind():
    assert axiom_evidence(IN2, 3).params["evidence"] == ["d"]
    assert axiom_evidence(RN2, 3).params["evidence"] == ["t"]
    assert axiom_evidence(IT2, 3).params["evidence"] == ["d", "four"]
    assert axiom_evidence(RT2, 3).params["evidence"] == ["t", "four"]


def test_axiom_evidence_errors():
    with pytest.raises(ValueError):
        axiom_evidence(IN2, 3, "t")
    with pytest.raises(ValueError):
        axiom_evidence(RN2, 3, "four")
    with pytest.raises(ValueError):
        axiom_evidence(RT2, 3, "five")


def test_four_evidence_requires_deep_index():
    """Members of U_k(y) for y inside U_m(alpha) can escape U_m(alpha) when k
    is small; only k >= max(m, st(alpha), st(y)) keeps them inside. The
    evidence sweep therefore pins k at that index."""
    alpha = zero_seq(2)
    y = zero_seq(2)
    z = pseudo((0, 1), 2)
    assert u_contains(RT2, alpha, 2, y)
    assert u_contains(RT2, y, 0, z)
    assert not u_contains(RT2, alpha, 2, z)
    assert not u_contains(RT2, y, 2, z)


# --- interleaving morphism ------------------------------------------------------------

def test_g_map_pins():
    p = ProductPoint(pseudo((1, 0, 2), 2), pseudo((0, 1), 2))
    z = g_map(p)
    assert z == tagged_word([(1, 1), (2, 1), (1, 2)], 2, 2)
    back = g_preimage(z)
    assert back == p
    assert g_map(ProductPoint(zero_seq(2), zero_seq(2))).letters == ()


def test_g_surjectivity_direction_only():
    for z in enumerate_tagged_words(2, 2, 3):
        assert g_map(g_preimage(z)) == z
    p = ProductPoint(pseudo((1,), 2), pseudo((1,), 2))
    assert g_preimage(g_map(p)) != p


def test_product_u_contains_pins():
    anchor = ProductPoint(zero_seq(2), zero_seq(2))
    q = ProductPoint(pseudo((0, 2), 2), zero_seq(2))
    assert product_u_contains(IN2, IN2, 1, anchor, 1, q)
    moved_second = ProductPoint(pseudo((0, 2), 2), pseudo((1,), 2))
    assert not product_u_contains(IN2, IN2, 1, anchor, 1, moved_second)
    mirror = ProductPoint(zero_seq(2), pseudo((0, 2), 2))
    assert product_u_contains(IN2, IN2, 2, anchor, 1, mirror)
    with pytest.raises(ValueError):
        product_u_contains(IN2, IN2, 3, anchor, 1, q)


def test_g_morphism_pins():
    report = verify_g_morphism(IN2, IN2, 4)
    assert report.passed
    layers = report.params["layers"]
    assert all(layers[name] > 0 for name in ("surjectivity", "forward", "covering"))
    assert verify_g_morphism(RT2, IT2, 3).passed


def test_g_witness_instance():
    anchor = ProductPoint(zero_seq(2), zero_seq(2))
    target = tagged_word([(1, 2)], 2, 2)
    witness = ProductPoint(pseudo(prefix(anchor.first, 1) + (2,), 2), zero_seq(2))
    assert witness.first == pseudo((0, 2), 2)
    assert product_u_contains(IN2, IN2, 1, anchor, 1, witness)
    assert g_map(witness) == target


# --- lexicographic order --------------------------------------------------------------

def signed_window(d: int = 3) -> list[PseudoSeq]:
    return enumerate_pseudo(2, d, signed=True)


def test_lex_compare_pins():
    zero = zero_seq(2, signed=True)
    one = pseudo((1,), 2, signed=True)
    assert lex_compare(zero, one) == -1
    assert lex_compare(one, pseudo((1, -1), 2, signed=True)) == 1
    assert lex_compare(one, one) == 0


def test_lex_compare_errors():
    with pytest.raises(ValueError):
        lex_compare(zero_seq(2), zero_seq(2, signed=True))
    with pytest.raises(ValueError):
        lex_compare(zero_seq(2, signed=True), zero_seq(3, signed=True))


def test_lex_total_order_on_window():
    window = signed_window(3)
    ranked = sorted(window, key=functools.cmp_to_key(lex_compare))
    for i, a in enumerate(ranked):
        for b in ranked[i + 1:]:
            assert lex_compare(a, b) == -1
            assert lex_compare(b, a) == 1
    for a, b in zip(window, window):
        assert lex_compare(a, b) == 0


def test_lex_between_pins():
    zero = zero_seq(2, signed=True)
    one = pseudo((1,), 2, signed=True)
    gamma = lex_between(zero, one)
    assert gamma == pseudo((1, 0, -1), 2, signed=True)
    assert lex_compare(zero, gamma) == -1 and lex_compare(gamma, one) == -1
    low = pseudo((-1,), 2, signed=True)
    mid = lex_between(low, zero)
    assert lex_compare(low, mid) == -1 and lex_compare(mid, zero) == -1
    with pytest.raises(ValueError):
        lex_between(one, one)
    with pytest.raises(ValueError):
        lex_between(one, zero)


def test_lex_density_on_window():
    ranked = sorted(signed_window(2), key=functools.cmp_to_key(lex_compare))
    for a, b in zip(ranked, ranked[1:]):
        gamma = lex_between(a, b)
        assert lex_compare(a, gamma) == -1 and lex_compare(gamma, b) == -1


def test_strict_bounds_witnesses():
    for alpha in signed_window(2):
        below, above = strict_bounds_witnesses(alpha)
        assert lex_compare(below, alpha) == -1
        assert lex_compare(alpha, above) == -1
    with pytest.raises(ValueError):
        strict_bounds_witnesses(zero_seq(2))


def test_lex_window_compare_pins():
    zero = zero_seq(2, signed=True)
    rt = lex_window_compare(RT2, zero, 2, 4)
    assert rt.passed
    assert rt.params["vacuous_intervals"] >= 0
    it = lex_window_compare(IT2, zero, 2, 4)
    assert it.passed


def test_lex_window_compare_control():
    zero = zero_seq(2, signed=True)
    report = lex_window_compare(RT2, zero, 2, 4, k_max=3, anchor_left_closed=True)
    assert not report.passed
    cx = report.counterexample
    assert cx["layer"] == "neighborhood-inside"
    assert cx["left_closed"] is True
    assert cx["l"] == []
    # with the default cap the deepest window collapses to {alpha} and the
    # half-closed interval is discharged, hiding the violation
    assert lex_window_compare(RT2, zero, 2, 4, anchor_left_closed=True).passed


def test_lex_window_compare_errors():
    with pytest.raises(ValueError):
        lex_window_compare(IN2, zero_seq(2, signed=True), 1, 3)
    with pytest.raises(ValueError):
        lex_window_compare(RT2, zero_seq(2), 1, 3)


def pairwise_lex_window(frame, alpha, k, d, k_max=None, anchor_left_closed=False):
    """The order-window check by its definition: lex_compare on every pair,
    the U_k' tried in increasing k'. Returns (checked, pass, counterexample,
    vacuous intervals or None)."""
    universe = enumerate_pseudo(2, d, signed=True)
    k_max = d + 1 if k_max is None else k_max
    punctured = frame.kind is FrameKind.IT
    p = prefix(alpha, max(k, alpha.st))
    left, right = pseudo(p + (-1,), 2, True), pseudo(p + (1,), 2, True)
    checked = 0
    if punctured:
        checked += 1
        if u_contains(frame, alpha, k, alpha):
            return checked, False, {"layer": "interval-inside",
                                    "reason": "alpha not excluded", "k": k}, None
    for gamma in universe:
        if lex_compare(left, gamma) == -1 and lex_compare(gamma, right) == -1:
            checked += 1
            if not (u_contains(frame, alpha, k, gamma) or (punctured and gamma == alpha)):
                return checked, False, {"layer": "interval-inside", "k": k,
                                        "gamma": list(gamma.stored)}, None
    order = functools.cmp_to_key(lex_compare)
    extremes = []
    for kp in range(k_max + 1):
        members = [x for x in universe if u_contains(frame, alpha, kp, x)]
        extremes.append((min(members, key=order), max(members, key=order))
                        if members else None)
    above = [x for x in universe if lex_compare(alpha, x) == -1]
    if anchor_left_closed:
        pairs = [(alpha, r) for r in above]
    else:
        pairs = itertools.product([x for x in universe if lex_compare(x, alpha) == -1],
                                  above)
    vacuous = 0
    for l, r in pairs:
        checked += 1
        for ext in extremes:
            if ext is None:
                vacuous += 1
                break
            lo, hi = ext
            left_ok = lex_compare(lo, l) != -1 if anchor_left_closed \
                else lex_compare(l, lo) == -1
            if left_ok and lex_compare(hi, r) == -1:
                break
        else:
            return checked, False, {"layer": "neighborhood-inside",
                                    "l": list(l.stored), "r": list(r.stored),
                                    "left_closed": anchor_left_closed}, None
    return checked, True, None, vacuous


LEX_ORACLE_RUNS = (
    [(2, alpha, k, k_max, closed)
     for alpha in signed_window(2) + [pseudo((0, 0, 1), 2, True),
                                      pseudo((2, -1, -2), 2, True)]
     for k in (0, 1, 2, 4) for k_max in (None, 0, 1, 2) for closed in (False, True)]
    + [(3, pseudo(stored, 2, True), k, k_max, closed)
       for stored in ((), (1,), (-1,), (0, 2), (2, -1, 1))
       for k in (0, 2) for k_max in (None, 2) for closed in (False, True)])


@pytest.mark.parametrize("frame", (IT2, RT2), ids=("it", "rt"))
def test_lex_window_compare_matches_pairwise_sweep(frame):
    for d, alpha, k, k_max, closed in LEX_ORACLE_RUNS:
        report = lex_window_compare(frame, alpha, k, d, k_max=k_max,
                                    anchor_left_closed=closed)
        checked, passed, counterexample, vacuous = pairwise_lex_window(
            frame, alpha, k, d, k_max, closed)
        got = (report.checked, report.passed, report.counterexample,
               report.params.get("vacuous_intervals"))
        assert got == (checked, passed, counterexample, vacuous), \
            (d, alpha.stored, k, k_max, closed)
