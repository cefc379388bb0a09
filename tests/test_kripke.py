"""Tree frames on words, the fused frame, and finite Kripke model checking."""

import itertools
from random import Random

import pytest

from nbhdprod import omega
from nbhdprod.formula import Atom, Bottom, Box, Implies, generate_formulas, parse
from nbhdprod.kripke import (FiniteKripkeFrame, FrameKind, SymbolicTreeFrame,
                             _rel_on_tuples, check_fractal,
                             enumerate_tagged_words, enumerate_words,
                             fusion_word_rel, satisfies, tagged_word, tree_pairs,
                             tree_successors, word, word_layers, word_rel)
from nbhdprod.report import BudgetExceeded, VerificationReport
from nbhdprod.sampling import random_kripke_frame

IN2 = SymbolicTreeFrame(FrameKind.IN, 2)
RN2 = SymbolicTreeFrame(FrameKind.RN, 2)
IT2 = SymbolicTreeFrame(FrameKind.IT, 2)
RT2 = SymbolicTreeFrame(FrameKind.RT, 2)


def test_word_validation():
    with pytest.raises(ValueError):
        word((3,), branching=2)
    with pytest.raises(ValueError):
        word((0,), branching=2)


def test_word_rel_pinned_cases():
    assert word_rel(IN2, word((), 2), word((1,), 2))
    assert not word_rel(IN2, word((1,), 2), word((1,), 2))
    assert word_rel(IT2, word((1,), 2), word((1, 2, 2), 2))
    assert word_rel(RN2, word((1,), 2), word((1,), 2))


def test_word_rel_branching_mismatch():
    with pytest.raises(ValueError):
        word_rel(IN2, word((1,), 3), word((1, 1), 3))


def test_enumerate_words_small():
    got = enumerate_words(2, 1)
    assert [w.letters for w in got] == [(), (1,), (2,)]
    assert len(enumerate_words(2, 2)) == 7
    assert [w.letters for w in enumerate_words(1, 3)] == [
        (), (1,), (1, 1), (1, 1, 1)]


def test_enumerate_words_shortlex_and_count():
    got = enumerate_words(3, 3)
    assert len(got) == (3 ** 4 - 1) // 2
    lengths = [len(w) for w in got]
    assert lengths == sorted(lengths)
    for a, b in zip(got, got[1:]):
        assert (len(a), a.letters) < (len(b), b.letters)


def test_enumerate_words_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_words(3, 14)


def _window_closures(branching, depth):
    """Oracle: one-step pairs composed to a fixpoint on the window."""
    words = enumerate_words(branching, depth)
    frame_in = SymbolicTreeFrame(FrameKind.IN, branching)
    one = {(u.letters, v.letters) for u in words for v in words
           if word_rel(frame_in, u, v)}
    trans = set(one)
    while True:
        grown = trans | {(a, d) for (a, b) in trans for (c, d) in one if b == c}
        if grown == trans:
            break
        trans = grown
    identity = {(u.letters, u.letters) for u in words}
    return words, one, trans, identity


@pytest.mark.parametrize("branching", [1, 2])
def test_word_rel_matches_closure_oracle(branching):
    words, one, trans, identity = _window_closures(branching, 4)
    kinds = {FrameKind.IN: one, FrameKind.RN: one | identity,
             FrameKind.IT: trans, FrameKind.RT: trans | identity}
    for kind, expected in kinds.items():
        frame = SymbolicTreeFrame(kind, branching)
        got = {(u.letters, v.letters) for u in words for v in words
               if word_rel(frame, u, v)}
        # the window clips relation pairs leaving it; compare within bounds
        within = {(a, b) for (a, b) in expected if len(b) <= 4}
        assert got == within, kind


@pytest.mark.parametrize("kind", list(FrameKind))
@pytest.mark.parametrize("branching", [1, 2, 3])
def test_fractal_law_passes(kind, branching):
    report = check_fractal(SymbolicTreeFrame(kind, branching), 4)
    assert report.passed
    assert report.checked > 0
    assert report.counterexample is None


def test_fractal_negative_control():
    # RN biconditional evaluated with the IN relation on the left: the
    # canonical first violation is the empty pair; the reflexive singleton
    # pair violates as well
    report = check_fractal(RN2, 4, lhs_kind=FrameKind.IN)
    assert not report.passed
    assert report.counterexample == {"a": [], "c": [], "lhs": False, "rhs": True}
    lhs = word_rel(IN2, word((1,), 2), word((1,), 2))
    rhs = word_rel(RN2, word((), 2), word((), 2))
    assert lhs != rhs


def _fractal_all_pairs(frame, depth, lhs_kind=None):
    """Reference: the all-pairs loop check_fractal replaced, visiting every
    (a, c) pair of the window and skipping the ones longer than depth."""
    left = frame.kind if lhs_kind is None else lhs_kind
    report = VerificationReport(
        lemma="fractal", params={"kind": frame.kind.value, "branching": frame.branching,
                                 "depth": depth, "lhs_kind": left.value})
    words = [w.letters for w in enumerate_words(frame.branching, depth)]
    for a in words:
        for c in words:
            if len(a) + len(c) > depth:
                continue
            lhs = _rel_on_tuples(left, a, a + c)
            rhs = _rel_on_tuples(frame.kind, (), c)
            report.checked += 1
            if lhs != rhs:
                return report.fail({"a": list(a), "c": list(c), "lhs": lhs, "rhs": rhs})
    return report


@pytest.mark.parametrize("kind", list(FrameKind))
@pytest.mark.parametrize("branching", [1, 2, 3])
def test_fractal_matches_all_pairs_reference(kind, branching):
    frame = SymbolicTreeFrame(kind, branching)
    for depth, lhs_kind in itertools.product(range(7), [None, *FrameKind]):
        got = check_fractal(frame, depth, lhs_kind=lhs_kind)
        expected = _fractal_all_pairs(frame, depth, lhs_kind)
        assert got.to_dict(include_millis=False) == \
            expected.to_dict(include_millis=False), (depth, lhs_kind)


@pytest.mark.parametrize("kind", list(FrameKind))
@pytest.mark.parametrize("branching", [1, 2, 3])
def test_tree_successors_match_word_rel_filter(kind, branching):
    frame = SymbolicTreeFrame(kind, branching)
    words = enumerate_words(branching, 6)
    # each shallower window is the prefix of words of length <= depth, so it
    # filters to the words of the deepest row no longer than depth
    rows = {u.letters: [v.letters for v in words if word_rel(frame, u, v)]
            for u in words}
    for depth in range(7):
        layers = word_layers(branching, depth)
        window = [t for layer in layers for t in layer]
        assert window == [w.letters for w in enumerate_words(branching, depth)]
        for u in window:
            expected = [v for v in rows[u] if len(v) <= depth]
            assert list(tree_successors(kind, u, layers)) == expected


@pytest.mark.parametrize("kind", list(FrameKind))
@pytest.mark.parametrize("branching", [1, 2, 3])
def test_sequence_window_words_and_steps(kind, branching):
    # the morphism checks read their words and steps off the sequence
    # window: the zero-free tuples, and the slice of the kind's step lengths
    for depth in range(7):
        layers = word_layers(branching, depth)
        window = omega._enumerate_stored(branching, depth)
        assert [s for s in window if 0 not in s] == [t for layer in layers for t in layer]
        assert omega._steps(kind, window) == list(tree_successors(kind, (), layers))


@pytest.mark.parametrize("kind", list(FrameKind))
@pytest.mark.parametrize("branching", [1, 2, 3])
def test_tree_pairs_count_the_successors(kind, branching):
    for depth in range(7):
        layers = word_layers(branching, depth)
        built = sum(1 for layer in layers for u in layer
                    for _ in tree_successors(kind, u, layers))
        assert tree_pairs(kind, branching, depth) == built, depth


@pytest.mark.parametrize("kind", list(FrameKind))
def test_tree_pairs_at_branching_1_sum_the_step_lengths(kind):
    lo, hi = kind.steps
    for depth in range(51):
        assert tree_pairs(kind, 1, depth) == sum(
            depth + 1 - n for n in range(lo, min(hi, depth) + 1)), depth


def test_tree_successors_outside_the_window():
    layers = word_layers(2, 2)
    assert list(tree_successors(FrameKind.RT, (1, 1, 1), layers)) == []
    assert list(tree_successors(FrameKind.RN, (1, 2), layers)) == [(1, 2)]
    assert list(tree_successors(FrameKind.IN, (1, 2), layers)) == []


def test_tagged_word_validation():
    with pytest.raises(ValueError):
        tagged_word([(3, 1)], 2, 2)
    with pytest.raises(ValueError):
        tagged_word([(2, 3)], 2, 2)
    assert len(tagged_word([(1, 2), (2, 1)], 2, 2)) == 2


def test_fusion_word_rel_pinned():
    empty = tagged_word([], 2, 2)
    assert fusion_word_rel(IN2, IN2, 1, empty, tagged_word([(1, 1)], 2, 2))
    assert not fusion_word_rel(IN2, IN2, 1, empty,
                               tagged_word([(1, 1), (2, 2)], 2, 2))
    u = tagged_word([(2, 2)], 2, 2)
    v = tagged_word([(2, 2), (1, 1), (1, 2)], 2, 2)
    assert fusion_word_rel(IT2, RN2, 1, u, v)


def test_fusion_restricted_to_one_side_is_word_rel():
    frames = {1: IT2, 2: RN2}
    tagged = [t for t in enumerate_tagged_words(2, 2, 3)
              if all(side == 1 for side, _ in t.letters)]
    for u in tagged:
        for v in tagged:
            wu = word(tuple(x for _, x in u.letters), 2)
            wv = word(tuple(x for _, x in v.letters), 2)
            assert fusion_word_rel(frames[1], frames[2], 1, u, v) == \
                word_rel(frames[1], wu, wv)


def test_finite_frame_validation():
    with pytest.raises(ValueError):
        FiniteKripkeFrame(("w",), {1: frozenset({("w", "v")})})


def test_finite_frame_json_round_trip():
    frame = FiniteKripkeFrame(("w0", "w1"),
                              {1: frozenset({("w0", "w1")}), 2: frozenset()})
    data = frame.to_dict()
    assert data == {"worlds": ["w0", "w1"],
                    "rel": {"1": [["w0", "w1"]], "2": []}}
    assert FiniteKripkeFrame.from_dict(data) == frame


def test_satisfies_pinned_cases():
    lonely = FiniteKripkeFrame(("w",), {1: frozenset()})
    assert satisfies(lonely, {}, "w", parse("[1] false"))

    reflexive = FiniteKripkeFrame(("w",), {1: frozenset({("w", "w")})})
    assert satisfies(reflexive, {"p": {"w"}}, "w", parse("[1] p -> p"))

    chain = FiniteKripkeFrame(("w", "v"), {1: frozenset({("w", "v")})})
    assert satisfies(chain, {"p": {"v"}}, "w", parse("<1> p"))


def _naive_sat(frame, val, w, phi):
    """Oracle: direct recursion on the satisfaction clauses."""
    if isinstance(phi, Bottom):
        return False
    if isinstance(phi, Atom):
        return w in val[phi.name]
    if isinstance(phi, Implies):
        return (not _naive_sat(frame, val, w, phi.left)) or \
            _naive_sat(frame, val, w, phi.right)
    assert isinstance(phi, Box)
    return all(_naive_sat(frame, val, v, phi.body)
               for (u, v) in frame.rel[phi.index] if u == w)


def test_satisfies_matches_naive_oracle():
    frame = FiniteKripkeFrame(
        ("a", "b", "c"),
        {1: frozenset({("a", "b"), ("b", "c"), ("c", "c")}),
         2: frozenset({("a", "a"), ("b", "a")})})
    val = {"p": {"a", "c"}, "q": {"b"}}
    for phi in generate_formulas(2, ("p", "q")):
        for w in frame.worlds:
            assert satisfies(frame, val, w, phi) == _naive_sat(frame, val, w, phi)


def test_satisfies_unknown_world_and_atom():
    frame = FiniteKripkeFrame(("w",), {1: frozenset()})
    with pytest.raises(ValueError):
        satisfies(frame, {}, "v", parse("p"))
    with pytest.raises(ValueError):
        satisfies(frame, {}, "w", parse("p"))
    with pytest.raises(TypeError, match="not a formula"):
        satisfies(frame, {"p": frozenset({"w"})}, "w", "p")


def _successors_per_world(frame, i):
    """Reference: one scan of relation i per world."""
    return {w: frozenset(b for a, b in frame.rel.get(i, ()) if a == w)
            for w in frame.worlds}


def test_successor_sets_match_per_world_scan():
    for seed in range(200):
        frame = random_kripke_frame(Random(seed), max_worlds=6)
        for i in frame.modalities:
            assert frame.successor_sets(i) == _successors_per_world(frame, i)
