"""Block-decided window checks against the per-obligation loops they replace.

verify_g_morphism decides the covering witnesses of one (point, m, side) as
a block, verify_ff_morphism decides the obligations of every k that shares
m = max(k, st(alpha)) once, and the lex suite runs all its centers on one
shared window. The loops kept here are the code those replaced: each
covering witness mapped whole, every k on its own, and a fresh window per
center. Reports must be identical, counts and first counterexample
included, on the plain windows and under injected faults.

The faults flip U_k membership (omega._u_fast) or the tree relation
(_rel_on_tuples, in omega and in kripke) on a sparse, deterministic set of
arguments. The _u_fast faults depend on k only through m, as U_k itself
does; a fault that tells apart two k with the same m is outside what the
block form promises. The g block form also rests on the interleave being
positionwise, which test_interleave_is_positionwise checks exhaustively on
short tuples: a g that breaks it can pass the block form where the
whole-witness loop fails, so that test, not the verify run, catches it.
"""

import itertools

import pytest

from nbhdprod import kripke, omega
from nbhdprod.cli import _lex_suite
from nbhdprod.countermodel import Bounds
from nbhdprod.kripke import (FrameKind, SymbolicTreeFrame, Word,
                             enumerate_tagged_words, tree_successors,
                             word_layers)
from nbhdprod.omega import (_interleave, forget_zeros, g_map, g_preimage, lift,
                            pseudo, verify_ff_morphism, verify_g_morphism,
                            zero_seq)
from nbhdprod.report import VerificationReport

KINDS = tuple(FrameKind)
LAYERS = ("surjectivity", "forward", "covering")


def reference_g_morphism(frame1, frame2, d):
    """verify_g_morphism with every covering witness mapped whole and every
    pair of the two windows visited."""
    b1, b2 = frame1.branching, frame2.branching
    report = VerificationReport(
        lemma="g-morphism",
        params={"kind1": frame1.kind.value, "kind2": frame2.kind.value,
                "branching1": b1, "branching2": b2, "d": d,
                "layers": dict.fromkeys(LAYERS, 0)})
    for z in enumerate_tagged_words(b1, b2, d, budget=omega.DEFAULT_SEQ_BUDGET):
        report.count("surjectivity")
        if g_map(g_preimage(z)) != z:
            return report.fail({"layer": "surjectivity",
                                "tagged": [list(t) for t in z.letters]})
    kinds = {1: frame1.kind, 2: frame2.kind}
    tables = {i: omega.MembershipTable(kinds[i], omega._enumerate_stored(
        b, d, False, omega.DEFAULT_SEQ_BUDGET)) for i, b in ((1, b1), (2, b2))}
    side_steps = {
        i: [(c, tuple((i, x) for x in c)) for c in tree_successors(
            kinds[i], (), word_layers(b, d, budget=omega.DEFAULT_SEQ_BUDGET))]
        for i, b in ((1, b1), (2, b2))}

    def point(a, b):
        return {"first": list(a), "second": list(b)}

    for alpha in tables[1].window:
        for beta in tables[2].window:
            lo = max(len(alpha), len(beta)) + 2
            if lo > d:
                continue
            image = omega._interleave(alpha, beta)
            for m in range(lo, d + 1):
                for i in (1, 2):
                    kind, table = kinds[i], tables[i]
                    anchor = alpha if i == 1 else beta
                    for bi in table.members(anchor, m):
                        member = table.window[bi]
                        q = (member, beta) if i == 1 else (alpha, member)
                        report.count("forward")
                        if not kripke._fusion_rel_on_tuples(
                                kind, i, image, omega._interleave(*q)):
                            return report.fail({
                                "layer": "forward", "modality": i, "m": m,
                                "point": point(alpha, beta), "member": point(*q)})
                    head = omega._prefix_tuple(anchor, m)
                    for c, tagged in side_steps[i]:
                        report.count("covering")
                        moved = omega._canon(head + c)
                        inside = omega._u_fast(kind, anchor, omega._fw(anchor),
                                               moved, omega._fw(moved), m)
                        q = (moved, beta) if i == 1 else (alpha, moved)
                        if not (inside and omega._interleave(*q) == image + tagged):
                            return report.fail({
                                "layer": "covering", "modality": i, "m": m,
                                "point": point(alpha, beta), "step": list(c),
                                "witness": point(*q)})
    return report


def reference_ff_morphism(frame, d):
    """verify_ff_morphism with the forward and covering obligations decided
    for every k on its own."""
    report = VerificationReport(
        lemma="ff-morphism",
        params={"kind": frame.kind.value, "branching": frame.branching, "d": d,
                "layers": dict.fromkeys(LAYERS, 0)})
    layers = word_layers(frame.branching, d, budget=omega.DEFAULT_SEQ_BUDGET)
    for letters in itertools.chain.from_iterable(layers):
        w = Word(letters, frame.branching)
        report.count("surjectivity")
        if forget_zeros(lift(w)) != w:
            return report.fail({"layer": "surjectivity", "word": list(w.letters)})
    kind = frame.kind
    window = omega._enumerate_stored(frame.branching, d, False, omega.DEFAULT_SEQ_BUDGET)
    table = omega.MembershipTable(kind, window)
    for a_stored, a_fw in zip(window, table.words):
        targets = list(tree_successors(kind, a_fw, layers))
        for k in range(d + 1):
            for bi in table.members(a_stored, k):
                report.count("forward")
                if not omega._rel_on_tuples(kind, a_fw, table.words[bi]):
                    return report.fail({"layer": "forward", "alpha": list(a_stored),
                                        "k": k, "beta": list(window[bi])})
            head = omega._prefix_tuple(a_stored, max(k, len(a_stored) + 1))
            for target in targets:
                report.count("covering")
                beta = omega._canon(head + target[len(a_fw):])
                beta_fw = omega._fw(beta)
                if not (omega._u_fast(kind, a_stored, a_fw, beta, beta_fw, k)
                        and beta_fw == target):
                    return report.fail({"layer": "covering", "alpha": list(a_stored),
                                        "k": k, "target": list(target),
                                        "witness": list(beta)})
    return report


def reference_lex_suite(frame, depth, bounds):
    """cli._lex_suite with a fresh window for every center."""
    branching = frame.branching
    alphas = [zero_seq(branching, signed=True), pseudo((1,), branching, signed=True),
              pseudo((-1,), branching, signed=True)]
    ks = list(range(1, min(bounds.k_max, depth - 1) + 1))
    report = VerificationReport(
        lemma="lex", params={"kind": frame.kind.value, "branching": branching,
                             "d": depth, "k_values": ks,
                             "alphas": [list(a.stored) for a in alphas]})
    for alpha in alphas:
        for k in ks:
            sub = omega.lex_window_compare(frame, alpha, k, depth)
            report.checked += sub.checked
            if not sub.passed:
                return report.fail({"alpha": list(alpha.stored), "k": k,
                                    "inner": sub.counterexample})
    return report


def _same(got, expected):
    assert got.to_dict(include_millis=False) == expected.to_dict(include_millis=False)


def _frames(branching):
    return [SymbolicTreeFrame(kind, branching) for kind in KINDS]


# --- plain windows -------------------------------------------------------------------

@pytest.mark.parametrize("branching", [1, 2, 3])
def test_g_morphism_matches_per_witness_loop(branching):
    for frame1, frame2 in itertools.product(_frames(branching), repeat=2):
        for d in range(5):
            _same(verify_g_morphism(frame1, frame2, d),
                  reference_g_morphism(frame1, frame2, d))


def test_g_morphism_unequal_branchings():
    for b1, b2 in ((1, 2), (2, 1), (3, 1)):
        for kind1, kind2 in ((FrameKind.RT, FrameKind.IN), (FrameKind.IT, FrameKind.RN)):
            frame1, frame2 = SymbolicTreeFrame(kind1, b1), SymbolicTreeFrame(kind2, b2)
            _same(verify_g_morphism(frame1, frame2, 4),
                  reference_g_morphism(frame1, frame2, 4))


@pytest.mark.parametrize("branching", [1, 2, 3])
def test_ff_morphism_matches_per_k_loop(branching):
    for frame in _frames(branching):
        for d in range(6):
            _same(verify_ff_morphism(frame, d), reference_ff_morphism(frame, d))


@pytest.mark.parametrize("branching", [1, 2, 3])
def test_lex_suite_matches_fresh_windows(branching):
    for kind in (FrameKind.RT, FrameKind.IT):
        frame = SymbolicTreeFrame(kind, branching)
        for depth, bounds in itertools.product((2, 3, 4), (Bounds(), Bounds(8, 2, 4))):
            _same(_lex_suite(frame, depth, bounds),
                  reference_lex_suite(frame, depth, bounds))


@pytest.mark.parametrize("kind", (FrameKind.RT, FrameKind.IT), ids=lambda k: k.value)
def test_shared_lex_window_matches_fresh_windows_on_the_control(kind):
    # below k_max = d + 1, and in the left-closed control, some centers fail
    # in the neighborhood-inside layer, whose outcome one window shares
    # between the centers of one alpha
    frame = SymbolicTreeFrame(kind, 2)
    centers = [(pseudo(stored, 2, signed=True), k)
               for stored in ((), (1,), (-1,), (2, -1)) for k in range(4)]
    for closed in (False, True):
        shared = list(omega.lex_window_compares(frame, centers, 4, k_max=3,
                                                anchor_left_closed=closed))
        fresh = [omega.lex_window_compare(frame, alpha, k, 4, k_max=3,
                                          anchor_left_closed=closed)
                 for alpha, k in centers]
        assert len(shared) == len(centers)
        for got, expected in zip(shared, fresh):
            _same(got, expected)
        assert "neighborhood-inside" in {
            r.counterexample["layer"] for r in shared if not r.passed}


def test_lex_window_compares_is_lazy_and_checks_its_centers():
    frame = SymbolicTreeFrame(FrameKind.RT, 2)
    centers = [(zero_seq(2, signed=True), 1), (zero_seq(2), 1)]
    reports = omega.lex_window_compares(frame, centers, 3)
    assert next(reports).passed  # the unsigned second center is not read yet
    with pytest.raises(ValueError):
        next(reports)
    assert list(omega.lex_window_compares(frame, [], 3)) == []


# --- injected faults -----------------------------------------------------------------

def _flip_u_fast(monkeypatch, rate, salt):
    """Flip U_k membership wherever the hash of (anchor, point, m) hits."""
    real = omega._u_fast

    def faulty(kind, a_stored, a_fw, b_stored, b_fw, k):
        m = max(k, len(a_stored) + 1)
        flip = hash((salt, a_stored, b_stored, m)) % rate == 0
        return real(kind, a_stored, a_fw, b_stored, b_fw, k) != flip

    monkeypatch.setattr(omega, "_u_fast", faulty)


def _flip_rel(monkeypatch, rate, salt):
    """Flip the tree relation wherever the hash of (u, v) hits, both where
    omega's tables and where the fused relation look it up."""
    real = kripke._rel_on_tuples

    def faulty(kind, u, v):
        return real(kind, u, v) != (hash((salt, u, v)) % rate == 0)

    monkeypatch.setattr(omega, "_rel_on_tuples", faulty)
    monkeypatch.setattr(kripke, "_rel_on_tuples", faulty)


def _flip_fused(monkeypatch, rate, salt):
    """_flip_rel in kripke only: the fused relation that g's forward layer
    reads goes wrong while the U_k tables stay right."""
    real = kripke._rel_on_tuples

    def faulty(kind, u, v):
        return real(kind, u, v) != (hash((salt, u, v)) % rate == 0)

    monkeypatch.setattr(kripke, "_rel_on_tuples", faulty)


# (injector, rate, salt) per check: each fault makes some of its runs fail,
# dense ones at the first obligations, sparse ones deep into the window
G_FAULTS = [(_flip_u_fast, 2, 0), (_flip_u_fast, 31, 1), (_flip_u_fast, 97, 0),
            (_flip_u_fast, 257, 0), (_flip_rel, 3, 0), (_flip_rel, 31, 0),
            (_flip_rel, 97, 0), (_flip_rel, 257, 0), (_flip_fused, 2, 0),
            (_flip_fused, 5, 1)]
FF_FAULTS = [(_flip_u_fast, 2, 0), (_flip_u_fast, 97, 1), (_flip_u_fast, 257, 1),
             (_flip_u_fast, 1009, 1), (_flip_rel, 5, 0), (_flip_rel, 31, 0),
             (_flip_rel, 97, 1), (_flip_rel, 257, 1)]
LEX_FAULTS = [(_flip_u_fast, 2, 0), (_flip_u_fast, 3, 1), (_flip_u_fast, 7, 1),
              (_flip_u_fast, 31, 1), (_flip_rel, 2, 0), (_flip_rel, 7, 1),
              (_flip_rel, 97, 1), (_flip_rel, 257, 0)]


def _fault_id(fault):
    inject, rate, salt = fault
    return f"{inject.__name__[1:]}-{rate}-{salt}"


@pytest.mark.parametrize("fault", G_FAULTS, ids=_fault_id)
def test_g_morphism_matches_under_faults(monkeypatch, fault):
    inject, rate, salt = fault
    inject(monkeypatch, rate, salt)
    failed = 0
    for kind1, kind2 in itertools.product(KINDS, KINDS):
        frame1, frame2 = SymbolicTreeFrame(kind1, 2), SymbolicTreeFrame(kind2, 2)
        for d in (3, 4):
            got = verify_g_morphism(frame1, frame2, d)
            _same(got, reference_g_morphism(frame1, frame2, d))
            failed += not got.passed
    assert failed


@pytest.mark.parametrize("fault", FF_FAULTS, ids=_fault_id)
def test_ff_morphism_matches_under_faults(monkeypatch, fault):
    inject, rate, salt = fault
    inject(monkeypatch, rate, salt)
    failed = 0
    for frame, d in itertools.product(_frames(2), (4, 5)):
        got = verify_ff_morphism(frame, d)
        _same(got, reference_ff_morphism(frame, d))
        failed += not got.passed
    assert failed


@pytest.mark.parametrize("fault", LEX_FAULTS, ids=_fault_id)
def test_lex_suite_matches_under_faults(monkeypatch, fault):
    inject, rate, salt = fault
    inject(monkeypatch, rate, salt)
    failed = 0
    for kind, depth in itertools.product((FrameKind.RT, FrameKind.IT), (3, 4)):
        frame = SymbolicTreeFrame(kind, 2)
        got = _lex_suite(frame, depth, Bounds())
        _same(got, reference_lex_suite(frame, depth, Bounds()))
        failed += not got.passed
    assert failed


def test_g_blocks_fall_back_to_whole_witnesses(monkeypatch):
    # an interleave that marks zero-padded input: the reference never passes
    # any, but every block head prefix(anchor, m) ends in a padding zero, so
    # each block maps its witnesses whole, and a U_k fault then shows there
    real = omega._interleave
    padded = []

    def marking(a, b):
        if (a and a[-1] == 0) or (b and b[-1] == 0):
            padded.append((a, b))
            return real(a, b) + ((0, 0),)
        return real(a, b)

    monkeypatch.setattr(omega, "_interleave", marking)
    frame1, frame2 = SymbolicTreeFrame(FrameKind.RT, 2), SymbolicTreeFrame(FrameKind.IN, 2)
    _same(verify_g_morphism(frame1, frame2, 4), reference_g_morphism(frame1, frame2, 4))
    assert padded
    _flip_u_fast(monkeypatch, 97, 0)
    got = verify_g_morphism(frame1, frame2, 4)
    assert not got.passed
    _same(got, reference_g_morphism(frame1, frame2, 4))


# --- the interleave is positionwise ----------------------------------------------------

def positionwise_violation(interleave, head_len=2, tail_len=3, alphabet=(0, 1, 2)):
    """The first (a, b, x, y) with len(a) == len(b) and
    interleave(a + x, b + y) != interleave(a, b) + interleave(x, y), or None."""
    heads = [(a, b) for n in range(head_len + 1)
             for a in itertools.product(alphabet, repeat=n)
             for b in itertools.product(alphabet, repeat=n)]
    tails = [t for n in range(tail_len + 1) for t in itertools.product(alphabet, repeat=n)]
    for a, b in heads:
        ab = interleave(a, b)
        for x, y in itertools.product(tails, tails):
            if interleave(a + x, b + y) != ab + interleave(x, y):
                return a, b, x, y
    return None


def test_interleave_is_positionwise():
    assert positionwise_violation(_interleave) is None


def test_positionwise_check_catches_a_position_dependent_interleave(monkeypatch):
    # a g that loses every letter past position 3 maps tuples of length <= 3
    # right, and at d = 3 a g block reads it on nothing longer (heads and
    # steps are at most d long): the whole-witness loop sees the fault there,
    # the block form does not, and this check does
    def truncating(a, b):
        return _interleave(a[:3], b[:3])

    assert positionwise_violation(truncating) is not None
    monkeypatch.setattr(omega, "_interleave", truncating)
    frame = SymbolicTreeFrame(FrameKind.RT, 2)
    assert verify_g_morphism(frame, frame, 3).passed
    assert reference_g_morphism(frame, frame, 3).counterexample["layer"] == "covering"
