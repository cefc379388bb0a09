"""Block-decided window checks against the per-obligation loops they replace.

verify_g_morphism decides the forward row and the covering witnesses of
each (side, anchor, m) once, with the pinned coordinate zero, counts a
passing verdict once per pinned partner and walks point by point only the
first alpha that meets a failing one, and checks surjectivity on raw letter
tuples built layer by layer; verify_ff_morphism, check_chain and
axiom_evidence decide the obligations of every index that shares
m = max(k, st(alpha)) once; check_fractal decides () R c once per c; and the
lex suite runs all its centers on one shared window. The loops kept here
are the code those replaced: every (point, m, side) with each member and
covering witness mapped whole, surjectivity through Word, TaggedWord, g_map
and g_preimage, every k (and every pair m <= k) on its own, both sides of
the fractal law per pair, and a fresh window per center. Reports must be
identical, counts and first counterexample included, on the plain windows
and under injected faults.

The faults flip U_k membership (omega._u_fast), the tree relation
(_rel_on_tuples, in omega and in kripke), whole U_k rows
(MembershipTable.members) or the image of g (omega._interleave) on a
sparse, deterministic set of arguments. The _u_fast and row faults depend
on k only through m, as U_k itself does; a fault that tells apart two k
with the same m is outside what the block form promises. The g verdicts
promise identical reports for faults that keep g positionwise, which
test_interleave_is_positionwise checks exhaustively on short tuples, and
keep every row inside its anchor's prefix cylinder, as MembershipTable
builds it: a row fault that adds a member off that cylinder gives the
member an image that depends on the pinned partner, so the row faults run
only on the one-frame lemmas. The surjectivity layer maps every tagged word
whole, so it fails where the reference does under any interleave fault.
_flip_anchor fails one anchor's verdict on frames of one kind, so where
the two kinds differ the first failure lands after alpha blocks counted in
bulk. An interleave that swaps two letters of a one-sided image is not
positionwise; its test asserts only that the covering layer, which
compares whole images, fails.
"""

import itertools

import pytest

from nbhdprod import kripke, omega
from nbhdprod.cli import _lex_suite
from nbhdprod.countermodel import Bounds
from nbhdprod.kripke import (FrameKind, SymbolicTreeFrame, Word, check_fractal,
                             enumerate_tagged_words, tree_successors,
                             word_layers)
from nbhdprod.omega import (_interleave, axiom_evidence, check_chain, forget_zeros,
                            g_map, g_preimage, lift, pseudo, verify_ff_morphism,
                            verify_g_morphism, zero_seq)
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
    for z in enumerate_tagged_words(b1, b2, d):
        report.count("surjectivity")
        if g_map(g_preimage(z)) != z:
            return report.fail({"layer": "surjectivity",
                                "tagged": [list(t) for t in z.letters]})
    kinds = {1: frame1.kind, 2: frame2.kind}
    tables = {i: omega.MembershipTable(kinds[i], omega._enumerate_stored(b, d))
              for i, b in ((1, b1), (2, b2))}
    side_steps = {
        i: [(c, tuple((i, x) for x in c))
            for c in tree_successors(kinds[i], (), word_layers(b, d))]
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
                    for member in table.members(anchor, m):
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
    layers = word_layers(frame.branching, d)
    for letters in itertools.chain.from_iterable(layers):
        w = Word(letters, frame.branching)
        report.count("surjectivity")
        if forget_zeros(lift(w)) != w:
            return report.fail({"layer": "surjectivity", "word": list(w.letters)})
    kind = frame.kind
    window = omega._enumerate_stored(frame.branching, d)
    table = omega.MembershipTable(kind, window)
    for a_stored in window:
        a_fw = omega._fw(a_stored)
        targets = list(tree_successors(kind, a_fw, layers))
        for k in range(d + 1):
            for beta in table.members(a_stored, k):
                report.count("forward")
                if not omega._rel_on_tuples(kind, a_fw, omega._fw(beta)):
                    return report.fail({"layer": "forward", "alpha": list(a_stored),
                                        "k": k, "beta": list(beta)})
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


def reference_chain(frame, d, k_max, *, reverse_inclusion=False):
    """check_chain with every pair m <= k decided on its own."""
    report = VerificationReport(
        lemma="chain",
        params={"kind": frame.kind.value, "branching": frame.branching, "d": d,
                "k_max": k_max, "reverse_inclusion": reverse_inclusion})
    window = omega._enumerate_stored(frame.branching, d)
    table = omega.MembershipTable(frame.kind, window)
    for a_stored in window:
        masks = [table.mask(table.members(a_stored, k)) for k in range(k_max + 1)]
        for m in range(k_max + 1):
            for k in range(m, k_max + 1):
                report.checked += 1
                small, large = (masks[m], masks[k]) if reverse_inclusion \
                    else (masks[k], masks[m])
                stray = small & ~large
                if stray:
                    bi = stray.bit_length() - 1
                    return report.fail({"alpha": list(a_stored), "m": m, "k": k,
                                        "beta": list(window[bi])})
    return report


# the evidence each kind promises, written out by hand: d on the
# irreflexive kinds, t on the reflexive ones, four on the transitive ones
EVIDENCE = {FrameKind.IN: ["d"], FrameKind.RN: ["t"], FrameKind.IT: ["d", "four"],
            FrameKind.RT: ["t", "four"]}


def reference_axiom_evidence(frame, d):
    """axiom_evidence with every index k (m for four) decided on its own."""
    kind = frame.kind
    kinds = EVIDENCE[kind]
    report = VerificationReport(
        lemma="axiom-evidence",
        params={"kind": kind.value, "branching": frame.branching, "d": d,
                "evidence": kinds})
    window = omega._enumerate_stored(frame.branching, d)
    table = omega.MembershipTable(kind, window)
    words = [omega._fw(stored) for stored in window]
    if "d" in kinds:
        for a_stored, a_fw in zip(window, words):
            for k in range(d + 1):
                report.checked += 1
                wit = omega._prefix_tuple(a_stored, max(k, len(a_stored) + 1)) + (1,)
                if not omega._u_fast(kind, a_stored, a_fw, wit, omega._fw(wit), k):
                    return report.fail({"evidence": "d", "alpha": list(a_stored),
                                        "k": k, "witness": list(wit)})
    if "t" in kinds:
        for a_stored, a_fw in zip(window, words):
            for k in range(d + 1):
                report.checked += 1
                if not omega._u_fast(kind, a_stored, a_fw, a_stored, a_fw, k):
                    return report.fail({"evidence": "t", "alpha": list(a_stored),
                                        "k": k})
    if "four" in kinds:
        for a_stored in window:
            for m in range(d + 1):
                big_m = max(m, len(a_stored) + 1)
                ys = table.members(a_stored, m)
                members = table.mask(ys)
                for y_stored in reversed(ys):
                    report.checked += 1
                    y_row = table.members(y_stored, max(big_m, len(y_stored) + 1))
                    stray = table.mask(y_row) & ~members
                    if stray:
                        bi = stray.bit_length() - 1
                        return report.fail({"evidence": "four", "alpha": list(a_stored),
                                            "m": m, "y": list(y_stored),
                                            "z": list(window[bi])})
    return report


def reference_fractal(frame, depth, *, lhs_kind=None):
    """check_fractal with both sides decided for every pair (a, c)."""
    left = frame.kind if lhs_kind is None else lhs_kind
    report = VerificationReport(
        lemma="fractal",
        params={"kind": frame.kind.value, "branching": frame.branching,
                "depth": depth, "lhs_kind": left.value})
    layers = word_layers(frame.branching, depth)
    for a in itertools.chain.from_iterable(layers):
        for c in itertools.chain.from_iterable(layers[:depth - len(a) + 1]):
            lhs = kripke._rel_on_tuples(left, a, a + c)
            rhs = kripke._rel_on_tuples(frame.kind, (), c)
            report.checked += 1
            if lhs != rhs:
                return report.fail({"a": list(a), "c": list(c), "lhs": lhs, "rhs": rhs})
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

# kind pairs whose g-morphism also runs at d5, per branching: the reference
# takes about 0.45 s for rt-it at b2 d5
G_DEEP = {1: set(itertools.product(KINDS, KINDS)),
          2: {(FrameKind.RT, FrameKind.IT), (FrameKind.IT, FrameKind.RT),
              (FrameKind.RN, FrameKind.IN), (FrameKind.IN, FrameKind.RN)},
          3: set()}


@pytest.mark.parametrize("branching", [1, 2, 3])
def test_g_morphism_matches_per_witness_loop(branching):
    for frame1, frame2 in itertools.product(_frames(branching), repeat=2):
        deep = (frame1.kind, frame2.kind) in G_DEEP[branching]
        for d in range(6 if deep else 5):
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


def _depths(branching):
    return range(6 if branching < 3 else 4)


@pytest.mark.parametrize("branching", [1, 2, 3])
def test_chain_matches_per_pair_loop(branching):
    for frame in _frames(branching):
        for d, k_max, reverse in itertools.product(_depths(branching), (0, 1, 3, 8),
                                                   (False, True)):
            _same(check_chain(frame, d, k_max, reverse_inclusion=reverse),
                  reference_chain(frame, d, k_max, reverse_inclusion=reverse))


@pytest.mark.parametrize("branching", [1, 2, 3])
def test_axiom_evidence_matches_per_index_loop(branching):
    for frame in _frames(branching):
        for d in _depths(branching):
            _same(axiom_evidence(frame, d), reference_axiom_evidence(frame, d))


@pytest.mark.parametrize("branching", [1, 2, 3])
def test_fractal_matches_per_pair_loop(branching):
    # lhs_kind None checks the law itself; every kind, the frame's own among
    # them, is also passed explicitly
    for frame, left in itertools.product(_frames(branching), (None, *KINDS)):
        for depth in range(7):
            _same(check_fractal(frame, depth, lhs_kind=left),
                  reference_fractal(frame, depth, lhs_kind=left))


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


def _flip_row(monkeypatch, rate, salt):
    """Flip the window point at index bi in every U_k(anchor) row where the
    hash of (anchor, bi, m) hits: the rows at different m of one anchor stop
    being nested, which no fault of the relation or of _u_fast can do."""
    real = omega.MembershipTable.members

    def faulty(self, anchor, k):
        m = max(k, len(anchor) + 1)
        row = {self.index[x] for x in real(self, anchor, k)}
        row.symmetric_difference_update(
            bi for bi in range(len(self.window))
            if hash((salt, anchor, bi, m)) % rate == 0)
        return [self.window[bi] for bi in sorted(row)]

    monkeypatch.setattr(omega.MembershipTable, "members", faulty)


def _flip_interleave(monkeypatch, rate, salt):
    """Drop the last letter of g's image wherever the hash of the pair hits."""
    real = omega._interleave

    def faulty(a, b):
        out = real(a, b)
        return out[:-1] if hash((salt, a, b)) % rate == 0 else out

    monkeypatch.setattr(omega, "_interleave", faulty)


def _flip_anchor(monkeypatch, kind, anchor, m):
    """Flip U_m(anchor) membership on frames of one kind, at that one anchor
    and index only."""
    real = omega._u_fast

    def faulty(kind_, a_stored, a_fw, b_stored, b_fw, k):
        flip = kind_ is kind and a_stored == anchor and max(k, len(a_stored) + 1) == m
        return real(kind_, a_stored, a_fw, b_stored, b_fw, k) != flip

    monkeypatch.setattr(omega, "_u_fast", faulty)


# (injector, rate, salt) per check: each fault makes some of its runs fail,
# dense ones at the first obligations, sparse ones deep into the window
G_FAULTS = [(_flip_u_fast, 2, 0), (_flip_u_fast, 31, 1), (_flip_u_fast, 97, 0),
            (_flip_u_fast, 257, 0), (_flip_rel, 3, 0), (_flip_rel, 31, 0),
            (_flip_rel, 97, 0), (_flip_rel, 257, 0), (_flip_fused, 2, 0),
            (_flip_fused, 5, 1)]
FF_FAULTS = [(_flip_u_fast, 2, 0), (_flip_u_fast, 97, 1), (_flip_u_fast, 257, 1),
             (_flip_u_fast, 1009, 1), (_flip_rel, 5, 0), (_flip_rel, 31, 0),
             (_flip_rel, 97, 1), (_flip_rel, 257, 1), (_flip_row, 7, 0),
             (_flip_row, 97, 1), (_flip_row, 997, 0)]
WINDOW_FAULTS = [(_flip_u_fast, 2, 0), (_flip_u_fast, 97, 1), (_flip_rel, 5, 0),
                 (_flip_rel, 97, 1), (_flip_rel, 257, 0), (_flip_row, 7, 0),
                 (_flip_row, 97, 1), (_flip_row, 997, 0)]
LEX_FAULTS = [(_flip_u_fast, 2, 0), (_flip_u_fast, 3, 1), (_flip_u_fast, 7, 1),
              (_flip_u_fast, 31, 1), (_flip_rel, 2, 0), (_flip_rel, 7, 1),
              (_flip_rel, 97, 1), (_flip_rel, 257, 2)]


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


@pytest.mark.parametrize("fault", WINDOW_FAULTS, ids=_fault_id)
def test_window_lemmas_match_under_faults(monkeypatch, fault):
    # chain in reverse and fractal with a mixed left-hand kind are controls
    # that fail anyway; failed counts only the lemmas that pass unfaulted
    inject, rate, salt = fault
    inject(monkeypatch, rate, salt)
    failed = 0
    for frame, d in itertools.product(_frames(2), (4, 5)):
        for k_max, reverse in itertools.product((3, 8), (False, True)):
            got = check_chain(frame, d, k_max, reverse_inclusion=reverse)
            _same(got, reference_chain(frame, d, k_max, reverse_inclusion=reverse))
            failed += not (got.passed or reverse)
        got = axiom_evidence(frame, d)
        _same(got, reference_axiom_evidence(frame, d))
        failed += not got.passed
        for left in KINDS:
            got = check_fractal(frame, d + 1, lhs_kind=left)
            _same(got, reference_fractal(frame, d + 1, lhs_kind=left))
            failed += not (got.passed or left is not frame.kind)
    assert failed


@pytest.mark.parametrize("fault", [(_flip_interleave, 5, 0), (_flip_interleave, 31, 1),
                                   (_flip_interleave, 97, 0)],
                         ids=_fault_id)
def test_g_surjectivity_matches_under_faults(monkeypatch, fault):
    inject, rate, salt = fault
    inject(monkeypatch, rate, salt)
    for (b1, b2), d in itertools.product(((1, 1), (2, 2), (2, 1)), (3, 4)):
        frame1 = SymbolicTreeFrame(FrameKind.RT, b1)
        frame2 = SymbolicTreeFrame(FrameKind.IN, b2)
        got = verify_g_morphism(frame1, frame2, d)
        _same(got, reference_g_morphism(frame1, frame2, d))
        assert got.counterexample["layer"] == "surjectivity"


@pytest.mark.parametrize("pair", ["rt-it", "it-rt", "in-rn", "rt-rt"])
def test_g_bulk_count_matches_past_the_first_block(monkeypatch, pair):
    # the fault fails the first side's verdict at (2, 2), m = 5, alone when
    # the kinds differ: the alpha blocks before (2, 2) are counted in bulk
    # and the failing one walked. On rt-rt it fails the second side's too,
    # which meets alpha = (), so the first block is the one walked
    kind1, kind2 = (FrameKind(value) for value in pair.split("-"))
    _flip_anchor(monkeypatch, kind1, (2, 2), 5)
    frame1, frame2 = SymbolicTreeFrame(kind1, 2), SymbolicTreeFrame(kind2, 2)
    got = verify_g_morphism(frame1, frame2, 5)
    _same(got, reference_g_morphism(frame1, frame2, 5))
    assert got.counterexample["layer"] == "covering"
    assert got.counterexample["point"] == ({"first": [], "second": [2, 2]}
                                           if kind1 is kind2 else
                                           {"first": [2, 2], "second": []})


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


def _marking(a, b):
    """g with an extra letter wherever an input is zero-padded: g of a
    padded prefix is no longer the prefix of g of its extensions."""
    out = _interleave(a, b)
    return out + ((0, 0),) if (a and a[-1] == 0) or (b and b[-1] == 0) else out


def _truncating(a, b):
    """g that loses every letter past position 3."""
    return _interleave(a[:3], b[:3])


def _g_parity_under(interleave, flip):
    """Check verify_g_morphism against the whole-witness loop on all 16
    pairs at b2 d3-4 under ``interleave`` (and a U_k fault if ``flip``);
    return how many of the 32 runs fail."""
    failed = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(omega, "_interleave", interleave)
        if flip:
            _flip_u_fast(patch, 97, 0)
        for kind1, kind2 in itertools.product(KINDS, KINDS):
            frame1, frame2 = SymbolicTreeFrame(kind1, 2), SymbolicTreeFrame(kind2, 2)
            for d in (3, 4):
                got = verify_g_morphism(frame1, frame2, d)
                _same(got, reference_g_morphism(frame1, frame2, d))
                failed += not got.passed
    return failed


def test_g_blocks_fall_back_to_whole_witnesses():
    # an interleave that marks zero-padded input is not positionwise, which
    # is outside what the block form promises; the verdicts still map only
    # canonical tuples, each whole with the partner zero, so their reports
    # are the whole-witness loop's on all 16 pairs. No canonical tuple is
    # zero-padded, so the marking g passes where g does, and a U_k fault
    # then fails every run
    assert positionwise_violation(_marking) is not None
    assert _g_parity_under(_marking, flip=False) == 0
    assert _g_parity_under(_marking, flip=True) == 32


def _swapping(a, b):
    """g that swaps the last two letters of a one-sided image whose side
    holds a zero, wherever the hash of the pair hits: the image keeps its
    length and its letters, and surjectivity, which maps only canonical
    coordinates, never sees it, since a one-sided word has no zero."""
    out = _interleave(a, b)
    if not (a and b) and 0 in a + b and hash((0, a, b)) % 7 == 0:
        return out[:-2] + out[-2:][::-1]
    return out


def test_g_covering_compares_whole_images(monkeypatch):
    # a covering witness prefix(anchor, m) + c holds zeros whenever the
    # anchor is shorter than m, so the swap reaches the covering layer and
    # only a comparison of the whole image with g(anchor) + c catches it.
    # The fault is not positionwise, so parity with the reference is not
    # promised; only the failures are asserted
    monkeypatch.setattr(omega, "_interleave", _swapping)
    layers = []
    for kind1, kind2 in itertools.product(KINDS, KINDS):
        frame1, frame2 = SymbolicTreeFrame(kind1, 2), SymbolicTreeFrame(kind2, 2)
        for d in (3, 4):
            got = verify_g_morphism(frame1, frame2, d)
            if not got.passed:
                layers.append(got.counterexample["layer"])
    assert layers == ["covering"] * 28


def test_positionwise_check_catches_a_position_dependent_interleave():
    # a g that loses every letter past position 3 is flagged by the
    # positionwise check, and the verdicts, which map every witness whole,
    # fail every run as the whole-witness loop does, with or without a U_k
    # fault
    assert positionwise_violation(_truncating) is not None
    assert _g_parity_under(_truncating, flip=False) == 32
    assert _g_parity_under(_truncating, flip=True) == 32
