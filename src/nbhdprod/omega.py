"""Pseudo-infinite sequences and the window checks built on them.

A point is an eventually-zero sequence over {0} + alphabet, stored as the
canonical finite tuple up to its last nonzero entry. The stabilization index
st is the first position from which everything is zero (st of the all-zero
sequence is 1). Around every point sits the family of sets

    U_k(alpha) = { beta | beta agrees with alpha up to max(k, st(alpha))
                          and f(alpha) R f(beta) }

where f deletes zeros and R is a tree-frame relation. These families form
filter bases (the chain U_k subset-of U_m for k >= m), carry a bounded
morphism onto the tree frame via f, and pair up into product points whose
interleave-and-untag image g lands in the fused tree frame. Every lemma-level
claim here is checked on finite enumeration windows with exact constructed
witnesses, never by sampling.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from .formula import LOGICS
from .kripke import (DEFAULT_SEQ_BUDGET, FrameKind, SymbolicTreeFrame, TaggedWord,
                     Word, _fusion_rel_on_tuples, _rel_on_tuples, tagged_letters)
from .report import VerificationReport, check_window


@dataclass(frozen=True)
class PseudoSeq:
    """Eventually-zero sequence in canonical form: stored holds the entries up
    to the last nonzero one (so it never ends in 0); everything after is 0."""

    stored: tuple[int, ...]
    branching: int
    signed: bool = False

    def __post_init__(self) -> None:
        if self.branching < 1:
            raise ValueError("branching must be >= 1")
        if self.stored and self.stored[-1] == 0:
            raise ValueError("stored entries must be canonical (no trailing zero)")
        for x in self.stored:
            if self.signed:
                ok = abs(x) <= self.branching
            else:
                ok = 0 <= x <= self.branching
            if not ok:
                raise ValueError(f"entry {x} invalid for branching {self.branching} "
                                 f"(signed={self.signed})")

    @property
    def st(self) -> int:
        """First index from which every entry is zero (1-indexed)."""
        return len(self.stored) + 1

    def entry(self, k: int) -> int:
        """The k-th entry, 1-indexed."""
        if k < 1:
            raise ValueError("positions are 1-indexed")
        return self.stored[k - 1] if k <= len(self.stored) else 0


def pseudo(entries: Iterable[int], branching: int, signed: bool = False) -> PseudoSeq:
    """Canonicalizing constructor: strips trailing zeros."""
    return PseudoSeq(_canon(tuple(entries)), branching, signed)


def zero_seq(branching: int, signed: bool = False) -> PseudoSeq:
    return PseudoSeq((), branching, signed)


def _prefix_tuple(stored: tuple[int, ...], k: int) -> tuple[int, ...]:
    if k <= len(stored):
        return stored[:k]
    return stored + (0,) * (k - len(stored))


def prefix(alpha: PseudoSeq, k: int) -> tuple[int, ...]:
    """First k entries, zero-padded."""
    if k < 0:
        raise ValueError("prefix length must be >= 0")
    return _prefix_tuple(alpha.stored, k)


def forget_zeros(alpha: PseudoSeq) -> Word:
    """Delete all zeros; the word of materialized letters."""
    return Word(tuple(x for x in alpha.stored if x != 0), alpha.branching)


def lift(w: Word) -> PseudoSeq:
    """Zero-free lift; forget_zeros(lift(w)) == w for every word."""
    return PseudoSeq(w.letters, w.branching)


def _canon(entries: tuple[int, ...]) -> tuple[int, ...]:
    """Strip trailing zeros: the stored form of a finite entry list."""
    end = len(entries)
    while end and entries[end - 1] == 0:
        end -= 1
    return entries[:end]


def _enumerate_stored(branching: int, d: int,
                      signed: bool = False) -> list[tuple[int, ...]]:
    """Stored tuples of enumerate_pseudo, same order and budget check."""
    alphabet = range(-branching, branching + 1) if signed else range(branching + 1)
    what = f"{'signed ' if signed else ''}sequences with support <= {d} " \
        f"at branching {branching}"
    check_window(what, len(alphabet) - 1, len(alphabet), d, DEFAULT_SEQ_BUDGET)
    out: list[tuple[int, ...]] = [()]
    for length in range(1, d + 1):
        for head in itertools.product(alphabet, repeat=length - 1):
            out.extend(head + (last,) for last in alphabet if last)
    return out


def enumerate_pseudo(branching: int, d: int, signed: bool = False) -> list[PseudoSeq]:
    """All sequences with support inside the first d positions, in shortlex
    order of the canonical stored tuples."""
    return [PseudoSeq(stored, branching, signed)
            for stored in _enumerate_stored(branching, d, signed)]


def _u_fast(kind: FrameKind, a_stored: tuple[int, ...], a_fw: tuple[int, ...],
            b_stored: tuple[int, ...], b_fw: tuple[int, ...], k: int) -> bool:
    # a_stored is canonical: b_stored agrees up to max(k, st) iff it is a_stored, then 0s
    n = len(a_stored)
    return b_stored[:n] == a_stored and not any(b_stored[n:max(k, n + 1)]) \
        and _rel_on_tuples(kind, a_fw, b_fw)


def _fw(stored: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(filter(None, stored))


def u_contains(frame: SymbolicTreeFrame, alpha: PseudoSeq, k: int,
               beta: PseudoSeq) -> bool:
    """Membership in U_k(alpha): prefix agreement up to max(k, st(alpha)) and
    f(alpha) R f(beta)."""
    if alpha.branching != frame.branching or beta.branching != frame.branching:
        raise ValueError("sequence branching does not match the frame")
    if alpha.signed != beta.signed:
        raise ValueError("cannot mix signed and unsigned sequences")
    if k < 0:
        raise ValueError("index must be >= 0")
    return _u_fast(frame.kind, alpha.stored, _fw(alpha.stored),
                   beta.stored, _fw(beta.stored), k)


class MembershipTable:
    """U_k membership over one enumeration window of stored tuples.

    The window must be _enumerate_stored's output: every canonical tuple up
    to its greatest length d, in shortlex order. The table keeps its steps:
    the nonempty window tuples s of length <= d - 1 with () R f(s). A member
    of U_k(a) other than a is prefix(a, m) + s with m = max(k, st(a)), and f
    maps it to f(a) + f(s), so by the fractal law it is one iff s is a step.
    The row of a at k is a itself when () R () holds, then prefix(a, m) + s
    for each step of length <= d - m: the member tuples in window order. A
    canonical anchor outside the window has no member in it. The table
    keeps no row: each call builds its row from the steps, which costs the
    row's members, and a caller that reads a row again keeps it itself.
    Window indices appear only in mask, which turns a row into bits.
    """

    def __init__(self, kind: FrameKind, window: Sequence[tuple[int, ...]]):
        self.window = window
        self.index = {stored: bi for bi, stored in enumerate(window)}
        self._depth = len(window[-1])
        # every row has m >= 1, so none reads a step longer than d - 1
        fit = bisect_right(window, self._depth - 1, key=len)
        self._steps = [s for s in itertools.islice(window, 1, fit)
                       if _rel_on_tuples(kind, (), _fw(s))]
        self._reflexive = kind.reflexive

    def members(self, anchor: tuple[int, ...], k: int) -> list[tuple[int, ...]]:
        """The members of U_k(anchor) in the window, in window order."""
        if anchor not in self.index:
            return []
        m = max(k, len(anchor) + 1)
        head = _prefix_tuple(anchor, m)
        # head + s ends in s's last entry, which is nonzero, so it is
        # canonical and, at length <= d, in the window
        cut = bisect_right(self._steps, self._depth - m, key=len)
        row = [anchor] if self._reflexive else []
        row += [head + s for s in self._steps[:cut]]
        return row

    def mask(self, row: Iterable[tuple[int, ...]]) -> int:
        """The bitmask over window indices with the bits of row's members set."""
        index, mask = self.index, 0
        for stored in row:
            mask |= 1 << index[stored]
        return mask


def _steps(kind: FrameKind, window: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The steps () R c of length <= d in shortlex order: the zero-free
    tuples (the words) of a window of support <= d whose lengths lie in
    kind.steps. A slice by length reads no relation, as tree_successors."""
    words = [stored for stored in window if 0 not in stored]
    lo, hi = kind.steps
    return words[bisect_left(words, lo, key=len):bisect_right(words, hi, key=len)]


def _index_blocks(st: int, k_max: int) -> list[tuple[int, int]]:
    """The indices k = 0..k_max in blocks that share m = max(k, st): each
    block as (its least k, how many k it covers). k = 0..min(st, k_max)
    form the first block, every larger k a block of its own."""
    if k_max < 0:
        return []
    top = min(st, k_max)
    return [(0, top + 1), *((k, 1) for k in range(top + 1, k_max + 1))]


# --- chain lemma -----------------------------------------------------------------

def check_chain(frame: SymbolicTreeFrame, d: int, k_max: int, *,
                reverse_inclusion: bool = False) -> VerificationReport:
    """U_k(alpha) subset-of U_m(alpha) for all m <= k <= k_max, on the window
    of sequences with support <= d.

    reverse_inclusion checks U_m subset-of U_k instead; that direction is
    false and serves as a detector self-test.

    U_k(alpha) depends on k only through max(k, st(alpha)), so the indices
    fall into blocks (_index_blocks). Pairs inside one block compare a set
    with itself and hold; every other pair of blocks is decided once, at
    the least index of each, and counted by its multiplicity. checked and
    the first failing (m, k) are those of the loop over every pair.
    """
    with VerificationReport(
            lemma="chain",
            params={"kind": frame.kind.value, "branching": frame.branching, "d": d,
                    "k_max": k_max, "reverse_inclusion": reverse_inclusion}) as report:
        window = _enumerate_stored(frame.branching, d)
        table = MembershipTable(frame.kind, window)
        for a_stored in window:
            blocks = _index_blocks(len(a_stored) + 1, k_max)
            masks = [table.mask(table.members(a_stored, k)) for k, _ in blocks]
            for x, (m, size) in enumerate(blocks):
                for y in range(x + 1, len(blocks)):
                    small, large = (masks[x], masks[y]) if reverse_inclusion \
                        else (masks[y], masks[x])
                    stray = small & ~large
                    if stray:
                        # every row of block x fails here; its first row,
                        # m, meets the least k of block y first
                        k = blocks[y][0]
                        report.checked += k - m + 1
                        bi = stray.bit_length() - 1
                        return report.fail({"alpha": list(a_stored), "m": m, "k": k,
                                            "beta": list(window[bi])})
                # rows m .. m + size - 1 pass, row r holding the pairs (r, r..k_max)
                report.checked += size * (k_max + 1 - m) - size * (size - 1) // 2
    return report


# --- bounded morphism onto the tree frame ----------------------------------------

# the obligations of both morphism checks, counted per layer in params["layers"]
_MORPHISM_LAYERS = ("surjectivity", "forward", "covering")


def verify_ff_morphism(frame: SymbolicTreeFrame, d: int) -> VerificationReport:
    """The zero-forgetting map is a surjective bounded morphism, verified on
    the window by exact witnesses:

    surjectivity  lift(w) maps back onto every word w;
    forward       every member of every U_k(alpha) lands in R(f(alpha));
    covering      every R-successor w of f(alpha) is hit from inside
                  U_k(alpha) by prefix(alpha, max(k, st(alpha))) + suffix,
                  where suffix extends f(alpha) to w.
    """
    with VerificationReport(
            lemma="ff-morphism",
            params={"kind": frame.kind.value, "branching": frame.branching, "d": d,
                    "layers": dict.fromkeys(_MORPHISM_LAYERS, 0)}) as report:
        kind = frame.kind
        window = _enumerate_stored(frame.branching, d)
        # forget_zeros(lift(w)) == w on the raw letters of each word w, the
        # zero-free tuples of the window in shortlex order (lift(w) is w)
        for letters in (stored for stored in window if 0 not in stored):
            report.count("surjectivity")
            if _fw(letters) != letters:
                return report.fail({"layer": "surjectivity", "word": list(letters)})
        table = MembershipTable(kind, window)
        # the R-successors of f(alpha) in the window are f(alpha) + c for the
        # steps () R c of length <= d - len(f(alpha)), a prefix of steps
        steps = _steps(kind, window)
        for a_stored in window:
            a_fw = _fw(a_stored)
            cut = steps[:bisect_right(steps, d - len(a_fw), key=len)]
            # the obligations at k depend on k only through m = max(k, st(alpha)):
            # decide each block of k at its least k and count the rest in bulk
            for k, size in _index_blocks(len(a_stored) + 1, d):
                members = table.members(a_stored, k)
                for n, beta in enumerate(members):
                    if not _rel_on_tuples(kind, a_fw, _fw(beta)):
                        report.count("forward", n + 1)
                        return report.fail({"layer": "forward",
                                            "alpha": list(a_stored), "k": k,
                                            "beta": list(beta)})
                report.count("forward", len(members))
                head = _prefix_tuple(a_stored, max(k, len(a_stored) + 1))
                for n, c in enumerate(cut):
                    beta = _canon(head + c)
                    beta_fw = _fw(beta)
                    if not (_u_fast(kind, a_stored, a_fw, beta, beta_fw, k)
                            and beta_fw == a_fw + c):
                        report.count("covering", n + 1)
                        return report.fail({"layer": "covering",
                                            "alpha": list(a_stored), "k": k,
                                            "target": list(a_fw + c),
                                            "witness": list(beta)})
                report.count("forward", (size - 1) * len(members))
                report.count("covering", size * len(cut))
    return report


def axiom_evidence(frame: SymbolicTreeFrame, d: int) -> VerificationReport:
    """Window evidence that the U_k families validate the defining axioms of
    the frame kind's logic (formula.LOGICS[kind.logic]):

    d     every U_k(alpha) owns the member prefix + letter 1 (nonempty);
    t     alpha itself is in every U_k(alpha) (reflexive kinds);
    four  members of U_{max(k, st(y))}(y) for y in U_m(alpha) stay inside
          U_m(alpha) (transitive kinds), with k pinned at the index that the
          prefix constraint actually requires.

    Every layer depends on its index (k, or m for four) only through
    max(index, st(alpha)), so each block of _index_blocks is decided once,
    at its least index, and the rest of the block counted in bulk. checked
    and the first counterexample are those of the loop over every index.
    """
    kinds = [scheme.value.lower() for scheme in LOGICS[frame.kind.logic]]
    with VerificationReport(
            lemma="axiom-evidence",
            params={"kind": frame.kind.value, "branching": frame.branching, "d": d,
                    "evidence": kinds}) as report:
        window = _enumerate_stored(frame.branching, d)
        table = MembershipTable(frame.kind, window)
        words = [_fw(stored) for stored in window]
        if "d" in kinds:
            for a_stored, a_fw in zip(window, words):
                for k, size in _index_blocks(len(a_stored) + 1, d):
                    wit = _prefix_tuple(a_stored, max(k, len(a_stored) + 1)) + (1,)
                    if not _u_fast(frame.kind, a_stored, a_fw, wit, _fw(wit), k):
                        report.checked += 1
                        return report.fail({"evidence": "d", "alpha": list(a_stored),
                                            "k": k, "witness": list(wit)})
                    report.checked += size
        if "t" in kinds:
            for a_stored, a_fw in zip(window, words):
                for k, size in _index_blocks(len(a_stored) + 1, d):
                    if not _u_fast(frame.kind, a_stored, a_fw, a_stored, a_fw, k):
                        report.checked += 1
                        return report.fail({"evidence": "t", "alpha": list(a_stored),
                                            "k": k})
                    report.checked += size
        if "four" in kinds:
            for a_stored in window:
                for m, size in _index_blocks(len(a_stored) + 1, d):
                    big_m = max(m, len(a_stored) + 1)
                    ys = table.members(a_stored, m)
                    members = table.mask(ys)
                    # last member in window order first
                    for n, y_stored in enumerate(reversed(ys)):
                        stray = table.mask(table.members(y_stored, big_m)) & ~members
                        if stray:
                            report.checked += n + 1
                            bi = stray.bit_length() - 1
                            return report.fail({"evidence": "four",
                                                "alpha": list(a_stored), "m": m,
                                                "y": list(y_stored),
                                                "z": list(window[bi])})
                    report.checked += size * len(ys)
    return report


# --- product points and the interleaving map -------------------------------------

@dataclass(frozen=True)
class ProductPoint:
    first: PseudoSeq
    second: PseudoSeq


def point_json(a: tuple[int, ...], b: tuple[int, ...]) -> dict[str, list[int]]:
    """The product point of two stored tuples as the reports print it."""
    return {"first": list(a), "second": list(b)}


def _interleave(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    if not b:
        return tuple([(1, x) for x in a if x])
    if not a:
        return tuple([(2, y) for y in b if y])
    letters: list[tuple[int, int]] = []
    for x, y in itertools.zip_longest(a, b, fillvalue=0):
        if x:
            letters.append((1, x))
        if y:
            letters.append((2, y))
    return tuple(letters)


def g_map(p: ProductPoint) -> TaggedWord:
    """Interleave the coordinates position by position (first coordinate
    before second), delete zeros, tag every surviving letter with its side."""
    return TaggedWord(_interleave(p.first.stored, p.second.stored),
                      (p.first.branching, p.second.branching))


def g_preimage(z: TaggedWord) -> ProductPoint:
    """Canonical preimage: the letter in slot i goes to position i of its own
    coordinate, zeros everywhere else."""
    b1, b2 = z.branchings
    xs = [0] * len(z.letters)
    ys = [0] * len(z.letters)
    for slot, (side, letter) in enumerate(z.letters):
        if side == 1:
            xs[slot] = letter
        else:
            ys[slot] = letter
    return ProductPoint(pseudo(xs, b1), pseudo(ys, b2))


def product_u_contains(frame1: SymbolicTreeFrame, frame2: SymbolicTreeFrame,
                       i: int, base_point: ProductPoint, m: int,
                       q: ProductPoint) -> bool:
    """Membership in the modality-i base set with index m at base_point:
    the moving coordinate ranges over U_m, the other coordinate is pinned."""
    if i == 1:
        return q.second == base_point.second and \
            u_contains(frame1, base_point.first, m, q.first)
    if i == 2:
        return q.first == base_point.first and \
            u_contains(frame2, base_point.second, m, q.second)
    raise ValueError(f"modality index {i} out of range (1, 2)")


def verify_g_morphism(frame1: SymbolicTreeFrame, frame2: SymbolicTreeFrame,
                      d: int) -> VerificationReport:
    """The interleaving map is a surjective bounded morphism from the product
    of two sequence spaces onto the fused tree frame, on the window:

    surjectivity  g(g_preimage(z)) == z for every tagged word with len <= d;
    forward       base-set members map into the fused relation image;
    covering      every fused successor g(p).c (c written on one side) is hit
                  by the exact witness prefix + c on the moving coordinate.

    The base-set index m ranges over max(st(first), st(second)) + 1 .. d; the
    interleave only splits cleanly past the stabilization of both coordinates.
    Each (side, anchor, m) is decided once; a pass counts once per partner of
    length <= m - 2, and only the first alpha that meets a failure is walked
    point by point, so the report is that of the loop over every point.
    """
    b1, b2 = frame1.branching, frame2.branching
    with VerificationReport(
            lemma="g-morphism",
            params={"kind1": frame1.kind.value, "kind2": frame2.kind.value,
                    "branching1": b1, "branching2": b2, "d": d,
                    "layers": dict.fromkeys(_MORPHISM_LAYERS, 0)}) as report:
        # g(g_preimage(z)) == z on raw letter tuples, in shortlex order: each
        # tagged word and its two coordinates extend one of the last layer's
        # by one letter, only that layer is kept, and the deepest streams
        tails = [(((side, x),), (x if side == 1 else 0,), (0 if side == 1 else x,))
                 for side, x in tagged_letters(b1, b2, d)]
        layer: Iterable[tuple[tuple[Any, ...], ...]] = [((), (), ())]
        checked = 0
        for n in range(max(d, 0) + 1):
            if n:
                layer = (list if n < d else iter)(
                    (z + t, f + tf, s + ts) for z, f, s in layer for t, tf, ts in tails)
            for z, first, second in layer:
                checked += 1
                if _interleave(_canon(first), _canon(second)) != z:
                    report.count("surjectivity", checked)
                    return report.fail({"layer": "surjectivity",
                                        "tagged": [list(t) for t in z]})
        report.count("surjectivity", checked)
        kinds = {1: frame1.kind, 2: frame2.kind}
        tables = {1: MembershipTable(frame1.kind, _enumerate_stored(b1, d)),
                  2: MembershipTable(frame2.kind, _enumerate_stored(b2, d))}
        # the steps () R c per side, inside the window, with their tagged forms
        side_steps = {i: [(c, tuple((i, x) for x in c))
                          for c in _steps(kinds[i], tables[i].window)]
                      for i in (1, 2)}

        def alone(i: int, x: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
            """g of the point with x on side i and zero on the other side."""
            return _interleave(x, ()) if i == 1 else _interleave((), x)

        # (side, anchor, m) -> (how many members U_m(anchor) has, the index of
        # its first member x without g(anchor) R_i g(x), the index of the first step
        # c whose witness prefix(anchor, m) + c leaves U_m(anchor) or does not
        # map to g(anchor) + c tagged; past the end if none fails), decided with
        # the pinned coordinate zero. g maps position by position, every member
        # and witness agrees with the anchor up to m, and every pinned partner
        # at m is zero from m on, so this is the verdict of every point there.
        verdicts: dict[tuple[int, tuple[int, ...], int], tuple[int, int, int]] = {}

        def verdict(i: int, anchor: tuple[int, ...], m: int) -> tuple[int, int, int]:
            hit = verdicts.get((i, anchor, m))
            if hit is None:
                kind, table, steps = kinds[i], tables[i], side_steps[i]
                image, anchor_fw = alone(i, anchor), _fw(anchor)
                row = table.members(anchor, m)
                forward = next((n for n, x in enumerate(row) if not _fusion_rel_on_tuples(
                    kind, i, image, alone(i, x))), len(row))
                head = _prefix_tuple(anchor, m)
                covering = len(steps)
                for j, (c, tagged) in enumerate(steps):
                    x = head + c if c else anchor  # canonical: c ends in a letter
                    if not (_u_fast(kind, anchor, anchor_fw, x, _fw(x), m)
                            and alone(i, x) == image + tagged):
                        covering = j
                        break
                hit = verdicts[(i, anchor, m)] = len(row), forward, covering
            return hit

        def passes(i: int, anchor: tuple[int, ...]) -> bool:
            return all((f, c) == (size, len(side_steps[i])) for size, f, c in (
                verdict(i, anchor, m) for m in range(len(anchor) + 2, d + 1)))

        # base-set indices reach d only for coordinates with st + 1 <= d, the
        # shortlex prefix of each window
        inner = {i: list(itertools.takewhile(lambda s: len(s) + 2 <= d,
                                             tables[i].window)) for i in (1, 2)}
        # a side-2 verdict meets alpha = (), a side-1 verdict its own alpha
        # only, and the partners at m, of length <= m - 2, lead their window
        stop = 0 if not all(passes(2, beta) for beta in inner[2]) else next(
            (n for n, alpha in enumerate(inner[1]) if not passes(1, alpha)), len(inner[1]))
        for i, anchors, cap in ((1, inner[1][:stop], len(inner[2])),
                                (2, inner[2] if stop else [], stop)):
            for anchor in anchors:
                for m in range(len(anchor) + 2, d + 1):
                    times = min(cap, bisect_right(inner[3 - i], m - 2, key=len))
                    report.count("forward", times * verdict(i, anchor, m)[0])
                    report.count("covering", times * len(side_steps[i]))
        for alpha in inner[1][stop:stop + 1]:
            for beta in inner[2]:
                for m in range(max(len(alpha), len(beta)) + 2, d + 1):
                    for i in (1, 2):
                        anchor = alpha if i == 1 else beta
                        size, forward, covering = verdict(i, anchor, m)
                        report.count("forward", min(forward + 1, size))
                        if forward < size:
                            x = tables[i].members(anchor, m)[forward]
                            q = (x, beta) if i == 1 else (alpha, x)
                            return report.fail({
                                "layer": "forward", "modality": i, "m": m,
                                "point": point_json(alpha, beta), "member": point_json(*q)})
                        steps = side_steps[i]
                        report.count("covering", min(covering + 1, len(steps)))
                        if covering < len(steps):
                            c = steps[covering][0]
                            x = _canon(_prefix_tuple(anchor, m) + c)
                            q = (x, beta) if i == 1 else (alpha, x)
                            return report.fail({
                                "layer": "covering", "modality": i, "m": m,
                                "point": point_json(alpha, beta), "step": list(c),
                                "witness": point_json(*q)})
    return report


# --- lexicographic order on the signed alphabet -----------------------------------

def _require_signed_pair(a: PseudoSeq, b: PseudoSeq) -> None:
    if not (a.signed and b.signed):
        raise ValueError("order operations need signed sequences")
    if a.branching != b.branching:
        raise ValueError("branching mismatch")


def lex_compare(a: PseudoSeq, b: PseudoSeq) -> int:
    """-1, 0 or 1 by the first differing materialized position; zero padding
    sits strictly between negative and positive letters."""
    _require_signed_pair(a, b)
    n = max(len(a.stored), len(b.stored))
    ta = _prefix_tuple(a.stored, n)
    tb = _prefix_tuple(b.stored, n)
    if ta < tb:
        return -1
    if ta > tb:
        return 1
    return 0


def lex_between(a: PseudoSeq, b: PseudoSeq) -> PseudoSeq:
    """A point strictly between a < b: copy b up to max(st(a), st(b)), then
    write -1. Post-checked; density of the order is what makes it work."""
    _require_signed_pair(a, b)
    if lex_compare(a, b) != -1:
        raise ValueError("lex_between needs a < b")
    big_k = max(a.st, b.st)
    gamma = pseudo(_prefix_tuple(b.stored, big_k) + (-1,), b.branching, signed=True)
    if not (lex_compare(a, gamma) == -1 and lex_compare(gamma, b) == -1):
        raise RuntimeError("lex_between postcondition failed")  # unreachable
    return gamma


def strict_bounds_witnesses(alpha: PseudoSeq) -> tuple[PseudoSeq, PseudoSeq]:
    """A member strictly below and one strictly above alpha (the order has no
    endpoints): write -1 or +1 right after the stabilization point."""
    if not alpha.signed:
        raise ValueError("order operations need signed sequences")
    below = pseudo(_prefix_tuple(alpha.stored, alpha.st) + (-1,),
                   alpha.branching, signed=True)
    above = pseudo(_prefix_tuple(alpha.stored, alpha.st) + (1,),
                   alpha.branching, signed=True)
    return below, above


class _LexWindow:
    """The signed window of support <= d with its U_k table and its lex order,
    built once and shared by every center checked on it with the same k_max
    and anchor_left_closed."""

    def __init__(self, kind: FrameKind, branching: int, d: int, k_max: int,
                 anchor_left_closed: bool):
        self.kind, self.k_max, self.anchor_left_closed = kind, k_max, anchor_left_closed
        self.window = window = _enumerate_stored(branching, d, True)
        self.table = MembershipTable(kind, window)
        # lex order of the window: rank[i] is the position of window[i]
        self.width = width = max(d, 0) + 1
        self._key = lambda i: _prefix_tuple(window[i], width)
        self.order = sorted(range(len(window)), key=self._key)
        self.rank = [0] * len(window)
        for r, i in enumerate(self.order):
            self.rank[i] = r
        # the neighborhood-inside layer does not depend on k: per alpha, its
        # checked count, counterexample or None, and vacuous count
        self._neighborhoods: dict[tuple[int, ...], tuple[int, Any, int]] = {}

    def _count_below(self, t: tuple[int, ...], *, inclusive: bool = False) -> int:
        """How many window points lie lex-below t (or equal to it, if
        inclusive): a bisection of the lex order by the window's tuples
        zero-padded to width. t may be longer than width; its first nonzero
        entry past width then decides the ties."""
        head = _prefix_tuple(t, self.width)
        tail = next((x for x in t[self.width:] if x), 0)
        search = bisect_right if tail > 0 or (tail == 0 and inclusive) else bisect_left
        return search(self.order, head, key=self._key)

    def check(self, report: VerificationReport, alpha: PseudoSeq, k: int) -> None:
        """Both layers of lex_window_compare at the center (alpha, k)."""
        if not self._interval_inside(report, alpha, k):
            return
        outcome = self._neighborhoods.get(alpha.stored)
        if outcome is None:
            outcome = self._neighborhood_inside(alpha.stored)
            self._neighborhoods[alpha.stored] = outcome
        checked, counterexample, vacuous = outcome
        report.checked += checked
        if counterexample is not None:
            report.fail(counterexample)
        else:
            report.params["vacuous_intervals"] = vacuous

    def _interval_inside(self, report: VerificationReport, alpha: PseudoSeq,
                         k: int) -> bool:
        window = self.window
        a_stored, a_fw = alpha.stored, _fw(alpha.stored)
        punctured = self.kind is FrameKind.IT
        p = _prefix_tuple(a_stored, max(k, alpha.st))
        if punctured:
            report.checked += 1
            if _u_fast(self.kind, a_stored, a_fw, a_stored, a_fw, k):
                report.fail({"layer": "interval-inside",
                             "reason": "alpha not excluded", "k": k})
                return False
        start = self._count_below(p + (-1,), inclusive=True)
        stop = self._count_below(p + (1,))
        members = self.table.mask(self.table.members(a_stored, k))
        for gi in sorted(self.order[start:stop]):
            report.checked += 1
            if not (members >> gi & 1 or (punctured and window[gi] == a_stored)):
                report.fail({"layer": "interval-inside", "k": k,
                             "gamma": list(window[gi])})
                return False
        return True

    def _neighborhood_inside(self, a_stored: tuple[int, ...]) -> tuple[int, Any, int]:
        window, rank, index = self.window, self.rank, self.table.index
        # lowest and highest rank of each U_k'(alpha) up to the first empty
        # one, which discharges every interval that reaches it
        live: list[tuple[int, int]] = []
        for kp in range(self.k_max + 1):
            ranks = [rank[index[x]] for x in self.table.members(a_stored, kp)]
            if not ranks:
                break
            live.append((min(ranks), max(ranks)))
        has_empty = len(live) < self.k_max + 1
        a_below = self._count_below(a_stored)
        a_upto = self._count_below(a_stored, inclusive=True)
        above = [i for i in range(len(window)) if rank[i] >= a_upto]
        # a live U_k' fits (l, r) iff l < its lowest member and its highest
        # member < r, so (l, r) is discharged by a live k' iff rank(r) exceeds
        # reach(l), the least highest member over the k' that fit on the left.
        # Every other pair runs into the first empty U_k' (vacuous) or, when
        # there is none, fails.
        last = len(window) - 1
        if self.anchor_left_closed:
            rows = [(a_stored, min((hi for lo, hi in live if lo >= a_below),
                                   default=last))]
        else:
            rows = [(window[i], min((hi for lo, hi in live if rank[i] < lo),
                                    default=last))
                    for i in range(len(window)) if rank[i] < a_below]
        checked = vacuous = 0
        for l_stored, reach in rows:
            open_pairs = max(0, reach - a_upto + 1)
            if open_pairs and not has_empty:
                ri = next(j for j, r in enumerate(above) if rank[r] <= reach)
                return checked + ri + 1, {
                    "layer": "neighborhood-inside", "l": list(l_stored),
                    "r": list(window[above[ri]]),
                    "left_closed": self.anchor_left_closed}, vacuous
            checked += len(above)
            vacuous += open_pairs
        return checked, None, vacuous


def lex_window_compare(frame: SymbolicTreeFrame, alpha: PseudoSeq, k: int, d: int, *,
                       k_max: int | None = None,
                       anchor_left_closed: bool = False) -> VerificationReport:
    """Order-topology window check for the transitive kinds.

    interval-inside      the open interval around prefix(alpha, max(k, st))
                         padded with -1 / +1 sits inside U_k(alpha) (rt), or
                         inside U_k(alpha) + {alpha} with alpha itself excluded
                         from U_k(alpha) (it, punctured);
    neighborhood-inside  every enumerated open interval (l, r) containing
                         alpha contains some U_k'(alpha) restricted to the
                         window, k' <= k_max (default d + 1). Windows where
                         U_k'(alpha) is empty discharge vacuously; the report
                         counts those.

    anchor_left_closed is the negative control: the second layer then tests
    half-closed intervals [alpha, r). Every nonempty neighborhood reaches
    strictly below its center as long as the witness prefix fits the window,
    so control runs want k_max <= d - 1 (and st(alpha) <= d - 1); at larger
    k' the window collapses U_k'(alpha) to {alpha} and the violation hides.

    Both layers work on ranks in the lex order of the window. Pairs (l, r)
    are checked in shortlex order, k' in increasing order, and the first k'
    that fits an interval is the one that discharges it, so checked, the
    vacuous count and the first counterexample are those of the pairwise
    sweep. This is the one-center case of lex_window_compares.
    """
    return next(lex_window_compares(frame, ((alpha, k),), d, k_max=k_max,
                                    anchor_left_closed=anchor_left_closed))


def lex_window_compares(frame: SymbolicTreeFrame,
                        centers: Iterable[tuple[PseudoSeq, int]], d: int, *,
                        k_max: int | None = None,
                        anchor_left_closed: bool = False
                        ) -> Iterator[VerificationReport]:
    """lex_window_compare at each (alpha, k) of centers in turn, yielding
    one report per center. The signed window, its U_k table and its lex
    order are built once, inside the first center's report, and shared by
    the rest. Lazy, so a caller that stops at a failing report checks no
    further center."""
    if not frame.kind.transitive:
        raise ValueError("order window checks need a transitive kind (it or rt)")
    if k_max is None:
        k_max = d + 1
    shared: _LexWindow | None = None
    for alpha, k in centers:
        if not alpha.signed or alpha.branching != frame.branching:
            raise ValueError("alpha must be signed with the frame's branching")
        with VerificationReport(
                lemma="lex-window",
                params={"kind": frame.kind.value, "branching": frame.branching,
                        "alpha": list(alpha.stored), "k": k, "d": d, "k_max": k_max,
                        "anchor_left_closed": anchor_left_closed}) as report:
            if shared is None:
                shared = _LexWindow(frame.kind, frame.branching, d, k_max,
                                    anchor_left_closed)
            shared.check(report, alpha, k)
        yield report
