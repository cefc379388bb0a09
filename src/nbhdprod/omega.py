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

from .kripke import (FrameKind, SymbolicTreeFrame, TaggedWord, Word,
                     _fusion_rel_on_tuples, _rel_on_tuples,
                     enumerate_tagged_words, tree_successors, word_layers)
from .report import VerificationReport, check_window

DEFAULT_SEQ_BUDGET = 2_000_000


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
    return Word(tuple(x for x in alpha.stored if x != 0), alpha.branching, alpha.signed)


def lift(w: Word) -> PseudoSeq:
    """Zero-free lift; forget_zeros(lift(w)) == w for every word."""
    return PseudoSeq(w.letters, w.branching, w.signed)


def _canon(entries: tuple[int, ...]) -> tuple[int, ...]:
    """Strip trailing zeros: the stored form of a finite entry list."""
    end = len(entries)
    while end and entries[end - 1] == 0:
        end -= 1
    return entries[:end]


def _enumerate_stored(branching: int, d: int, signed: bool = False,
                      budget: int = DEFAULT_SEQ_BUDGET) -> list[tuple[int, ...]]:
    """Stored tuples of enumerate_pseudo, same order and budget check."""
    alphabet = range(-branching, branching + 1) if signed else range(branching + 1)
    what = f"{'signed ' if signed else ''}sequences with support <= {d} " \
        f"at branching {branching}"
    check_window(what, len(alphabet) - 1, len(alphabet), d, budget)
    out: list[tuple[int, ...]] = [()]
    for length in range(1, d + 1):
        for head in itertools.product(alphabet, repeat=length - 1):
            out.extend(head + (last,) for last in alphabet if last)
    return out


def enumerate_pseudo(branching: int, d: int, signed: bool = False, *,
                     budget: int = DEFAULT_SEQ_BUDGET) -> list[PseudoSeq]:
    """All sequences with support inside the first d positions, in shortlex
    order of the canonical stored tuples."""
    return [PseudoSeq(stored, branching, signed)
            for stored in _enumerate_stored(branching, d, signed, budget)]


def _u_fast(kind: FrameKind, a_stored: tuple[int, ...], a_fw: tuple[int, ...],
            b_stored: tuple[int, ...], b_fw: tuple[int, ...], k: int) -> bool:
    m = max(k, len(a_stored) + 1)
    if _prefix_tuple(a_stored, m) != _prefix_tuple(b_stored, m):
        return False
    return _rel_on_tuples(kind, a_fw, b_fw)


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


def relative_members(kind: FrameKind, center: tuple[int, ...], k: int,
                     suffixes: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The members of U_k(center) in the window relative to center, as stored
    tuples: center itself, then prefix(center, max(k, st(center))) + s for
    each nonempty canonical suffix s, in that order, each kept when it lies
    in U_k(center). Unlike a window of bounded support, this one does not
    thin out as k grows."""
    center_fw = _fw(center)
    head = _prefix_tuple(center, max(k, len(center) + 1))
    # head + s ends in s's last entry, which is nonzero, so it is canonical
    return [c for c in (center, *(head + s for s in suffixes))
            if _u_fast(kind, center, center_fw, c, _fw(c), k)]


class MembershipTable:
    """U_k membership over one enumeration window of stored tuples.

    Every member of U_k(a) agrees with a up to m = max(k, st(a)), so the
    window is bucketed once per m by the zero-padded prefix of length m; the
    row of a at k is a's bucket filtered by the tree relation on the
    zero-forgotten words. Anchors need not lie in the window. Buckets and
    rows are built on first use, so a sweep that stops early pays only for
    the anchors it reached.
    """

    def __init__(self, kind: FrameKind, window: Sequence[tuple[int, ...]]):
        self.kind = kind
        self.window = window
        self.words = [_fw(stored) for stored in window]
        self._buckets: dict[int, dict[tuple[int, ...], list[int]]] = {}
        self._rows: dict[tuple[tuple[int, ...], int], list[int]] = {}
        self._masks: dict[tuple[tuple[int, ...], int], int] = {}

    def members(self, anchor: tuple[int, ...], k: int) -> list[int]:
        """Window indices of U_k(anchor), ascending."""
        m = max(k, len(anchor) + 1)
        row = self._rows.get((anchor, m))
        if row is None:
            buckets = self._buckets.get(m)
            if buckets is None:
                buckets = {}
                for bi, stored in enumerate(self.window):
                    buckets.setdefault(_prefix_tuple(stored, m), []).append(bi)
                self._buckets[m] = buckets
            a_fw, kind, words = _fw(anchor), self.kind, self.words
            row = [bi for bi in buckets.get(_prefix_tuple(anchor, m), ())
                   if _rel_on_tuples(kind, a_fw, words[bi])]
            self._rows[(anchor, m)] = row
        return row

    def mask(self, anchor: tuple[int, ...], k: int) -> int:
        """U_k(anchor) as a bitmask over window indices."""
        key = (anchor, max(k, len(anchor) + 1))
        mask = self._masks.get(key)
        if mask is None:
            mask = 0
            for bi in self.members(anchor, k):
                mask |= 1 << bi
            self._masks[key] = mask
        return mask


# --- chain lemma -----------------------------------------------------------------

def check_chain(frame: SymbolicTreeFrame, d: int, k_max: int, *,
                reverse_inclusion: bool = False) -> VerificationReport:
    """U_k(alpha) subset-of U_m(alpha) for all m <= k <= k_max, on the window
    of sequences with support <= d.

    reverse_inclusion checks U_m subset-of U_k instead; that direction is
    false and serves as a detector self-test.
    """
    with VerificationReport(
            lemma="chain",
            params={"kind": frame.kind.value, "branching": frame.branching, "d": d,
                    "k_max": k_max, "reverse_inclusion": reverse_inclusion}) as report:
        window = _enumerate_stored(frame.branching, d)
        table = MembershipTable(frame.kind, window)
        for a_stored in window:
            masks = [table.mask(a_stored, k) for k in range(k_max + 1)]
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
        layers = word_layers(frame.branching, d, budget=DEFAULT_SEQ_BUDGET)
        for letters in itertools.chain.from_iterable(layers):
            w = Word(letters, frame.branching)
            report.count("surjectivity")
            if forget_zeros(lift(w)) != w:
                return report.fail({"layer": "surjectivity", "word": list(w.letters)})
        kind = frame.kind
        window = _enumerate_stored(frame.branching, d)
        table = MembershipTable(kind, window)
        # R-successors inside the window, per zero-forgotten anchor
        successors: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for a_stored, a_fw in zip(window, table.words):
            targets = successors.get(a_fw)
            if targets is None:
                targets = list(tree_successors(kind, a_fw, layers))
                successors[a_fw] = targets
            # the obligations at k depend on k only through m = max(k, st(alpha)),
            # so k = 0..top share one block: decide it at k = 0 and count the
            # other top values of k in bulk
            top = min(len(a_stored) + 1, d)
            for k in (0, *range(top + 1, d + 1)):
                members = table.members(a_stored, k)
                for bi in members:
                    report.count("forward")
                    if not _rel_on_tuples(kind, a_fw, table.words[bi]):
                        return report.fail({"layer": "forward",
                                            "alpha": list(a_stored), "k": k,
                                            "beta": list(window[bi])})
                head = _prefix_tuple(a_stored, max(k, len(a_stored) + 1))
                for target in targets:
                    report.count("covering")
                    beta = _canon(head + target[len(a_fw):])
                    beta_fw = _fw(beta)
                    if not (_u_fast(kind, a_stored, a_fw, beta, beta_fw, k)
                            and beta_fw == target):
                        return report.fail({"layer": "covering",
                                            "alpha": list(a_stored), "k": k,
                                            "target": list(target),
                                            "witness": list(beta)})
                if k == 0:
                    report.count("forward", top * len(members))
                    report.count("covering", top * len(targets))
    return report


_EVIDENCE_KINDS: dict[str, tuple[FrameKind, ...]] = {
    "d": (FrameKind.IN, FrameKind.IT),
    "t": (FrameKind.RN, FrameKind.RT),
    "four": (FrameKind.IT, FrameKind.RT),
}


def axiom_evidence(frame: SymbolicTreeFrame, d: int,
                   evidence: str | None = None) -> VerificationReport:
    """Window evidence that the U_k families validate the structural axioms
    the frame kind promises.

    d     every U_k(alpha) owns the member prefix + letter 1 (nonempty);
    t     alpha itself is in every U_k(alpha) (reflexive kinds);
    four  members of U_{max(k, st(y))}(y) for y in U_m(alpha) stay inside
          U_m(alpha) (transitive kinds), with k pinned at the index that the
          prefix constraint actually requires.
    """
    if evidence is None:
        kinds = [name for name, ks in _EVIDENCE_KINDS.items() if frame.kind in ks]
    else:
        if evidence not in _EVIDENCE_KINDS:
            raise ValueError(f"unknown evidence {evidence!r}")
        if frame.kind not in _EVIDENCE_KINDS[evidence]:
            raise ValueError(f"evidence {evidence!r} inapplicable to kind "
                             f"{frame.kind.value}")
        kinds = [evidence]
    with VerificationReport(
            lemma="axiom-evidence",
            params={"kind": frame.kind.value, "branching": frame.branching, "d": d,
                    "evidence": kinds}) as report:
        window = _enumerate_stored(frame.branching, d)
        table = MembershipTable(frame.kind, window)
        if "d" in kinds:
            for a_stored, a_fw in zip(window, table.words):
                for k in range(d + 1):
                    report.checked += 1
                    m = max(k, len(a_stored) + 1)
                    wit = _prefix_tuple(a_stored, m) + (1,)
                    if not _u_fast(frame.kind, a_stored, a_fw, wit, _fw(wit), k):
                        return report.fail({"evidence": "d", "alpha": list(a_stored),
                                            "k": k, "witness": list(wit)})
        if "t" in kinds:
            for a_stored, a_fw in zip(window, table.words):
                for k in range(d + 1):
                    report.checked += 1
                    if not _u_fast(frame.kind, a_stored, a_fw, a_stored, a_fw, k):
                        return report.fail({"evidence": "t", "alpha": list(a_stored),
                                            "k": k})
        if "four" in kinds:
            for a_stored in window:
                for m in range(d + 1):
                    big_m = max(m, len(a_stored) + 1)
                    members = table.mask(a_stored, m)
                    # highest window index first
                    for yi in reversed(table.members(a_stored, m)):
                        y_stored = window[yi]
                        report.checked += 1
                        stray = table.mask(y_stored, max(big_m, len(y_stored) + 1)) \
                            & ~members
                        if stray:
                            bi = stray.bit_length() - 1
                            return report.fail({"evidence": "four",
                                                "alpha": list(a_stored), "m": m,
                                                "y": list(y_stored),
                                                "z": list(window[bi])})
    return report


# --- product points and the interleaving map -------------------------------------

@dataclass(frozen=True)
class ProductPoint:
    first: PseudoSeq
    second: PseudoSeq


def _interleave(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
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
    """
    b1, b2 = frame1.branching, frame2.branching
    with VerificationReport(
            lemma="g-morphism",
            params={"kind1": frame1.kind.value, "kind2": frame2.kind.value,
                    "branching1": b1, "branching2": b2, "d": d,
                    "layers": dict.fromkeys(_MORPHISM_LAYERS, 0)}) as report:
        for z in enumerate_tagged_words(b1, b2, d, budget=DEFAULT_SEQ_BUDGET):
            report.count("surjectivity")
            if g_map(g_preimage(z)) != z:
                return report.fail({"layer": "surjectivity",
                                    "tagged": [list(t) for t in z.letters]})
        kinds = {1: frame1.kind, 2: frame2.kind}
        tables = {1: MembershipTable(frame1.kind, _enumerate_stored(b1, d)),
                  2: MembershipTable(frame2.kind, _enumerate_stored(b2, d))}
        # successor words () R c per side, inside the window, with their
        # tagged forms and g's image of c written alone on side i
        side_steps = {
            i: [(c, tuple((i, x) for x in c),
                 _interleave(c, ()) if i == 1 else _interleave((), c))
                for c in tree_successors(kinds[i], (), word_layers(
                    branching, d, budget=DEFAULT_SEQ_BUDGET))]
            for i, branching in ((1, b1), (2, b2))}
        g_cache: dict[tuple[tuple[int, ...], tuple[int, ...]],
                      tuple[tuple[int, int], ...]] = {}

        def g_of(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
            hit = g_cache.get((a, b))
            if hit is None:
                hit = _interleave(a, b)
                g_cache[(a, b)] = hit
            return hit

        # per side, (anchor, m) -> witnesses(i, anchor, m); a side-1 anchor
        # is always the current alpha, so that side is dropped with g_cache
        # when alpha moves on, while every alpha reuses side 2
        witness_cache: dict[int, dict[tuple[tuple[int, ...], int],
                                      tuple[tuple[int, ...], list[tuple], int]]] = {
            1: {}, 2: {}}

        def witnesses(i: int, anchor: tuple[int, ...],
                      m: int) -> tuple[tuple[int, ...], list[tuple], int]:
            """The head prefix(anchor, m); per step c on side i: c, the moved
            coordinate head + c, c's tagged form, and whether head + c lies in
            U_m(anchor); then the index of the first step that leaves U_m(anchor)
            or whose image g(c) is not its tagged form, or the number of steps
            if none does. None of it depends on the pinned coordinate."""
            key = (anchor, m)
            hit = witness_cache[i].get(key)
            if hit is None:
                head, anchor_fw, kind = _prefix_tuple(anchor, m), _fw(anchor), kinds[i]
                steps, bad = [], None
                for c, tagged, tail in side_steps[i]:
                    x = _canon(head + c)
                    inside = _u_fast(kind, anchor, anchor_fw, x, _fw(x), m)
                    if bad is None and not (inside and tail == tagged):
                        bad = len(steps)
                    steps.append((c, x, tagged, inside))
                hit = (head, steps, len(steps) if bad is None else bad)
                witness_cache[i][key] = hit
            return hit

        def point(a: tuple[int, ...], b: tuple[int, ...]) -> dict[str, list[int]]:
            return {"first": list(a), "second": list(b)}

        def moved(i: int, x: tuple[int, ...], alpha: tuple[int, ...],
                  beta: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
            """(alpha, beta) with coordinate i moved to x; the other stays pinned."""
            return (x, beta) if i == 1 else (alpha, x)

        # base-set indices reach d only for coordinates with st + 1 <= d, the
        # shortlex prefix of each window
        inner = {i: list(itertools.takewhile(lambda s: len(s) + 2 <= d,
                                             tables[i].window)) for i in (1, 2)}
        for alpha in inner[1]:
            witness_cache[1].clear()
            g_cache.clear()
            for beta in inner[2]:
                lo = max(len(alpha), len(beta)) + 2  # max(st(alpha), st(beta)) + 1
                image = g_of(alpha, beta)
                for m in range(lo, d + 1):
                    for i in (1, 2):
                        kind, table = kinds[i], tables[i]
                        anchor = alpha if i == 1 else beta
                        for bi in table.members(anchor, m):
                            q = moved(i, table.window[bi], alpha, beta)
                            report.count("forward")
                            if not _fusion_rel_on_tuples(kind, i, image, g_of(*q)):
                                return report.fail({
                                    "layer": "forward", "modality": i, "m": m,
                                    "point": point(alpha, beta),
                                    "member": point(*q)})
                        # g maps position by position and the pinned
                        # coordinate is zero from m on, so every witness
                        # head + c maps to g(head, pinned) + g(c): when the
                        # first part is the image, the witnesses' verdicts
                        # are those of the steps alone. Any other block is
                        # mapped witness by witness.
                        head, steps, bad = witnesses(i, anchor, m)
                        if _interleave(*moved(i, head, alpha, beta)) != image:
                            bad = next((j for j, (_, x, tagged, inside) in enumerate(steps)
                                        if not inside or _interleave(
                                            *moved(i, x, alpha, beta)) != image + tagged),
                                       len(steps))
                        report.count("covering", min(bad + 1, len(steps)))
                        if bad < len(steps):
                            c, x = steps[bad][:2]
                            return report.fail({
                                "layer": "covering", "modality": i, "m": m,
                                "point": point(alpha, beta), "step": list(c),
                                "witness": point(*moved(i, x, alpha, beta))})
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


def _count_below(keys: list[tuple[int, ...]], t: tuple[int, ...], width: int, *,
                 inclusive: bool = False) -> int:
    """How many window points lie lex-below t (or equal to it, if inclusive),
    given the window's keys zero-padded to width and sorted. t may be longer
    than width; its first nonzero entry past width then decides the ties."""
    head = _prefix_tuple(t, width)
    tail = next((x for x in t[width:] if x), 0)
    if tail > 0 or (tail == 0 and inclusive):
        return bisect_right(keys, head)
    return bisect_left(keys, head)


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
        self.order = sorted(range(len(window)),
                            key=lambda i: _prefix_tuple(window[i], width))
        self.keys = [_prefix_tuple(window[i], width) for i in self.order]
        self.rank = [0] * len(window)
        for r, i in enumerate(self.order):
            self.rank[i] = r
        # the neighborhood-inside layer does not depend on k: per alpha, its
        # checked count, counterexample or None, and vacuous count
        self._neighborhoods: dict[tuple[int, ...], tuple[int, Any, int]] = {}

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
        window, keys, width = self.window, self.keys, self.width
        a_stored, a_fw = alpha.stored, _fw(alpha.stored)
        punctured = self.kind is FrameKind.IT
        p = _prefix_tuple(a_stored, max(k, alpha.st))
        if punctured:
            report.checked += 1
            if _u_fast(self.kind, a_stored, a_fw, a_stored, a_fw, k):
                report.fail({"layer": "interval-inside",
                             "reason": "alpha not excluded", "k": k})
                return False
        start = _count_below(keys, p + (-1,), width, inclusive=True)
        stop = _count_below(keys, p + (1,), width)
        members = self.table.mask(a_stored, k)
        for gi in sorted(self.order[start:stop]):
            report.checked += 1
            if not (members >> gi & 1 or (punctured and window[gi] == a_stored)):
                report.fail({"layer": "interval-inside", "k": k,
                             "gamma": list(window[gi])})
                return False
        return True

    def _neighborhood_inside(self, a_stored: tuple[int, ...]) -> tuple[int, Any, int]:
        window, keys, width, rank = self.window, self.keys, self.width, self.rank
        # lowest and highest rank of each U_k'(alpha) up to the first empty
        # one, which discharges every interval that reaches it
        live: list[tuple[int, int]] = []
        for kp in range(self.k_max + 1):
            ranks = [rank[i] for i in self.table.members(a_stored, kp)]
            if not ranks:
                break
            live.append((min(ranks), max(ranks)))
        has_empty = len(live) < self.k_max + 1
        a_below = _count_below(keys, a_stored, width)
        a_upto = _count_below(keys, a_stored, width, inclusive=True)
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
