"""Finite Kripke frames and the symbolic infinite tree frames over words.

The four tree frames live on words over {1..b}: the relation is one-step
extension (in), its reflexive closure (rn), its transitive closure (it),
or its reflexive-transitive closure (rt). All four satisfy the fractal law
  a R (a.c)  iff  () R c
which is what makes window checks on word length meaningful.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Collection, Iterable, Iterator, Mapping, Sequence

from .formula import (OP_ATOM, OP_BOTTOM, OP_IMPLIES, Formula, Node,
                      compile_formula)
from .report import BudgetExceeded, VerificationReport, check_window

DEFAULT_WORD_BUDGET = 500_000
# omega's sequence windows, and the tagged words g-morphism maps back
DEFAULT_SEQ_BUDGET = 2_000_000


class FrameKind(Enum):
    # steps: the least and greatest length of the steps c with () R c, kept on
    # the member, since a dict keyed by members calls Enum.__hash__ in Python;
    # logic: the key in formula.LOGICS of the logic the kind's frames validate
    IN = "in", (1, 1), "D"
    RN = "rn", (0, 1), "T"
    IT = "it", (1, math.inf), "D4"
    RT = "rt", (0, math.inf), "S4"

    def __new__(cls, value: str, steps: tuple[int, float], logic: str) -> "FrameKind":
        member = object.__new__(cls)
        member._value_, member.steps, member.logic = value, steps, logic
        return member

    @property
    def transitive(self) -> bool:
        return self.steps[1] == math.inf

    @property
    def reflexive(self) -> bool:
        return self.steps[0] == 0


@dataclass(frozen=True)
class Word:
    """A finite word; letters in 1..b."""

    letters: tuple[int, ...]
    branching: int

    def __post_init__(self) -> None:
        if self.branching < 1:
            raise ValueError("branching must be >= 1")
        for x in self.letters:
            if not 1 <= x <= self.branching:
                raise ValueError(f"letter {x} invalid for branching {self.branching}")

    def __len__(self) -> int:
        return len(self.letters)


def word(letters: Iterable[int], branching: int) -> Word:
    return Word(tuple(letters), branching)


@dataclass(frozen=True)
class SymbolicTreeFrame:
    kind: FrameKind
    branching: int

    def __post_init__(self) -> None:
        if self.branching < 1:
            raise ValueError("branching must be >= 1")


def _rel_on_tuples(kind: FrameKind, u: tuple[int, ...], v: tuple[int, ...]) -> bool:
    """u R v: v extends u by a step whose length is in kind.steps."""
    lo, hi = kind.steps
    return lo <= len(v) - len(u) <= hi and v[:len(u)] == u


def word_rel(frame: SymbolicTreeFrame, u: Word, v: Word) -> bool:
    if u.branching != frame.branching or v.branching != frame.branching:
        raise ValueError("word branching does not match the frame")
    return _rel_on_tuples(frame.kind, u.letters, v.letters)


def enumerate_words(branching: int, depth: int) -> list[Word]:
    """All words of length <= depth in shortlex order."""
    return [Word(t, branching) for layer in word_layers(branching, depth)
            for t in layer]


def word_layers(branching: int, depth: int) -> list[list[tuple[int, ...]]]:
    """The letter tuples of enumerate_words, one list per length: layers[n]
    holds the words of length n in lexicographic order."""
    _check_words(branching, depth)
    return _shortlex(range(1, branching + 1), depth)


def _check_words(branching: int, depth: int) -> None:
    check_window(f"words of length <= {depth} at branching {branching}",
                 branching, branching, depth, DEFAULT_WORD_BUDGET)


def _shortlex(letters: Iterable[Any], depth: int) -> list[list[tuple[Any, ...]]]:
    """All tuples of length <= depth over letters, one lexicographic list
    per length; the caller checks their count against its budget first."""
    alphabet = tuple(letters) if depth > 0 else ()
    layers: list[list[tuple[Any, ...]]] = [[()]]
    for _ in range(depth):
        layers.append([prev + (x,) for prev in layers[-1] for x in alphabet])
    return layers


def tree_successors(kind: FrameKind, u: tuple[int, ...],
                    layers: Sequence[Sequence[tuple[int, ...]]]
                    ) -> Iterator[tuple[int, ...]]:
    """The v with u R v among the words of layers (as word_layers gives
    them), in shortlex order: u + c for each c of tree_successors(kind, (),
    layers) that fits in the room the window leaves behind u, the steps of
    every length in the kind's steps range up to that room."""
    lo, hi = kind.steps
    # layers[0] is [()], so a reflexive kind yields u itself first
    for n in range(lo, min(len(layers) - 1 - len(u), hi) + 1):
        for tail in layers[n]:
            yield u + tail


def tree_pairs(kind: FrameKind, branching: int, depth: int) -> int:
    """How many pairs u R v the words of length <= depth hold, in closed
    form: per step length n in kind.steps, b^n steps c times the words u of
    length <= depth - n, which number (b^(top-n) - 1) / (b - 1), with
    top = depth + 1. At b = 1 they number top - n, and the sum over n is an
    arithmetic series. Raises BudgetExceeded, before any word is built, past
    DEFAULT_WORD_BUDGET words or pairs."""
    _check_words(branching, depth)
    b, (lo, hi), top = branching, kind.steps, depth + 1
    last = min(hi, depth)
    if b == 1:
        terms = max(last - lo + 1, 0)
        pairs = terms * top - terms * (lo + last) // 2
    else:
        pairs = sum(b ** n * ((b ** (top - n) - 1) // (b - 1))
                    for n in range(lo, last + 1))
    if pairs > DEFAULT_WORD_BUDGET:
        raise BudgetExceeded(f"window of {pairs} {kind.value} pairs of words of length "
                             f"<= {depth} at branching {branching} exceeds budget "
                             f"{DEFAULT_WORD_BUDGET}")
    return pairs


def check_fractal(frame: SymbolicTreeFrame, depth: int, *,
                  lhs_kind: FrameKind | None = None) -> VerificationReport:
    """Window check of  a R (a.c) iff () R c  for all len(a)+len(c) <= depth.

    lhs_kind evaluates the left-hand relation with a different kind; that is a
    detector self-test (mixing kinds must produce a violation), not a lemma.

    The right-hand side () R c is decided once per c and shared by every a;
    the pairs are checked in the same all-pairs order, so checked and the
    first violation are those of the loop that decides both sides per pair.
    """
    left = frame.kind if lhs_kind is None else lhs_kind
    with VerificationReport(
            lemma="fractal",
            params={"kind": frame.kind.value, "branching": frame.branching,
                    "depth": depth, "lhs_kind": left.value}) as report:
        layers = word_layers(frame.branching, depth)
        # the c with len(a) + len(c) <= depth are the first layers of the
        # shortlex window, so the checks come in all-pairs order
        window = list(itertools.chain.from_iterable(layers))
        rhs = [_rel_on_tuples(frame.kind, (), c) for c in window]
        upto = [0, *itertools.accumulate(len(layer) for layer in layers)]
        for a in window:
            n = upto[max(depth - len(a) + 1, 0)]
            lhs = [_rel_on_tuples(left, a, a + c) for c in window[:n]]
            if lhs != rhs[:n]:
                j = next(j for j, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
                report.checked += j + 1
                return report.fail({"a": list(a), "c": list(window[j]),
                                    "lhs": lhs[j], "rhs": rhs[j]})
            report.checked += n
    return report


# --- fusion of two tree frames on tagged words -------------------------------

@dataclass(frozen=True)
class TaggedWord:
    """A word over the disjoint union of two alphabets; letters are
    (side, letter) pairs with side in {1, 2}."""

    letters: tuple[tuple[int, int], ...]
    branchings: tuple[int, int]

    def __post_init__(self) -> None:
        b1, b2 = self.branchings
        if b1 < 1 or b2 < 1:
            raise ValueError("branching must be >= 1")
        for side, letter in self.letters:
            if side not in (1, 2):
                raise ValueError(f"side {side} invalid")
            if not 1 <= letter <= self.branchings[side - 1]:
                raise ValueError(f"letter {letter} invalid for side {side}")

    def __len__(self) -> int:
        return len(self.letters)


def tagged_word(letters: Iterable[tuple[int, int]], b1: int, b2: int) -> TaggedWord:
    return TaggedWord(tuple((s, x) for s, x in letters), (b1, b2))


def enumerate_tagged_words(b1: int, b2: int, depth: int) -> list[TaggedWord]:
    """All tagged words of length <= depth in shortlex order, side 1's
    letters before side 2's."""
    return [TaggedWord(t, (b1, b2))
            for layer in _shortlex(tagged_letters(b1, b2, depth), depth) for t in layer]


def tagged_letters(b1: int, b2: int, depth: int) -> list[tuple[int, int]]:
    """The letters of the tagged words, side 1's before side 2's, once the
    window of tagged words of length <= depth is checked against
    DEFAULT_SEQ_BUDGET."""
    check_window(f"tagged words of length <= {depth} at branchings {b1} and {b2}",
                 b1 + b2, b1 + b2, depth, DEFAULT_SEQ_BUDGET)
    return [(side, x) for side, b in ((1, b1), (2, b2)) for x in range(1, b + 1)]


def fusion_word_rel(frame1: SymbolicTreeFrame, frame2: SymbolicTreeFrame,
                    i: int, u: TaggedWord, v: TaggedWord) -> bool:
    """Modality-i relation of the fused frame: v = u.z for a z written
    entirely in side i's alphabet with () R_i untag(z)."""
    if i not in (1, 2):
        raise ValueError(f"modality index {i} out of range (1, 2)")
    if u.branchings != (frame1.branching, frame2.branching) or u.branchings != v.branchings:
        raise ValueError("tagged word branchings do not match the frames")
    frame = frame1 if i == 1 else frame2
    return _fusion_rel_on_tuples(frame.kind, i, u.letters, v.letters)


def _fusion_rel_on_tuples(kind: FrameKind, i: int, u: tuple[tuple[int, int], ...],
                          v: tuple[tuple[int, int], ...]) -> bool:
    """fusion_word_rel on raw letter tuples; kind is the kind of side i."""
    if len(v) < len(u) or v[:len(u)] != u:
        return False
    z = v[len(u):]
    if any(side != i for side, _ in z):
        return False
    return _rel_on_tuples(kind, (), tuple(letter for _, letter in z))


# --- JSON input: a ValueError names the path of the first malformed part -------

def _expect(value: Any, kind: type, path: str) -> Any:
    if not isinstance(value, kind):
        raise ValueError(f"{path}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _worlds(value: Any, path: str, known: Collection[str] | None = None) -> list[str]:
    """A list of world names; with known, each must be one of them."""
    for n, w in enumerate(_expect(value, list, path)):
        if not isinstance(w, str):
            raise ValueError(f"{path}[{n}]: expected a world name, got {w!r}")
        if known is not None and w not in known:
            raise ValueError(f"{path}[{n}]: unknown world {w!r}")
    return value


def _modality(key: Any, path: str) -> int:
    if str(key) not in ("1", "2"):
        raise ValueError(f"{path}: modality must be 1 or 2")
    return int(key)


# --- finite Kripke frames -----------------------------------------------------

@dataclass
class FiniteKripkeFrame:
    worlds: tuple[str, ...]
    rel: dict[int, frozenset[tuple[str, str]]]

    def __post_init__(self) -> None:
        if len(set(self.worlds)) != len(self.worlds):
            raise ValueError("duplicate world names")
        wset = set(self.worlds)
        for i, pairs in self.rel.items():
            if i not in (1, 2):
                raise ValueError(f"modality index {i} out of range (1, 2)")
            for a, b in pairs:
                if a not in wset or b not in wset:
                    raise ValueError(f"relation {i} mentions unknown world in {(a, b)}")

    @property
    def modalities(self) -> tuple[int, ...]:
        return tuple(sorted(self.rel))

    def successor_sets(self, i: int) -> dict[str, frozenset[str]]:
        """The successors of every world under relation i, in one pass."""
        succ: dict[str, set[str]] = {w: set() for w in self.worlds}
        for a, b in self.rel.get(i, ()):
            succ[a].add(b)
        return {w: frozenset(s) for w, s in succ.items()}

    def to_dict(self) -> dict[str, Any]:
        return {
            "worlds": list(self.worlds),
            "rel": {str(i): sorted([a, b] for a, b in self.rel[i])
                    for i in sorted(self.rel)},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FiniteKripkeFrame":
        worlds = _worlds(_expect(data, dict, "$").get("worlds"), "$.worlds")
        known = set(worlds)
        rel = {}
        for key, pairs in _expect(data.get("rel"), dict, "$.rel").items():
            path = f"$.rel.{key}"
            edges = [_worlds(e, f"{path}[{n}]", known)
                     for n, e in enumerate(_expect(pairs, list, path))]
            if any(len(e) != 2 for e in edges):
                raise ValueError(f"{path}: an edge is not a pair of worlds")
            rel[_modality(key, path)] = frozenset((a, b) for a, b in edges)
        return cls(tuple(worlds), rel)


def node_values(frames: Sequence[FiniteKripkeFrame],
                valuations: Sequence[Mapping[str, Iterable[str]]],
                nodes: Sequence[Node]) -> list[int]:
    """The value of every node of a compiled family on a stack of frames,
    under the relational box clause.

    World k of each frame, in declaration order, is slot k, and frame f is
    lane f: bit k * len(frames) + f of a value is the node's truth at slot k
    of frame f, so one walk over the nodes evaluates the whole stack. A box
    takes one big-int step per slot: into[j] marks the (slot, lane) bits
    that see slot j, and the body's lanes at j are copied into every slot.
    """
    if not frames:  # no lanes, nothing to evaluate
        return [0] * len(nodes)
    lanes = len(frames)
    slots = max(len(frame.worlds) for frame in frames)
    full = (1 << slots * lanes) - 1
    lane_bits = (1 << lanes) - 1
    spread = sum(1 << k * lanes for k in range(slots))
    modalities = set.intersection(*(set(frame.rel) for frame in frames))
    names = set.intersection(*(set(val) for val in valuations))
    into = {i: [0] * slots for i in modalities}
    atom_masks = dict.fromkeys(names, 0)
    for f, (frame, valuation) in enumerate(zip(frames, valuations)):
        index = {w: k for k, w in enumerate(frame.worlds)}
        for i, masks in into.items():
            for a, b in frame.rel[i]:
                masks[index[b]] |= 1 << index[a] * lanes + f
        for name, ws in valuation.items():
            for w in ws:
                if w not in index:
                    raise ValueError(f"unknown world {w!r} in valuation")
                if name in atom_masks:
                    atom_masks[name] |= 1 << index[w] * lanes + f
    values: list[int] = []
    for op, x, y in nodes:
        if op == OP_BOTTOM:
            out = 0
        elif op == OP_ATOM:
            if x not in atom_masks:
                raise ValueError(f"unknown atom {x!r}")
            out = atom_masks[x]
        elif op == OP_IMPLIES:
            out = (full & ~values[x]) | values[y]
        else:
            if x not in into:
                raise ValueError(f"frame has no modality {x}")
            body = values[y]
            out = full
            for j, seen_by in enumerate(into[x]):
                out &= ~seen_by | (body >> j * lanes & lane_bits) * spread
        values.append(out)
    return values


def denotation(frame: FiniteKripkeFrame, valuation: Mapping[str, Iterable[str]],
               phi: Formula) -> frozenset[str]:
    """Worlds where phi holds under the relational box clause."""
    root = node_values([frame], [valuation], compile_formula(phi))[-1]
    return frozenset(w for k, w in enumerate(frame.worlds) if root >> k & 1)


def satisfies(frame: FiniteKripkeFrame, valuation: Mapping[str, Iterable[str]],
              w: str, phi: Formula) -> bool:
    if w not in frame.worlds:
        raise ValueError(f"unknown world {w!r}")
    return w in denotation(frame, valuation, phi)
