"""Finite Kripke frames and the symbolic infinite tree frames over words.

The four tree frames live on finite words over an alphabet {1..b} (or the
signed alphabet {-b..-1, 1..b} for order work): the relation is one-step
extension (in), its reflexive closure (rn), its transitive closure (it), or
its reflexive-transitive closure (rt). All four satisfy the fractal law
  a R (a.c)  iff  () R c
which is what makes window checks on word length meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Collection, Iterable, Mapping, Sequence

from .formula import OP_ATOM, OP_BOTTOM, OP_IMPLIES, Formula, compile_formula
from .report import BudgetExceeded, Stopwatch, VerificationReport

DEFAULT_WORD_BUDGET = 500_000


class FrameKind(Enum):
    IN = "in"
    RN = "rn"
    IT = "it"
    RT = "rt"

    @property
    def transitive(self) -> bool:
        return self in (FrameKind.IT, FrameKind.RT)


@dataclass(frozen=True)
class Word:
    """A finite word; letters in 1..b, or in +-1..+-b when signed."""

    letters: tuple[int, ...]
    branching: int
    signed: bool = False

    def __post_init__(self) -> None:
        if self.branching < 1:
            raise ValueError("branching must be >= 1")
        for x in self.letters:
            if self.signed:
                ok = x != 0 and abs(x) <= self.branching
            else:
                ok = 1 <= x <= self.branching
            if not ok:
                raise ValueError(f"letter {x} invalid for branching {self.branching} "
                                 f"(signed={self.signed})")

    def __len__(self) -> int:
        return len(self.letters)


def word(letters: Iterable[int], branching: int, signed: bool = False) -> Word:
    return Word(tuple(letters), branching, signed)


@dataclass(frozen=True)
class SymbolicTreeFrame:
    kind: FrameKind
    branching: int

    def __post_init__(self) -> None:
        if self.branching < 1:
            raise ValueError("branching must be >= 1")


def _rel_on_tuples(kind: FrameKind, u: tuple[int, ...], v: tuple[int, ...]) -> bool:
    extends = len(v) >= len(u) and v[:len(u)] == u
    step = len(v) - len(u)
    if kind is FrameKind.IN:
        return extends and step == 1
    if kind is FrameKind.RN:
        return extends and step <= 1
    if kind is FrameKind.IT:
        return extends and step >= 1
    return extends  # RT


def word_rel(frame: SymbolicTreeFrame, u: Word, v: Word) -> bool:
    if u.branching != frame.branching or v.branching != frame.branching:
        raise ValueError("word branching does not match the frame")
    if u.signed != v.signed:
        raise ValueError("cannot relate signed and unsigned words")
    return _rel_on_tuples(frame.kind, u.letters, v.letters)


def enumerate_words(branching: int, depth: int, *, signed: bool = False,
                    budget: int = DEFAULT_WORD_BUDGET) -> list[Word]:
    """All words of length <= depth in shortlex order."""
    alphabet = (tuple(range(-branching, 0)) if signed else ()) + \
        tuple(range(1, branching + 1))
    return [Word(t, branching, signed)
            for t in _shortlex(alphabet, depth, budget, "words")]


def _shortlex(alphabet: Sequence[Any], depth: int, budget: int,
              noun: str) -> list[tuple[Any, ...]]:
    """All tuples over alphabet of length <= depth in shortlex order, after
    checking their count against budget."""
    total, width = 1, 1
    for _ in range(depth):
        width *= len(alphabet)
        total += width
    if total > budget:
        raise BudgetExceeded(f"{total} {noun} exceeds budget {budget}")
    out: list[tuple[Any, ...]] = [()]
    layer = [()]
    for _ in range(depth):
        layer = [prev + (x,) for prev in layer for x in alphabet]
        out += layer
    return out


def check_fractal(frame: SymbolicTreeFrame, depth: int, *,
                  lhs_kind: FrameKind | None = None) -> VerificationReport:
    """Window check of  a R (a.c) iff () R c  for all len(a)+len(c) <= depth.

    lhs_kind evaluates the left-hand relation with a different kind; that is a
    detector self-test (mixing kinds must produce a violation), not a lemma.
    """
    left = frame.kind if lhs_kind is None else lhs_kind
    report = VerificationReport(
        lemma="fractal",
        params={"kind": frame.kind.value, "branching": frame.branching,
                "depth": depth, "lhs_kind": left.value},
    )
    with Stopwatch(report):
        words = enumerate_words(frame.branching, depth)
        for a in words:
            for c in words:
                if len(a) + len(c) > depth:
                    continue
                lhs = _rel_on_tuples(left, a.letters, a.letters + c.letters)
                rhs = _rel_on_tuples(frame.kind, (), c.letters)
                report.checked += 1
                if lhs != rhs:
                    report.fail({"a": list(a.letters), "c": list(c.letters),
                                 "lhs": lhs, "rhs": rhs})
                    return report
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


def enumerate_tagged_words(b1: int, b2: int, depth: int, *,
                           budget: int = DEFAULT_WORD_BUDGET) -> list[TaggedWord]:
    alphabet = [(1, x) for x in range(1, b1 + 1)] + [(2, x) for x in range(1, b2 + 1)]
    return [TaggedWord(t, (b1, b2))
            for t in _shortlex(alphabet, depth, budget, "tagged words")]


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

    def successors(self, i: int, w: str) -> frozenset[str]:
        return frozenset(b for a, b in self.rel.get(i, frozenset()) if a == w)

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


@dataclass(frozen=True)
class FrameProps:
    serial: bool
    reflexive: bool
    transitive: bool


def frame_props(frame: FiniteKripkeFrame) -> dict[int, FrameProps]:
    """Seriality, reflexivity, transitivity of each relation, by full scan."""
    out: dict[int, FrameProps] = {}
    for i in frame.modalities:
        succ = {w: frame.successors(i, w) for w in frame.worlds}
        serial = all(succ[w] for w in frame.worlds)
        reflexive = all(w in succ[w] for w in frame.worlds)
        transitive = all(succ[v] <= succ[w] for w in frame.worlds for v in succ[w])
        out[i] = FrameProps(serial, reflexive, transitive)
    return out


def denotation(frame: FiniteKripkeFrame, valuation: Mapping[str, Iterable[str]],
               phi: Formula) -> frozenset[str]:
    """Worlds where phi holds under the relational box clause."""
    index = {w: n for n, w in enumerate(frame.worlds)}
    succ_masks: dict[int, list[int]] = {}
    for i in frame.modalities:
        masks = [0] * len(frame.worlds)
        for a, b in frame.rel[i]:
            masks[index[a]] |= 1 << index[b]
        succ_masks[i] = masks
    full = (1 << len(frame.worlds)) - 1
    atom_masks: dict[str, int] = {}
    for name, ws in valuation.items():
        mask = 0
        for w in ws:
            if w not in index:
                raise ValueError(f"unknown world {w!r} in valuation")
            mask |= 1 << index[w]
        atom_masks[name] = mask
    values: list[int] = []
    for op, x, y in compile_formula(phi):
        if op == OP_BOTTOM:
            out = 0
        elif op == OP_ATOM:
            if x not in atom_masks:
                raise ValueError(f"unknown atom {x!r}")
            out = atom_masks[x]
        elif op == OP_IMPLIES:
            out = (full & ~values[x]) | values[y]
        else:
            if x not in succ_masks:
                raise ValueError(f"frame has no modality {x}")
            out = sum(1 << w for w, succ in enumerate(succ_masks[x])
                      if succ & ~values[y] == 0)
        values.append(out)
    return frozenset(w for w, k in index.items() if values[-1] >> k & 1)


def satisfies(frame: FiniteKripkeFrame, valuation: Mapping[str, Iterable[str]],
              w: str, phi: Formula) -> bool:
    if w not in frame.worlds:
        raise ValueError(f"unknown world {w!r}")
    return w in denotation(frame, valuation, phi)
