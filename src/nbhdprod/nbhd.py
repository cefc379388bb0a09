"""Finite monotone neighborhood frames given by filter bases.

A frame assigns every world, for each modality, a finite list of base sets;
the neighborhood family at the world is the set of all supersets of base
sets (a filter when the base list satisfies the pairwise-domination
property). Box is the monotone clause: [i]f holds at x iff some base set of
modality i at x is contained in the truth set of f. Empty base sets are
allowed; they make the filter improper, which is exactly how seriality (the
D axiom) can fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, or_
from typing import Any, Mapping

from .formula import (OP_ATOM, OP_BOTTOM, OP_IMPLIES, Formula, atoms,
                      compile_formula, generate_formulas, modalities_of,
                      unparse)
from .kripke import FiniteKripkeFrame, _expect, _modality, _worlds
from .report import BudgetExceeded, VerificationReport

VALUATION_GUARD_BITS = 16
FOUR_GUARD_WORLDS = 12


@dataclass
class FiniteNFrame:
    worlds: tuple[str, ...]
    base: dict[int, dict[str, tuple[frozenset[str], ...]]]

    def __post_init__(self) -> None:
        if len(set(self.worlds)) != len(self.worlds):
            raise ValueError("duplicate world names")
        for i in self.base:
            if i not in (1, 2):
                raise ValueError(f"modality index {i} out of range (1, 2)")

    @property
    def modalities(self) -> tuple[int, ...]:
        return tuple(sorted(self.base))

    def to_dict(self) -> dict[str, Any]:
        return {
            "worlds": list(self.worlds),
            "base": {str(i): {w: [sorted(u) for u in self.base[i][w]]
                              for w in self.worlds}
                     for i in sorted(self.base)},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FiniteNFrame":
        worlds = _worlds(_expect(data, dict, "$").get("worlds"), "$.worlds")
        known = set(worlds)
        base = {}
        for key, per_world in _expect(data.get("base"), dict, "$.base").items():
            path = f"$.base.{key}"
            for w in [*worlds, *_expect(per_world, dict, path)]:
                if w not in known or w not in per_world:
                    what = "has no base sets" if w in known else "is not in $.worlds"
                    raise ValueError(f"{path}: world {w!r} {what}")
            base[_modality(key, path)] = {
                w: tuple(frozenset(_worlds(u, f"{path}.{w}[{n}]", known))
                         for n, u in enumerate(_expect(sets, list, f"{path}.{w}")))
                for w, sets in per_world.items()}
        return cls(tuple(worlds), base)


def validate_frame(frame: FiniteNFrame) -> VerificationReport:
    """Carrier coverage, base sets inside the carrier, at least one base set
    per point and modality, and the filter-base property: every pairwise
    intersection of base sets dominates some base set."""
    with VerificationReport(lemma="frame-validity",
                            params={"worlds": len(frame.worlds)}) as report:
        wset = set(frame.worlds)
        for i in frame.modalities:
            per_world = frame.base[i]
            if set(per_world) != wset:
                return report.fail({"modality": i, "reason": "carrier mismatch",
                                    "missing": sorted(wset - set(per_world)),
                                    "extra": sorted(set(per_world) - wset)})
            for w in frame.worlds:
                sets = per_world[w]
                report.checked += 1
                if not sets:
                    return report.fail({"modality": i, "world": w,
                                        "reason": "no base sets"})
                for u in sets:
                    if not u <= wset:
                        return report.fail({"modality": i, "world": w,
                                            "reason": "base set outside carrier",
                                            "set": sorted(u)})
                for u in sets:
                    for v in sets:
                        report.checked += 1
                        meet = u & v
                        if not any(z <= meet for z in sets):
                            return report.fail({"modality": i, "world": w,
                                                "reason": "filter-base property fails",
                                                "sets": [sorted(u), sorted(v)]})
    return report


def nof(frame: FiniteKripkeFrame) -> FiniteNFrame:
    """Neighborhood frame of a Kripke frame: one base set per point, the
    successor set. Truth values agree with the relational semantics pointwise."""
    base = {i: {w: (frame.successors(i, w),) for w in frame.worlds}
            for i in frame.modalities}
    return FiniteNFrame(frame.worlds, base)


@dataclass
class FiniteNModel:
    frame: FiniteNFrame
    valuation: dict[str, frozenset[str]]

    def __post_init__(self) -> None:
        wset = set(self.frame.worlds)
        for name, ws in self.valuation.items():
            if not ws <= wset:
                raise ValueError(f"valuation of {name!r} mentions unknown worlds")

    def to_dict(self) -> dict[str, Any]:
        out = self.frame.to_dict()
        out["val"] = {name: sorted(ws) for name, ws in sorted(self.valuation.items())}
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FiniteNModel":
        frame = FiniteNFrame.from_dict(data)
        val = {name: frozenset(_worlds(ws, f"$.val.{name}", frame.worlds))
               for name, ws in _expect(data.get("val", {}), dict, "$.val").items()}
        return cls(frame, val)


# --- satisfaction over truth vectors ----------------------------------------------

def _truth(frame: FiniteNFrame, phi: Formula,
           atom_vectors: Mapping[str, list[int]], full: int) -> list[int]:
    """Truth vectors of phi, one per world in declaration order: bit v of a
    vector is the value of phi at that world under valuation v.

    atom_vectors holds each atom's vectors in the same layout, and full has
    a bit for every valuation, so one walk evaluates all valuations at once.
    """
    index = {w: k for k, w in enumerate(frame.worlds)}
    rows = {i: [[[index[x] for x in u] for u in frame.base[i][w]]
                for w in frame.worlds]
            for i in frame.modalities}
    values: list[list[int]] = []
    for op, x, y in compile_formula(phi):
        if op == OP_BOTTOM:
            out = [0] * len(frame.worlds)
        elif op == OP_ATOM:
            if x not in atom_vectors:
                raise ValueError(f"unknown atom {x!r}")
            out = atom_vectors[x]
        elif op == OP_IMPLIES:
            out = [(full & ~a) | b for a, b in zip(values[x], values[y])]
        else:
            if x not in rows:
                raise ValueError(f"frame has no modality {x}")
            # the monotone clause: some base set lies inside the body's truth set
            body = values[y]
            out = [reduce(or_, [reduce(and_, [body[m] for m in u], full)
                                for u in row], 0)
                   for row in rows[x]]
        values.append(out)
    return values[-1]


def denotation(model: FiniteNModel, phi: Formula) -> frozenset[str]:
    worlds = model.frame.worlds
    vectors = {name: [int(w in ws) for w in worlds]
               for name, ws in model.valuation.items()}
    out = _truth(model.frame, phi, vectors, 1)
    return frozenset(w for w, t in zip(worlds, out) if t)


def satisfies(model: FiniteNModel, w: str, phi: Formula) -> bool:
    if w not in model.frame.worlds:
        raise ValueError(f"unknown world {w!r}")
    return w in denotation(model, phi)


@dataclass(frozen=True)
class Counterexample:
    valuation: dict[str, tuple[str, ...]]
    world: str

    def to_dict(self) -> dict[str, Any]:
        return {"valuation": {a: list(ws) for a, ws in sorted(self.valuation.items())},
                "world": self.world}


def valid_on_frame(frame: FiniteNFrame, phi: Formula) -> Counterexample | None:
    """Exhaustive validity check; returns the first counterexample or None.

    Valuations run in binary-counter order over (world, atom) pairs with
    worlds in declaration order and atoms sorted; worlds are scanned in
    declaration order inside each valuation. All valuations are evaluated
    at once: bit v of pair j's atom vector is bit j of v, so the first
    counterexample is the lowest bit missing from some world's truth vector.
    """
    names = sorted(atoms(phi))
    pairs = [(w, a) for w in frame.worlds for a in names]
    bits = len(pairs)
    if bits > VALUATION_GUARD_BITS:
        raise BudgetExceeded(
            f"{bits} valuation bits exceeds guard {VALUATION_GUARD_BITS}")
    full = (1 << (1 << bits)) - 1
    vectors: dict[str, list[int]] = {a: [] for a in names}
    for j, (_, a) in enumerate(pairs):
        # 2 ** j zeros then 2 ** j ones, repeated: full // (2 ** period - 1)
        # has a one at the start of every period
        half = 1 << j
        vectors[a].append(full // ((1 << 2 * half) - 1) * (((1 << half) - 1) << half))
    out = _truth(frame, phi, vectors, full)
    failing = full & ~reduce(and_, out, full)
    if not failing:
        return None
    v = (failing & -failing).bit_length() - 1
    world = next(w for w, t in zip(frame.worlds, out) if not t >> v & 1)
    val = {a: tuple(w for j, (w, b) in enumerate(pairs) if b == a and v >> j & 1)
           for a in names}
    return Counterexample(val, world)


@dataclass(frozen=True)
class Characteristics:
    d_ok: bool
    t_ok: bool
    four_ok: bool

    def to_dict(self) -> dict[str, bool]:
        return {"d_ok": self.d_ok, "t_ok": self.t_ok, "four_ok": self.four_ok}


def structural_characteristics(frame: FiniteNFrame, i: int) -> Characteristics:
    """Frame-level equivalents of D, T and Four validity at modality i.

    d_ok: no empty base set (the filter is proper everywhere).
    t_ok: every base set contains its own point.
    four_ok: for every member U of a point's filter, the set of points whose
    filter contains U is itself in the point's filter; members are enumerated
    as all subsets of the carrier, hence the world-count guard.
    """
    if i not in frame.modalities:
        raise ValueError(f"frame has no modality {i}")
    if len(frame.worlds) > FOUR_GUARD_WORLDS:
        raise BudgetExceeded(
            f"{len(frame.worlds)} worlds exceeds guard {FOUR_GUARD_WORLDS} for four_ok")
    n = len(frame.worlds)
    index = {w: k for k, w in enumerate(frame.worlds)}
    rows = [[sum(1 << index[x] for x in u) for u in frame.base[i][w]]
            for w in frame.worlds]
    d_ok = all(u != 0 for row in rows for u in row)
    t_ok = all(all(u >> w & 1 for u in row) for w, row in enumerate(rows))

    def in_filter(w: int, u: int) -> bool:
        return any(b & ~u == 0 for b in rows[w])

    four_ok = True
    for u in range(1 << n):
        holders = sum(1 << w for w in range(n) if in_filter(w, u))
        if not all(in_filter(w, holders) for w in range(n) if holders >> w & 1):
            four_ok = False
            break
    return Characteristics(d_ok, t_ok, four_ok)


def product_world(w1: str, w2: str) -> str:
    return f"{w1},{w2}"


def product_n(frame1: FiniteNFrame, frame2: FiniteNFrame) -> FiniteNFrame:
    """Product of two unimodal frames: pairs as worlds; modality 1 moves the
    first coordinate inside base-set cylinders V x {x2}, modality 2 the second."""
    for k, frame in ((1, frame1), (2, frame2)):
        if frame.modalities != (1,):
            raise ValueError(f"product input {k} must be unimodal with modality 1")
        check = validate_frame(frame)
        if not check.passed:
            raise ValueError(f"product input {k} invalid: {check.counterexample}")
    worlds = tuple(product_world(w1, w2)
                   for w1 in frame1.worlds for w2 in frame2.worlds)
    base1: dict[str, tuple[frozenset[str], ...]] = {}
    base2: dict[str, tuple[frozenset[str], ...]] = {}
    for w1 in frame1.worlds:
        for w2 in frame2.worlds:
            w = product_world(w1, w2)
            base1[w] = tuple(frozenset(product_world(v, w2) for v in u)
                             for u in frame1.base[1][w1])
            base2[w] = tuple(frozenset(product_world(w1, v) for v in u)
                             for u in frame2.base[1][w2])
    return FiniteNFrame(worlds, {1: base1, 2: base2})


# --- bounded morphisms ----------------------------------------------------------

def check_bounded_morphism(f: Mapping[str, str], source: FiniteNFrame,
                           target: FiniteNFrame) -> VerificationReport:
    """Surjectivity plus the two neighborhood conditions, reduced to base
    sets: images of base sets are neighborhoods of the image point, and every
    base set at the image point contains the image of some base set.

    Reduction soundness: images and neighborhoods are both monotone under
    supersets, so checking the generators settles the full filters.
    """
    with VerificationReport(
            lemma="bounded-morphism",
            params={"source_worlds": len(source.worlds),
                    "target_worlds": len(target.worlds)}) as report:
        if source.modalities != target.modalities:
            raise ValueError("source and target modality sets differ")
        if set(f) != set(source.worlds):
            raise ValueError("map domain is not the source carrier")
        if not set(f.values()) <= set(target.worlds):
            raise ValueError("map range leaves the target carrier")
        if set(f.values()) != set(target.worlds):
            missed = sorted(set(target.worlds) - set(f.values()))
            return report.fail({"condition": "surjectivity", "missed": missed})
        report.checked += 1
        for i in source.modalities:
            for x in source.worlds:
                fx = f[x]
                target_sets = target.base[i][fx]
                for u in source.base[i][x]:
                    report.checked += 1
                    image = frozenset(f[y] for y in u)
                    if not any(v <= image for v in target_sets):
                        return report.fail({"condition": "image-is-neighborhood",
                                            "modality": i, "x": x, "set": sorted(u),
                                            "image": sorted(image)})
                for v in target_sets:
                    report.checked += 1
                    if not any(frozenset(f[y] for y in u) <= v
                               for u in source.base[i][x]):
                        return report.fail({"condition": "preimage-refinement",
                                            "modality": i, "x": x,
                                            "target_set": sorted(v)})
    return report


def check_truth_preservation(f: Mapping[str, str], source: FiniteNFrame,
                             target_model: FiniteNModel, depth: int) -> VerificationReport:
    """Pull the target valuation back along f and compare truth pointwise for
    every generated formula up to the given modal depth."""
    morphism = check_bounded_morphism(f, source, target_model.frame)
    if not morphism.passed:
        raise ValueError(f"morphism check failed: {morphism.counterexample}")
    with VerificationReport(
            lemma="truth-preservation",
            params={"depth": depth, "source_worlds": len(source.worlds),
                    "target_worlds": len(target_model.frame.worlds)}) as report:
        names = sorted(target_model.valuation)
        pulled = {name: frozenset(x for x in source.worlds
                                  if f[x] in target_model.valuation[name])
                  for name in names}
        source_model = FiniteNModel(source, pulled)
        allowed = set(source.modalities)
        for phi in generate_formulas(depth, names[:2]):
            if not modalities_of(phi) <= allowed:
                continue
            den_source = denotation(source_model, phi)
            den_target = denotation(target_model, phi)
            for x in source.worlds:
                report.checked += 1
                if (x in den_source) != (f[x] in den_target):
                    return report.fail({"formula": unparse(phi), "x": x, "fx": f[x]})
    return report


def morphism_to_dict(f: Mapping[str, str]) -> dict[str, Any]:
    return {"map": dict(sorted(f.items()))}


def morphism_from_dict(data: Mapping[str, Any]) -> dict[str, str]:
    return dict(data["map"])
