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
from operator import and_
from typing import Any, Iterable, Mapping, Sequence

from .formula import (OP_ATOM, OP_BOTTOM, OP_IMPLIES, Formula, Node,
                      compile_formula, compile_formulas, generate_formulas,
                      modalities_of, unparse)
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
    base = {i: {w: (succ,) for w, succ in frame.successor_sets(i).items()}
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
#
# A node's value holds one truth vector per world slot, slot k being the
# k-th declared world: bit f of a vector is the value in lane f. A lane is a
# valuation for valid_on_frame and a model for node_values, so one walk over
# a compiled family evaluates every lane at once.

BaseRows = dict[int, list[dict[int, int]]]


def _add_base_rows(rows: BaseRows, frame: FiniteNFrame, lanes: int) -> None:
    """Merge frame's base sets into rows: rows[i][k] maps each base set of
    modality i at slot k, as a mask of slots, to the lanes that have it."""
    index = {w: k for k, w in enumerate(frame.worlds)}
    for i, per_world in frame.base.items():
        row = rows.setdefault(i, [])
        row.extend({} for _ in range(len(frame.worlds) - len(row)))
        for k, w in enumerate(frame.worlds):
            for u in per_world[w]:
                key = sum(1 << index[x] for x in u)
                # a new set keeps the caller's mask, which valid_on_frame
                # makes as wide as all valuations, instead of a copy
                row[k][key] = row[k][key] | lanes if key in row[k] else lanes


def _truth(nodes: Sequence[Node], rows: BaseRows,
           atom_vectors: Mapping[str, tuple[int, ...]], full: int,
           slots: int) -> list[tuple[int, ...]]:
    """Truth vectors of every node; full has a bit for every lane."""
    # (lane mask, base set as slots) pairs, one per distinct set at a slot
    pairs = {i: [[(mask, [m for m in range(slots) if key >> m & 1])
                  for key, mask in row.items()] for row in per_slot]
             for i, per_slot in rows.items()}
    # equal values share one tuple: on a stack many formulas agree everywhere
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    values: list[tuple[int, ...]] = []
    for op, x, y in nodes:
        if op == OP_BOTTOM:
            out = (0,) * slots
        elif op == OP_ATOM:
            if x not in atom_vectors:
                raise ValueError(f"unknown atom {x!r}")
            out = atom_vectors[x]
        elif op == OP_IMPLIES:
            out = tuple([(full & ~a) | b for a, b in zip(values[x], values[y])])
        else:
            if x not in pairs:
                raise ValueError(f"frame has no modality {x}")
            # the monotone clause: some base set lies inside the body's truth set
            body = values[y]
            holds = []
            for row in pairs[x]:
                some = 0
                for mask, u in row:
                    for m in u:
                        mask &= body[m]
                    some |= mask
                holds.append(some)
            out = tuple(holds)
        values.append(shared.setdefault(out, out))
    return values


def node_values(models: Iterable[FiniteNModel],
                nodes: Sequence[Node]) -> list[tuple[int, ...]]:
    """Truth vectors of every node of a compiled family on a stack of
    models, model f in lane f: bit f of a node's vector at slot k is its
    truth at world k of model f. The models are read once, so a generator
    keeps only one of them alive."""
    rows: BaseRows = {}
    atom_lanes: dict[str, list[int]] = {}  # per atom and slot: lanes where true
    modalities: set[int] | None = None
    names: set[str] | None = None
    slots = lanes = 0
    for f, model in enumerate(models):
        frame, valuation = model.frame, model.valuation
        _add_base_rows(rows, frame, 1 << f)
        modalities = set(frame.base) if modalities is None else modalities & set(frame.base)
        names = set(valuation) if names is None else names & set(valuation)
        slots, lanes = max(slots, len(frame.worlds)), f + 1
        for name, ws in valuation.items():
            per_slot = atom_lanes.setdefault(name, [])
            per_slot.extend([0] * (len(frame.worlds) - len(per_slot)))
            for k, w in enumerate(frame.worlds):
                if w in ws:
                    per_slot[k] |= 1 << f
    if modalities is None or names is None:  # no lanes, nothing to evaluate
        return [()] * len(nodes)
    vectors = {name: tuple(atom_lanes[name] + [0] * (slots - len(atom_lanes[name])))
               for name in names}
    return _truth(nodes, {i: rows[i] for i in modalities}, vectors,
                  (1 << lanes) - 1, slots)


def denotation(model: FiniteNModel, phi: Formula) -> frozenset[str]:
    root = node_values([model], compile_formula(phi))[-1]
    return frozenset(w for w, t in zip(model.frame.worlds, root) if t)


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
    nodes = compile_formula(phi)
    names = sorted({x for op, x, _ in nodes if op == OP_ATOM})
    pairs = [(w, a) for w in frame.worlds for a in names]
    bits = len(pairs)
    if bits > VALUATION_GUARD_BITS:
        raise BudgetExceeded(
            f"{bits} valuation bits exceeds guard {VALUATION_GUARD_BITS}")
    full = (1 << (1 << bits)) - 1
    vectors: dict[str, list[int]] = {a: [] for a in names}
    for j, (_, a) in enumerate(pairs):
        # 2 ** j zeros then 2 ** j ones, doubled until it has a bit for
        # every valuation
        vector, size = ((1 << (1 << j)) - 1) << (1 << j), 2 << j
        while size < 1 << bits:
            vector |= vector << size
            size *= 2
        vectors[a].append(vector)
    rows: BaseRows = {}
    _add_base_rows(rows, frame, full)
    out = _truth(nodes, rows,
                 {a: tuple(vector) for a, vector in vectors.items()}, full,
                 len(frame.worlds))[-1]
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
    filter contains U is itself in the point's filter. Filters are upward
    closed and U -> {v : U in N(v)} is monotone, so it is enough to check
    the base sets of each point. Frames of more than FOUR_GUARD_WORLDS
    worlds are a budget outcome, as they were when every subset of the
    carrier was checked, so char answers the same on every frame.
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

    def holders(u: int) -> int:
        return sum(1 << v for v in range(n) if in_filter(v, u))

    four_ok = all(in_filter(w, holders(b)) for w, row in enumerate(rows) for b in row)
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
        formulas = [phi for phi in generate_formulas(depth, names[:2])
                    if modalities_of(phi) <= allowed]
        nodes, roots = compile_formulas(formulas)
        values_source = node_values([source_model], nodes)
        values_target = node_values([target_model], nodes)
        slot = {w: k for k, w in enumerate(target_model.frame.worlds)}
        for phi, r in zip(formulas, roots):
            for k, x in enumerate(source.worlds):
                report.checked += 1
                if values_source[r][k] != values_target[r][slot[f[x]]]:
                    return report.fail({"formula": unparse(phi), "x": x, "fx": f[x]})
    return report


def morphism_to_dict(f: Mapping[str, str]) -> dict[str, Any]:
    return {"map": dict(sorted(f.items()))}


def morphism_from_dict(data: Mapping[str, Any]) -> dict[str, str]:
    return dict(data["map"])
