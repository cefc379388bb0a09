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

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterable, Mapping, Sequence

from .formula import (OP_ATOM, OP_BOTTOM, OP_BOX, OP_IMPLIES, Formula, Node,
                      compile_formula, compile_formulas, generate_formulas,
                      modalities_of, unparse)
from .kripke import FiniteKripkeFrame, _expect, _known_lists, _modality, _worlds
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
            for w, sets in per_world.items():
                if not _known_lists(sets, known):  # name the first malformed set
                    for n, u in enumerate(_expect(sets, list, f"{path}.{w}")):
                        _worlds(u, f"{path}.{w}[{n}]", known)
            base[_modality(key, path)] = {w: tuple(map(frozenset, sets))
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
        val, known = _expect(data.get("val", {}), dict, "$.val"), set(frame.worlds)
        if not _known_lists(list(val.values()), known):  # name the first malformed one
            for name, ws in val.items():
                _worlds(ws, f"$.val.{name}", known)
        return cls(frame, {name: frozenset(ws) for name, ws in val.items()})


# --- satisfaction over truth vectors ----------------------------------------------
#
# A node's value holds one truth vector per world slot, slot k being the
# k-th declared world: bit f of a vector is the value in lane f. One stack,
# _Lanes, puts frames side by side in lane ranges of their own: node_values
# gives each model one lane, valid_on_frame gives its one frame a lane per
# valuation and first_invalid stacks frames so, one after another. One walk
# over a compiled family evaluates every lane at once.

@dataclass
class SlotMasks:
    """A frame as the evaluators read it, world names dropped: per modality
    and slot, the slot's base sets as masks of slots (bit m set when the
    set holds slot m)."""
    slots: int
    base: dict[int, list[tuple[int, ...]]]


def slot_masks(frame: FiniteNFrame) -> SlotMasks:
    bit = {w: 1 << k for k, w in enumerate(frame.worlds)}.__getitem__
    return SlotMasks(len(frame.worlds),
                     {i: [tuple([sum(map(bit, u)) for u in per_world[w]])
                          for w in frame.worlds]
                      for i, per_world in frame.base.items()})


BaseRows = dict[int, list[dict[int, int]]]


def _add_base_rows(rows: BaseRows, frame: SlotMasks, lanes: int) -> None:
    """Merge frame's base sets into rows: rows[i][k] maps each base set of
    modality i at slot k to the lanes that have it."""
    for i, per_slot in frame.base.items():
        row = rows.setdefault(i, [])
        if len(per_slot) > len(row):
            row.extend({} for _ in range(len(per_slot) - len(row)))
        for sets, at in zip(per_slot, row):
            for key in sets:
                # a new set keeps the caller's mask, on one frame as wide
                # as all its valuations, instead of a copy
                at[key] = at[key] | lanes if key in at else lanes


def _members(key: int) -> tuple[int, ...]:
    """The slots of a base set given as a mask of slots, lowest first."""
    u = []
    while key:
        low = key & -key
        u.append(low.bit_length() - 1)
        key ^= low
    return tuple(u)


Layer = tuple[int, Sequence[int], Sequence[tuple[int, int]]]


def _layers(row: dict[int, int], full: int,
            members: dict[int, tuple[int, ...]]) -> list[Layer]:
    """A slot's base sets, packed into layers of at most one set per lane.

    A layer is (lanes H, the slots every set of the layer holds, and per
    slot that only some of them hold, the lanes of H whose set misses it).
    On H the box holds where the AND over those slots of the body, each
    widened by its missing lanes, is set. A lane whose set is empty misses
    every slot, so the box holds there; a lane with no set at the slot is
    in no layer, so it fails there. A set that covers every lane, as every
    set does on one frame or one model, is a layer of its own. members
    holds the slots of every set decoded so far.
    """
    layers: list[Layer] = []
    shared: list[tuple[int, dict[int, int]]] = []  # (H, slot -> lanes holding it)
    for key, mask in row.items():
        u = members[key] if key in members else members.setdefault(key, _members(key))
        if mask == full:
            layers.append((mask, u, ()))
            continue
        for n, (lanes, holding) in enumerate(shared):
            if not lanes & mask:
                shared[n] = (lanes | mask, holding)
                break
        else:
            holding = {}
            shared.append((mask, holding))
        for m in u:
            holding[m] = holding.get(m, 0) | mask
    layers += [(lanes, [m for m, h in holding.items() if h == lanes],
                [(m, lanes & ~h) for m, h in holding.items() if h != lanes])
               for lanes, holding in shared]
    return layers


def _truth(nodes: Sequence[Node], rows: BaseRows,
           atom_vectors: Mapping[str, tuple[int, ...]], full: int,
           slots: int) -> list[tuple[int, ...]]:
    """Truth vectors of every node; full has a bit for every lane. Layers
    are built for the modalities some box reads, each base set decoded once."""
    members: dict[int, tuple[int, ...]] = {}
    layers = {i: [_layers(row, full, members) for row in rows[i]]
              for i in {x for op, x, _ in nodes if op == OP_BOX} & rows.keys()}
    # equal values share one tuple: on a stack many formulas agree everywhere
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    # each distinct step runs once: the node that boxed (modality, body) or
    # implied (antecedent, consequent). Shared values live all walk, so their
    # identities are exact keys, and a repeat hashes no wide tuple.
    done: dict[tuple[int, int, int], int] = {}
    values: list[tuple[int, ...]] = []
    for op, x, y in nodes:
        if op == OP_BOTTOM:
            out = (0,) * slots
        elif op == OP_ATOM:
            if x not in atom_vectors:
                raise ValueError(f"unknown atom {x!r}")
            out = atom_vectors[x]
        elif (key := (op, x if op == OP_BOX else id(values[x]), id(values[y]))) in done:
            values.append(values[done[key]])
            continue
        elif op == OP_IMPLIES:
            done[key] = len(values)
            out = tuple([(full & ~a) | b for a, b in zip(values[x], values[y])])
        else:
            if x not in layers:
                raise ValueError(f"frame has no modality {x}")
            done[key] = len(values)
            # the monotone clause: some base set lies inside the body's truth
            # set, decided for every lane of a layer at once
            body = values[y]
            holds = []
            for row in layers[x]:
                some = 0
                for mask, u, partial in row:
                    for m in u:
                        mask &= body[m]
                    for m, miss in partial:
                        mask &= body[m] | miss
                    some |= mask
                holds.append(some)
            out = tuple(holds)
        values.append(shared.setdefault(out, out))
    return values


class _Lanes:
    """Frames side by side over their world slots, each in a lane range of
    its own: the p-th frame added, with width w, holds w lanes from
    starts[p]. Its base sets are merged under that range, its per-slot atom
    vectors shifted into it, and its slot count recorded, so its lanes do
    not fail at the slots it lacks. The stack keeps the atoms and
    modalities every frame has."""

    def __init__(self) -> None:
        self.rows: BaseRows = {}
        self.modalities: set[int] | None = None  # None until a frame is added
        self.vectors: dict[str, list[int]] = {}  # per atom and slot: lanes where true
        self.sized: dict[int, int] = {}  # per slot count, the lanes of frames with that many
        self.starts: list[int] = []
        self.lanes = self.full = 0  # full: a bit for every lane

    def add(self, masks: SlotMasks, atom_vectors: Mapping[str, Sequence[int]],
            width: int) -> None:
        lanes, n = self.lanes, masks.slots
        mask = ((1 << width) - 1) << lanes
        _add_base_rows(self.rows, masks, mask)
        if self.modalities is None:
            self.modalities, self.vectors = set(masks.base), {a: [] for a in atom_vectors}
        self.modalities &= masks.base.keys()
        for a, column in list(self.vectors.items()):
            if a not in atom_vectors:
                del self.vectors[a]
                continue
            column.extend([0] * (n - len(column)))
            for k, vector in enumerate(atom_vectors[a]):
                if vector:  # a shift by 0 would copy a wide vector
                    column[k] |= vector << lanes if lanes else vector
        self.sized[n] = self.sized.get(n, 0) | mask
        self.starts.append(lanes)
        self.lanes += width
        # one frame's mask is full itself: _layers' mask == full is then cheap
        self.full = self.full | mask if lanes else mask

    def values(self, nodes: Sequence[Node]) -> list[tuple[int, ...]]:
        """Truth vectors of every node of a compiled family, all lanes at once."""
        if self.modalities is None:  # no lanes, nothing to evaluate
            return [()] * len(nodes)
        return _truth(nodes, {i: self.rows[i] for i in self.modalities},
                      {a: tuple(column) for a, column in self.vectors.items()},
                      self.full, max(self.sized))

    def failing_lane(self, value: Sequence[int]) -> int | None:
        """The lowest lane where value fails at a slot its frame has, or None."""
        held, failing = self.full, 0
        for k, v in enumerate(value, 1):
            held &= v
            if k in self.sized:  # frames of k slots fail where slots 0..k-1 do not all hold
                failing |= self.sized[k] & ~held
        return (failing & -failing).bit_length() - 1 if failing else None


def node_values(models: Iterable[FiniteNModel],
                nodes: Sequence[Node]) -> list[tuple[int, ...]]:
    """Truth vectors of every node of a compiled family on a stack of
    models, model f in lane f: bit f of a node's vector at slot k is its
    truth at world k of model f. The models are read once, so a generator
    keeps only one of them alive."""
    stack = _Lanes()
    for model in models:
        worlds = model.frame.worlds
        stack.add(slot_masks(model.frame),
                  {a: [w in ws for w in worlds] for a, ws in model.valuation.items()},
                  1)
    return stack.values(nodes)


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


@lru_cache(maxsize=32)
def _valuation_vectors(worlds: int, names: tuple[str, ...]) -> dict[str, tuple[int, ...]]:
    """The atom vectors of every valuation on a frame of that many worlds,
    which valid_on_frame and first_invalid add to a stack: per atom, one
    vector per world, bit v of pair j's vector being bit j of v. Raises
    BudgetExceeded past VALUATION_GUARD_BITS (world, atom) pairs. Cached
    per process (up to 128 KB an entry); stacks shift copies, never these."""
    bits = worlds * len(names)
    if bits > VALUATION_GUARD_BITS:
        raise BudgetExceeded(
            f"{bits} valuation bits exceeds guard {VALUATION_GUARD_BITS}")
    vectors: dict[str, list[int]] = {a: [] for a in names}
    for j in range(bits):
        # 2 ** j zeros then 2 ** j ones, doubled until it has a bit for
        # every valuation
        vector, size = ((1 << (1 << j)) - 1) << (1 << j), 2 << j
        while size < 1 << bits:
            vector |= vector << size
            size *= 2
        vectors[names[j % len(names)]].append(vector)
    return {a: tuple(per_world) for a, per_world in vectors.items()}


def valid_on_frame(frame: FiniteNFrame, phi: Formula) -> Counterexample | None:
    """Exhaustive validity check; returns the first counterexample or None.

    Valuations run in binary-counter order over (world, atom) pairs with
    worlds in declaration order and atoms sorted; worlds are scanned in
    declaration order inside each valuation. All valuations are evaluated
    at once, valuation v in lane v of a one-frame stack, so the first
    counterexample is the lowest lane missing from some world's truth vector.
    """
    nodes = compile_formula(phi)
    names = tuple(sorted({x for op, x, _ in nodes if op == OP_ATOM}))
    vectors = _valuation_vectors(len(frame.worlds), names)  # refuses before any lane
    stack = _Lanes()
    stack.add(slot_masks(frame), vectors, 1 << len(frame.worlds) * len(names))
    out = stack.values(nodes)[-1]
    v = stack.failing_lane(out)
    if v is None:
        return None
    world = next(w for w, t in zip(frame.worlds, out) if not t >> v & 1)
    pairs = [(w, a) for w in frame.worlds for a in names]
    val = {a: tuple(w for j, (w, b) in enumerate(pairs) if b == a and v >> j & 1)
           for a in names}
    return Counterexample(val, world)


def first_invalid(frames: Iterable[SlotMasks], phi: Formula) -> int | None:
    """Index of the first frame valid_on_frame does not answer None on, or
    None: the first frame phi fails on or valid_on_frame refuses (too many
    valuation bits, a modality phi needs and the frame lacks). It never
    raises for a refused frame; a caller surfaces the refusal by calling
    valid_on_frame on the frame whose index it gets back.

    Frames come as slot masks, so a caller that builds them itself, as the
    finite sweeps build their products, never names a world. They are
    stacked as valid_on_frame stacks its one frame, each with the lanes of
    all its valuations, and one walk over phi decides a whole stack. A stack
    holds at most 2^VALUATION_GUARD_BITS lanes, the bound one frame has;
    stacks run in order and stop at the first failure or at a refused
    frame, which gets no lanes. The frames are read once, so a generator
    keeps only a stack's worth of base sets alive.
    """
    nodes = compile_formula(phi)
    names = tuple(sorted({x for op, x, _ in nodes if op == OP_ATOM}))
    boxes = {x for op, x, _ in nodes if op == OP_BOX}
    stack, first = _Lanes(), 0  # first: index of the stack's first frame

    def failing() -> int | None:
        lane = stack.failing_lane(stack.values(nodes)[-1])
        return None if lane is None else first + bisect_right(stack.starts, lane) - 1

    for p, frame in enumerate(frames):
        bits = frame.slots * len(names)
        refused = bits > VALUATION_GUARD_BITS or not boxes <= frame.base.keys()
        if refused or stack.lanes + (1 << bits) > 1 << VALUATION_GUARD_BITS:
            failed = failing()
            if failed is not None:
                return failed
            if refused:
                return p
            stack, first = _Lanes(), p
        stack.add(frame, _valuation_vectors(frame.slots, names), 1 << bits)
    return failing()


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
    rows = slot_masks(frame).base[i]
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


def product_masks(frame1: FiniteNFrame, frame2: FiniteNFrame) -> SlotMasks:
    """slot_masks(product_n(frame1, frame2)), built from the masks of the
    factors without naming a world or validating a factor: slot (x1, x2) is
    x1 * n2 + x2, so a modality-1 set at x1 spreads slot v to v * n2 and
    shifts by x2, and a modality-2 set at x2 shifts by x1 * n2. For factors
    known to be valid, as the finite sweeps draw them."""
    n1, n2 = len(frame1.worlds), len(frame2.worlds)
    spread = {w: 1 << k * n2 for k, w in enumerate(frame1.worlds)}.__getitem__
    first = [tuple([sum(map(spread, u)) for u in frame1.base[1][w]])
             for w in frame1.worlds]
    second = slot_masks(frame2).base[1]
    return SlotMasks(n1 * n2, {
        1: [tuple(u << x2 for u in sets) for sets in first for x2 in range(n2)],
        2: [tuple(u << x1 * n2 for u in sets) for x1 in range(n1) for sets in second]})


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
    every generated formula up to the given modal depth over the first two
    atoms of the valuation, which params["atoms"] names."""
    morphism = check_bounded_morphism(f, source, target_model.frame)
    if not morphism.passed:
        raise ValueError(f"morphism check failed: {morphism.counterexample}")
    names = sorted(target_model.valuation)
    with VerificationReport(
            lemma="truth-preservation",
            params={"depth": depth, "source_worlds": len(source.worlds),
                    "target_worlds": len(target_model.frame.worlds),
                    "atoms": names[:2]}) as report:
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
