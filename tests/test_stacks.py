"""Stacked evaluation against the per-frame code it replaces.

kripke.node_values and nbhd.node_values evaluate a compiled family on a
stack of frames, one bit lane per frame: kripke packs slot k of frame f at
bit k * len(frames) + f of one int, nbhd keeps one vector per slot with
frame f at bit f. Their values must match the per-frame
denotation of every formula. nf_agreement_sweep runs each of them once over
all its frames; it must report the same check count and the same first
counterexample as the frame-major loop kept here as the reference.

nbhd decides a box by lane layers: a slot's base sets are split into layers
of at most one set per lane, and one AND over the slots a layer's sets touch
decides all of its lanes. The layered clause must give the values of the
loop over every distinct base set kept here. nbhd.first_invalid stacks whole
frames, given as slot masks, under valid_on_frame's lane scheme, frame after
frame in lane ranges of their own; finite_com_sweep and fusion_soundness_sweep
decide each formula once over such stacks and must report what their
pair-major loops, kept here, report. The sweeps build each product's masks
from its factors' with nbhd.product_masks and never validate a factor, so
the masks must be those of product_n, and every factor they draw must be
valid.

A walk over a family computes each distinct step once: a box by its
modality and body, an implication by its operands in order. So a family
walked at once must give every formula the value of its walk alone, in
both nbhd walks and in the relational one.
"""

import itertools
import json
import tracemalloc
from random import Random

import pytest

from nbhdprod import nbhd, sampling
from nbhdprod.formula import (LOGICS, OP_ATOM, OP_BOTTOM, OP_IMPLIES, AxiomScheme, atoms,
                              axiom_instance, compile_formula, compile_formulas,
                              fusion_axioms, generate_formulas, parse, unparse)
from nbhdprod.kripke import FiniteKripkeFrame
from nbhdprod.kripke import denotation as kripke_denotation
from nbhdprod.kripke import node_values as kripke_values
from nbhdprod.nbhd import (FiniteNFrame, FiniteNModel, denotation, first_invalid,
                           node_values, nof, slot_masks, valid_on_frame)
from nbhdprod.report import BudgetExceeded
from nbhdprod.sampling import (finite_com_sweep, fusion_soundness_sweep,
                               nf_agreement_sweep)


def reference_sweep(seed, n_frames=100, max_worlds=4, depth=2, atom_names=("p",)):
    """(checked, counterexample) of the frame-major loop: draw a frame and
    its valuation, then compare the two denotations of every formula.
    Frames, valuations and nof are looked up in sampling at call time, so a
    test that patches them there patches both sweeps."""
    rng = Random(seed)
    formulas = list(generate_formulas(depth, atom_names))
    checked = 0
    for _ in range(n_frames):
        frame = sampling.random_kripke_frame(rng, max_worlds)
        val = sampling.random_valuation(rng, frame.worlds, atom_names)
        model = FiniteNModel(sampling.nof(frame), val)
        for phi in formulas:
            checked += 1
            if kripke_denotation(frame, val, phi) != denotation(model, phi):
                return checked, {"frame": frame.to_dict(),
                                 "valuation": {a: sorted(ws) for a, ws in val.items()},
                                 "formula": unparse(phi)}
    return checked, None


def assert_matches_reference(**kwargs):
    report = nf_agreement_sweep(**kwargs)
    checked, counterexample = reference_sweep(**kwargs)
    assert report.checked == checked
    assert report.counterexample == counterexample
    assert report.passed == (counterexample is None)
    return report


@pytest.mark.parametrize("seed", range(5))
def test_sweep_matches_frame_major_loop(seed):
    report = assert_matches_reference(seed=seed, n_frames=8)
    assert report.passed and report.checked == 8 * 1514


@pytest.mark.parametrize("kwargs", [
    {"n_frames": 0}, {"n_frames": 1}, {"n_frames": 7, "max_worlds": 1},
    {"n_frames": 12, "depth": 1, "atom_names": ("p", "q")},
    {"n_frames": 6, "depth": 0, "atom_names": ()},
])
def test_sweep_edge_sizes_match_frame_major_loop(kwargs):
    """The loop passes on no frames having checked nothing; the sweep
    refuses that size."""
    if kwargs["n_frames"] < 1:
        with pytest.raises(ValueError, match="^n_frames must be >= 1, got 0$"):
            nf_agreement_sweep(seed=3, **kwargs)
    else:
        assert_matches_reference(seed=3, **kwargs)


@pytest.mark.parametrize("sweep,size", [(nf_agreement_sweep, "n_frames"),
                                        (fusion_soundness_sweep, "n_pairs"),
                                        (finite_com_sweep, "n_pairs")])
def test_sweeps_of_nothing_are_refused(sweep, size):
    """A sweep with nothing to check never reports a pass."""
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"^{size} must be >= 1, got {n}$"):
            sweep(0, **{size: n})


def _forgets_last_world(frame):
    """A faulty nof: on frames of three worlds the last one drops out of
    every successor set of modality 2, so boxes over it hold too often."""
    good = nof(frame)
    if len(good.worlds) != 3:
        return good
    last = good.worlds[-1]
    base = dict(good.base)
    base[2] = {w: tuple(u - {last} for u in sets) for w, sets in base[2].items()}
    return FiniteNFrame(good.worlds, base)


@pytest.mark.parametrize("seed", [0, 1, 3, 5])
def test_sweep_failure_matches_frame_major_loop(seed, monkeypatch):
    """The first failure lies in frame 2, 13, 3 and 0 of these seeds; for
    seeds 0, 3 and 5 a later frame fails at an earlier formula."""
    monkeypatch.setattr(sampling, "nof", _forgets_last_world)
    report = assert_matches_reference(seed=seed)
    assert not report.passed


def test_sweep_with_empty_relations_matches_frame_major_loop(monkeypatch):
    """Frames with an even number of worlds lose their edges after the rng
    drew them, so every draw stays that of the real sweep."""
    draw = sampling.random_kripke_frame

    def some_empty(rng, max_worlds=4, modalities=(1, 2)):
        frame = draw(rng, max_worlds, modalities)
        if len(frame.worlds) % 2:
            return frame
        return FiniteKripkeFrame(frame.worlds, {i: frozenset() for i in frame.rel})

    monkeypatch.setattr(sampling, "random_kripke_frame", some_empty)
    assert assert_matches_reference(seed=4, n_frames=6).passed


def test_stacks_match_per_frame_denotations():
    """Frames of 1 to 4 worlds, some without edges, in one stack: lane f of
    every node's value is the denotation on frame f alone."""
    rng = Random(8)
    frames, valuations = [], []
    for n in range(16):
        frame = sampling.random_kripke_frame(rng, 4)
        if n % 5 == 0:
            frame = FiniteKripkeFrame(frame.worlds, {1: frozenset(), 2: frozenset()})
        frames.append(frame)
        valuations.append(sampling.random_valuation(rng, frame.worlds, ("p", "q")))
    formulas = list(generate_formulas(1, ("p", "q")))
    nodes, roots = compile_formulas(formulas)
    models = [FiniteNModel(nof(frame), val) for frame, val in zip(frames, valuations)]
    relational = kripke_values(frames, valuations, nodes)
    neighborhood = node_values(iter(models), nodes)
    lanes = len(frames)
    for phi, r in zip(formulas, roots):
        for f, (frame, val, model) in enumerate(zip(frames, valuations, models)):
            lane = {w for k, w in enumerate(frame.worlds)
                    if relational[r] >> k * lanes + f & 1}
            assert lane == kripke_denotation(frame, val, phi), unparse(phi)
            lane = {w for w, vector in zip(frame.worlds, neighborhood[r])
                    if vector >> f & 1}
            assert lane == denotation(model, phi), unparse(phi)


# --- one walk computes each distinct step once ------------------------------------

# The same body under [1] and [2], implications both ways round, and the
# depth-1 family over p and q: a walk that reused a step keyed without its
# modality, or with its operands unordered, would give one formula of a
# pair the other's value, which the formula alone does not have.
SHARED_STEPS = [parse(text) for text in (
    "[1](p -> q)", "[2](p -> q)", "p -> q", "q -> p", "(p -> q) -> q -> p",
    "[1](p -> q) -> [2](p -> q)", "[2](q -> p) -> [1](p -> q)",
    "[1][2] p -> [2][1] q", "[2][1] q -> [1][2] p")] + list(generate_formulas(1, ("p", "q")))


def _bimodal(rng, n):
    """n worlds, one or two nested random base sets per world and modality."""
    worlds = tuple(f"w{k}" for k in range(n))

    def sets():
        outer = frozenset(w for w in worlds if rng.random() < 0.6)
        return (outer, frozenset(w for w in outer if rng.random() < 0.6))[:rng.randint(1, 2)]

    return FiniteNFrame(worlds, {i: {w: sets() for w in worlds} for i in (1, 2)})


@pytest.mark.parametrize("seed", range(3))
def test_family_walk_matches_each_formula_alone(seed):
    """On a stack of 12 models of 1 to 4 worlds, the family walked at once
    gives each formula the value of its walk alone."""
    rng = Random(seed)
    models = []
    for _ in range(12):
        frame = _bimodal(rng, rng.randint(1, 4))
        models.append(FiniteNModel(frame, sampling.random_valuation(rng, frame.worlds, "pq")))
    nodes, roots = compile_formulas(SHARED_STEPS)
    family = node_values(models, nodes)
    for phi, r in zip(SHARED_STEPS, roots):
        assert family[r] == node_values(models, compile_formula(phi))[-1], unparse(phi)


def test_one_frame_family_walk_matches_each_formula_alone(monkeypatch):
    """valid_on_frame on an 8-world frame gives each formula over p and q
    the 2^16 lanes of all its valuations; the family walked at once on that
    stack gives each formula the root value of valid_on_frame's walk."""
    frame = _bimodal(Random(6), 8)
    walks = []
    truth = nbhd._truth

    def recording(nodes, rows, vectors, full, slots):
        values = truth(nodes, rows, vectors, full, slots)
        walks.append(((rows, vectors, full, slots), values[-1]))
        return values

    monkeypatch.setattr(nbhd, "_truth", recording)
    formulas = [phi for phi in SHARED_STEPS if atoms(phi) == {"p", "q"}]
    answers = {valid_on_frame(frame, phi) is None for phi in formulas}
    assert answers == {True, False}
    stack = walks[0][0]
    assert stack[2] == (1 << (1 << 16)) - 1 and all(walk[0] == stack for walk in walks)
    nodes, roots = compile_formulas(formulas)
    family = truth(nodes, *stack)
    for phi, r, (_, alone) in zip(formulas, roots, walks):
        assert family[r] == alone, unparse(phi)


def test_relational_family_walk_matches_each_denotation():
    """kripke.node_values walks the family once over 12 frames; every
    formula's value there is its relational denotation, frame by frame."""
    rng = Random(9)
    frames = [sampling.random_kripke_frame(rng, 4) for _ in range(12)]
    valuations = [sampling.random_valuation(rng, frame.worlds, "pq") for frame in frames]
    nodes, roots = compile_formulas(SHARED_STEPS)
    family = kripke_values(frames, valuations, nodes)
    for phi, r in zip(SHARED_STEPS, roots):
        for f, (frame, val) in enumerate(zip(frames, valuations)):
            assert {w for k, w in enumerate(frame.worlds) if family[r] >> k * 12 + f & 1} \
                == kripke_denotation(frame, val, phi), (unparse(phi), f)


def test_stack_errors():
    frame = FiniteKripkeFrame(("a",), {1: frozenset({("a", "a")})})
    model = FiniteNModel(nof(frame), {"p": frozenset()})
    atom, _ = compile_formulas([parse("p")])
    box2, _ = compile_formulas([parse("[2] p")])
    with pytest.raises(ValueError, match="unknown world"):
        kripke_values([frame], [{"p": {"b"}}], atom)
    for stack in ([frame], [frame, frame]):
        with pytest.raises(ValueError, match="no modality 2"):
            kripke_values(stack, [{"p": set()}] * len(stack), box2)
        with pytest.raises(ValueError, match="no modality 2"):
            node_values([model] * len(stack), box2)
        with pytest.raises(ValueError, match="unknown atom"):
            kripke_values(stack, [{"q": set()}] * len(stack), atom)
    with pytest.raises(ValueError, match="unknown atom"):
        node_values([model, FiniteNModel(model.frame, {})], atom)
    assert kripke_values([], [], box2) == [0, 0]
    assert node_values([], box2) == [(), ()]


def test_sweep_peak_memory():
    """The sweep keeps one value per node and semantics, not one per
    formula and frame: under 0.8 MB traced at its defaults, compiling the
    family included."""
    nf_agreement_sweep(0, n_frames=2)
    sampling._compiled_family.cache_clear()  # trace the compile too
    tracemalloc.start()
    try:
        nf_agreement_sweep(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 800_000, peak


# --- the box clause over lane layers -------------------------------------------

def per_set_truth(nodes, rows, atom_vectors, full, slots):
    """The box clause one distinct base set at a time: at each slot, the OR
    over its sets of (the set's lanes AND the body at every slot it holds)."""
    values = []
    for op, x, y in nodes:
        if op == OP_BOTTOM:
            out = (0,) * slots
        elif op == OP_ATOM:
            out = atom_vectors[x]
        elif op == OP_IMPLIES:
            out = tuple((full & ~a) | b for a, b in zip(values[x], values[y]))
        else:
            holds = []
            for row in rows[x]:
                some = 0
                for key, mask in row.items():
                    for m in range(slots):
                        if key >> m & 1:
                            mask &= values[y][m]
                    some |= mask
                holds.append(some)
            out = tuple(holds)
        values.append(out)
    return values


def random_stack(rng, lanes, masks):
    """Rows of frames of 1 to 4 worlds under the given lane masks: modality 1
    has 1 to 3 random sets per world, empty sets among them, and
    modality 2 has none. Lanes of frames with fewer worlds have no set at
    the last slots."""
    rows = {}
    slots = 0
    for mask in masks:
        n = rng.randint(1, 4)
        worlds = tuple(f"w{k}" for k in range(n))
        sets = {w: tuple(frozenset(v for v in worlds if rng.random() < 0.5)
                         for _ in range(rng.randint(1, 3)))
                for w in worlds}
        frame = FiniteNFrame(worlds, {1: sets, 2: {w: () for w in worlds}})
        nbhd._add_base_rows(rows, slot_masks(frame), mask)
        slots = max(slots, n)
    for per_slot in rows.values():
        per_slot.extend({} for _ in range(slots - len(per_slot)))
    full = (1 << lanes) - 1
    vectors = {a: tuple(rng.getrandbits(lanes) for _ in range(slots)) for a in "pq"}
    return rows, vectors, full, slots


def _masks(rng, lanes, style):
    if style == "one lane each":
        return [1 << f for f in range(lanes)]
    if style == "all lanes":
        return [(1 << lanes) - 1] * rng.randint(1, 3)
    if style == "ranges":
        cuts = sorted(rng.sample(range(1, lanes), 3))
        return [((1 << (b - a)) - 1) << a for a, b in zip([0, *cuts], [*cuts, lanes])]
    # frames on overlapping random lanes, and one frame on every lane
    return [rng.getrandbits(lanes) | 1 for _ in range(4)] + [(1 << lanes) - 1]


@pytest.mark.parametrize("style", ["one lane each", "all lanes", "ranges", "overlapping"])
@pytest.mark.parametrize("seed", range(4))
def test_layered_box_matches_the_per_set_loop(style, seed):
    rng = Random(seed)
    nodes, _ = compile_formulas(generate_formulas(1, ("p", "q")))
    lanes = 24
    rows, vectors, full, slots = random_stack(rng, lanes, _masks(rng, lanes, style))
    assert nbhd._truth(nodes, rows, vectors, full, slots) == \
        per_set_truth(nodes, rows, vectors, full, slots)


# --- stacked validity and the sweeps that use it ------------------------------------

def loop_first_invalid(frames, phi):
    """(index of the first frame valid_on_frame finds a counterexample on,
    or None) or the (type, message) of the first error it raises."""
    try:
        return next((p for p, frame in enumerate(frames)
                     if valid_on_frame(frame, phi) is not None), None)
    except (BudgetExceeded, ValueError) as error:
        return type(error), str(error)


def stacked_first_invalid(frames, phi):
    """first_invalid's answer, with a refused frame's refusal surfaced as
    callers surface it: valid_on_frame on the frame it names."""
    p = first_invalid(map(slot_masks, frames), phi)
    if p is not None:
        try:
            valid_on_frame(frames[p], phi)
        except (BudgetExceeded, ValueError) as error:
            return type(error), str(error)
    return p


def test_first_invalid_matches_the_frame_loop():
    """Random frames of 1 to 6 worlds, some without modality 2 and some
    beyond the valuation guard, in stacks that break at the lane cap."""
    rng = Random(5)
    formulas = [parse(text) for text in (
        "[1] p -> p", "[1] p -> <1> p", "[1] p -> [1][1] p", "[1][2] p -> [2][1] p",
        "[1](p -> q) -> [1] p -> [1] q", "p -> p")]
    for trial in range(30):
        frames = []
        for _ in range(rng.randint(0, 25)):
            frame = sampling.random_nframe(rng, max_worlds=rng.choice([2, 3, 6, 9]))
            if rng.random() < 0.8:
                frame = FiniteNFrame(frame.worlds, {**frame.base, 2: frame.base[1]})
            frames.append(frame)
        for phi in formulas:
            assert stacked_first_invalid(frames, phi) == loop_first_invalid(frames, phi), \
                (trial, unparse(phi))


def test_stacks_hold_at_most_the_guard_lanes(monkeypatch):
    """Every product of a valid K axiom is decided once, in stacks of at
    most 2^16 lanes: products of 1 to 6 worlds hold 2^2 to 2^12 lanes each
    for the two atoms of K."""
    widths = []
    truth = nbhd._truth

    def recording(nodes, rows, vectors, full, slots):
        widths.append(full.bit_length())
        return truth(nodes, rows, vectors, full, slots)

    monkeypatch.setattr(nbhd, "_truth", recording)
    products = [nbhd.product_n(*pair) for pair in _fusion_draws(3, 100)]
    assert first_invalid(map(slot_masks, products), axiom_instance(AxiomScheme.K, 1)) is None
    assert sum(widths) == sum(1 << 2 * len(p.worlds) for p in products)
    assert len(widths) > 1 and max(widths) <= 1 << nbhd.VALUATION_GUARD_BITS


def test_refusals_past_the_guard_hold_no_lanes():
    """A frame past the valuation guard is refused before its lanes are
    built: 16 worlds and the two atoms of K would be 2^32 lanes, 512 MB a
    vector. valid_on_frame refuses it and first_invalid names it, in
    under 1 MB."""
    worlds = tuple(f"w{k}" for k in range(16))
    sets = {w: (frozenset(worlds),) for w in worlds}
    frame = FiniteNFrame(worlds, {1: sets, 2: sets})
    k1 = axiom_instance(AxiomScheme.K, 1)
    small = slot_masks(FiniteNFrame(("a",), {1: {"a": (frozenset("a"),)},
                                             2: {"a": (frozenset("a"),)}}))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="^32 valuation bits exceeds guard 16$"):
            valid_on_frame(frame, k1)
        assert first_invalid([small, small, slot_masks(frame)], k1) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def reference_com_sweep(seed, n_pairs=100):
    """(checked, counterexample) of the pair-major loop: draw a pair, build
    its product and check Com on it. Frames and product_n are looked up in
    sampling at call time, so a test that patches them there patches both
    sweeps."""
    rng = Random(seed)
    com = axiom_instance(AxiomScheme.COM)
    checked = 0
    for _ in range(n_pairs):
        frame1 = sampling.random_nframe(rng, max_worlds=3)
        frame2 = sampling.random_nframe(rng, max_worlds=2)
        checked += 1
        witness = valid_on_frame(sampling.product_n(frame1, frame2), com)
        if witness is not None:
            return checked, {"frame1": frame1.to_dict(), "frame2": frame2.to_dict(),
                             "counterexample": witness.to_dict()}
    return checked, None


COMBOS = list(itertools.product(LOGICS, LOGICS))


def reference_fusion_sweep(seed, n_pairs=100, max_worlds=3):
    """(checked, counterexample) of the pair-major loop over every fusion
    axiom of every pair, in order."""
    rng = Random(seed)
    checked = 0
    for n in range(n_pairs):
        logic1, logic2 = COMBOS[n % len(COMBOS)]
        frame1 = sampling.random_nframe_validating(rng, logic1, max_worlds)
        frame2 = sampling.random_nframe_validating(rng, logic2, max_worlds=2)
        product = sampling.product_n(frame1, frame2)
        for phi in fusion_axioms(logic1, logic2):
            checked += 1
            witness = valid_on_frame(product, phi)
            if witness is not None:
                return checked, {"logics": [logic1, logic2], "formula": unparse(phi),
                                 "frame1": frame1.to_dict(), "frame2": frame2.to_dict(),
                                 "counterexample": witness.to_dict()}
    return checked, None


def outcome(sweep, *args, **kwargs):
    """(checked, counterexample) of a sweep, or the BudgetExceeded it raises."""
    try:
        result = sweep(*args, **kwargs)
    except BudgetExceeded as error:
        return str(error)
    if isinstance(result, tuple):
        return result
    assert result.passed == (result.counterexample is None)
    return result.checked, result.counterexample


def assert_sweeps_match(seed, **kwargs):
    max_worlds = kwargs.pop("max_worlds", 3)
    com = outcome(finite_com_sweep, seed, **kwargs)
    assert com == outcome(reference_com_sweep, seed, **kwargs)
    fusion = outcome(fusion_soundness_sweep, seed, max_worlds=max_worlds, **kwargs)
    assert fusion == outcome(reference_fusion_sweep, seed, max_worlds=max_worlds,
                             **kwargs)
    return com, fusion


@pytest.mark.parametrize("seed", range(5))
def test_sweeps_match_pair_major_loops(seed):
    com, fusion = assert_sweeps_match(seed)
    assert com == (100, None) and fusion[1] is None


@pytest.mark.parametrize("n_pairs", [0, 1, 17])
def test_sweep_sizes_match_pair_major_loops(n_pairs):
    """The loops pass on no pairs having checked nothing; the sweeps refuse
    that size."""
    for seed in range(3):
        if n_pairs < 1:
            for sweep in (finite_com_sweep, fusion_soundness_sweep):
                with pytest.raises(ValueError, match="^n_pairs must be >= 1, got 0$"):
                    sweep(seed, n_pairs=n_pairs)
            continue
        com, _ = assert_sweeps_match(seed, n_pairs=n_pairs)
        assert com == (n_pairs, None)


@pytest.mark.parametrize("seed", range(20))
def test_sweep_factors_are_valid(seed):
    """The sweeps trust their draws and never validate a factor, so every
    factor _com_pairs and _fusion_pairs draw must pass validate_frame; the
    fusion pairs run through all sixteen logic pairs at both sizes."""
    for frame1, frame2 in sampling._com_pairs(seed, 100):
        assert nbhd.validate_frame(frame1).passed and nbhd.validate_frame(frame2).passed
    for max_worlds in (3, 5):
        logics = set()
        for logic1, logic2, frame1, frame2 in sampling._fusion_pairs(seed, 100, max_worlds):
            logics.add((logic1, logic2))
            for frame in (frame1, frame2):
                assert nbhd.validate_frame(frame).passed, (logic1, logic2, frame.to_dict())
        assert logics == set(COMBOS)


def _unimodal(*per_world):
    worlds = tuple(f"w{k}" for k in range(len(per_world)))
    return FiniteNFrame(worlds, {1: {w: tuple(frozenset(f"w{m}" for m in u) for u in sets)
                                     for w, sets in zip(worlds, per_world)}})


# an empty base set, a base set given twice, one world
HAND_BUILT = [
    _unimodal([(), (0, 1)], [(1,)], [(0, 2), (0,)]),
    _unimodal([(0, 1), (0, 1)], [(0, 1), (1,), (0, 1)]),
    _unimodal([(0,)]),
    _unimodal([()]),
]


def test_product_masks_are_those_of_product_n():
    """product_masks, which the sweeps decide on, against slot_masks of the
    named product_n, on the sweeps' draws and on hand-built factors."""
    pairs = [pair for seed in range(5) for pair in sampling._com_pairs(seed, 100)]
    pairs += [pair for seed in range(3) for pair in _fusion_draws(seed, 48, max_worlds=5)]
    pairs += itertools.product(HAND_BUILT, repeat=2)
    for frame1, frame2 in pairs:
        assert nbhd.product_masks(frame1, frame2) == \
            slot_masks(nbhd.product_n(frame1, frame2)), _key(frame1, frame2)


def _key(frame1, frame2):
    return json.dumps([frame1.to_dict(), frame2.to_dict()], sort_keys=True)


def _corrupt(product, fault, padding):
    """The product with `padding` more worlds, each its own only base set
    for both modalities (every axiom the sweeps check holds there), and
    then one fault at its first world w0, the first padding world being z0:
    T1 gives w0 the set {z0} at modality 1, D2 the empty set at modality 2,
    K1 the incomparable {z0} and {z1} at modality 1, and Com twists w0 and
    z0 so that [1][2] p -> [2][1] p fails at w0 for p = {w0}."""
    pads = [f"z{n}" for n in range(padding)]
    worlds = (*product.worlds, *pads)
    base = {i: {**per_world, **{z: (frozenset({z}),) for z in pads}}
            for i, per_world in product.base.items()}
    w0 = product.worlds[0]
    if fault == "T1":
        base[1][w0] = (frozenset(pads[:1]),)
    elif fault == "D2":
        base[2][w0] = (frozenset(),)
    elif fault == "K1":
        base[1][w0] = (frozenset(pads[:1]), frozenset(pads[1:2]))
    elif fault == "Com":
        base[1][w0] = (frozenset(pads[:1]),)
        base[2][w0] = base[2][pads[0]] = (frozenset({w0}),)
    return FiniteNFrame(worlds, base)


def patch_products(monkeypatch, pairs, faults, padding):
    """Patch sampling.product_masks, which makes every product the sweeps
    decide on: every product gets `padding` more worlds, which spread the
    products over more stacks, and the product of the pair at index n also
    gets faults[n]. sampling.product_n, which the pair-major loops and the
    sweeps' failure reports call, gives the same faulty product with world
    names. The fault follows the frames, not the call count, so a pair
    drawn again is built again the same way."""
    keys = [_key(*pair) for pair in pairs]
    faulty = {keys[n]: fault for n, fault in faults.items()}
    # frames drawn twice are faulty twice, so each fault goes to a first draw
    assert all(keys.index(keys[n]) == n for n in faults)
    real = sampling.product_n

    def product_n(frame1, frame2):
        return _corrupt(real(frame1, frame2), faulty.get(_key(frame1, frame2)), padding)

    monkeypatch.setattr(sampling, "product_masks",
                        lambda frame1, frame2: slot_masks(product_n(frame1, frame2)))
    monkeypatch.setattr(sampling, "product_n", product_n)


def lanes_before(products, n, atoms):
    return sum(1 << len(p.worlds) * atoms for p in products[:n])


@pytest.mark.parametrize("seed,faults", [
    (0, {30: "Com"}),
    (1, {24: "Com", 40: "Com"}),
    (3, {37: "Com", 5: "T1"}),
])
def test_com_sweep_failure_matches_pair_major_loop(seed, faults, monkeypatch):
    """Ten padding worlds put 2^11 to 2^16 lanes in each product, so the
    first failure lies past the first stack."""
    rng = Random(seed)
    pairs = [(sampling.random_nframe(rng, max_worlds=3),
              sampling.random_nframe(rng, max_worlds=2)) for _ in range(50)]
    patch_products(monkeypatch, pairs, faults, padding=10)
    (checked, counterexample), _ = assert_sweeps_match(seed, n_pairs=50)
    assert checked - 1 == min(faults) and counterexample is not None
    products = [sampling.product_n(*pair) for pair in pairs]
    assert lanes_before(products, checked - 1, 1) > 1 << nbhd.VALUATION_GUARD_BITS


def _fusion_draws(seed, n_pairs, max_worlds=3):
    rng = Random(seed)
    return [(sampling.random_nframe_validating(rng, COMBOS[n % 16][0], max_worlds),
             sampling.random_nframe_validating(rng, COMBOS[n % 16][1], max_worlds=2))
            for n in range(n_pairs)]


@pytest.mark.parametrize("seed,faults,first", [
    (0, {33: "K1"}, (33, 0)),
    (2, {33: "T1", 22: "K1", 40: "D2"}, (22, 0)),
    (4, {28: "D2", 29: "K1", 35: "T1"}, (28, 4)),
    (1, {22: "T1", 20: "D2", 23: "K1"}, (20, 3)),
])
def test_fusion_sweep_failure_matches_pair_major_loop(seed, faults, first, monkeypatch):
    """Two padding worlds give the two-atom K axioms 2^6 to 2^16 lanes per
    product, so their stacks hold one to a few dozen products; the faults
    fail T, D or K at pairs past the first K stack, and the least failing
    (pair, axiom position) is reported whatever group it lies in."""
    pairs = _fusion_draws(seed, 45)
    patch_products(monkeypatch, pairs, faults, padding=2)
    _, (checked, counterexample) = assert_sweeps_match(seed, n_pairs=45)
    n, j = first
    before = sum(len(fusion_axioms(*COMBOS[m % 16])) for m in range(n))
    assert checked == before + j + 1 and counterexample is not None
    products = [sampling.product_n(*pair) for pair in pairs]
    assert lanes_before(products, n, 2) > 1 << nbhd.VALUATION_GUARD_BITS


@pytest.mark.parametrize("faults", [{}, {2: "D2"}])
def test_fusion_sweep_budget_matches_pair_major_loop(faults, monkeypatch):
    """At max_worlds 5, pair 4 of seed 1 has 10 worlds: its K axioms have 20
    valuation bits. Both sweeps refuse there, or report a failure before."""
    patch_products(monkeypatch, _fusion_draws(1, 17, max_worlds=5), faults, padding=0)
    _, fusion = assert_sweeps_match(1, n_pairs=17, max_worlds=5)
    if faults:
        assert fusion[1] is not None
    else:
        assert fusion == "20 valuation bits exceeds guard 16"


def test_finite_sweeps_peak_memory():
    """A stack holds at most 2^16 lanes and the Com products are read once:
    under 2 MB traced for fusion-axioms and 1 MB for finite-com at their
    command-line defaults."""
    for sweep, bound in ((fusion_soundness_sweep, 2_000_000), (finite_com_sweep, 1_000_000)):
        sweep(0, n_pairs=2)
        tracemalloc.start()
        try:
            sweep(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (sweep.__name__, peak)
