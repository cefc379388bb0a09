"""Stacked evaluation against the per-frame code it replaces.

kripke.node_values and nbhd.node_values evaluate a compiled family on a
stack of frames, one bit lane per frame: kripke packs slot k of frame f at
bit k * len(frames) + f of one int, nbhd keeps one vector per slot with
frame f at bit f. Their values must match the per-frame
denotation of every formula. nf_agreement_sweep runs each of them once over
all its frames; it must report the same check count and the same first
counterexample as the frame-major loop kept here as the reference.
"""

import tracemalloc
from random import Random

import pytest

from nbhdprod import sampling
from nbhdprod.formula import compile_formulas, generate_formulas, parse, unparse
from nbhdprod.kripke import FiniteKripkeFrame
from nbhdprod.kripke import denotation as kripke_denotation
from nbhdprod.kripke import node_values as kripke_values
from nbhdprod.nbhd import FiniteNFrame, FiniteNModel, denotation, node_values, nof
from nbhdprod.sampling import nf_agreement_sweep


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
    assert_matches_reference(seed=3, **kwargs)


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
