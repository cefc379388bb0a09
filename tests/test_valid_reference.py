"""valid_on_frame against a reference sweep, and sampling that does not
depend on string hashing.

The reference is the plain per-valuation sweep: valuations in binary-counter
order over (world, atom) pairs, worlds in declaration order and atoms
sorted, each valuation evaluated by set recursion, worlds scanned in
declaration order. The production checker must give the same verdict and
the same first counterexample on every frame and formula drawn here.
"""

import itertools
import json
import os
import pathlib
import subprocess
import sys
from random import Random

import nbhdprod
from nbhdprod.formula import (AxiomScheme, Atom, Bottom, Implies, LOGICS,
                              atoms, axiom_instance, unparse)
from nbhdprod import nbhd
from nbhdprod.nbhd import (FiniteNFrame, first_invalid, product_n, slot_masks,
                           valid_on_frame)
from nbhdprod.sampling import random_nframe, random_nframe_validating

MODAL_SCHEMES = (AxiomScheme.K, AxiomScheme.D, AxiomScheme.T, AxiomScheme.FOUR)


def reference_truth(frame: FiniteNFrame, phi, val: dict[str, set[str]]) -> set[str]:
    if isinstance(phi, Bottom):
        return set()
    if isinstance(phi, Atom):
        return val[phi.name]
    if isinstance(phi, Implies):
        left = reference_truth(frame, phi.left, val)
        right = reference_truth(frame, phi.right, val)
        return {w for w in frame.worlds if w not in left or w in right}
    body = reference_truth(frame, phi.body, val)
    return {w for w in frame.worlds
            if any(u <= body for u in frame.base[phi.index][w])}


def reference_valid(frame: FiniteNFrame, phi):
    """(valuation, world) of the first counterexample, or None."""
    names = sorted(atoms(phi))
    pairs = [(w, a) for w in frame.worlds for a in names]
    for v in range(1 << len(pairs)):
        val = {a: set() for a in names}
        for j, (w, a) in enumerate(pairs):
            if v >> j & 1:
                val[a].add(w)
        truth = reference_truth(frame, phi, val)
        for w in frame.worlds:
            if w not in truth:
                return ({a: tuple(x for x in frame.worlds if x in val[a])
                         for a in names}, w)
    return None


def _checks():
    """(frame, formula) pairs on fixed seeds: every modal scheme at both
    modalities plus Com and Chr on products of frames validating the fusion
    logics; Com and Chr on products of random frames; K, D, T and Four on
    random unimodal frames."""
    rng = Random(20)
    combos = list(itertools.product(LOGICS, LOGICS))
    bimodal = [axiom_instance(s, i) for s in MODAL_SCHEMES for i in (1, 2)]
    bimodal += [axiom_instance(AxiomScheme.COM), axiom_instance(AxiomScheme.CHR)]
    for n in range(32):
        logic1, logic2 = combos[n % len(combos)]
        product = product_n(random_nframe_validating(rng, logic1, 3),
                            random_nframe_validating(rng, logic2, max_worlds=2))
        for phi in bimodal:
            yield product, phi
    rng = Random(21)
    for _ in range(150):
        product = product_n(random_nframe(rng, max_worlds=3),
                            random_nframe(rng, max_worlds=2))
        yield product, axiom_instance(AxiomScheme.COM)
        yield product, axiom_instance(AxiomScheme.CHR)
    rng = Random(22)
    unimodal = [axiom_instance(s, 1) for s in MODAL_SCHEMES]
    for _ in range(200):
        frame = random_nframe(rng, max_worlds=4)
        for phi in unimodal:
            yield frame, phi


def test_valid_on_frame_matches_reference_sweep():
    checked = failing = 0
    for frame, phi in _checks():
        expected = reference_valid(frame, phi)
        got = valid_on_frame(frame, phi)
        checked += 1
        if expected is None:
            assert got is None, (frame.to_dict(), unparse(phi))
        else:
            failing += 1
            assert got is not None, (frame.to_dict(), unparse(phi))
            assert (got.valuation, got.world) == expected, (frame.to_dict(), unparse(phi))
    assert checked >= 1000 and failing >= 300, (checked, failing)


def test_stacking_leaves_the_cached_valuation_vectors_alone():
    """first_invalid shifts the second of two 3-world frames' atom vectors
    past the first's lanes; valid_on_frame reads the same cached vectors at
    lane 0, so they must stay as built and its answers those of the
    reference."""
    rng = Random(23)
    frames = [frame for frame in (random_nframe(rng, max_worlds=3) for _ in range(40))
              if len(frame.worlds) == 3]
    for scheme in (AxiomScheme.T, AxiomScheme.K):
        phi = axiom_instance(scheme, 1)
        names = tuple(sorted(atoms(phi)))
        first_invalid([slot_masks(frame) for frame in frames[:2]], phi)
        assert nbhd._valuation_vectors(3, names) == \
            nbhd._valuation_vectors.__wrapped__(3, names), unparse(phi)
        for frame in frames:
            got = valid_on_frame(frame, phi)
            expected = reference_valid(frame, phi)
            assert (None if got is None else (got.valuation, got.world)) == expected, \
                (frame.to_dict(), unparse(phi))


_DRAW_FRAMES = ("import json, random\n"
                "from nbhdprod.sampling import random_nframe\n"
                "print(json.dumps([random_nframe(random.Random(s)).to_dict()"
                " for s in range(40)]))\n")


def test_random_nframe_ignores_the_hash_seed():
    """Sweeps replay from their seed alone: frames drawn under different
    string-hash seeds are identical."""
    outputs = []
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(pathlib.Path(nbhdprod.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", _DRAW_FRAMES], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        outputs.append(json.loads(done.stdout))
    assert outputs[0] == outputs[1] == outputs[2]
