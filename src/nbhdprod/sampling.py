"""Seeded random generators and the randomized agreement sweeps.

Frames come out of a caller-supplied Random instance, so every sweep is
reproducible from its seed; the CLI records the seed in the report it prints.
Neighborhood frames are sampled as inclusion chains of base sets, which
satisfy the filter-base property by construction while still reaching every
filter on a finite carrier (filters there are principal).
"""

from __future__ import annotations

import functools
import itertools
from random import Random
from typing import Iterable, Iterator, Sequence

from .formula import (AxiomScheme, Formula, LOGICS, Node, axiom_instance,
                      compile_formulas, fusion_axioms, generate_formulas,
                      unparse)
from .kripke import FiniteKripkeFrame
from .kripke import node_values as kripke_values
from .nbhd import (FiniteNFrame, FiniteNModel, first_invalid, node_values, nof,
                   product_masks, product_n, valid_on_frame)
from .report import VerificationReport


def random_kripke_frame(rng: Random, max_worlds: int = 4,
                        modalities: Sequence[int] = (1, 2)) -> FiniteKripkeFrame:
    n = rng.randint(1, max_worlds)
    worlds = tuple(f"w{i}" for i in range(n))
    rel = {i: frozenset((a, b) for a in worlds for b in worlds
                        if rng.random() < 0.4)
           for i in modalities}
    return FiniteKripkeFrame(worlds, rel)


def random_valuation(rng: Random, worlds: Sequence[str],
                     names: Iterable[str]) -> dict[str, frozenset[str]]:
    return {name: frozenset(w for w in worlds if rng.random() < 0.5)
            for name in names}


def random_nframe(rng: Random, max_worlds: int = 3,
                  max_base: int = 3) -> FiniteNFrame:
    """Unimodal frame with 1..max_base chain base sets per point. Chains keep
    the filter-base property; empty sets are reachable and welcome (they are
    the improper filters that falsify D). Draws follow world declaration
    order, never set iteration order, so the frame depends on rng alone."""
    n = rng.randint(1, max_worlds)
    worlds = tuple(f"w{i}" for i in range(n))
    per_world: dict[str, tuple[frozenset[str], ...]] = {}
    for w in worlds:
        count = rng.randint(1, max_base)
        current = frozenset(x for x in worlds if rng.random() < 0.7)
        sets = [current]
        for _ in range(count - 1):
            current = frozenset(x for x in worlds
                                if x in current and rng.random() < 0.7)
            sets.append(current)
        rng.shuffle(sets)
        per_world[w] = tuple(sets)
    return FiniteNFrame(worlds, {1: per_world})


def random_nframe_validating(rng: Random, logic: str,
                             max_worlds: int = 3) -> FiniteNFrame:
    """A unimodal frame validating the logic's defining axioms, built by
    closing a random relation under the condition each asks for (T:
    reflexive, D: serial, 4: transitive) and taking its neighborhood frame."""
    if logic not in LOGICS:
        raise ValueError(f"unknown logic {logic!r}")
    schemes = LOGICS[logic]
    n = rng.randint(1, max_worlds)
    worlds = tuple(f"w{i}" for i in range(n))
    pairs = {(a, b) for a in worlds for b in worlds if rng.random() < 0.4}
    if AxiomScheme.T in schemes:
        pairs |= {(w, w) for w in worlds}
    if AxiomScheme.D in schemes:
        for w in worlds:
            if not any(a == w for a, _ in pairs):
                pairs.add((w, rng.choice(worlds)))
    if AxiomScheme.FOUR in schemes:  # Warshall: m links its in-edges to its out-edges
        for m in worlds:
            pairs.update(itertools.product([a for a, b in pairs if b == m],
                                           [b for a, b in pairs if a == m]))
    return nof(FiniteKripkeFrame(worlds, {1: frozenset(pairs)}))


def doubled_quotient(rng: Random, max_worlds: int = 3,
                     modalities: Sequence[int] = (1,)) -> tuple[dict[str, str],
                                                                FiniteNFrame,
                                                                FiniteNFrame]:
    """A two-copy unfolding collapsing back onto a random frame: the copy
    projection is a relational p-morphism, so its neighborhood image is a
    bounded morphism."""
    target_k = random_kripke_frame(rng, max_worlds, modalities)
    worlds = tuple(f"{w}.{c}" for w in target_k.worlds for c in (0, 1))
    rel = {}
    for i in target_k.modalities:
        rel[i] = frozenset((f"{a}.{ca}", f"{b}.{cb}")
                           for a, b in target_k.rel[i]
                           for ca in (0, 1) for cb in (0, 1))
    source_k = FiniteKripkeFrame(worlds, rel)
    f = {f"{w}.{c}": w for w in target_k.worlds for c in (0, 1)}
    return f, nof(source_k), nof(target_k)


# --- randomized agreement sweeps ----------------------------------------------

@functools.lru_cache(maxsize=4)
def _compiled_family(depth: int, atom_names: tuple[str, ...]
                     ) -> tuple[tuple[Node, ...], tuple[int, ...]]:
    """The generated family, compiled once per process: repeated sweeps at
    one depth and atom list share its nodes instead of rebuilding a few
    thousand formula objects each time."""
    nodes, roots = compile_formulas(generate_formulas(depth, atom_names))
    return tuple(nodes), tuple(roots)


def nf_agreement_sweep(seed: int, n_frames: int = 100, max_worlds: int = 4,
                       depth: int = 2,
                       atom_names: Sequence[str] = ("p",)) -> VerificationReport:
    """Relational truth equals neighborhood truth over the successor-set
    frame, pointwise, for every generated formula.

    The family is compiled once and each semantics evaluates it once over
    the stack of all frames, frame f in lane f; a formula is then one XOR
    of the two values in the relational layout. Checks count frame by
    frame and formula by formula, so the first counterexample is the first
    failing formula of the lowest failing frame.
    """
    if n_frames < 1:  # a sweep of nothing would pass having checked nothing
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    with VerificationReport(
            lemma="nf-agreement",
            params={"seed": seed, "frames": n_frames, "max_worlds": max_worlds,
                    "depth": depth, "atoms": list(atom_names)}) as report:
        rng = Random(seed)
        nodes, roots = _compiled_family(depth, tuple(atom_names))
        frames, valuations = [], []
        for _ in range(n_frames):
            frame = random_kripke_frame(rng, max_worlds)
            frames.append(frame)
            valuations.append(random_valuation(rng, frame.worlds, atom_names))
        relational = kripke_values(frames, valuations, nodes)
        neighborhood = node_values((FiniteNModel(nof(frame), val)
                                    for frame, val in zip(frames, valuations)), nodes)
        # in kripke's layout, slot k of frame f at bit k * n_frames + f: the
        # slots frames have, and each distinct neighborhood value packed
        # once, by identity (node_values shares equal ones)
        present = sum(1 << k * n_frames + f for f, frame in enumerate(frames)
                      for k in range(len(frame.worlds)))
        packed: dict[int, int] = {}
        lane_bits = (1 << n_frames) - 1
        first: tuple[int, int] | None = None  # (lane, formula)
        for n, r in enumerate(roots):
            vectors = neighborhood[r]
            key = id(vectors)
            if key not in packed:
                packed[key] = sum(vector << k * n_frames
                                  for k, vector in enumerate(vectors))
            failing = (relational[r] ^ packed[key]) & present
            if failing:
                lanes = 0
                while failing:  # fold the slots onto the lanes
                    lanes |= failing & lane_bits
                    failing >>= n_frames
                lane = (lanes & -lanes).bit_length() - 1
                if first is None or lane < first[0]:
                    first = (lane, n)
        if first is None:
            report.checked = n_frames * len(roots)
        else:
            lane, n = first
            report.checked = lane * len(roots) + n + 1
            phi = next(itertools.islice(generate_formulas(depth, atom_names), n, None))
            return report.fail({"frame": frames[lane].to_dict(),
                                "valuation": {a: sorted(ws)
                                              for a, ws in valuations[lane].items()},
                                "formula": unparse(phi)})
    return report


def _first_failure(pairs: Sequence[tuple[FiniteNFrame, FiniteNFrame]],
                   owed: Sequence[Sequence[Formula]]
                   ) -> tuple[int, tuple[int, int] | None]:
    """The obligations are (n, j), formula owed[n][j] on the product of
    pairs[n]. Each product is built once, as slot masks (product_masks: the
    factors are valid by construction, so none is validated again), and
    each distinct formula is decided once, by first_invalid over the
    products that owe it. Returns the count a loop over the obligations in
    order checks, and the least one that fails or that valid_on_frame
    refuses (None if none does)."""
    products = [product_masks(frame1, frame2) for frame1, frame2 in pairs]
    by_formula: dict[Formula, list[tuple[int, int]]] = {}
    for n, formulas in enumerate(owed):
        for j, phi in enumerate(formulas):
            by_formula.setdefault(phi, []).append((n, j))
    answers = ((obligations, first_invalid((products[n] for n, _ in obligations), phi))
               for phi, obligations in by_formula.items())
    first = min((obligations[k] for obligations, k in answers if k is not None), default=None)
    if first is None:
        return sum(map(len, owed)), None
    return sum(map(len, owed[:first[0]])) + first[1] + 1, first


def _fusion_pairs(seed: int, n_pairs: int, max_worlds: int
                  ) -> Iterator[tuple[str, str, FiniteNFrame, FiniteNFrame]]:
    """The fusion sweep's draws: the logic pair cycles through all sixteen
    combinations, and each factor validates its logic."""
    rng = Random(seed)
    combos = list(itertools.product(LOGICS, LOGICS))
    for n in range(n_pairs):
        logic1, logic2 = combos[n % len(combos)]
        yield (logic1, logic2, random_nframe_validating(rng, logic1, max_worlds),
               random_nframe_validating(rng, logic2, max_worlds=2))


def fusion_soundness_sweep(seed: int, n_pairs: int = 100,
                           max_worlds: int = 3) -> VerificationReport:
    """Products of frames validating two of D, T, D4, S4 validate every
    fusion axiom; the logic pair cycles through all sixteen combinations.
    _first_failure decides the (pair, axiom position) obligations; product_n
    names a failing pair's product, and valid_on_frame on it gives the
    counterexample or raises the refusal."""
    if n_pairs < 1:  # a sweep of nothing would pass having checked nothing
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    with VerificationReport(
            lemma="fusion-axioms",
            params={"seed": seed, "pairs": n_pairs,
                    "max_worlds": max_worlds}) as report:
        pairs = list(_fusion_pairs(seed, n_pairs, max_worlds))
        owed = [fusion_axioms(logic1, logic2) for logic1, logic2, _, _ in pairs]
        report.checked, first = _first_failure([pair[2:] for pair in pairs], owed)
        if first is not None:
            n, j = first
            logic1, logic2, frame1, frame2 = pairs[n]
            return report.fail({"logics": [logic1, logic2],
                                "formula": unparse(owed[n][j]),
                                "frame1": frame1.to_dict(),
                                "frame2": frame2.to_dict(),
                                "counterexample": valid_on_frame(
                                    product_n(frame1, frame2), owed[n][j]).to_dict()})
    return report


def _com_pairs(seed: int, n_pairs: int) -> Iterator[tuple[FiniteNFrame, FiniteNFrame]]:
    rng = Random(seed)
    for _ in range(n_pairs):
        yield random_nframe(rng, max_worlds=3), random_nframe(rng, max_worlds=2)


def finite_com_sweep(seed: int, n_pairs: int = 100) -> VerificationReport:
    """The commutation scheme holds on every product of finite frames (the
    filters are principal); its failure needs the infinite construction.
    _first_failure decides Com on every pair's product."""
    if n_pairs < 1:  # a sweep of nothing would pass having checked nothing
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    with VerificationReport(
            lemma="finite-com",
            params={"seed": seed, "pairs": n_pairs}) as report:
        com = axiom_instance(AxiomScheme.COM)
        pairs = list(_com_pairs(seed, n_pairs))
        report.checked, first = _first_failure(pairs, [(com,)] * n_pairs)
        if first is not None:
            frame1, frame2 = pairs[first[0]]
            return report.fail({"frame1": frame1.to_dict(),
                                "frame2": frame2.to_dict(),
                                "counterexample": valid_on_frame(
                                    product_n(frame1, frame2), com).to_dict()})
    return report
