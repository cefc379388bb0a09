"""Seeded random generators and the randomized agreement sweeps.

Frames come out of a caller-supplied Random instance, so every sweep is
reproducible from its seed; the CLI records the seed in the report it prints.
Neighborhood frames are sampled as inclusion chains of base sets, which
satisfy the filter-base property by construction while still reaching every
filter on a finite carrier (filters there are principal).
"""

from __future__ import annotations

import itertools
from random import Random
from typing import Iterable, Sequence

from .formula import (AxiomScheme, LOGICS, axiom_instance, fusion_axioms,
                      generate_formulas, unparse)
from .kripke import FiniteKripkeFrame
from .kripke import denotation as kripke_denotation
from .nbhd import (FiniteNFrame, FiniteNModel, denotation, nof, product_n,
                   valid_on_frame)
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


_CLOSE_FOR = {
    "D": ("serial",),
    "T": ("reflexive",),
    "D4": ("serial", "transitive"),
    "S4": ("reflexive", "transitive"),
}


def random_nframe_validating(rng: Random, logic: str,
                             max_worlds: int = 3) -> FiniteNFrame:
    """A unimodal frame validating the logic's defining axioms, built by
    closing a random relation and taking its neighborhood frame."""
    if logic not in _CLOSE_FOR:
        raise ValueError(f"unknown logic {logic!r}")
    n = rng.randint(1, max_worlds)
    worlds = tuple(f"w{i}" for i in range(n))
    pairs = {(a, b) for a in worlds for b in worlds if rng.random() < 0.4}
    if "reflexive" in _CLOSE_FOR[logic]:
        pairs |= {(w, w) for w in worlds}
    if "serial" in _CLOSE_FOR[logic]:
        for w in worlds:
            if not any(a == w for a, _ in pairs):
                pairs.add((w, rng.choice(worlds)))
    if "transitive" in _CLOSE_FOR[logic]:
        changed = True
        while changed:
            changed = False
            for (a, b), (c, d) in itertools.product(tuple(pairs), repeat=2):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
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

def nf_agreement_sweep(seed: int, n_frames: int = 100, max_worlds: int = 4,
                       depth: int = 2,
                       atom_names: Sequence[str] = ("p",)) -> VerificationReport:
    """Relational truth equals neighborhood truth over the successor-set
    frame, pointwise, for every generated formula."""
    with VerificationReport(
            lemma="nf-agreement",
            params={"seed": seed, "frames": n_frames, "max_worlds": max_worlds,
                    "depth": depth, "atoms": list(atom_names)}) as report:
        rng = Random(seed)
        formulas = list(generate_formulas(depth, atom_names))
        for _ in range(n_frames):
            frame = random_kripke_frame(rng, max_worlds)
            val = random_valuation(rng, frame.worlds, atom_names)
            model = FiniteNModel(nof(frame), val)
            for phi in formulas:
                report.checked += 1
                if kripke_denotation(frame, val, phi) != denotation(model, phi):
                    return report.fail({"frame": frame.to_dict(),
                                        "valuation": {a: sorted(ws)
                                                      for a, ws in val.items()},
                                        "formula": unparse(phi)})
    return report


def fusion_soundness_sweep(seed: int, n_pairs: int = 100,
                           max_worlds: int = 3) -> VerificationReport:
    """Products of frames validating two of D, T, D4, S4 validate every
    fusion axiom; the logic pair cycles through all sixteen combinations."""
    with VerificationReport(
            lemma="fusion-axioms",
            params={"seed": seed, "pairs": n_pairs,
                    "max_worlds": max_worlds}) as report:
        rng = Random(seed)
        combos = list(itertools.product(LOGICS, LOGICS))
        for n in range(n_pairs):
            logic1, logic2 = combos[n % len(combos)]
            frame1 = random_nframe_validating(rng, logic1, max_worlds)
            frame2 = random_nframe_validating(rng, logic2, max_worlds=2)
            product = product_n(frame1, frame2)
            for phi in fusion_axioms(logic1, logic2):
                report.checked += 1
                witness = valid_on_frame(product, phi)
                if witness is not None:
                    return report.fail({"logics": [logic1, logic2],
                                        "formula": unparse(phi),
                                        "frame1": frame1.to_dict(),
                                        "frame2": frame2.to_dict(),
                                        "counterexample": witness.to_dict()})
    return report


def finite_com_sweep(seed: int, n_pairs: int = 100) -> VerificationReport:
    """The commutation scheme holds on every product of finite frames (the
    filters are principal); its failure needs the infinite construction."""
    with VerificationReport(
            lemma="finite-com",
            params={"seed": seed, "pairs": n_pairs}) as report:
        rng = Random(seed)
        com = axiom_instance(AxiomScheme.COM)
        for _ in range(n_pairs):
            frame1 = random_nframe(rng, max_worlds=3)
            frame2 = random_nframe(rng, max_worlds=2)
            product = product_n(frame1, frame2)
            report.checked += 1
            witness = valid_on_frame(product, com)
            if witness is not None:
                return report.fail({"frame1": frame1.to_dict(),
                                    "frame2": frame2.to_dict(),
                                    "counterexample": witness.to_dict()})
    return report
