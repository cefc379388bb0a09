"""Acceptance suite: the eleven gate criteria, one per test, each printing a
single PASS/FAIL line (visible with pytest -s) before asserting. Beside
criterion 2 runs the same agreement sweep one step larger.

Every criterion re-derives its claim from scratch at the stated scale; the
per-module suites pin the small examples, this file pins the budgets.
"""

import functools
import itertools
import time
from random import Random

from nbhdprod.cli import main
from nbhdprod.countermodel import (Bounds, check_chr_certificate,
                                   check_com_certificate, const_true_valuation,
                                   st_com_valuation)
from nbhdprod.formula import (AxiomScheme, axiom_instance, generate_formulas,
                              parse, unparse)
from nbhdprod.kripke import FrameKind, SymbolicTreeFrame
from nbhdprod.nbhd import (FiniteNFrame, FiniteNModel, check_bounded_morphism,
                           check_truth_preservation, nof,
                           structural_characteristics, valid_on_frame)
from nbhdprod.omega import (ProductPoint, check_chain, enumerate_pseudo,
                            lex_between, lex_compare, lex_window_compare,
                            pseudo, strict_bounds_witnesses,
                            verify_ff_morphism, verify_g_morphism, zero_seq)
from nbhdprod.sampling import (doubled_quotient, finite_com_sweep,
                               fusion_soundness_sweep, nf_agreement_sweep,
                               random_nframe, random_valuation)

ALL_KINDS = tuple(FrameKind)


def emit(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} ({detail})")


def test_acceptance_1_characterization_equivalence():
    t0 = time.perf_counter()
    rng = Random(101)
    schemes = ((AxiomScheme.D, "d_ok"), (AxiomScheme.T, "t_ok"),
               (AxiomScheme.FOUR, "four_ok"))
    mismatches = 0
    frames = 500
    for _ in range(frames):
        frame = random_nframe(rng, max_worlds=3, max_base=3)
        chars = structural_characteristics(frame, 1)
        for scheme, flag in schemes:
            valid = valid_on_frame(frame, axiom_instance(scheme, 1)) is None
            if valid != getattr(chars, flag):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60
    emit(1, "characterization equivalence", ok,
         f"{frames} frames, {frames * 3} comparisons, "
         f"{mismatches} mismatches, {elapsed:.1f}s < 60s")
    assert ok


def test_acceptance_2_kripke_agreement():
    t0 = time.perf_counter()
    report = nf_agreement_sweep(seed=202, n_frames=100, max_worlds=4, depth=2,
                                atom_names=("p",))
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 60
    emit(2, "relational agreement after nof", ok,
         f"100 frames, {report.checked} formula checks, {elapsed:.1f}s < 60s")
    assert ok, report.counterexample


def test_acceptance_2_one_depth_deeper():
    """Criterion 2 stays at depth 2; the same sweep at depth 3 (8058
    formulas) and at depth 2 over two atoms (4899) stays far inside its
    bound."""
    for depth, names, formulas in ((3, ("p",), 8058), (2, ("p", "q"), 4899)):
        t0 = time.perf_counter()
        report = nf_agreement_sweep(seed=202, n_frames=100, max_worlds=4,
                                    depth=depth, atom_names=names)
        elapsed = time.perf_counter() - t0
        assert report.passed, report.counterexample
        assert report.checked == 100 * formulas
        assert elapsed < 60


def test_acceptance_3_truth_preservation():
    rng = Random(303)
    instances = []
    for _ in range(10):
        instances.append(doubled_quotient(rng, max_worlds=3))
    for _ in range(8):
        frame = random_nframe(rng, max_worlds=3)
        instances.append(({w: w for w in frame.worlds}, frame, frame))
    shifted = FiniteNFrame(("x", "y"), {1: {"x": (frozenset({"y"}),),
                                            "y": (frozenset({"y"}),)}})
    point = FiniteNFrame(("z",), {1: {"z": (frozenset({"z"}),)}})
    instances.append(({"x": "z", "y": "z"}, shifted, point))
    instances.append(({"x": "z", "y": "z"}, shifted, point))
    instances.append(({"z": "z"}, point, point))
    failures = 0
    for n, (f, source, target) in enumerate(instances):
        assert check_bounded_morphism(f, source, target).passed
        if n == len(instances) - 2:
            val = {"p": frozenset()}
        else:
            val = {a: frozenset(ws) for a, ws in
                   random_valuation(rng, target.worlds, ("p",)).items()}
        report = check_truth_preservation(f, source, FiniteNModel(target, val), 2)
        if not report.passed:
            failures += 1
    ok = failures == 0 and len(instances) >= 20
    emit(3, "truth preservation across morphisms", ok,
         f"{len(instances)} instances, depth 2, {failures} failures")
    assert ok


def test_acceptance_4_chain_lemma():
    t0 = time.perf_counter()
    violations = 0
    runs = 0
    for kind in ALL_KINDS:
        for b in (1, 2, 3):
            report = check_chain(SymbolicTreeFrame(kind, b), 4, 5)
            runs += 1
            if not report.passed:
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 120
    emit(4, "neighborhood chain lemma", ok,
         f"{runs} kind/branching runs at d=4 k_max=5, "
         f"{violations} violations, {elapsed:.1f}s < 120s")
    assert ok


def test_acceptance_5_ff_morphism():
    t0 = time.perf_counter()
    violations = 0
    for kind in ALL_KINDS:
        report = verify_ff_morphism(SymbolicTreeFrame(kind, 2), 5)
        if not report.passed:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 120
    emit(5, "zero-forgetting bounded morphism", ok,
         f"4 kinds at b=2 d=5, {violations} violations, {elapsed:.1f}s < 120s")
    assert ok


def test_acceptance_6_g_morphism():
    t0 = time.perf_counter()
    violations = 0
    total = 0
    for k1, k2 in itertools.product(ALL_KINDS, ALL_KINDS):
        report = verify_g_morphism(SymbolicTreeFrame(k1, 2),
                                   SymbolicTreeFrame(k2, 2), 4)
        total += report.checked
        if not report.passed:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 600
    emit(6, "interleaving bounded morphism", ok,
         f"16 kind pairs at b=2 d=4, {total} obligations, "
         f"{violations} violations, {elapsed:.1f}s < 600s")
    assert ok


def test_acceptance_7_fusion_soundness():
    report = fusion_soundness_sweep(seed=707, n_pairs=100)
    ok = report.passed
    emit(7, "fusion axioms on products", ok,
         f"100 frame pairs over 16 logic combinations, "
         f"{report.checked} axiom sweeps")
    assert ok, report.counterexample


def test_acceptance_8_countermodel_certificates():
    t0 = time.perf_counter()
    frames = {kind: SymbolicTreeFrame(kind, 1) for kind in ALL_KINDS}
    wide = Bounds(10, 10, 5)
    rejected = 0
    for k1, k2 in itertools.product(ALL_KINDS, ALL_KINDS):
        f1, f2 = frames[k1], frames[k2]
        for check in (check_com_certificate, check_chr_certificate):
            if not check(f1, f2).accepted:
                rejected += 1
            if not check(f1, f2, wide).accepted:
                rejected += 1
    anchor = ProductPoint(zero_seq(1), zero_seq(1))
    controls_ok = True
    for k1, k2 in itertools.product(ALL_KINDS, ALL_KINDS):
        cert = check_com_certificate(frames[k1], frames[k2],
                                     valuation=const_true_valuation(anchor))
        if cert.accepted or cert.failure["layer"] != "consequent":
            controls_ok = False
    rt = frames[FrameKind.RT]
    chr_control = check_chr_certificate(rt, rt,
                                        valuation=st_com_valuation(anchor))
    if chr_control.accepted or chr_control.failure["layer"] != "consequent":
        controls_ok = False
    elapsed = time.perf_counter() - t0
    ok = rejected == 0 and controls_ok and elapsed < 300
    emit(8, "countermodel certificates", ok,
         f"16 pairs x 2 axioms at (8,8,4) and (10,10,5), "
         f"{rejected} rejections, controls rejected correctly: "
         f"{controls_ok}, {elapsed:.1f}s < 300s")
    assert ok


def test_acceptance_9_finite_product_contrast():
    report = finite_com_sweep(seed=909, n_pairs=100)
    ok = report.passed
    emit(9, "commutation on finite products", ok,
         f"{report.checked} product frames, all validate the axiom")
    assert ok, report.counterexample


def test_acceptance_10_lexicographic_evidence():
    t0 = time.perf_counter()
    window = enumerate_pseudo(2, 4, signed=True)
    order_ok = True
    ranked = sorted(window, key=functools.cmp_to_key(lex_compare))
    for i, a in enumerate(ranked):
        for b in ranked[i + 1:]:
            if lex_compare(a, b) != -1 or lex_compare(b, a) != 1:
                order_ok = False
                break
        if not order_ok:
            break
    density_ok = True
    for i, a in enumerate(ranked):
        for b in ranked[i + 1:]:
            gamma = lex_between(a, b)
            if not (lex_compare(a, gamma) == -1 and lex_compare(gamma, b) == -1):
                density_ok = False
                break
        if not density_ok:
            break
    endpoint_ok = True
    for alpha in window:
        below, above = strict_bounds_witnesses(alpha)
        if not (lex_compare(below, alpha) == -1 and
                lex_compare(alpha, above) == -1):
            endpoint_ok = False
            break
    windows_ok = True
    centers = (zero_seq(2, signed=True), pseudo((1,), 2, signed=True),
               pseudo((-1,), 2, signed=True))
    for kind in (FrameKind.RT, FrameKind.IT):
        frame = SymbolicTreeFrame(kind, 2)
        for alpha in centers:
            for k in range(4):
                if not lex_window_compare(frame, alpha, k, 4).passed:
                    windows_ok = False
    elapsed = time.perf_counter() - t0
    ok = order_ok and density_ok and endpoint_ok and windows_ok
    emit(10, "lexicographic order evidence", ok,
         f"window {len(window)} points at b=2 d=4: total order {order_ok}, "
         f"density {density_ok}, no endpoints {endpoint_ok}, "
         f"order-topology windows k<=3 {windows_ok}, {elapsed:.1f}s")
    assert ok


def test_acceptance_11_round_trip_and_determinism(capsys):
    round_trip_failures = 0
    count = 0
    for phi in generate_formulas(2, ("p", "q")):
        count += 1
        if parse(unparse(phi)) != phi:
            round_trip_failures += 1
    argv = ["verify", "--lemma", "finite-com", "--seed", "11"]
    code1 = main(argv)
    first = capsys.readouterr().out
    code2 = main(argv)
    second = capsys.readouterr().out
    deterministic = first == second and code1 == code2 == 0
    ok = round_trip_failures == 0 and deterministic
    with capsys.disabled():
        emit(11, "round trip and determinism", ok,
             f"{count} formulas re-parse identically: "
             f"{round_trip_failures == 0}, repeated CLI runs byte-identical: "
             f"{deterministic}")
    assert ok
