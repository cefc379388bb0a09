"""Finite neighborhood frames: validation, box semantics over filter bases,
frame-level axiom characteristics, products, and bounded morphisms.

The bitmask evaluator is checked against a naive set-recursion oracle before
any derived truth value is pinned.
"""

from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nbhdprod import nbhd
from nbhdprod.formula import (Atom, AxiomScheme, Bottom, Box, Implies,
                              axiom_instance, compile_formulas, generate_formulas,
                              modalities_of, parse, unparse)
from nbhdprod.kripke import FiniteKripkeFrame
from nbhdprod.kripke import satisfies as kripke_satisfies
from nbhdprod.nbhd import (FiniteNFrame, FiniteNModel, check_bounded_morphism,
                           check_truth_preservation, denotation, nof,
                           product_n, product_world, satisfies,
                           structural_characteristics, valid_on_frame,
                           validate_frame)
from nbhdprod.report import BudgetExceeded, VerificationReport
from nbhdprod.sampling import (doubled_quotient, finite_com_sweep,
                               nf_agreement_sweep, random_kripke_frame,
                               random_nframe, random_valuation)


def uniframe(worlds, base):
    """Unimodal frame from {world: [iterable of worlds, ...]}."""
    return FiniteNFrame(tuple(worlds),
                        {1: {w: tuple(frozenset(s) for s in base[w])
                             for w in worlds}})


POINT_REFLEXIVE = uniframe(("x",), {"x": [{"x"}]})
POINT_IMPROPER = uniframe(("x",), {"x": [set()]})


# --- oracle ---------------------------------------------------------------------

def naive_eval(model: FiniteNModel, w: str, phi) -> bool:
    """Direct recursion on the satisfaction clauses, sets instead of masks."""
    if isinstance(phi, Bottom):
        return False
    if isinstance(phi, Atom):
        return w in model.valuation[phi.name]
    if isinstance(phi, Implies):
        return (not naive_eval(model, w, phi.left)) or naive_eval(model, w, phi.right)
    assert isinstance(phi, Box)
    return any(all(naive_eval(model, y, phi.body) for y in u)
               for u in model.frame.base[phi.index][w])


def test_denotation_matches_naive_oracle():
    frame = FiniteNFrame(
        ("a", "b", "c"),
        {1: {"a": (frozenset({"b"}), frozenset({"b", "c"})),
             "b": (frozenset(),),
             "c": (frozenset({"a", "b", "c"}),)},
         2: {"a": (frozenset({"a"}),),
             "b": (frozenset({"c"}),),
             "c": (frozenset({"b", "c"}),)}})
    assert validate_frame(frame).passed
    model = FiniteNModel(frame, {"p": frozenset({"a", "c"}),
                                 "q": frozenset({"b"})})
    for phi in generate_formulas(2, ("p", "q")):
        den = denotation(model, phi)
        for w in frame.worlds:
            assert (w in den) == naive_eval(model, w, phi), unparse(phi)


# --- validate_frame --------------------------------------------------------------

def test_validate_singleton_base_passes():
    assert validate_frame(POINT_REFLEXIVE).passed


def test_validate_filter_base_property_fails():
    frame = uniframe(("x", "y"), {"x": [{"x"}, {"y"}], "y": [{"y"}]})
    report = validate_frame(frame)
    assert not report.passed
    assert report.counterexample["reason"] == "filter-base property fails"
    assert report.counterexample["sets"] == [["x"], ["y"]]


def test_validate_empty_base_set_passes():
    assert validate_frame(POINT_IMPROPER).passed


def test_validate_carrier_and_coverage_failures():
    missing = FiniteNFrame(("x", "y"), {1: {"x": (frozenset({"x"}),)}})
    report = validate_frame(missing)
    assert not report.passed
    assert report.counterexample["reason"] == "carrier mismatch"

    empty_list = uniframe(("x",), {"x": []})
    report = validate_frame(empty_list)
    assert not report.passed
    assert report.counterexample["reason"] == "no base sets"

    outside = uniframe(("x",), {"x": [{"z"}]})
    report = validate_frame(outside)
    assert not report.passed
    assert report.counterexample["reason"] == "base set outside carrier"


# --- nof -------------------------------------------------------------------------

def test_nof_reflexive_point():
    frame = FiniteKripkeFrame(("w",), {1: frozenset({("w", "w")})})
    assert nof(frame).base[1]["w"] == (frozenset({"w"}),)


def test_nof_irreflexive_point():
    frame = FiniteKripkeFrame(("w",), {1: frozenset()})
    assert nof(frame).base[1]["w"] == (frozenset(),)


def test_nof_chain():
    frame = FiniteKripkeFrame(("w", "v"), {1: frozenset({("w", "v")})})
    nf = nof(frame)
    assert nf.base[1]["w"] == (frozenset({"v"}),)
    assert nf.base[1]["v"] == (frozenset(),)


def test_nof_matches_per_world_successors():
    # nof reads every successor set off one pass over each relation; the
    # reference scans the whole relation once per world
    for seed in range(200):
        frame = random_kripke_frame(Random(seed), max_worlds=6)
        expected = {i: {w: (frozenset(b for a, b in frame.rel[i] if a == w),)
                        for w in frame.worlds}
                    for i in frame.modalities}
        assert nof(frame).base == expected


# --- eval ------------------------------------------------------------------------

def test_eval_improper_filter_box_and_diamond():
    model = FiniteNModel(POINT_IMPROPER, {})
    assert satisfies(model, "x", parse("[1] false"))
    assert not satisfies(model, "x", parse("~[1]~(false -> false)"))


def test_eval_box_atom():
    model = FiniteNModel(POINT_REFLEXIVE, {"p": frozenset({"x"})})
    assert satisfies(model, "x", parse("[1] p"))


def test_eval_unknown_world_and_atom():
    model = FiniteNModel(POINT_REFLEXIVE, {"p": frozenset({"x"})})
    with pytest.raises(ValueError):
        satisfies(model, "nope", parse("p"))
    with pytest.raises(ValueError):
        satisfies(model, "x", parse("q"))
    with pytest.raises(ValueError):
        satisfies(model, "x", parse("[2] p"))


def test_eval_requires_parsed_formula():
    model = FiniteNModel(POINT_REFLEXIVE, {"p": frozenset({"x"})})
    with pytest.raises(TypeError, match="not a formula"):
        satisfies(model, "x", "[1] p")


# --- valid_on_frame --------------------------------------------------------------

def test_valid_t_on_reflexive_point():
    assert valid_on_frame(POINT_REFLEXIVE, parse("[1] p -> p")) is None


def test_invalid_d_on_improper_point():
    cx = valid_on_frame(POINT_IMPROPER, parse("[1] p -> ~[1]~p"))
    assert cx is not None
    assert cx.world == "x"
    assert cx.valuation == {"p": ()}
    assert cx.to_dict() == {"valuation": {"p": []}, "world": "x"}


def test_valid_tautology_on_any_frame():
    assert valid_on_frame(POINT_IMPROPER, parse("p -> p")) is None


def test_valid_guard_exceeded():
    worlds = tuple(f"w{i}" for i in range(6))
    frame = uniframe(worlds, {w: [{w}] for w in worlds})
    with pytest.raises(BudgetExceeded):
        valid_on_frame(frame, parse("p -> (q -> r)"))


# --- structural characteristics --------------------------------------------------

def test_characteristics_reflexive_point():
    chars = structural_characteristics(POINT_REFLEXIVE, 1)
    assert chars.to_dict() == {"d_ok": True, "t_ok": True, "four_ok": True}


def test_characteristics_improper_point():
    chars = structural_characteristics(POINT_IMPROPER, 1)
    assert not chars.d_ok


def test_characteristics_shifted_base():
    frame = uniframe(("x", "y"), {"x": [{"y"}], "y": [{"y"}]})
    chars = structural_characteristics(frame, 1)
    assert chars.d_ok
    assert not chars.t_ok
    assert chars.four_ok


def test_characteristics_errors():
    with pytest.raises(ValueError):
        structural_characteristics(POINT_REFLEXIVE, 2)
    worlds = tuple(f"w{i}" for i in range(13))
    big = uniframe(worlds, {w: [{w}] for w in worlds})
    with pytest.raises(BudgetExceeded):
        structural_characteristics(big, 1)


def test_characterization_soundness_random_frames():
    """Frame-level flags coincide with exhaustive validity of the axioms."""
    rng = Random(2026)
    schemes = ((AxiomScheme.D, "d_ok"), (AxiomScheme.T, "t_ok"),
               (AxiomScheme.FOUR, "four_ok"))
    for _ in range(60):
        frame = random_nframe(rng, max_worlds=3)
        chars = structural_characteristics(frame, 1)
        for scheme, flag in schemes:
            valid = valid_on_frame(frame, axiom_instance(scheme, 1)) is None
            assert valid == getattr(chars, flag), (frame.to_dict(), scheme)


def reference_four_ok(frame, i):
    """four_ok by the all-subsets loop: for every subset U of the carrier,
    every holder of U must have the holders of U in its filter."""
    n = len(frame.worlds)
    index = {w: k for k, w in enumerate(frame.worlds)}
    rows = [[sum(1 << index[x] for x in u) for u in frame.base[i][w]]
            for w in frame.worlds]

    def in_filter(w, u):
        return any(b & ~u == 0 for b in rows[w])

    for u in range(1 << n):
        holders = sum(1 << w for w in range(n) if in_filter(w, u))
        if not all(in_filter(w, holders) for w in range(n) if holders >> w & 1):
            return False
    return True


def test_four_ok_matches_all_subsets_loop():
    """Checking Four at base sets only agrees with the all-subsets loop on
    random unimodal frames and on both modalities of random products."""
    rng = Random(7)
    frames = [(random_nframe(rng, max_worlds=4), 1) for _ in range(3000)]
    for _ in range(300):
        product = product_n(random_nframe(rng), random_nframe(rng, max_worlds=2))
        frames += [(product, 1), (product, 2)]
    failing = 0
    for frame, i in frames:
        expected = reference_four_ok(frame, i)
        assert structural_characteristics(frame, i).four_ok == expected, frame.to_dict()
        failing += not expected
    assert 500 <= failing <= len(frames) - 500, failing


# --- products ---------------------------------------------------------------------

def test_product_cylinder_bases():
    left = uniframe(("u",), {"u": [{"u"}]})
    right = uniframe(("v",), {"v": [set()]})
    prod = product_n(left, right)
    w = product_world("u", "v")
    assert prod.worlds == (w,)
    assert prod.base[1][w] == (frozenset({w}),)
    assert prod.base[2][w] == (frozenset(),)
    assert validate_frame(prod).passed


def test_product_of_reflexive_points():
    left = uniframe(("u",), {"u": [{"u"}]})
    right = uniframe(("v",), {"v": [{"v"}]})
    prod = product_n(left, right)
    w = product_world("u", "v")
    assert prod.base[1][w] == (frozenset({w}),)
    assert prod.base[2][w] == (frozenset({w}),)


def test_product_world_count():
    left = uniframe(("a", "b"), {w: [{w}] for w in ("a", "b")})
    right = uniframe(("c", "d", "e"), {w: [{w}] for w in ("c", "d", "e")})
    assert len(product_n(left, right).worlds) == 6


def test_product_input_validation():
    bimodal = FiniteNFrame(("x",), {1: {"x": (frozenset({"x"}),)},
                                    2: {"x": (frozenset({"x"}),)}})
    ok = uniframe(("y",), {"y": [{"y"}]})
    with pytest.raises(ValueError):
        product_n(bimodal, ok)
    broken = uniframe(("x", "y"), {"x": [{"x"}, {"y"}], "y": [{"y"}]})
    with pytest.raises(ValueError):
        product_n(ok, broken)


def test_product_validates_commutation_on_finite_frames():
    """Finite filters are principal, so products collapse to relational form
    and the commutation axiom holds; the symbolic module exists because this
    stops being true over the infinite construction."""
    com = parse("[1][2] p -> [2][1] p")
    left = uniframe(("a0", "a1"), {"a0": [{"a1"}], "a1": [set()]})
    right = uniframe(("b",), {"b": [{"b"}]})
    assert valid_on_frame(product_n(left, right), com) is None
    report = finite_com_sweep(seed=3, n_pairs=15)
    assert report.passed
    assert report.params["seed"] == 3


# --- agreement with relational semantics ------------------------------------------

def test_nof_agreement_pointwise():
    frame = FiniteKripkeFrame(
        ("a", "b", "c"),
        {1: frozenset({("a", "b"), ("b", "c"), ("c", "c")}),
         2: frozenset({("a", "a"), ("c", "b")})})
    valuation = {"p": ("a", "c"), "q": ("b",)}
    model = FiniteNModel(nof(frame),
                         {k: frozenset(v) for k, v in valuation.items()})
    for phi in generate_formulas(2, ("p", "q")):
        for w in frame.worlds:
            assert kripke_satisfies(frame, valuation, w, phi) == \
                satisfies(model, w, phi), unparse(phi)


def test_nof_agreement_random_sweep():
    report = nf_agreement_sweep(seed=7, n_frames=25, max_worlds=4, depth=2)
    assert report.passed
    assert report.params["seed"] == 7
    assert report.checked > 0


# the modality-1 formulas of generate_formulas(2, ("p",)), as one family
MODALITY_1 = [phi for phi in generate_formulas(2, ("p",)) if modalities_of(phi) <= {1}]
MODALITY_1_NODES, MODALITY_1_ROOTS = compile_formulas(MODALITY_1)


@given(st.integers(0, 10**6))
def test_eval_monotone_under_base_refinement(seed):
    """Appending a superset of an existing base set changes no truth value."""
    rng = Random(seed)
    frame = random_nframe(rng, max_worlds=3)
    w = rng.choice(frame.worlds)
    u = rng.choice(frame.base[1][w])
    extra = u | {rng.choice(frame.worlds)}
    refined_base = {x: frame.base[1][x] + ((extra,) if x == w else ())
                    for x in frame.worlds}
    refined = FiniteNFrame(frame.worlds, {1: refined_base})
    assert validate_frame(refined).passed
    val = {"p": frozenset(random_valuation(rng, frame.worlds, ("p",))["p"])}
    before = FiniteNModel(frame, val)
    after = FiniteNModel(refined, val)
    # before in lane 0, after in lane 1: a world where they agree reads 0 or 3
    values = nbhd.node_values([before, after], MODALITY_1_NODES)
    for phi, root in zip(MODALITY_1, MODALITY_1_ROOTS):
        assert all(v in (0, 3) for v in values[root]), unparse(phi)


# --- bounded morphisms -------------------------------------------------------------

def test_morphism_identity_passes():
    frame = uniframe(("x", "y"), {"x": [{"y"}], "y": [{"x", "y"}]})
    report = check_bounded_morphism({"x": "x", "y": "y"}, frame, frame)
    assert report.passed


def test_morphism_quotient_passes():
    source = uniframe(("x", "y"), {"x": [{"y"}], "y": [{"y"}]})
    target = uniframe(("z",), {"z": [{"z"}]})
    report = check_bounded_morphism({"x": "z", "y": "z"}, source, target)
    assert report.passed


def test_morphism_non_surjective_fails():
    source = uniframe(("x",), {"x": [{"x"}]})
    target = uniframe(("z", "w"), {"z": [{"z"}], "w": [{"w"}]})
    report = check_bounded_morphism({"x": "z"}, source, target)
    assert not report.passed
    assert report.counterexample["condition"] == "surjectivity"
    assert report.counterexample["missed"] == ["w"]


def test_morphism_neighborhood_conditions_fail():
    improper = uniframe(("x",), {"x": [set()]})
    proper = uniframe(("z",), {"z": [{"z"}]})
    report = check_bounded_morphism({"x": "z"}, improper, proper)
    assert not report.passed
    assert report.counterexample["condition"] == "image-is-neighborhood"

    report = check_bounded_morphism({"z": "x"}, proper, improper)
    assert not report.passed
    assert report.counterexample["condition"] == "preimage-refinement"


def test_morphism_input_errors():
    bimodal = FiniteNFrame(("x",), {1: {"x": (frozenset({"x"}),)},
                                    2: {"x": (frozenset({"x"}),)}})
    point = uniframe(("z",), {"z": [{"z"}]})
    with pytest.raises(ValueError):
        check_bounded_morphism({"x": "z"}, bimodal, point)
    with pytest.raises(ValueError):
        check_bounded_morphism({}, point, point)
    with pytest.raises(ValueError):
        check_bounded_morphism({"z": "q"}, point, point)


# --- truth preservation -------------------------------------------------------------

def test_truth_preservation_identity():
    frame = uniframe(("x", "y"), {"x": [{"y"}], "y": [{"x", "y"}]})
    model = FiniteNModel(frame, {"p": frozenset({"x"})})
    report = check_truth_preservation({"x": "x", "y": "y"}, frame, model, 2)
    assert report.passed and report.params["atoms"] == ["p"]
    # the formulas range over the first two atoms; the report names them
    model = FiniteNModel(frame, {"r": frozenset({"x"}), "p": frozenset(),
                                 "q": frozenset({"y"})})
    report = check_truth_preservation({"x": "x", "y": "y"}, frame, model, 1)
    assert report.passed and report.params["atoms"] == ["p", "q"]


def test_truth_preservation_quotient():
    source = nof(FiniteKripkeFrame(
        ("x0", "x1"),
        {1: frozenset({("x0", "x0"), ("x0", "x1"),
                       ("x1", "x0"), ("x1", "x1")})}))
    target = uniframe(("y",), {"y": [{"y"}]})
    model = FiniteNModel(target, {"p": frozenset({"y"})})
    f = {"x0": "y", "x1": "y"}
    report = check_truth_preservation(f, source, model, 2)
    assert report.passed

    # control: a valuation that is not the pullback breaks the biconditional
    # at a box formula even where the atom still agrees
    wrong = FiniteNModel(source, {"p": frozenset({"x0"})})
    assert satisfies(wrong, "x0", parse("p")) == satisfies(model, "y", parse("p"))
    assert satisfies(model, "y", parse("[1] p"))
    assert not satisfies(wrong, "x0", parse("[1] p"))


def test_truth_preservation_random_quotients():
    rng = Random(11)
    for _ in range(8):
        f, source, target = doubled_quotient(rng, max_worlds=3)
        val = random_valuation(rng, target.worlds, ("p",))
        model = FiniteNModel(target, {"p": frozenset(val["p"])})
        report = check_truth_preservation(f, source, model, 2)
        assert report.passed


def reference_truth_preservation(f, source, target_model, depth):
    """(checked, counterexample) of the per-formula loop: both denotations
    of each generated formula, then the source worlds in order."""
    names = sorted(target_model.valuation)
    pulled = {name: frozenset(x for x in source.worlds
                              if f[x] in target_model.valuation[name])
              for name in names}
    source_model = FiniteNModel(source, pulled)
    checked = 0
    for phi in generate_formulas(depth, names[:2]):
        if not modalities_of(phi) <= set(source.modalities):
            continue
        den_source = denotation(source_model, phi)
        den_target = denotation(target_model, phi)
        for x in source.worlds:
            checked += 1
            if (x in den_source) != (f[x] in den_target):
                return checked, {"formula": unparse(phi), "x": x, "fx": f[x]}
    return checked, None


def test_truth_preservation_matches_per_formula_loop(monkeypatch):
    """With the morphism check switched off, random maps between random
    frames fail: the first failure, in formula order and then world order,
    and the check count are those of the per-formula loop."""
    monkeypatch.setattr(nbhd, "check_bounded_morphism",
                        lambda f, source, target: VerificationReport(lemma="stub"))
    rng = Random(12)
    failing = 0
    for n in range(24):
        source = random_nframe(rng, max_worlds=3)
        target = random_nframe(rng, max_worlds=3) if n % 6 else source
        f = {x: rng.choice(target.worlds) for x in source.worlds}
        if n % 6 == 0:
            f = {x: x for x in source.worlds}
        names = ("p", "q") if n % 3 == 0 else ("p",)
        model = FiniteNModel(target, {a: frozenset(ws) for a, ws in
                                      random_valuation(rng, target.worlds, names).items()})
        report = check_truth_preservation(f, source, model, 2)
        expected = reference_truth_preservation(f, source, model, 2)
        assert (report.checked, report.counterexample) == expected
        failing += not report.passed
    assert 10 <= failing <= 20, failing


def test_truth_preservation_requires_morphism():
    source = uniframe(("x",), {"x": [{"x"}]})
    target = uniframe(("z", "w"), {"z": [{"z"}], "w": [{"w"}]})
    model = FiniteNModel(target, {"p": frozenset()})
    with pytest.raises(ValueError):
        check_truth_preservation({"x": "z"}, source, model, 1)


# --- serialization ------------------------------------------------------------------

def test_frame_json_shape_and_round_trip():
    frame = FiniteNFrame(
        ("w0", "w1"),
        {1: {"w0": (frozenset({"w0", "w1"}), frozenset({"w1"})),
             "w1": (frozenset({"w1"}),)}})
    data = frame.to_dict()
    assert data == {"worlds": ["w0", "w1"],
                    "base": {"1": {"w0": [["w0", "w1"], ["w1"]],
                                   "w1": [["w1"]]}}}
    assert FiniteNFrame.from_dict(data) == frame


def test_model_json_round_trip():
    frame = uniframe(("w0", "w1"), {"w0": [{"w1"}], "w1": [{"w1"}]})
    model = FiniteNModel(frame, {"p": frozenset({"w0"})})
    data = model.to_dict()
    assert data["val"] == {"p": ["w0"]}
    assert FiniteNModel.from_dict(data) == model
