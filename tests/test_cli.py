"""Command line surface: subcommands, exit codes, JSON and text output,
budget marker, and byte-level determinism."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import nbhdprod
from nbhdprod import cli, kripke, omega
from nbhdprod.cli import main
from nbhdprod.report import BudgetExceeded

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def files(tmp_path):
    out = {}
    specs = {
        "model": {"worlds": ["x", "y"],
                  "base": {"1": {"x": [["y"]], "y": [["y"]]}},
                  "val": {"p": ["y"]}},
        "improper": {"worlds": ["x"], "base": {"1": {"x": [[]]}}},
        "kripke": {"worlds": ["w", "v"], "rel": {"1": [["w", "v"]]}},
        "left": {"worlds": ["u"], "base": {"1": {"u": [["u"]]}}},
        "right": {"worlds": ["v"], "base": {"1": {"v": [["v"]]}}},
    }
    for name, data in specs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        out[name] = str(path)
    return out


# --- inspection commands -----------------------------------------------------------

def test_parse_command(capsys):
    code, out, _ = run_cli(capsys, "parse", "--formula", "[1] p -> p")
    assert code == 0
    assert json.loads(out) == {"atoms": ["p"], "depth": 1,
                               "formula": "[1] p -> p"}


def test_parse_json_flag_matches_default(capsys):
    _, default_out, _ = run_cli(capsys, "parse", "--formula", "p")
    _, json_out, _ = run_cli(capsys, "parse", "--formula", "p", "--json")
    assert default_out == json_out


def test_mc_all_worlds(capsys, files):
    code, out, _ = run_cli(capsys, "mc", "--model", files["model"],
                           "--formula", "[1] p")
    assert code == 0
    assert json.loads(out)["values"] == {"x": True, "y": True}

    code, out, _ = run_cli(capsys, "mc", "--model", files["model"],
                           "--formula", "p")
    assert code == 1
    assert json.loads(out)["values"] == {"x": False, "y": True}


def test_mc_single_world(capsys, files):
    code, out, _ = run_cli(capsys, "mc", "--model", files["model"],
                           "--formula", "p", "--world", "y")
    assert code == 0
    assert json.loads(out) == {"formula": "p", "value": True, "world": "y"}

    code, _, err = run_cli(capsys, "mc", "--model", files["model"],
                           "--formula", "p", "--world", "zz")
    assert code == 2
    assert err.startswith("usage error:")


def test_valid_counterexample(capsys, files):
    code, out, _ = run_cli(capsys, "valid", "--frame", files["improper"],
                           "--formula", "[1] p -> ~[1]~p")
    assert code == 1
    data = json.loads(out)
    assert data["valid"] is False
    assert data["counterexample"] == {"valuation": {"p": []}, "world": "x"}

    code, out, _ = run_cli(capsys, "valid", "--frame", files["improper"],
                           "--formula", "p -> p")
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_char_command(capsys, files):
    code, out, _ = run_cli(capsys, "char", "--frame", files["improper"])
    assert code == 0
    assert json.loads(out) == {"d_ok": False, "t_ok": False, "four_ok": True}


def test_char_text_rendering(capsys, files):
    code, out, _ = run_cli(capsys, "char", "--frame", files["improper"],
                           "--text")
    assert code == 0
    assert out.splitlines() == ["d_ok: false", "four_ok: true", "t_ok: false"]


def test_nof_command(capsys, files):
    code, out, _ = run_cli(capsys, "nof", "--frame", files["kripke"])
    assert code == 0
    assert json.loads(out) == {"worlds": ["w", "v"],
                               "base": {"1": {"w": [["v"]], "v": [[]]}}}


def test_product_command(capsys, files):
    code, out, _ = run_cli(capsys, "product", "--frame", files["left"],
                           "--frame2", files["right"])
    assert code == 0
    data = json.loads(out)
    assert data["worlds"] == ["u,v"]
    assert data["base"]["1"] == {"u,v": [["u,v"]]}
    assert data["base"]["2"] == {"u,v": [["u,v"]]}


def test_tree_command(capsys):
    code, out, _ = run_cli(capsys, "tree", "--kind", "in", "--branching", "1",
                           "--depth", "2")
    assert code == 0
    assert json.loads(out) == {"worlds": ["e", "1", "1.1"],
                               "rel": {"1": [["1", "1.1"], ["e", "1"]]}}

    code, out, _ = run_cli(capsys, "tree", "--kind", "in", "--branching", "1",
                           "--depth", "2", "--nof")
    assert code == 0
    assert json.loads(out) == {"worlds": ["e", "1", "1.1"],
                               "base": {"1": {"e": [["1"]], "1": [["1.1"]],
                                              "1.1": [[]]}}}


@pytest.mark.parametrize("depth", ["-1", "-3"])
@pytest.mark.parametrize("nof", [(), ("--nof",)])
def test_tree_rejects_negative_depth(capsys, depth, nof):
    code, out, err = run_cli(capsys, "tree", "--kind", "in", "--depth", depth, *nof)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: --depth must be >= 0")


def test_tree_depth_zero_is_the_root(capsys):
    code, out, _ = run_cli(capsys, "tree", "--kind", "in", "--depth", "0")
    assert code == 0
    assert json.loads(out) == {"worlds": ["e"], "rel": {"1": []}}


# --- verify -----------------------------------------------------------------------

def test_verify_chain(capsys):
    code, out, _ = run_cli(capsys, "verify", "--lemma", "chain", "--kind",
                           "rt", "--branching", "2", "--depth", "4")
    assert code == 0
    data = json.loads(out)
    assert data["lemma"] == "chain"
    assert data["pass"] is True
    assert data["counterexample"] is None
    assert data["params"]["bounds"] == {"m": 8, "k": 8, "d": 4}
    assert "millis" not in data


def test_verify_timings_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "--lemma", "fractal",
                           "--depth", "3", "--timings")
    assert code == 0
    assert "millis" in json.loads(out)


def test_verify_g_morphism_kind_pair(capsys):
    code, out, _ = run_cli(capsys, "verify", "--lemma", "g-morphism",
                           "--kind1", "rt", "--kind2", "it", "--depth", "3")
    assert code == 0
    data = json.loads(out)
    assert data["params"]["kind1"] == "rt"
    assert data["params"]["kind2"] == "it"


def test_verify_lex_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--lemma", "lex", "--kind", "rt",
                           "--depth", "3")
    assert code == 0
    data = json.loads(out)
    assert data["lemma"] == "lex"
    assert data["params"]["k_values"] == [1, 2]


def test_verify_sweep_records_seed(capsys):
    code, out, _ = run_cli(capsys, "verify", "--lemma", "finite-com",
                           "--seed", "5")
    assert code == 0
    assert json.loads(out)["params"]["seed"] == 5


def test_verify_determinism(capsys):
    argv = ("verify", "--lemma", "finite-com", "--seed", "5")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


# Windows past their budget, including ones whose size has thousands of
# digits and alphabets of millions of letters: each is refused at once.
BUDGET_OVERRUNS = [
    ("verify", "--lemma", "chain", "--branching", "3", "--depth", "14"),
    ("verify", "--lemma", "chain", "--depth", "10000"),
    ("verify", "--lemma", "chain", "--depth", "9000"),
    ("verify", "--lemma", "fractal", "--depth", "10000"),
    ("verify", "--lemma", "ff-morphism", "--depth", "10000"),
    ("verify", "--lemma", "ff-morphism", "--depth", "19"),
    ("verify", "--lemma", "g-morphism", "--depth", "10000"),
    ("verify", "--lemma", "g-morphism", "--depth", "200000"),
    ("verify", "--lemma", "lex", "--depth", "10000"),
    ("verify", "--lemma", "chain", "--branching", "2000000", "--depth", "1"),
    ("tree", "--depth", "10000"),
    ("tree", "--branching", "3000000", "--depth", "1"),
    ("tree", "--kind", "rt", "--branching", "2", "--depth", "17", "--nof"),
    ("tree", "--kind", "rt", "--branching", "1", "--depth", "499999", "--nof"),
    ("countermodel", "--axiom", "com", "--kind1", "in", "--kind2", "in",
     "--bounds", "8,8,10000"),
]


def test_verify_budget_marker(capsys):
    for argv in BUDGET_OVERRUNS:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert (code, err) == (1, ""), argv
        message = json.loads(out)["budget"]
        assert "exceeds budget" in message and len(message) < 200, argv


def test_g_morphism_budget_message(capsys):
    code, out, err = run_cli(capsys, "verify", "--lemma", "g-morphism", "--depth", "20")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"budget": "window of tagged words of length <= 20 at "
                                         "branchings 2 and 2 exceeds budget 2000000"}


@pytest.mark.parametrize("argv,message", [
    (("verify", "--lemma", "ff-morphism", "--depth", "20"),
     "window of sequences with support <= 20 at branching 2 exceeds budget 2000000"),
    (("tree", "--kind", "rt", "--branching", "2", "--depth", "17", "--nof"),
     "window of 4456449 rt pairs of words of length <= 17 at branching 2 "
     "exceeds budget 500000"),
    (("tree", "--kind", "rt", "--branching", "1", "--depth", "499999", "--nof"),
     "window of 125000250000 rt pairs of words of length <= 499999 at branching 1 "
     "exceeds budget 500000"),
])
def test_window_budget_messages(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (1, "")
    assert json.loads(out) == {"budget": message}


def test_tree_pair_budget_admits_depth_14():
    # tree --kind rt --depth 14 exports its 458,753 pairs; depth 15 holds 983,041
    assert kripke.tree_pairs(kripke.FrameKind.RT, 2, 14) == 458_753
    with pytest.raises(BudgetExceeded, match="window of 983041 rt pairs"):
        kripke.tree_pairs(kripke.FrameKind.RT, 2, 15)


def test_ff_morphism_refuses_before_building_words():
    frame = kripke.SymbolicTreeFrame(kripke.FrameKind.RT, 2)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            omega.verify_ff_morphism(frame, 19)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("argv", [
    ("verify", "--lemma", "chain", "--branching", "3000000", "--depth", "1"),
    ("tree", "--branching", "3000000", "--depth", "1"),
    ("tree", "--branching", "3000000", "--depth", "0"),
])
def test_budget_check_comes_before_the_alphabet(capsys, argv):
    tracemalloc.start()
    try:
        main(list(argv))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 10 * 2 ** 20


@pytest.mark.parametrize("argv", [
    ("--lemma", "chain", "--depth", "-3"),
    ("--lemma", "chain", "--depth", "0"),
    ("--lemma", "axiom-evidence", "--kind", "rt", "--depth", "-1"),
    ("--lemma", "ff-morphism", "--depth", "0"),
    ("--lemma", "g-morphism", "--depth", "0"),
    ("--lemma", "g-morphism", "--depth", "1"),
    ("--lemma", "lex", "--kind", "rt", "--depth", "1"),
    ("--lemma", "fractal", "--depth", "0"),
    ("--lemma", "fractal", "--depth", "-2"),
])
def test_verify_rejects_windows_too_small_to_check(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:")
    assert "--depth" in err


@pytest.mark.parametrize("lemma,depth", [("fractal", 1), ("chain", 1),
                                         ("ff-morphism", 1),
                                         ("axiom-evidence", 1),
                                         ("g-morphism", 2), ("lex", 2)])
def test_verify_smallest_windows_check_something(capsys, lemma, depth):
    code, out, _ = run_cli(capsys, "verify", "--lemma", lemma, "--kind", "rt",
                           "--depth", str(depth))
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["checked"] > 0


# --- countermodel --------------------------------------------------------------------

def test_countermodel_com(capsys):
    code, out, _ = run_cli(capsys, "countermodel", "--axiom", "com",
                           "--kind1", "in", "--kind2", "in")
    assert code == 0
    data = json.loads(out)
    assert data["accepted"] is True
    assert data["axiom"] == "com"
    assert data["bounds"] == {"m": 8, "k": 8, "d": 4}


def test_countermodel_chr_wide_bounds(capsys):
    code, out, _ = run_cli(capsys, "countermodel", "--axiom", "chr",
                           "--kind1", "rt", "--kind2", "rt",
                           "--bounds", "10,10,5")
    assert code == 0
    data = json.loads(out)
    assert data["accepted"] is True
    assert data["bounds"] == {"m": 10, "k": 10, "d": 5}


# --- failure modes ---------------------------------------------------------------------

def test_unknown_lemma_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--lemma", "nonsense")
    assert code == 2
    assert "invalid choice" in err


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "mc", "--model",
                           str(tmp_path / "nope.json"), "--formula", "p")
    assert code == 2
    assert err.startswith("input error:")


def test_malformed_json_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    code, _, err = run_cli(capsys, "char", "--frame", str(bad))
    assert code == 2
    assert err.startswith("input error:")


@pytest.mark.parametrize("argv", [
    ["parse", "--formula", "p"],
    ["countermodel", "--axiom", "chr", "--kind1", "in", "--kind2", "in"],
    ["tree", "--depth", "40"],
])
def test_closed_stdout_exits_1_quietly(argv):
    """A reader that quit early (`| head`) is no input error: exit 1 and
    nothing on stderr, for short and long output and for a budget marker."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(nbhdprod.__file__).parents[1]))
    try:
        done = subprocess.run([sys.executable, "-m", "nbhdprod", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=60)
    finally:
        os.close(write_end)
    assert done.stderr == b""
    assert done.returncode == 1


def test_formula_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "parse", "--formula", "[3] p")
    assert code == 2
    assert err.startswith("formula error:")


def test_bad_bounds_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--lemma", "chain",
                           "--bounds", "1,2")
    assert code == 2
    assert err.startswith("usage error:")


@pytest.mark.parametrize("data,path", [
    ({"worlds": ["a", "b"], "base": {"1": {"a": [["a"]]}}}, "$.base.1"),
    ({"worlds": ["a"], "base": {"1": {"a": [["a", "zz"]]}}}, "$.base.1.a[0][1]"),
    ({"base": {"1": {"a": [["a"]]}}}, "$.worlds"),
    ([{"worlds": ["a"]}], "$"),
])
@pytest.mark.parametrize("command", ["valid", "mc", "char"])
def test_malformed_frames_exit_2(capsys, tmp_path, data, path, command):
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(data), encoding="utf-8")
    flag = "--model" if command == "mc" else "--frame"
    formula = () if command == "char" else ("--formula", "p")
    code, out, err = run_cli(capsys, command, flag, str(frame), *formula)
    assert code == 2
    assert out == ""
    assert err.startswith(f"usage error: {path}: ")


def test_malformed_relational_frame_exits_2(capsys, tmp_path):
    frame = tmp_path / "kripke.json"
    frame.write_text(json.dumps({"worlds": ["w"], "rel": {"1": [["w"]]}}),
                     encoding="utf-8")
    code, out, err = run_cli(capsys, "nof", "--frame", str(frame))
    assert (code, out) == (2, "")
    assert err.startswith("usage error: $.rel.1: ")


@pytest.mark.parametrize("text", [
    "~" * 3000 + "p",
    "(" * 3000 + "p" + ")" * 3000,
    " & ".join(["p"] * 1000),
    " -> ".join(["p"] * 1000),
])
def test_deep_formulas_exit_2(capsys, text):
    code, out, err = run_cli(capsys, "parse", "--formula", text)
    assert (code, out) == (2, "")
    assert err.startswith("formula error: formula nests deeper than")


# --- one parser per process --------------------------------------------------------

# (argv, golden file or None); the calls after --timings, the usage error and
# --help rely on every default that those calls set
_REUSE_CALLS = [
    (["parse", "--formula", "<1>[2]p -> [2]<1>p"], "parse-4"),
    (["verify", "--lemma", "chain", "--kind", "in", "--bounds", "3,3,2",
      "--depth", "5", "--timings"], None),
    (["verify", "--lemma", "chain", "--depth", "5"], "verify-chain-rt-b2-d5"),
    (["countermodel", "--axiom", "com", "--kind1", "rt", "--kind2", "rt",
      "--branching", "2"], "countermodel-com-rt-rt-b2"),
    (["countermodel", "--axiom", "chr"], None),
    (["tree", "--kind", "rt", "--branching", "2", "--depth", "6"], "tree-rt-b2-d6"),
    (["verify", "--lemma", "nonsense"], None),
    (["verify", "--lemma", "chain", "--depth", "5"], "verify-chain-rt-b2-d5"),
    (["--help"], None),
    (["parse", "--formula", "<1>[2]p -> [2]<1>p"], "parse-4"),
    (["verify", "--help"], None),
    (["countermodel", "--axiom", "com", "--kind1", "rt", "--kind2", "rt",
      "--branching", "2"], "countermodel-com-rt-rt-b2"),
]


def _without_millis(out):
    data = json.loads(out)
    assert data.pop("millis") >= 0
    return data


def test_main_builds_its_parser_once(capsys):
    """Each call parses into a fresh namespace, so no option, default, usage
    error or --help leaks into the next call: twelve kinds of call, made
    three times over in one process, each give what a first call with a
    freshly built parser gives, and the golden output where there is one."""
    first = {}
    for argv, _ in _REUSE_CALLS:
        cli._build_parser.cache_clear()
        first[tuple(argv)] = run_cli(capsys, *argv)
    cli._build_parser.cache_clear()
    for _ in range(3):
        for argv, golden in _REUSE_CALLS:
            code, out, err = run_cli(capsys, *argv)
            want_code, want_out, want_err = first[tuple(argv)]
            if "--timings" in argv:
                assert _without_millis(out) == _without_millis(want_out)
            else:
                assert out == want_out, argv
            assert (code, err) == (want_code, want_err), argv
            if golden is not None:
                assert f"exit {code}\n{out}" == \
                    (GOLDEN / f"{golden}.txt").read_text(encoding="utf-8")
    assert cli._build_parser.cache_info().misses == 1
    codes = {tuple(argv): first[tuple(argv)][0] for argv, _ in _REUSE_CALLS}
    assert codes[("countermodel", "--axiom", "chr")] == 2
    assert codes[("verify", "--lemma", "nonsense")] == 2
    assert codes[("--help",)] == codes[("verify", "--help")] == 0
    timed = json.loads(first[tuple(_REUSE_CALLS[1][0])][1])
    assert timed["params"]["kind"] == "in"
    assert timed["params"]["bounds"] == {"m": 3, "k": 3, "d": 2}


# --- fuzzing: malformed files and formula text never escape as exceptions ---------

_WORLDS = st.sampled_from(["a", "b", "zz"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 3) | _WORLDS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["1", "2", "3", "x", "a", "b", "worlds", "base"]),
        inner, max_size=3),
    max_leaves=8)
_SETS = st.dictionaries(_WORLDS, st.lists(st.lists(_WORLDS, max_size=3), max_size=2)
                        | _JSON, max_size=3)
_FILES = _JSON | st.fixed_dictionaries({}, optional={
    "worlds": st.lists(_WORLDS, max_size=3) | _JSON,
    "base": st.dictionaries(st.sampled_from(["1", "2", "3", "x"]), _SETS | _JSON,
                            max_size=2) | _JSON,
    "rel": st.dictionaries(st.sampled_from(["1", "2", "x"]),
                           st.lists(st.lists(_WORLDS, max_size=3), max_size=3)
                           | _JSON, max_size=2) | _JSON,
    "val": st.dictionaries(st.sampled_from(["p", "q"]),
                           st.lists(_WORLDS, max_size=3) | _JSON, max_size=2) | _JSON,
})
_FORMULAS = st.text(max_size=8) | st.lists(st.sampled_from(
    ["p", "q", "~", "&", "|", "->", "(", ")", "[1]", "[2]", "[3]", "<1>", "<>",
     "true", "false", "@"]), max_size=12).map(" ".join)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_FILES, formula=_FORMULAS)
def test_fuzzed_inputs_exit_with_a_code(tmp_path, data, formula):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    f = str(path)
    for argv in (["valid", "--frame", f, "--formula", formula],
                 ["mc", "--model", f, "--formula", formula],
                 ["mc", "--model", f, "--formula", formula, "--world", "a"],
                 ["char", "--frame", f], ["nof", "--frame", f],
                 ["product", "--frame", f, "--frame2", f],
                 ["parse", "--formula", formula]):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)
