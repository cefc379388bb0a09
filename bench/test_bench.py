"""Self-tests of the benchmark harness: python3 -m pytest bench -q"""

import contextlib
import fnmatch
import io
import itertools
import json
import os

import pytest

import run
import tracer as tracing
import workloads
from workloads import Task


def fixed(verdict, text="{}", **kwargs):
    return Task(kwargs.pop("name", verdict), lambda: (verdict, text), **kwargs)


def test_wrong_expected_verdict_counts_in_failed_share():
    tasks = [fixed("pass", name="a"), fixed("pass", name="b")]
    outcome = run.run_loop(tasks, {"a": "fail", "b": "pass"}, seed=0, seconds=0)
    assert len(outcome.pass_s) == run.MIN_PASSES
    assert outcome.attempted == 2 * run.MIN_PASSES
    assert outcome.failed == run.MIN_PASSES
    assert outcome.failed_share == 0.5
    assert all(f.startswith("a: verdict 'pass'") for f in outcome.failures)


def test_wrong_fields_and_changing_output_are_failures():
    counter = itertools.count()
    tasks = [fixed("pass", '{"x": 1}', name="fields", fields={"x": 2}),
             Task("drift", lambda: ("pass", str(next(counter)))),
             Task("raises", lambda: 1 / 0)]
    outcome = run.Outcome()
    digests = {}
    expected = {"fields": "pass", "drift": "pass", "raises": "fail"}
    run.run_pass(tasks, expected, outcome, digests)
    run.run_pass(tasks, expected, outcome, digests)
    assert outcome.failed == 5  # fields twice, drift once, raises twice
    assert any("drift: output differs" in f for f in outcome.failures)
    assert any("raises: verdict 'raised ZeroDivisionError'" in f for f in outcome.failures)


@pytest.mark.parametrize("n", [11, 12, 60, 88, 478, 1000])
def test_tail_leaves_ten_samples_beyond(n):
    samples = [float((7 * i) % n) for i in range(n)]  # distinct, shuffled
    percentile, value = run.tail(samples)
    assert sum(x > value for x in samples) == run.TAIL_BEYOND
    assert percentile == pytest.approx(100.0 * (n - 10) / n)
    # one percentile higher would leave fewer than ten beyond it
    assert sorted(samples)[-run.TAIL_BEYOND] > value


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


@pytest.fixture(scope="module")
def nb():
    return run.load_program()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_task_has_exactly_one_known_answer(nb, workload, tmp_path):
    tasks = workloads.build(nb, workload, seed=3, workdir=str(tmp_path))
    assert tasks
    for task in tasks:
        assert workloads.expected_verdict(workload, task.name)


def test_every_known_answer_row_is_used(nb, tmp_path):
    keys = [f"{w}/{t.name}" for w in workloads.WORKLOADS
            for t in workloads.build(nb, w, seed=3, workdir=str(tmp_path))]
    for pattern, _, _ in workloads.KNOWN_ANSWERS:
        assert any(fnmatch.fnmatchcase(k, pattern) for k in keys), pattern


def test_task_names_do_not_depend_on_the_seed(nb, tmp_path):
    for workload in workloads.WORKLOADS:
        names = [sorted(t.name for t in workloads.build(nb, workload, s, str(tmp_path)))
                 for s in (1, 2)]
        assert names[0] == names[1]


def test_tracer_counts_and_restores(nb):
    original = nb.cli.main
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert nb.cli.main is not original
        with contextlib.redirect_stdout(io.StringIO()):
            assert nb.cli.main(["parse", "--formula", "[1] p -> p"]) == 0
        frame = nb.nbhd.FiniteNFrame(("w", "v"), {1: {"w": (frozenset({"v"}),),
                                                      "v": (frozenset({"v"}),)}})
        t = nb.formula.parse("[1] p -> p")
        assert nb.sampling.valid_on_frame(frame, nb.formula.parse("p -> p")) is None
        witness = nb.nbhd.valid_on_frame(frame, t)
        assert witness is not None
    finally:
        tracer.uninstall()
    assert nb.cli.main is original
    assert nb.sampling.valid_on_frame is nb.nbhd.valid_on_frame
    assert tracer.counts["cli.main"]["calls"] == 1
    assert tracer.counts["formula.parse"]["calls"] == 3
    # p -> p sweeps all 2^2 valuations; T fails at w as soon as p holds at v
    # and not at w, which is valuation 0b10 (bit j is world j), index 2
    assert tracer.counts["nbhd.valid_on_frame"]["valuations"] == 4 + 3
    metrics = tracer.layer_metrics(passes=1, time_scale=1.0, stdout_bytes=10)
    assert set(metrics) == {m[0] for m in tracing.LAYER_METRICS} | {"cli.stdout_bytes"}
    assert metrics["formula.parse.calls"] == (3, "count")
    main_span = next(s for s in tracer.spans if s[1] == "cli.main")
    assert 0 <= metrics["cli.main.self_ms"][0] <= (main_span[3] - main_span[2]) * 1000


def test_benchmark_json_lists_exactly_the_reported_metrics(nb):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    outcome = run.Outcome(raw_ms=[1.0] * 11, scaled_ms=[1.0] * 11,
                          sample_traced=[False] * 11)
    e2e, _ = run.end_to_end(outcome, [0.1])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: unit for k, (_, unit) in e2e.items()}
    layers = tracing.Tracer().layer_metrics(passes=1, time_scale=1.0, stdout_bytes=0)
    layers.update(run.overhead(1.0, 1.0))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: unit for k, (_, unit) in layers.items()}
