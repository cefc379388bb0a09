"""Closed-loop benchmark of nbhdprod: one process, one client, no threads.

    python3 bench/run.py --workload windows --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. A run times how long the inputs take to set up, then runs the
workload's tasks in whole passes, each pass in a seeded order, until one
more pass would overrun ``--seconds`` (at least three passes, so that every
task's output is compared between passes). Each task's verdict is checked
against the hand-written known answers in ``workloads.py``. Times are
scaled to a fixed host speed, sampled while the tasks run (``speed.py``).

With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics. With ``--trace 1`` the first pass runs bare, the others
under the tracer of ``tracer.py``, and the JSON carries the per-layer
metrics plus the tracing overhead. Earlier lines give every metric by name
and unit, and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from random import Random
from typing import Any

import speed
import tracer as tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

SETUP_REPEATS = 15
MIN_PASSES = 3
# never start a pass that would end past this, so a run exits within 180 s
HARD_LIMIT_S = 150.0
TAIL_BEYOND = 10

def load_program() -> Any:
    """Import nbhdprod from this checkout's src/, never from elsewhere."""
    package_dir = os.path.join(SRC, "nbhdprod")
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        raise ImportError(f"no nbhdprod package under {SRC}")
    sys.path.insert(0, SRC)
    import nbhdprod
    import nbhdprod.cli
    import nbhdprod.sampling
    found = os.path.realpath(os.path.dirname(nbhdprod.__file__))
    if found != os.path.realpath(package_dir):
        raise ImportError(f"nbhdprod imported from {found}, not {package_dir}")
    return nbhdprod


# --- statistics ---------------------------------------------------------------

def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(percentile, value) of the highest percentile that leaves at least
    ``beyond`` samples above it: the value ranked ``beyond + 1`` from the top."""
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"{n} samples leave no percentile with {beyond} beyond it")
    return 100.0 * (n - beyond) / n, sorted(samples)[n - beyond - 1]


@dataclass
class Outcome:
    """Per task sample: raw and speed-scaled milliseconds (see speed.py),
    start and end, and whether it ran traced. Per pass: wall seconds,
    traced, stdout bytes."""

    raw_ms: list[float] = field(default_factory=list)
    scaled_ms: list[float] = field(default_factory=list)
    intervals: list[tuple[float, float]] = field(default_factory=list)
    sample_traced: list[bool] = field(default_factory=list)
    pass_s: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    stdout_bytes: list[int] = field(default_factory=list)
    probes_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def _picked(self, samples: list[float], traced: bool | None) -> list[float]:
        return [x for x, t in zip(samples, self.sample_traced) if traced in (None, t)]

    def tasks_per_s(self, traced: bool | None = None, raw: bool = False) -> float:
        """Tasks completed per second of task time over whole passes."""
        picked = self._picked(self.raw_ms if raw else self.scaled_ms, traced)
        return len(picked) / (sum(picked) / 1000.0)

    def time_scale(self, traced: bool | None = None) -> float:
        """Scaled over raw task time."""
        return sum(self._picked(self.scaled_ms, traced)) / sum(self._picked(self.raw_ms, traced))

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted


def _check(task: workloads.Task, expected: str, verdict: str, text: str,
           digests: dict[str, str]) -> str | None:
    """Why this outcome is wrong, or None."""
    if verdict != expected:
        return f"verdict {verdict!r}, expected {expected!r}"
    if task.fields is not None:
        try:
            data = json.loads(text)
        except ValueError:
            return "output is not JSON"
        wrong = sorted(k for k, v in task.fields.items() if data.get(k) != v)
        if wrong:
            return f"output fields differ from the construction: {wrong}"
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digests.setdefault(task.name, digest) != digest:
        return "output differs from an earlier pass"
    return None


def run_pass(tasks: list[workloads.Task], expected: dict[str, str],
             outcome: Outcome, digests: dict[str, str],
             sampler: speed.Sampler | None = None,
             tracer: tracing.Tracer | None = None) -> None:
    stdout_bytes = 0
    start = time.perf_counter()
    for task in tasks:
        if tracer is not None:
            tracer.task = task.name
        t0 = time.perf_counter()
        try:
            verdict, text = task.run()
        except Exception as exc:  # a task that raises is a failed task
            verdict, text = f"raised {type(exc).__name__}", repr(exc)
        t1 = time.perf_counter()
        probing = sampler.busy(t0, t1) if sampler is not None else 0.0
        outcome.raw_ms.append((t1 - t0 - probing) * 1000.0)
        outcome.intervals.append((t0, t1))
        outcome.sample_traced.append(tracer is not None)
        outcome.attempted += 1
        if task.cli:
            stdout_bytes += len(text.encode())
        problem = _check(task, expected[task.name], verdict, text, digests)
        if problem is not None:
            outcome.failed += 1
            outcome.failures.append(f"{task.name}: {problem}")
    outcome.pass_s.append(time.perf_counter() - start)
    outcome.traced.append(tracer is not None)
    outcome.stdout_bytes.append(stdout_bytes)


def run_loop(tasks: list[workloads.Task], expected: dict[str, str], seed: int,
             seconds: float, tracer: tracing.Tracer | None = None) -> Outcome:
    """Whole passes until one more would overrun ``seconds``. With a tracer,
    the first pass runs bare and the rest traced."""
    rng = Random(seed)
    outcome = Outcome()
    digests: dict[str, str] = {}
    start = time.perf_counter()
    with speed.Sampler() as sampler:
        try:
            while True:
                order = list(tasks)
                rng.shuffle(order)
                traced = tracer is not None and len(outcome.pass_s) >= 1
                if traced and not outcome.traced[-1]:
                    tracer.install()
                run_pass(order, expected, outcome, digests, sampler,
                         tracer if traced else None)
                elapsed = time.perf_counter() - start
                next_end = elapsed + elapsed / len(outcome.pass_s)
                if len(outcome.pass_s) >= MIN_PASSES and next_end > seconds:
                    break
                if tracer is None and next_end > HARD_LIMIT_S:
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
    outcome.scaled_ms = [raw * sampler.scale(t0, t1)
                         for raw, (t0, t1) in zip(outcome.raw_ms, outcome.intervals)]
    outcome.probes_s = sampler.took
    return outcome


# --- set-up ---------------------------------------------------------------------

def prepare(workload: str, seed: int) -> tuple[Any, list[workloads.Task], str]:
    """Import the program and generate the workload's inputs."""
    nb = load_program()
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    return nb, workloads.build(nb, workload, seed, workdir), workdir


def remove_workdir(workdir: str) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)
    except OSError:
        pass  # another run's inputs are still there


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from process start until the first task is ready, once per
    fresh interpreter: import plus input generation. Returns the raw and the
    speed-scaled times."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = speed.scale_now()
        t0 = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        line = child.stdout.readline()
        ready = time.perf_counter() - t0
        _, err = child.communicate(timeout=120)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
        raw.append(ready)
        scaled.append(ready * (before + speed.scale_now()) / 2.0)
    return raw, scaled


# --- reporting --------------------------------------------------------------------

def environment(args: argparse.Namespace, outcome: Outcome, n_tasks: int) -> dict[str, Any]:
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, check=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for folder, _, files in sorted(os.walk(os.path.join(SRC, "nbhdprod"))):
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(folder, name), "rb") as handle:
                digest.update(name.encode() + handle.read())
    return {
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "platform": platform.platform(), "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16], "workload": args.workload,
        "workloads": list(workloads.WORKLOADS), "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tasks_per_pass": n_tasks,
        "passes": len(outcome.pass_s), "samples": len(outcome.raw_ms),
        "setup_samples": SETUP_REPEATS, "clients": 1, "loop": "closed",
        "speed_probe_ref_s": speed.REF_PROBE_S,
        "speed_probe_median_s": statistics.median(outcome.probes_s),
        "speed_probes": len(outcome.probes_s),
    }


def end_to_end(outcome: Outcome, setup_s: list[float],
               raw: bool = False) -> tuple[dict[str, tuple[float, str]], float]:
    samples = outcome.raw_ms if raw else outcome.scaled_ms
    percentile, tail_ms = tail(samples)
    return {
        "tasks_per_s": (outcome.tasks_per_s(raw=raw), "1/s"),
        "task_ms_p50": (statistics.median(samples), "ms"),
        "task_ms_tail": (tail_ms, "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, percentile


def overhead(bare: float, traced: float) -> dict[str, tuple[float, str]]:
    """Tracing overhead: throughput of the bare pass against the traced ones."""
    return {"trace.untraced_tasks_per_s": (bare, "1/s"),
            "trace.traced_tasks_per_s": (traced, "1/s"),
            "trace.overhead_pct": ((bare / traced - 1.0) * 100.0, "%")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up, print 'ready' and exit")
    args = parser.parse_args(argv)

    try:
        if args.setup_probe:
            _, _, workdir = prepare(args.workload, args.seed)
            print("ready", flush=True)
            remove_workdir(workdir)
            return 0
        setup_raw, setup_s = measure_setup(args.workload, args.seed)
        nb, tasks, workdir = prepare(args.workload, args.seed)
    except (ImportError, RuntimeError, OSError) as exc:
        print(f"bench: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2
    try:
        expected = {t.name: workloads.expected_verdict(args.workload, t.name) for t in tasks}
        tracer = tracing.Tracer() if args.trace else None
        outcome = run_loop(tasks, expected, args.seed, args.seconds, tracer)
    finally:
        remove_workdir(workdir)

    for failure in outcome.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("env " + json.dumps(environment(args, outcome, len(tasks)), sort_keys=True))
    e2e, percentile = end_to_end(outcome, setup_s)
    e2e["failed_share"] = (outcome.failed_share, "share")
    for name, (value, unit) in end_to_end(outcome, setup_raw, raw=True)[0].items():
        print(f"{args.workload} raw {name} = {value:.6g} {unit}")
    if args.trace:
        metrics = tracer.layer_metrics(
            sum(outcome.traced), outcome.time_scale(traced=True),
            sum(b for b, t in zip(outcome.stdout_bytes, outcome.traced) if t))
        metrics.update(overhead(outcome.tasks_per_s(False), outcome.tasks_per_s(True)))
        shown = {**e2e, **metrics}
    else:
        metrics = {k: v for k, v in e2e.items() if k != "failed_share"}
        shown = e2e
    for name, (value, unit) in shown.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} task_ms_tail is p{percentile:.2f} of "
          f"{len(outcome.raw_ms)} samples")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
