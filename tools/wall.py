"""Median wall times of fixed CLI commands and of the tier-1 suite.

    python3 tools/wall.py                         # this checkout
    python3 tools/wall.py --parent ../other-tree  # and a second checkout

Run it with the interpreter that has the test extra (pytest, hypothesis).
Each command runs three times in a fresh interpreter, with the checkout as
working directory and its src/ first on PYTHONPATH; stdout is discarded
and a nonzero exit stops the measurement. Each checkout reads and writes
bytecode under its own fresh PYTHONPYCACHEPREFIX, with
PYTHONDONTWRITEBYTECODE dropped, so both compile every module once, the
standard library's too, whatever __pycache__ folders they hold. With
--parent the two checkouts take turns run by run, so a slow stretch of a
shared host hits both. Progress goes to stderr; stdout is one JSON object holding the
env fields that bench/run.py prints (python, nproc, platform, and per
checkout git_commit and src_sha256) and, per command, its argv and, per
checkout, the median seconds and the median peak RSS in MB (the child's
ru_maxrss from os.wait4, which Linux gives in KiB). Times include
interpreter start-up, and so does the RSS.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEATS = 3


def _cli(*args: str) -> list[str]:
    return ["nbhdprod", *args]


# (name, argv); "nbhdprod" and "pytest" run as modules of the interpreter
COMMANDS: tuple[tuple[str, list[str]], ...] = (
    *((f"fractal-rt-b2-d{d}", _cli("verify", "--lemma", "fractal", "--kind", "rt",
                                   "--branching", "2", "--depth", str(d)))
      for d in (8, 10, 12)),
    *((f"tree-rt-b2-d{d}-nof", _cli("tree", "--kind", "rt", "--branching", "2",
                                    "--depth", str(d), "--nof"))
      for d in (6, 8, 10, 14)),
    *((f"ff-morphism-rt-b2-d{d}", _cli("verify", "--lemma", "ff-morphism", "--kind",
                                       "rt", "--branching", "2", "--depth", str(d)))
      for d in (5, 6, 7, 8)),
    *((f"g-morphism-rt-it-b2-d{d}", _cli("verify", "--lemma", "g-morphism", "--kind1",
                                         "rt", "--kind2", "it", "--branching", "2",
                                         "--depth", str(d)))
      for d in (4, 5, 6, 7, 8)),
    *((f"lex-rt-b2-d{d}", _cli("verify", "--lemma", "lex", "--kind", "rt",
                               "--branching", "2", "--depth", str(d)))
      for d in (4, 5, 6, 7)),
    *((f"{lemma}-rt-b2-d{d}", _cli("verify", "--lemma", lemma, "--kind", "rt",
                                   "--branching", "2", "--depth", str(d)))
      for lemma in ("chain", "axiom-evidence") for d in (6, 7)),
    *((f"chain-{kind}-b2-d9", _cli("verify", "--lemma", "chain", "--kind", kind,
                                   "--branching", "2", "--depth", "9"))
      for kind in ("in", "rt")),
    *((f"{lemma}-rt-b2-d10", _cli("verify", "--lemma", lemma, "--kind", "rt",
                                  "--branching", "2", "--depth", "10"))
      for lemma in ("chain", "axiom-evidence")),
    *((f"countermodel-{axiom}-rt-rt-b2-{bounds}", _cli(
        "countermodel", "--axiom", axiom, "--kind1", "rt", "--kind2", "rt",
        "--branching", "2", "--bounds", bounds))
      for axiom in ("com", "chr") for bounds in ("8,8,4", "10,10,5")),
    *((f"{lemma}-seed0", _cli("verify", "--lemma", lemma, "--seed", "0"))
      for lemma in ("nf-agreement", "fusion-axioms", "finite-com")),
    ("tier-1", ["pytest", "-q", "--continue-on-collection-errors"]),
)


def checkout_env(root: str) -> dict[str, str]:
    """git_commit and src_sha256 as bench/run.py computes them."""
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, check=True,
                                    timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for folder, _, files in sorted(os.walk(os.path.join(root, "src", "nbhdprod"))):
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(folder, name), "rb") as handle:
                digest.update(name.encode() + handle.read())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def run_once(root: str, argv: list[str], pycache: str) -> tuple[float, float]:
    """Wall seconds and peak RSS in MB of one run, with bytecode under pycache."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=pycache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    with tempfile.TemporaryFile("w+") as err:
        t0 = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", *argv], cwd=root, env=env,
                                 stdout=subprocess.DEVNULL, stderr=err)
        # wait4 reaps the child itself, so its rusage is not lost to Popen.wait
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode != 0:
            err.seek(0)
            raise SystemExit(f"{' '.join(argv)} in {root} exited {child.returncode}:\n"
                             f"{err.read()[-2000:]}")
    return seconds, usage.ru_maxrss / 1024.0


def measure(roots: dict[str, str], cache: str) -> list[dict[str, Any]]:
    rows = []
    for name, argv in COMMANDS:
        runs: dict[str, list[tuple[float, float]]] = {label: [] for label in roots}
        for _ in range(REPEATS):
            for label, root in roots.items():
                runs[label].append(run_once(root, argv, os.path.join(cache, label)))
        row: dict[str, Any] = {"name": name, "argv": argv}
        for label in roots:
            seconds, rss_mb = zip(*runs[label])
            row[f"{label}_s"] = round(statistics.median(seconds), 3)
            row[f"{label}_peak_rss_mb"] = round(statistics.median(rss_mb), 1)
        print(json.dumps(row), file=sys.stderr, flush=True)
        rows.append(row)
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="a second checkout, timed in turn")
    args = parser.parse_args()
    roots = {"change": ROOT}
    if args.parent:
        roots = {"parent": os.path.abspath(args.parent), "change": ROOT}
    with tempfile.TemporaryDirectory() as cache:
        out = {
            "harness": "tools/wall.py", "repeats": REPEATS, "statistic": "median",
            "env": {"python": platform.python_version(), "nproc": os.cpu_count(),
                    "platform": platform.platform(),
                    "checkouts": {label: checkout_env(root)
                                  for label, root in roots.items()}},
            "commands": measure(roots, cache),
        }
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
