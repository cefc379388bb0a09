"""Spans and counters around the public functions of nbhdprod's modules.

The tracer wraps each function at every module attribute bound to it, which
is the attribute its callers look up (``cli.check_chain``,
``omega.enumerate_pseudo``, ``sampling.kripke_denotation`` and so on). Span
functions record (task, name, start, end, parent) in memory; counted
functions, the hot leaves, only bump counters. Nothing is aggregated until
``layer_metrics`` runs after the last pass.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

SPAN, COUNT, GEN = "span", "count", "gen"


def _items(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    return {"items": len(result)}


def _hits(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    return {"hits": int(bool(result))}


def _valuations(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    """Valuations valid_on_frame swept: all 2^(worlds x atoms) when the
    formula is valid, else the counterexample's binary-counter index + 1.
    Valuation bit j is (world j // atoms, atom j % atoms), as nbhd documents."""
    frame, phi = args[0], args[1]
    names = sorted(sys.modules["nbhdprod.formula"].atoms(phi))
    if result is None:
        return {"valuations": 1 << (len(frame.worlds) * len(names))}
    index = 0
    for wi, w in enumerate(frame.worlds):
        for ai, a in enumerate(names):
            if w in result.valuation[a]:
                index |= 1 << (wi * len(names) + ai)
    return {"valuations": index + 1}


def _add(counts: dict[str, int], extra: dict[str, int]) -> None:
    for key, value in extra.items():
        counts[key] += value


# (module, function, mode, extra counts)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("omega", "check_chain", SPAN, None),
    ("omega", "verify_ff_morphism", SPAN, None),
    ("omega", "axiom_evidence", SPAN, None),
    ("omega", "verify_g_morphism", SPAN, None),
    ("omega", "lex_window_compare", SPAN, None),
    ("omega", "enumerate_pseudo", SPAN, _items),
    ("omega", "u_contains", COUNT, _hits),
    ("omega", "lex_compare", COUNT, None),
    ("kripke", "enumerate_words", SPAN, None),
    ("kripke", "enumerate_tagged_words", SPAN, None),
    ("kripke", "check_fractal", SPAN, None),
    ("kripke", "denotation", SPAN, None),
    ("nbhd", "valid_on_frame", SPAN, _valuations),
    ("nbhd", "denotation", SPAN, None),
    ("nbhd", "product_n", SPAN, None),
    ("nbhd", "structural_characteristics", SPAN, None),
    ("formula", "parse", SPAN, None),
    ("formula", "generate_formulas", GEN, None),
    ("sampling", "nf_agreement_sweep", SPAN, None),
    ("sampling", "fusion_soundness_sweep", SPAN, None),
    ("sampling", "finite_com_sweep", SPAN, None),
    ("countermodel", "check_com_certificate", SPAN, None),
    ("countermodel", "check_chr_certificate", SPAN, None),
    ("countermodel", "eval_bounded", SPAN, None),
    ("cli", "main", SPAN, None),
)

# per-layer metric -> (traced name, statistic, unit); every value is per pass
LAYER_METRICS: tuple[tuple[str, str, str, str], ...] = (
    ("omega.check_chain.self_ms", "omega.check_chain", "self_ms", "ms"),
    ("omega.verify_ff_morphism.self_ms", "omega.verify_ff_morphism", "self_ms", "ms"),
    ("omega.axiom_evidence.self_ms", "omega.axiom_evidence", "self_ms", "ms"),
    ("omega.verify_g_morphism.self_ms", "omega.verify_g_morphism", "self_ms", "ms"),
    ("omega.lex_window_compare.self_ms", "omega.lex_window_compare", "self_ms", "ms"),
    ("omega.enumerate_pseudo.calls", "omega.enumerate_pseudo", "calls", "count"),
    ("omega.enumerate_pseudo.ms", "omega.enumerate_pseudo", "ms", "ms"),
    ("omega.enumerate_pseudo.items", "omega.enumerate_pseudo", "items", "count"),
    ("omega.u_contains.calls", "omega.u_contains", "calls", "count"),
    ("omega.u_contains.hit_ratio", "omega.u_contains", "hit_ratio", "ratio"),
    ("omega.lex_compare.calls", "omega.lex_compare", "calls", "count"),
    ("kripke.enumerate_words.ms", "kripke.enumerate_words", "ms", "ms"),
    ("kripke.enumerate_tagged_words.ms", "kripke.enumerate_tagged_words", "ms", "ms"),
    ("kripke.check_fractal.self_ms", "kripke.check_fractal", "self_ms", "ms"),
    ("kripke.denotation.calls", "kripke.denotation", "calls", "count"),
    ("kripke.denotation.ms", "kripke.denotation", "ms", "ms"),
    ("nbhd.valid_on_frame.calls", "nbhd.valid_on_frame", "calls", "count"),
    ("nbhd.valid_on_frame.self_ms", "nbhd.valid_on_frame", "self_ms", "ms"),
    ("nbhd.valid_on_frame.valuations", "nbhd.valid_on_frame", "valuations", "count"),
    ("nbhd.valid_on_frame.us_per_valuation", "nbhd.valid_on_frame",
     "us_per_valuation", "us"),
    ("nbhd.denotation.calls", "nbhd.denotation", "calls", "count"),
    ("nbhd.denotation.ms", "nbhd.denotation", "ms", "ms"),
    ("nbhd.product_n.ms", "nbhd.product_n", "ms", "ms"),
    ("nbhd.structural_characteristics.ms", "nbhd.structural_characteristics", "ms", "ms"),
    ("formula.parse.calls", "formula.parse", "calls", "count"),
    ("formula.parse.ms", "formula.parse", "ms", "ms"),
    ("formula.generate_formulas.ms", "formula.generate_formulas", "ms", "ms"),
    ("sampling.nf_agreement_sweep.self_ms", "sampling.nf_agreement_sweep", "self_ms", "ms"),
    ("sampling.fusion_soundness_sweep.self_ms", "sampling.fusion_soundness_sweep",
     "self_ms", "ms"),
    ("sampling.finite_com_sweep.self_ms", "sampling.finite_com_sweep", "self_ms", "ms"),
    ("countermodel.check_com_certificate.self_ms", "countermodel.check_com_certificate",
     "self_ms", "ms"),
    ("countermodel.check_chr_certificate.self_ms", "countermodel.check_chr_certificate",
     "self_ms", "ms"),
    ("countermodel.eval_bounded.self_ms", "countermodel.eval_bounded", "self_ms", "ms"),
    ("cli.main.self_ms", "cli.main", "self_ms", "ms"),
)


class Tracer:
    def __init__(self) -> None:
        # [task, name, start, end, parent index]; end is None while open
        self.spans: list[list[Any]] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.task = ""
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # --- recording --------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self.task, name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def _span(self, name: str, fn: Callable, extra: Callable | None) -> Callable:
        counts = self.counts[name]

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = self._open(name)
            counts["calls"] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if extra is not None:
                _add(counts, extra(args, kwargs, result))
            return result
        return wrapper

    def _count(self, name: str, fn: Callable, extra: Callable | None) -> Callable:
        counts = self.counts[name]

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            counts["calls"] += 1
            if extra is not None:
                _add(counts, extra(args, kwargs, result))
            return result
        return wrapper

    def _gen(self, name: str, fn: Callable, extra: Callable | None) -> Callable:
        """A generator's work happens in next(), so each next() is a span."""
        counts = self.counts[name]

        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            counts["calls"] += 1
            inner = fn(*args, **kwargs)
            while True:
                index = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                yield item
        return wrapper

    # --- install ----------------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "nbhdprod" or key.startswith("nbhdprod."))]
        makers = {SPAN: self._span, COUNT: self._count, GEN: self._gen}
        for module_name, func_name, mode, extra in TARGETS:
            original = getattr(sys.modules[f"nbhdprod.{module_name}"], func_name)
            wrapped = makers[mode](f"{module_name}.{func_name}", original, extra)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # --- aggregation ------------------------------------------------------------

    def layer_metrics(self, passes: int, time_scale: float,
                      stdout_bytes: int) -> dict[str, tuple[float, str]]:
        """Per-pass numbers for every LAYER_METRICS entry, from the spans,
        with times multiplied by ``time_scale``.

        self_ms is a span minus the parts of it its child spans cover; ms is
        inclusive time, counted once where a function re-enters itself."""
        child_time = [0.0] * len(self.spans)
        for task, name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for index, (task, name, start, end, parent) in enumerate(self.spans):
            self_s[name] += end - start - child_time[index]
            ancestor = parent
            while ancestor is not None and self.spans[ancestor][1] != name:
                ancestor = self.spans[ancestor][4]
            if ancestor is None:
                total_s[name] += end - start
        out: dict[str, tuple[float, str]] = {}
        for metric, name, stat, unit in LAYER_METRICS:
            counts = self.counts.get(name, {})
            if stat == "self_ms":
                value = self_s[name] * 1000.0 * time_scale / passes
            elif stat == "ms":
                value = total_s[name] * 1000.0 * time_scale / passes
            elif stat == "hit_ratio":
                value = counts.get("hits", 0) / counts["calls"] if counts.get("calls") else 0.0
            elif stat == "us_per_valuation":
                swept = counts.get("valuations", 0)
                value = self_s[name] * 1e6 * time_scale / swept if swept else 0.0
            else:
                value = counts.get(stat, 0) / passes
            out[metric] = (value, unit)
        out["cli.stdout_bytes"] = (stdout_bytes / passes, "bytes")
        return out
