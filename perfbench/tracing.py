"""Per-layer tracing of the bhc package from outside the program.

:class:`Tracer` replaces every public function of the layer modules, at
every module that binds it, with one wrapper per function, plus
``ReportDocument.render``.  ``bhc.recursion.blei_f`` and
``bhc.exponents.blei_f`` are separate bindings of one function, so both are
patched and both route through the same wrapper.  The wrappers keep a span
stack: a span's self time is its duration minus the time of the spans it
directly caused.  Spans are aggregated in memory per function and read out
once, after the traced pass, and :meth:`Tracer.uninstall` puts every
original binding back.

``bhc.core`` holds only enums and a digest helper and gets no layer; its
time counts towards whichever layer called it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass

from workloads import without_wall_time

LAYERS = ("special", "exponents", "recursion", "verify", "reports", "cli")
MODULES = ("bhc",) + tuple(f"bhc.{layer}" for layer in LAYERS)

_CHECKS = ("bh_check", "blei_check", "khinchine_check", "multiple_summing_check")
_ORACLES = ("sup_norm_real", "sup_norm_complex_lb")
_COUNTS = (
    "gamma",
    "vertex_space",
    "patterns",
    "evals",
    "search_oracle_calls",
    "checks",
    "checks_failed",
    "trace_steps",
    "constant_rows",
    "output_bytes",
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Span-stack tracer over the bhc layer modules; install, run, uninstall."""

    def __init__(self) -> None:
        self.modules = [importlib.import_module(name) for name in MODULES]
        self._sites: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []
        self._depth = {"recursion": 0, "extremal_search": 0}
        self.counts = dict.fromkeys(_COUNTS, 0)
        self.search_ratios: list[float] = []
        self.reset()

    # ---------------------------------------------------------------- setup

    def bindings(self) -> list[tuple[object, str, object]]:
        """Every (namespace, name, function) that the tracer patches."""
        found = []
        for module in self.modules:
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ in MODULES[1:]
                    and not obj.__name__.startswith("_")
                ):
                    found.append((module, name, obj))
        report_document = importlib.import_module("bhc.reports").ReportDocument
        found.append((report_document, "render", vars(report_document)["render"]))
        return found

    def install(self) -> None:
        if self._sites:
            raise RuntimeError("tracer already installed")
        wrappers: dict[object, object] = {}
        for owner, name, fn in self.bindings():
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn)
            setattr(owner, name, wrappers[fn])
            self._sites.append((owner, name, fn))

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._sites):
            setattr(owner, name, fn)
        self._sites.clear()

    def check_restored(self) -> None:
        """Raise if any binding still holds a tracing wrapper."""
        leftover = [
            f"{getattr(owner, '__name__', owner)}.{name}"
            for owner, name, fn in self.bindings()
            if getattr(fn, "__bhc_traced__", False)
        ]
        if leftover:
            raise RuntimeError(f"traced bindings left in place: {leftover}")

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def reset(self) -> None:
        """Forget everything recorded so far (between traced passes)."""
        self.stats: dict[str, SpanStats] = {}
        self.counts.update(dict.fromkeys(_COUNTS, 0))
        self.search_ratios.clear()

    # ---------------------------------------------------------------- spans

    def _enter(self) -> float:
        self._stack.append([0.0])
        return time.perf_counter()

    def _exit(self, key: str, started: float) -> None:
        elapsed = time.perf_counter() - started
        child = self._stack.pop()[0]
        if self._stack:
            self._stack[-1][0] += elapsed
        stats = self.stats.get(key)
        if stats is None:
            stats = self.stats[key] = SpanStats()
        stats.calls += 1
        stats.total_s += elapsed
        stats.self_s += elapsed - child

    @contextmanager
    def span(self, key: str):
        """A span opened by the benchmark itself, such as one CLI command."""
        started = self._enter()
        try:
            yield
        finally:
            self._exit(key, started)

    def _wrap(self, fn):
        layer = fn.__module__.split(".")[-1]
        name = fn.__name__
        key = f"{layer}.{name}"
        observe = self._observer(layer, name)
        depth = self._depth
        nesting = layer if layer in depth else name if name in depth else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if nesting:
                depth[nesting] += 1
            started = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(key, started)
                if nesting:
                    depth[nesting] -= 1
            if observe is not None:
                observe(args, result)
            return result

        traced.__bhc_traced__ = True
        return traced

    # ------------------------------------------------------- counted work

    def _observer(self, layer: str, name: str):
        counts = self.counts
        ratios = self.search_ratios
        depth = self._depth

        if layer == "recursion":
            def outermost_trace(args, result):
                if depth["recursion"] == 0:
                    records = result if isinstance(result, tuple) else (result,)
                    counts["trace_steps"] += sum(len(r.trace) for r in records if hasattr(r, "trace"))
            return outermost_trace
        if name == "khinchine_a":
            def branch(args, result):
                counts["gamma"] += result.branch.value == "gamma-formula"
            return branch
        if name in _ORACLES:
            def oracle(args, result):
                if name == "sup_norm_real":
                    counts["vertex_space"] += 2 ** sum(args[0].dims[1:])
                if depth["extremal_search"]:
                    counts["search_oracle_calls"] += 1
            return oracle
        if name == "rademacher_moment":
            def patterns(args, result):
                counts["patterns"] += 2 ** len(args[0])
            return patterns
        if name in _CHECKS or name == "extremal_search":
            def check(args, result):
                counts["checks"] += 1
                counts["checks_failed"] += not result.passed
                if name == "extremal_search":
                    counts["evals"] += result.trials
                    if result.check == "search":
                        ratios.append(result.ratio)
            return check
        if name == "run_constants":
            def rows(args, result):
                counts["constant_rows"] += len(result.rows)
            return rows
        if name == "render":
            def rendered(args, result):
                counts["output_bytes"] += len(without_wall_time(result).encode())
            return rendered
        return None

    # ------------------------------------------------------------ metrics

    def _calls(self, *keys: str) -> int:
        return sum(self.stats[k].calls for k in keys if k in self.stats)

    def _self(self, *keys: str) -> float:
        return sum((self.stats[k].self_s for k in keys if k in self.stats), 0.0)

    def layer_self(self, layer: str) -> float:
        return sum((s.self_s for k, s in self.stats.items() if k.split(".")[0] == layer), 0.0)

    def counters(self) -> dict[str, float]:
        """Per-layer counts; these must repeat exactly at one seed."""
        c = self.counts
        recursion_calls = sum(s.calls for k, s in self.stats.items() if k.startswith("recursion."))
        khinchine_calls = self._calls("special.khinchine_a")
        evals = c["evals"]
        return {
            "special.khinchine_a.calls": khinchine_calls,
            "special.khinchine_a.gamma_share": c["gamma"] / khinchine_calls if khinchine_calls else 0.0,
            "special.log_gamma.calls": self._calls("special.log_gamma"),
            "exponents.blei.calls": self._calls("exponents.blei_w", "exponents.blei_f"),
            "exponents.split.calls": self._calls("exponents.even_split", "exponents.odd_split"),
            "recursion.calls": recursion_calls,
            "recursion.trace_steps": c["trace_steps"],
            "recursion.steps_per_row": c["trace_steps"] / c["constant_rows"] if c["constant_rows"] else 0.0,
            "verify.sup_norm_real.calls": self._calls("verify.sup_norm_real"),
            "verify.sup_norm_real.vertex_space": c["vertex_space"],
            "verify.sup_norm_complex_lb.calls": self._calls("verify.sup_norm_complex_lb"),
            "verify.rademacher_moment.calls": self._calls("verify.rademacher_moment"),
            "verify.rademacher_moment.patterns": c["patterns"],
            "verify.search.evals": evals,
            "verify.search.best_ratio": (
                sum(self.search_ratios) / len(self.search_ratios) if self.search_ratios else 0.0
            ),
            "verify.oracle_calls_per_eval": c["search_oracle_calls"] / evals if evals else 0.0,
            "verify.checks": c["checks"],
            "verify.checks_failed": c["checks_failed"],
            "reports.output_bytes": c["output_bytes"],
        }

    def timings(self) -> dict[str, float]:
        """Per-layer self times in seconds, and the per-call figures built on them."""
        sup_calls = self._calls("verify.sup_norm_real")
        sup_total = self.stats["verify.sup_norm_real"].total_s if sup_calls else 0.0
        vertices = self.counts["vertex_space"]
        reports_self = self.layer_self("reports")
        render_self = self._self("reports.render")
        return {
            **{f"{layer}.self_s": self.layer_self(layer) for layer in LAYERS},
            "special.khinchine_a.self_s": self._self("special.khinchine_a"),
            "exponents.blei.self_s": self._self("exponents.blei_w", "exponents.blei_f"),
            "verify.sup_norm_real.self_s": self._self("verify.sup_norm_real"),
            "verify.sup_norm_real.us_per_call": 1e6 * sup_total / sup_calls if sup_calls else 0.0,
            "verify.sup_norm_real.ns_per_vertex": (
                1e9 * self._self("verify.sup_norm_real") / vertices if vertices else 0.0
            ),
            "verify.sup_norm_complex_lb.self_s": self._self("verify.sup_norm_complex_lb"),
            "verify.rademacher_moment.self_s": self._self("verify.rademacher_moment"),
            "verify.extremal_search.self_s": self._self("verify.extremal_search"),
            "reports.run.self_s": reports_self - render_self,
            "reports.render.self_s": render_self,
        }
