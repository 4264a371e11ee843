"""In-memory spans around cdmine entry points, recorded from outside the package.

Each entry point is wrapped under the module attribute its caller looks it
up by (``cdmine.pipeline.mid_rank_transform``, ``cdmine.cr.cr_result``, ...),
so the package source stays untouched.  A span is (id, parent id, name,
start, end, raised); spans of one operation hang below that operation's
root span and are folded into per-name totals when the operation ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

# (module the caller looks the name up in, attribute, span name)
ENTRY_POINTS = (
    ("cdmine.cli", "main", "cli.main"),
    ("cdmine.cli", "load_csv", "dataset.load_csv"),
    ("cdmine.cli", "analyze", "pipeline.analyze"),
    ("cdmine.pipeline", "analyze", "pipeline.analyze"),
    ("cdmine.cli", "write_ranked_csv", "pipeline.write_ranked_csv"),
    ("cdmine.cli", "write_summary_json", "pipeline.write_summary_json"),
    ("cdmine.cli", "export_plots", "pipeline.export_plots"),
    ("cdmine.pipeline", "curve_grid", "pipeline.curve_grid"),
    ("cdmine.pipeline", "mid_rank_transform", "midrank.mid_rank_transform"),
    ("cdmine.pipeline", "build_score_basis", "score_basis.build_score_basis"),
    ("cdmine.pipeline", "cd_estimate", "comp_density.cd_estimate"),
    ("cdmine.pipeline", "rank_variables", "cr.rank_variables"),
    ("cdmine.cr", "cr_result", "cr.cr_result"),
    ("cdmine.cr", "null_pvalue", "cr.null_pvalue"),
    ("cdmine.svgplot", "polyline_svg", "svgplot.polyline_svg"),
    ("cdmine.pipeline", "cdfdr_pipeline", "cdfdr.cdfdr_pipeline"),
    ("cdmine.simulate", "cdfdr_pipeline", "cdfdr.cdfdr_pipeline"),
    ("cdmine.cdfdr", "estimate_null", "cdfdr.estimate_null"),
    ("cdmine.cdfdr", "preflatten", "cdfdr.preflatten"),
    ("cdmine.cdfdr", "estimate_residual_density", "cdfdr.estimate_residual_density"),
    ("cdmine.cdfdr", "inverse_fdr_curve", "cdfdr.inverse_fdr_curve"),
    ("cdmine.simulate", "bh_baseline", "simulate.bh_baseline"),
    ("cdmine.simulate", "naive_two_step_baseline", "simulate.naive_two_step_baseline"),
    ("cdmine.simulate", "run_experiment", "simulate.run_experiment"),
)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    raised: bool = False


@dataclass
class Totals:
    """Per-name sums over one operation's spans."""

    s: float = 0.0  # inclusive seconds
    self_s: float = 0.0  # seconds not covered by child spans
    calls: int = 0
    raised: int = 0


def self_times(spans) -> dict:
    """Span id -> its duration minus the part of it that child spans cover."""
    children = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = {}
    for sp in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(sp.id, ())):
            a, b = max(a, sp.start), min(b, sp.end)
            if b <= a:
                continue
            if run_end is not None and a <= run_end:
                run_end = max(run_end, b)
                continue
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = a, b
        if run_end is not None:
            covered += run_end - run_start
        out[sp.id] = (sp.end - sp.start) - covered
    return out


def totals_by_name(spans) -> dict:
    selfs = self_times(spans)
    out = {}
    for sp in spans:
        t = out.setdefault(sp.name, Totals())
        t.s += sp.end - sp.start
        t.self_s += selfs[sp.id]
        t.calls += 1
        t.raised += sp.raised
    return out


class Tracer:
    """Records spans from ``install()`` until ``uninstall()`` restores every wrapped name."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._saved = []

    def record(self, name, fn, *args, **kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        raised = True
        try:
            result = fn(*args, **kwargs)
            raised = False
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, parent, name, start, end, raised))

    def take(self) -> dict:
        """Fold the recorded spans into per-name totals and forget them."""
        totals = totals_by_name(self.spans)
        self.spans = []
        return totals

    def install(self, entry_points=ENTRY_POINTS):
        for module_name, attr, span_name in entry_points:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:  # a later engine may drop an entry point
                continue
            setattr(module, attr, self._wrap(original, span_name))
            self._saved.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.record(name, fn, *args, **kwargs)

        return wrapper
