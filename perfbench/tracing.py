"""In-memory spans around the public functions of each randrule layer.

A span has a name (``layer.function``), a start, an end, a parent span and
an op id. Wrappers are installed from the benchmark's own files only: they
rebind the names that ``randrule.cli``, ``randrule.report``,
``randrule.survey``, ``randrule.repeated`` and the benchmark's workloads
module look up, plus a few public methods of library classes. Nothing
inside the package is changed, and :meth:`Tracer.installed` puts every
original back on exit.

Work a layer does through private calls gets a probe instead: after a
traced op, ``sample_case_arrays`` runs once at the size of every
``monte_carlo_cost`` call. That time is the mixtures share of the call, so
it moves from the decisions layer's self time to the mixtures layer's; the
call's own self time is reported whole as ``decisions.reduce_ms``.

A span's self time is its duration minus the time its child spans cover.
With ``memory=True`` each span also records its tracemalloc peak above the
memory in use when it started.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

import randrule.cli
import randrule.repeated
import randrule.report
import randrule.survey
from randrule.decisions import DeterministicClassifier, RandomizedClassifier
from randrule.mixtures import IsotropicGaussian, sample_case_arrays
from randrule.repeated import MatchTrace
from randrule.survey import SurveyDataset

import workloads

__all__ = ["Tracer", "LAYERS", "layer_metrics"]

LAYERS = ("mixtures", "decisions", "games", "repeated", "ordinal", "survey", "charts", "report", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs", "peak")

    def __init__(self, name, parent, op):
        self.name, self.start, self.end, self.parent, self.op = name, None, None, parent, op
        self.attrs = {}
        self.peak = None

    @property
    def ns(self) -> int:
        return self.end - self.start


# counts recorded at the boundary: f(args, kwargs, result) -> attrs


def _mc_counts(args, kwargs, result):
    mixture, _, _, n, seed = args
    width = max(
        2 * ((c.density.dimension + 1) // 2) if isinstance(c.density, IsotropicGaussian) else 1
        for c in mixture.components
    )
    uniforms = n * (1 + width)
    # computed from array sizes: the uniform table, X and the labels
    return {"mixture": mixture, "n": n, "seed": seed, "uniforms": uniforms,
            "bytes": 8 * (uniforms + n * mixture.dimension + n)}


def _fp_counts(args, kwargs, result):
    A = args[0].row_payoff
    x, y = result.profile.row.probs, result.profile.col.probs
    return {"iterations": result.iterations, "gap": float((A @ y).max() - (x @ A).min())}


def _rounds(args, kwargs, result):
    return {"rounds": args[3]}


def _ranked(args, kwargs, result):
    return {"values": result.n + result.m}


def _scan(args, kwargs, result):
    return {"scanned": len(args[0].records)}


def _loaded(args, kwargs, result):
    return {"records": len(result.records)}


def _svg(args, kwargs, result):
    return {"svg_bytes": len(result.encode())}


def _written(args, kwargs, result):
    return {"bytes_written": sum(os.path.getsize(p) for p in result.written_files)}


def _csv_bytes(args, kwargs, result):
    return {"trace_bytes": os.path.getsize(args[1])}


_FUNCTIONS = [
    (randrule.cli, "main", "cli.main", None),
    (randrule.cli, "monte_carlo_cost", "decisions.monte_carlo_cost", _mc_counts),
    (randrule.cli, "fictitious_play", "games.fictitious_play", _fp_counts),
    (randrule.cli, "run_repeated", "repeated.run_repeated", _rounds),
    (randrule.cli, "load_survey_csv", "survey.load_survey_csv", _loaded),
    (randrule.cli, "run_report", "report.run_report", _written),
    (randrule.repeated, "run_repeated", "repeated.run_repeated", _rounds),
    (randrule.repeated, "game_value", "games.game_value", None),
    (randrule.report, "descriptive_summary", "ordinal.descriptive_summary", None),
    (randrule.report, "render_diverging_chart", "charts.render_diverging_chart", _svg),
    (randrule.report, "render_grouped_chart", "charts.render_grouped_chart", _svg),
    (randrule.survey, "mann_whitney_u", "ordinal.mann_whitney_u", _ranked),
    (workloads, "monte_carlo_cost", "decisions.monte_carlo_cost", _mc_counts),
    (workloads, "exploitability_report", "repeated.exploitability_report", None),
]

_METHODS = [
    (DeterministicClassifier, "decide_batch", "decisions.decide_batch", None),
    (RandomizedClassifier, "realize_batch", "decisions.realize_batch", None),
    (MatchTrace, "write_csv", "repeated.write_csv", _csv_bytes),
    (SurveyDataset, "questions", "survey.questions", _scan),
    (SurveyDataset, "groups", "survey.groups", _scan),
    (SurveyDataset, "responses", "survey.responses", _scan),
    (SurveyDataset, "sample", "survey.sample", None),
]


class Tracer:
    """Records spans in memory; :meth:`write` saves them when the run ends."""

    def __init__(self, memory: bool = False, layers: bool = False):
        self.memory = memory
        self.layers = layers
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._mem: list[list[int]] = []  # per open span: [memory at start, peak so far]
        self.op = None

    def _open(self, name: str) -> Span:
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem.append([current, current])
        span = Span(name, self._stack[-1] if self._stack else None, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()
        if self.memory:
            peak = tracemalloc.get_traced_memory()[1]
            base, running = self._mem.pop()
            peak = max(running, peak)
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
            span.peak = peak - base

    def call(self, name: str, fn, args=(), kwargs=None, count=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        kwargs = kwargs or {}
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        if count is not None:
            span.attrs.update(count(args, kwargs, result))
        return result

    def _wrap(self, name, fn, count):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrappers in place inside the block, every original back after it.

        Without ``layers`` only the op's root span is recorded.
        """
        saved = []
        try:
            for owner, attr, name, count in (_FUNCTIONS + _METHODS if self.layers else []):
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def run_op(self, op_id: int, fn):
        """Run one op as a root span named ``op``."""
        self.op = op_id
        return self.call("op", fn)

    def probe(self, op_id: int) -> None:
        """Time ``sample_case_arrays`` at the size of each Monte Carlo call of the op."""
        if not self.layers:
            return
        self.op = op_id
        calls = [i for i, s in enumerate(self.spans) if s.op == op_id and s.name == MC]
        for i in calls:
            a = self.spans[i].attrs
            self.call("mixtures.sample_case_arrays", sample_case_arrays, (a["mixture"], a["n"], a["seed"]))
            self.spans[-1].attrs["probe_of"] = i
            a["probe_ns"] = self.spans[-1].ns

    def write(self, path: Path) -> None:
        """One JSON object per span, with its counts."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                attrs = {k: v for k, v in s.attrs.items() if isinstance(v, (int, float, str))}
                fh.write(json.dumps({"id": i, "name": s.name, "start_ns": s.start, "end_ns": s.end,
                                     "parent": s.parent, "op": s.op, "peak_bytes": s.peak, **attrs}) + "\n")


def _self_ns(spans: list[Span]) -> list[int]:
    """Duration minus the union of the direct children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0, s.start
        for start, end in sorted(children.get(i, [])):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.ns - covered)
    return out


MC = "decisions.monte_carlo_cost"
DECIDE = ("decisions.decide_batch", "decisions.realize_batch")
FP = "games.fictitious_play"
RUN = "repeated.run_repeated"
LOOKUPS = ("survey.questions", "survey.groups", "survey.responses", "survey.sample")
CHARTS = ("charts.render_diverging_chart", "charts.render_grouped_chart")


def _per_op(spans: list[Span], self_ns: list[int], ids: list[int]) -> dict[str, float]:
    """Layer metrics of one op, from its spans (and its probes)."""
    dur, own, calls = Counter(), Counter(), Counter()
    attrs: dict[str, Counter] = defaultdict(Counter)
    for i in ids:
        s = spans[i]
        dur[s.name] += s.ns
        own[s.name] += self_ns[i]
        calls[s.name] += 1
        attrs[s.name].update({k: v for k, v in s.attrs.items() if isinstance(v, (int, float))})

    def ms(counter, *names):
        return sum(counter[n] for n in names) * 1e-6

    def rate(count, ns):
        return count / (ns * 1e-9) if ns else 0.0

    probe_ns = attrs[MC]["probe_ns"]
    m = {
        "mixtures.sample_ms": ms(dur, "mixtures.sample_case_arrays"),
        "mixtures.uniforms": attrs[MC]["uniforms"],
        "mixtures.bytes_computed": attrs[MC]["bytes"],
        "decisions.decide_ms": ms(dur, *DECIDE),
        "decisions.reduce_ms": ms(own, MC),
        "games.fp_ms": ms(dur, FP),
        "games.fp_iters_per_s": rate(attrs[FP]["iterations"], dur[FP]),
        "games.value_ms": ms(dur, "games.game_value"),
        "games.fp_duality_gap": attrs[FP]["gap"],
        "repeated.run_ms": ms(dur, RUN),
        "repeated.rounds_per_s": rate(attrs[RUN]["rounds"], dur[RUN]),
        "repeated.trace_csv_ms": ms(dur, "repeated.write_csv"),
        "repeated.trace_bytes": attrs["repeated.write_csv"]["trace_bytes"],
        "repeated.report_self_ms": ms(own, "repeated.exploitability_report"),
        "ordinal.mwu_ms": ms(dur, "ordinal.mann_whitney_u"),
        "ordinal.mwu_calls": calls["ordinal.mann_whitney_u"],
        "ordinal.values_ranked": attrs["ordinal.mann_whitney_u"]["values"],
        "ordinal.summary_ms": ms(dur, "ordinal.descriptive_summary"),
        "survey.load_ms": ms(dur, "survey.load_survey_csv"),
        "survey.lookup_ms": ms(own, *LOOKUPS),
        "survey.lookup_calls": sum(calls[n] for n in LOOKUPS),
        "survey.records_scanned": sum(attrs[n]["scanned"] for n in LOOKUPS),
        "charts.render_ms": ms(dur, *CHARTS),
        "charts.svg_bytes": sum(attrs[n]["svg_bytes"] for n in CHARTS),
        "charts.count": sum(calls[n] for n in CHARTS),
        "report.self_ms": ms(own, "report.run_report"),
        "report.bytes_written": attrs["report.run_report"]["bytes_written"],
        "cli.self_ms": ms(own, "cli.main"),
    }
    records = attrs["survey.load_survey_csv"]["records"]
    m["survey.scan_ratio"] = m["survey.records_scanned"] / records if records else 0.0
    layer_ns = Counter()
    for name, ns in own.items():
        layer_ns[name.split(".")[0]] += ns
    # the probe's time is the mixtures share of the Monte Carlo call's self time
    layer_ns["decisions"] -= probe_ns
    m.update({f"{layer}.self_ms": layer_ns[layer] * 1e-6 for layer in LAYERS})
    return m


def layer_metrics(timed: Tracer, memory: Tracer, traced_ms: list[float], untraced_ms: list[float]) -> dict:
    """Per-layer metrics: the median over traced ops of each per-op value,
    peaks from the memory pass, and the tracing overhead."""
    self_ns = _self_ns(timed.spans)
    by_op: dict[int, list[int]] = {}
    for i, s in enumerate(timed.spans):
        by_op.setdefault(s.op, []).append(i)
    per_op = [_per_op(timed.spans, self_ns, ids) for ids in by_op.values()]
    out = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}

    def peak_mb(name):
        peaks = [s.peak for s in memory.spans if s.name == name]
        return max(peaks) / 1e6 if peaks else 0.0

    out["mixtures.sample_peak_mb"] = peak_mb("mixtures.sample_case_arrays")
    out["decisions.mc_peak_mb"] = peak_mb("decisions.monte_carlo_cost")
    out["trace.overhead_frac"] = statistics.median(traced_ms) / statistics.median(untraced_ms) - 1.0
    return out
