"""Per-question survey reports: summaries, pairwise rank tests, and charts.

``run_report`` walks the requested questions, computes descriptive
summaries per group, runs every pairwise group comparison, renders one SVG
per question, and emits a machine-readable CSV of the comparisons. All
output is deterministic: running twice on the same inputs gives identical
bytes.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

from .charts import ChartSpec, DEFAULT_LIKERT_LABELS, render_diverging_chart, render_grouped_chart
from .errors import InputError
from .ordinal import DescriptiveSummary, descriptive_summary
from .survey import GroupComparison, SurveyDataset, compare_groups

__all__ = ["QuestionReport", "ReportBundle", "run_report", "comparison_row", "LOW_N_THRESHOLD", "CSV_HEADER"]

# below this many responses the normal approximation is shaky; flag it
LOW_N_THRESHOLD = 8

CSV_HEADER = ["question", "group_a", "group_b", "u", "p", "significant"]


def comparison_row(comp: GroupComparison) -> list[str]:
    """The ``CSV_HEADER`` fields of one comparison, as the report CSV and ``randrule compare`` print them."""
    u, p = f"{comp.result.u_x:.6g}", f"{comp.result.p_two_sided:.6g}"
    return [comp.question, comp.group_a, comp.group_b, u, p, "true" if comp.significant else "false"]


@dataclass(frozen=True)
class QuestionReport:
    question: str
    summaries: dict[str, DescriptiveSummary]
    comparisons: tuple[GroupComparison, ...]
    chart_svg: str
    notes: tuple[str, ...]


@dataclass(frozen=True)
class ReportBundle:
    questions: tuple[QuestionReport, ...]
    comparisons_csv: str
    written_files: tuple[str, ...]


def _default_labels(k: int) -> tuple[str, ...]:
    if k == len(DEFAULT_LIKERT_LABELS):
        return DEFAULT_LIKERT_LABELS
    return tuple(str(code) for code in range(1, k + 1))


def _safe_name(question: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_" else "_" for ch in question)


def run_report(
    dataset: SurveyDataset,
    questions: list[str] | None = None,
    groups: list[str] | None = None,
    alpha: float = 0.05,
    categorical: frozenset[str] | set[str] = frozenset(),
    category_labels: tuple[str, ...] | None = None,
    neutral_index: int | None = None,
    out_dir: str | Path | None = None,
) -> ReportBundle:
    """Build the report bundle; optionally write CSV and SVG files to ``out_dir``.

    Questions in ``categorical`` are charted as grouped bars and excluded
    from rank testing. Every other question gets a diverging chart plus all
    pairwise group comparisons at level ``alpha``.
    """
    questions = list(questions) if questions is not None else dataset.questions()
    groups = list(groups) if groups is not None else dataset.groups()
    if len(groups) < 1:
        raise InputError("report needs at least one group")
    k = dataset.category_count
    labels = category_labels if category_labels is not None else _default_labels(k)
    if len(labels) != k:
        raise InputError(f"got {len(labels)} category labels for {k} categories")
    neutral = neutral_index if neutral_index is not None else (k - 1) // 2

    reports: list[QuestionReport] = []
    csv_buf = io.StringIO()
    writer = csv.writer(csv_buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for question in questions:
        notes: list[str] = []
        for g in groups:
            n = len(dataset.responses(question, g))
            if n < LOW_N_THRESHOLD:
                notes.append(f"low-n: group {g!r} has {n} response(s) for {question!r}")
        if question in categorical:
            chart = render_grouped_chart(dataset, question, tuple(labels), tuple(groups))
            notes.append("categorical options: rank comparison and ordinal summaries omitted")
            reports.append(QuestionReport(question, {}, (), chart, tuple(notes)))
            continue
        summaries = {g: descriptive_summary(dataset.sample(question, g)) for g in groups}
        comparisons = []
        for ga, gb in combinations(groups, 2):
            comp = compare_groups(dataset, question, ga, gb, alpha, categorical)
            comparisons.append(comp)
            writer.writerow(comparison_row(comp))
        spec = ChartSpec(question, tuple(labels), neutral, tuple(groups))
        chart = render_diverging_chart(dataset, spec)
        reports.append(QuestionReport(question, summaries, tuple(comparisons), chart, tuple(notes)))

    csv_text = csv_buf.getvalue()
    written: list[str] = []
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / "comparisons.csv"
        csv_path.write_text(csv_text)
        written.append(str(csv_path))
        for rep in reports:
            svg_path = out / f"{_safe_name(rep.question)}.svg"
            svg_path.write_text(rep.chart_svg)
            written.append(str(svg_path))
    return ReportBundle(tuple(reports), csv_text, tuple(written))
