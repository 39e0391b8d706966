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

import numpy as np

from .charts import DEFAULT_LIKERT_LABELS, MAX_CATEGORIES, render_diverging_chart, render_grouped_chart
from .errors import InputError
from .ordinal import DescriptiveSummary, descriptive_summary
from .survey import GroupComparison, SurveyDataset, check_request, compare_groups

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

    ``alpha``, the questions and the groups are checked up front, with the
    messages of :func:`compare_groups`, and so is a category count above
    ``charts.MAX_CATEGORIES``. Questions in ``categorical`` are
    charted as grouped bars and excluded from rank testing. Every other
    question gets a diverging chart plus all pairwise group comparisons at
    level ``alpha``. Each (question, group) sample is built once, by the
    dataset, and feeds the low-n notes, the summaries, the rank tests and the
    chart. Two questions whose chart files would share a name are refused
    before any file is written.
    """
    questions = list(questions) if questions is not None else dataset.questions()
    groups = tuple(groups if groups is not None else dataset.groups())
    if len(groups) < 1:
        raise InputError("report needs at least one group")
    check_request(dataset, questions, groups, alpha)
    k = dataset.category_count
    if k > MAX_CATEGORIES:
        raise InputError(f"{k} categories are more than a chart can draw (at most {MAX_CATEGORIES})")
    default = DEFAULT_LIKERT_LABELS if k == len(DEFAULT_LIKERT_LABELS) else tuple(map(str, range(1, k + 1)))
    labels = tuple(category_labels) if category_labels is not None else default
    if len(labels) != k:
        raise InputError(f"got {len(labels)} category labels for {k} categories")
    neutral = neutral_index if neutral_index is not None else (k - 1) // 2
    if out_dir is not None:
        charted: dict[str, str] = {}  # chart file name -> the first question written there
        for question in questions:
            name = f"{_safe_name(question)}.svg"
            if charted.setdefault(name, question) != question:
                raise InputError(f"questions {charted[name]!r} and {question!r} would both be written to {name}")

    reports: list[QuestionReport] = []
    csv_buf = io.StringIO()
    writer = csv.writer(csv_buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for question in questions:
        samples = [dataset.sample(question, g) for g in groups]
        notes = [f"low-n: group {g!r} has {s.n} response(s) for {question!r}"
                 for g, s in zip(groups, samples) if s.n < LOW_N_THRESHOLD]
        # a histogram holds the codes that occur; the chart shows all k
        rows = np.zeros((len(samples), k), dtype=np.int64)
        for row, s in zip(rows, samples):
            row[s.levels.astype(np.intp) - 1] = s.counts
        counts = rows.tolist()
        if question in categorical:
            chart = render_grouped_chart(question, groups, counts, labels)
            notes.append("categorical options: rank comparison and ordinal summaries omitted")
            reports.append(QuestionReport(question, {}, (), chart, tuple(notes)))
            continue
        summaries = {g: descriptive_summary(s) for g, s in zip(groups, samples)}
        pairs = combinations(groups, 2)
        comparisons = tuple(compare_groups(dataset, question, ga, gb, alpha, categorical) for ga, gb in pairs)
        writer.writerows(map(comparison_row, comparisons))
        chart = render_diverging_chart(question, groups, counts, labels, neutral)
        reports.append(QuestionReport(question, summaries, comparisons, chart, tuple(notes)))

    csv_text = csv_buf.getvalue()
    written: list[str] = []
    if out_dir is not None:
        out = Path(out_dir)
        files = [("comparisons.csv", csv_text)] + [(f"{_safe_name(r.question)}.svg", r.chart_svg) for r in reports]
        try:
            out.mkdir(parents=True, exist_ok=True)
            for name, text in files:
                (out / name).write_text(text)
                written.append(str(out / name))
        except OSError as exc:
            raise InputError(f"cannot write the report to {out}: {exc}") from exc
    return ReportBundle(tuple(reports), csv_text, tuple(written))
