"""Deterministic SVG charts for survey responses.

Diverging stacked bars: one horizontal percentage bar per group, aligned on
a shared vertical axis through the midpoint of the neutral category, so
disagreement mass extends left and agreement mass extends right. Output is
plain SVG text built from the inputs alone; rendering twice gives identical
bytes. The only ``<rect>`` elements are the category segments (zero-width
for empty categories), one per group and category.

Questions whose answer options have no order get a plain grouped bar chart
instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .survey import SurveyDataset

__all__ = [
    "ChartSpec",
    "DEFAULT_LIKERT_LABELS",
    "diverging_palette",
    "render_diverging_chart",
    "render_grouped_chart",
]

DEFAULT_LIKERT_LABELS = (
    "Strongly disagree",
    "Disagree",
    "Neutral",
    "Agree",
    "Strongly agree",
)

LEFT_MARGIN = 150
RIGHT_MARGIN = 24
TOP_MARGIN = 46
ROW_HEIGHT = 26
ROW_GAP = 12
LEGEND_HEIGHT = 34


def _mix(lo: tuple[int, int, int], hi: tuple[int, int, int], t: float) -> str:
    channels = (round(l + (h - l) * t) for l, h in zip(lo, hi))
    return "#" + "".join(f"{c:02x}" for c in channels)


def diverging_palette(k: int, neutral_index: int) -> tuple[str, ...]:
    """Reds below the neutral category, grey at it, blues above."""
    red = (178, 24, 43)
    blue = (33, 102, 172)
    pale = (247, 247, 247)
    colors = []
    for i in range(k):
        if i < neutral_index:
            t = i / neutral_index if neutral_index else 0.0
            colors.append(_mix(red, pale, 0.15 + 0.7 * t))
        elif i == neutral_index:
            colors.append(_mix(pale, pale, 0.0))
        else:
            span = k - 1 - neutral_index
            t = (i - neutral_index) / span if span else 1.0
            colors.append(_mix(pale, blue, 0.15 + 0.7 * t))
    return tuple(colors)


@dataclass(frozen=True)
class ChartSpec:
    """Layout contract for one question's diverging chart."""

    question: str
    category_labels: tuple[str, ...]
    neutral_index: int
    groups: tuple[str, ...]
    colors: tuple[str, ...] | None = None
    width: int = 840
    height: int | None = None

    def __post_init__(self) -> None:
        k = len(self.category_labels)
        if k < 3:
            raise InputError(f"diverging charts need >= 3 categories, got {k}")
        if not 0 <= self.neutral_index < k:
            raise InputError(f"neutral index {self.neutral_index} out of range for {k} categories")
        if not self.groups:
            raise InputError("chart needs at least one group")
        if self.colors is not None and len(self.colors) != k:
            raise InputError(f"got {len(self.colors)} colors for {k} categories")
        if self.width < 200:
            raise InputError("chart width must be at least 200 px")

    @property
    def category_count(self) -> int:
        return len(self.category_labels)

    def resolved_colors(self) -> tuple[str, ...]:
        if self.colors is not None:
            return self.colors
        return diverging_palette(self.category_count, self.neutral_index)

    def resolved_height(self) -> int:
        if self.height is not None:
            return self.height
        bars = len(self.groups) * (ROW_HEIGHT + ROW_GAP)
        return TOP_MARGIN + bars + LEGEND_HEIGHT


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fractions(dataset: SurveyDataset, question: str, group: str, k: int) -> list[float]:
    responses = dataset.responses(question, group)
    if not responses:
        raise InputError(f"group {group!r} has no responses for question {question!r}")
    return (np.bincount(responses, minlength=k + 1)[1:] / len(responses)).tolist()


def _text(x: float, y: float, content: str, anchor: str = "start", size: int = 12) -> str:
    return (
        f'<text x="{x:.2f}" y="{y:.2f}" font-family="sans-serif" font-size="{size}" '
        f'text-anchor="{anchor}">{_esc(content)}</text>'
    )


def render_diverging_chart(dataset: SurveyDataset, spec: ChartSpec) -> str:
    """Render one question as diverging stacked percentage bars; returns SVG text."""
    k = spec.category_count
    if k != dataset.category_count:
        raise InputError(
            f"chart declares {k} categories but the dataset uses {dataset.category_count}"
        )
    fracs = {g: _fractions(dataset, spec.question, g, k) for g in spec.groups}
    lefts = {g: sum(f[: spec.neutral_index]) + f[spec.neutral_index] / 2.0 for g, f in fracs.items()}
    rights = {g: 1.0 - lefts[g] for g in spec.groups}
    span = max(lefts.values()) + max(rights.values())
    width = spec.width
    height = spec.resolved_height()
    plot_w = width - LEFT_MARGIN - RIGHT_MARGIN
    scale = plot_w / span
    axis_x = LEFT_MARGIN + max(lefts.values()) * scale
    colors = spec.resolved_colors()

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        _text(width / 2.0, 24, spec.question, anchor="middle", size=15),
    ]
    y = TOP_MARGIN
    for g in spec.groups:
        parts.append(_text(LEFT_MARGIN - 8, y + ROW_HEIGHT / 2.0 + 4, g, anchor="end"))
        x = axis_x - lefts[g] * scale
        for idx in range(k):
            w = fracs[g][idx] * scale
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{ROW_HEIGHT}" '
                f'fill="{colors[idx]}" stroke="#555555" stroke-width="0.5"/>'
            )
            if fracs[g][idx] > 0:
                parts.append(
                    _text(
                        x + w / 2.0,
                        y + ROW_HEIGHT / 2.0 + 4,
                        f"{100.0 * fracs[g][idx]:.1f}%",
                        anchor="middle",
                        size=11,
                    )
                )
            x += w
        y += ROW_HEIGHT + ROW_GAP
    parts.append(
        f'<line x1="{axis_x:.2f}" y1="{TOP_MARGIN - 6}" x2="{axis_x:.2f}" y2="{y - ROW_GAP + 6}" '
        f'stroke="#333333" stroke-width="1"/>'
    )
    legend_x = LEFT_MARGIN
    legend_y = y + 14
    for idx, label in enumerate(spec.category_labels):
        parts.append(
            f'<circle cx="{legend_x + 6:.2f}" cy="{legend_y:.2f}" r="6" fill="{colors[idx]}" '
            f'stroke="#555555" stroke-width="0.5"/>'
        )
        parts.append(_text(legend_x + 16, legend_y + 4, label, size=11))
        legend_x += 16 + 7 * len(label) + 18
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_grouped_chart(
    dataset: SurveyDataset,
    question: str,
    category_labels: tuple[str, ...],
    groups: tuple[str, ...],
    width: int = 840,
) -> str:
    """Plain grouped percentage bars for questions without an ordered scale."""
    k = len(category_labels)
    if k != dataset.category_count:
        raise InputError(
            f"chart declares {k} categories but the dataset uses {dataset.category_count}"
        )
    if not groups:
        raise InputError("chart needs at least one group")
    fracs = {g: _fractions(dataset, question, g, k) for g in groups}
    colors = diverging_palette(k, k // 2)
    plot_w = width - LEFT_MARGIN - RIGHT_MARGIN
    plot_h = 180
    height = TOP_MARGIN + plot_h + LEGEND_HEIGHT + 24
    slot = plot_w / k
    bar_w = slot * 0.8 / len(groups)
    base_y = TOP_MARGIN + plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        _text(width / 2.0, 24, question, anchor="middle", size=15),
        f'<line x1="{LEFT_MARGIN}" y1="{base_y:.2f}" x2="{LEFT_MARGIN + plot_w}" '
        f'y2="{base_y:.2f}" stroke="#333333" stroke-width="1"/>',
    ]
    for idx in range(k):
        x0 = LEFT_MARGIN + idx * slot + slot * 0.1
        for gi, g in enumerate(groups):
            frac = fracs[g][idx]
            h = frac * plot_h
            x = x0 + gi * bar_w
            parts.append(
                f'<rect x="{x:.2f}" y="{base_y - h:.2f}" width="{bar_w:.2f}" height="{h:.2f}" '
                f'fill="{colors[idx]}" stroke="#555555" stroke-width="0.5" '
                f'opacity="{0.55 + 0.45 * (gi + 1) / len(groups):.3f}"/>'
            )
            if frac > 0:
                parts.append(
                    _text(x + bar_w / 2.0, base_y - h - 4, f"{100.0 * frac:.0f}%", anchor="middle", size=10)
                )
        parts.append(
            _text(LEFT_MARGIN + idx * slot + slot / 2.0, base_y + 16, category_labels[idx], anchor="middle", size=11)
        )
    legend_y = base_y + 40
    legend_x = LEFT_MARGIN
    for gi, g in enumerate(groups):
        parts.append(
            f'<circle cx="{legend_x + 6:.2f}" cy="{legend_y:.2f}" r="6" fill="#888888" '
            f'opacity="{0.55 + 0.45 * (gi + 1) / len(groups):.3f}"/>'
        )
        parts.append(_text(legend_x + 16, legend_y + 4, g, size=11))
        legend_x += 16 + 7 * len(g) + 18
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
