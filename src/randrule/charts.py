"""Deterministic SVG charts for survey responses.

Both renderers draw a count matrix: ``counts[g][c]`` is group ``g``'s count
of code ``c + 1``, for every code 1..k. Diverging stacked bars: one
horizontal percentage bar per group, aligned on a shared vertical axis
through the midpoint of the neutral category, so disagreement mass extends
left and agreement mass extends right. Output is plain SVG text built from
the inputs alone; rendering twice gives identical bytes. The only ``<rect>``
elements are the category segments (zero-width for empty categories), one
per group and category.

Questions whose answer options have no order get a plain grouped bar chart
instead. Both charts share one frame: a fixed width, the title, one legend
row and the closing tag.
"""

from __future__ import annotations

import re
from collections.abc import Sequence

import numpy as np

from .errors import InputError

__all__ = [
    "DEFAULT_LIKERT_LABELS",
    "MAX_CATEGORIES",
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

WIDTH = 840
LEFT_MARGIN = 150
RIGHT_MARGIN = 24
PLOT_WIDTH = WIDTH - LEFT_MARGIN - RIGHT_MARGIN
# a chart gives each category at least one pixel of its plot
MAX_CATEGORIES = PLOT_WIDTH
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


# any character outside XML 1.0's Char production; no escape can put one in a document
_NOT_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _esc(text: str) -> str:
    if _NOT_XML_CHAR.search(text):
        raise InputError(f"chart text {text!r} holds a character that XML cannot hold")
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


Counts = Sequence[Sequence[float]]


def _fractions(question: str, groups: tuple[str, ...], counts: Counts, k: int) -> list[list[float]]:
    """Each group's share of every code, in group order, once the counts pass the checks of both charts."""
    if not groups:
        raise InputError("chart needs at least one group")
    if len(counts) != len(groups):
        raise InputError(f"chart has {len(groups)} groups but {len(counts)} count rows")
    fracs = []
    for g, row in zip(groups, counts):
        row = np.asarray(row, dtype=float)
        if row.shape != (k,) or not np.all(row >= 0):
            raise InputError(f"group {g!r} needs {k} non-negative counts for question {question!r}")
        if not row.any():
            raise InputError(f"group {g!r} has no responses for question {question!r}")
        fracs.append((row / row.sum()).tolist())
    return fracs


def _text(x: float, y: float, content: str, anchor: str = "start", size: int = 12) -> str:
    return (
        f'<text x="{x:.2f}" y="{y:.2f}" font-family="sans-serif" font-size="{size}" '
        f'text-anchor="{anchor}">{_esc(content)}</text>'
    )


def _svg(height: int, title: str, body: list[str], legend_y: float, legend: list[tuple[str, str]]) -> str:
    """The frame of every chart: ``body`` between the title and one legend row of (circle attributes, label)."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{height}" '
        f'viewBox="0 0 {WIDTH} {height}">',
        _text(WIDTH / 2.0, 24, title, anchor="middle", size=15),
        *body,
    ]
    legend_x = LEFT_MARGIN
    for attrs, label in legend:
        parts.append(f'<circle cx="{legend_x + 6:.2f}" cy="{legend_y:.2f}" r="6" {attrs}/>')
        parts.append(_text(legend_x + 16, legend_y + 4, label, size=11))
        legend_x += 16 + 7 * len(label) + 18
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_diverging_chart(
    question: str, groups: tuple[str, ...], counts: Counts, category_labels: tuple[str, ...], neutral_index: int
) -> str:
    """Render one question as diverging stacked percentage bars; returns SVG text."""
    k = len(category_labels)
    if k < 3:
        raise InputError(f"diverging charts need >= 3 categories, got {k}")
    if not 0 <= neutral_index < k:
        raise InputError(f"neutral index {neutral_index} out of range for {k} categories")
    fracs = _fractions(question, groups, counts, k)
    lefts = [sum(f[:neutral_index]) + f[neutral_index] / 2.0 for f in fracs]
    scale = PLOT_WIDTH / (max(lefts) + max(1.0 - left for left in lefts))
    axis_x = LEFT_MARGIN + max(lefts) * scale
    colors = diverging_palette(k, neutral_index)

    body = []
    y = TOP_MARGIN
    for g, f, left in zip(groups, fracs, lefts):
        body.append(_text(LEFT_MARGIN - 8, y + ROW_HEIGHT / 2.0 + 4, g, anchor="end"))
        x = axis_x - left * scale
        for frac, color in zip(f, colors):
            w = frac * scale
            body.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{ROW_HEIGHT}" '
                f'fill="{color}" stroke="#555555" stroke-width="0.5"/>'
            )
            if frac > 0:
                body.append(
                    _text(x + w / 2.0, y + ROW_HEIGHT / 2.0 + 4, f"{100.0 * frac:.1f}%", anchor="middle", size=11)
                )
            x += w
        y += ROW_HEIGHT + ROW_GAP
    body.append(
        f'<line x1="{axis_x:.2f}" y1="{TOP_MARGIN - 6}" x2="{axis_x:.2f}" y2="{y - ROW_GAP + 6}" '
        f'stroke="#333333" stroke-width="1"/>'
    )
    legend = [(f'fill="{c}" stroke="#555555" stroke-width="0.5"', label)
              for c, label in zip(colors, category_labels)]
    return _svg(y + LEGEND_HEIGHT, question, body, y + 14, legend)


def render_grouped_chart(question: str, groups: tuple[str, ...], counts: Counts, category_labels: tuple[str, ...]) -> str:
    """Plain grouped percentage bars for questions without an ordered scale."""
    k = len(category_labels)
    fracs = _fractions(question, groups, counts, k)
    colors = diverging_palette(k, k // 2)
    opacities = [f"{0.55 + 0.45 * (gi + 1) / len(groups):.3f}" for gi in range(len(groups))]
    plot_h = 180
    slot = PLOT_WIDTH / k
    bar_w = slot * 0.8 / len(groups)
    base_y = TOP_MARGIN + plot_h

    body = [
        f'<line x1="{LEFT_MARGIN}" y1="{base_y:.2f}" x2="{LEFT_MARGIN + PLOT_WIDTH}" '
        f'y2="{base_y:.2f}" stroke="#333333" stroke-width="1"/>',
    ]
    for idx in range(k):
        x0 = LEFT_MARGIN + idx * slot + slot * 0.1
        for gi, opacity in enumerate(opacities):
            frac = fracs[gi][idx]
            h = frac * plot_h
            x = x0 + gi * bar_w
            body.append(
                f'<rect x="{x:.2f}" y="{base_y - h:.2f}" width="{bar_w:.2f}" height="{h:.2f}" '
                f'fill="{colors[idx]}" stroke="#555555" stroke-width="0.5" opacity="{opacity}"/>'
            )
            if frac > 0:
                body.append(
                    _text(x + bar_w / 2.0, base_y - h - 4, f"{100.0 * frac:.0f}%", anchor="middle", size=10)
                )
        body.append(
            _text(LEFT_MARGIN + idx * slot + slot / 2.0, base_y + 16, category_labels[idx], anchor="middle", size=11)
        )
    legend = [(f'fill="#888888" opacity="{opacity}"', g) for g, opacity in zip(groups, opacities)]
    return _svg(base_y + LEGEND_HEIGHT + 24, question, body, base_y + 40, legend)
