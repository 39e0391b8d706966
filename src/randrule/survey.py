"""Survey datasets: CSV interchange format and group comparisons.

The on-disk format is a long-form CSV with header
``respondent_id,group,question,response``; one row per answered (or skipped)
question, responses coded 1..k, an empty field meaning missing. Each
(respondent, question) pair may appear once.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InputError
from .ordinal import MwuResult, OrdinalSample, mann_whitney_u

__all__ = [
    "SurveyRecord",
    "SurveyDataset",
    "GroupComparison",
    "load_survey_csv",
    "compare_groups",
]

CSV_HEADER = ["respondent_id", "group", "question", "response"]


@dataclass(frozen=True)
class SurveyRecord:
    respondent_id: str
    group: str
    question: str
    response: int | None


@dataclass(frozen=True)
class SurveyDataset:
    """Validated long-form survey records with a declared category count.

    Building a dataset makes the only pass over ``records``: it validates
    each one and indexes the non-missing responses by question and group.
    Every lookup reads that index.
    """

    records: tuple[SurveyRecord, ...]
    category_count: int = 5
    _groups: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _index: dict[str, dict[str, list[int]]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        records = tuple(self.records)
        if not records:
            raise InputError("no records: the dataset is empty")
        if self.category_count < 2:
            raise InputError(f"category count must be >= 2, got {self.category_count}")
        seen: set[tuple[str, str]] = set()
        groups: dict[str, None] = {}
        index: dict[str, dict[str, list[int]]] = {}
        for rec in records:
            if not rec.group:
                raise InputError(f"record {rec.respondent_id!r}/{rec.question!r} has an empty group")
            key = (rec.respondent_id, rec.question)
            if key in seen:
                raise InputError(f"duplicate response for respondent {key[0]!r}, question {key[1]!r}")
            seen.add(key)
            if rec.response is not None and not 1 <= rec.response <= self.category_count:
                raise InputError(
                    f"response {rec.response} for respondent {rec.respondent_id!r} outside 1..{self.category_count}"
                )
            groups[rec.group] = None
            answers = index.setdefault(rec.question, {}).setdefault(rec.group, [])
            if rec.response is not None:
                answers.append(rec.response)
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "_groups", tuple(groups))
        object.__setattr__(self, "_index", index)

    def groups(self) -> list[str]:
        """Group names in first-appearance order."""
        return list(self._groups)

    def questions(self) -> list[str]:
        """Question ids in first-appearance order."""
        return list(self._index)

    def responses(self, question: str, group: str) -> list[int]:
        """Non-missing responses of one group to one question, in record order."""
        return list(self._index.get(question, {}).get(group, ()))

    def sample(self, question: str, group: str) -> OrdinalSample:
        values = self.responses(question, group)
        if not values:
            raise InputError(f"group {group!r} has no responses for question {question!r}")
        return OrdinalSample(values, category_count=self.category_count)


def load_survey_csv(path: str | Path, category_count: int = 5) -> SurveyDataset:
    """Parse and validate a survey CSV; errors carry the offending line number."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"survey file not found: {path}")
    records: list[SurveyRecord] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise InputError(f"{path}: no records (empty file)")
        if [h.strip() for h in header] != CSV_HEADER:
            raise InputError(f"{path}: header must be {','.join(CSV_HEADER)!r}, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise InputError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            respondent, group, question, raw = (field.strip() for field in row)
            if raw == "":
                response = None
            else:
                try:
                    response = int(raw)
                except ValueError:
                    raise InputError(f"{path}:{lineno}: response {raw!r} is not an integer") from None
                if not 1 <= response <= category_count:
                    raise InputError(
                        f"{path}:{lineno}: response {response} outside 1..{category_count}"
                    )
            records.append(SurveyRecord(respondent, group, question, response))
    if not records:
        raise InputError(f"{path}: no records")
    try:
        return SurveyDataset(tuple(records), category_count)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class GroupComparison:
    """Mann-Whitney comparison of two groups on one question."""

    question: str
    group_a: str
    group_b: str
    result: MwuResult
    alpha: float
    significant: bool


def compare_groups(
    dataset: SurveyDataset,
    question: str,
    group_a: str,
    group_b: str,
    alpha: float = 0.05,
    categorical: frozenset[str] | set[str] = frozenset(),
) -> GroupComparison:
    """Rank-compare two groups' responses; ``significant`` iff p < alpha.

    Questions listed in ``categorical`` have unordered answer options, so a
    rank test is refused.
    """
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    if question in categorical:
        raise InputError(
            f"question {question!r} is declared categorical; the rank test needs ordinal codes"
        )
    if question not in dataset.questions():
        raise InputError(f"unknown question {question!r}")
    known = dataset.groups()
    for g in (group_a, group_b):
        if g not in known:
            raise InputError(f"unknown group {g!r} (available: {', '.join(known)})")
    result = mann_whitney_u(dataset.sample(question, group_a), dataset.sample(question, group_b))
    return GroupComparison(question, group_a, group_b, result, alpha, result.p_two_sided < alpha)
