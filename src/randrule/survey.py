"""Survey datasets: CSV interchange format and group comparisons.

The on-disk format is a long-form CSV with header
``respondent_id,group,question,response``; one row per answered (or skipped)
question, responses coded 1..k, an empty field meaning missing. Each
(respondent, question) pair may appear once.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError
from .ordinal import MwuResult, OrdinalSample, mann_whitney_u

__all__ = [
    "SurveyRecord",
    "SurveyDataset",
    "GroupComparison",
    "load_survey_csv",
    "check_request",
    "compare_groups",
]

CSV_HEADER = ["respondent_id", "group", "question", "response"]


@dataclass(frozen=True)
class SurveyRecord:
    respondent_id: str
    group: str
    question: str
    response: int | None


def _encode(column: list[str]) -> tuple[list[str], np.ndarray]:
    """Distinct values in first-appearance order, and each row's position among them."""
    names = dict.fromkeys(column)
    code = dict(zip(names, range(len(names))))
    return list(names), np.fromiter(map(code.__getitem__, column), np.intp, len(column))


class _Columns(Sequence[SurveyRecord]):
    """Survey rows held as columns and read back as records one at a time.

    Respondent, group and question are dictionary-encoded; ``response`` holds
    the response codes, 0 meaning missing.
    """

    def __init__(self, respondent: list[str], group: list[str], question: list[str], response: np.ndarray) -> None:
        self.respondents, self.respondent = _encode(respondent)
        self.groups, self.group = _encode(group)
        self.questions, self.question = _encode(question)
        self.response = response

    def __len__(self) -> int:
        return len(self.response)

    def __getitem__(self, i: int) -> SurveyRecord:
        return SurveyRecord(
            self.respondents[self.respondent[i]],
            self.groups[self.group[i]],
            self.questions[self.question[i]],
            int(self.response[i]) or None,
        )


class _RowError(InputError):
    """A dataset error found in the record at position ``row``."""

    def __init__(self, message: str, row: int) -> None:
        super().__init__(message)
        self.row = row


class SurveyDataset:
    """Validated long-form survey records with a declared category count.

    The records are held as columns. Building a dataset validates the columns
    and indexes the non-missing responses by question and group with one
    stable sort; every lookup reads that index. ``records`` is the tuple given
    to the constructor or, for a dataset loaded from CSV, a sequence that
    builds each record when it is read.
    """

    def __init__(self, records: Iterable[SurveyRecord], category_count: int = 5) -> None:
        records = tuple(records)
        if not records:
            raise InputError("no records: the dataset is empty")
        # 0 codes a missing response, so a recorded 0 becomes -1 and fails the range check
        response = np.array([0 if r.response is None else r.response or -1 for r in records])
        if response.dtype.kind not in "iu":
            raise InputError(f"responses must be integers or None, got {response.dtype} values")
        columns = _Columns(
            [r.respondent_id for r in records], [r.group for r in records], [r.question for r in records], response
        )
        self._index_columns(columns, category_count, records)

    @classmethod
    def _from_columns(cls, columns: _Columns, category_count: int) -> SurveyDataset:
        dataset = cls.__new__(cls)
        dataset._index_columns(columns, category_count, columns)
        return dataset

    def _index_columns(self, columns: _Columns, category_count: int, records: Sequence[SurveyRecord]) -> None:
        """Validate and index ``columns``. The first bad record raises ``_RowError``,
        its message naming ``records[row]``."""
        if category_count < 2:
            raise InputError(f"category count must be >= 2, got {category_count}")
        response = columns.response
        empty_group = np.array([not g for g in columns.groups])[columns.group]
        pair = columns.respondent * len(columns.questions) + columns.question
        order = np.argsort(pair, kind="stable")
        duplicate = np.zeros(len(columns), dtype=bool)
        duplicate[order[1:][pair[order[1:]] == pair[order[:-1]]]] = True
        out_of_range = (response < 0) | (response > category_count)
        bad = empty_group | duplicate | out_of_range
        if bad.any():
            row = int(np.argmax(bad))
            rec = records[row]
            if empty_group[row]:
                message = f"record {rec.respondent_id!r}/{rec.question!r} has an empty group"
            elif duplicate[row]:
                message = f"duplicate response for respondent {rec.respondent_id!r}, question {rec.question!r}"
            else:
                message = f"response {rec.response} for respondent {rec.respondent_id!r} outside 1..{category_count}"
            raise _RowError(message, row)

        present = np.flatnonzero(response)
        n_groups = len(columns.groups)
        cell = columns.question[present] * n_groups + columns.group[present]
        order = np.argsort(cell, kind="stable")
        cell = cell[order]
        starts = np.flatnonzero(np.diff(cell, prepend=-1))
        keys = [(columns.questions[c // n_groups], columns.groups[c % n_groups]) for c in cell[starts].tolist()]
        self.records = records
        self.category_count = category_count
        self._groups = tuple(columns.groups)
        self._questions = tuple(columns.questions)
        self._index = dict(zip(keys, np.split(response[present[order]], starts[1:])))
        self._samples: dict[tuple[str, str], OrdinalSample] = {}

    def groups(self) -> list[str]:
        """Group names in first-appearance order."""
        return list(self._groups)

    def questions(self) -> list[str]:
        """Question ids in first-appearance order."""
        return list(self._questions)

    def responses(self, question: str, group: str) -> list[int]:
        """Non-missing responses of one group to one question, in record order."""
        return self._index.get((question, group), np.empty(0, dtype=np.int64)).tolist()

    def sample(self, question: str, group: str) -> OrdinalSample:
        """One group's responses to one question, built on the first request and shared after it."""
        key = (question, group)
        sample = self._samples.get(key)
        if sample is None:
            values = self._index.get(key)
            if values is None:
                raise InputError(f"group {group!r} has no responses for question {question!r}")
            sample = self._samples[key] = OrdinalSample(values, category_count=self.category_count)
        return sample


def load_survey_csv(path: str | Path, category_count: int = 5) -> SurveyDataset:
    """Parse and validate a survey CSV; errors carry the offending line number.

    Rows count from 1 at the header, blank rows included. A UTF-8 byte-order
    mark is skipped.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"survey file not found: {path}")
    fields: list[str] = []
    blanks: list[int] = []  # the number of records read before each blank row
    header = bad_row = None  # bad_row: why the row after the last record read was refused
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise InputError(f"{path}: no records (empty file)")
            if [h.strip() for h in header] != CSV_HEADER:
                raise InputError(f"{path}: header must be {','.join(CSV_HEADER)!r}, got {header}")
            extend = fields.extend
            # the file is decoded as the rows stream, so a bad byte is raised in this loop
            for row in reader:
                if len(row) == 4:
                    extend(row)
                elif row:
                    bad_row = f"expected 4 fields, got {len(row)}"
                    break
                else:
                    blanks.append(len(fields) // 4)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read survey file {path}: {exc}") from exc
    except csv.Error as exc:
        if header is None:
            raise InputError(f"{path}:1: {exc}") from exc
        # like a row of the wrong width: a bad response on an earlier row wins
        bad_row = str(exc)

    def line(i: int) -> int:
        return 2 + i + bisect_right(blanks, i)

    raw = list(map(str.strip, fields[3::4]))
    # the table never outgrows the rows; codes beyond it go through int() below
    table = {str(v): v for v in range(1, min(category_count, len(raw)) + 1)}
    table[""] = 0
    codes = list(map(table.get, raw))
    if None in codes:
        # other spellings of a code (03, +3, non-ASCII digits) and bad responses
        for i, code in enumerate(codes):
            if code is None:
                try:
                    code = int(raw[i])
                except ValueError:
                    raise InputError(f"{path}:{line(i)}: response {raw[i]!r} is not an integer") from None
                if not 1 <= code <= category_count:
                    raise InputError(f"{path}:{line(i)}: response {code} outside 1..{category_count}")
                codes[i] = code
    if bad_row is not None:
        raise InputError(f"{path}:{line(len(codes))}: {bad_row}")
    if not codes:
        raise InputError(f"{path}: no records")
    # the string columns live only until they are encoded
    columns = _Columns(*(list(map(str.strip, fields[j::4])) for j in range(3)), np.array(codes))
    try:
        return SurveyDataset._from_columns(columns, category_count)
    except _RowError as exc:
        raise InputError(f"{path}:{line(exc.row)}: {exc}") from exc
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


def check_request(dataset: SurveyDataset, questions: Sequence[str], groups: Sequence[str], alpha: float) -> None:
    """Refuse an ``alpha`` outside (0, 1) and any question or group the dataset does not hold."""
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    known = dataset.questions()
    for q in questions:
        if q not in known:
            raise InputError(f"unknown question {q!r}")
    known = dataset.groups()
    for g in groups:
        if g not in known:
            raise InputError(f"unknown group {g!r} (available: {', '.join(known)})")


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
    if question in categorical:
        raise InputError(
            f"question {question!r} is declared categorical; the rank test needs ordinal codes"
        )
    check_request(dataset, [question], [group_a, group_b], alpha)
    result = mann_whitney_u(dataset.sample(question, group_a), dataset.sample(question, group_b))
    return GroupComparison(question, group_a, group_b, result, alpha, result.p_two_sided < alpha)
