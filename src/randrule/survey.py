"""Survey datasets: CSV interchange format and group comparisons.

The on-disk format is a long-form CSV with header
``respondent_id,group,question,response``; one row per answered (or skipped)
question, responses coded 1..k, an empty field meaning missing. Each
(respondent, question) pair may appear once.

A file is read by one of two routes. Plain files (ASCII, no quotes, no
whitespace but newlines, the exact header, every row 4 fields wide, responses
written as decimal codes 1..k, leading zeros allowed) are parsed as bytes in
numpy, each column encoded by ``np.unique`` over a zero-padded byte matrix.
Every other file goes through ``csv.reader``, which is the reference: both
routes give the same dataset, and only the ``csv.reader`` route words a parse
error. Both read responses with one function, ``_response_codes``.
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


Encoded = tuple[list[str], np.ndarray]


def _encode(column: list[str]) -> Encoded:
    """Distinct values in first-appearance order, and each row's position among them."""
    names = dict.fromkeys(column)
    code = dict(zip(names, range(len(names))))
    return list(names), np.fromiter(map(code.__getitem__, column), np.intp, len(column))


class _Columns(Sequence[SurveyRecord]):
    """Survey rows held as columns and read back as records one at a time.

    Respondent, group and question are dictionary-encoded, each as the
    ``_encode`` pair (distinct names, each row's position among them);
    ``response`` holds the response codes, 0 meaning missing.
    """

    def __init__(self, respondent: Encoded, group: Encoded, question: Encoded, response: np.ndarray) -> None:
        self.respondents, self.respondent = respondent
        self.groups, self.group = group
        self.questions, self.question = question
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
            _encode([r.respondent_id for r in records]),
            _encode([r.group for r in records]),
            _encode([r.question for r in records]),
            response,
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
        empty_question = np.array([not q for q in columns.questions])[columns.question]
        pair = columns.respondent * len(columns.questions) + columns.question
        order = np.argsort(pair, kind="stable")
        duplicate = np.zeros(len(columns), dtype=bool)
        duplicate[order[1:][pair[order[1:]] == pair[order[:-1]]]] = True
        out_of_range = (response < 0) | (response > category_count)
        bad = empty_group | empty_question | duplicate | out_of_range
        if bad.any():
            row = int(np.argmax(bad))
            rec = records[row]
            if empty_group[row]:
                message = f"record {rec.respondent_id!r}/{rec.question!r} has an empty group"
            elif empty_question[row]:
                message = f"record {rec.respondent_id!r} in group {rec.group!r} has an empty question"
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


# the header line exactly as the byte route accepts it
_ASCII_HEADER = (",".join(CSV_HEADER) + "\n").encode()
_BOM = b"\xef\xbb\xbf"
# ASCII bytes that send a file to the csv route: NUL, the quote, and every byte
# str.isspace accepts but the newline, so no field needs a strip; the quote is the largest
_OFF_ROUTE = np.array([c == 0 or chr(c) == '"' or (chr(c).isspace() and chr(c) != "\n") for c in range(ord('"') + 1)])
# a column is copied into its key matrix one byte position per pass; a column
# may take as many passes as it has rows, or this many if it has fewer rows
_FREE_PASSES = 64


def _response_codes(column: Encoded, category_count: int) -> tuple[np.ndarray, tuple[int, str] | None]:
    """The codes of an ``_encode``d response column, reading each distinct text once: an
    empty text is 0 (missing), any other ``int(text)``, which must lie in 1..k. Returns the
    codes of the rows before the first refused one, and (that row, why) or None."""
    texts, rows = column
    values: list[int] = []
    for text in texts:
        try:
            value = int(text) if text else 0
        except ValueError:
            why = f"response {text!r} is not an integer"
        else:
            if not text or 1 <= value <= category_count:
                values.append(value)
                continue
            why = f"response {value} outside 1..{category_count}"
        # texts come in first-appearance order, so this text's first row is the first refused row
        row = int(np.argmax(rows == len(values)))
        return np.array(values)[rows[:row]], (row, why)
    return np.array(values)[rows], None


def _byte_names(body: np.ndarray, start: np.ndarray, end: np.ndarray, width: int) -> Encoded:
    """``_encode`` of one column of fields at most ``width`` bytes long, without a
    string per row. Separators read as 0."""
    # a key of up to 8 bytes is zero-padded to 1, 2, 4 or 8 and sorted as one unsigned integer
    padded = next((w for w in (1, 2, 4, 8) if width <= w), width)
    keys = np.zeros((start.size, padded), dtype=np.uint8)
    for p in range(width):
        keys[:, p] = body[np.minimum(start + p, end)]
    view = keys.view(f"u{padded}" if padded <= 8 else f"S{padded}").ravel()
    _, first, inverse = np.unique(view, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(order.size, dtype=np.intp)
    rank[order] = np.arange(order.size)
    # S{padded} drops the zero padding; the fields hold no NUL to lose with it
    names = keys[first[order]].view(f"S{padded}").ravel().tolist()
    return [name.decode("ascii") for name in names], rank[inverse]


def _byte_columns(path: Path, category_count: int) -> tuple[_Columns, list[int]] | None:
    """The columns and blank rows of a plain file (see ``load_survey_csv``), parsed as
    bytes; None sends the file to the csv route, and so does a file with no record.
    Every test that can send the file away runs before any name column is built, and a file
    whose first line is not the header costs one small read."""
    try:
        if path.stat().st_size >= 2**31 - 1:  # the offsets are int32
            return None
        with path.open("rb") as f:
            head = f.read(len(_BOM) + len(_ASCII_HEADER))
        skip = len(_BOM) if head.startswith(_BOM) else 0
        if head[skip : skip + len(_ASCII_HEADER)] != _ASCII_HEADER:
            return None
        body = np.fromfile(path, dtype=np.uint8, offset=skip + len(_ASCII_HEADER))
    except OSError:
        return None
    if body.size and (body.max() > 127 or _OFF_ROUTE[body[body <= ord('"')]].any()):
        return None
    if body.size and body[-1] != ord("\n"):
        body = np.append(body, np.uint8(ord("\n")))
    ends = np.flatnonzero((body == ord(",")) | (body == ord("\n"))).astype(np.int32)  # each field's separator
    starts = np.empty_like(ends)
    starts[:1] = 0
    starts[1:] = ends[:-1] + 1
    last = np.flatnonzero(body[ends] == ord("\n"))  # each row's last field
    widths = np.diff(last, prepend=-1)
    blank = (widths == 1) & (starts[last] == ends[last])
    if not np.all(blank | (widths == 4)):
        return None
    blank_rows = np.flatnonzero(blank)
    blanks = (blank_rows - np.arange(blank_rows.size)).tolist()  # records read before each blank row
    if blanks:
        kept = np.repeat(~blank, widths)
        starts, ends = starts[kept], ends[kept]
    if not ends.size:
        return None
    rows = ends.size // 4
    longest = [int((ends[j::4] - starts[j::4]).max()) for j in range(4)]  # each column's widest field
    # no field past the csv limit, a key matrix no larger than the file, and no more passes than max(rows, _FREE_PASSES)
    if any(w > csv.field_size_limit() or w > max(rows, _FREE_PASSES) or rows * w > body.size for w in longest):
        return None
    body[ends] = 0
    starts, ends = starts.reshape(-1, 4).T, ends.reshape(-1, 4).T
    response, refused = _response_codes(_byte_names(body, starts[3], ends[3], longest[3]), category_count)
    if refused is not None:  # the csv route words the refusal
        return None
    names = [_byte_names(body, starts[j], ends[j], longest[j]) for j in range(3)]
    return _Columns(*names, response), blanks


def _line(blanks: list[int], i: int) -> int:
    """The line of record ``i``: rows count from 1 at the header, blank rows included."""
    return 2 + i + bisect_right(blanks, i)


def _indexed(path: Path, columns: _Columns, category_count: int, blanks: list[int]) -> SurveyDataset:
    """The dataset of ``columns``; a bad record's error names its line."""
    try:
        return SurveyDataset._from_columns(columns, category_count)
    except _RowError as exc:
        raise InputError(f"{path}:{_line(blanks, exc.row)}: {exc}") from exc


def load_survey_csv(path: str | Path, category_count: int = 5) -> SurveyDataset:
    """Parse and validate a survey CSV; errors carry the offending line number.

    Rows count from 1 at the header, blank rows included. A UTF-8 byte-order
    mark is skipped. A plain file is parsed as bytes in numpy: after the
    mark it is ASCII with no NUL, no quote and no whitespace but ``\n``, its
    first line is exactly the header, every row is blank or 4 fields wide, no
    field is longer than ``csv.field_size_limit()``, and every response is
    empty or a decimal code 1..k, leading zeros allowed (``02`` reads 2; ``0``,
    ``00`` and codes past k do not pass). Each column is encoded by ``np.unique``
    over a zero-padded key matrix, one unsigned integer per row when the widest
    field fits 8 bytes. Any other file is read whole by ``csv.reader`` and
    stripped field by field, and so is one with a column that would need a key
    matrix larger than the file, or a field longer than both its column's row
    count and 64 bytes (the matrix is filled one byte position per pass). That
    route words every parse error. Both routes read responses with
    ``_response_codes``, which reads each distinct text once as ``int(text)``,
    so they give the same dataset on a plain file. A file whose first line is
    not the header costs the byte route one small read; one that fails later
    costs it a scan of the whole file first.
    """
    if category_count < 2:
        raise InputError(f"category count must be >= 2, got {category_count}")
    path = Path(path)
    if not path.exists():
        raise InputError(f"survey file not found: {path}")
    parsed = _byte_columns(path, category_count)
    if parsed is None:
        return _csv_rows(path, category_count)
    columns, blanks = parsed
    return _indexed(path, columns, category_count, blanks)


def _csv_rows(path: Path, category_count: int) -> SurveyDataset:
    """``load_survey_csv`` by ``csv.reader``, for any file."""
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

    response, stop = _response_codes(_encode(list(map(str.strip, fields[3::4]))), category_count)
    if stop is None and bad_row is not None:
        stop = len(response), bad_row
    elif stop is None and not response.size:
        raise InputError(f"{path}: no records")
    if response.size:  # the records before the refused one are checked first
        # the string columns live only until they are encoded
        names = (_encode(list(map(str.strip, fields[j : 4 * response.size : 4]))) for j in range(3))
        dataset = _indexed(path, _Columns(*names, response), category_count, blanks)
    if stop is not None:
        raise InputError(f"{path}:{_line(blanks, stop[0])}: {stop[1]}")
    return dataset


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
    """Refuse an ``alpha`` outside (0, 1), and any question or group the dataset lacks or that is listed twice."""
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
    for kind, names in (("question", questions), ("group", groups)):
        if len(set(names)) < len(names):
            repeated = next(name for i, name in enumerate(names) if name in names[:i])
            raise InputError(f"{kind} {repeated!r} is listed more than once")


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
