"""Exception types, and the checks the loaders share: reading a file,
reading a JSON file, the lines of a CSV file, finding a row list and whole
numbers."""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from pathlib import Path


class ValidationError(ValueError):
    """Malformed or out-of-contract input data."""


class CapacityLimitError(ValidationError):
    """A cost-table request exceeded the configured capacity ceiling."""


class InfeasibleError(RuntimeError):
    """The constraint system admits no allocation.

    Carries a structured ``report`` dict naming the violated condition so
    callers (and the CLI) can surface it without parsing the message.
    """

    def __init__(self, reason: str, **details):
        super().__init__(reason)
        self.report = {"reason": reason, **details}


def whole_number(value, what: str) -> int:
    """``value`` as an ``int`` if it is a finite whole number (or a string of
    one), else a ``ValidationError``: a loader never truncates 3.7 to 3 nor
    reads JSON ``true`` as 1."""
    if isinstance(value, bool):
        raise ValidationError(f"{what} must be a whole number, got {value}")
    if isinstance(value, float):
        if not value.is_integer():  # also False for NaN and infinities
            raise ValidationError(f"{what} must be a whole number, got {value}")
        return int(value)
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be a whole number, got {value!r}") from exc


@contextmanager
def reading(path, what: str):
    """Inside the block, a file at ``path`` that is missing, unreadable, not
    UTF-8 or not CSV is a ``ValidationError`` naming the ``what`` it should
    hold."""
    try:
        yield
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{path}: cannot read the {what} file: {exc}") from exc


def csv_lines(fh, path):
    """The lines of the open CSV file ``fh``, for ``csv.reader``. A line
    with a NUL byte is a ``ValidationError``: Python 3.10's reader refuses
    it and 3.11's reads it into a field, so a loader refuses it itself.
    The file is searched a block at a time and rewound; only a file that
    holds a NUL byte or is not UTF-8 is then read line by line through the
    check, so its faults still come in file order."""
    try:
        clean = not any("\0" in block for block in iter(lambda: fh.read(1 << 20), ""))
    except UnicodeDecodeError:
        clean = False
    fh.seek(0)
    return fh if clean else _checked_lines(fh, path)


def _checked_lines(fh, path):
    for number, line in enumerate(fh, start=1):
        if "\0" in line:
            raise ValidationError(f"{path}, line {number}: a CSV file may hold no NUL byte")
        yield line


def read_json(path, what: str):
    """The JSON document in the file at ``path``; a file that cannot be read
    or is not JSON is a ``ValidationError`` naming the ``what`` it should
    hold."""
    with reading(path, what):
        text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not a JSON {what} file: {exc}") from exc


def row_list(doc, key: str, what: str) -> list:
    """The rows of a document that is either a list of them or an object
    holding that list under ``key``."""
    rows = doc.get(key) if isinstance(doc, dict) else doc
    if not isinstance(rows, (list, tuple)):
        raise ValidationError(f"the {what} document must be a list or an object with a {key!r} list")
    return rows
