"""Shared loader for values given either as a JSON file path or inline JSON."""

from __future__ import annotations

import json
from pathlib import Path

from .errors import InputError

__all__ = ["read_json_source"]


def read_json_source(source, what: str):
    """Parse ``source`` as JSON: inline if it looks like a document, else a file path."""
    text = str(source)
    if not text.lstrip().startswith(("{", "[")):
        path = Path(text)
        if not path.exists():
            raise InputError(f"{what} file not found: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {what} file {path}: {exc}") from exc
    try:
        return json.loads(text)
    # ValueError also covers integers past the digit limit, RecursionError deep nesting
    except (RecursionError, ValueError) as exc:
        raise InputError(f"invalid {what} JSON: {exc}") from exc
