"""Shared exception types, and the one JSON reader of the input formats:
datasets, mapping files and container headers (:func:`_json_object`)."""

import json
from bisect import bisect_right
from pathlib import Path
from typing import Sequence


class ValidationError(ValueError):
    """Input data violates a documented contract (bad file, bad shape, bad value)."""


class RowError(ValueError):
    """Row ``row`` of a column breaks a value rule; the message does not
    name the row, so a caller can say where it sits (:func:`_where`)."""

    def __init__(self, row: int, message: str) -> None:
        super().__init__(message)
        self.row = row


def _where(frame_ids: Sequence[str], offsets: Sequence[int], row: int) -> str:
    """Location of person row ``row``: its frame id and index in the frame."""
    f = bisect_right(offsets, row) - 1
    return f"frame {frame_ids[f]!r}, person {row - int(offsets[f])}"


def _json_object(source: str | bytes | Path, prefix: str = "parse error",
                 repeated: str = "duplicate key {!r}") -> dict:
    """The top-level object of a JSON document: ``source``, its UTF-8 bytes or
    the UTF-8 file at a :class:`~pathlib.Path`. Not UTF-8, not JSON, too deep,
    an integer literal too long for ``int`` (Python 3.11 refuses more than
    4300 digits), a key named twice in an object (``repeated`` formatted with
    the key) or a top level not an object raise
    ``ValidationError("<prefix>: ...")``."""

    def unique(pairs: list[tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            names = [name for name, _ in pairs]
            name = next(n for i, n in enumerate(names) if n in names[:i])
            raise ValidationError(f"{prefix}: {repeated.format(name)}")
        return obj

    try:
        text = source.read_text(encoding="utf-8") if isinstance(source, Path) else source
        doc = json.loads(text if isinstance(text, str) else text.decode("utf-8"),
                         object_pairs_hook=unique)
    except ValidationError:  # a repeated key, worded by ``unique``
        raise
    except (ValueError, RecursionError) as exc:  # decode and JSON errors are ValueErrors
        raise ValidationError(f"{prefix}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{prefix}: top level must be an object")
    return doc
