"""Shared exception types."""

from bisect import bisect_right
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
