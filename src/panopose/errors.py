"""Shared exception types."""


class ValidationError(ValueError):
    """Input data violates a documented contract (bad file, bad shape, bad value)."""


class RowError(ValueError):
    """Row ``row`` of a column breaks a value rule; the message does not
    name the row, so a caller can say where it sits."""

    def __init__(self, row: int, message: str) -> None:
        super().__init__(message)
        self.row = row
