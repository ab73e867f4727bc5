"""Shared exception types, the one JSON reader of the input formats
(:func:`_json_object`), the one way a fault names its file (:func:`_in_file`)
and the one descriptor test (:func:`_descriptor`) and opener (:func:`_direct`)
of an output that is not staged, which says whether it opened a regular file.

One rule words each kind of input fault that needs no numpy: an argument of
the wrong type (:func:`_kind`), a numeric parameter (:func:`_check_number`),
a JSON object's fields (:func:`_fields`) and a column's first failing row
(:func:`_first`), whose frame and person :func:`_located` names. The array
rule, ``geometry._shaped``, needs numpy."""

import json
import math
import os
import stat
from bisect import bisect_right
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Sequence


class ValidationError(ValueError):
    """Input data violates a documented contract (bad file, bad shape, bad value)."""


class RowError(ValidationError):
    """Row ``row`` of a column breaks a value rule; the message does not
    name the row, so a caller can say where it sits (:func:`_located`) or,
    for a column of one such as ``metrics.oks``'s pose, raise it as it is."""

    def __init__(self, row: int, message: str) -> None:
        super().__init__(message)
        self.row = row


def _where(frame_ids: Sequence[str], offsets: Sequence[int], row: int) -> str:
    """Location of person row ``row``: its frame id and index in the frame."""
    f = bisect_right(offsets, row) - 1
    return f"frame {frame_ids[f]!r}, person {row - int(offsets[f])}"


def _kind(name: str, value: Any, *kinds: type) -> Any:
    """``value`` when it is an instance of one of ``kinds``; anything else
    raises ``ValidationError("<name> must be <kinds>, got <value>")``, the
    kinds by class name, ``type(None)`` as None, and the value by ``repr``."""
    if not isinstance(value, kinds):
        words = " or ".join("None" if kind is type(None) else kind.__name__ for kind in kinds)
        raise ValidationError(f"{name} must be {words}, got {value!r}")
    return value


def _check_number(name: str, value: Any, low: float = 0.0, high: float = math.inf,
                  closed: bool = False) -> float:
    """``value`` as a float when it lies between ``low`` and ``high``, ends
    included when ``closed`` (an infinite end never is); anything else, a
    non-number too, raises ``ValidationError("<name> must be in <interval>,
    got <value>")``."""
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite, value = False, "an integer beyond float range"
    except TypeError:
        finite, value = False, repr(value)
    if not (finite and (low <= value <= high if closed else low < value < high)):
        left = "[" if closed and math.isfinite(low) else "("
        right = "]" if closed and math.isfinite(high) else ")"
        raise ValidationError(f"{name} must be in {left}{low:g}, {high:g}{right}, got {value}")
    return float(value)


def _fields(obj: Any, required: Sequence[str], optional: Iterable[str], where: str) -> None:
    """Raise ``ValidationError`` unless ``obj`` is a JSON object with every
    ``required`` field and no field but those and the ``optional`` ones:
    ``<where> must be an object``, ``<where>: missing field(s) [...]`` (in
    ``required`` order) or ``<where>: unexpected field(s) [...]`` (sorted)."""
    if type(obj) is not dict:
        raise ValidationError(f"{where} must be an object")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ValidationError(f"{where}: missing field(s) {missing}")
    extra = sorted(obj.keys() - set(required) - set(optional))
    if extra:
        raise ValidationError(f"{where}: unexpected field(s) {extra}")


def _first(valid: Any, message: str) -> None:
    """Raise ``RowError(row, message)`` at the first False row of the ``[N]``
    boolean array ``valid``."""
    if not valid.all():
        raise RowError(int(valid.argmin()), message)


def _located(frame_ids: Sequence[str], offsets: Sequence[int], call: Callable[..., Any], *args: Any,
             rows: Sequence[int] | None = None, prefix: str = "") -> Any:
    """``call(*args)``, raising a :class:`RowError` of row ``r`` (person row ``rows[r]``
    where given) as ``ValidationError("<prefix><frame, person>: <what>")``."""
    try:
        return call(*args)
    except RowError as exc:
        row = exc.row if rows is None else int(rows[exc.row])
        raise ValidationError(f"{prefix}{_where(frame_ids, offsets, row)}: {exc}") from exc


def _in_file(path: str, call: Callable[..., Any], *args: Any) -> Any:
    """``call(*args)``, naming ``path`` in a :class:`ValidationError` or an
    ``OSError`` it raises: ``<path>: <message>``."""
    try:
        return call(*args)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc


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


def _descriptor(path: str | Path) -> int | None:
    """The descriptor of this process that ``path`` names, as ``/dev/stdout``
    does, or None: a link in ``/proc/<pid>/fd`` (Linux) or ``/dev/fd``
    (macOS) on its chain of links, read one at a time (``realpath`` looks
    through it). Opened anew, its file would be truncated and written from
    the start; a writer writes a duplicate of the descriptor instead."""
    for _ in range(40):  # as many links as Linux follows
        head, name = os.path.split(path)
        if name.isdecimal() and os.path.realpath(head) in (f"/proc/{os.getpid()}/fd", "/dev/fd"):
            return int(name)
        try:
            path = os.path.join(head, os.readlink(path))
        except OSError:  # not a link, or not there
            return None
    return None


def _direct(path: str | Path) -> tuple[BinaryIO, os.stat_result | None]:
    """A duplicate of the descriptor ``path`` names, else ``path`` opened to write, created and not truncated;
    with its status when ``path`` opened a regular file, written from its start, and None for a descriptor,
    a FIFO or a device, written at its position. ``path``'s links are walked once, so the two agree."""
    fd = _descriptor(path)
    fh = open(path, "wb", opener=lambda name, _: os.open(name, os.O_WRONLY | os.O_CREAT, 0o666)
              if fd is None else os.dup(fd))
    opened = os.fstat(fh.fileno())
    return fh, opened if fd is None and stat.S_ISREG(opened.st_mode) else None
