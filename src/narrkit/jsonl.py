"""Strict line-delimited JSON, shared by every narrkit reader.

Each line that holds more than JSON's whitespace must hold one JSON object,
decoded in one ``raw_decode`` call. ``NaN`` and ``Infinity`` are rejected, and
the ``want_*`` helpers check field types instead of coercing them; both raise a
plain ValueError. Every reader reads through ``records``, the one owner of where
a record is, which turns it into an InputError naming the source and 1-based
line. Readers open text with ``TEXT``, so a byte that is not UTF-8 is one too.

``write_manifest`` and ``format_match_record`` build each line with an
f-string from ``encode_str`` and ``encode_number``, which write exactly what
``json.dumps`` writes for a string and for a finite int or float, in ASCII.
"""

from __future__ import annotations

import json
import math
import re
from json.encoder import encode_basestring_ascii as encode_str
from typing import Iterable, Iterator

__all__ = ["InputError", "decode_object", "records", "want_choice", "want_int", "want_number", "want_str",
           "want_text"]


# How every reader opens text, so that decode_object sees each byte that is not UTF-8.
TEXT = {"encoding": "utf-8", "errors": "surrogateescape"}


def encode_number(value: float, key: str) -> str:
    """``value`` as ``json.dumps`` writes a finite int or float, subclasses included.

    ``{value!r}`` would not do: numpy 2 writes an ``np.float64`` as
    ``np.float64(1.5)``. Anything else, NaN and the infinities included,
    raises ValueError naming the field ``key``.
    """
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
    elif isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    raise ValueError(f"field '{key}' must be a finite number, got {value!r}")


class InputError(ValueError):
    """Malformed input. ``str()`` reads ``line N: reason``; ``source`` names the file."""

    def __init__(self, message: str, line: int | None = None, source: str = "<input>"):
        self.line = line
        self.source = source
        super().__init__(message if line is None else f"line {line}: {message}")


def stream_name(stream, default: str = "<input>") -> str:
    """A stream's ``name`` for error messages, or ``default`` when that is not a
    string: ``os.fdopen(fd).name`` is the descriptor, an int."""
    name = getattr(stream, "name", None)
    return name if isinstance(name, str) else default


class _NonFinite(ValueError):
    pass


def _reject_constant(name: str):
    raise _NonFinite(name)


class _DuplicateKey(ValueError):
    pass


def _unique_keys(pairs: list) -> dict:
    rec = dict(pairs)
    if len(rec) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise _DuplicateKey(key)
            seen.add(key)
    return rec


# One shared decoder: json.loads(text, parse_constant=...) builds a new
# decoder on every call, which doubles the cost of decoding a short line.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
# The same, rejecting a repeated key in any object. It costs about twice as much,
# so it decodes only a line that the screen below cannot clear.
_STRICT_DECODER = json.JSONDecoder(parse_constant=_reject_constant, object_pairs_hook=_unique_keys)
# Every key's closing quote is followed by optional whitespace and a colon, so a
# line with no more colons, or no more matches, than its decoded object has keys
# repeats none. Counting colons is the cheap first test.
_KEY_END = re.compile(r'"[ \t\n\r]*:')


def _non_finite_reason(text: str, constant: str) -> str:
    # The default decoder reads NaN and Infinity as floats, which finds the field.
    try:
        rec = json.loads(text)
    except (RecursionError, ValueError):
        rec = None
    for key, value in rec.items() if isinstance(rec, dict) else ():
        if isinstance(value, float) and not math.isfinite(value):
            return f"field '{key}' must be a finite number"
    return f"non-finite number {constant} is not allowed"


# Text read with TEXT holds each byte that is not UTF-8 as one of these lone
# surrogates; text decoded from valid UTF-8 holds none.
_RAW_BYTE = re.compile("[\udc80-\udcff]")


def decode_object(text: str) -> dict:
    """Decode one JSON object; anything else raises ValueError."""
    if not text.isascii() and _RAW_BYTE.search(text):
        raise ValueError("invalid UTF-8")
    text = text.lstrip(" \t\n\r")  # JSON's whitespace, which raw_decode does not skip
    try:
        rec, end = _DECODER.raw_decode(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg}") from exc
    except _NonFinite as exc:
        raise ValueError(_non_finite_reason(text, str(exc))) from exc
    except (RecursionError, ValueError) as exc:  # nested too deep, or an overlong integer
        raise ValueError(f"invalid JSON: {exc}") from exc
    if end != len(text) and text[end:].strip(" \t\n\r"):
        raise ValueError("invalid JSON: Extra data")
    if type(rec) is not dict:
        raise ValueError("record must be a JSON object")
    if text.count(":") > len(rec) and len(_KEY_END.findall(text)) > len(rec):
        try:
            _STRICT_DECODER.raw_decode(text)
        except _DuplicateKey as exc:
            raise ValueError(f"duplicate key '{exc}'") from exc
    return rec


class records:
    """``with records(lines) as recs: for rec in recs: ...`` yields each record line's object,
    its number in ``line`` (None once the lines run out); a ValueError raised in the block
    leaves as ``InputError(reason, line, source)``, and an InputError as it is."""

    def __init__(self, lines: Iterable[str], source: str | None = None):
        self.lines, self.line = lines, None
        self.source = stream_name(lines) if source is None else source

    def __enter__(self) -> records:
        return self

    def __iter__(self) -> Iterator[dict]:
        for self.line, raw in enumerate(self.lines, start=1):
            text = raw.strip(" \t\n\r")  # JSON's whitespace only
            if text:
                yield decode_object(text)
        self.line = None

    def __exit__(self, kind, exc, traceback) -> None:
        if isinstance(exc, ValueError) and not isinstance(exc, InputError):
            raise InputError(str(exc), self.line, self.source) from exc


def want_str(rec: dict, key: str) -> str:
    value = rec.get(key)
    if not isinstance(value, str) or not value:
        raise ValueError(f"field '{key}' must be a non-empty string")
    return value


def want_text(rec: dict, key: str) -> str:
    value = rec.get(key)
    if not isinstance(value, str):
        raise ValueError(f"field '{key}' must be a string")
    return value


def want_int(rec: dict, key: str) -> int:
    value = rec.get(key)
    if type(value) is int or (isinstance(value, int) and not isinstance(value, bool)):
        return value
    raise ValueError(f"field '{key}' must be an integer")


def want_number(rec: dict, key: str) -> float:
    value = rec.get(key)
    if type(value) is not float and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:  # an int or a float subclass becomes a plain float
            value = float(value)
        except OverflowError:  # an integer literal beyond the float range
            value = math.inf
    if type(value) is float and math.isfinite(value):
        return value
    raise ValueError(f"field '{key}' must be a finite number")


def want_choice(rec: dict, key: str, choices: tuple):
    value = rec.get(key)
    if value not in choices:
        raise ValueError(f"field '{key}' must be one of {choices}, got {value!r}")
    return value
