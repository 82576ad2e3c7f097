"""The on-disk text formats: flat `key = value` files, delimited rows (the
TSV data files and the CSV run files), and atomic writes."""

from __future__ import annotations

import os
import re
from contextlib import contextmanager
from dataclasses import fields
from typing import Iterator

_BOOLS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}
_CASTS = {"int": int, "float": float, "str": str, "bool": lambda v: _BOOLS[v.lower()],
          "tuple[int, ...]": lambda v: tuple(int(tok) for tok in v.split(",") if tok.strip())}
# a `#` at the start of a line or after whitespace starts a comment
_COMMENT = re.compile(r"(?:^|\s)#")
# the lone surrogates that the surrogateescape handler reads bytes as
_ESCAPED = re.compile("[\udc80-\udcff]")


def _or_none(cast):
    return lambda value: None if value.lower() in ("none", "auto") else cast(value)


def field_casters(cls) -> dict:
    """A caster per field of dataclass `cls`, chosen by its annotation; an
    `X | None` field also takes "none" or "auto"."""
    casters = {}
    for f in fields(cls):
        kind, _, optional = f.type.partition(" | ")
        casters[f.name] = _or_none(_CASTS[kind]) if optional == "None" else _CASTS[kind]
    return casters


def parse_flat(text: str, casters: dict, source: str) -> dict:
    """Flat `key = value` text to {key: cast value}; a `#` at the start of a
    line or after whitespace starts a comment, any other `#` is text.

    A line without `=`, an unknown or repeated key and a value its caster
    rejects raise ValueError prefixed with `source:lineno:`.
    """
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(line, maxsplit=1)[0].strip()
        if not line:
            continue
        where = f"{source}:{lineno}"
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not eq:
            raise ValueError(f"{where}: expected 'key = value', got {line!r}")
        if key not in casters:
            raise ValueError(f"{where}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"{where}: duplicate key {key!r}")
        try:
            values[key] = casters[key](value)
        except (KeyError, ValueError):
            raise ValueError(f"{where}: cannot parse {value!r} for key {key!r}") from None
    return values


def flat_text(pairs) -> str:
    """`key = value` lines for (key, value) pairs, as `field_casters` reads
    them. A value that would not read back (leading or trailing whitespace,
    a line break, a `#` that `parse_flat` takes for a comment) raises
    ValueError naming its key."""
    lines = []
    for key, value in pairs:
        text = _format_value(value)
        if text != text.strip() or len(text.splitlines()) > 1 or _COMMENT.search(text):
            raise ValueError(f"value of {key!r} would not read back: {text!r}")
        lines.append(f"{key} = {text}\n")
    return "".join(lines)


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # a numpy float's repr is `np.float64(...)`
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def read_rows(path: str, sep: str, widths: tuple[int, ...], what: str,
              header: str | None = None) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) per non-blank line of a UTF-8 file, split on
    `sep` and read as iterated; a leading byte-order mark is dropped, and a
    line of only whitespace is blank. With `header`, the first line
    (stripped) must be it and rows count from line 2. A field count outside
    `widths` or a byte sequence that is not UTF-8 raises ValueError with
    the path and line."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            if header is not None:
                first = fh.readline().strip()
                if first != header:
                    raise ValueError(f"{path}: unexpected header {first!r}, expected {header!r}")
            for lineno, line in enumerate(fh, start=1 if header is None else 2):
                if not line.strip():
                    continue
                parts = line.rstrip("\n").split(sep)
                if len(parts) not in widths:
                    raise ValueError(f"{path}:{lineno}: expected {what}, "
                                     f"got {len(parts)} fields separated by {sep!r}")
                yield lineno, parts
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def read_text(path: str) -> str:
    """The whole of a UTF-8 file, read as `read_rows` reads it: without a
    leading byte-order mark, and ValueError("path:line: not valid UTF-8")
    for bytes that are not UTF-8."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _not_utf8(path: str) -> ValueError:
    # read again with each undecodable byte as a lone surrogate, which
    # valid UTF-8 never decodes to; lines count as in the first read
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lineno = next(n for n, line in enumerate(fh, start=1) if _ESCAPED.search(line))
    return ValueError(f"{path}:{lineno}: not valid UTF-8")


def rows_text(rows, header: str | None = None, sep: str = ",") -> str:
    """The header line if given, then one `sep`-joined line per row of
    values, as `read_rows` reads them."""
    lines = [] if header is None else [header]
    lines += (sep.join(map(_format_value, row)) for row in rows)
    return "".join(f"{line}\n" for line in lines)


@contextmanager
def atomic_open(path: str, mode: str = "w"):
    """Write through a temporary file beside `path`: it replaces `path` when
    the block completes and is removed when the block raises, so `path`
    holds its old bytes or all of the new ones. The temporary file is
    created like any other (the umask sets its mode), under a name no
    other process uses."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write(path: str, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)
