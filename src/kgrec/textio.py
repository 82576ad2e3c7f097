"""The on-disk text formats: flat `key = value` files, TSV and CSV rows,
and atomic writes."""

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
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def read_tsv(path: str, widths: tuple[int, ...], what: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) per non-blank line of a UTF-8 TSV file, read as
    iterated; a line of only whitespace is blank. A field count outside
    `widths` raises ValueError with the path and line."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) not in widths:
                raise ValueError(f"{path}:{lineno}: expected {what}, "
                                 f"got {len(parts)} tab-separated fields")
            yield lineno, parts


def csv_text(header: str, rows) -> str:
    """The header line, then one comma-joined line per row of values."""
    lines = [header, *(",".join(_format_value(v) for v in row) for row in rows)]
    return "".join(f"{line}\n" for line in lines)


def read_csv(path: str, header: str) -> list[tuple[int, list[str]]]:
    """(line number, fields) per comma-split non-blank line after the first,
    which must be `header`; a row whose field count differs from the
    header's raises ValueError with the path and line."""
    width = header.count(",") + 1
    rows = []
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
        if first != header:
            raise ValueError(f"{path}: unexpected header {first!r}, expected {header!r}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.strip().split(",")
            if len(parts) != width:
                raise ValueError(f"{path}:{lineno}: expected {width} comma-separated fields "
                                 f"({header}), got {len(parts)}")
            rows.append((lineno, parts))
    return rows


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
