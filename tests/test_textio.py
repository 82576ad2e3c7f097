"""The text formats: a failed atomic write keeps the old file and leaves no
temporary file behind, malformed CSV, TSV and config input (bytes that are
not UTF-8 too) raises ValueError naming its file and line, the row reader
and the config and spec readers skip a leading byte-order mark, the row
reader skips blank and whitespace-only lines,
written rows read back, and flat text reads back or refuses to be
written."""

import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgrec.experiments import ExperimentConfig, _read_per_user, ingest, parse_config
from kgrec.graph import read_triples
from kgrec.synth import SynthSpec, generate, parse_spec, write_dataset
from kgrec.textio import (atomic_open, atomic_write, field_casters, flat_text, parse_flat,
                          read_rows, rows_text)


def test_failed_write_keeps_old_bytes_and_no_temporary_file(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_bytes(b"old\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_write(str(path), "new \ud800\n")  # a lone surrogate has no UTF-8 form
    with pytest.raises(RuntimeError), atomic_open(str(path), "wb") as fh:
        np.save(fh, np.zeros(3))
        raise RuntimeError("interrupted after a partial write")
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["curve.csv"]

    atomic_write(str(path), "new\n")
    assert path.read_bytes() == b"new\n"
    assert os.listdir(tmp_path) == ["curve.csv"]


# -- malformed input names its file and line -----------------------------

HEADER = "user,reward,precision,recall"
finite = st.floats(allow_nan=False, allow_infinity=False)
per_user_rows = st.lists(st.tuples(st.integers(-10**6, 10**6), finite, finite, finite),
                         max_size=6)
# tokens with no digit, so neither int() nor float() accepts them ("nan" and
# "inf" cannot be spelled either)
junk = st.text(alphabet="abxyz.-_ ", max_size=4).map(str.strip)
SPEC_CASTERS = field_casters(SynthSpec)


# every reader skips these as blank, wherever they stand in the file
blank = st.sampled_from(["", "   ", " \t ", "\t"])


def _strewn(lines, data):
    """`lines` with blank and whitespace-only lines strewn before, between
    and after them."""
    body = [line for row in lines
            for line in data.draw(st.lists(blank, max_size=2)) + [row]]
    return body + data.draw(st.lists(blank, max_size=2))


def _with_line(lines, bad, data, first):
    """`lines` with blank lines strewn in and `bad` inserted; the file text
    and the line number (counting from `first`) of `bad`."""
    body = _strewn(lines, data)
    at = data.draw(st.integers(0, len(body)))
    body.insert(at, bad)
    return "".join(f"{line}\n" for line in body), first + at


def _raises_at(call, path, lineno):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value).startswith(f"{path}:{lineno}: "), str(err.value)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), rows=per_user_rows, kind=st.sampled_from(["width", "junk", "nonfinite"]))
def test_malformed_per_user_rows_raise_with_their_line(tmp_path_factory, data, rows, kind):
    if kind == "width":
        fields = st.text(alphabet="0123456789.-abc", min_size=1, max_size=5)
        bad = ",".join(data.draw(st.lists(fields, min_size=1, max_size=7)
                                 .filter(lambda f: len(f) != 4)))
    else:
        cells = ["7", "0.5", "0.25", "0.125"]
        column = data.draw(st.integers(0 if kind == "junk" else 1, 3))
        cells[column] = data.draw(junk if kind == "junk" else
                                  st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"]))
        bad = ",".join(cells)
    text, lineno = _with_line(rows_text(rows).splitlines(), bad, data, first=2)
    path = tmp_path_factory.mktemp("per_user") / "report_users.csv"
    path.write_text(f"{HEADER}\n{text}")
    _raises_at(lambda: _read_per_user(str(path)), path, lineno)
    if kind == "width":
        _raises_at(lambda: list(read_rows(str(path), ",", (4,), HEADER, HEADER)), path, lineno)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), widths=st.sampled_from([(2,), (3,), (3, 4)]))
def test_malformed_tsv_rows_raise_with_their_line(tmp_path_factory, data, widths):
    token = st.text(alphabet="abc0123456789.", min_size=1, max_size=4)
    row = st.integers(0, len(widths) - 1).flatmap(
        lambda k: st.lists(token, min_size=widths[k], max_size=widths[k]))
    good = ["\t".join(fields) for fields in data.draw(st.lists(row, max_size=6))]
    bad = "\t".join(data.draw(st.lists(token, min_size=1, max_size=6)
                              .filter(lambda f: len(f) not in widths)))
    text, lineno = _with_line(good, bad, data, first=1)
    path = tmp_path_factory.mktemp("tsv") / "rows.tsv"
    path.write_text(text)
    _raises_at(lambda: list(read_rows(str(path), "\t", widths, "a row")), path, lineno)
    # without the bad line, exactly the good rows come back, at their lines
    body = _strewn(good, data)
    path.write_text("".join(f"{line}\n" for line in body))
    want = [(n, line.split("\t")) for n, line in enumerate(body, start=1) if line.strip()]
    assert list(read_rows(str(path), "\t", widths, "a row")) == want


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["no_equals", "unknown", "duplicate", "value"]))
def test_malformed_config_lines_raise_with_their_line(data, kind):
    keys = data.draw(st.lists(st.sampled_from(sorted(SPEC_CASTERS)), unique=True, min_size=1))
    value = {"int": st.integers(-99, 99).map(str), "float": finite.map(repr)}
    good = [f"{key} = {data.draw(value[SynthSpec.__dataclass_fields__[key].type])}"
            for key in keys]
    good += data.draw(st.lists(st.sampled_from(["# a comment", "  ", "# x = 1"]), max_size=3))
    if kind == "no_equals":
        bad = data.draw(st.text(alphabet="abc xyz", min_size=1).filter(str.strip))
    elif kind == "unknown":
        bad = f"{data.draw(st.text(alphabet='xyz_', min_size=1))} = 1"
    elif kind == "duplicate":
        bad = f"{keys[0]} = 1"
    else:
        bad = f"{keys[0]} = {data.draw(junk)}"
    if kind == "duplicate":  # after the line that sets the key first
        text, lineno = _with_line(good[1:], bad, data, first=2)
        text = f"{good[0]}\n{text}"
    else:
        text, lineno = _with_line(good, bad, data, first=1)
    _raises_at(lambda: parse_flat(text, SPEC_CASTERS, "spec.conf"), "spec.conf", lineno)
    text = "".join(f"{line}\n" for line in _strewn(good, data))
    assert sorted(parse_flat(text, SPEC_CASTERS, "spec.conf")) == sorted(keys)


def test_hash_starts_a_comment_only_at_line_start_or_after_whitespace():
    casters = {"path": str, "n": int}
    text = "# header\npath = /runs/exp#1/r#.tsv\t# a note\n  # indented\nn = 3 #\n"
    assert parse_flat(text, casters, "t") == {"path": "/runs/exp#1/r#.tsv", "n": 3}
    assert parse_flat("path = #1\n", casters, "t") == {"path": ""}
    assert flat_text([("path", "/runs/exp#1/r#.tsv")]) == "path = /runs/exp#1/r#.tsv\n"


@pytest.mark.parametrize("value", [" lead", "trail ", "two\nlines", "a\rb", "#1", "exp #1",
                                   "tab\t#"])
def test_flat_text_rejects_a_value_that_would_not_read_back(value):
    with pytest.raises(ValueError, match="'path'"):
        flat_text([("n", 3), ("path", value)])


@settings(max_examples=100, deadline=None)
@given(data=st.data(), rows=per_user_rows)
def test_rows_text_round_trips_through_read_rows(tmp_path_factory, data, rows):
    body = _strewn(rows_text(rows).splitlines(), data)
    path = tmp_path_factory.mktemp("round_trip") / "report_users.csv"
    path.write_text("".join(f"{line}\n" for line in [HEADER, *body]))
    read = list(read_rows(str(path), ",", (4,), HEADER, HEADER))
    assert [lineno for lineno, _ in read] == [n for n, line in enumerate(body, start=2)
                                              if line.strip()]
    assert [(int(u), *map(float, metrics)) for _, (u, *metrics) in read] == rows
    users, *metrics = _read_per_user(str(path))
    assert users.tolist() == [u for u, *_ in rows]
    for k, column in enumerate(metrics, start=1):
        assert column.tolist() == [row[k] for row in rows]


def test_read_rows_keeps_field_whitespace_and_compares_the_header_stripped(tmp_path):
    tsv = tmp_path / "rows.tsv"
    tsv.write_text(" a \t b \n \n\tc \n")
    assert list(read_rows(str(tsv), "\t", (2,), "a row")) == [(1, [" a ", " b "]),
                                                             (3, ["", "c "])]
    csv = tmp_path / "report_users.csv"
    csv.write_text(f"  {HEADER} \n7,0.5,0.25,0.125\n")
    assert list(read_rows(str(csv), ",", (4,), HEADER, HEADER)) == [
        (2, ["7", "0.5", "0.25", "0.125"])]
    csv.write_text("user,reward\n7,0.5\n")
    with pytest.raises(ValueError) as err:
        list(read_rows(str(csv), ",", (4,), HEADER, HEADER))
    assert "'user,reward'" in str(err.value) and repr(HEADER) in str(err.value)


def test_numpy_scalars_are_written_as_plain_numbers():
    assert rows_text([(np.float64(0.5), np.int64(3))], "a,b") == "a,b\n0.5,3\n"
    assert rows_text([("i0", np.float64(-0.1))], sep="\t") == "i0\t-0.1\n"
    assert flat_text([("x", np.float64(0.25))]) == "x = 0.25\n"


# (header, row k) of each file kind the row reader serves
ROW_FILES = {"ratings": (None, lambda k: f"u{k % 7}\ti{k}\t4.0"),
             "triples": (None, lambda k: f"e{k}\tr\te{k + 1}"),
             "per_user": (HEADER, lambda k: f"{k},0.5,0.25,0.125")}


def _read_file(kind, path):
    if kind == "ratings":
        return ingest(ExperimentConfig(ratings=path))
    if kind == "triples":
        return list(read_triples(path))
    return _read_per_user(path)


@pytest.mark.parametrize("kind", sorted(ROW_FILES))
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("bad, at, rows", [(b"\xff", 1, 3), (b"\xed\xa0\x80", 2, 3),
                                           (b"\xe2\x82", 2, 3), (b"\xc3", 1_500, 2_000)])
def test_bytes_that_are_not_utf8_raise_with_their_line(tmp_path, kind, newline, bad, at, rows):
    # a bad byte in row `at`: on the first line, inside a row, at the end of
    # the file (a cut sequence), and past the reader's first decoded block
    header, row = ROW_FILES[kind]
    lines = [row(k).encode() for k in range(rows)]
    lines[at] = lines[at][:2] + bad + lines[at][2:] if at < rows - 1 else lines[at] + bad
    lines = ([] if header is None else [header.encode()]) + lines
    end = newline.encode()
    text = end.join(lines) + (end if at < rows - 1 else b"")
    path = tmp_path / "rows.txt"
    path.write_bytes(text)
    lineno = at + 1 + (header is not None)
    with pytest.raises(ValueError, match=f"^{path}:{lineno}: not valid UTF-8$"):
        _read_file(kind, str(path))


def test_a_byte_order_mark_is_not_part_of_the_first_field(tmp_path):
    paths = write_dataset(str(tmp_path / "plain"), generate(SynthSpec(users=20, seed=4)))
    marked = {}
    for role, path in paths.items():
        marked[role] = str(tmp_path / f"bom_{role}.tsv")
        with open(path, "rb") as src, open(marked[role], "wb") as dst:
            dst.write(b"\xef\xbb\xbf" + src.read())
    plain, bom = (ingest(ExperimentConfig(**files)) for files in (paths, marked))
    for name in ("users", "items", "ratings"):
        assert getattr(bom, name).tobytes() == getattr(plain, name).tobytes()
    assert (bom.user_tokens, bom.item_tokens) == (plain.user_tokens, plain.item_tokens)
    assert (bom.n_users, bom.n_items, bom.unlinked_count) == (plain.n_users, plain.n_items, 0)
    assert bom.graph.triples.tobytes() == plain.graph.triples.tobytes()
    assert bom.graph.entity_tokens == plain.graph.entity_tokens
    assert bom.graph.item_to_entity == plain.graph.item_to_entity

    per_user = tmp_path / "report_users.csv"
    per_user.write_bytes(f"\ufeff{HEADER}\n7,0.5,0.25,0.125\n".encode())
    users, *metrics = _read_per_user(str(per_user))
    assert users.tolist() == [7] and [m.tolist() for m in metrics] == [[0.5], [0.25], [0.125]]


# (reader, text, the fields it sets) of each flat `key = value` file kind
FLAT_FILES = {"config": (parse_config, "ratings = r.tsv\nbudget = 40\n",
                         lambda cfg: (cfg.ratings, cfg.budget)),
              "spec": (parse_spec, "users = 9\nclusters = 3\n",
                       lambda spec: (spec.users, spec.clusters))}


@pytest.mark.parametrize("kind", sorted(FLAT_FILES))
def test_flat_files_drop_a_byte_order_mark(tmp_path, kind):
    read, text, values = FLAT_FILES[kind]
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert values(read(str(marked))) == values(read(str(plain)))


@pytest.mark.parametrize("kind", sorted(FLAT_FILES))
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("at", [0, 1])
def test_flat_files_with_bytes_that_are_not_utf8_raise_with_their_line(tmp_path, kind, newline,
                                                                      at):
    # the bad byte sits in a comment, so only the decoding can fail
    read, text, _ = FLAT_FILES[kind]
    lines = text.encode().splitlines()
    lines[at] += b"  # caf\xff"
    path = tmp_path / "bad.cfg"
    path.write_bytes(newline.encode().join(lines) + newline.encode())
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{at + 1}: not valid UTF-8$"):
        read(str(path))
