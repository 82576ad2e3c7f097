"""The shared atomic writer: a failed write keeps the old file and leaves
no temporary file behind."""

import os

import numpy as np
import pytest

from kgrec.textio import atomic_open, atomic_write


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
