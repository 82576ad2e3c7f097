"""The CSR operator: its products and stored arrays are scipy.sparse's byte
for byte, it rejects arrays the compiled loop would read out of bounds, and
scipy.sparse imported after it still works."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import example, given, settings, strategies as st

import kgrec
import kgrec.csr as csr
from kgrec.csr import CsrOperator

_VALUES = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 5e-324])


def _block(draw, rows, layout):
    """A (rows, k) float64 block, k from 1 to 4, C-ordered, F-ordered or a
    strided view."""
    k = draw(st.integers(1, 4))
    full = np.array(draw(st.lists(_VALUES, min_size=2 * rows * (k + 1),
                                  max_size=2 * rows * (k + 1))),
                    dtype=np.float64).reshape(2 * rows, k + 1)
    if layout == "strided":
        return full[::2, 1:]
    x = full[:rows, :k]
    return np.asfortranarray(x) if layout == "f" else np.ascontiguousarray(x)


@st.composite
def _products(draw):
    """(indptr, indices, data, shape, x, y): rows may be empty and may repeat
    a column, as the TransE incidence does; x has n_cols rows, y n_rows."""
    n_rows, n_cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    lengths = [draw(st.integers(0, 5 if n_cols else 0)) for _ in range(n_rows)]
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    nnz = int(indptr[-1])
    indices = np.array(draw(st.lists(st.integers(0, max(n_cols - 1, 0)), min_size=nnz,
                                     max_size=nnz)), dtype=np.int64)
    data = np.array(draw(st.lists(_VALUES, min_size=nnz, max_size=nnz)), dtype=np.float64)
    layout = draw(st.sampled_from(["c", "f", "strided"]))
    return (indptr, indices, data, (n_rows, n_cols), _block(draw, n_cols, layout),
            _block(draw, n_rows, layout))


@settings(max_examples=300, deadline=None)
@given(_products(), st.booleans())
# a +-1 incidence: a row that repeats a column, an empty row
@example((np.array([0, 3, 3, 4]), np.array([1, 1, 0, 0]), np.array([1.0, -1.0, 1.0, -1.0]),
          (3, 2), np.arange(4.0).reshape(2, 2) / 3, np.arange(6.0).reshape(3, 2) / 7), False)
def test_products_match_scipy_sparse_bytes(case, wide_index):
    indptr, indices, data, shape, x, y = case
    with pytest.MonkeyPatch.context() as mp:
        if wide_index:  # int64, as stored past 2**31 - 1 rows, columns or entries
            mp.setattr(csr, "_INT32_MAX", -1)
        a = CsrOperator(indptr, indices, data, shape)
    want = sparse.csr_matrix((data, indices, indptr), shape=shape)
    for name in ("indptr", "indices", "data"):
        got = getattr(a, name)
        assert got.dtype == (np.int64 if wide_index and name != "data"
                             else getattr(want, name).dtype)
        assert np.array_equal(got, getattr(want, name)) and not got.flags.writeable
    assert (a @ x).tobytes() == (want @ x).tobytes()
    assert (a.T @ y).tobytes() == (want.T @ y).tobytes()
    assert (a.T.T @ x).tobytes() == (want @ x).tobytes()
    assert a.T.shape == shape[::-1] and a.T.indices is a.indices


def _valid():
    return np.array([0, 2, 2, 3]), np.array([0, 2, 1]), np.array([0.5, 0.5, 1.0]), (3, 3)


@pytest.mark.parametrize("change, needle", [
    ({"indices": np.array([0, 3, 1])}, r"column index outside \[0, 3\)"),
    ({"indices": np.array([0, -1, 1])}, r"column index outside \[0, 3\)"),
    ({"indptr": np.array([1, 2, 2, 3])}, "indptr must rise from 0 to 3"),
    ({"indptr": np.array([0, 2, 1, 3])}, "indptr must rise from 0 to 3"),
    ({"indptr": np.array([0, 2, 2, 2])}, "indptr must rise from 0 to 3"),
    ({"indptr": np.array([0, 2, 3])}, "indptr of length 3 for 3 rows"),
    ({"indices": np.array([0, 2])}, "2 indices for 3 values"),
    ({"data": np.array([0.5, 0.5])}, "3 indices for 2 values"),
    ({"data": np.array([1, 1, 1])}, "float64 data expected"),
    ({"indices": np.array([0.0, 2.0, 1.0])}, "integer indptr and indices expected"),
    ({"indptr": np.array([[0, 2, 2, 3]])}, "must be 1-D"),
    ({"shape": (3, -1)}, "negative shape"),
])
def test_construction_rejects_arrays_the_kernel_would_overrun(change, needle):
    indptr, indices, data, shape = _valid()
    args = {"indptr": indptr, "indices": indices, "data": data, "shape": shape, **change}
    with pytest.raises(ValueError, match=needle):
        CsrOperator(**args)


def test_products_reject_a_block_of_the_wrong_shape():
    a = CsrOperator(*_valid()[:3], (3, 4))
    for op, x in ((a, np.ones((3, 2))), (a.T, np.ones((4, 2)))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            op @ x
    for x in (np.ones(4), np.ones((4, 2), dtype=np.float32)):
        with pytest.raises(ValueError, match="2-D float64"):
            a @ x


def test_scipy_sparse_imported_after_kgrec_gives_the_same_bytes():
    code = """
import sys
import numpy as np
from kgrec.csr import CsrOperator
assert not any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
indptr, indices = np.array([0, 2, 2, 5]), np.array([1, 1, 0, 2, 1])
data = np.array([0.5, -1.0, 3.0, 0.25, 1e300])
x = np.arange(12.0).reshape(3, 4) / 7
a = CsrOperator(indptr, indices, data, (3, 3))
before = (a @ x).tobytes() + (a.T @ x).tobytes()
import scipy.sparse as sparse
s = sparse.csr_matrix((data, indices, indptr), shape=(3, 3))
assert (s @ x).tobytes() + (s.T @ x).tobytes() == before
assert (a @ x).tobytes() + (a.T @ x).tobytes() == before
print("same")
"""
    env = dict(os.environ, PYTHONPATH=str(Path(kgrec.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120,
                         capture_output=True, text=True).stdout
    assert out.split() == ["same"]
