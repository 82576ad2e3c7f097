"""A compressed-sparse-row operator on scipy's compiled product kernels.

`CsrOperator @ x` and `CsrOperator.T @ x` call scipy's `csr_matvecs` and
`csc_matvecs` once on a zeros result, as `scipy.sparse` does, so their
bytes are scipy's. The kernels come from scipy's `sparse/_sparsetools`
extension, loaded by file path: neither `scipy` nor `scipy.sparse` is
imported, which saves about 15 MiB of resident memory per process.
"""

from __future__ import annotations

import copy
import importlib.machinery
import importlib.util
import operator
import os

import numpy as np


def _load_sparsetools():
    """scipy's `sparse/_sparsetools` extension, loaded as `kgrec._sparsetools`.
    Its init function is found by the last part of the name, and the module
    registers itself in `sys.modules` under the name given, so scipy's own
    name would list a scipy module there."""
    spec = importlib.util.find_spec("scipy")
    roots = list(spec.submodule_search_locations or []) if spec is not None else []
    tried = []
    for root in roots:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader("kgrec._sparsetools", path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_loader(loader.name, loader))
                loader.exec_module(module)
                return module
            tried.append(path)
    raise ImportError("scipy's compiled sparse kernels not found: searched "
                      + (", ".join(tried) if tried else "for scipy, which is not installed"))


_sparsetools = _load_sparsetools()
_INT32_MAX = int(np.iinfo(np.int32).max)


class CsrOperator:
    """An (n_rows, n_cols) float64 matrix in compressed sparse row form.

    Row i holds `data[indptr[i]:indptr[i + 1]]` at the columns
    `indices[indptr[i]:indptr[i + 1]]`, in that order; a column may repeat
    and its entries are not summed. The arrays are read-only copies,
    checked once, since the compiled loop checks no bounds. The indices
    are int32 when every index fits and int64 otherwise, as scipy stores
    them. `A @ x` takes a 2-D float64 x of n_cols rows and adds each
    output element's terms from 0.0 in row order; `A.T` is the transpose
    over the same arrays.
    """

    def __init__(self, indptr, indices, data, shape: tuple[int, int]):
        n_rows, n_cols = (operator.index(n) for n in shape)
        indptr, indices, data = np.asarray(indptr), np.asarray(indices), np.asarray(data)
        if n_rows < 0 or n_cols < 0:
            raise ValueError(f"CsrOperator: negative shape {(n_rows, n_cols)}")
        if indptr.ndim != 1 or indices.ndim != 1 or data.ndim != 1:
            raise ValueError("CsrOperator: indptr, indices and data must be 1-D")
        if indptr.dtype.kind not in "iu" or indices.dtype.kind not in "iu":
            raise ValueError(f"CsrOperator: integer indptr and indices expected, "
                             f"got {indptr.dtype} and {indices.dtype}")
        if data.dtype != np.float64:
            raise ValueError(f"CsrOperator: float64 data expected, got {data.dtype}")
        nnz = len(data)
        if len(indices) != nnz:
            raise ValueError(f"CsrOperator: {len(indices)} indices for {nnz} values")
        if len(indptr) != n_rows + 1:
            raise ValueError(f"CsrOperator: indptr of length {len(indptr)} for {n_rows} rows")
        if indptr[0] != 0 or indptr[-1] != nnz or (indptr[1:] < indptr[:-1]).any():
            raise ValueError(f"CsrOperator: indptr must rise from 0 to {nnz} without falling")
        if nnz and (indices.min() < 0 or indices.max() >= n_cols):
            raise ValueError(f"CsrOperator: column index outside [0, {n_cols})")
        index = np.int32 if max(n_rows, n_cols, nnz) <= _INT32_MAX else np.int64
        self.indptr = np.array(indptr, dtype=index)
        self.indices = np.array(indices, dtype=index)
        self.data = np.array(data)
        for a in (self.indptr, self.indices, self.data):
            a.setflags(write=False)
        self.shape = (n_rows, n_cols)
        self._transposed = False

    @property
    def T(self) -> CsrOperator:
        """The transpose: the same arrays read as columns (scipy's CSC form)."""
        t = copy.copy(self)
        t.shape = self.shape[::-1]
        t._transposed = not self._transposed
        return t

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim != 2 or x.dtype != np.float64:
            raise ValueError(f"CsrOperator @ x: x must be 2-D float64, "
                             f"got {x.ndim}-D {x.dtype}")
        if x.shape[0] != self.shape[1]:
            raise ValueError(f"dimension mismatch: {self.shape} @ {x.shape}")
        out = np.zeros((self.shape[0], x.shape[1]))
        matvecs = _sparsetools.csc_matvecs if self._transposed else _sparsetools.csr_matvecs
        matvecs(self.shape[0], self.shape[1], x.shape[1], self.indptr, self.indices, self.data,
                x.ravel(), out.ravel())
        return out
