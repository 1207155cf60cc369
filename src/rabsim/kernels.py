"""Direct LAPACK calls for the per-snapshot linear algebra.

At the array sizes rabsim simulates (a few to a few dozen sensors) the
arithmetic of one factorization or solve takes a few microseconds, while
``scipy.linalg.cholesky``/``cho_factor``, ``cho_solve`` and ``solve`` spend
several times that on argument conversion, batching and structure handling,
and ``np.linalg.norm`` on option dispatch.  Every snapshot of every algorithm
pays that overhead, so this module calls the same LAPACK routines through the
handles ``scipy.linalg.get_lapack_funcs`` returns, cached by dtype (real inputs
still reach the real routines), and evaluates NumPy's own norm formula.

Contract: on the same LAPACK build each function returns the same bits as the
call it replaces and raises the same exception classes.

* ``cholesky(a)`` is ``scipy.linalg.cholesky(a, lower=True)``.
* ``cho_solve(c, b)`` is ``scipy.linalg.cho_solve((c, True), b)``.
* ``her_solve(a, b)`` is ``scipy.linalg.solve(a, b, assume_a="her")``: the
  upper triangle is factored by ``hetrf`` (``sytrf`` for real input) with the
  optimal workspace, and ``LinAlgWarning`` is emitted when the ``hecon``
  reciprocal condition number falls below the dtype's machine epsilon.
* ``norm(x)`` is ``np.linalg.norm(x)`` for a float or complex array, and
  ``row_norms(x)`` is ``norm`` of each row of a C-contiguous 2-D array.

Non-finite input raises ``ValueError`` (scipy's ``check_finite``), a matrix
that is not positive definite (``cholesky``) or is exactly singular
(``her_solve``) raises ``LinAlgError``, and a negative LAPACK ``info`` raises
``ValueError``.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np
from scipy.linalg import LinAlgError, LinAlgWarning, get_lapack_funcs

_NON_FINITE = "array must not contain infs or NaNs"


@functools.cache
def _routines(names: tuple, *dtypes) -> list:
    """LAPACK handles for ``names`` at the precision scipy picks for ``dtypes``."""
    return get_lapack_funcs(names, tuple(np.empty(0, dt) for dt in dtypes))


@functools.cache
def _her_routines(a_dtype, b_dtype, n: int) -> tuple:
    """Factor, solve and condition routines, the workspace size and epsilon.

    Complex inputs take the Hermitian routines, real ones the symmetric ones;
    the workspace is LAPACK's optimal size, as ``scipy.linalg.solve`` queries
    it (it decides between the blocked and unblocked factorization).
    """
    kind = "he" if _routines(("lange",), a_dtype, b_dtype)[0].typecode in "cz" else "sy"
    trf, trs, con, lange, query = _routines(
        (kind + "trf", kind + "trs", kind + "con", "lange", kind + "trf_lwork"),
        a_dtype, b_dtype)
    work, info = query(n)
    _check_info(info, query)
    return trf, trs, con, lange, int(work.real), np.finfo(trf.dtype).eps


def _check_info(info: int, routine) -> None:
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in argument {-info} "
                         f"of {routine.__name__.upper()}")


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the Hermitian positive-definite ``a``.

    Reads the lower triangle of ``a``; the upper triangle of the factor is
    zeroed.
    """
    if not np.isfinite(a).all():
        raise ValueError(_NON_FINITE)
    potrf, = _routines(("potrf",), a.dtype)
    c, info = potrf(a, lower=1, clean=1)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    _check_info(info, potrf)
    return c


def cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` given the lower Cholesky factor ``c`` of ``A``."""
    if not (np.isfinite(c).all() and np.isfinite(b).all()):
        raise ValueError(_NON_FINITE)
    potrs, = _routines(("potrs",), c.dtype, b.dtype)
    x, info = potrs(c, b, lower=1)
    _check_info(info, potrs)
    return x


def her_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` for a Hermitian (real: symmetric) ``a``.

    Reads the upper triangle of ``a``.  An exactly singular pivot raises
    ``LinAlgError``; an ill-conditioned matrix still returns the solution,
    with a ``LinAlgWarning``.
    """
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError(_NON_FINITE)
    trf, trs, con, lange, lwork, eps = _her_routines(a.dtype, b.dtype, a.shape[0])
    ldu, ipiv, info = trf(a, lower=0, lwork=lwork)
    if info > 0:
        raise LinAlgError("Matrix is singular.")
    _check_info(info, trf)
    x, info = trs(ldu, ipiv, b, lower=0)
    _check_info(info, trs)
    rcond, info = con(ldu, ipiv, lange("1", a), lower=0)
    _check_info(info, con)
    if not rcond >= eps:    # also catches a NaN rcond
        warnings.warn(f"Ill-conditioned matrix (rcond={rcond:.6g}): "
                      "result may not be accurate.", LinAlgWarning, stacklevel=2)
    return x


def norm(x: np.ndarray) -> np.floating:
    """Euclidean (Frobenius, for a matrix) norm of a float or complex array."""
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        x_real, x_imag = x.real, x.imag
        return np.sqrt(x_real.dot(x_real) + x_imag.dot(x_imag))
    return np.sqrt(x.dot(x))


def row_norms(x: np.ndarray) -> np.ndarray:
    """``norm`` of each row of the C-contiguous 2-D array ``x``, same bits.

    A stacked ``matmul`` runs, per row, the BLAS dot ``norm`` runs.
    """
    def row_dots(p):
        return (p[:, None, :] @ p[:, :, None]).ravel()

    if x.dtype.kind == "c":
        return np.sqrt(row_dots(x.real) + row_dots(x.imag))
    return np.sqrt(row_dots(x))
