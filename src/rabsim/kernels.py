"""Direct LAPACK calls for the per-snapshot linear algebra.

At the array sizes rabsim simulates (a few to a few dozen sensors) the
arithmetic of one factorization or solve takes a few microseconds, while
``scipy.linalg.cholesky``/``cho_factor`` and ``cho_solve`` spend several
times that on argument conversion, batching and structure handling,
and ``np.linalg.norm`` on option dispatch.  Every snapshot of every algorithm
pays that overhead, so this module calls ``zpotrf`` and ``zpotrs``, the
routines scipy picks for complex128 (the only kind rabsim factors), directly
and evaluates NumPy's own norm formula.

Contract: on the same LAPACK build each function returns the same bits as the
call it replaces and raises the same exception classes.

* ``cholesky(a)`` is ``scipy.linalg.cholesky(a, lower=True)``.
* ``cho_solve(c, b)`` is ``scipy.linalg.cho_solve((c, True), b)``.
* ``norm(x)`` is ``np.linalg.norm(x)``, and ``row_norms(x)`` is ``norm`` of
  each row of a C-contiguous 2-D array.

The four take complex128 arrays, the only kind rabsim passes them.

Non-finite input raises ``ValueError`` (scipy's ``check_finite``), a matrix
that is not positive definite, singular ones included, raises ``LinAlgError``
in ``cholesky``, and a negative LAPACK ``info`` raises ``ValueError``.

NumPy and SciPy each load their own OpenBLAS, by default with one thread per
core.  Trials run one per process, so ``single_blas_thread`` and the pool
initializer ``pin_blas_threads`` keep every loaded OpenBLAS on one thread
(``blas_threads`` and ``set_blas_threads`` read and set the counts):
threaded BLAS inside parallel trial workers oversubscribes the cores.  Forked
workers inherit the pin, so the initializer changes nothing there; it acts in
workers started afresh (spawn, forkserver), which load at the core count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import zpotrf, zpotrs

_NON_FINITE = "array must not contain infs or NaNs"


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
    c, info = zpotrf(a, lower=1, clean=1)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    _check_info(info, zpotrf)
    return c


def cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` given the lower Cholesky factor ``c`` of ``A``."""
    if not (np.isfinite(c).all() and np.isfinite(b).all()):
        raise ValueError(_NON_FINITE)
    x, info = zpotrs(c, b, lower=1)
    _check_info(info, zpotrs)
    return x


def norm(x: np.ndarray) -> np.floating:
    """Euclidean (Frobenius, for a matrix) norm of a complex array.

    Anything but a 1-D C-contiguous array is flattened first: a strided real
    array takes another BLAS dot path, with other bits.
    """
    if not (x.ndim == 1 and x.flags.c_contiguous):
        x = x.ravel(order="K")
    x_real, x_imag = x.real, x.imag
    return np.sqrt(x_real.dot(x_real) + x_imag.dot(x_imag))


def row_norms(x: np.ndarray) -> np.ndarray:
    """``norm`` of each row of the C-contiguous 2-D array ``x``, same bits.

    A stacked ``matmul`` runs, per row, the BLAS dot ``norm`` runs.
    """
    def row_dots(p):
        return (p[:, None, :] @ p[:, :, None]).ravel()

    return np.sqrt(row_dots(x.real) + row_dots(x.imag))


# (get, set) thread-count symbols of the scipy-openblas 64-bit, scipy-openblas
# and plain OpenBLAS builds.
_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS the process maps."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return tuple(found)


def blas_threads() -> list:
    """Thread count of each loaded OpenBLAS; empty when none is found."""
    return [get() for get, _ in _openblas()]


def set_blas_threads(counts) -> None:
    """Give each loaded OpenBLAS the thread count at its place in ``counts``.

    A library already at its count is left alone: OpenBLAS's setter starts
    its thread server, so in a forked worker that inherited the one-thread
    pin it would start one idle thread per library.
    """
    for (get, set_), n in zip(_openblas(), counts):
        if get() != n:
            set_(n)


def pin_blas_threads() -> None:
    """Put every loaded OpenBLAS on one thread (the trial workers' initializer)."""
    set_blas_threads([1] * len(_openblas()))


@contextlib.contextmanager
def single_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread, then restore."""
    before = blas_threads()
    pin_blas_threads()
    try:
        yield
    finally:
        set_blas_threads(before)
