"""The direct LAPACK kernels against the scipy and NumPy calls they replace.

Both sides of every comparison run in this process on the same LAPACK, so
bit-for-bit equality holds on any BLAS build.
"""

import contextlib
import io
import json
import sys

import numpy as np
import pytest
import scipy.linalg

from rabsim import cli, kernels

SIZES = (2, 12, 40)
# The kernels take complex128 only, the one kind rabsim passes them.
COMPLEX = pytest.mark.parametrize("dtype", [np.complex128])


def _matrix(rng, m, dtype):
    """A Hermitian positive-definite matrix."""
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    h = g @ g.conj().T + 0.1 * m * np.eye(m)
    return (0.5 * (h + h.conj().T)).astype(dtype)


def _vector(rng, m, dtype):
    return (rng.standard_normal(m) + 1j * rng.standard_normal(m)).astype(dtype)


def _same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@COMPLEX
@pytest.mark.parametrize("m", SIZES)
def test_cholesky_and_cho_solve_match_scipy(m, dtype):
    rng = np.random.default_rng(m)
    for _ in range(20):
        a = _matrix(rng, m, dtype)
        b = _vector(rng, m, dtype)
        c = kernels.cholesky(a)
        assert _same_bits(c, scipy.linalg.cholesky(a, lower=True))
        factor = scipy.linalg.cho_factor(a, lower=True)
        assert _same_bits(kernels.cho_solve(c, b), scipy.linalg.cho_solve(factor, b))
        rhs = np.stack([b, 2.0 * b], axis=1)
        assert _same_bits(kernels.cho_solve(c, rhs), scipy.linalg.cho_solve(factor, rhs))


@COMPLEX
@pytest.mark.parametrize("m", SIZES)
def test_norm_matches_numpy(m, dtype):
    rng = np.random.default_rng(200 + m)
    v = _vector(rng, m, dtype)
    a = _matrix(rng, m, dtype)
    views = (v, a, v[::2], a[:, 0], np.asfortranarray(a), a.T, a[1:, ::2])
    for x in views:
        got, want = kernels.norm(x), np.linalg.norm(x)
        assert type(got) is np.float64 and type(want) is np.float64
        assert got.tobytes() == want.tobytes()
    # row by row, including rows copied out of strided columns
    for x in (a, np.ascontiguousarray(a.T), np.ascontiguousarray(a[1:, ::2])):
        want = np.array([np.linalg.norm(row) for row in x])
        assert kernels.row_norms(x).tobytes() == want.tobytes()


@COMPLEX
def test_non_finite_input_raises_value_error_like_scipy(dtype):
    rng = np.random.default_rng(3)
    a = _matrix(rng, 4, dtype)
    b = _vector(rng, 4, dtype)
    c = kernels.cholesky(a)
    for bad in (np.nan, np.inf):
        a_bad = a.copy()
        a_bad[0, 3] = bad           # outside the triangle either routine reads
        b_bad = b.copy()
        b_bad[2] = bad
        cases = [
            (lambda: kernels.cholesky(a_bad),
             lambda: scipy.linalg.cholesky(a_bad, lower=True)),
            (lambda: kernels.cho_solve(c, b_bad),
             lambda: scipy.linalg.cho_solve((c, True), b_bad)),
            (lambda: kernels.cho_solve(a_bad, b),
             lambda: scipy.linalg.cho_solve((a_bad, True), b)),
        ]
        for ours, theirs in cases:
            with pytest.raises(ValueError):
                theirs()
            with pytest.raises(ValueError):
                ours()


@COMPLEX
def test_not_positive_definite_and_singular_raise_linalg_error(dtype):
    indefinite = np.diag([1.0, -1.0, 2.0]).astype(dtype)
    with pytest.raises(scipy.linalg.LinAlgError):
        scipy.linalg.cholesky(indefinite, lower=True)
    with pytest.raises(scipy.linalg.LinAlgError):
        kernels.cholesky(indefinite)
    singular = np.zeros((3, 3), dtype=dtype)
    with pytest.raises(scipy.linalg.LinAlgError):
        scipy.linalg.cholesky(singular, lower=True)
    with pytest.raises(scipy.linalg.LinAlgError):
        kernels.cholesky(singular)


# --------------------------------------------- end to end: same CSV bytes

# perfbench's self-test scenario: all seven algorithms, with indefinite-INC
# repairs in the OKSPME variants and both SMI baselines.
SMALL = {
    "sensors": 8, "desired_doa_deg": 10.0, "interferer_doas_deg": [40.0],
    "snr_db": 10.0, "scattering": {"kind": "coherent", "num_paths": 2},
    "snapshots": 12, "trials": 2, "master_seed": 5,
    "algorithms": ["okspme", "okspme-sg", "okspme-ccg", "okspme-mcg",
                   "smi", "loaded-smi", "optimal"],
}

# The scipy and NumPy calls each kernel replaces.
WRAPPERS = {
    "cholesky": lambda a: scipy.linalg.cholesky(a, lower=True),
    "cho_solve": lambda c, b: scipy.linalg.cho_solve((c, True), b),
    "norm": np.linalg.norm,
    "row_norms": lambda x: np.array([np.linalg.norm(row) for row in x]),
}


def _simulate(tmp_path, name, threads):
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(SMALL))
    out = tmp_path / f"{name}.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--config", str(config), "--out", str(out),
                         "--threads", str(threads)]) == 0
    return out.read_bytes()


def _bind_wrappers(monkeypatch):
    """Rebind every name under rabsim that holds a kernel to its scipy call."""
    wrapper_of = {id(getattr(kernels, name)): wrapper for name, wrapper in WRAPPERS.items()}
    sites = set()
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "rabsim" or n.startswith("rabsim.")]
    for module in modules:
        for name, value in list(vars(module).items()):
            if id(value) in wrapper_of:
                monkeypatch.setattr(module, name, wrapper_of[id(value)])
                sites.add((module.__name__, name))
    return sites


# Serial only: test_parallel_equals_serial shows a pool gives the serial rows.
@pytest.mark.parametrize("threads", [1])
def test_simulate_writes_the_bytes_of_the_scipy_wrappers(tmp_path, monkeypatch, threads):
    fast = _simulate(tmp_path, "kernels", threads)
    repairs = []
    eigvalsh = scipy.linalg.eigvalsh

    def counted_eigvalsh(*args, **kwargs):
        repairs.append(args)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigvalsh", counted_eigvalsh)
    sites = _bind_wrappers(monkeypatch)
    assert {("rabsim.okspme", "cholesky"), ("rabsim.okspme", "cho_solve"),
            ("rabsim.okspme", "norm"), ("rabsim.analysis", "cholesky"),
            ("rabsim.analysis", "cho_solve"), ("rabsim.adaptive", "norm"),
            ("rabsim.krylov", "norm"), ("rabsim.kernels", "norm"),
            ("rabsim.analysis", "row_norms")} <= sites
    wrapped = _simulate(tmp_path, "wrappers", threads)
    assert wrapped == fast
    assert repairs, "the scenario no longer exercises the INC repair"
