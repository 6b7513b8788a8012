"""Truncated Fock-space numerics for k-photon couplings.

Finite N-state truncations of H = w a'a + g(a^k + a'^k) sx + d sz, in the
interleaved basis |n, spin> -> index 2n + s (s = 0 down, s = 1 up), and the
closed-form spectrum of its number-conserving counterpart
H_JC = w a'a + g(a^k s+ + a'^k s-) + d sz, which block-diagonalizes exactly
into 2x2 blocks.  The sx-coupled model is the object under study, where
truncated spectra can look plausible while failing to converge.

Its truncation splits exactly into symmetric tridiagonal chains (see
build_hkp); eigensolves bisect each distinct chain once with LAPACK's dstebz,
at O(N) per eigenvalue.  The module loads numpy and, on the first eigensolve,
that one LAPACK wrapper from scipy's compiled _flapack extension, not the
scipy.linalg package.  All classification thresholds are artifact choices
(flagged in the emitted summaries), not derived quantities.
"""

from __future__ import annotations

import enum
import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ModelParams:
    """k-photon order, coupling strength, mode frequency, level splitting."""

    k: int
    g: float
    omega: float
    delta: float

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        for name in ("g", "omega", "delta"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not all(math.isfinite(getattr(self, n)) for n in ("g", "omega", "delta")):
            raise ValueError("parameters must be finite")
        if self.g < 0:
            raise ValueError("coupling g must be nonnegative")
        if self.omega <= 0:
            raise ValueError("omega must be positive")


def _not_finite(what: str, k: int, n) -> ValueError:
    return ValueError(f"{what} is not a finite double at k={k}, n={n}; "
                      "use a smaller N or n_max")


def _couplings(params: ModelParams, n: np.ndarray) -> np.ndarray:
    """g*sqrt(n!/(n-k)!) for each n, refused once it is not a finite double."""
    if params.g == 0:
        return np.zeros(len(n))     # sqrt(n!/(n-k)!) may overflow, and 0*inf is nan
    w = np.ones(len(n))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(params.k):
            w *= np.sqrt(n - t)
        w *= params.g
    bad = np.flatnonzero(~np.isfinite(w))
    if bad.size:
        raise _not_finite("coupling g*sqrt(n!/(n-k)!)", params.k, n[bad[0]])
    return w


def _chain_entries(params: ModelParams, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows (w*n - d, w*n + d), the energies of |n,down> and |n,up> for
    n < N, and couplings w[n - k] = g*sqrt(n!/(n-k)!) for k <= n < N."""
    k = params.k
    if N <= k:
        raise ValueError(f"need N > k, got N={N}, k={k}")
    n = np.arange(N)
    with np.errstate(over="ignore", invalid="ignore"):
        diag = params.omega * n[:, None] + np.array([-params.delta, params.delta])
    bad = np.flatnonzero(~np.isfinite(diag).all(axis=1))
    if bad.size:
        raise _not_finite("diagonal w*n -+ d", k, bad[0])
    return diag, _couplings(params, n[k:])


def build_hkp(params: ModelParams, N: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Truncate the sx-coupled model to the first N Fock states (dim 2N).

    Diagonal: w*n - d on |n,down>, w*n + d on |n,up>.  The coupling flips
    spin and moves k photons: <n-k, 1-s| H |n, s> = g*sqrt(n!/(n-k)!).
    H commutes with T = exp(i pi a'a/k) sz, and T^(2k) = 1, so the
    truncation splits exactly into the 2k chains
    {|r + jk, s xor (j mod 2)> : j >= 0} for r < k, s in {0, 1}, returned
    in (r, s) order as (index, diag, off): the basis indices 2n+s in chain
    order, the diagonal, and off[j] coupling index[j] to index[j+1].
    """
    k = params.k
    diag, w = _chain_entries(params, N)
    chains = []
    for r in range(k):
        n = np.arange(r, N, k)
        for s in (0, 1):
            spin = (s + np.arange(len(n))) % 2
            chains.append((2 * n + spin, diag[n, spin], w[n[1:] - k]))
    return chains


def jck_exact_spectrum(params: ModelParams, n_max: int) -> list[float]:
    """Closed-form spectrum: the 2x2 blocks of H_JC for n <= n_max, each
    diagonalized as (d0 + d1)/2 -+ hypot((d0 - d1)/2, off), plus the k
    uncoupled spin-down levels w*n - d below the first block.

    The block n couples |n+k,down> and |n,up>, so d0, d1 and off are read off
    the _chain_entries(params, n_max + k + 1) rows.  tests/oracles.py's
    build_jck truncates H_JC from the same rows; its spin-up singletons
    n > n_max lost their partner to the truncation and are left out here.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    k = params.k
    diag, w = _chain_entries(params, n_max + k + 1)
    # Python floats: an overflowing mean becomes inf without a warning
    levels = []
    for n, (d0, d1, off) in enumerate(zip(diag[k:, 0].tolist(), diag[:, 1].tolist(),
                                          w.tolist())):
        mean, r = (d0 + d1) / 2, math.hypot((d0 - d1) / 2, off)
        levels += [(n, mean - r), (n, mean + r)]
    levels += enumerate(diag[:k, 0].tolist())
    for n, e in levels:
        if not math.isfinite(e):
            raise _not_finite("closed-form eigenvalue", k, n)
    return sorted(e for _, e in levels)


# stebz's absolute tolerance.  LAPACK's default, eps*||T||, leaves E_min of
# an N=1000 chain off by up to 7e-13 relative; 2*tiny bisects to a few ulp.
_BISECTION_TOL = 2 * np.finfo(float).tiny


@functools.cache
def _dstebz():
    """The f2py wrapper of LAPACK's dstebz that scipy.linalg's
    eigvalsh_tridiagonal calls, loaded from scipy's _flapack extension
    without running scipy/__init__.py or scipy/linalg/__init__.py, whose
    imports (numpy.testing and numpy.f2py among them) take longer than a
    sweep's eigensolves and are not used here."""
    scipy = importlib.util.find_spec("scipy")
    spec = scipy and importlib.machinery.PathFinder.find_spec(
        "scipy.linalg._flapack",
        [os.path.join(p, "linalg") for p in scipy.submodule_search_locations])
    if spec is None:
        raise ModuleNotFoundError("No module named 'scipy.linalg._flapack'",
                                  name="scipy.linalg._flapack")
    flapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    return flapack.dstebz


def lowest_eigenvalues(chains, m: int) -> list[float]:
    """The m algebraically smallest eigenvalues, ascending, of the direct sum
    of (index, diag, off) chains: the lowest m of every chain, merged.

    Each chain is bisected by LAPACK's dstebz with the arguments
    scipy.linalg.eigvalsh_tridiagonal(diag, off, select="i",
    lapack_driver="stebz", tol=_BISECTION_TOL) passes it, so the values are
    bit-identical to that call's; scipy.linalg itself is never imported.  A
    chain whose entries are bitwise those of the previous chain, as the
    (r, 0) and (r, 1) chains of build_hkp are at delta = 0, reuses its
    eigenvalues.  Non-finite entries raise ValueError; a LAPACK failure
    raises RuntimeError.
    """
    dim = sum(len(diag) for _, diag, _ in chains)
    if not 1 <= m <= dim:
        raise ValueError(f"need 1 <= m <= {dim}, got {m}")
    stebz = _dstebz()
    parts, prev = [], None
    for _, diag, off in chains:
        diag, off = np.asarray_chkfinite(diag, float), np.asarray_chkfinite(off, float)
        key = diag.tobytes(), off.tobytes()     # bitwise, so -0.0 and 0.0 stay apart
        if key == prev:
            parts.append(parts[-1])
        elif len(diag) == 1:
            parts.append(diag)      # stebz refuses an empty off
        else:
            count, w, _, _, info = stebz(diag, off, 2, 0.0, 1.0, 1, min(m, len(diag)),
                                         _BISECTION_TOL, "E")
            if info != 0:
                raise RuntimeError(f"tridiagonal eigensolver failed on a chain of "
                                   f"length {len(diag)}: dstebz info = {info}")
            parts.append(w[:count])
        prev = key
    return [float(v) for v in np.sort(np.concatenate(parts))[:m]]


# ---------------------------------------------------------------------------
# convergence sweeps

class Classification(enum.Enum):
    Convergent = "Convergent"
    Collapse = "Collapse"
    Divergent = "Divergent"
    Inconclusive = "Inconclusive"


@dataclass(frozen=True)
class SpectrumSweep:
    params: ModelParams
    N_list: tuple[int, ...]
    eigenvalues: tuple[tuple[float, ...], ...]   # per N, ascending, length m
    tol: float

    @property
    def classification(self) -> Classification:
        return classify_convergence(self)


# the spacing shrink that reads as a collapse; an artifact choice like tol
_COLLAPSE_FACTOR = 10.0


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def convergence_sweep(params: ModelParams, N_list, m: int = 10,
                      tol: float = 1e-6) -> SpectrumSweep:
    """Lowest-m spectra across truncation sizes, merged by N, classified."""
    _check_tol(tol)
    sizes = [int(N) for N in N_list]
    if len(sizes) < 3:
        raise ValueError("need at least 3 truncation sizes")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("truncation sizes must be strictly increasing")
    if m < 2:
        raise ValueError("need m >= 2 for gap statistics")
    rows = [tuple(lowest_eigenvalues(build_hkp(params, N), m)) for N in sizes]
    for row in rows:
        if not all(math.isfinite(v) for v in row):
            raise RuntimeError("non-finite eigenvalue in sweep")
    return SpectrumSweep(params, tuple(sizes), tuple(rows), tol)


def classify_convergence(sweep: SpectrumSweep,
                         tol: float | None = None) -> Classification:
    """Operational reading of the truncation behavior.

    Collapse: mean spacing of the m lowest shrinks by >= _COLLAPSE_FACTOR
    while E_min itself stays put (drift bounded by max(1, |E_min|)); checked
    first because accumulation above a stable bottom would otherwise pass
    the gap test below.
    Convergent: E_min gaps non-increasing and final gap below tol, which
    defaults to sweep.tol.
    Divergent: |E_min| grows monotonically and gaps never settled.
    Everything else: Inconclusive.  Thresholds are artifact choices.
    """
    if tol is None:
        tol = sweep.tol
    _check_tol(tol)
    if len(sweep.N_list) < 3:
        raise ValueError("need at least 3 truncation sizes")
    if any(len(row) < 2 for row in sweep.eigenvalues):
        raise ValueError("need m >= 2 for gap statistics")
    e = [row[0] for row in sweep.eigenvalues]
    spread = [(row[-1] - row[0]) / (len(row) - 1) for row in sweep.eigenvalues]
    slow_drift = abs(e[-1] - e[0]) <= max(1.0, abs(e[0]))
    if spread[0] > 0 and spread[-1] * _COLLAPSE_FACTOR <= spread[0] and slow_drift:
        return Classification.Collapse
    floor = 1e-12 * max(1.0, abs(e[0]))      # LAPACK noise snap
    gaps = [abs(b - a) for a, b in zip(e, e[1:])]
    gaps = [0.0 if g < floor else g for g in gaps]
    settles = (all(g2 <= g1 * (1 + 1e-9) + floor for g1, g2 in zip(gaps, gaps[1:]))
               and gaps[-1] < tol)
    if settles:
        return Classification.Convergent
    if all(abs(b) > abs(a) for a, b in zip(e, e[1:])):
        return Classification.Divergent
    return Classification.Inconclusive


# ---------------------------------------------------------------------------
# emitters

def _fmt(x: float) -> str:
    return "%.17g" % x


def sweep_csv(sweep: SpectrumSweep) -> str:
    p = sweep.params
    lines = ["k,g,omega,delta,N,index,eigenvalue"]
    for N, row in zip(sweep.N_list, sweep.eigenvalues):
        for idx, v in enumerate(row):
            lines.append(f"{p.k},{_fmt(p.g)},{_fmt(p.omega)},{_fmt(p.delta)},"
                         f"{N},{idx},{_fmt(v)}")
    return "\n".join(lines) + "\n"


def sweep_summary(sweep: SpectrumSweep) -> dict:
    p = sweep.params
    return {
        "params": {"k": p.k, "g": p.g, "omega": p.omega, "delta": p.delta},
        "N_list": list(sweep.N_list),
        "classification": sweep.classification.value,
        "E_min_series": [row[0] for row in sweep.eigenvalues],
        "thresholds": {"tol": sweep.tol,
                       "collapse_factor": _COLLAPSE_FACTOR,
                       "artifact_choice": True},
    }
