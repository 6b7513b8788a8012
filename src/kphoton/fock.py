"""Truncated Fock-space numerics for k-photon couplings.

Finite N-state truncations of H = w a'a + g(a^k + a'^k) sx + d sz, in the
interleaved basis |n, spin> -> index 2n + s (s = 0 down, s = 1 up), and the
closed-form spectrum of its number-conserving counterpart
H_JC = w a'a + g(a^k s+ + a'^k s-) + d sz, which block-diagonalizes exactly
into 2x2 blocks.  The sx-coupled model is the object under study, where
truncated spectra can look plausible while failing to converge.

Its truncation splits exactly into symmetric tridiagonal chains (see
build_hkp); eigensolves bisect each distinct chain once with LAPACK's dstebz,
at O(N) per eigenvalue.  Entries are Python floats held in array('d'), so
the module imports neither numpy nor scipy: the first eigensolve opens the
LAPACK library that scipy's compiled _flapack extension links with ctypes
and calls dstebz from it directly.  ctypes releases the GIL for the call, so
a convergence sweep solves its truncation sizes on parallel threads, one
per available CPU, largest N first; its errors are raised in N order, as a
serial loop raises them.  All classification thresholds are artifact
choices (flagged in the emitted summaries), not derived quantities.
"""

from __future__ import annotations

import ctypes
import enum
import functools
import importlib.machinery
import importlib.util
import math
import operator
import os
import sys
import threading
from array import array
from collections import namedtuple
from itertools import chain, islice, repeat


class ModelParams(namedtuple("ModelParams", "k g omega delta")):
    """k-photon order, coupling strength, mode frequency, level splitting.

    g, omega and delta are stored as floats.
    """

    __slots__ = ()

    def __new__(cls, k: int, g: float, omega: float, delta: float):
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ValueError(f"k must be a positive integer, got {k!r}")
        g, omega, delta = float(g), float(omega), float(delta)
        if not all(map(math.isfinite, (g, omega, delta))):
            raise ValueError("parameters must be finite")
        if g < 0:
            raise ValueError("coupling g must be nonnegative")
        if omega <= 0:
            raise ValueError("omega must be positive")
        return super().__new__(cls, k, g, omega, delta)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, which _replace calls, would skip __new__'s checks
        return cls(*iterable)


def _not_finite(what: str, k: int, n) -> ValueError:
    return ValueError(f"{what} is not a finite double at k={k}, n={n}; "
                      "use a smaller N or n_max")


def _zeros(n: int) -> array:
    """n zeros as an array('d'), allocated at once: a length that cannot be
    held raises MemoryError here, as does one past sys.maxsize."""
    try:
        return array("d", bytes(8)) * n
    except OverflowError:
        raise MemoryError(f"cannot hold {n} doubles") from None


def _diagonal(params: ModelParams, N: int) -> tuple[array, array]:
    """w*n - d and w*n + d, the energies of |n,down> and |n,up>, for n < N."""
    wn = list(map(operator.mul, repeat(params.omega), range(N)))
    down = array("d", map(operator.add, wn, repeat(-params.delta)))
    up = array("d", map(operator.add, wn, repeat(params.delta)))
    # w*n grows with n, so a non-finite row, if any, is followed by more
    if not (math.isfinite(down[-1]) and math.isfinite(up[-1])):
        bad = next(n for n in range(N)
                   if not (math.isfinite(down[n]) and math.isfinite(up[n])))
        raise _not_finite("diagonal w*n -+ d", params.k, bad)
    return down, up


def _couplings(params: ModelParams, N: int) -> array:
    """g*sqrt(n!/(n-k)!) for k <= n < N, refused once it is not a finite
    double.  Each is ((1*sqrt(n))*sqrt(n-1)*...*sqrt(n-k+1))*g, rounded in
    that order: the order of tests/oracles.py's numpy build, whose bytes the
    tests require."""
    k = params.k
    if params.g == 0:   # sqrt(n!/(n-k)!) may overflow, and 0*inf is nan
        return array("d", bytes(8 * (N - k)))
    roots = array("d", list(map(math.sqrt, range(N))))
    w = roots[k:]
    for t in range(1, k):
        w = list(map(operator.mul, w, islice(roots, k - t, None)))
    w = array("d", map(operator.mul, w, repeat(params.g)))
    # every factor grows with n, so an overflow reaches the last coupling
    if not math.isfinite(w[-1]):
        bad = next(j for j, x in enumerate(w) if not math.isfinite(x))
        raise _not_finite("coupling g*sqrt(n!/(n-k)!)", k, k + bad)
    return w


def _check_truncation(k: int, N: int) -> None:
    if N <= k:
        raise ValueError(f"need N > k, got N={N}, k={k}")


def _chain_entries(params: ModelParams, N: int) -> tuple[array, array, array]:
    """The energies (w*n - d, w*n + d) of |n,down> and |n,up> for n < N, and
    the couplings w[n - k] = g*sqrt(n!/(n-k)!) for k <= n < N."""
    k = params.k
    _check_truncation(k, N)
    # allocated at their final length before any entry is computed, so that
    # an N whose entries cannot be held fails at once, not once the
    # computation has filled the memory
    down, up, w = _zeros(N), _zeros(N), _zeros(N - k)
    down[:], up[:] = _diagonal(params, N)
    w[:] = _couplings(params, N)
    return down, up, w


def build_hkp(params: ModelParams, N: int) -> list[tuple[array, array, array]]:
    """Truncate the sx-coupled model to the first N Fock states (dim 2N).

    Diagonal: w*n - d on |n,down>, w*n + d on |n,up>.  The coupling flips
    spin and moves k photons: <n-k, 1-s| H |n, s> = g*sqrt(n!/(n-k)!).
    H commutes with T = exp(i pi a'a/k) sz, and T^(2k) = 1, so the
    truncation splits exactly into the 2k chains
    {|r + jk, s xor (j mod 2)> : j >= 0} for r < k, s in {0, 1}, returned
    in (r, s) order as (index, diag, off): the basis indices 2n+s in chain
    order as array('q'), the diagonal as array('d'), and off[j], coupling
    index[j] to index[j+1], as array('d').
    """
    k = params.k
    down, up, w = _chain_entries(params, N)
    chains = []
    for r in range(k):
        length = len(range(r, N, k))
        for s, (even, odd) in enumerate(((down, up), (up, down))):
            # chain position j holds n = r + jk with spin s xor (j mod 2)
            index = array("q", bytes(8 * length))
            index[::2] = array("q", range(2 * r + s, 2 * N, 4 * k))
            index[1::2] = array("q", range(2 * (r + k) + 1 - s, 2 * N, 4 * k))
            diag = array("d", bytes(8 * length))
            diag[::2] = even[r::2 * k]
            diag[1::2] = odd[r + k::2 * k]
            chains.append((index, diag, w[r::k]))
    return chains


def jck_exact_spectrum(params: ModelParams, n_max: int) -> list[float]:
    """Closed-form spectrum: the 2x2 blocks of H_JC for n <= n_max, each
    diagonalized as (d0 + d1)/2 -+ hypot((d0 - d1)/2, off), plus the k
    uncoupled spin-down levels w*n - d below the first block.

    The block n couples |n+k,down> and |n,up>, so d0, d1 and off are read off
    _chain_entries(params, n_max + k + 1).  tests/oracles.py's build_jck
    truncates H_JC from the same entries, built with numpy; its spin-up
    singletons n > n_max lost their partner to the truncation and are left
    out here.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    k = params.k
    down, up, w = _chain_entries(params, n_max + k + 1)
    # Python floats: an overflowing mean becomes inf without a warning
    levels = []
    for n, (d0, d1, off) in enumerate(zip(down[k:], up, w)):
        mean, r = (d0 + d1) / 2, math.hypot((d0 - d1) / 2, off)
        levels += [(n, mean - r), (n, mean + r)]
    levels += enumerate(down[:k])
    for n, e in levels:
        if not math.isfinite(e):
            raise _not_finite("closed-form eigenvalue", k, n)
    return sorted(e for _, e in levels)


# stebz's absolute tolerance.  LAPACK's default, eps*||T||, leaves E_min of
# an N=1000 chain off by up to 7e-13 relative; 2*tiny bisects to a few ulp.
_BISECTION_TOL = 2 * sys.float_info.min

# the LAPACK symbol names: scipy-openblas wheels prefix theirs
_DSTEBZ_NAMES = ("scipy_dstebz_", "dstebz_")

# held around each _dstebz() call: two threads making the first call at once
# would both open the library
_DSTEBZ_LOCK = threading.Lock()


@functools.cache
def _dstebz():
    """LAPACK's dstebz, from the library that scipy's compiled _flapack
    extension links.  The extension is found on scipy's path without
    importing scipy and opened with ctypes without running its module init,
    which would import numpy; neither is used here.  Raises RuntimeError
    when no such routine is found."""
    scipy = importlib.util.find_spec("scipy")
    spec = scipy and importlib.machinery.PathFinder.find_spec(
        "scipy.linalg._flapack",
        [os.path.join(p, "linalg") for p in scipy.submodule_search_locations])
    if spec is None:
        raise RuntimeError("LAPACK's dstebz was not found: no scipy.linalg._flapack "
                           "extension is installed")
    try:
        lib = ctypes.CDLL(spec.origin)
    except OSError as exc:
        raise RuntimeError(f"LAPACK's dstebz was not found: {exc}") from None
    stebz = next((getattr(lib, name) for name in _DSTEBZ_NAMES if hasattr(lib, name)), None)
    if stebz is None:
        raise RuntimeError(f"LAPACK's dstebz was not found: {spec.origin} exports "
                           f"no {' or '.join(_DSTEBZ_NAMES)}")
    # Fortran takes every argument by reference; the two trailing size_t are
    # gfortran's hidden lengths of the character arguments
    int_p, double_p = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
    stebz.argtypes = [ctypes.c_char_p, ctypes.c_char_p,         # RANGE, ORDER
                      int_p, double_p, double_p, int_p, int_p,    # N, VL, VU, IL, IU
                      double_p, double_p, double_p,               # ABSTOL, D, E
                      int_p, int_p, double_p, int_p, int_p,       # M, NSPLIT, W, IBLOCK, ISPLIT
                      double_p, int_p, int_p,                     # WORK, IWORK, INFO
                      ctypes.c_size_t, ctypes.c_size_t]
    stebz.restype = None
    return stebz


def _finite_doubles(values) -> array:
    """values as an array('d'), copied unless it is one already; non-finite
    entries raise ValueError."""
    if not (isinstance(values, array) and values.typecode == "d"):
        values = array("d", values)
    # a sum is finite only if every term is; a non-finite one may be an overflow
    if not (math.isfinite(sum(values)) or all(map(math.isfinite, values))):
        raise ValueError("array must not contain infs or NaNs")
    return values


def _lowest_of_chain(stebz, diag: array, off: array, m: int) -> list[float]:
    """The m lowest eigenvalues of one chain of length n >= 1, ascending:
    dstebz("I", "E") for eigenvalues 1..m at tolerance _BISECTION_TOL, the
    call scipy.linalg.eigvalsh_tridiagonal(diag, off, select="i",
    lapack_driver="stebz", tol=_BISECTION_TOL) makes."""
    n = len(diag)
    c_int, c_double = ctypes.c_int, ctypes.c_double
    count, nsplit, info = c_int(), c_int(), c_int()
    w = (c_double * n)()
    stebz(b"I", b"E", ctypes.byref(c_int(n)), ctypes.byref(c_double(0.0)),
          ctypes.byref(c_double(1.0)), ctypes.byref(c_int(1)), ctypes.byref(c_int(m)),
          ctypes.byref(c_double(_BISECTION_TOL)),
          (c_double * n).from_buffer(diag), (c_double * (n - 1)).from_buffer(off),
          ctypes.byref(count), ctypes.byref(nsplit), w, (c_int * n)(), (c_int * n)(),
          (c_double * (4 * n))(), (c_int * (3 * n))(), ctypes.byref(info), 1, 1)
    if info.value != 0:
        raise RuntimeError(f"tridiagonal eigensolver failed on a chain of "
                           f"length {n}: dstebz info = {info.value}")
    return w[:count.value]


def lowest_eigenvalues(chains, m: int) -> list[float]:
    """The m algebraically smallest eigenvalues, ascending, of the direct sum
    of (index, diag, off) chains: the lowest m of every chain, merged.

    Each chain is bisected by LAPACK's dstebz with the arguments
    scipy.linalg.eigvalsh_tridiagonal(diag, off, select="i",
    lapack_driver="stebz", tol=_BISECTION_TOL) passes it, so the values are
    bit-identical to that call's; neither numpy nor scipy is imported.  A
    chain whose entries are bitwise those of the previous chain, as the
    (r, 0) and (r, 1) chains of build_hkp are at delta = 0, reuses its
    eigenvalues.  A chain needs one diagonal entry or more and one coupling
    fewer; that, non-finite entries and a bad m raise ValueError before
    LAPACK is called.  A LAPACK failure raises RuntimeError.
    """
    dim = sum(len(diag) for _, diag, _ in chains)
    if not 1 <= m <= dim:
        raise ValueError(f"need 1 <= m <= {dim}, got {m}")
    entries = []
    for _, diag, off in chains:
        diag, off = _finite_doubles(diag), _finite_doubles(off)
        if not diag or len(off) != len(diag) - 1:
            raise ValueError(f"a chain needs n >= 1 diagonal entries and n - 1 "
                             f"couplings, got {len(diag)} and {len(off)}")
        entries.append((diag, off))
    with _DSTEBZ_LOCK:
        stebz = _dstebz()
    parts, prev = [], None
    for diag, off in entries:
        key = diag.tobytes(), off.tobytes()     # bitwise, so -0.0 and 0.0 stay apart
        if key == prev:
            parts.append(parts[-1])
        else:
            parts.append(_lowest_of_chain(stebz, diag, off, min(m, len(diag))))
        prev = key
    return sorted(chain.from_iterable(parts))[:m]


# ---------------------------------------------------------------------------
# convergence sweeps

class Classification(enum.Enum):
    Convergent = "Convergent"
    Collapse = "Collapse"
    Divergent = "Divergent"
    Inconclusive = "Inconclusive"


class SpectrumSweep(namedtuple("SpectrumSweep", "params N_list eigenvalues tol")):
    """Spectra of params truncated at each N in N_list: eigenvalues holds,
    per N, the m lowest in ascending order; tol is the classification
    tolerance."""

    __slots__ = ()

    @property
    def classification(self) -> Classification:
        return classify_convergence(self)


# the spacing shrink that reads as a collapse; an artifact choice like tol
_COLLAPSE_FACTOR = 10.0


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # not every platform has sched_getaffinity
        return os.cpu_count() or 1


def _solve_sizes(params: ModelParams, sizes: list[int], m: int) -> list[tuple]:
    """lowest_eigenvalues(build_hkp(params, N), m) for each N of the
    increasing sizes, in their order.  The calling thread and one more per
    further available CPU, up to one per size, take the sizes from one
    iterator, largest first.  Every size is attempted, and the first failing
    size's error is raised: the one a serial loop raises."""
    rows, errors = [None] * len(sizes), [None] * len(sizes)
    # a range iterator hands out each index once: its next() is one C call
    # under the GIL
    todo = reversed(range(len(sizes)))

    def work():
        for i in todo:
            try:
                rows[i] = tuple(lowest_eigenvalues(build_hkp(params, sizes[i]), m))
            except Exception as exc:    # raised by the caller, in sizes order
                errors[i] = exc

    threads = [threading.Thread(target=work, daemon=True)
               for _ in range(min(_cpu_count(), len(sizes)) - 1)]
    for t in threads:
        t.start()
    work()
    for t in threads:
        t.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return rows


def convergence_sweep(params: ModelParams, N_list, m: int = 10,
                      tol: float = 1e-6) -> SpectrumSweep:
    """Lowest-m spectra across truncation sizes, merged by N, classified.

    The sizes are solved on parallel threads, one per available CPU, largest
    N first; with one CPU no thread starts.  Errors are raised in N order:
    a first size N <= k, or an m above its dimension 2N, at once, and
    otherwise the first failing size's once every size was attempted.
    """
    _check_tol(tol)
    sizes = [int(N) for N in N_list]
    if len(sizes) < 3:
        raise ValueError("need at least 3 truncation sizes")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("truncation sizes must be strictly increasing")
    if m < 2:
        raise ValueError("need m >= 2 for gap statistics")
    # refused before any size is solved, as the serial loop refused them at once
    _check_truncation(params.k, sizes[0])
    if m > 2 * sizes[0]:
        raise ValueError(f"need 1 <= m <= {2 * sizes[0]}, got {m}")
    rows = _solve_sizes(params, sizes, m)
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
