"""Reference routes that only the tests call.

Each is an independent implementation of something the package computes
another way, kept here so that the package ships only what its commands run:

- op_mul (with its _dz_z table): the normal-ordered product by commutator
  rewriting, the check on weyl.build_reduced_operator and on the closed-form
  cross-term weights weyl.a_coeff.
- apply_to_polynomial: operators acting on polynomials in z, the check on
  op_mul itself (product against composition).
- leibniz_hermite_table: d^m [e^(g z^2/2) z^r] in closed form, the check on
  the d/dz table asymptotics._c0_derivatives and on the closed forms
  asymptotics.gf_coefficient and asymptotics.crho_closed.
- displaced_oscillator_oracle: the exact k = 1, delta = 0 spectrum, the check
  on fock.build_hkp and fock.lowest_eigenvalues.
- build_jck: the truncated number-conserving matrix, whose exact census
  checks fock.jck_exact_spectrum and fock.lowest_eigenvalues; dense writes
  out any list of (index, diag, off) chains for dense eigh and entry checks.
- stebz_reference: scipy.linalg.eigvalsh_tridiagonal on each chain, the
  route fock.lowest_eigenvalues took before it called LAPACK's dstebz
  directly; its values must be bit-identical to the package's.
- op_sum, scale (of a quotient-ring element) and satisfies_quadratic: the
  builders of expected operators and ring elements, and the exact
  back-substitution of an asymptotics.QuadraticRoot into a given quadratic.

Tests import them as ``from oracles import ...``: pytest puts this directory
on sys.path because it holds test modules and no __init__.py.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from kphoton.asymptotics import QuadraticRoot, RingElem
from kphoton.fock import _BISECTION_TOL, ModelParams, _chain_entries
from kphoton.weyl import P_ZERO, OperatorPoly, ParamPoly, accumulate


def op_sum(*ops: OperatorPoly) -> OperatorPoly:
    """The sum of the operators, term by term."""
    out: dict[tuple[int, int], ParamPoly] = {}
    for a in ops:
        for ij, p in a.terms.items():
            accumulate(out, ij, p)
    return OperatorPoly(out)


def scale(x: RingElem, q) -> RingElem:
    """x times q, a ParamPoly, int or Fraction (a float raises TypeError)."""
    q = q if isinstance(q, ParamPoly) else ParamPoly.rational(q)
    return RingElem({key: p * q for key, p in x.terms.items()}, x.modulus)


def satisfies_quadratic(root: QuadraticRoot, b, c) -> bool:
    """Exact back-substitution of root into x^2 + b x + c (ParamPoly or rational)."""
    b, c = (v if isinstance(v, ParamPoly) else ParamPoly.rational(v) for v in (b, c))
    plain = (root.rational * root.rational + root.surd * root.surd * root.disc
             + b * root.rational + c)
    mixed = (root.rational.scale(2) + b) * root.surd
    return plain.is_zero() and mixed.is_zero()


@cache
def _dz_z(j: int, i: int) -> tuple[tuple[tuple[int, int], int], ...]:
    """Normal ordering of Dz^j z^i as ((z-power, Dz-power), int) pairs.

    Single-commutator rewriting Dz z^i = z^i Dz + i z^(i-1), peeled one Dz at
    a time and memoized.
    """
    if j == 0:
        return (((i, 0), 1),)
    if i == 0:
        return (((0, j), 1),)
    out: dict[tuple[int, int], int] = {}
    for (a, b), c in _dz_z(j - 1, i):
        out[(a, b + 1)] = out.get((a, b + 1), 0) + c
    for (a, b), c in _dz_z(j - 1, i - 1):
        out[(a, b)] = out.get((a, b), 0) + i * c
    return tuple(out.items())


def op_mul(a: OperatorPoly, b: OperatorPoly) -> OperatorPoly:
    """Product a*b, normal ordered exactly."""
    out: dict[tuple[int, int], ParamPoly] = {}
    for (i1, j1), p1 in a.terms.items():
        for (i2, j2), p2 in b.terms.items():
            p = p1 * p2
            for (i, j), c in _dz_z(j1, i2):
                accumulate(out, (i1 + i, j + j2), p.scale(c))
    return OperatorPoly(out)


def apply_to_polynomial(a: OperatorPoly, poly: dict[int, ParamPoly]) -> dict[int, ParamPoly]:
    """Apply an operator to a polynomial in z (exponent -> ParamPoly).

    Independent of op_mul: z^i Dz^j z^n = n(n-1)...(n-j+1) z^(n-j+i).
    """
    out: dict[int, ParamPoly] = {}
    for (i, j), p in a.terms.items():
        for n, c in poly.items():
            if n < 0:
                raise ValueError("polynomial exponents must be nonnegative")
            if j > n:
                continue
            fall = 1
            for s in range(j):
                fall *= n - s
            term = (p * c).scale(fall)
            key = n - j + i
            tot = out.get(key, P_ZERO) + term
            if tot:
                out[key] = tot
            else:
                out.pop(key, None)
    return out


def _falling(n: int) -> list[int]:
    """Coefficients of r^p, p = 0..n, in the falling factorial r(r-1)...(r-n+1)."""
    poly = [1]
    for s in range(n):
        # times (r - s)
        poly = [a - s * b for a, b in zip([0] + poly, poly + [0])]
    return poly


def leibniz_hermite_table(m: int) -> dict[tuple[int, int, int], int]:
    """d^m [e^(g z^2/2) z^r] as {(a, p, e): int}, the g^a r^p z^(r+e) terms
    (the factor e^(g z^2/2) taken out).

    Leibniz over the two factors, with the Hermite expansion
    d^j e^(g z^2/2) = e^(g z^2/2) sum_i j!/(i! (j-2i)! 2^i) g^(j-i) z^(j-2i)
    and d^(m-j) z^r = (r)_(m-j) z^(r-m+j), the falling factorial expanded in
    powers of r.  A sum of closed forms, not a differentiation recurrence.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    table: dict[tuple[int, int, int], int] = {}
    for j in range(m + 1):
        fall = _falling(m - j)
        for i in range(j // 2 + 1):
            hermite = math.comb(m, j) * math.factorial(j) // (
                math.factorial(i) * math.factorial(j - 2 * i) * 2 ** i)
            for p, s in enumerate(fall):
                accumulate(table, (j - i, p, 2 * j - 2 * i - m), hermite * s)
    return table


def build_jck(params: ModelParams, N: int) -> list[tuple]:
    """Truncated number-conserving counterpart: couples |n+k,down> <-> |n,up>
    only, so its (index, diag, off) chains are those 2x2 blocks and 1x1
    chains for the rest."""
    k = params.k
    diag, w = _chain_entries(params, N)
    chains = [((2 * (n + k), 2 * n + 1), (diag[n + k, 0], diag[n, 1]), w[n:n + 1])
              for n in range(N - k)]
    chains += [((2 * n,), diag[n, :1], ()) for n in range(k)]
    chains += [((2 * n + 1,), diag[n, 1:], ()) for n in range(N - k, N)]
    return chains


def dense(chains) -> np.ndarray:
    """The direct sum of (index, diag, off) chains written out; each coupling
    goes into both triangles, so it is exactly symmetric."""
    dim = sum(len(diag) for _, diag, _ in chains)
    out = np.zeros((dim, dim))
    for idx, diag, off in chains:
        out[idx, idx] = diag
        out[idx[:-1], idx[1:]] = off
        out[idx[1:], idx[:-1]] = off
    return out


def stebz_reference(chains, m: int) -> list[float]:
    """The m lowest eigenvalues of the direct sum of (index, diag, off)
    chains, each chain solved by scipy.linalg.eigvalsh_tridiagonal's stebz
    driver at the package's bisection tolerance, merged."""
    from scipy.linalg import eigvalsh_tridiagonal

    parts = [eigvalsh_tridiagonal(diag, off, select="i",
                                  select_range=(0, min(m, len(diag)) - 1),
                                  lapack_driver="stebz", tol=_BISECTION_TOL)
             for _, diag, off in chains]
    return [float(v) for v in np.sort(np.concatenate(parts))[:m]]


def displaced_oscillator_oracle(g: float, omega: float, m: int) -> list[float]:
    """Exact k=1, delta=0 levels: E_n = w*n - g^2/w, each doubly degenerate."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    if m < 0:
        raise ValueError("m must be >= 0")
    shift = g * g / omega
    return [omega * (i // 2) - shift for i in range(m)]
