"""Reference routes that only the tests call.

Each is an independent implementation of something the package computes
another way, kept here so that the package ships only what its commands run:

- op_mul (with its _dz_z table): the normal-ordered product by commutator
  rewriting, the check on the package product weyl.OperatorPoly.__mul__,
  which builds the reduced operator, and on the closed-form cross-term
  weights weyl.a_coeff.
- apply_to_polynomial: operators acting on polynomials in z, the check on
  op_mul itself (product against composition).
- c0_derivatives: Dz^j [e^(g z^2/2 + b z) z^r] for every j up to a bound,
  one d/dz step at a time, the route substitute_ansatz took before it built
  each row the operator reads in closed form; the check on asymptotics._c0_row,
  b-terms included.
- leibniz_hermite_table: d^m [e^(g z^2/2) z^r] in closed form, the b = 0
  check on asymptotics._c0_row and on the closed forms
  asymptotics.gf_coefficient and asymptotics.crho_closed.
- subs_expanded: RingElem.subs by expanding value^n in plain dicts, term by
  term, and folding g^k = -1 once, in the constructor, at the end.  With
  symbol "g" and the value g^(2m+1) it is also the check on
  ExponentBranch.at_root, the map g -> g^(2m+1) as a shift of each key.
- displaced_oscillator_oracle: the exact k = 1, delta = 0 spectrum, the check
  on fock.build_hkp and fock.lowest_eigenvalues.
- numpy_chains: fock.build_hkp as elementwise numpy arrays, the build the
  package had before it ran on Python floats; every chain's bytes and every
  refusal must be the same.
- build_jck: the truncated number-conserving matrix, whose exact census
  checks fock.jck_exact_spectrum and fock.lowest_eigenvalues; dense writes
  out any list of (index, diag, off) chains for dense eigh and entry checks.
- stebz_reference: scipy.linalg.eigvalsh_tridiagonal on each chain, the
  route fock.lowest_eigenvalues took before it called LAPACK's dstebz
  directly; its values must be bit-identical to the package's.
- tail_log_sums: the first-kind polynomials of one chain at complex z,
  summed over three doubling windows, whose decay test_tails compares with
  the exact half's rho.  It moves into the package when a command needs it.
- scale (of a quotient-ring element) and satisfies_quadratic: the builder
  of expected ring elements, and the exact back-substitution of an
  asymptotics.QuadraticRoot into a given quadratic.
- grammar_text: ParamPoly, RingElem and QuadraticRoot text written from the
  rules of docs/grammar.md, term by term off the Fraction view, the check on
  the package's renderers and their shared weyl.signed_sum and
  weyl.product_text.

Tests import them as ``from oracles import ...``: pytest puts this directory
on sys.path because it holds test modules and no __init__.py.

ParamPoly and RingElem compare equal only within one loaded copy of the
package: their __eq__ tests isinstance against its own class.  A check that
loads two trees side by side, such as a byte comparison of a parent commit
and a change, must compare the values' text() renderings instead.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from kphoton.asymptotics import QuadraticRoot, RingElem
from kphoton.fock import _BISECTION_TOL, ModelParams, _not_finite
from kphoton.weyl import P_ONE, P_ZERO, OperatorPoly, ParamPoly, accumulate


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


def grammar_text(x: ParamPoly | RingElem | QuadraticRoot) -> str:
    """x rendered by the rules of docs/grammar.md.

    Every value is a flat list of signed terms (negative, body).  A ring term
    whose coefficient is one parameter term is that monomial with the ring
    atoms appended, a multi-term coefficient is parenthesized, and a term
    without atoms is its coefficient's own terms.  The first term carries its
    sign as a leading "-"; the others join by " + " or " - ".
    """
    if isinstance(x, ParamPoly):
        terms = _param_terms(x)
    elif isinstance(x, RingElem):
        terms = []
        for key in sorted(x.terms, key=lambda t: (sum(t[:3]) + len(t[3]), t)):
            (g, b, r, c), p = key, x.terms[key]
            atoms = [f"g{g}"] * bool(g) + [_power(n, e) for n, e in (("b", b), ("r", r)) if e]
            terms += _ring_terms(p, atoms + [f"c{i}" for i in c])
    elif x.surd:
        terms = (_param_terms(x.rational) or [(False, "0")]) + _ring_terms(
            x.surd, [f"sqrt({grammar_text(x.disc)})"])
    else:
        terms = _param_terms(x.rational)
    if not terms:
        return "0"
    (neg, body), rest = terms[0], terms[1:]
    return "-" * neg + body + "".join((" - " if n else " + ") + t for n, t in rest)


def _power(name: str, e: int) -> str:
    return name if e == 1 else f"{name}^{e}"


def _param_terms(p: ParamPoly) -> list[tuple[bool, str]]:
    # graded: ascending total degree, then the higher w, d, E exponent first
    out = []
    for e in sorted(p.terms, key=lambda e: (sum(e), [-x for x in e])):
        v = p.terms[e]
        mag = str(abs(v.numerator)) + (f"/{v.denominator}" if v.denominator > 1 else "")
        factors = [_power(n, x) for n, x in zip("wdE", e) if x]
        out.append((v < 0, "*".join(factors if factors and abs(v) == 1 else [mag, *factors])))
    return out


def _ring_terms(p: ParamPoly, atoms: list[str]) -> list[tuple[bool, str]]:
    terms = _param_terms(p)
    if not atoms:
        return terms
    if len(terms) > 1:
        return [(False, "*".join([f"({grammar_text(p)})", *atoms]))]
    (neg, body), = terms
    return [(neg, "*".join(atoms if body == "1" else [body, *atoms]))]


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


def c0_derivatives(max_j: int, depth: int) -> list[list[dict]]:
    """slots[j][i]: coefficient of e^(g z^2/2 + b z) z^(r + j - i) in
    Dz^j [e^(g z^2/2 + b z) z^r], for 0 <= j <= max_j and 0 <= i <= depth.

    Each slot is {(g, b, r): int}, built by the D-step recurrence: d/dz only
    multiplies by g, b or r + e, so the coefficients are integers.  Slots
    past depth are dropped.
    """
    slots = [[{(0, 0, 0): 1}] + [{} for _ in range(depth)]]
    for j in range(max_j):
        # d/dz: c at offset e -> g*c at e+1, b*c at e, (r+e)*c at e-1
        new = [{} for _ in range(depth + 1)]
        for i, c in enumerate(slots[-1]):
            e = j - i
            for (g, b, r), p in c.items():
                accumulate(new[i], (g + 1, b, r), p)
                if i + 1 <= depth:
                    accumulate(new[i + 1], (g, b + 1, r), p)
                if i + 2 <= depth:
                    accumulate(new[i + 2], (g, b, r + 1), p)
                    if e:
                        accumulate(new[i + 2], (g, b, r), p * e)
        slots.append(new)
    return slots


def subs_expanded(x: RingElem, symbol: str, value) -> RingElem:
    """x with value (a RingElem or rational) substituted for g, b or r, in
    value's ring.

    value^n is expanded by plain dict products with unfolded keys, each term
    of x is multiplied out against it, and the relation g^k = -1 is imposed
    once, by the RingElem constructor, on the sum.
    """
    i = "gbr".index(symbol)
    if not isinstance(value, RingElem):
        value = RingElem.from_param(ParamPoly.rational(value), x.modulus)

    def times(u: dict, v: dict) -> dict:
        out = {}
        for (g1, b1, r1, c1), p in u.items():
            for (g2, b2, r2, c2), q in v.items():
                key = (g1 + g2, b1 + b2, r1 + r2, tuple(sorted(c1 + c2)))
                out[key] = out.get(key, P_ZERO) + p * q
        return out

    out = {}
    for key, p in x.terms.items():
        power = {(0, 0, 0, ()): P_ONE}
        for _ in range(key[i]):
            power = times(power, value.terms)
        rest = tuple(0 if j == i else e for j, e in enumerate(key[:3])) + (key[3],)
        for k2, q in times({rest: p}, power).items():
            out[k2] = out.get(k2, P_ZERO) + q
    return RingElem(out, value.modulus)


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


def _numpy_couplings(params: ModelParams, n: np.ndarray) -> np.ndarray:
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


def _numpy_entries(params: ModelParams, N: int) -> tuple[np.ndarray, np.ndarray]:
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
    return diag, _numpy_couplings(params, n[k:])


def numpy_chains(params: ModelParams, N: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """fock.build_hkp's (index, diag, off) chains in its (r, s) order, built
    with numpy: int64 indices 2n + spin, float64 entries."""
    k = params.k
    diag, w = _numpy_entries(params, N)
    chains = []
    for r in range(k):
        n = np.arange(r, N, k)
        for s in (0, 1):
            spin = (s + np.arange(len(n))) % 2
            chains.append((2 * n + spin, diag[n, spin], w[n[1:] - k]))
    return chains


def build_jck(params: ModelParams, N: int) -> list[tuple]:
    """Truncated number-conserving counterpart: couples |n+k,down> <-> |n,up>
    only, so its (index, diag, off) chains are those 2x2 blocks and 1x1
    chains for the rest."""
    k = params.k
    diag, w = _numpy_entries(params, N)
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


def tail_log_sums(diag, off, z: complex, J: int) -> list[float]:
    """ln of sum |P_j(z)|^2 over j in (J/8, J/4], (J/4, J/2] and (J/2, J].

    P_j are the first-kind polynomials of the Jacobi chain (diag, off):
    P_0 = 1, P_-1 = 0 and off[j] P_(j+1) = (z - diag[j]) P_j - off[j-1] P_(j-1),
    so the chain needs J couplings.  Plain complex floats carry P: whenever
    |P_j| leaves [1e-100, 1e100], P_j and P_(j-1) are divided by |P_j| and
    its log is added to a running scale, so neither overflow nor underflow
    stops the recurrence.
    """
    prev, cur, b_prev, scale = 0j, 1 + 0j, 0.0, 0.0
    logs, window = [], 0.0      # window: the open window's sum over e^(2 scale)
    for j in range(J):          # cur becomes P_(j+1)
        prev, cur, b_prev = cur, ((z - diag[j]) * cur - b_prev * prev) / off[j], off[j]
        size = abs(cur)
        if not 1e-100 <= size <= 1e100:
            prev, cur, window = prev / size, cur / size, window / (size * size)
            scale += math.log(size)
            size = 1.0
        if j >= J // 8:
            window += size * size
        if j + 1 in (J // 4, J // 2, J):
            logs.append(math.log(window) + 2 * scale)
            window = 0.0
    return logs
