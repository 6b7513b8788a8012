"""The model in Bargmann form, derived with sympy, against both halves.

H = omega a'a + g (a^k + a'^k) sx + delta sz acts on spinors (f_up, f_down)
of entire functions with a' = z and a = d/dz (V. Bargmann, Comm. Pure Appl.
Math. 14, 1961).  Scaled by 1/g, with w = omega/g, d = delta/g and E for
E/g, the eigenproblem (H - E) psi = 0 in the sx basis psi_+- = f_up +- f_down
(D. Braak, PRL 107, 100401, 2011) reads

    (A + s C) psi_s + d psi_-s = 0,   A = w z Dz - E,  C = z^k + Dz^k,

and eliminating psi_-s leaves the scalar sector operator
(A - s C)(A + s C) - d^2 on psi_s.  sympy derives it here from H applied
to an undefined f(z), with none of the package's operator code, and reads
it off as {(i, j): {(w, d, E exponents): Fraction}}, the coefficient of
z^i f^(j).  The same H gives build_hkp's entries as matrix elements in the
orthonormal basis z^n/sqrt(n!).
"""

import math
from fractions import Fraction
from functools import cache

import pytest

from kphoton.fock import ModelParams, build_hkp
from kphoton.weyl import OperatorPoly, ParamPoly, build_reduced_operator

sympy = pytest.importorskip("sympy")

z, w, d, E = sympy.symbols("z w d E")
SIGNS = (1, -1)


def hamiltonian(k, up, down, omega=w, g=1, delta=d):
    """(H f_up, H f_down): the number operator z d/dz and the coupling
    z^k + d^k/dz^k, which flips the spin, in Bargmann form."""
    def number(u):
        return z * sympy.diff(u, z)

    def coupling(u):
        return z ** k * u + sympy.diff(u, z, k)

    return (omega * number(up) + g * coupling(down) + delta * up,
            omega * number(down) + g * coupling(up) - delta * down)


def sector_equations(k, plus, minus):
    """{s: the psi_s equation}, the sum (s = 1) and the difference (s = -1)
    of the two components of (H - E) psi, in the sx basis."""
    up, down = (plus + minus) / 2, (plus - minus) / 2
    h_up, h_down = hamiltonian(k, up, down)
    r_up, r_down = h_up - E * up, h_down - E * down
    return {1: r_up + r_down, -1: r_up - r_down}


def _spinor(s, own, other):
    """(psi_+, psi_-) with psi_s = own and psi_-s = other."""
    return (own, other) if s == 1 else (other, own)


@cache
def sector_operator(k: int, s: int) -> dict:
    """The scalar operator on psi_s left by eliminating psi_-s."""
    f = sympy.Function("f")(z)
    partner = sympy.expand(-sector_equations(k, *_spinor(s, f, 0))[s] / d)
    eqs = sector_equations(k, *_spinor(s, f, partner))
    # psi_-s enters its partner's equation only as d psi_-s, so partner solves it
    assert sympy.expand(eqs[s]) == 0
    return _read_off(sympy.expand(-d * eqs[-s]), f, 2 * k)


def _read_off(expr, f, order: int) -> dict:
    """expr = sum_ij c_ij(w, d, E) z^i f^(j) as {(i, j): {exponents: Fraction}}."""
    t = sympy.symbols(f"t0:{order + 1}")
    # xreplace is structural: it swaps each derivative whole, never the f inside
    expr = expr.xreplace({f.diff(z, j) if j else f: t[j] for j in range(order + 1)})
    out: dict = {}
    for (i, ew, ed, ee, *js), c in sympy.Poly(expr, z, w, d, E, *t).terms():
        assert sum(js) == 1, "the sector operator is linear in f"
        out.setdefault((i, js.index(1)), {})[(ew, ed, ee)] = Fraction(int(c.p), int(c.q))
    return out


def _terms_of(op: OperatorPoly) -> dict:
    """op in _read_off's form."""
    return {ij: p.terms for ij, p in op.terms.items()}


def product_route(k: int, s: int) -> OperatorPoly:
    """(A - s C)(A + s C) - d^2 by the package's normal-ordered product."""
    sign = ParamPoly.rational(s)
    a = OperatorPoly({(1, 1): ParamPoly.omega(), (0, 0): -ParamPoly.energy()})
    c = OperatorPoly({(k, 0): sign, (0, k): sign})
    return (a - c) * (a + c) - OperatorPoly({(0, 0): ParamPoly.delta() * ParamPoly.delta()})


def _apply(coefficients: dict, u) -> "sympy.Poly":
    """The operator with these coefficients applied to u, a polynomial in
    z, w, d and E."""
    gens = (z, w, d, E)
    u = sympy.Poly(u, *gens)
    return sum((sympy.Poly({(i, *e): c for e, c in terms.items()}, *gens) * u.diff((z, j))
                for (i, j), terms in coefficients.items()), sympy.Poly(0, *gens))


@cache
def series_solution(k: int, s: int, order: int, i: int):
    """The power series through z^order that solves (A + s C) psi = 0 at
    d = 0 and starts z^i + 0 z^(i+1) + ... + 0 z^(k-1): the residual's
    coefficient of z^n, n <= order - k, is solved for the coefficient of
    z^(n+k), the highest it holds.  The k of them, i < k, span the series
    solutions."""
    def residual(u):
        return sympy.expand(sector_equations(k, *_spinor(s, u, 0))[s].subs(d, 0))

    psi, res = z ** i, residual(z ** i)
    for n in range(order - k + 1):
        # the residual is linear in psi: c z^(n+k) adds c times its own
        mono = residual(z ** (n + k))
        c = sympy.expand(-res.coeff(z, n) / mono.coeff(z, n))
        psi, res = psi + c * z ** (n + k), sympy.expand(res + c * mono)
    return psi


def _annihilates(coefficients: dict, k: int, s: int) -> bool:
    """Whether the operator, at d = 0, kills the sector's series solutions in
    every coefficient their truncation at z^(4k) determines: z^0..z^(2k)."""
    order = 4 * k
    at_d0 = {ij: {e: c for e, c in terms.items() if e[1] == 0}
             for ij, terms in coefficients.items()}
    images = [_apply(at_d0, series_solution(k, s, order, i)) for i in range(k)]
    return all(m[0] > order - 2 * k for image in images for m in image.monoms())


@pytest.mark.parametrize("s", SIGNS, ids=["plus", "minus"])
@pytest.mark.parametrize("k", range(2, 9))
def test_sector_operator_is_the_product(k, s):
    assert sector_operator(k, s) == _terms_of(product_route(k, s))


@pytest.mark.parametrize("s", SIGNS, ids=["plus", "minus"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_sector_operator_annihilates_series_solutions(k, s):
    assert _annihilates(sector_operator(k, s), k, s)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13: the shipped first-order "
                   "remainder w k z^(k-1) is [w Dz, z^k], not the elimination's "
                   "+-[A, C] = +-w k (z^k - Dz^k)")
def test_shipped_operator_is_a_sector_operator():
    for k in range(2, 9):
        shipped = _terms_of(build_reduced_operator(k))
        assert shipped in [sector_operator(k, s) for s in SIGNS], f"k={k}"
    for k in (2, 3, 4):
        shipped = _terms_of(build_reduced_operator(k))
        assert any(_annihilates(shipped, k, s) for s in SIGNS), f"k={k}"


# --------------------------------------------------------------------------
# the numeric half: build_hkp's entries as matrix elements of the same H

# dyadic omega and delta, so that omega*n -+ delta is exact in doubles
OMEGA, DELTA, G = Fraction(5, 4), Fraction(3, 8), Fraction(3, 10)


def _coefficient(k, m, n, spin_out, spin_in) -> Fraction:
    """The coefficient of z^m in the spin_out component of H z^n |spin_in>;
    times sqrt(m!/n!) it is <m, spin_out| H |n, spin_in> in the basis
    z^n/sqrt(n!)."""
    image = hamiltonian(k, *((z ** n, 0) if spin_in == 1 else (0, z ** n)),
                        omega=sympy.Rational(OMEGA), g=sympy.Rational(G),
                        delta=sympy.Rational(DELTA))
    c = sympy.expand(image[0 if spin_out == 1 else 1]).coeff(z, m)
    return Fraction(int(c.p), int(c.q))


def _within_ulps(x: float, exact_square: Fraction, ulps: int) -> bool:
    """Whether |x - sqrt(exact_square)| <= ulps * ulp(x), decided exactly."""
    lo, hi = Fraction(x) - ulps * Fraction(math.ulp(x)), Fraction(x) + ulps * Fraction(math.ulp(x))
    return lo >= 0 and lo * lo <= exact_square <= hi * hi


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_build_hkp_entries_are_matrix_elements_of_h(k):
    N = 6 * k + 2
    chains = build_hkp(ModelParams(k, float(G), float(OMEGA), float(DELTA)), N)
    for index, diag, off in chains:
        states = [divmod(i, 2) for i in index]      # (n, spin), spin 1 up
        for (n, spin), x in zip(states, diag):
            exact = OMEGA * n + (DELTA if spin else -DELTA)
            assert _coefficient(k, n, n, spin, spin) == exact == Fraction(x)
        for ((n, spin), (m, spin_out)), x in zip(zip(states, states[1:]), off):
            # <m| H |n> squared, and <n| H |m> squared: H is symmetric
            raised = _coefficient(k, m, n, spin_out, spin) ** 2 * math.factorial(m) / math.factorial(n)
            lowered = _coefficient(k, n, m, spin, spin_out) ** 2 * math.factorial(n) / math.factorial(m)
            assert m == n + k and spin_out != spin
            assert raised == lowered == G * G * math.factorial(m) / math.factorial(m - k)
            assert _within_ulps(x, raised, 4 * k)
