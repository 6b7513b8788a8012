import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kphoton.asymptotics import (
    DivisionByNonUnit,
    ExponentBranch,
    OutOfScope,
    QuadraticRoot,
    RingElem,
    UnsolvableLevel,
    _advance,
    _c0_derivatives,
    _solve_beta,
    _solve_c,
    _solve_rho,
    _square_content,
    assemble_final_quadratic,
    c_recursion,
    crho_closed,
    gamma_root_elements,
    gf_coefficient,
    rho_quadratic_general,
    ring_sqrt,
    solve_levels,
    substitute_ansatz,
)
from kphoton.weyl import OperatorPoly, ParamPoly, build_reduced_operator
from oracles import leibniz_hermite_table, op_sum, satisfies_quadratic, scale

W = ParamPoly.omega()
E = ParamPoly.energy()


def G(p, k, coeff=1):
    return scale(RingElem.gamma(p, k), coeff)


def levels_for(k, depth=5):
    return substitute_ansatz(build_reduced_operator(k), k, depth)


class TestRingElem:
    def test_quotient_reduction_is_eager(self):
        x = RingElem.gamma(7, 5)
        assert x.terms == {(2, 0, 0, ()): ParamPoly.rational(-1)}
        assert RingElem.gamma(5, 5) == scale(RingElem.one(5), -1)
        assert RingElem.gamma(10, 5) == RingElem.one(5)

    def test_negative_powers_fold(self):
        # g^-1 = -g^(k-1)
        x = RingElem({(-1, 0, 0, ()): ParamPoly.rational(1)}, 3)
        assert x == G(2, 3, -1)

    def test_scale(self):
        x = RingElem({(1, 0, 2, ()): W, (0, 1, 0, (1,)): ParamPoly.rational(3)}, 3)
        assert scale(x, 0) == RingElem.zero(3)
        assert scale(x, ParamPoly()) == RingElem.zero(3)
        assert scale(x, Fraction(-2, 3)).terms == {
            (1, 0, 2, ()): W.scale(Fraction(-2, 3)), (0, 1, 0, (1,)): ParamPoly.rational(-2)}
        assert scale(x, E).terms == {(1, 0, 2, ()): W * E, (0, 1, 0, (1,)): E.scale(3)}
        assert scale(x, E).modulus == 3
        with pytest.raises(TypeError):
            scale(RingElem.one(), 0.1)      # a float would enter as a binary fraction

    def test_gamma_is_unit(self):
        one = RingElem.one(4)
        g = RingElem.gamma(1, 4)
        assert one.div_unit(g) * g == one

    def test_div_non_unit_rejected(self):
        x = RingElem.one(3) + RingElem.gamma(1, 3)
        with pytest.raises(DivisionByNonUnit):
            RingElem.one(3).div_unit(x)

    def test_subs_and_views(self):
        k = 5
        b = RingElem({(0, 1, 0, ()): ParamPoly.rational(1)}, k)
        expr = b * scale(b, 3) + RingElem.gamma(2, k)
        assert expr.max_b() == 2
        val = G(3, k)
        got = expr.subs("b", val)
        assert got == val * val * scale(RingElem.one(k), 3) + RingElem.gamma(2, k)

    def test_rem_rho_quadratic(self):
        # r^2 + 3r + 2 kills r = -1 and r = -2
        k = 5
        r = RingElem({(0, 0, 1, ()): ParamPoly.rational(1)}, k)
        q = r * r + scale(r, 3) + scale(RingElem.one(k), 2)
        assert (q * q + scale(q, 5)).rem_rho_quadratic(
            ParamPoly.rational(3), ParamPoly.rational(2)).is_zero()
        assert not q.rem_rho_quadratic(ParamPoly.rational(3),
                                       ParamPoly.rational(1)).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6),
           st.integers(-3, 3), st.integers(-3, 3))
    def test_mul_commutes_and_reduces(self, p1, p2, p3, q1, q2):
        k = 4
        a = G(p1, k, q1) + G(p2, k, 3)
        b = G(p3, k, q2) + RingElem.one(k)
        assert a * b == b * a
        assert all(key[0] < k for key in (a * b).terms)

    def test_mixed_moduli_rejected(self):
        with pytest.raises(ValueError):
            RingElem.one(3) + RingElem.one(4)
        with pytest.raises(ValueError):
            RingElem.one() * RingElem.one(4)

    def test_text(self):
        k = 3
        e = G(1, k, Fraction(9)) + RingElem({(2, 0, 0, ()): W * W}, k)
        assert e.text() == "9*g1 + w^2*g2"
        b2 = RingElem({(1, 2, 0, ()): ParamPoly.rational(9)}, k)
        assert b2.text() == "9*g1*b^2"


class TestRingSqrt:
    def test_k3_beta_square(self):
        # b^2 = -(w^2/9) g  ->  b = (w/3) g^2
        k = 3
        rhs = RingElem({(1, 0, 0, ()): (W * W).scale(Fraction(-1, 9))}, k)
        root = ring_sqrt(rhs)
        assert root == RingElem({(2, 0, 0, ()): W.scale(Fraction(1, 3))}, k)
        assert root * root == rhs

    def test_zero_and_failures(self):
        assert ring_sqrt(RingElem.zero(5)).is_zero()
        assert ring_sqrt(scale(RingElem.one(5), 2)) is None       # sqrt(2) not rational
        assert ring_sqrt(RingElem.one(4) + RingElem.gamma(1, 4)) is None

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_odd_k_squares_roundtrip(self, k):
        # even g-power: positive coefficient is a square; odd g-power: the
        # sign flip from g^k = -1 means only the negative one is
        for p in range(k):
            coeff = Fraction(4, 9) if p % 2 == 0 else Fraction(-4, 9)
            x = G(p, k, coeff)
            root = ring_sqrt(x)
            assert root is not None and root * root == x
            assert ring_sqrt(G(p, k, -coeff)) is None


class TestQuadraticRoot:
    def test_rho4_normal_form(self):
        b = ParamPoly.rational(5)
        c = (W * W).scale(Fraction(1, 16)) + ParamPoly.rational(Fraction(21, 4))
        plus, minus = QuadraticRoot.pair_from_monic(b, c)
        assert plus.rational == ParamPoly.rational(Fraction(-5, 2))
        assert plus.surd == ParamPoly.rational(Fraction(1, 4))
        assert minus.surd == ParamPoly.rational(Fraction(-1, 4))
        assert plus.disc == ParamPoly.rational(16) - W * W
        assert satisfies_quadratic(plus, b, c) and satisfies_quadratic(minus, b, c)
        assert not plus.is_rational()

    def test_perfect_square_disc_gives_rationals(self):
        plus, minus = QuadraticRoot.pair_from_monic(ParamPoly.rational(7),
                                                    ParamPoly.rational(10))
        assert plus.is_rational() and plus.rational_value().constant_value() == -2
        assert minus.rational_value().constant_value() == -5

    def test_double_root(self):
        roots = QuadraticRoot.pair_from_monic(ParamPoly.rational(4),
                                              ParamPoly.rational(4))
        assert len(roots) == 1 and roots[0].rational_value().constant_value() == -2

    def test_equality_reads_every_field(self):
        r, s, d = ParamPoly.rational(-2), ParamPoly.rational(1), ParamPoly.rational(3)
        assert QuadraticRoot(r, s, d) == QuadraticRoot(r, s, d)
        assert QuadraticRoot(r) == QuadraticRoot(r, ParamPoly(), ParamPoly())
        for other in (QuadraticRoot(-r, s, d), QuadraticRoot(r, -s, d),
                      QuadraticRoot(r, s, d + d)):
            assert QuadraticRoot(r, s, d) != other

    @settings(max_examples=60, deadline=None)
    @given(st.fractions(min_value=-50, max_value=50, max_denominator=8),
           st.fractions(min_value=-50, max_value=50, max_denominator=8))
    def test_back_substitution_property(self, b, c):
        for root in QuadraticRoot.pair_from_monic(ParamPoly.rational(b),
                                                  ParamPoly.rational(c)):
            assert satisfies_quadratic(root, b, c)
            if not root.is_rational():
                # a surd root rebuilds exactly the quadratic it was solved from
                assert root.monic() == (ParamPoly.rational(b), ParamPoly.rational(c))


class TestAnsatzSeries:
    def test_derivative_rule_single_term(self):
        d = _c0_derivatives(1, 5)[1]
        # c_0 at offset 0 -> g c_0 at +1, b c_0 at 0, r c_0 at -1
        assert d[0] == {(1, 0, 0): 1}
        assert d[1] == {(0, 1, 0): 1}
        assert d[2] == {(0, 0, 1): 1}
        assert d[3] == {}

    def test_window_truncation(self):
        slots = _c0_derivatives(3, 5)
        assert len(slots) == 4
        assert slots[3][5]                     # offset -2, the last slot kept
        assert len(slots[3]) == 6              # r(r-1)(r-2) at -3 is past depth

    @pytest.mark.parametrize("m", range(0, 25))
    def test_c0_terms_match_brute_force_oracle(self, m):
        # at b = 0 slot i is d^m e^(g z^2/2) z^r at z^(r+m-i); Dz^m reaches
        # down to z^(r-m), so slots 0..2m are every slot
        slots = _c0_derivatives(m, 2 * m)[m]
        table = leibniz_hermite_table(m)
        for i, slot in enumerate(slots):
            assert all(type(v) is int for v in slot.values())
            got = {(g, r): v for (g, b, r), v in slot.items() if b == 0}
            want = {(g, r): v for (g, r, e), v in table.items() if e == m - i}
            assert got == want


class TestSubstituteAnsatz:
    def test_depth_guards(self):
        op = build_reduced_operator(3)
        with pytest.raises(ValueError):
            substitute_ansatz(op, 3, 4)
        with pytest.raises(ValueError, match="exceeds the cap 32"):
            substitute_ansatz(op, 3, 33)

    def test_term_past_window_rejected(self):
        # z^i Dz^j with i + j > 2k would need series slots below the window
        op = op_sum(build_reduced_operator(3), OperatorPoly({(6, 1): ParamPoly.rational(1)}))
        with pytest.raises(ValueError, match=r"z\^6\*Dz\^1 has i \+ j > 2k = 6"):
            substitute_ansatz(op, 3, 8)
        substitute_ansatz(OperatorPoly({(5, 1): ParamPoly.rational(1)}), 3)    # i + j = 2k is fine

    def test_rational_operator_coefficients(self):
        # the levels are linear in the operator, whatever its common denominator
        def coeffs(op):
            return [lv.coeff for lv in substitute_ansatz(op, 3, 8)]

        a = build_reduced_operator(3)
        b = OperatorPoly({(1, 1): W.scale(Fraction(1, 2)),
                          (0, 3): ParamPoly.rational(Fraction(-2, 3))})
        assert coeffs(op_sum(a, b)) == [x + y for x, y in zip(coeffs(a), coeffs(b))]
        third = ParamPoly.rational(Fraction(2, 3))
        a_third = OperatorPoly({ij: p * third for ij, p in a.terms.items()})
        assert coeffs(a_third) == [scale(x, third) for x in coeffs(a)]

    def test_k5_level0_shows_double_root_factor(self):
        levels = levels_for(5)
        expected = RingElem({(10, 0, 0, (0,)): ParamPoly.rational(1),
                             (5, 0, 0, (0,)): ParamPoly.rational(2),
                             (0, 0, 0, (0,)): ParamPoly.rational(1)})
        # the engine's sign convention carries an overall -1 unit
        assert levels[0].coeff == -expected

    @pytest.mark.parametrize("k", range(3, 13))
    def test_level0_factorization(self, k):
        lvl0 = levels_for(k)[0].coeff
        expected = RingElem({(2 * k, 0, 0, (0,)): ParamPoly.rational(-1),
                             (k, 0, 0, (0,)): ParamPoly.rational(-2),
                             (0, 0, 0, (0,)): ParamPoly.rational(-1)})
        assert lvl0 == expected

    @pytest.mark.parametrize("k", range(3, 13))
    def test_level1_vanishes_in_quotient(self, k):
        levels = levels_for(k)
        assert not levels[1].coeff.is_zero()          # raw: multiple of g^k+1
        assert levels[1].coeff.reduce(k).is_zero()

    @pytest.mark.parametrize("k", range(5, 13))
    def test_level3_vanishes_with_beta_zero(self, k):
        levels = levels_for(k)
        lvl3 = levels[3].coeff.reduce(k).subs("b", RingElem.zero(k))
        assert lvl3.is_zero()

    @pytest.mark.parametrize("k", range(3, 7))
    def test_c_n_part_is_shifted_c0_part(self, k):
        # c_n z^(r-n) is the c_0 term at r - n, so the c_n part of level l is
        # the c_0 part of level l - n with r replaced by r - n
        def c_part(lv, n):
            return RingElem({(g, b, r, ()): p for (g, b, r, c), p in lv.coeff.terms.items()
                             if c == (n,)})

        levels = levels_for(k, 16)
        r = RingElem({(0, 0, 1, ()): ParamPoly.rational(1)})
        for l, lv in enumerate(levels):
            for n in range(l + 1):
                shifted = c_part(levels[l - n], 0).subs("r", r + scale(RingElem.one(), -n))
                assert c_part(lv, n) == shifted, (l, n)
        # z^(2k-1) Dz: level 3 is g*c3 + b*c2 + (r-1)*c1
        lv3 = substitute_ansatz(OperatorPoly({(2 * k - 1, 1): ParamPoly.rational(1)}), k)[3].coeff
        assert lv3.text() == "-c1 + r*c1 + b*c2 + g1*c3"

    def test_levels_are_linear_in_c(self):
        # the one-pass substitution of the known c_n relies on both facts
        for k in range(3, 13):
            levels = levels_for(k, 16)
            assert all(len(key[3]) == 1 for lv in levels for key in lv.coeff.terms)
            for b in solve_levels(levels, k):
                assert not b.beta.c_indices()
                assert not any(c.c_indices() for c in b.c)

    # sha256 of the rendered levels 0..16; the only direct check of levels past 5
    @pytest.mark.parametrize("k, digest", [
        (3, "88b39d175d629f9704bdca561e83cee6b497144c7c43ec01735239f3619936d4"),
        (4, "26de8b4d2cf0ebb724c083b2997346cdde87d881ebb2316492052ef156892e3d"),
        (5, "db83e8788c439243b0aacd3bdf9075ed80e47c0740da17ca3579dd9925b45534"),
        (6, "e8d9ca2d368c4a04d43de88123189c4041f0968b4978df88db813073d18540ea"),
    ])
    def test_depth16_levels_pinned(self, k, digest):
        text = "\n".join(lv.text() for lv in levels_for(k, 16))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestSolveLevels:
    def test_k2_out_of_scope(self):
        levels = substitute_ansatz(build_reduced_operator(2), 2, 5)
        with pytest.raises(OutOfScope):
            solve_levels(levels, 2)

    def test_needs_depth_5(self):
        with pytest.raises(ValueError):
            solve_levels(levels_for(3)[:4], 3)

    def test_k3_branches(self):
        branches = solve_levels(levels_for(3), 3)
        assert len(branches) == 6
        assert [b.gamma_index for b in branches] == [0, 0, 1, 1, 2, 2]
        # every branch: rho = -2 exactly
        for b in branches:
            assert b.rho.is_rational()
            assert b.rho.rational_value().constant_value() == -2
        # beta = +-(w/3) g^2 instantiated per root; for the root gamma = -1
        # (index m=1) this is +-w/3
        w3 = RingElem.from_param(W.scale(Fraction(1, 3)), 3)
        assert branches[2].beta == w3
        assert branches[3].beta == -w3
        # beta pairs are opposite on every root
        for i in range(0, 6, 2):
            assert branches[i].beta == -branches[i + 1].beta

    def test_k3_beta_inverse_relation(self):
        # beta = +-w/(3 gamma): multiplying by 3*gamma must give +-w
        branches = solve_levels(levels_for(3), 3)
        for b in branches:
            prod = b.beta * scale(b.gamma, 3)
            assert prod.is_scalar()
            assert prod.scalar_part() in (W, -W)

    def test_k3_gamma_roots(self):
        roots = gamma_root_elements(3)
        assert roots[0] == RingElem.gamma(1, 3)
        assert roots[1] == scale(RingElem.one(3), -1)
        assert roots[2] == scale(RingElem.gamma(2, 3), -1)
        # each satisfies g^3 = -1
        for r in roots:
            assert r * r * r == scale(RingElem.one(3), -1)

    def test_k4_branches(self):
        branches = solve_levels(levels_for(4), 4)
        assert len(branches) == 8
        for b in branches:
            assert b.beta.is_zero()
            assert b.rho.monic() == (ParamPoly.rational(5), (W * W).scale(Fraction(1, 16))
                                     + ParamPoly.rational(Fraction(21, 4)))
            assert b.rho.disc == ParamPoly.rational(16) - W * W
        assert branches[0].rho.surd == ParamPoly.rational(Fraction(1, 4))
        assert branches[1].rho.surd == ParamPoly.rational(Fraction(-1, 4))

    @pytest.mark.parametrize("k", range(5, 13))
    def test_general_k(self, k):
        branches = solve_levels(levels_for(k), k)
        assert len(branches) == 2 * k
        gb, gc = rho_quadratic_general(k)
        for b in branches:
            assert b.beta.is_zero()
            assert satisfies_quadratic(b.rho, gb, gc)
            assert b.rho.is_rational()
        vals = {b.rho.rational_value().constant_value() for b in branches}
        assert vals == {Fraction(1 - k, 2), Fraction(5 - 3 * k, 2)}
        assert all(v < Fraction(-1, 2) for v in vals)

    @pytest.mark.parametrize("k", [3, 5, 6])
    def test_branches_annihilate_levels_0_to_4(self, k):
        levels = levels_for(k)
        for b in solve_levels(levels, k):
            assert all(not b.residual(lv) for lv in levels[:5])

    def test_k4_branches_annihilate_via_quadratic(self):
        levels = levels_for(4)
        for b in solve_levels(levels, 4):
            assert all(not b.residual(lv) for lv in levels[:5])

    @pytest.mark.parametrize("k", range(5, 13))
    def test_exponents_free_of_parameters(self, k):
        for b in solve_levels(levels_for(k), k):
            for poly in (b.rho.rational, b.rho.surd, b.rho.disc):
                for name in ("w", "d", "E"):
                    assert not poly.uses(name)
            assert b.beta.is_zero()


class TestSolveC:
    def test_returns_minus_r_over_k(self):
        k = 3
        eq = RingElem({(1, 0, 0, (2,)): ParamPoly.rational(4),
                       (0, 0, 0, ()): W}, k)
        # 4g*c2 + w = 0  ->  c2 = -w/(4g) = (w/4) g^2, using g^3 = -1
        assert _solve_c(eq, 2, 6) == G(2, k, W.scale(Fraction(1, 4)))

    def test_two_unknowns_rejected(self):
        k = 3
        eq = RingElem({(1, 0, 0, (2,)): ParamPoly.rational(4),
                       (0, 0, 0, (3,)): W}, k)
        with pytest.raises(UnsolvableLevel) as info:
            _solve_c(eq, 2, 6)
        assert info.value.level == 6
        assert info.value.reason == "more than one unknown c_n at this level"
        assert info.value.residual == "w*c3"


def _refusal(solve, *args) -> str:
    with pytest.raises(UnsolvableLevel) as info:
        solve(*args)
    return info.value.reason


class TestSolverBranches:
    """Solver cases that no command's levels reach, on synthetic levels."""

    @staticmethod
    def elem(terms, k=3):
        # {(g, b, r, c): int or Fraction} in the quotient ring at k
        return RingElem({key: ParamPoly.rational(q) for key, q in terms.items()}, k)

    def test_beta_linear(self):
        # 2g*b + 3 = 0  ->  b = -3/(2g) = (3/2) g^2, using g^3 = -1
        eq = self.elem({(1, 1, 0, ()): 2, (0, 0, 0, ()): 3})
        assert _solve_beta(eq, 1) == [G(2, 3, Fraction(3, 2))]

    def test_beta_quadratic_with_linear_term_refused(self):
        eq = self.elem({(0, 2, 0, ()): 1, (0, 1, 0, ()): 1, (0, 0, 0, ()): 1})
        assert _refusal(_solve_beta, eq, 2) == "b-quadratic with linear term"

    def test_beta_cubic_refused(self):
        eq = self.elem({(0, 3, 0, ()): 1, (0, 0, 0, ()): 1})
        assert _refusal(_solve_beta, eq, 2) == "degree 3 in b"

    def test_rho_cubic_refused(self):
        eq = self.elem({(0, 0, 3, ()): 1, (0, 0, 0, ()): 1})
        assert _refusal(_solve_rho, eq, 4) == "degree 3 in r"

    def test_rho_monic_constant_with_g_refused(self):
        # r^2 + g: the monic constant is not a parameter polynomial; refused
        # for as long as rho must lie in Q(w, d, E) plus a surd
        eq = self.elem({(0, 0, 2, ()): 1, (1, 0, 0, ()): 1})
        assert _refusal(_solve_rho, eq, 4) == "monic constant is not a scalar"

    def test_advance_needs_b_first(self):
        partial = ExponentBranch(3, 0, None, None, c=(RingElem.one(3),))
        eq = self.elem({(0, 0, 1, ()): 1})
        assert _refusal(_advance, partial, eq, 1, 4) == "nonzero level before b was determined"

    def test_square_content_brute_force(self):
        for n in range(-5000, 5001):
            m = abs(n)
            want = max((s for s in range(1, math.isqrt(m) + 1) if m % (s * s) == 0),
                       default=1)
            assert _square_content(n) == want, n


class TestCRecursion:
    def test_k5_plus_branch_frozen_tail(self):
        levels = levels_for(5, 11)
        br = solve_levels(levels, 5)[0]      # m=0, rho=-2
        ext = c_recursion(br, levels, 5)
        k = 5
        assert ext.c[1].is_zero()
        expected_c2 = (G(2, k, W.scale(Fraction(-1, 10)))
                       + G(4, k, ParamPoly.rational(Fraction(-3, 2))
                           + (W * W).scale(Fraction(-1, 50))))
        assert ext.c[2] == expected_c2
        assert ext.c[3].is_zero() and ext.resonant == (3,)
        assert ext.c[5].is_zero()
        assert ext.c[4].uses_param("E")     # tail picks up the spectral parameter

    def test_k5_minus_branch_frozen_tail(self):
        levels = levels_for(5, 11)
        br = solve_levels(levels, 5)[1]      # m=0, rho=-5
        ext = c_recursion(br, levels, 5)
        k = 5
        expected_c2 = (G(2, k, W.scale(Fraction(1, 50)))
                       + G(4, k, ParamPoly.rational(Fraction(-15, 2))
                           + (W * W).scale(Fraction(1, 250))))
        assert ext.c[2] == expected_c2
        assert ext.c[3].is_zero() and ext.resonant == ()   # solved, not pinned
        assert ext.c[5].is_zero()

    @pytest.mark.parametrize("idx", [0, 1])
    def test_k5_back_substitution(self, idx):
        levels = levels_for(5, 11)
        ext = c_recursion(solve_levels(levels, 5)[idx], levels, 5)
        # every level up to 4 + n_max vanishes on the extended branch
        assert all(not ext.residual(lv) for lv in levels[:10])

    def test_k3_frozen_c1_and_laurent_c2(self):
        levels = levels_for(3, 9)
        branches = solve_levels(levels, 3)
        br = branches[1]                     # m=0, beta = -w g^2/3 = +w/(3g)
        expected_c1 = (scale(RingElem.one(3), Fraction(1, 2))
                       + G(1, 3, W.scale(Fraction(1, 6)) - E.scale(Fraction(1, 3))
                           + (W * W * W).scale(Fraction(1, 81))))
        assert br.c[1] == expected_c1
        ext = c_recursion(br, levels, 3)
        # c_2 needs 1/w: the coefficient field ParamPoly is Laurent
        assert any(e[0] < 0 for key, p in ext.c[2].terms.items() for e in p.terms)
        assert all(not ext.residual(lv) for lv in levels[:7])

    def test_k4_surd_rho_refused(self):
        levels = levels_for(4, 7)
        br = solve_levels(levels, 4)[0]
        with pytest.raises(ValueError, match="rational rho"):
            c_recursion(br, levels, 1)

    def test_depth_precondition(self):
        levels = levels_for(5, 6)
        br = solve_levels(levels, 5)[0]
        with pytest.raises(ValueError, match="depth"):
            c_recursion(br, levels, 3)

    # sha256 of the rendered c_0..c_12 of the last branch; depth 18 leaves
    # one spare level and gives the same tails as depth 32
    @pytest.mark.parametrize("k, digest", [
        (3, "a15ad766a0e8cf7b08fa6e030d3245bec432c001a396bc2a7b3e095e28d570d8"),
        (5, "6282547d2637e3e27b32c6816785cb224495940cdaed48babcff18dd8d003f81"),
        (7, "78991d1a1aa132696c85d91f99a4c83314c14b805f111c29180b88b808931ef5"),
        (9, "4807a1b9cb5b6ea802dd06f677d339e5aa7c6687dc75644851f40dd7ec1bf749"),
        (12, "d2b265b7f84e741ae4539de0af1fa9c019b002ead0d5f9a71d8bb8ea9edfbccd"),
    ])
    def test_tails_pinned(self, k, digest):
        levels = levels_for(k, 18)
        ext = c_recursion(solve_levels(levels, k)[-1], levels, 12)
        text = "\n".join(c.text() for c in ext.c)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert ext.resonant == ()

    # the two rational rho roots (1-k)/2 and (5-3k)/2 differ by k-2, and on
    # the first branch that level's obstruction vanishes: c_(k-2) is pinned
    @pytest.mark.parametrize("k", [5, 7, 8, 9, 10, 11, 12])
    def test_integer_rho_gap_pins_c(self, k):
        levels = levels_for(k, 18)
        ext = c_recursion(solve_levels(levels, k)[0], levels, 12)
        assert ext.resonant == (k - 2,)
        assert ext.c[k - 2].is_zero()

    def test_k6_resonance_pinned(self):
        # rho = -5/2 and -13/2 differ by 4: level 8 leaves a nonzero obstruction
        levels = levels_for(6, 18)
        with pytest.raises(UnsolvableLevel) as info:
            c_recursion(solve_levels(levels, 6)[0], levels, 12)
        assert info.value.level == 8
        assert info.value.reason == "nonzero residual with every c_n already fixed"
        assert info.value.residual == "w^2*g2"

    # sha256 over every rational-rho branch's tail (beta, rho, each c_n and
    # resonant, or the UnsolvableLevel level, reason and residual) at
    # k = 3..12, and over the depth-32 level texts 0..32 at k = 3, 6, 9, 12
    def test_all_rational_tails_and_deep_levels_pinned(self):
        digest = hashlib.sha256()
        for k in range(3, 13):
            depth, n_max = (32, 12) if k % 3 == 0 else (20, 14)
            levels = levels_for(k, depth)
            lines = []
            for i, br in enumerate(solve_levels(levels, k)):
                if not br.rho.is_rational():
                    continue
                head = f"k={k} branch={i} beta={br.beta.text()} rho={br.rho.text()}"
                try:
                    ext = c_recursion(br, levels, n_max)
                except UnsolvableLevel as exc:
                    lines.append(f"{head} unsolvable level={exc.level} "
                                 f"reason={exc.reason} residual={exc.residual}")
                    continue
                lines.append(f"{head} resonant={ext.resonant}")
                lines.extend(c.text() for c in ext.c)
            if k % 3 == 0:
                lines.extend(lv.text() for lv in levels)
            digest.update("\n".join(lines).encode() + b"\n")
        assert digest.hexdigest() == (
            "5f081d40fc23f21742000c0df58468f531b752bae74f2f962ebba901cd4c5f7e")

    # the tail back-substituted symbolically into every level it consumed
    # leaves only unknowns past c_n_max (k = 3 fixes c_1 below level 5, so
    # level 4 + n_max already reaches c_(n_max+1))
    @pytest.mark.parametrize("k", range(3, 13))
    def test_tail_annihilates_symbolic_levels(self, k):
        n_max = 12
        levels = levels_for(k, 20)
        checked = 0
        for br in solve_levels(levels, k):
            if not br.rho.is_rational():
                continue
            try:
                ext = c_recursion(br, levels, n_max)
            except UnsolvableLevel:
                continue
            for lv in levels[:5 + n_max]:
                residual = ext.residual(lv)
                assert not residual or min(residual.c_indices(), default=-1) > n_max, \
                    (k, lv.level, residual.text())
            checked += 1
        # k = 4 has only surd-rho branches; k = 6 loses six to its resonance
        assert checked == {3: 6, 4: 0, 6: 6}.get(k, 2 * k)

    def test_n_zero_is_identity(self):
        levels = levels_for(5)
        br = solve_levels(levels, 5)[0]
        assert c_recursion(br, levels, 0).c == br.c


class TestClosedForms:
    def test_rho_quadratic_general(self):
        assert rho_quadratic_general(5) == (Fraction(7), Fraction(10))
        b6, c6 = rho_quadratic_general(6)
        # roots -5/2 and -13/2
        assert Fraction(-5, 2) ** 2 + b6 * Fraction(-5, 2) + c6 == 0
        assert Fraction(-13, 2) ** 2 + b6 * Fraction(-13, 2) + c6 == 0
        with pytest.raises(ValueError):
            rho_quadratic_general(4)

    @pytest.mark.parametrize("k", range(5, 13))
    def test_discriminant_is_k_minus_2_squared(self, k):
        b, c = rho_quadratic_general(k)
        assert b * b - 4 * c == (k - 2) ** 2

    def test_c0_closed(self):
        # the paper's quartic m(m^3 - 6m^2 + 11m - 6)/8 = 3 C(m, 4)
        for m in range(4, 41):
            assert gf_coefficient(m) == Fraction(m * (m ** 3 - 6 * m * m + 11 * m - 6), 8)

    def test_gf_matches_closed_form(self):
        assert gf_coefficient(4) == 3
        assert gf_coefficient(6) == 45
        for m in range(4, 41):
            assert gf_coefficient(m) == leibniz_hermite_table(m)[(m - 2, 0, m - 4)]
        with pytest.raises(ValueError):
            gf_coefficient(3)

    def test_crho_closed_values(self):
        assert crho_closed(5) == (45, 315, 10, 20)
        with pytest.raises(ValueError):
            crho_closed(4)


class TestBruteForceOracle:
    # the reference table of d^m [e^(g z^2/2) z^r] is the Leibniz-Hermite
    # closed form in tests/oracles.py
    def test_m4_fixture(self):
        # d^4 e^(g z^2/2) = (3 g^2 + 6 g^3 z^2 + g^4 z^4) e^(g z^2/2) at r=0
        t = leibniz_hermite_table(4)
        assert t[(2, 0, 0)] == 3
        assert t[(3, 0, 2)] == 6
        assert t[(4, 0, 4)] == 1

    def test_m10_fixtures(self):
        t = leibniz_hermite_table(10)
        assert t[(8, 2, 6)] == 45           # k=5 coefficient of g^8 r^2 z^6
        assert t[(9, 1, 8)] == 10

    @pytest.mark.parametrize("k", range(5, 11))
    def test_reproduces_crho_closed(self, k):
        c2k_r2, c2k_r, ck_r2, ck_r = crho_closed(k)
        t2k = leibniz_hermite_table(2 * k)
        tk = leibniz_hermite_table(k)
        assert t2k[(2 * k - 2, 2, 2 * k - 4)] == c2k_r2
        assert t2k[(2 * k - 2, 1, 2 * k - 4)] == c2k_r
        assert tk[(k - 2, 2, k - 4)] == ck_r2
        assert tk[(k - 2, 1, k - 4)] == ck_r

    @pytest.mark.parametrize("k", range(5, 11))
    def test_c0_slot_matches_gf(self, k):
        t2k = leibniz_hermite_table(2 * k)
        assert t2k[(2 * k - 2, 0, 2 * k - 4)] == gf_coefficient(2 * k)


class TestFinalAssembly:
    @pytest.mark.parametrize("k", range(5, 13))
    def test_assembly_reproduces_final_quadratic(self, k):
        assert assemble_final_quadratic(k) == rho_quadratic_general(k)

    @pytest.mark.parametrize("k", range(5, 13))
    def test_assembly_from_oracle_route(self, k):
        assert assemble_final_quadratic(k, from_oracle=True) == rho_quadratic_general(k)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            assemble_final_quadratic(4)
