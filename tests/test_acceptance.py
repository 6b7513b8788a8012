"""Acceptance gate: one test per shipped claim, at the stated tolerance.

Run with -v to get one pass/fail line per criterion.  Each test also
enforces its wall-clock budget, so a pathological slowdown fails loudly
rather than silently eating CI time.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from kphoton.asymptotics import (
    RingElem,
    assemble_final_quadratic,
    crho_closed,
    gf_coefficient,
    rho_quadratic_general,
    solve_levels,
    substitute_ansatz,
)
from kphoton.fock import (
    Classification,
    ModelParams,
    build_hkp,
    convergence_sweep,
    jck_exact_spectrum,
    lowest_eigenvalues,
)
from kphoton.verdict import Verdict, symmetry_divergence, verdict
from kphoton.weyl import OperatorPoly, ParamPoly, a_coeff, build_reduced_operator
from oracles import (
    build_jck,
    displaced_oscillator_oracle,
    leibniz_hermite_table,
    op_mul,
    op_sum,
    satisfies_quadratic,
    scale,
)

F = Fraction


@contextmanager
def budget(seconds: float):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"time budget {seconds}s exceeded: {elapsed:.2f}s"


def _p(**mono):
    # tiny builder: _p(c=-6, dd=-1, EE=1) -> -6 - d^2 + E^2
    table = {"c": (0, 0, 0), "w": (1, 0, 0), "ww": (2, 0, 0), "dd": (0, 2, 0),
             "EE": (0, 0, 2), "wE": (1, 0, 1)}
    out = ParamPoly()
    for name, coeff in mono.items():
        out = out + ParamPoly.monomial(*table[name], coeff=coeff)
    return out


def _reduced_via_op_mul(k: int) -> OperatorPoly:
    w, one = ParamPoly.omega(), ParamPoly.rational(1)
    first = OperatorPoly({(1, 1): w, (0, 0): -ParamPoly.energy()})
    coupling = OperatorPoly({(k, 0): one, (0, k): one})
    minus_coupling = OperatorPoly({(k, 0): -one, (0, k): -one})
    return op_sum(op_mul(first, first), op_mul(coupling, minus_coupling),
                  OperatorPoly({(k - 1, 0): w.scale(k),
                                (0, 0): -(ParamPoly.delta() * ParamPoly.delta())}))


def test_criterion_1_normal_ordering_fixtures():
    with budget(1.0):
        expected_k3 = {
            (0, 0): _p(c=-6, dd=-1, EE=1),
            (1, 1): _p(c=-18, ww=1, wE=-2),
            (2, 2): _p(c=-9, ww=1),
            (3, 3): _p(c=-2),
            (0, 6): _p(c=-1),
            (6, 0): _p(c=-1),
            (2, 0): _p(w=3),
        }
        expected_k4 = {
            (0, 0): _p(c=-24, dd=-1, EE=1),
            (1, 1): _p(c=-96, ww=1, wE=-2),
            (2, 2): _p(c=-72, ww=1),
            (3, 3): _p(c=-16),
            (4, 4): _p(c=-2),
            (0, 8): _p(c=-1),
            (8, 0): _p(c=-1),
            (3, 0): _p(w=4),
        }
        for k, expect in ((3, expected_k3), (4, expected_k4)):
            via_mul = _reduced_via_op_mul(k)
            assert via_mul.terms == expect, f"op_mul route differs at k={k}"
            assert build_reduced_operator(k).terms == expect
        assert [a_coeff(j, 3) for j in (1, 2, 3)] == [9, 18, 6]
        assert [a_coeff(j, 4) for j in (1, 2, 3, 4)] == [16, 72, 96, 24]
        for n in range(1, 21):
            assert a_coeff(1, n) == n * n
            if n >= 2:
                assert a_coeff(2, n) == (n - 1) ** 2 * n ** 2 // 2


def test_criterion_2_exponents_k3():
    with budget(10.0):
        levels = substitute_ansatz(build_reduced_operator(3), 3, 5)
        branches = solve_levels(levels, 3)
        assert len(branches) == 6
        assert {b.gamma_index for b in branches} == {0, 1, 2}
        for b in branches:
            # gamma root of g^3 = -1: cube recovers -1 exactly
            assert (b.gamma * b.gamma * b.gamma + type(b.gamma).one(3)).is_zero()
            # beta = +-w/(3 gamma): equivalently 3*beta*gamma = +-w
            three_bg = scale(b.beta * b.gamma, 3)
            w = type(b.gamma).from_param(ParamPoly.omega(), 3)
            assert (three_bg + (-w)).is_zero() or (three_bg + w).is_zero()
            assert b.rho.is_rational()
            assert b.rho.rational_value().constant_value() == F(-2)
            # symbolic parameters never entered the exponents
            for name in ("w", "d", "E"):
                assert not b.rho.rational.uses(name)
        # both beta signs occur on every root
        for m in range(3):
            pair = [b for b in branches if b.gamma_index == m]
            assert len(pair) == 2 and pair[0].beta == scale(pair[1].beta, -1)


def test_criterion_3_exponents_k4():
    with budget(10.0):
        levels = substitute_ansatz(build_reduced_operator(4), 4, 5)
        branches = solve_levels(levels, 4)
        assert len(branches) == 8
        quarter = ParamPoly.rational(F(1, 4))
        disc = ParamPoly.rational(16) - ParamPoly.monomial(2, 0, 0)
        # monic quadratic r^2 + 5r + (w^2/16 + 21/4), the w^2/16 included
        five = ParamPoly.rational(5)
        const = ParamPoly.monomial(2, 0, 0, F(1, 16)) + ParamPoly.rational(F(21, 4))
        for b in branches:
            assert b.beta.is_zero()
            assert b.rho.monic() == (five, const)
            # roots -5/2 +- sqrt(16 - w^2)/4
            assert b.rho.rational == ParamPoly.rational(F(-5, 2))
            assert b.rho.surd in (quarter, -quarter)
            assert b.rho.disc == disc
            assert satisfies_quadratic(b.rho, five, const)
        for m in range(4):
            surds = sorted(b.rho.surd.constant_value()
                           for b in branches if b.gamma_index == m)
            assert surds == [F(-1, 4), F(1, 4)]


def test_criterion_4_exponents_k5_to_12():
    with budget(120.0):
        for k in range(5, 13):
            levels = substitute_ansatz(build_reduced_operator(k), k, 5)
            assert levels[1].coeff.reduce(k).is_zero(), f"level 1 survives at k={k}"
            # level 3 vanishes identically once the forced beta = 0 is in:
            # every surviving term carries a factor of b
            level3 = levels[3].coeff.reduce(k).subs("b", RingElem.zero(k))
            assert level3.is_zero(), f"level 3 survives at k={k}"
            branches = solve_levels(levels, k)
            assert len(branches) == 2 * k
            lin, const = rho_quadratic_general(k)
            roots = {F(1 - k, 2), F(5 - 3 * k, 2)}
            for b in branches:
                assert b.beta.is_zero()
                assert satisfies_quadratic(b.rho, lin, const)
                for name in ("w", "d", "E"):
                    for poly in (b.rho.rational, b.rho.surd, b.rho.disc):
                        assert not poly.uses(name)
                assert b.rho.is_rational()
                assert b.rho.rational_value().constant_value() in roots
            for m in range(k):
                got = {b.rho.rational_value().constant_value()
                       for b in branches if b.gamma_index == m}
                assert got == roots


def test_criterion_5_generating_function_combinatorics():
    with budget(60.0):
        for m in range(4, 25):
            want = leibniz_hermite_table(m)[(m - 2, 0, m - 4)]
            assert gf_coefficient(m) == want, f"mismatch at m={m}"
        for k in range(5, 11):
            t2k = leibniz_hermite_table(2 * k)
            tk = leibniz_hermite_table(k)
            c2k_r2, c2k_r, ck_r2, ck_r = crho_closed(k)
            assert t2k[(2 * k - 2, 2, 2 * k - 4)] == c2k_r2
            assert t2k[(2 * k - 2, 1, 2 * k - 4)] == c2k_r
            assert tk[(k - 2, 2, k - 4)] == ck_r2
            assert tk[(k - 2, 1, k - 4)] == ck_r
        for k in range(5, 13):
            expect = rho_quadratic_general(k)
            assert assemble_final_quadratic(k) == expect
            assert assemble_final_quadratic(k, from_oracle=True) == expect


def test_criterion_6_verdict_grid():
    with budget(120.0):
        for k in range(3, 13):
            for omega in (F(1, 2), F(1), F(2), F(7, 2)):
                rep = verdict(k, omega, F(1, 2))
                assert rep.verdict is Verdict.NotSelfAdjoint, (k, omega)
                assert all(r.normalizable for r in rep.reports)
                assert rep.trace["E_absent_from_exponents"]
                for r in rep.reports:
                    b = r.branch
                    assert not b.beta.uses_param("E")
                    for part in (b.rho.rational, b.rho.surd, b.rho.disc):
                        assert not part.uses("E")
            rep = verdict(k, 1, 0)
            if k == 3:
                for r in rep.reports:
                    assert symmetry_divergence(r.branch)   # rho = -2 boundary
            elif k >= 5:
                plus = F(1 - k, 2)
                for r in rep.reports:
                    v = r.branch.rho.rational_value().constant_value()
                    assert symmetry_divergence(r.branch) == (v == plus)


def test_criterion_7_numerics_oracles():
    with budget(60.0):
        # truncated number-conserving spectra against the closed-form blocks
        for k in (2, 3):
            p = ModelParams(k, 0.1, 1.0, 0.2)
            N = 400
            trunc = lowest_eigenvalues(build_jck(p, N), 2 * N)
            expect = jck_exact_spectrum(p, N - k - 1)
            expect += [p.omega * n + p.delta for n in range(N - k, N)]
            assert np.allclose(sorted(trunc), sorted(expect),
                               rtol=1e-10, atol=1e-10)
        # linear coupling at zero splitting: exact ground energy -g^2/w
        p = ModelParams(1, 1.0, 1.0, 0.0)
        got = lowest_eigenvalues(build_hkp(p, 200), 6)
        assert abs(got[0] - (-1.0)) < 1e-8
        assert np.allclose(got, displaced_oscillator_oracle(1.0, 1.0, 6),
                           rtol=0, atol=1e-8)


def test_criterion_8_contrast_diagnostics():
    with budget(300.0):
        sizes = [100, 200, 400, 800]
        conv = convergence_sweep(ModelParams(1, 0.3, 1.0, 0.2), sizes, m=10, tol=1e-6)
        assert conv.classification is Classification.Convergent
        runaway = convergence_sweep(ModelParams(3, 0.3, 1.0, 0.2), sizes, m=10, tol=1e-6)
        assert runaway.classification is not Classification.Convergent
        sub = convergence_sweep(ModelParams(2, 0.4, 1.0, 0.2), [200, 400, 800],
                                m=10, tol=1e-6)
        sup = convergence_sweep(ModelParams(2, 0.6, 1.0, 0.2), [200, 400, 800],
                                m=10, tol=1e-6)
        assert sub.classification is Classification.Convergent
        assert sup.classification is not Classification.Convergent
        assert sub.classification is not sup.classification
