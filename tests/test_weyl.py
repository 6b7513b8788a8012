import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kphoton.weyl import (
    OperatorPoly,
    ParamPoly,
    a_coeff,
    accumulate,
    build_reduced_operator,
)
from oracles import apply_to_polynomial, op_mul, op_sum

W = ParamPoly.omega()
D = ParamPoly.delta()
E = ParamPoly.energy()
ONE = ParamPoly.rational(1)


def rat(q):
    return ParamPoly.rational(q)


def test_accumulate_drops_zero_sums():
    out = {"a": Fraction(1)}
    accumulate(out, "a", Fraction(2))
    accumulate(out, "b", Fraction(0))      # a zero never enters
    accumulate(out, "c", W)
    assert out == {"a": Fraction(3), "c": W}
    accumulate(out, "a", Fraction(-3))
    accumulate(out, "c", -W)
    assert out == {}


class TestParamPoly:
    def test_zero_stripping(self):
        p = ParamPoly({(1, 0, 0): Fraction(0)})
        assert p.is_zero()
        assert (W - W).is_zero()

    def test_arithmetic(self):
        p = (W + E) * (W - E)
        assert p == W * W - E * E

    def test_laurent_exponents(self):
        inv = ParamPoly.monomial(ew=-2, coeff=Fraction(1, 3))
        assert (inv * W * W).constant_value() == Fraction(1, 3)

    def test_exact_div_term(self):
        p = W * W * D - E.scale(2) * W
        q = p.exact_div_term(W)
        assert q == W * D - E.scale(2)
        q2 = p.exact_div_term(ParamPoly.monomial(ew=3, coeff=2))
        assert q2 == ParamPoly({(-1, 1, 0): Fraction(1, 2), (-2, 0, 1): Fraction(-1)})

    def test_evaluate(self):
        p = W * E - D * D + ParamPoly.monomial(ew=-1, coeff=3)
        assert p.evaluate(2, 3, 5) == 2 * 5 - 9 + Fraction(3, 2)

    def test_text_canonical(self):
        p = E * E - D * D + W.scale(Fraction(-1, 2)) + rat(7)
        assert p.text() == "7 - 1/2*w - d^2 + E^2"
        assert ParamPoly().text() == "0"
        assert ParamPoly.monomial(ew=-2).text() == "w^-2"

    def test_uses(self):
        assert (W * E).uses("E") and not (W * E).uses("d")

    @pytest.mark.parametrize("build", [
        lambda: ParamPoly({(0, 0, 0): 0.5}),
        lambda: ParamPoly.rational(0.1),
        lambda: ParamPoly.monomial(ew=1, coeff=0.1),
        lambda: W.scale(0.1),
        lambda: ParamPoly.rational("1/2"),
    ], ids=["init", "rational", "monomial", "scale", "rational-str"])
    def test_rejects_non_rational_coefficients(self, build):
        with pytest.raises(TypeError, match="int or Fraction"):
            build()

    def test_canonical_storage(self):
        p = ParamPoly({(1, 0, 0): Fraction(2, 6), (0, 0, 1): Fraction(-4, 3)})
        assert (p.num, p.den) == ({(1, 0, 0): 1, (0, 0, 1): -4}, 3)
        assert ParamPoly.over({(1, 0, 0): 6, (0, 0, 0): 0, (0, 1, 0): -9}, 12) \
            == ParamPoly({(1, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(-3, 4)})
        zero = W.scale(Fraction(1, 3)) - W.scale(Fraction(1, 3))
        assert (zero.num, zero.den) == ({}, 1) and zero == ParamPoly()


# {exponent: Fraction} dicts, Laurent exponents included, as the reference
_EXP = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2))
_QUOT = st.fractions(min_value=-50, max_value=50, max_denominator=12)
_DICT = st.dictionaries(_EXP, _QUOT, max_size=5)


def _ref(d):
    return {e: c for e, c in d.items() if c}


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _ref(out)


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _ref(out)


def _is_canonical(p):
    return (p.den > 0 and math.gcd(p.den, *p.num.values()) == 1
            and all(type(c) is int and c for c in p.num.values()))


class TestParamPolyAgainstFractionDicts:
    @settings(max_examples=150, deadline=None)
    @given(a=_DICT, b=_DICT, q=_QUOT, div_e=_EXP,
           div_c=_QUOT.filter(bool))
    def test_ops_match_reference(self, a, b, q, div_e, div_c):
        pa, pb = ParamPoly(a), ParamPoly(b)
        divisor = ParamPoly({div_e: div_c})
        results = {
            "add": (pa + pb, _ref_add(a, b)),
            "sub": (pa - pb, _ref_add(a, {e: -c for e, c in b.items()})),
            "neg": (-pa, _ref({e: -c for e, c in a.items()})),
            "mul": (pa * pb, _ref_mul(a, b)),
            "scale": (pa.scale(q), _ref({e: c * q for e, c in a.items()})),
            "div": (pa.exact_div_term(divisor),
                    {tuple(x - y for x, y in zip(e, div_e)): c / div_c
                     for e, c in _ref(a).items()}),
        }
        for name, (got, want) in results.items():
            assert got.terms == want, name
            assert _is_canonical(got), name
            assert got == ParamPoly(want) and hash(got) == hash(ParamPoly(want)), name
        assert pa.is_zero() == (not _ref(a))

    @settings(max_examples=100, deadline=None)
    @given(a=_DICT, b=_DICT, q=_QUOT.filter(bool), div_c=_QUOT.filter(bool))
    def test_equal_values_by_different_routes(self, a, b, q, div_c):
        pa, pb = ParamPoly(a), ParamPoly(b)
        divisor = ParamPoly.monomial(1, -1, 0, div_c)
        pairs = [
            ((pa + pb) - pb, pa),
            (pa * pb, pb * pa),
            (pa.scale(q).scale(1 / q), pa),
            ((pa * pb).exact_div_term(divisor), pa * pb.exact_div_term(divisor)),
            (pa.scale(2), pa + pa),
            (ParamPoly.over({e: c * q.denominator for e, c in pa.num.items()},
                            pa.den * q.denominator), pa),
        ]
        for left, right in pairs:
            assert left == right and hash(left) == hash(right)
            assert (left.num, left.den) == (right.num, right.den)


class TestNormalOrder:
    def test_single_commutator(self):
        z = OperatorPoly({(1, 0): ONE})
        dz = OperatorPoly({(0, 1): ONE})
        assert op_mul(dz, z) == OperatorPoly({(1, 1): ONE, (0, 0): ONE})

    def test_dz2_z2(self):
        # Dz^2 z^2 = z^2 Dz^2 + 4 z Dz + 2
        got = op_mul(OperatorPoly({(0, 2): ONE}), OperatorPoly({(2, 0): ONE}))
        assert got == OperatorPoly({(2, 2): ONE, (1, 1): rat(4), (0, 0): rat(2)})

    def test_associativity(self):
        a = OperatorPoly({(1, 2): W, (0, 0): E})
        b = OperatorPoly({(2, 1): ONE, (1, 0): D})
        c = OperatorPoly({(0, 3): ONE, (2, 2): rat(-2)})
        assert op_mul(op_mul(a, b), c) == op_mul(a, op_mul(b, c))

    @settings(max_examples=60, deadline=None)
    @given(
        i1=st.integers(0, 4), j1=st.integers(0, 4),
        i2=st.integers(0, 4), j2=st.integers(0, 4),
        n=st.integers(0, 6), q=st.integers(-3, 3),
    )
    def test_product_matches_composition(self, i1, j1, i2, j2, n, q):
        a = OperatorPoly({(i1, j1): ONE, (0, 0): rat(q)})
        b = OperatorPoly({(i2, j2): ONE})
        p = {n: ONE, 0: rat(2)}
        via_mul = apply_to_polynomial(op_mul(a, b), p)
        via_compose = apply_to_polynomial(a, apply_to_polynomial(b, p))
        assert via_mul == via_compose

    def test_apply_kills_short_monomials(self):
        dz3 = OperatorPoly({(0, 3): ONE})
        assert apply_to_polynomial(dz3, {2: ONE}) == {}
        assert apply_to_polynomial(dz3, {3: ONE}) == {0: rat(6)}


class TestCrossTermWeights:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(0, 12), j=st.integers(0, 12))
    def test_matches_binomial_oracle(self, n, j):
        # independent closed form: a_j(n) = C(n, j)^2 * j!
        expect = math.comb(n, j) ** 2 * math.factorial(j) if j <= n else 0
        assert a_coeff(j, n) == expect

    def test_frozen_rows(self):
        assert [a_coeff(j, 3) for j in (1, 2, 3)] == [9, 18, 6]
        assert [a_coeff(j, 4) for j in (1, 2, 3, 4)] == [16, 72, 96, 24]

    @given(n=st.integers(1, 40))
    def test_closed_forms(self, n):
        assert a_coeff(1, n) == n * n
        assert a_coeff(2, n) == (n - 1) ** 2 * n ** 2 // 2

    @pytest.mark.parametrize("k", [*range(1, 13), 32, 64])
    def test_square_of_coupling(self, k):
        # op_mul route: (z^k + Dz^k)^2 must reproduce the a_j expansion
        s = OperatorPoly({(k, 0): ONE, (0, k): ONE})
        sq = op_mul(s, s)
        expect = {(2 * k, 0): ONE, (0, 2 * k): ONE, (k, k): rat(2)}
        for j in range(1, k + 1):
            accumulate(expect, (k - j, k - j), rat(a_coeff(j, k)))
        assert sq == OperatorPoly(expect)


class TestReducedOperator:
    def test_rejects_small_k(self):
        for bad in (1, 0, -3):
            with pytest.raises(ValueError):
                build_reduced_operator(bad)
        with pytest.raises(ValueError):
            build_reduced_operator(3.0)

    def test_k3_term_by_term(self):
        op = build_reduced_operator(3)
        expect = {
            (2, 2): W * W - rat(9),
            (1, 1): W * W - (E * W).scale(2) - rat(18),
            (0, 0): E * E - D * D - rat(6),
            (0, 6): -ONE,
            (6, 0): -ONE,
            (3, 3): rat(-2),
            (2, 0): W.scale(3),
        }
        assert op.terms == expect

    def test_k4_term_by_term(self):
        op = build_reduced_operator(4)
        expect = {
            (2, 2): W * W - rat(72),
            (1, 1): W * W - (E * W).scale(2) - rat(96),
            (0, 0): E * E - D * D - rat(24),
            (3, 3): rat(-16),
            (0, 8): -ONE,
            (8, 0): -ONE,
            (4, 4): rat(-2),
            (3, 0): W.scale(4),
        }
        assert op.terms == expect

    @pytest.mark.parametrize("k", range(2, 13))
    def test_against_op_mul_construction(self, k):
        # independent route: square the first-order pieces with op_mul
        hz = OperatorPoly({(1, 1): W, (0, 0): -E})
        s = OperatorPoly({(k, 0): ONE, (0, k): ONE})
        minus_s = OperatorPoly({(k, 0): -ONE, (0, k): -ONE})
        via_mul = op_sum(op_mul(hz, hz), op_mul(s, minus_s),
                         OperatorPoly({(k - 1, 0): W.scale(k), (0, 0): -(D * D)}))
        assert build_reduced_operator(k) == via_mul

    @pytest.mark.parametrize("k", range(2, 13))
    def test_degrees(self, k):
        op = build_reduced_operator(k)
        assert max(i for i, _ in op.terms) == 2 * k
        assert max(j for _, j in op.terms) == 2 * k
