"""Critical lines, normalizability certificates and per-k verdicts."""

import cmath
import dataclasses
import json
import math
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest

from kphoton.asymptotics import ExponentBranch, QuadraticRoot, RingElem
from kphoton.verdict import (
    Verdict,
    _exponent_pipeline,
    _rho_at,
    _sign_x_plus_y_sqrt_d,
    beta_unit_modulus,
    critical_lines,
    normalizability,
    symmetry_divergence,
    verdict,
)
from kphoton.weyl import ParamPoly

F = Fraction


def _branch(k, m, beta, rho):
    return ExponentBranch(k=k, gamma_index=m, beta=beta, rho=rho)


def _rational_rho(v) -> QuadraticRoot:
    return QuadraticRoot(ParamPoly.rational(v))


class TestCriticalLines:
    def test_k3_angles(self):
        assert critical_lines(3) == [F(1, 3), F(1), F(-1, 3)]

    def test_k4_angles(self):
        assert critical_lines(4) == [F(1, 4), F(3, 4), F(-3, 4), F(-1, 4)]

    def test_k5_distinct(self):
        lines = critical_lines(5)
        assert len(lines) == 5
        assert len(set(lines)) == 5

    @pytest.mark.parametrize("k", range(3, 13))
    def test_count_and_normalization(self, k):
        lines = critical_lines(k)
        assert len(set(lines)) == k
        for m, t in enumerate(lines):
            assert type(t) is F
            assert F(-1) < t <= F(1)
            assert (t - F(2 * m + 1, k)) % 2 == 0

    def test_rejects_small_or_non_integer(self):
        for bad in (2, 1, 0, -3, 3.0):
            with pytest.raises(ValueError):
                critical_lines(bad)


class TestBetaUnitModulus:
    def test_k3_pipeline_branches_on_own_lines(self):
        _, branches = _exponent_pipeline(3)
        assert len(branches) == 6
        for b in branches:
            assert beta_unit_modulus(b)

    def test_zero_beta_is_unit_modulus(self):
        _, branches = _exponent_pipeline(5)
        for b in branches:
            assert b.beta.is_zero()
            assert beta_unit_modulus(b)

    def test_synthetic_beta_one_root_zero_fails(self):
        # beta = g^0 on root g^1: e = 2*0 - 1 = -1, not 3 (mod 6)
        b = _branch(3, 0, RingElem.one(3), _rational_rho(-2))
        assert not beta_unit_modulus(b)

    def test_mismatched_line_fails(self):
        # a k=3 root-0 beta carried onto root 1 picks up a cos(pi/6) factor
        # on that root's line and the real part survives
        _, branches = _exponent_pipeline(3)
        b = next(br for br in branches if br.gamma_index == 0)
        assert beta_unit_modulus(b)
        assert not beta_unit_modulus(dataclasses.replace(b, gamma_index=1))

    @pytest.mark.parametrize("k", range(3, 13))
    def test_pipeline_invariant(self, k):
        _, branches = _exponent_pipeline(k)
        for b in branches:
            assert beta_unit_modulus(b)

    @pytest.mark.parametrize("k", range(3, 13))
    def test_every_line_matches_complex_embedding(self, k):
        # independent float oracle, g = e^(i pi/k): every synthetic
        # beta = q*g^p on every root m against Re(beta e^(-i pi (2m+1)/(2k)))
        for m in range(k):
            for p in range(k):
                for q in (ParamPoly.rational(F(2, 3)), ParamPoly.omega().scale(-1)):
                    b = _branch(k, m, RingElem({(p, 0, 0, ()): q}, k), _rational_rho(-2))
                    beta = float(q.evaluate(1, 0, 0)) * cmath.exp(1j * math.pi * p / k)
                    re = (beta * cmath.exp(-0.5j * math.pi * (2 * m + 1) / k)).real
                    assert beta_unit_modulus(b) is (abs(re) < 1e-12)
                    assert abs(re) < 1e-12 or abs(re) > 1e-3

    def test_unresolved_beta_rejected(self):
        beta = RingElem({(0, 1, 0, ()): ParamPoly.rational(1)}, 3)   # unresolved b
        b = _branch(3, 0, beta, _rational_rho(-2))
        with pytest.raises(ValueError):
            beta_unit_modulus(b)

    def test_two_gamma_powers_rejected(self):
        # the pipeline's beta is always 0 or a single term q*g^p
        beta = RingElem.one(3) + RingElem.gamma(1, 3)
        b = _branch(3, 0, beta, _rational_rho(-2))
        with pytest.raises(ValueError, match="more than one"):
            beta_unit_modulus(b)


class TestCertifiedSign:
    @pytest.mark.parametrize("x,y,d,expect", [
        (F(1), F(1), F(2), 1),
        (F(-1), F(-1), F(2), -1),
        (F(-3), F(1), F(2), -1),      # 1*sqrt(2) < 3
        (F(-1), F(1), F(2), 1),       # sqrt(2) > 1
        (F(3), F(-1), F(2), 1),
        (F(1), F(-1), F(2), -1),
        (F(-2), F(1), F(4), 0),       # exact cancellation
        (F(2), F(-1), F(4), 0),
        (F(0), F(-5), F(3), -1),
        (F(7), F(0), F(3), 1),
        (F(-7), F(2), F(0), -1),
        (F(0), F(0), F(5), 0),
    ])
    def test_cases(self, x, y, d, expect):
        assert _sign_x_plus_y_sqrt_d(x, y, d) == expect

    def test_rejects_negative_disc(self):
        with pytest.raises(ValueError):
            _sign_x_plus_y_sqrt_d(F(1), F(1), F(-1))


class TestNormalizability:
    def test_k3_rho_minus_two(self):
        _, branches = _exponent_pipeline(3)
        for b in branches:
            rep = normalizability(b, 1)
            assert _rho_at(b.rho, 1) == (F(-2), 0, 0)
            assert rep.sign_vs_threshold == -1
            assert rep.normalizable
            assert rep.beta_modulus_flag

    def test_k4_omega_4_double_root(self):
        _, branches = _exponent_pipeline(4)
        for b in branches:
            rep = normalizability(b, 4)
            r, _, d = _rho_at(b.rho, 4)
            assert r == F(-5, 2) and d == 0
            assert rep.normalizable

    def test_k4_omega_5_complex_pair(self):
        _, branches = _exponent_pipeline(4)
        for b in branches:
            rep = normalizability(b, 5)
            r, _, d = _rho_at(b.rho, 5)
            assert r == F(-5, 2) and d < 0
            assert rep.normalizable

    def test_k4_omega_1_real_pair(self):
        _, branches = _exponent_pipeline(4)
        reps = [normalizability(b, 1) for b in branches]
        for rep in reps:
            assert _rho_at(rep.branch.rho, 1)[2] > 0      # irrational real value
            assert rep.sign_vs_threshold == -1
            assert rep.normalizable
        # -5/2 +- sqrt(15)/4, as (rational, surd, disc)
        roots = {_rho_at(r.branch.rho, 1) for r in reps}
        assert roots == {(F(-5, 2), F(1, 4), F(15)), (F(-5, 2), F(-1, 4), F(15))}

    def test_synthetic_boundary_and_failures(self):
        ok = normalizability(_branch(3, 0, RingElem.zero(3), _rational_rho(-2)), 1)
        assert ok.normalizable
        at = normalizability(_branch(3, 0, RingElem.zero(3), _rational_rho(F(-1, 2))), 1)
        assert at.sign_vs_threshold == 0 and not at.normalizable
        no = normalizability(_branch(3, 0, RingElem.zero(3), _rational_rho(0)), 1)
        assert no.sign_vs_threshold == 1 and not no.normalizable

    def test_rejects_nonpositive_omega(self):
        _, branches = _exponent_pipeline(3)
        with pytest.raises(ValueError):
            normalizability(branches[0], 0)
        with pytest.raises(ValueError):
            normalizability(branches[0], F(-1, 2))


class TestSymmetryDivergence:
    def test_k5_plus_branch_diverges(self):
        assert symmetry_divergence(_branch(5, 0, RingElem.zero(5), _rational_rho(-2)))

    def test_k5_minus_branch_does_not(self):
        assert not symmetry_divergence(_branch(5, 0, RingElem.zero(5), _rational_rho(-5)))

    def test_k3_boundary_counts_as_divergent(self):
        # k + 2 rho = -1: the tail integrand is 1/r
        assert symmetry_divergence(_branch(3, 0, RingElem.zero(3), _rational_rho(-2)))

    @pytest.mark.parametrize("k", range(5, 13))
    def test_pipeline_split(self, k):
        _, branches = _exponent_pipeline(k)
        plus, minus = F(1 - k, 2), F(5 - 3 * k, 2)
        seen = set()
        for b in branches:
            v = b.rho.rational_value().constant_value()
            seen.add(v)
            assert symmetry_divergence(b) == (v == plus)
        assert seen == {plus, minus}

    def test_surd_rho_refused(self):
        _, branches = _exponent_pipeline(4)
        with pytest.raises(ValueError):
            symmetry_divergence(branches[0])


def _schema():
    text = (resources.files("kphoton") / "schemas/verdict.json").read_text()
    return json.loads(text)


class TestVerdict:
    def test_k1_self_adjoint_without_computation(self):
        rep = verdict(1, 1, 1)
        assert rep.verdict is Verdict.SelfAdjoint
        assert rep.reports == () and rep.lines == ()
        assert "relatively bounded" in rep.trace["note"]

    def test_records_are_unhashable(self):
        # each holds an unhashable value, so it declares itself unhashable
        # rather than fail inside a field
        rep = verdict(3, 1, 0)
        for obj in (rep, rep.reports[0], rep.reports[0].branch):
            with pytest.raises(TypeError, match=f"unhashable type: '{type(obj).__name__}'"):
                hash(obj)

    def test_k2_out_of_scope(self):
        rep = verdict(2, 1, 1)
        assert rep.verdict is Verdict.OutOfScope
        assert "truncation numerics" in rep.trace["note"]

    def test_k3_six_branches(self):
        rep = verdict(3, 1, F(1, 2))
        assert rep.verdict is Verdict.NotSelfAdjoint
        assert len(rep.reports) == 6
        assert all(_rho_at(r.branch.rho, 1) == (F(-2), 0, 0) for r in rep.reports)
        obj = rep.to_json_obj()
        assert [b["rho"] for b in obj["branches"]] == [{"re": "-2"}] * 6
        assert all(b["symmetry_divergent"] for b in obj["branches"])
        assert obj["critical_lines"] == ["1/3", "1", "-1/3"]

    def test_k5_quadratic_parameter_free(self):
        rep = verdict(5, 1, 0)
        assert rep.verdict is Verdict.NotSelfAdjoint
        for r in rep.reports:
            assert all(p.is_constant() for p in r.branch.rho.monic())

    def test_rejects_bad_inputs(self):
        for bad in (0, -1, 2.0, "3"):
            with pytest.raises(ValueError):
                verdict(bad, 1, 1)
        with pytest.raises(ValueError):
            verdict(3, 0, 1)
        with pytest.raises(ValueError):
            verdict(3, -1, 1)

    def test_accepts_rational_strings(self):
        rep = verdict(3, "7/2", "1/2")
        assert rep.omega == F(7, 2) and rep.delta == F(1, 2)

    def test_json_fields_exact(self):
        obj = verdict(3, 1, F(1, 2)).to_json_obj()
        assert set(obj) == {"k", "omega", "delta", "verdict", "branches",
                            "critical_lines", "trace_ref"}
        for b in obj["branches"]:
            assert set(b) == {"gamma_power", "beta", "rho", "normalizable",
                              "symmetry_divergent"}
        assert obj["verdict"] == "NotSelfAdjoint"
        assert sorted(b["gamma_power"] for b in obj["branches"]) == [1, 1, 3, 3, 5, 5]

    def test_json_rho_shapes_track_omega(self):
        surd = verdict(4, 1, 0).to_json_obj()["branches"][0]["rho"]
        assert set(surd) == {"re", "surd"} and surd["surd"]["disc"] == "15"
        double = verdict(4, 4, 0).to_json_obj()["branches"][0]["rho"]
        assert set(double) == {"re"} and double["re"] == "-5/2"
        cplx = verdict(4, 5, 0).to_json_obj()["branches"][0]["rho"]
        assert set(cplx) == {"re", "im"} and cplx["im"]["disc"] == "9"

    def test_k4_symmetry_divergent_is_null(self):
        obj = verdict(4, 1, 0).to_json_obj()
        assert all(b["symmetry_divergent"] is None for b in obj["branches"])

    def test_trace_ref_deterministic(self):
        a = verdict(5, 1, 0)
        b = verdict(5, 1, 0)
        assert a.trace_ref() == b.trace_ref()
        assert a.trace_ref().startswith("sha256:")
        assert json.dumps(a.to_json_obj()) == json.dumps(b.to_json_obj())

    @pytest.mark.parametrize("k, ref", [
        (3, "63d45438692a5341346097b1bef25a90a37585d408541f015738412fe05ca3bd"),
        (4, "4821ecf33bb9b3e2b8168e7d527067ab42a6e4168eb8cac22fd8e7929a11f494"),
        (5, "f3b53ad4f31f5ea9d4abad4192a330d39c42cc72e6ae6d64088903b5cdf21982"),
        (6, "b824df9a4cdd4611c043d20346bf56445043aaffd2b9d192d0fb6af4efc4b44e"),
        (7, "b1ba6edace693c1c09d5b7a6157df8307e3f8d7e44d55a204da39d14d1a788ba"),
        (8, "3cbe5e0f778dcfbd67c14a90d9fef8b9ac39fa0d1bc8772ddc0a2b5a2869b3ef"),
        (9, "d53ff1c26d1b3e6ec69b28b4522ec8a2db4a5583cda5822f955a2a6e7d5da6ee"),
        (10, "bf9a8228f81dabfc07e4d1407fa6161e3d219628dbcedd8114ef04ccdabab843"),
        (11, "98bfedad8dcf5d7bb2375eeac269ff6e9213e5ac50836256d3b99588c38f9518"),
        (12, "0a520290d7faf8451e4ae6f5c1e99aec3e8e163a9d7fe72826e6040469cd2fb4"),
    ])
    def test_trace_ref_pinned(self, k, ref):
        assert verdict(k, F(3, 2), F(1, 3)).trace_ref() == "sha256:" + ref

    @pytest.mark.parametrize("k", range(3, 13))
    @pytest.mark.parametrize("omega", [F(1, 2), F(1), F(2), F(7, 2)])
    def test_not_self_adjoint_grid(self, k, omega):
        rep = verdict(k, omega, F(1, 2))
        assert rep.verdict is Verdict.NotSelfAdjoint
        assert all(r.normalizable for r in rep.reports)
        assert all(r.beta_modulus_flag for r in rep.reports)

    @pytest.mark.parametrize("k", range(3, 13))
    def test_energy_never_in_exponents(self, k):
        rep = verdict(k, 1, 1)
        assert rep.trace["E_absent_from_exponents"]
        for r in rep.reports:
            b = r.branch
            assert not b.beta.uses_param("E")
            for p in (b.rho.rational, b.rho.surd, b.rho.disc):
                assert not p.uses("E")

    def test_schema_validation(self):
        schema = _schema()
        for args in ((3, 1, F(1, 2)), (4, 4, 0), (4, 5, 0), (5, 1, 0),
                     (1, 1, 1), (2, 1, 1)):
            jsonschema.validate(verdict(*args).to_json_obj(), schema)

    def test_trace_contents(self):
        rep = verdict(3, 1, F(1, 2))
        t = rep.trace
        assert t["k"] == 3
        assert [lv["level"] for lv in t["levels"]] == list(range(len(t["levels"])))
        assert len(t["branches"]) == 6
        for b in t["branches"]:
            assert b["beta_unit_modulus"] is True
            assert b["gamma_multiplicity"] == 2
