"""Spectral conclusions per k: critical lines, normalizability, verdict.

The asymptotics module delivers exponent branches over the quotient ring
Q(w)[g]/(g^k+1); here they are pushed to the complex embedding g -> e^(i pi/k)
and turned into exact yes/no statements.  An angle is an integer multiple of
pi/(2k), so "Re(beta e^(-i theta/2)) = 0" is one integer congruence.
Square-root signs are certified by comparing squares, never by floating point.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .asymptotics import (
    ExponentBranch,
    LevelEquation,
    OutOfScope,
    QuadraticRoot,
    solve_levels,
    substitute_ansatz,
)
from .weyl import ParamPoly, build_reduced_operator


class Verdict(enum.Enum):
    SelfAdjoint = "SelfAdjoint"
    NotSelfAdjoint = "NotSelfAdjoint"
    OutOfScope = "OutOfScope"


def critical_lines(k: int) -> list[Fraction]:
    """theta_m / pi for each root m of g^k = -1, theta_m = (2m+1) pi / k.

    Root m's ray is z(t) = t*e^(-i theta_m/2); each angle is normalized
    into (-1, 1].
    """
    if not isinstance(k, int) or k < 3:
        raise ValueError(f"critical lines are defined for k >= 3, got {k!r}")
    out = []
    for m in range(k):
        t = Fraction(2 * m + 1, k)
        if t > 1:
            t -= 2
        out.append(t)
    return out


# ---------------------------------------------------------------------------
# exact angle arithmetic

def beta_unit_modulus(branch: ExponentBranch) -> bool:
    """True iff Re(beta * e^(-i theta/2)) = 0 exactly (symbolic in w) on the
    branch's own critical line, theta = (2m+1) pi/k.

    The pipeline's beta is 0 or one term q*g^p, q a nonzero polynomial in the
    real parameters.  With g = zeta^2 and e^(-i theta/2) = zeta^-(2m+1), where
    zeta = e^(i pi/(2k)), the real part is q*cos(e pi/(2k)) for
    e = 2p - (2m+1): zero iff e = k (mod 2k).  A beta with several powers of
    g is refused.
    """
    k = branch.k
    terms = branch.beta.terms
    if any(b or r or c for _, b, r, c in terms):
        raise ValueError("beta is not resolved to a scalar ring element")
    if len(terms) > 1:
        raise ValueError(f"beta {branch.beta.text()} has more than one power of g")
    return all((2 * p - branch.gamma_power) % (2 * k) == k for p, _, _, _ in terms)


# ---------------------------------------------------------------------------
# certified surd signs

def _sign_x_plus_y_sqrt_d(x: Fraction, y: Fraction, d: Fraction) -> int:
    """Exact sign of x + y*sqrt(d) for rational x, y and d >= 0."""
    if d < 0:
        raise ValueError("discriminant must be nonnegative here")
    if y == 0 or d == 0:
        return (x > 0) - (x < 0)
    if x == 0:
        return 1 if y > 0 else -1
    if x > 0 and y > 0:
        return 1
    if x < 0 and y < 0:
        return -1
    lhs, rhs = x * x, y * y * d
    if lhs == rhs:
        return 0
    return (1 if x > 0 else -1) if lhs > rhs else (1 if y > 0 else -1)


def _eval_param(p: ParamPoly, omega: Fraction, what: str) -> Fraction:
    for name in ("d", "E"):
        if p.uses(name):
            raise ValueError(f"{what} unexpectedly depends on {name}")
    return p.evaluate(omega, 0, 0)


def _rho_at(rho: QuadraticRoot, omega: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """rho = r + s*sqrt(d) at omega as (r, s, d); s = d = 0 for a rational root."""
    r = _eval_param(rho.rational, omega, "rho rational part")
    if rho.is_rational():
        return r, Fraction(0), Fraction(0)
    return (r, _eval_param(rho.surd, omega, "rho surd part"),
            _eval_param(rho.disc, omega, "rho discriminant"))


@dataclass(frozen=True)
class NormalizabilityReport:
    """Branch-level outcome of the Re(rho) < -1/2 test at rational omega."""

    branch: ExponentBranch
    sign_vs_threshold: int         # certified sign of Re(rho) + 1/2

    __hash__ = None     # its branch is unhashable

    @property
    def normalizable(self) -> bool:
        return self.sign_vs_threshold < 0

    @property
    def beta_modulus_flag(self) -> bool:
        return beta_unit_modulus(self.branch)


def normalizability(branch: ExponentBranch, omega) -> NormalizabilityReport:
    """Certify Re(rho) against -1/2 for one branch at rational omega > 0."""
    omega = Fraction(omega)
    if omega <= 0:
        raise ValueError("omega must be positive")
    r, s, d = _rho_at(branch.rho, omega)
    sign = _sign_x_plus_y_sqrt_d(r + Fraction(1, 2), s, max(d, 0))
    return NormalizabilityReport(branch, sign)


def symmetry_divergence(branch: ExponentBranch) -> bool:
    """Whether the z^k expectation integral diverges: k + 2 rho >= -1.

    Only defined for real rational rho; a branch with a surd part is refused
    because its realness depends on the parameters.
    """
    if not branch.rho.is_rational():
        raise ValueError("symmetry divergence is only assessed for real "
                         f"rational rho; got {branch.rho.text()}")
    v = branch.rho.rational_value().constant_value()
    return branch.k + 2 * v >= -1


# ---------------------------------------------------------------------------
# the per-k verdict

@lru_cache(maxsize=None)
def _exponent_pipeline(k: int) -> tuple[tuple[LevelEquation, ...], tuple[ExponentBranch, ...]]:
    levels = substitute_ansatz(build_reduced_operator(k), k, 5)
    return tuple(levels), tuple(solve_levels(levels, k))


@dataclass(frozen=True)
class VerdictReport:
    k: int
    omega: Fraction
    delta: Fraction
    verdict: Verdict
    reports: tuple[NormalizabilityReport, ...]
    trace: dict

    __hash__ = None     # its trace is a dict

    @property
    def lines(self) -> tuple[Fraction, ...]:
        """theta_m / pi, as critical_lines returns; none below k = 3."""
        return tuple(critical_lines(self.k)) if self.k >= 3 else ()

    def trace_json(self) -> str:
        return json.dumps(self.trace, indent=1, sort_keys=True)

    def trace_ref(self) -> str:
        return "sha256:" + hashlib.sha256(self.trace_json().encode()).hexdigest()

    def to_json_obj(self) -> dict:
        branches = []
        for rep in self.reports:
            br = rep.branch
            entry = {
                "gamma_power": br.gamma_power,
                "beta": br.beta.text(),
                "rho": _rho_json(br, self.omega),
                "normalizable": rep.normalizable,
            }
            try:
                entry["symmetry_divergent"] = symmetry_divergence(br)
            except ValueError:
                entry["symmetry_divergent"] = None
            branches.append(entry)
        return {
            "k": self.k,
            "omega": str(self.omega),
            "delta": str(self.delta),
            "verdict": self.verdict.value,
            "branches": branches,
            "critical_lines": [str(t) for t in self.lines],
            "trace_ref": self.trace_ref(),
        }


def _rho_json(branch: ExponentBranch, omega: Fraction) -> dict:
    r, s, d = _rho_at(branch.rho, omega)
    if d == 0:
        return {"re": str(r)}
    return {"re": str(r), "surd" if d > 0 else "im": {"coeff": str(s), "disc": str(abs(d))}}


def _build_trace(k, levels, branches, reports) -> dict:
    return {
        "k": k,
        "levels": [{"level": lv.level, "coeff": lv.text()} for lv in levels],
        "branches": [
            {
                "gamma_power": b.gamma_power,
                "gamma": b.gamma.text(),
                # every gamma is a double root: solve_levels checks that
                # level 0 is a unit times (g^k + 1)^2 c0
                "gamma_multiplicity": 2,
                "beta": b.beta.text(),
                "rho": b.rho.text(),
                "c": [ci.text() for ci in b.c],
                "resonant": list(b.resonant),
                "beta_unit_modulus": rep.beta_modulus_flag,
            }
            for b, rep in zip(branches, reports)
        ],
        "E_absent_from_exponents": True,
    }


def verdict(k: int, omega, delta) -> VerdictReport:
    """Self-adjointness verdict with full derivation trace.

    k=1: self-adjoint (relatively bounded linear coupling; no computation).
    k=2: out of scope here, handled by the truncation numerics.
    k>=3: exponent pipeline + per-branch normalizability; not self-adjoint
    exactly when normalizable eigenfunctions exist for every complex E.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    omega, delta = Fraction(omega), Fraction(delta)
    if omega <= 0:
        raise ValueError("omega must be positive")
    if k == 1:
        return VerdictReport(
            k, omega, delta, Verdict.SelfAdjoint, (),
            {"k": 1, "note": "linear coupling is relatively bounded with "
                             "relative bound 0; self-adjointness is inherited "
                             "from the free field operator"})
    if k == 2:
        return VerdictReport(
            k, omega, delta, Verdict.OutOfScope, (),
            {"k": 2, "note": "quadratic coupling: the Gaussian exponent is "
                             "not a root of unity; see the truncation "
                             "numerics for the collapse at g = omega/2"})
    levels, branches = _exponent_pipeline(k)

    # the whole argument needs E symbolic: no exponent may depend on it
    for b in branches:
        for poly in (b.rho.rational, b.rho.surd, b.rho.disc):
            if poly.uses("E") or poly.uses("d"):
                raise RuntimeError("exponent depends on E or Delta")
        if b.beta.uses_param("E") or b.beta.uses_param("d"):
            raise RuntimeError("beta depends on E or Delta")

    reports = tuple(normalizability(b, omega) for b in branches)
    if not all(r.normalizable for r in reports):
        raise RuntimeError(
            "unexpected non-normalizable branch; the k >= 3 theory "
            "guarantees Re(rho) < -1/2")
    trace = _build_trace(k, levels, branches, reports)
    return VerdictReport(k, omega, delta, Verdict.NotSelfAdjoint, reports, trace)
