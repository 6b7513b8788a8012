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


@dataclass(frozen=True)
class CriticalLine:
    """Ray z(t) = t*e^(-i theta/2) for one Gaussian exponent root.

    Angles are exact rational multiples of pi, normalized into (-1, 1].
    """

    branch_index: int
    theta_over_pi: Fraction


def critical_lines(k: int) -> list[CriticalLine]:
    """One line per root of g^k = -1: theta_m = (2m+1) pi / k."""
    if not isinstance(k, int) or k < 3:
        raise ValueError(f"critical lines are defined for k >= 3, got {k!r}")
    out = []
    for m in range(k):
        t = Fraction(2 * m + 1, k)
        if t > 1:
            t -= 2
        out.append(CriticalLine(m, t))
    return out


# ---------------------------------------------------------------------------
# exact angle arithmetic

def beta_unit_modulus(branch: ExponentBranch, line: CriticalLine) -> bool:
    """True iff Re(beta * e^(-i theta/2)) = 0 exactly (symbolic in w).

    The pipeline's beta is 0 or one term q*g^p, q a nonzero polynomial in the
    real parameters.  With g = zeta^2 and e^(-i theta/2) = zeta^shift, where
    zeta = e^(i pi/(2k)), the real part is q*cos(e pi/(2k)) for e = 2p + shift:
    zero iff e = k (mod 2k).  A beta with several powers of g is refused.
    """
    k = branch.k
    shift = -int(line.theta_over_pi * k)
    if Fraction(shift) != -line.theta_over_pi * k:
        raise ValueError("line angle is not a multiple of pi/k")
    terms = branch.beta.terms
    if any(b or r or c for _, b, r, c in terms):
        raise ValueError("beta is not resolved to a scalar ring element")
    if len(terms) > 1:
        raise ValueError(f"beta {branch.beta.text()} has more than one power of g")
    return all((2 * p + shift) % (2 * k) == k for p, _, _, _ in terms)


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
    re_rho: Fraction | None        # exact value when rational or a complex pair
    sign_vs_threshold: int         # certified sign of Re(rho) + 1/2
    normalizable: bool
    beta_modulus_flag: bool


def normalizability(branch: ExponentBranch, omega) -> NormalizabilityReport:
    """Certify Re(rho) against -1/2 for one branch at rational omega > 0."""
    omega = Fraction(omega)
    if omega <= 0:
        raise ValueError("omega must be positive")
    r, s, d = _rho_at(branch.rho, omega)
    # a real surd pair has no rational Re(rho); otherwise (rational, a complex
    # pair, or a collapsed double root) Re(rho) = r
    re = None if d > 0 else r
    sign = _sign_x_plus_y_sqrt_d(r + Fraction(1, 2), s, max(d, 0))
    line = critical_lines(branch.k)[branch.gamma_index]
    return NormalizabilityReport(
        branch=branch, re_rho=re,
        sign_vs_threshold=sign, normalizable=sign < 0,
        beta_modulus_flag=beta_unit_modulus(branch, line))


def symmetry_divergence(k: int, branch: ExponentBranch) -> bool:
    """Whether the z^k expectation integral diverges: k + 2 rho >= -1.

    Only defined for real rational rho; a branch with a surd part is refused
    because its realness depends on the parameters.
    """
    if not branch.rho.is_rational():
        raise ValueError("symmetry divergence is only assessed for real "
                         f"rational rho; got {branch.rho.text()}")
    v = branch.rho.rational_value().constant_value()
    return k + 2 * v >= -1


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
    lines: tuple[CriticalLine, ...]
    symmetry_divergence: bool
    trace: dict

    def trace_json(self) -> str:
        return json.dumps(self.trace, indent=1, sort_keys=True)

    def trace_ref(self) -> str:
        return "sha256:" + hashlib.sha256(self.trace_json().encode()).hexdigest()

    def to_json_obj(self) -> dict:
        branches = []
        for rep in self.reports:
            br = rep.branch
            entry = {
                "gamma_power": 2 * br.gamma_index + 1,
                "beta": br.beta.text(),
                "rho": _rho_json(br, self.omega),
                "normalizable": rep.normalizable,
            }
            try:
                entry["symmetry_divergent"] = symmetry_divergence(br.k, br)
            except ValueError:
                entry["symmetry_divergent"] = None
            branches.append(entry)
        return {
            "k": self.k,
            "omega": str(self.omega),
            "delta": str(self.delta),
            "verdict": self.verdict.value,
            "branches": branches,
            "critical_lines": [str(ln.theta_over_pi) for ln in self.lines],
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
                "gamma_power": 2 * b.gamma_index + 1,
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
            k, omega, delta, Verdict.SelfAdjoint, (), (), False,
            {"k": 1, "note": "linear coupling is relatively bounded with "
                             "relative bound 0; self-adjointness is inherited "
                             "from the free field operator"})
    if k == 2:
        return VerdictReport(
            k, omega, delta, Verdict.OutOfScope, (), (), False,
            {"k": 2, "note": "quadratic coupling: the Gaussian exponent is "
                             "not a root of unity; see the truncation "
                             "numerics for the collapse at g = omega/2"})
    levels, branches = _exponent_pipeline(k)

    # the whole argument needs E symbolic: no exponent may depend on it
    for b in branches:
        for poly in (b.rho.rational, b.rho.surd, b.rho.disc,
                     b.rho.monic_b, b.rho.monic_c):
            if poly.uses("E") or poly.uses("d"):
                raise RuntimeError("exponent depends on E or Delta")
        if b.beta.uses_param("E") or b.beta.uses_param("d"):
            raise RuntimeError("beta depends on E or Delta")

    reports = tuple(normalizability(b, omega) for b in branches)
    lines = tuple(critical_lines(k))
    divergent = False
    for b in branches:
        try:
            divergent = divergent or symmetry_divergence(k, b)
        except ValueError:
            pass
    if not all(r.normalizable for r in reports):
        raise RuntimeError(
            "unexpected non-normalizable branch; the k >= 3 theory "
            "guarantees Re(rho) < -1/2")
    trace = _build_trace(k, levels, branches, reports)
    return VerdictReport(k, omega, delta, Verdict.NotSelfAdjoint,
                         reports, lines, divergent, trace)
