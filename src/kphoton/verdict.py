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
from collections import namedtuple
from fractions import Fraction

from .asymptotics import ExponentBranch, exponent_pipeline


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
    if x > 0 and y > 0:
        return 1
    if x < 0 and y < 0:
        return -1
    lhs, rhs = x * x, y * y * d
    if lhs == rhs:
        return 0
    return (1 if x > 0 else -1) if lhs > rhs else (1 if y > 0 else -1)


class NormalizabilityReport(namedtuple("NormalizabilityReport", "branch sign_vs_threshold rho_at")):
    """Branch-level outcome of the Re(rho) < -1/2 test at rational omega:
    sign_vs_threshold is the certified sign of Re(rho) + 1/2, and rho_at is
    (r, s, d) = branch.rho.at(omega), rho = r + s*sqrt(d), which the report's
    renderers print."""

    __slots__ = ()
    __hash__ = None     # its branch is unhashable

    @property
    def normalizable(self) -> bool:
        return self.sign_vs_threshold < 0


def normalizability(branch: ExponentBranch, omega) -> NormalizabilityReport:
    """Certify Re(rho) against -1/2 for one branch at rational omega > 0."""
    omega = Fraction(omega)
    if omega <= 0:
        raise ValueError("omega must be positive")
    r, s, d = rho_at = branch.rho.at(omega)
    sign = _sign_x_plus_y_sqrt_d(r + Fraction(1, 2), s, max(d, 0))
    return NormalizabilityReport(branch, sign, rho_at)


def symmetry_divergence(branch: ExponentBranch) -> bool | None:
    """Whether the z^k expectation integral diverges: k + 2 rho >= -1.

    Only assessed for real rational rho: a branch with a surd part gives None,
    because its realness depends on the parameters.
    """
    if not branch.rho.is_rational():
        return None
    return branch.k + 2 * branch.rho.rational.constant_value() >= -1


# ---------------------------------------------------------------------------
# the per-k verdict

class VerdictReport(namedtuple("VerdictReport", "k omega delta verdict reports trace")):
    """The verdict at (k, omega, delta): one NormalizabilityReport per branch
    in reports, and the derivation in the trace dict."""

    __slots__ = ()
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
        branches = [{"gamma_power": rep.branch.gamma_power,
                     "beta": rep.branch.beta.text(),
                     "rho": _rho_json(*rep.rho_at),
                     "normalizable": rep.normalizable,
                     "symmetry_divergent": symmetry_divergence(rep.branch)}
                    for rep in self.reports]
        return {
            "k": self.k,
            "omega": str(self.omega),
            "delta": str(self.delta),
            "verdict": self.verdict.value,
            "branches": branches,
            "critical_lines": [str(t) for t in self.lines],
            "trace_ref": self.trace_ref(),
        }

    def text(self) -> str:
        """The report as the CLI's text format: the values of to_json_obj,
        with rho written r +- s*sqrt(d), or r +- i*s*sqrt(-d) when d < 0."""
        out = (f"k = {self.k}, omega = {self.omega}, delta = {self.delta}\n"
               f"verdict: {self.verdict.value}\n")
        if self.lines:
            out += "critical lines (theta/pi): " + ", ".join(map(str, self.lines)) + "\n"
        for rep in self.reports:
            br = rep.branch
            r, s, d = rep.rho_at
            rho = str(r)
            if d:
                sign, unit = "-" if s < 0 else "+", "" if d > 0 else "i*"
                rho += f" {sign} {unit}{abs(s)}*sqrt({abs(d)})"
            div = symmetry_divergence(br)
            out += (f"gamma power {br.gamma_power}: beta = {br.beta.text()}, "
                    f"rho = {rho}, normalizable = {str(rep.normalizable).lower()}, "
                    f"symmetry divergent = {'n/a' if div is None else str(div).lower()}\n")
        return out + f"trace: {self.trace_ref()}\n"


def _rho_json(r: Fraction, s: Fraction, d: Fraction) -> dict:
    if d == 0:
        return {"re": str(r)}
    return {"re": str(r), "surd" if d > 0 else "im": {"coeff": str(s), "disc": str(abs(d))}}


def _build_trace(k, levels, branches) -> dict:
    return {
        "k": k,
        "levels": [{"level": lv.level, "coeff": lv.coeff.text()} for lv in levels],
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
                "beta_unit_modulus": beta_unit_modulus(b),
            }
            for b in branches
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
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
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
    # the whole argument needs E symbolic: exponent_pipeline refuses an
    # exponent that depends on it
    levels, branches = exponent_pipeline(k)
    reports = tuple(normalizability(b, omega) for b in branches)
    if not all(r.normalizable for r in reports):
        raise RuntimeError(
            "unexpected non-normalizable branch; the k >= 3 theory "
            "guarantees Re(rho) < -1/2")
    trace = _build_trace(k, levels, branches)
    return VerdictReport(k, omega, delta, Verdict.NotSelfAdjoint, reports, trace)
