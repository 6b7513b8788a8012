"""Exact asymptotics and Fock-space numerics for k-photon Rabi models."""

import importlib
import sys
import types

__version__ = "0.1.0"


# The exact half's failures live here rather than in kphoton.asymptotics,
# which raises them, so that a caller can catch them without importing it.

class UnsolvableLevel(Exception):
    """A level equation is neither zero nor degree <= 2 in its unknown."""

    def __init__(self, level: int, residual: str, reason: str):
        self.level = level
        self.residual = residual
        self.reason = reason
        super().__init__(f"level {level}: {reason} (residual: {residual})")


class DivisionByNonUnit(Exception):
    """Quotient-ring division was demanded by an element that is not q*mono*g^j."""


class OutOfScope(Exception):
    """Requested k lies outside the asymptotic theory implemented here."""


# The other public names by the submodule that defines them.  None is
# imported until a name is first read, so each command pays only for the
# modules it runs: the numeric ones load neither the exact modules nor numpy
# or scipy (fock calls one LAPACK routine through ctypes on the first
# eigensolve, after the CLI has set OpenBLAS's thread count), and the exact
# ones load no fock.
_NAMES = {
    "asymptotics": (
        "ExponentBranch", "LevelEquation", "QuadraticRoot", "RingElem",
        "assemble_final_quadratic", "c_recursion", "crho_closed", "exponent_pipeline",
        "gf_coefficient", "rho_quadratic_general", "solve_levels", "substitute_ansatz"),
    "verdict": (
        "NormalizabilityReport", "Verdict", "VerdictReport", "beta_unit_modulus",
        "critical_lines", "normalizability", "symmetry_divergence", "verdict"),
    "weyl": ("OperatorPoly", "ParamPoly", "a_coeff", "build_reduced_operator"),
    "fock": (
        "Classification", "ModelParams", "SpectrumSweep", "build_hkp",
        "classify_convergence", "convergence_sweep", "jck_exact_spectrum",
        "lowest_eigenvalues", "sweep_csv", "sweep_summary"),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}


def __getattr__(name: str):
    # a public name first, so that kphoton.verdict is the function
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _NAMES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Package(types.ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # The import system binds each submodule it loads on its package, and
        # the submodule kphoton.verdict would hide the verdict function.
        if name == "verdict" and isinstance(value, types.ModuleType):
            value = value.verdict
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

__all__ = sorted([*_HOME, "DivisionByNonUnit", "OutOfScope", "UnsolvableLevel"])
