"""Exact asymptotics and Fock-space numerics for k-photon Rabi models."""

import importlib

from .asymptotics import (
    DivisionByNonUnit,
    ExponentBranch,
    LevelEquation,
    OutOfScope,
    QuadraticRoot,
    RingElem,
    UnsolvableLevel,
    assemble_final_quadratic,
    c_recursion,
    crho_closed,
    gf_coefficient,
    rho_quadratic_general,
    solve_levels,
    substitute_ansatz,
)
from .verdict import (
    NormalizabilityReport,
    Verdict,
    VerdictReport,
    beta_unit_modulus,
    critical_lines,
    normalizability,
    symmetry_divergence,
    verdict,
)
from .weyl import (
    OperatorPoly,
    ParamPoly,
    a_coeff,
    build_reduced_operator,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # Only names not bound above reach here: the fock names, which load numpy
    # (and, on the first eigensolve, scipy's LAPACK wrapper dstebz but not
    # scipy.linalg), so they are imported on first use (the CLI sets
    # OpenBLAS's thread count before that happens).
    if name == "fock" or name in __all__:
        fock = importlib.import_module(".fock", __name__)
        return fock if name == "fock" else getattr(fock, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Classification", "DivisionByNonUnit", "ExponentBranch", "LevelEquation",
    "ModelParams", "NormalizabilityReport", "OperatorPoly", "OutOfScope",
    "ParamPoly", "QuadraticRoot", "RingElem", "SpectrumSweep",
    "UnsolvableLevel", "Verdict", "VerdictReport", "a_coeff",
    "assemble_final_quadratic", "beta_unit_modulus", "build_hkp",
    "build_reduced_operator", "c_recursion", "classify_convergence",
    "convergence_sweep", "critical_lines", "crho_closed", "gf_coefficient",
    "jck_exact_spectrum", "lowest_eigenvalues", "normalizability",
    "rho_quadratic_general", "solve_levels", "substitute_ansatz",
    "sweep_csv", "sweep_summary", "symmetry_divergence", "verdict",
]
