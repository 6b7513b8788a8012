"""Batch command line front end.

Every pipeline stage is exposed as a subcommand with deterministic output:
identical invocations produce byte-identical bytes.  Exact subcommands
(coeffs, ode, exponents, verdict, gf) take parameters as integers or exact
rational strings like 7/2 and refuse decimal input; the numeric subcommands
(sweep, jc-exact) accept decimals.  Exit codes: 0 success, 2 input
validation, 3 solver failure (the message carries the residual/diagnostic).

The exact subcommands never load numpy or scipy; sweep and jc-exact import
kphoton.fock, and with it numpy and scipy, on first use, after the BLAS
thread count below is set.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import asymptotics
from .verdict import _exponent_pipeline, verdict as run_verdict
from .weyl import a_coeff, build_reduced_operator

# Nothing here calls threaded BLAS: the exact subcommands use rationals and
# sweep bisects tridiagonal chains.  numpy and scipy load only on the numeric
# paths (sweep, jc-exact), and this must be set before they do: each OpenBLAS
# they load otherwise starts cpu_count - 1 workers that busy-wait after
# start-up and take CPU from the main thread.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


class CliError(argparse.ArgumentTypeError):
    """Input validation failure: maps to exit code 2.

    Subclasses ArgumentTypeError so argparse reports the message verbatim
    when raised from a type converter.
    """


_RATIONAL = re.compile(r"-?\d+(/\d+)?")


def _rational(s: str) -> Fraction:
    s = s.strip()
    if not _RATIONAL.fullmatch(s):
        raise CliError(f"expected an exact rational like 2 or -7/2, got {s!r} "
                       "(decimal input is not accepted by exact subcommands)")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise CliError(f"zero denominator in {s!r}") from None


def _real(s: str) -> float:
    s = s.strip()
    try:
        return float(Fraction(s)) if "/" in s else float(s)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"not a number: {s!r}") from None


def _size_list(s: str) -> list[int]:
    try:
        sizes = [int(tok) for tok in s.split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"truncation list must be comma-separated integers, got {s!r}") from None
    if not sizes:
        raise CliError("empty truncation list")
    return sizes


def _check_k(k: int, lo: int, hi: int, what: str) -> int:
    if not lo <= k <= hi:
        raise CliError(f"{what} supports {lo} <= k <= {hi}, got {k}")
    return k


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_atomic(path: str, text: str) -> None:
    import tempfile     # only --output/--trace need it

    target = os.path.abspath(path)
    # mkstemp creates the file 0600; give it the mode a new file from
    # open(path, "w") gets under the current umask
    umask = os.umask(0)
    os.umask(umask)
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".kphoton-tmp-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:      # missing directory, no permission, ...
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from None


# ---------------------------------------------------------------------------
# subcommand handlers: take the parsed namespace, return the output text

def _cmd_coeffs(ns) -> str:
    k = _check_k(ns.k, 1, 64, "coeffs")
    rows = [(j, a_coeff(j, k)) for j in range(1, k + 1)]
    if ns.format == "json":
        return _json_text({"k": k, "coefficients": [{"j": j, "a": int(a)} for j, a in rows]})
    if ns.format == "csv":
        return "j,a_j\n" + "".join(f"{j},{a}\n" for j, a in rows)
    return "".join(f"a_{j} = {a}\n" for j, a in rows)


def _cmd_ode(ns) -> str:
    k = _check_k(ns.k, 2, 64, "ode")
    op = build_reduced_operator(k)
    if ns.format == "json":
        terms = [{"z": i, "dz": j, "coeff": p.text()}
                 for (i, j), p in sorted(op.terms.items())]
        return _json_text({"k": k, "terms": terms})
    if ns.format == "csv":
        out = "z,dz,coeff\n"
        for (i, j), p in sorted(op.terms.items()):
            out += f'{i},{j},"{p.text()}"\n'
        return out
    return op.text() + "\n"


def _cmd_exponents(ns) -> str:
    if ns.k == 2:
        raise CliError("k = 2 is out of scope for the exponent pipeline: the "
                       "Gaussian exponent is not a root of unity there; use "
                       "the sweep subcommand for the truncation numerics")
    k = _check_k(ns.k, 3, 12, "exponents")
    _, branches = _exponent_pipeline(k)
    rows = [{"gamma_power": b.gamma_power,
             "gamma": b.gamma.text(),
             "beta": b.beta.text(),
             "rho": b.rho.text(),
             "rho_index": b.rho_index} for b in branches]
    if ns.format == "json":
        return _json_text({"k": k, "branches": rows})
    if ns.format == "csv":
        out = "gamma_power,gamma,beta,rho\n"
        for r in rows:
            out += f'{r["gamma_power"]},"{r["gamma"]}","{r["beta"]}","{r["rho"]}"\n'
        return out
    out = f"k = {k}: {len(rows)} branches over gamma^{k} = -1\n"
    for r in rows:
        out += (f"gamma = {r['gamma']} (power {r['gamma_power']}), "
                f"beta = {r['beta']}, rho = {r['rho']}\n")
    return out


def _cmd_verdict(ns) -> str:
    if ns.k != 1 and ns.k != 2:
        _check_k(ns.k, 3, 12, "verdict")
    rep = run_verdict(ns.k, ns.omega, ns.delta)
    if ns.trace:
        _write_atomic(ns.trace, rep.trace_json() + "\n")
    if ns.format == "json":
        return _json_text(rep.to_json_obj())
    obj = rep.to_json_obj()
    out = (f"k = {obj['k']}, omega = {obj['omega']}, delta = {obj['delta']}\n"
           f"verdict: {obj['verdict']}\n")
    if obj["critical_lines"]:
        out += "critical lines (theta/pi): " + ", ".join(obj["critical_lines"]) + "\n"
    for b in obj["branches"]:
        rho = b["rho"]
        rho_txt = rho["re"]
        for key, unit in (("surd", ""), ("im", "i*")):
            if key in rho:
                coeff, disc = rho[key]["coeff"], rho[key]["disc"]
                sign, mag = ("-", coeff[1:]) if coeff.startswith("-") else ("+", coeff)
                rho_txt += f" {sign} {unit}{mag}*sqrt({disc})"
        div = b["symmetry_divergent"]
        out += (f"gamma power {b['gamma_power']}: beta = {b['beta']}, "
                f"rho = {rho_txt}, normalizable = {str(b['normalizable']).lower()}, "
                f"symmetry divergent = {'n/a' if div is None else str(div).lower()}\n")
    out += f"trace: {obj['trace_ref']}\n"
    return out


def _cmd_gf(ns) -> str:
    k = _check_k(ns.k, 5, 12, "gf")
    c2k_r2, c2k_r, ck_r2, ck_r = asymptotics.crho_closed(k)
    c0 = asymptotics.gf_coefficient(2 * k - 2)
    lin, const = asymptotics.assemble_final_quadratic(k)
    ref_lin, ref_const = asymptotics.rho_quadratic_general(k)
    oracle_lin, oracle_const = asymptotics.assemble_final_quadratic(k, from_oracle=True)
    consistent = (lin, const) == (ref_lin, ref_const) == (oracle_lin, oracle_const)
    if not consistent:
        raise RuntimeError(
            f"internal inconsistency at k={k}: closed form ({lin}, {const}), "
            f"direct quadratic ({ref_lin}, {ref_const}), "
            f"oracle ({oracle_lin}, {oracle_const})")
    obj = {
        "k": k,
        "c0": str(c0),
        "c_coefficients": {"C2k_r2": str(c2k_r2), "C2k_r": str(c2k_r),
                           "Ck_r2": str(ck_r2), "Ck_r": str(ck_r)},
        "assembled_quadratic": {"linear": str(lin), "constant": str(const)},
        "oracle_consistent": True,
    }
    if ns.format == "json":
        return _json_text(obj)
    if ns.format == "csv":
        return ("name,value\n"
                f"c0,{c0}\nC2k_r2,{c2k_r2}\nC2k_r,{c2k_r}\nCk_r2,{ck_r2}\nCk_r,{ck_r}\n"
                f"quadratic_linear,{lin}\nquadratic_constant,{const}\n")
    return (f"k = {k}\n"
            f"c0 coefficient at m = 2k-2: {c0}\n"
            f"C coefficients: C2k_r2 = {c2k_r2}, C2k_r = {c2k_r}, "
            f"Ck_r2 = {ck_r2}, Ck_r = {ck_r}\n"
            f"assembled monic quadratic: r^2 + {lin}*r + {const}\n"
            f"oracle check: consistent\n")


def _cmd_sweep(ns) -> str:
    from . import fock
    params = fock.ModelParams(ns.k, ns.g, ns.omega, ns.delta)
    sweep = fock.convergence_sweep(params, ns.sizes, m=ns.m, tol=ns.tol)
    if ns.format == "json":
        return _json_text(fock.sweep_summary(sweep))
    if ns.format == "text":
        summary = fock.sweep_summary(sweep)
        lines = [f"k = {params.k}, g = {params.g:g}, omega = {params.omega:g}, "
                 f"delta = {params.delta:g}",
                 f"classification: {summary['classification']}"]
        for N, e in zip(sweep.N_list, summary["E_min_series"]):
            lines.append(f"N = {N}: E_min = {'%.17g' % e}")
        return "\n".join(lines) + "\n"
    return fock.sweep_csv(sweep)


def _cmd_jc_exact(ns) -> str:
    from . import fock
    params = fock.ModelParams(ns.k, ns.g, ns.omega, ns.delta)
    if ns.n_max < 0:
        raise CliError("n-max must be >= 0")
    vals = fock.jck_exact_spectrum(params, ns.n_max)
    if ns.format == "json":
        return _json_text({
            "params": {"k": params.k, "g": params.g,
                       "omega": params.omega, "delta": params.delta},
            "n_max": ns.n_max,
            "eigenvalues": vals,
        })
    if ns.format == "text":
        return "".join(f"E_{i} = {'%.17g' % v}\n" for i, v in enumerate(vals))
    return "index,eigenvalue\n" + "".join(
        f"{i},{'%.17g' % v}\n" for i, v in enumerate(vals))


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="kphoton",
        description="Exact asymptotics and truncation numerics for k-photon couplings")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, func, fmt_default, fmt_choices, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=fmt_choices, default=fmt_default)
        p.add_argument("--output", default=None, metavar="PATH",
                       help="write atomically to PATH instead of stdout")
        return p

    p = add("coeffs", _cmd_coeffs, "text", ("text", "csv", "json"),
            "cross-term weight table a_1..a_k")
    p.add_argument("--k", type=int, required=True)

    p = add("ode", _cmd_ode, "text", ("text", "csv", "json"),
            "normal-ordered reduced operator")
    p.add_argument("--k", type=int, required=True)

    p = add("exponents", _cmd_exponents, "text", ("text", "csv", "json"),
            "asymptotic exponent branches")
    p.add_argument("--k", type=int, required=True)

    p = add("verdict", _cmd_verdict, "text", ("text", "json"),
            "self-adjointness verdict with trace")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--omega", type=_rational, required=True)
    p.add_argument("--delta", type=_rational, required=True)
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="also write the full derivation trace JSON to PATH")

    p = add("gf", _cmd_gf, "text", ("text", "csv", "json"),
            "generating-function coefficient table with oracle check")
    p.add_argument("--k", type=int, required=True)

    p = add("sweep", _cmd_sweep, "csv", ("csv", "json", "text"),
            "truncation convergence sweep")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--g", type=_real, required=True)
    p.add_argument("--omega", type=_real, default=1.0)
    p.add_argument("--delta", type=_real, default=0.0)
    p.add_argument("--N", dest="sizes", type=_size_list, default=[100, 200, 400, 800],
                   metavar="N1,N2,...", help="strictly increasing truncation sizes")
    p.add_argument("--m", type=int, default=10, help="eigenvalues kept per size")
    p.add_argument("--tol", type=_real, default=1e-6)

    p = add("jc-exact", _cmd_jc_exact, "csv", ("csv", "json", "text"),
            "closed-form number-conserving spectrum")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--g", type=_real, required=True)
    p.add_argument("--omega", type=_real, default=1.0)
    p.add_argument("--delta", type=_real, default=0.0)
    p.add_argument("--n-max", dest="n_max", type=int, default=20)

    return top


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:       # argparse reports its own message
        return int(exc.code or 0)
    try:
        text = ns.func(ns)
        if ns.output:
            _write_atomic(ns.output, text)
    except (CliError, asymptotics.OutOfScope) as exc:
        print(f"kphoton: {exc}", file=sys.stderr)
        return 2
    except asymptotics.UnsolvableLevel as exc:
        print(f"kphoton: unsolvable level {exc.level}: {exc.reason}; "
              f"residual: {exc.residual}", file=sys.stderr)
        return 3
    except (asymptotics.DivisionByNonUnit, RuntimeError) as exc:
        print(f"kphoton: solver failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("kphoton: out of memory; use a smaller N or n_max", file=sys.stderr)
        return 3
    except ValueError as exc:       # domain validation inside the modules
        print(f"kphoton: {exc}", file=sys.stderr)
        return 2
    if not ns.output:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
