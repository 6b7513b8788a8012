"""Batch command line front end.

Every pipeline stage is exposed as a subcommand with deterministic output:
identical invocations produce byte-identical bytes.  Exact subcommands
(coeffs, ode, exponents, verdict, gf) take parameters as integers or exact
rational strings like 7/2 and refuse decimal input; the numeric subcommands
(sweep, jc-exact) accept decimals.  Exit codes: 0 success, 2 input
validation, 3 solver failure (the message carries the residual/diagnostic).

Each handler imports the modules it runs: the exact subcommands load neither
kphoton.fock nor numpy or scipy (exponents loads weyl and asymptotics, and
only verdict adds kphoton.verdict), and sweep and jc-exact load kphoton.fock
but none of the exact modules and neither numpy nor scipy.  Of scipy's files,
only sweep's eigensolves open one: the LAPACK library that the compiled
scipy.linalg._flapack extension links, through ctypes, after the BLAS thread
count below is set.  main maps the exact half's errors to exit codes by
type; they are defined on the package, so catching them loads no exact
module.  Only public names of the other package modules are used.  json
loads only for JSON output, and fractions only to read a rational.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import DivisionByNonUnit, OutOfScope, UnsolvableLevel

# Nothing here calls threaded BLAS: the exact subcommands use rationals and
# sweep bisects tridiagonal chains with LAPACK's dstebz, from the OpenBLAS
# that scipy's _flapack extension links.  This must be set before that
# library loads: OpenBLAS otherwise starts cpu_count - 1 workers that
# busy-wait after start-up and take CPU from the main thread.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


class CliError(argparse.ArgumentTypeError):
    """Input validation failure: maps to exit code 2.

    Subclasses ArgumentTypeError so argparse reports the message verbatim
    when raised from a type converter.
    """


_RATIONAL = re.compile(r"-?\d+(/\d+)?")


def _rational(s: str) -> Fraction:
    from fractions import Fraction     # only verdict's options are rationals

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
        if "/" in s:
            from fractions import Fraction     # a decimal needs none
            return float(Fraction(s))
        return float(s)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"not a number: {s!r}") from None
    except OverflowError:       # a rational past the largest double
        raise CliError(f"too large for a double: {s!r}") from None


def _size_list(s: str) -> list[int]:
    try:
        sizes = [int(tok) for tok in s.split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"truncation list must be comma-separated integers, got {s!r}") from None
    if not sizes:
        raise CliError("empty truncation list")
    return sizes


def _check_k(ns) -> int:
    """ns.k, if it is in the range the subcommand's _COMMANDS row gives."""
    lo, hi = ns.k_range
    if not lo <= ns.k <= hi:
        raise CliError(f"{ns.command} supports {lo} <= k <= {hi}, got {ns.k}")
    return ns.k


# a value argparse would read as an option: it takes only -N and -N.M as
# negative numbers
_NEGATIVE = re.compile(r"-\.?\d")


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with each long option that a negative value such as -7/2 or -1e-3
    follows written --opt=value, so argparse passes the value to the option.
    --help (or a prefix of it) and the -- that ends the options take none."""
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if (_NEGATIVE.match(tok) and prev.startswith("--") and "=" not in prev
                and not "--help".startswith(prev)):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def _json_text(obj) -> str:
    import json     # only --format json needs it

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
    from .weyl import a_coeff
    k = _check_k(ns)
    rows = [(j, a_coeff(j, k)) for j in range(1, k + 1)]
    if ns.format == "json":
        return _json_text({"k": k, "coefficients": [{"j": j, "a": int(a)} for j, a in rows]})
    if ns.format == "csv":
        return "j,a_j\n" + "".join(f"{j},{a}\n" for j, a in rows)
    return "".join(f"a_{j} = {a}\n" for j, a in rows)


def _cmd_ode(ns) -> str:
    from .weyl import build_reduced_operator
    k = _check_k(ns)
    op = build_reduced_operator(k)
    if ns.format == "text":
        return op.text() + "\n"
    terms = op.sorted_terms()
    if ns.format == "json":
        return _json_text({"k": k, "terms": [{"z": i, "dz": j, "coeff": p.text()}
                                             for (i, j), p in terms]})
    return "z,dz,coeff\n" + "".join(f'{i},{j},"{p.text()}"\n' for (i, j), p in terms)


def _cmd_exponents(ns) -> str:
    from .asymptotics import exponent_pipeline
    if ns.k == 2:
        raise CliError("k = 2 is out of scope for the exponent pipeline: the "
                       "Gaussian exponent is not a root of unity there; use "
                       "the sweep subcommand for the truncation numerics")
    k = _check_k(ns)
    _, branches = exponent_pipeline(k)
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
    from .verdict import verdict
    rep = verdict(_check_k(ns), ns.omega, ns.delta)
    if ns.trace:
        _write_atomic(ns.trace, rep.trace_json() + "\n")
    return _json_text(rep.to_json_obj()) if ns.format == "json" else rep.text()


def _cmd_gf(ns) -> str:
    from . import asymptotics
    k = _check_k(ns)
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
    if ns.format == "csv":
        return fock.sweep_csv(sweep)
    summary = fock.sweep_summary(sweep)
    if ns.format == "json":
        return _json_text(summary)
    lines = [f"k = {params.k}, g = {params.g:g}, omega = {params.omega:g}, "
             f"delta = {params.delta:g}",
             f"classification: {summary['classification']}"]
    for N, e in zip(sweep.N_list, summary["E_min_series"]):
        lines.append(f"N = {N}: E_min = {'%.17g' % e}")
    return "\n".join(lines) + "\n"


def _cmd_jc_exact(ns) -> str:
    from . import fock
    params = fock.ModelParams(ns.k, ns.g, ns.omega, ns.delta)
    if ns.n_max < 0:
        raise CliError("n-max must be >= 0")
    vals = fock.jck_exact_spectrum(params, ns.n_max)
    if ns.format == "json":
        return _json_text({"params": params._asdict(), "n_max": ns.n_max,
                           "eigenvalues": vals})
    if ns.format == "text":
        return "".join(f"E_{i} = {'%.17g' % v}\n" for i, v in enumerate(vals))
    return "index,eigenvalue\n" + "".join(
        f"{i},{'%.17g' % v}\n" for i, v in enumerate(vals))


# ---------------------------------------------------------------------------

# --g, --omega and --delta of the numeric subcommands, which accept decimals
_MODEL = (("--g", dict(type=_real, required=True)), ("--omega", dict(type=_real, default=1.0)),
          ("--delta", dict(type=_real, default=0.0)))

# One row per subcommand, in the order --help lists them: its handler, its
# --format choices (the first is the default), the k range _check_k accepts
# (None where ModelParams checks k), its help and its options after --k.
_COMMANDS = {
    "coeffs": (_cmd_coeffs, "text csv json", (1, 64), "cross-term weight table a_1..a_k", ()),
    "ode": (_cmd_ode, "text csv json", (2, 64), "normal-ordered reduced operator", ()),
    "exponents": (_cmd_exponents, "text csv json", (3, 64), "asymptotic exponent branches", ()),
    "verdict": (_cmd_verdict, "text json", (1, 64), "self-adjointness verdict with trace", (
        ("--omega", dict(type=_rational, required=True)),
        ("--delta", dict(type=_rational, required=True)),
        ("--trace", dict(metavar="PATH", help="also write the full derivation trace JSON to PATH")))),
    "gf": (_cmd_gf, "text csv json", (5, 32),
           "generating-function coefficient table with oracle check", ()),
    "sweep": (_cmd_sweep, "csv json text", None, "truncation convergence sweep", _MODEL + (
        ("--N", dict(dest="sizes", type=_size_list, default=(100, 200, 400, 800),
                     metavar="N1,N2,...", help="strictly increasing truncation sizes")),
        ("--m", dict(type=int, default=10, help="eigenvalues kept per size")),
        ("--tol", dict(type=_real, default=1e-6)))),
    "jc-exact": (_cmd_jc_exact, "csv json text", None, "closed-form number-conserving spectrum",
                 _MODEL + (("--n-max", dict(dest="n_max", type=int, default=20)),)),
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="kphoton",
        description="Exact asymptotics and truncation numerics for k-photon couplings")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (func, formats, k_range, help_, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func, k_range=k_range)
        p.add_argument("--format", choices=formats.split(), default=formats.split()[0])
        p.add_argument("--output", metavar="PATH",
                       help="write atomically to PATH instead of stdout")
        p.add_argument("--k", type=int, required=True)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return top


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(
            _join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:       # argparse reports its own message
        return int(exc.code or 0)
    try:
        text = ns.func(ns)
        if ns.output:
            _write_atomic(ns.output, text)
    except (CliError, OutOfScope, ValueError) as exc:   # ValueError: domain validation
        print(f"kphoton: {exc}", file=sys.stderr)
        return 2
    except UnsolvableLevel as exc:
        print(f"kphoton: unsolvable level {exc.level}: {exc.reason}; "
              f"residual: {exc.residual}", file=sys.stderr)
        return 3
    except (DivisionByNonUnit, RuntimeError) as exc:
        print(f"kphoton: solver failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("kphoton: out of memory; use a smaller N or n_max", file=sys.stderr)
        return 3
    if not ns.output:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
