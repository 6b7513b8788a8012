"""Per-layer probes for the traced run.

Every call into a layer is wrapped in a span recorded from here, the
benchmark's side of the boundary; nothing inside kphoton is patched.  Inputs
are fixed (not seed-drawn) so per-layer numbers compare across runs.  An entry
point a later change may delete (build_hkp, BandedSymmetricMatrix, the
RingElem/ParamPoly term layout, ...) is looked up at run time; when it is
gone its metrics read -1 and its name is listed under "missing".
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from workloads import (CLI_TIMEOUT_S, DEEP_DEPTH, DEEP_KS, DEEP_N_MAX, DENSE_REL_TOL,
                       EXACT_RANGES, N_LADDER, ROOT, SWEEP_REL_TOL, VERDICT_PARAMS,
                       branch_digest, cli_command, close, dense_lowest, exact_argv, sha256,
                       sweep_argv)

CHILD = ROOT / "perfbench" / "child.py"
LAYERS = ("bench", "startup", "cli", "weyl", "asymptotics", "verdict", "fock")
CLI_PROBES = {sub: exact_argv(sub, 6 if sub != "coeffs" else 8, "text",
                              VERDICT_PARAMS[0] if sub == "verdict" else None)
              for sub in EXACT_RANGES}
FOCK_K, FOCK_G, FOCK_M = 2, "0.3", 10
IMPORT_REPS = 3


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    u = {"startup.import_kphoton_s": "s", "startup.modules_loaded": "count",
         "startup.scipy_loaded_on_exact_path": "flag"}
    u.update({f"cli.main_s.{sub}": "s" for sub in CLI_PROBES})
    u["cli.startup_share"] = "ratio"
    for k in DEEP_KS:
        u[f"weyl.build_reduced_operator_s.k{k}"] = "s"
        u[f"weyl.op_terms.k{k}"] = "count"
    for k in DEEP_KS:
        u[f"asymptotics.substitute_ansatz_s.k{k}.d5"] = "s"
        u[f"asymptotics.substitute_ansatz_s.k{k}.d{DEEP_DEPTH}"] = "s"
        u[f"asymptotics.level_ring_terms.k{k}"] = "count"
        u[f"asymptotics.level_param_terms.k{k}"] = "count"
        u[f"asymptotics.solve_levels_s.k{k}"] = "s"
        u[f"asymptotics.branches.k{k}"] = "count"
        u[f"asymptotics.c_recursion_s.k{k}"] = "s"
        u[f"asymptotics.tail_param_terms.k{k}"] = "count"
        u[f"asymptotics.tail_max_bits.k{k}"] = "bit"
    for k in DEEP_KS:
        u[f"verdict.cold_s.k{k}"] = "s"
        u[f"verdict.warm_s.k{k}"] = "s"
        u[f"verdict.trace_bytes.k{k}"] = "B"
    for N in N_LADDER:
        u[f"fock.build_hkp_s.N{N}"] = "s"
        u[f"fock.lowest_eigenvalues_s.N{N}"] = "s"
    u.update({"fock.eig_scaling_exp": "slope", "fock.classify_s": "s",
              "fock.convergence_sweep_s": "s", "fock.serial_solve_sum_s": "s",
              "fock.thread_speedup": "ratio",
              f"fock.band_bytes_computed.N{N_LADDER[-1]}": "B"})
    u.update({f"{layer}.self_s": "s" for layer in LAYERS})
    u.update({"trace.overhead_ratio": "ratio", "trace.untraced_wall_s": "s",
              "trace.traced_wall_s": "s"})
    return u


def _slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


class Probe:
    def __init__(self, tracer, env: dict, expected: dict):
        self.tracer = tracer
        self.env = env
        self.expected = expected
        self.metrics: dict[str, float] = {}
        self.missing: list[str] = []
        self.errors: list[str] = []
        self.checks = 0

    # -- helpers
    def timed(self, name: str, fn, *args):
        with self.tracer.span(name):
            t0 = time.perf_counter()
            out = fn(*args)
            return out, time.perf_counter() - t0

    def entry(self, module, name: str):
        fn = getattr(module, name, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{name}")
        return fn

    def size(self, what: str, fn) -> int:
        """A size read from the program's data layout, or -1 if it changed."""
        try:
            return fn()
        except AttributeError:
            self.missing.append(what)
            return -1

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.errors.append(what)

    def child(self, span: str, *args) -> dict:
        with self.tracer.span(span):
            out = subprocess.run([sys.executable, str(CHILD), *args], capture_output=True,
                                 env=self.env, cwd=ROOT, check=True,
                                 timeout=CLI_TIMEOUT_S).stdout
        return json.loads(out.splitlines()[-1])

    # -- layers
    def startup_and_cli(self) -> None:
        m = self.metrics
        imports = [self.child("startup.child_import", "import", "kphoton")
                   for _ in range(IMPORT_REPS)]
        m["startup.import_kphoton_s"] = statistics.median(i["import_s"] for i in imports)
        m["startup.modules_loaded"] = statistics.median(i["modules_loaded"] for i in imports)
        sub_total = main_total = 0.0
        for sub, argv in CLI_PROBES.items():
            want = self.expected["exact-cli"][" ".join(argv)]
            with self.tracer.span("cli.subprocess"):
                t0 = time.perf_counter()
                proc = subprocess.run(cli_command(argv), capture_output=True, env=self.env,
                                      cwd=ROOT, timeout=CLI_TIMEOUT_S)
                sub_total += time.perf_counter() - t0
            self.check(proc.returncode == 0 and sha256(proc.stdout) == want,
                       f"cli {' '.join(argv)} output")
            info = self.child("cli.main_child", "main", *argv)
            self.check(info["exit"] == 0 and info["stdout_sha256"] == want,
                       f"cli.main {' '.join(argv)} output")
            main_total += info["main_s"]
            m[f"cli.main_s.{sub}"] = info["main_s"]
            if sub == "coeffs":
                m["startup.scipy_loaded_on_exact_path"] = info["scipy_loaded"]
        m["cli.startup_share"] = (sub_total - main_total) / sub_total

    def verdict(self) -> None:
        """First (cold) and repeat (lru_cache-served) verdict per k.

        Must run before anything else in this process calls verdict().
        The package attribute kphoton.verdict is the function, so the module
        is fetched through importlib.
        """
        vmod = importlib.import_module("kphoton.verdict")
        fn = self.entry(vmod, "verdict")
        if fn is None:
            return
        omega, delta = (Fraction(s) for s in VERDICT_PARAMS[0])
        warm_omega = Fraction(VERDICT_PARAMS[1][0])
        for k in DEEP_KS:
            rep, cold = self.timed("verdict.verdict", fn, k, omega, delta)
            _, warm = self.timed("verdict.verdict", fn, k, warm_omega, delta)
            self.metrics[f"verdict.cold_s.k{k}"] = cold
            self.metrics[f"verdict.warm_s.k{k}"] = warm
            self.metrics[f"verdict.trace_bytes.k{k}"] = self.size(
                "VerdictReport.trace_json", lambda: len(rep.trace_json().encode()))

    def exact(self) -> None:
        import kphoton as kp
        m = self.metrics
        for k in DEEP_KS:
            op, t = self.timed("weyl.build_reduced_operator", kp.build_reduced_operator, k)
            m[f"weyl.build_reduced_operator_s.k{k}"] = t
            m[f"weyl.op_terms.k{k}"] = self.size("OperatorPoly.terms", lambda: len(op.terms))
            _, t = self.timed("asymptotics.substitute_ansatz", kp.substitute_ansatz, op, k, 5)
            m[f"asymptotics.substitute_ansatz_s.k{k}.d5"] = t
            levels, t = self.timed("asymptotics.substitute_ansatz", kp.substitute_ansatz,
                                   op, k, DEEP_DEPTH)
            m[f"asymptotics.substitute_ansatz_s.k{k}.d{DEEP_DEPTH}"] = t
            m[f"asymptotics.level_ring_terms.k{k}"] = self.size(
                "RingElem.terms", lambda: sum(len(lv.coeff.terms) for lv in levels))
            m[f"asymptotics.level_param_terms.k{k}"] = self.size(
                "ParamPoly.terms", lambda: sum(len(p.terms) for lv in levels
                                               for p in lv.coeff.terms.values()))
            branches, t = self.timed("asymptotics.solve_levels", kp.solve_levels, levels, k)
            m[f"asymptotics.solve_levels_s.k{k}"] = t
            m[f"asymptotics.branches.k{k}"] = len(branches)
            # the last branch extends for every k, including k=6
            ext, t = self.timed("asymptotics.c_recursion", kp.c_recursion,
                                branches[-1], levels, DEEP_N_MAX)
            m[f"asymptotics.c_recursion_s.k{k}"] = t
            want = self.expected["exact-deep"][str(k)]["outcomes"][-1]
            self.check(want == {"ok": branch_digest(ext)}, f"exact-deep k={k} tail")
            coeffs = lambda: [p for c in ext.c for p in c.terms.values()]  # noqa: E731
            m[f"asymptotics.tail_param_terms.k{k}"] = self.size(
                "ParamPoly.terms", lambda: sum(len(p.terms) for p in coeffs()))
            m[f"asymptotics.tail_max_bits.k{k}"] = self.size(
                "ParamPoly.terms", lambda: max(max(q.numerator.bit_length(),
                                                   q.denominator.bit_length())
                                               for p in coeffs() for q in p.terms.values()))

    def fock(self) -> None:
        import kphoton as kp
        fock = importlib.import_module("kphoton.fock")
        m = self.metrics
        params = kp.ModelParams(FOCK_K, float(FOCK_G), 1.0, 0.0)
        build = self.entry(fock, "build_hkp")
        lowest = self.entry(fock, "lowest_eigenvalues")
        serial = 0.0
        if build and lowest:
            solves = []
            for N in N_LADDER:
                M, tb = self.timed("fock.build_hkp", build, params, N)
                vals, te = self.timed("fock.lowest_eigenvalues", lowest, M, FOCK_M)
                m[f"fock.build_hkp_s.N{N}"] = tb
                m[f"fock.lowest_eigenvalues_s.N{N}"] = te
                solves.append(te)
                serial += tb + te
                if N == N_LADDER[0]:
                    with self.tracer.span("bench.dense_check"):
                        dense = dense_lowest(FOCK_K, float(FOCK_G), N, FOCK_M)
                    self.check(all(close(a, b, DENSE_REL_TOL) for a, b in zip(vals, dense)),
                               f"lowest {FOCK_M} at N={N} vs dense eigvalsh")
            m["fock.eig_scaling_exp"] = _slope(N_LADDER, solves)
        if self.entry(fock, "BandedSymmetricMatrix"):
            # computed from the band layout (2k+2 rows of 2N doubles), not measured
            m[f"fock.band_bytes_computed.N{N_LADDER[-1]}"] = (2 * FOCK_K + 2) * 2 * N_LADDER[-1] * 8
        sweep, t = self.timed("fock.convergence_sweep", kp.convergence_sweep, params, N_LADDER)
        m["fock.convergence_sweep_s"] = t
        want = self.expected["sweep-ladder"][" ".join(sweep_argv(FOCK_K, FOCK_G))]
        got = [row[0] for row in sweep.eigenvalues]
        self.check(all(close(a, b, SWEEP_REL_TOL) for a, b in zip(got, want["E_min_series"])),
                   "convergence_sweep E_min series")
        classify = self.entry(fock, "classify_convergence")
        if classify:
            cls, t = self.timed("fock.classify_convergence", classify, sweep, sweep.tol)
            m["fock.classify_s"] = t
            self.check(cls.value == want["classification"], "classification")
        if serial:
            m["fock.serial_solve_sum_s"] = serial
            m["fock.thread_speedup"] = serial / m["fock.convergence_sweep_s"]
