"""The three benchmark workloads: op generation, op execution, output checks.

Each workload is a closed loop with one client: the next op starts when the
previous one has returned and been checked.  The seed picks the order and the
parameters of the ops from fixed pools; the program sees only the generated
argv (CLI workloads) or library arguments (exact-deep).

Ops come in rounds.  A round holds one op of each kind in the workload, in a
seed-shuffled order (exact-deep has one kind: the whole k ladder), and a run
only ever executes whole rounds, so every run sees the same mix of op kinds
whatever its seed.  That keeps the median op
time a property of the program, not of the draw.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import re
import resource
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED = Path(__file__).resolve().with_name("expected.json")

# -- exact-cli pools ---------------------------------------------------------
EXACT_RANGES = {"coeffs": (1, 64), "ode": (2, 64), "exponents": (3, 12),
                "verdict": (1, 12), "gf": (5, 12)}
EXACT_FORMATS = {"coeffs": ("text", "csv", "json"), "ode": ("text", "csv", "json"),
                 "exponents": ("text", "csv", "json"), "verdict": ("text", "json"),
                 "gf": ("text", "csv", "json")}
VERDICT_PARAMS = (("5", "1/2"), ("7/2", "1/2"), ("1", "0"), ("3/4", "-2/3"),
                  ("11/3", "5/7"), ("2", "-1"))
CLI_TIMEOUT_S = 60

# -- exact-deep --------------------------------------------------------------
DEEP_KS = (3, 6, 9, 12)
DEEP_DEPTH = 32
DEEP_N_MAX = 12
DEEP_TIMEOUT_S = 120        # one op: the whole ladder and its checks

# -- sweep-ladder ------------------------------------------------------------
SWEEP_POINTS = ((2, "0.3"), (2, "0.5"), (3, "0.1"), (4, "0.05"))
N_LADDER = (1000, 2000, 4000, 8000)
SWEEP_REL_TOL = 1e-9        # E_min series against the recorded series
DENSE_REL_TOL = 1e-9        # banded E_min at N=1000 against dense eigvalsh
SWEEP_TIMEOUT_S = 120


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child_env() -> dict:
    """Environment for program processes: the checkout's src first on the
    path, RABI_THREADS unset so the sweep uses its default (cpu_count), and
    bytecode caching and stdout buffering as a user has them by default,
    whatever the caller's environment says."""
    env = dict(os.environ)
    for var in ("RABI_THREADS", "PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED"):
        env.pop(var, None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def use_checkout_src() -> None:
    """Import kphoton from this checkout's src, never from an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ.pop("RABI_THREADS", None)
    import kphoton
    if Path(kphoton.__file__).resolve().parent != SRC / "kphoton":
        raise RuntimeError(f"kphoton imported from {kphoton.__file__}, not {SRC}")


def cli_command(argv) -> list[str]:
    return [sys.executable, "-m", "kphoton.cli", *argv]


def time_import(module: str, env: dict) -> float:
    """Wall time of a fresh interpreter that imports `module` and exits.

    Output is captured so that the wait ends when the child closes its pipes:
    without pipes, a wait with a timeout polls at up to 50 ms intervals.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {module}"], env=env, cwd=ROOT,
                   check=True, capture_output=True, timeout=CLI_TIMEOUT_S)
    return time.perf_counter() - t0


def exact_argv(sub: str, k: int, fmt: str, params=None) -> list[str]:
    argv = [sub, "--k", str(k)]
    if sub == "verdict":
        # the = form lets argparse take a negative rational as the value
        argv += [f"--omega={params[0]}", f"--delta={params[1]}"]
    return argv + ["--format", fmt]


def exact_pool():
    """Every argv the exact-cli workload can draw (the recorded digest pool)."""
    for sub, (lo, hi) in EXACT_RANGES.items():
        for k in range(lo, hi + 1):
            for fmt in EXACT_FORMATS[sub]:
                for params in (VERDICT_PARAMS if sub == "verdict" else (None,)):
                    yield exact_argv(sub, k, fmt, params)


def sweep_argv(k: int, g: str) -> list[str]:
    return ["sweep", "--k", str(k), "--g", g,
            "--N", ",".join(map(str, N_LADDER)), "--format", "json"]


def branch_digest(ext) -> str:
    """Digest of an extended branch's canonical renderings (docs/grammar.md)."""
    parts = [ext.beta.text(), ext.rho.text(), *(c.text() for c in ext.c),
             repr(tuple(ext.resonant))]
    return sha256("\n".join(parts).encode())


def dense_hkp(k: int, g: float, omega: float, delta: float, N: int):
    """Dense truncated H = w a'a + g(a^k + a'^k) sx + d sz, from the fock
    docstring: index 2n+s, diagonal w*n -+ d, and
    <n-k, 1-s|H|n, s> = g*sqrt(n!/(n-k)!)."""
    import numpy as np
    n = np.arange(N)
    H = np.zeros((2 * N, 2 * N))
    H[2 * n, 2 * n] = omega * n - delta
    H[2 * n + 1, 2 * n + 1] = omega * n + delta
    for m in range(k, N):
        w = g * math.prod(math.sqrt(m - t) for t in range(k))
        for s in (0, 1):
            i, j = 2 * (m - k) + 1 - s, 2 * m + s
            H[i, j] = H[j, i] = w
    return H


def dense_lowest(k: int, g: float, N: int, m: int, omega=1.0, delta=0.0) -> list[float]:
    import numpy as np
    return [float(v) for v in np.linalg.eigvalsh(dense_hkp(k, g, omega, delta, N))[:m]]


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


class OpTimeout(Exception):
    pass


@contextmanager
def alarm(seconds: float):
    """Raise OpTimeout in the main thread after `seconds` of wall time."""
    def fire(signum, frame):
        raise OpTimeout(f"op exceeded {seconds} s")
    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@dataclass
class Op:
    spec: tuple
    wall: float
    error: str | None


class Workload:
    name = ""
    entry = ""            # module whose import setup_s times
    op_span = "bench.op"

    def __init__(self, expected: dict, workdir: Path):
        self.expected = expected
        self.workdir = workdir
        self.env = child_env()

    def prepare(self) -> None:
        """Untimed set-up before the first op."""

    def rounds(self, rng):
        raise NotImplementedError

    def run(self, spec, tracer):
        """Execute one op: (wall seconds, output, error or None)."""
        raise NotImplementedError

    def check(self, spec, output) -> str | None:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def execute(self, spec, tracer) -> Op:
        """Run and check one op.

        Garbage left by the previous op and its check is collected first, so
        it is not collected inside this op's timed region.
        """
        gc.collect()
        with tracer.span(self.op_span):
            wall, output, error = self.run(spec, tracer)
        if error is None:
            with tracer.span("bench.check"):
                error = self.check(spec, output)
        return Op(spec, wall, error)


class ExactCli(Workload):
    """Fresh `python -m kphoton.cli` per op over the five exact subcommands."""

    name = "exact-cli"
    entry = "kphoton.cli"
    op_span = "cli.op"

    def rounds(self, rng):
        subs = list(EXACT_RANGES)
        while True:
            rng.shuffle(subs)
            rnd = []
            for sub in subs:
                lo, hi = EXACT_RANGES[sub]
                params = rng.choice(VERDICT_PARAMS) if sub == "verdict" else None
                rnd.append(tuple(exact_argv(sub, rng.randint(lo, hi),
                                            rng.choice(EXACT_FORMATS[sub]), params)))
            yield rnd

    def run(self, spec, tracer):
        argv = list(spec)
        trace_path = None
        if argv[0] == "verdict":
            trace_path = self.workdir / "trace.json"
            argv += ["--trace", str(trace_path)]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cli_command(argv), capture_output=True, env=self.env,
                                  cwd=ROOT, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, None, f"timeout after {CLI_TIMEOUT_S} s"
        wall = time.perf_counter() - t0
        trace = None
        if trace_path is not None and trace_path.exists():
            trace = trace_path.read_bytes()
            trace_path.unlink()
        return wall, (proc.returncode, proc.stdout, proc.stderr, trace), None

    def check(self, spec, output):
        code, out, err, trace = output
        if code != 0:
            return f"exit {code}: {err.decode(errors='replace')[-200:]}"
        want = self.expected["exact-cli"].get(" ".join(spec))
        if want is None:
            return "argv outside the recorded pool"
        if sha256(out) != want:
            return "stdout differs from the recorded digest"
        if spec[0] == "verdict":
            m = re.search(rb"sha256:([0-9a-f]{64})", out)
            if m is None or trace is None:
                return "verdict printed no trace_ref or wrote no trace file"
            # the file holds the trace JSON plus one newline; trace_ref hashes the JSON
            body = trace[:-1] if trace.endswith(b"\n") else trace
            if sha256(body) != m.group(1).decode():
                return "trace_ref is not the sha256 of the --trace file"
        return None


class ExactDeep(Workload):
    """In-process exact pipeline to depth 32 with a tail recursion.

    One op runs the whole k ladder, each k on a seed-chosen branch, so every
    op does the same work and each op's time averages over all four k.
    """

    name = "exact-deep"
    entry = "kphoton"

    def __init__(self, expected, workdir):
        super().__init__(expected, workdir)
        self._verified: set = set()
        self.annihilation_checked = 0
        self.annihilation_unavailable = False

    def prepare(self):
        use_checkout_src()
        import kphoton
        self.kp = kphoton

    def rounds(self, rng):
        ks = list(DEEP_KS)
        exp = self.expected["exact-deep"]
        while True:
            rng.shuffle(ks)
            yield [tuple((k, rng.randrange(exp[str(k)]["branches"])) for k in ks)]

    def run(self, spec, tracer):
        """Time the pipeline at each k of the ladder and sum the times.

        Each k's output is checked as soon as it returns, outside the timed
        parts, so only one k's levels are alive at a time and the peak
        memory does not depend on the order of the ladder.
        """
        wall = 0.0
        try:
            with alarm(DEEP_TIMEOUT_S):
                for k, bi in spec:
                    gc.collect()
                    t0 = time.perf_counter()
                    try:
                        output = self._pipeline(k, bi, tracer)
                    finally:
                        wall += time.perf_counter() - t0
                    with tracer.span("bench.check"):
                        error = self._check_k(k, bi, *output)
                    del output
                    if error:
                        return wall, None, f"k={k} branch {bi}: {error}"
        except OpTimeout as exc:
            return wall, None, str(exc)
        except Exception as exc:        # the loop must go on; the op counts as failed
            return wall, None, f"{type(exc).__name__}: {exc}"
        return wall, None, None

    def _pipeline(self, k, bi, tracer):
        kp = self.kp
        with tracer.span("weyl.build_reduced_operator"):
            op = kp.build_reduced_operator(k)
        with tracer.span("asymptotics.substitute_ansatz"):
            levels = kp.substitute_ansatz(op, k, DEEP_DEPTH)
        with tracer.span("asymptotics.solve_levels"):
            branches = kp.solve_levels(levels, k)
        with tracer.span("asymptotics.c_recursion"):
            try:
                outcome = ("ok", kp.c_recursion(branches[bi], levels, DEEP_N_MAX))
            except kp.UnsolvableLevel as exc:
                outcome = ("unsolvable", exc)
        return levels, len(branches), outcome

    def check(self, spec, output):
        """Every k was checked inside run()."""
        return None

    def _check_k(self, k, bi, levels, n_branches, outcome):
        kind, value = outcome
        exp = self.expected["exact-deep"][str(k)]
        if n_branches != exp["branches"]:
            return f"{n_branches} branches, recorded {exp['branches']}"
        want = exp["outcomes"][bi]
        if kind == "unsolvable":
            got = {"unsolvable": value.level, "residual_sha256": sha256(value.residual.encode())}
            return None if got == want else f"UnsolvableLevel {got}, recorded {want}"
        if want != {"ok": branch_digest(value)}:
            return f"extended branch differs from the recorded one ({want})"
        if (k, bi) not in self._verified:
            err = self._annihilates(k, levels, value)
            if err:
                return err
            self._verified.add((k, bi))
        return None

    def _annihilates(self, k, levels, ext) -> str | None:
        """Back-substitute the extended branch into levels 0..4+n_max.

        A level whose residual still holds only c_n with n > n_max is pending
        (for k=3, c_1 is fixed below level 5, so level 4+n_max already reaches
        c_(n_max+1)); any other nonzero residual is a failure.
        """
        try:
            for lv in levels[:5 + DEEP_N_MAX]:
                r = ext.substitute(lv.coeff.reduce(k))
                if not r.is_zero() and min(r.c_indices(), default=-1) <= DEEP_N_MAX:
                    return f"extended branch does not annihilate level {lv.level}"
        except AttributeError:
            self.annihilation_unavailable = True     # the digest check still holds
            return None
        self.annihilation_checked += 1
        return None

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class SweepLadder(Workload):
    """Fresh CLI `sweep --format json` over N = 1000..8000 per op."""

    name = "sweep-ladder"
    entry = "kphoton.cli"
    op_span = "cli.op"

    def __init__(self, expected, workdir):
        super().__init__(expected, workdir)
        self._dense: dict = {}

    def rounds(self, rng):
        pts = list(SWEEP_POINTS)
        while True:
            rng.shuffle(pts)
            yield list(pts)

    def run(self, spec, tracer):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cli_command(sweep_argv(*spec)), capture_output=True,
                                  env=self.env, cwd=ROOT, timeout=SWEEP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, None, f"timeout after {SWEEP_TIMEOUT_S} s"
        return time.perf_counter() - t0, proc, None

    def check(self, spec, proc):
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-200:]}"
        try:
            got = json.loads(proc.stdout)
        except ValueError as exc:
            return f"stdout is not JSON: {exc}"
        want = self.expected["sweep-ladder"][" ".join(sweep_argv(*spec))]
        if got.get("classification") != want["classification"]:
            return f"classification {got.get('classification')}, recorded {want['classification']}"
        if got.get("N_list") != list(N_LADDER):
            return f"N_list {got.get('N_list')}"
        series = got.get("E_min_series", [])
        if len(series) != len(N_LADDER) or not all(
                close(a, b, SWEEP_REL_TOL) for a, b in zip(series, want["E_min_series"])):
            return f"E_min series {series} differs from recorded {want['E_min_series']}"
        if spec not in self._dense:
            k, g = spec
            self._dense[spec] = dense_lowest(k, float(g), N_LADDER[0], 1)[0]
        if not close(series[0], self._dense[spec], DENSE_REL_TOL):
            return f"E_min at N={N_LADDER[0]} {series[0]} vs dense {self._dense[spec]}"
        return None


WORKLOADS = {w.name: w for w in (ExactCli, ExactDeep, SweepLadder)}


def run_window(wl: Workload, rounds, seconds: float, tracer) -> list[Op]:
    """Start whole rounds until `seconds` of wall time have passed."""
    ops: list[Op] = []
    t0 = time.perf_counter()
    for rnd in rounds:
        if ops and time.perf_counter() - t0 >= seconds:
            break
        for spec in rnd:
            ops.append(wl.execute(spec, tracer))
    return ops
