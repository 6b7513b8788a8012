"""kphoton benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload exact-cli --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported or launched from its
src/ directory.  --trace 0 measures the end-to-end metrics with tracing off;
--trace 1 runs the per-layer probes and replays the start of the workload
untraced and then traced, to report self time per layer and the tracing
overhead.  The last line of stdout is the JSON result; the lines before it
are the same numbers for a reader, plus the run metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata as md
from pathlib import Path

import metrics as M
import workloads as W
from probes import LAYERS, Probe, per_layer_units

SETUP_REPS = 7
WORK = Path(__file__).resolve().parent / "_work"
OUT = Path(__file__).resolve().parent / "_out"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes
    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def _commit():
    if not (W.ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=W.ROOT, capture_output=True,
                              text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(W.SRC.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(W.SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _version(dist: str) -> str:
    try:
        return md.version(dist)
    except md.PackageNotFoundError:
        return "absent"


def run_metadata(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cpu_model": _cpu_model(), "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"), "blas_threads": _blas_threads(),
        "RABI_THREADS": os.environ.get("RABI_THREADS", "unset"),
        "rabi_threads_effective": os.cpu_count() or 1,
        "commit": _commit(), "src_sha256": _src_digest(),
    }


def end_to_end(wl, args, rng) -> tuple[dict, list, dict]:
    setup = [W.time_import(wl.entry, wl.env) for _ in range(SETUP_REPS)]
    wl.prepare()
    ops = W.run_window(wl, wl.rounds(rng), args.seconds, M.NullTracer())
    peak = wl.peak_rss_mb()
    walls = [op.wall for op in ops]
    tail, pct, beyond = M.tail(walls)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_tail_s": (tail, "s"),
        "ops_per_s": (len(ops) / sum(walls), "1/s"),
        "peak_rss_mb": (peak, "MB"),
    }
    failed = sum(op.error is not None for op in ops)
    extra = {"op_tail_percentile": pct, "op_tail_samples_beyond": beyond,
             "op_samples": len(ops), "op_walls_s": [round(w, 4) for w in walls],
             "fail_ratio": M.fail_ratio(failed, len(ops)),
             "setup_samples_s": setup}
    if isinstance(wl, W.ExactDeep):
        extra["annihilation_checked"] = wl.annihilation_checked
        extra["annihilation_unavailable"] = wl.annihilation_unavailable
    return metrics, ops, extra


def traced(wl, args, rng) -> tuple[dict, list, dict]:
    W.use_checkout_src()
    tracer = M.Tracer()
    probe = Probe(tracer, wl.env, wl.expected)
    with tracer.span("bench.probe"):
        probe.verdict()          # first: verdict's cold call must be the first one
        probe.startup_and_cli()
        probe.exact()
        probe.fock()
    wl.prepare()
    # replay: the first ops of the seed's sequence, each run untraced and
    # traced back to back; which pass goes first alternates per op, and at
    # least two ops run so that neither pass always goes first
    budget = args.seconds / 4
    specs, ops, walls = [], [], {False: 0.0, True: 0.0}
    for spec in itertools.chain.from_iterable(wl.rounds(rng)):
        if len(specs) >= 2 and walls[False] >= budget:
            break
        specs.append(spec)
        for traced_pass in ((False, True) if len(specs) % 2 else (True, False)):
            op = wl.execute(spec, tracer if traced_pass else M.NullTracer())
            ops.append(op)
            walls[traced_pass] += op.wall
    m = probe.metrics
    selfs = M.self_times(tracer.spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    m["trace.untraced_wall_s"] = walls[False]
    m["trace.traced_wall_s"] = walls[True]
    m["trace.overhead_ratio"] = walls[True] / walls[False]
    units = per_layer_units()
    for name in units:
        if name not in m:
            m[name] = -1
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps(tracer.spans) + "\n")
    extra = {"missing": sorted(set(probe.missing)), "probe_errors": probe.errors,
             "probe_checks": probe.checks, "replay_ops": len(specs),
             "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(W.ROOT))}
    return {name: (m[name], unit) for name, unit in units.items()}, ops, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (W.SRC / "kphoton" / "__init__.py").is_file() or not W.EXPECTED.is_file():
        print(f"perfbench: no kphoton sources under {W.SRC} (or no {W.EXPECTED.name}); "
              "run from the root of a kphoton checkout", file=sys.stderr)
        return 2
    expected = json.loads(W.EXPECTED.read_text())
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        wl = W.WORKLOADS[args.workload](expected, workdir)
        rng = random.Random(args.seed)
        metrics, ops, extra = (traced if args.trace else end_to_end)(wl, args, rng)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(op.error is not None for op in ops) + len(extra.get("probe_errors", ()))
    attempted = len(ops) + extra.get("probe_checks", 0)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:>14.6g} {unit}")
    if "op_tail_percentile" in extra:
        print(f"  op_tail_s is the p{extra['op_tail_percentile']:.4g} of {extra['op_samples']} "
              f"ops ({extra['op_tail_samples_beyond']} above it)")
    print(f"  fail_ratio {M.fail_ratio(failed, attempted):.6g} "
          f"({failed} of {attempted} ops and checks failed)")
    for op in ops:
        if op.error is not None:
            print(f"  FAILED {op.spec}: {op.error}")
    for err in extra.get("probe_errors", ()):
        print(f"  FAILED probe check: {err}")
    print("meta " + json.dumps(run_metadata(args) | extra, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
