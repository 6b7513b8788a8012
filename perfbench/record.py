"""Record the outputs the benchmark checks ops against, into expected.json.

    python3 perfbench/record.py

Run it from the repository root, and only when an output is meant to change:
the ROADMAP pins CLI output, verdict trace_ref hashes and symbolic renderings
byte for byte, so a mismatch in a benchmark run is a regression, not stale
data.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess

import workloads as W


def main() -> None:
    W.use_checkout_src()
    import kphoton
    from kphoton import cli

    exact = {}
    for argv in W.exact_pool():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        exact[" ".join(argv)] = W.sha256(buf.getvalue().encode())

    deep = {}
    for k in W.DEEP_KS:
        levels = kphoton.substitute_ansatz(kphoton.build_reduced_operator(k), k, W.DEEP_DEPTH)
        outcomes = []
        branches = kphoton.solve_levels(levels, k)
        for br in branches:
            try:
                ext = kphoton.c_recursion(br, levels, W.DEEP_N_MAX)
            except kphoton.UnsolvableLevel as exc:
                outcomes.append({"unsolvable": exc.level,
                                 "residual_sha256": W.sha256(exc.residual.encode())})
            else:
                outcomes.append({"ok": W.branch_digest(ext)})
        deep[str(k)] = {"branches": len(branches), "outcomes": outcomes}

    sweep = {}
    for k, g in W.SWEEP_POINTS:
        argv = W.sweep_argv(k, g)
        out = subprocess.run(W.cli_command(argv), capture_output=True, check=True,
                             env=W.child_env(), cwd=W.ROOT).stdout
        obj = json.loads(out)
        sweep[" ".join(argv)] = {"classification": obj["classification"],
                                 "E_min_series": obj["E_min_series"]}

    W.EXPECTED.write_text(json.dumps(
        {"exact-cli": exact, "exact-deep": deep, "sweep-ladder": sweep},
        indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
