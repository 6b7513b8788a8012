"""Fresh-interpreter probe for the traced run; prints one JSON line.

    python3 perfbench/child.py import MODULE
        in-process time to import MODULE and how many modules it loaded
    python3 perfbench/child.py main ARGV...
        import kphoton.cli, then time cli.main(ARGV) with stdout captured;
        also reports whether scipy got loaded on the way

Run with the checkout's src on PYTHONPATH.
"""

import contextlib
import hashlib
import importlib
import io
import json
import sys
import time


def main() -> None:
    mode, args = sys.argv[1], sys.argv[2:]
    before = len(sys.modules)
    t0 = time.perf_counter()
    if mode == "import":
        importlib.import_module(args[0])
        out = {"import_s": time.perf_counter() - t0,
               "modules_loaded": len(sys.modules) - before}
    elif mode == "main":
        cli = importlib.import_module("kphoton.cli")
        t1 = time.perf_counter()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(args)
        out = {"import_s": t1 - t0, "main_s": time.perf_counter() - t1, "exit": code,
               "stdout_sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest(),
               "scipy_loaded": int("scipy" in sys.modules)}
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
