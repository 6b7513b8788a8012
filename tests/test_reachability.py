"""The package ships only what its commands run.

A fixed traffic runs under sys.setprofile: every subcommand in every format
at k = 3, 4, 5, verdict with --trace and --output, one coupling overflow read
through the package's lazy fock names, and
c_recursion on the rational-rho branches of k = 3 and k = 6 (whose
rho = -5/2 branches end in UnsolvableLevel at level 8), reading
ParamPoly.terms as the benchmark's size probes do.  Every module-level
function and method whose code object lives in a src/kphoton file must be
entered; a name that only the tests call belongs in tests/oracles.py.
Dataclass-generated methods are compiled from "<string>" and fall out.
"""

import contextlib
import importlib
import inspect
import io
import pkgutil
import sys
from functools import cached_property
from pathlib import Path

import pytest

import kphoton
from kphoton import cli

PKG = Path(kphoton.__file__).resolve().parent
MODULES = ["kphoton"] + [f"kphoton.{m.name}" for m in pkgutil.iter_modules([str(PKG)])]
# kept without a caller: equality and repr are the tests' and the debugger's
# view of a value, and test_weyl asserts ParamPoly's hash agrees with ==
ALLOWED_METHODS = (".__repr__", ".__eq__")
ALLOWED = {"kphoton.weyl.ParamPoly.__hash__"}

FORMATS = {"coeffs": ("text", "csv", "json"), "ode": ("text", "csv", "json"),
           "exponents": ("text", "csv", "json"), "gf": ("text", "csv", "json"),
           "verdict": ("text", "json"), "sweep": ("csv", "json", "text"),
           "jc-exact": ("csv", "json", "text")}
ARGS = {"verdict": ["--omega", "5", "--delta", "1/2"],
        "sweep": ["--g", "0.1", "--N", "40,80,160"],
        "jc-exact": ["--g", "0.1", "--n-max", "3"]}


def _function(member):
    # the plain function behind a module or class member, else None
    if isinstance(member, (staticmethod, classmethod)):
        member = member.__func__
    if isinstance(member, property):
        member = member.fget
    if isinstance(member, cached_property):
        member = member.func
    member = getattr(member, "__wrapped__", member)     # lru_cache
    return member if inspect.isfunction(member) else None


def _shipped():
    """{code object: qualified name} and the package's memoizing caches."""
    codes, caches = {}, []
    for name in MODULES:
        for obj in vars(importlib.import_module(name)).values():
            for member in vars(obj).values() if inspect.isclass(obj) else [obj]:
                f = _function(member)
                if f and Path(f.__code__.co_filename).resolve().parent == PKG:
                    codes[f.__code__] = f"{f.__module__}.{f.__qualname__}"
                    if hasattr(member, "cache_clear"):
                        caches.append(member)
    return codes, caches


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _traffic(tmp_path):
    for k in ("3", "4", "5"):
        for cmd, formats in FORMATS.items():
            for fmt in formats:
                code = _run([cmd, "--k", k, *ARGS.get(cmd, []), "--format", fmt])
                assert code == (2 if cmd == "gf" and k != "5" else 0), (cmd, k, fmt)
    assert _run(["verdict", "--k", "3", "--omega", "1", "--delta", "0",
                 "--trace", str(tmp_path / "trace.json"),
                 "--output", str(tmp_path / "verdict.txt")]) == 0
    # the fock names load lazily through the package, as a library user meets them
    with pytest.raises(ValueError, match="not a finite double"):
        kphoton.build_hkp(kphoton.ModelParams(400, 0.1, 1.0, 0.0), 500)
    for k, depth, n_max in ((3, 9, 4), (6, 12, 7)):
        levels = kphoton.substitute_ansatz(kphoton.build_reduced_operator(k), k, depth)
        for br in kphoton.solve_levels(levels, k):
            try:
                ext = kphoton.c_recursion(br, levels, n_max)
            except kphoton.UnsolvableLevel as exc:
                assert (k, exc.level) == (6, 8)
                continue
            assert sum(len(p.terms) for c in ext.c for p in c.terms.values())


def test_every_shipped_function_runs(tmp_path):
    codes, caches = _shipped()
    for cache in caches:
        cache.cache_clear()     # a warm cache would skip the function it wraps
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _traffic(tmp_path)
    finally:
        sys.setprofile(previous)
    missing = sorted(name for code, name in codes.items() if code not in entered
                     and not name.endswith(ALLOWED_METHODS) and name not in ALLOWED)
    assert not missing, f"shipped but never run: {missing}"
