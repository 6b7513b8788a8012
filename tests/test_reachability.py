"""The package ships only what its commands run.

A fixed traffic runs under sys.setprofile and threading.setprofile, which
also covers the threads a sweep starts: every subcommand in every format
at k = 3, 4, 5, verdict with --trace and --output, one coupling overflow read
through the package's lazy fock names, one ModelParams._replace that its
checks refuse, the binding of the verdict submodule
on the package that a first import makes, and
c_recursion on the rational-rho branches of k = 3 and k = 6 (whose
rho = -5/2 branches end in UnsolvableLevel at level 8), reading
ParamPoly.terms as the benchmark's size probes do.  Every module-level
function and method whose code object lives in a src/kphoton file must be
entered; a name that only the tests call belongs in tests/oracles.py.
The methods collections.namedtuple generates live on the records' base
classes and fall out.

Under the same traffic every record field and __slots__ entry declared in
src/kphoton must be read as an attribute; _replace and tuple unpacking do
not count: a value that nothing reads, or that its object can compute, is
not stored.
"""

import contextlib
import importlib
import inspect
import io
import pkgutil
import sys
import threading
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
    # a replaced record is checked as a new one is
    with pytest.raises(ValueError, match="coupling g must be nonnegative"):
        kphoton.ModelParams(2, 1, 1, 0)._replace(g=-1.0)
    # the binding a fresh process's first import of kphoton.verdict makes on
    # the package, which this process made before the traffic began
    vmod = importlib.import_module("kphoton.verdict")
    setattr(kphoton, "verdict", vmod)
    assert kphoton.verdict is vmod.verdict
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

    # threading's hook reaches the threads a sweep starts for its sizes,
    # which sys's, set on this thread only, does not
    previous, previous_threads = sys.getprofile(), threading.getprofile()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        _traffic(tmp_path)
    finally:
        sys.setprofile(previous)
        threading.setprofile(previous_threads)
    missing = sorted(name for code, name in codes.items() if code not in entered
                     and not name.endswith(ALLOWED_METHODS) and name not in ALLOWED)
    assert not missing, f"shipped but never run: {missing}"


def _stored():
    """{class: its record fields and __slots__ entries} for every class
    defined in a src/kphoton module."""
    out = {}
    for name in MODULES:
        for obj in vars(importlib.import_module(name)).values():
            if inspect.isclass(obj) and obj.__module__ == name:
                attrs = {*vars(obj).get("__slots__", ()), *getattr(obj, "_fields", ())}
                if attrs:
                    out[obj] = attrs
    return out


def test_every_field_is_read(tmp_path):
    _, caches = _shipped()
    for cache in caches:
        cache.cache_clear()     # a cached result would skip the reads that built it
    stored, read = _stored(), set()

    def recording(cls):
        get = cls.__getattribute__

        def getattribute(self, attr):
            if attr in stored[cls]:
                read.add(f"{cls.__qualname__}.{attr}")
            return get(self, attr)
        return getattribute

    with pytest.MonkeyPatch.context() as mp:
        for cls in stored:
            mp.setattr(cls, "__getattribute__", recording(cls))
        _traffic(tmp_path)
    never = sorted({f"{cls.__qualname__}.{attr}" for cls, attrs in stored.items()
                    for attr in attrs} - read)
    assert not never, f"stored but never read: {never}"
