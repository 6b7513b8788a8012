"""Truncated-matrix builds, exact oracles, convergence classification."""

import itertools
import json
import math
import subprocess
import sys
import threading
from collections import Counter
from importlib import resources

import jsonschema
import numpy as np
import pytest
from scipy.linalg import eigh

from kphoton import fock
from kphoton.fock import (
    Classification,
    ModelParams,
    SpectrumSweep,
    build_hkp,
    classify_convergence,
    convergence_sweep,
    jck_exact_spectrum,
    lowest_eigenvalues,
    sweep_csv,
    sweep_summary,
)
from oracles import build_jck, dense, displaced_oscillator_oracle, numpy_chains, stebz_reference


class TestModelParams:
    def test_coerces_to_float(self):
        p = ModelParams(2, 1, 1, 0)
        assert isinstance(p.g, float) and isinstance(p.delta, float)

    @pytest.mark.parametrize("bad", [
        dict(k=0, g=1, omega=1, delta=0),
        dict(k=2.0, g=1, omega=1, delta=0),
        dict(k=2, g=-0.1, omega=1, delta=0),
        dict(k=2, g=1, omega=0, delta=0),
        dict(k=2, g=1, omega=-1, delta=0),
        dict(k=2, g=float("nan"), omega=1, delta=0),
        dict(k=2, g=1, omega=1, delta=float("inf")),
        dict(k=True, g=1, omega=1, delta=0),
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            ModelParams(**bad)

    def test_fields_are_read_only(self):
        p = ModelParams(2, 1, 1, 0)
        sweep = SpectrumSweep(p, (10, 20, 30), ((0.0, 1.0),) * 3, 1e-6)
        for obj, field in ((p, "g"), (sweep, "tol")):
            with pytest.raises(AttributeError):
                setattr(obj, field, 2.0)

    def test_replace_and_make_validate(self):
        p = ModelParams(2, 1, 1, 0)
        assert p._replace(omega=2) == ModelParams(2, 1.0, 2.0, 0.0)
        assert isinstance(ModelParams._make((3, 1, 1, 0)).g, float)
        with pytest.raises(ValueError, match="coupling g must be nonnegative"):
            p._replace(g=-1.0)
        with pytest.raises(ValueError, match="omega must be positive"):
            ModelParams._make((2, 1, 0, 0))


def _dense_hkp(p, N):
    """The truncated sx-coupled H written out from the fock docstring:
    index 2n+s, diagonal w*n -+ d, <n-k, 1-s|H|n, s> = g*sqrt(n!/(n-k)!)."""
    H = np.zeros((2 * N, 2 * N))
    for n in range(N):
        H[2 * n, 2 * n] = p.omega * n - p.delta
        H[2 * n + 1, 2 * n + 1] = p.omega * n + p.delta
        if n >= p.k:
            w = p.g * math.prod(math.sqrt(n - t) for t in range(p.k))
            for s in (0, 1):
                i, j = 2 * (n - p.k) + 1 - s, 2 * n + s
                H[i, j] = H[j, i] = w
    return H


class TestBuildHkp:
    def test_free_field_diagonal(self):
        p = ModelParams(1, 0, 1.0, 0)
        H = dense(build_hkp(p, 4))
        assert np.array_equal(H, np.diag([0, 0, 1, 1, 2, 2, 3, 3]))

    def test_k2_matrix_element(self):
        # <0,down| H |2,up> = g*sqrt(2!/0!)
        p = ModelParams(2, 0.7, 1.0, 0.3)
        m = build_hkp(p, 3)
        assert dense(m)[0, 5] == pytest.approx(0.7 * math.sqrt(2), rel=1e-15)
        assert dense(m)[1, 4] == pytest.approx(0.7 * math.sqrt(2), rel=1e-15)

    def test_diagonal_splitting(self):
        p = ModelParams(3, 0.2, 2.0, 0.5)
        m = build_hkp(p, 5)
        assert dense(m)[4, 4] == 2.0 * 2 - 0.5    # |2,down>
        assert dense(m)[5, 5] == 2.0 * 2 + 0.5    # |2,up>

    def test_exactly_symmetric(self):
        H = dense(build_hkp(ModelParams(3, 0.9, 1.0, 0.4), 30))
        assert np.max(np.abs(H - H.T)) == 0.0

    @pytest.mark.parametrize("k", range(1, 7))
    def test_chains_are_T_eigenspaces(self, k):
        # T = exp(i pi a'a/k) sz has eigenvalue exp(i pi (n + k(1-s))/k) on
        # |n,s>: constant along each chain, one of its 2k values per chain
        for N in (k + 1, 2 * k + 1, 60):
            chains = build_hkp(ModelParams(k, 0.5, 1.0, 0.1), N)
            assert len(chains) == 2 * k
            idx = np.concatenate([c[0] for c in chains])
            assert np.array_equal(np.sort(idx), np.arange(2 * N))
            labels = set()
            for c in chains:
                n, s = np.divmod(c[0], 2)
                label = (n + k * (1 - s)) % (2 * k)
                assert np.all(label == label[0])
                labels.add(int(label[0]))
            assert labels == set(range(2 * k))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_to_dense_is_the_docstring_matrix(self, k):
        for g in (0.0, 0.05, 0.3, 1.0):
            for N in (k + 1, 2 * k + 3, 60):
                p = ModelParams(k, g, 1.3, 0.4)
                assert np.array_equal(dense(build_hkp(p, N)), _dense_hkp(p, N))

    def test_coupling_overflow_rejected(self):
        # g*sqrt(n!/(n-k)!) leaves the doubles at k=400 already for n=k
        with pytest.raises(ValueError, match=r"k=400, n=400\b"):
            build_hkp(ModelParams(400, 0.1, 1.0, 0.0), 500)
        # mid-chain: the first n whose coupling passes the largest double
        limit = math.log(sys.float_info.max)
        first = next(n for n in range(200, 5000)
                     if sum(math.log(n - t) for t in range(200)) / 2 > limit)
        with pytest.raises(ValueError, match=rf"k=200, n={first}\b"):
            build_hkp(ModelParams(200, 1.0, 1.0, 0.0), 5000)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_bytes_match_the_numpy_build(self, k):
        # the same IEEE operations in the same order: equal bytes, chain by chain
        for g in (0.0, 0.05, 1.0):
            for delta in (0.0, -0.0, 0.5, -0.5):
                p = ModelParams(k, g, 1.0, delta)
                for N in sorted({k + 1, k + 2, 37, 1000, 8000}):
                    got, want = build_hkp(p, N), numpy_chains(p, N)
                    assert len(got) == len(want) == 2 * k
                    for chain, ref in zip(got, want):
                        assert [a.tobytes() for a in chain] == [a.tobytes() for a in ref]

    @pytest.mark.parametrize("k, g, omega, delta, N", [
        (400, 0.1, 1.0, 0.0, 500), (200, 1.0, 1.0, 0.0, 5000),
        (1, 0.1, 1e308, 1e308, 5), (1, 0.1, 1e308, 0.0, 5), (2, 0.1, 5e307, 1.5e308, 6)])
    def test_refusals_match_the_numpy_build(self, k, g, omega, delta, N):
        p = ModelParams(k, g, omega, delta)
        with pytest.raises(ValueError) as want:
            numpy_chains(p, N)
        with pytest.raises(ValueError) as got:
            build_hkp(p, N)
        assert str(got.value) == str(want.value)

    def test_zero_coupling_at_large_k(self):
        # sqrt(n!/(n-k)!) is past the largest double here, but g = 0 zeroes it
        chains = build_hkp(ModelParams(400, 0.0, 1.0, 0.0), 500)
        assert all(np.all(np.asarray(off) == 0) for _, _, off in chains)

    def test_rejects_small_truncation(self):
        with pytest.raises(ValueError):
            build_hkp(ModelParams(3, 1, 1, 0), 3)


class TestBuildJck:
    def test_g_zero_is_diagonal(self):
        H = dense(build_jck(ModelParams(2, 0, 1.0, 0.3), 4))
        assert np.array_equal(H, np.diag(np.diag(H)))

    def test_coupling_overflow_rejected(self):
        p = ModelParams(400, 0.1, 1.0, 0.0)
        for build in (lambda: build_jck(p, 500), lambda: jck_exact_spectrum(p, 3)):
            with pytest.raises(ValueError, match=r"k=400, n=400\b"):
                build()

    def test_block_entries(self):
        # n=0 block at k=2: states |2,down>, |0,up>; diag (2, 0), off 0.1*sqrt(2)
        m = build_jck(ModelParams(2, 0.1, 1.0, 0), 5)
        assert dense(m)[4, 4] == 2.0
        assert dense(m)[1, 1] == 0.0
        assert dense(m)[1, 4] == pytest.approx(0.1 * math.sqrt(2), rel=1e-15)
        # spin-down coupling of the sx model is absent here
        assert dense(m)[0, 5] == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_census_is_exact(self, k):
        # truncated spectrum = complete blocks + k uncoupled spin-down levels
        # + k spin-up orphans whose partner fell outside the truncation
        p = ModelParams(k, 0.7, 1.0, 0.3)
        N = 20
        trunc = lowest_eigenvalues(build_jck(p, N), 2 * N)
        expect = jck_exact_spectrum(p, N - k - 1)
        expect += [p.omega * n + p.delta for n in range(N - k, N)]
        assert len(trunc) == len(expect) == 2 * N
        assert np.allclose(sorted(trunc), sorted(expect), rtol=1e-12, atol=1e-12)


class TestJcExact:
    def test_k2_closed_form(self):
        vals = jck_exact_spectrum(ModelParams(2, 0.1, 1.0, 0), 0)
        root = math.sqrt(1 + 0.02)
        # n=0 block pair plus the uncoupled spin-down levels w*0 and w*1
        assert vals == pytest.approx(sorted([0.0, 1.0, 1 - root, 1 + root]), abs=1e-15)

    def test_g_zero_spectrum(self):
        p = ModelParams(2, 0, 1.0, 0.25)
        vals = jck_exact_spectrum(p, 3)
        expect = sorted([p.omega * n - p.delta for n in range(2)]
                        + [p.omega * (n + 2) - p.delta for n in range(4)]
                        + [p.omega * n + p.delta for n in range(4)])
        assert vals == pytest.approx(expect, abs=1e-15)

    def test_block_eigenvalue_identity(self):
        # raising n_max to n adds block n's pair: its sum and product are the
        # trace and determinant of build_jck's chain over {|n+k,down>, |n,up>}
        p = ModelParams(3, 0.4, 1.0, 0.2)
        blocks = {int(idx[1]) // 2: (diag, off[0])
                  for idx, diag, off in build_jck(p, 10) if len(idx) == 2}
        below = [p.omega * n - p.delta for n in range(p.k)]
        for n in range(7):
            spectrum = jck_exact_spectrum(p, n)
            lo, hi = sorted((Counter(spectrum) - Counter(below)).elements())
            (down, up), off = blocks[n]
            assert lo + hi == pytest.approx(down + up, rel=1e-14)
            assert lo * hi == pytest.approx(down * up - off ** 2, rel=1e-12)
            below = spectrum

    def test_sorted_and_sized(self):
        vals = jck_exact_spectrum(ModelParams(3, 0.5, 1.0, 0.1), 7)
        assert vals == sorted(vals)
        assert len(vals) == 2 * 8 + 3


class TestLowestEigenvalues:
    def test_diagonal(self):
        m = [((i,), (v,), ()) for i, v in enumerate([3.0, -1.0, 4.0, 1.0, 5.0])]
        assert lowest_eigenvalues(m, 3) == pytest.approx([-1.0, 1.0, 3.0])

    def test_two_by_two(self):
        m = [((1, 0), (2.0, 0.0), (0.5,))]
        r = math.hypot(1.0, 0.5)
        assert lowest_eigenvalues(m, 2) == pytest.approx([1 - r, 1 + r], rel=1e-14)
        assert dense(m)[0, 1] == dense(m)[1, 0] == 0.5

    @staticmethod
    def _random_chains():
        # random chains over a shuffled basis, merged across chain boundaries
        rng = np.random.default_rng(20260814)
        dim = 200
        cuts = np.sort(rng.choice(np.arange(1, dim), size=7, replace=False))
        return [(idx, rng.standard_normal(len(idx)), rng.standard_normal(len(idx) - 1))
                for idx in np.split(rng.permutation(dim), cuts)]

    def test_against_dense_reference(self):
        chains = self._random_chains()
        H = dense(chains)
        assert np.max(np.abs(H - H.T)) == 0.0
        dense_vals = eigh(H, eigvals_only=True)
        got = lowest_eigenvalues(chains, 12)
        scale = max(1.0, float(np.max(np.abs(dense_vals))))
        assert np.allclose(got, dense_vals[:12], rtol=1e-10, atol=1e-10 * scale)

    def test_rejects_bad_count(self):
        m = [((0, 1, 2), (0.0, 0.0, 0.0), (1.0, 1.0))]
        for bad in (0, 4):
            with pytest.raises(ValueError):
                lowest_eigenvalues(m, bad)

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_bit_identical_to_stebz_reference(self, k, delta):
        # exact equality with scipy.linalg.eigvalsh_tridiagonal, chain by
        # chain: N = k+1 leaves chains of length 1 for k >= 2, and delta = 0
        # makes the chains (r, 0) and (r, 1) equal
        for g in (0.0, 0.05, 0.5):
            for N in (k + 1, 17, 400):
                chains = build_hkp(ModelParams(k, g, 1.0, delta), N)
                for m in sorted({1, min(10, 2 * N), 2 * N}):
                    assert lowest_eigenvalues(chains, m) == stebz_reference(chains, m)

    def test_bit_identical_to_stebz_reference_large_and_random(self):
        for delta in (0.0, 0.5):
            chains = build_hkp(ModelParams(3, 0.1, 1.0, delta), 8000)
            assert lowest_eigenvalues(chains, 10) == stebz_reference(chains, 10)
        chains = self._random_chains()
        for m in (1, 12, 200):
            assert lowest_eigenvalues(chains, m) == stebz_reference(chains, m)

    @pytest.mark.parametrize("delta, solved", [(0.0, [17, 17, 16]),
                                               (0.5, [17, 17, 17, 17, 16, 16])])
    def test_each_distinct_chain_solved_once(self, monkeypatch, delta, solved):
        # the lengths of the chains handed to stebz, in (r, s) order
        stebz, calls = fock._dstebz(), []

        def counting(*args):
            calls.append(len(args[8]))      # D, the chain's diagonal
            return stebz(*args)
        monkeypatch.setattr(fock, "_dstebz", lambda: counting)
        chains = build_hkp(ModelParams(3, 0.2, 1.0, delta), 50)
        assert lowest_eigenvalues(chains, 10) == stebz_reference(chains, 10)
        assert calls == solved

    @pytest.mark.parametrize("entry", ["diag", "off"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, entry, bad):
        diag, off = [0.0, 1.0, 2.0], [0.5, 0.5]
        {"diag": diag, "off": off}[entry][1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            lowest_eigenvalues([((0, 1, 2), diag, off)], 2)

    def test_lapack_failure_names_the_chain_length(self, monkeypatch):
        def failing(*args):
            if args[2]._obj.value == 3:     # N: the 1x1 chain goes through
                args[17]._obj.value = 4     # INFO
        monkeypatch.setattr(fock, "_dstebz", lambda: failing)
        chains = [((0,), (1.0,), ()), ((1, 2, 3), (0.0, 1.0, 2.0), (0.5, 0.5))]
        with pytest.raises(RuntimeError, match="eigensolver failed on a chain of length 3"):
            lowest_eigenvalues(chains, 2)

    @pytest.mark.parametrize("diag, off", [
        ((0.0, 1.0, 2.0), (0.5,)),
        ((0.0, 1.0, 2.0), (0.5, 0.5, 0.5)),
        ((), ()),
    ], ids=["off-short", "off-long", "empty"])
    def test_malformed_chain_refused_before_lapack(self, monkeypatch, diag, off):
        # dstebz reads n - 1 couplings and writes 4n doubles of work: a
        # mismatched chain must not reach it, even after a well-formed one
        calls = []
        monkeypatch.setattr(fock, "_dstebz", lambda: lambda *args: calls.append(args))
        chains = [((0, 1), (0.0, 1.0), (0.5,)), ((2, 3, 4), diag, off)]
        with pytest.raises(ValueError, match="a chain needs n >= 1 diagonal entries"):
            lowest_eigenvalues(chains, 2)
        assert calls == []


class TestChainsAgainstDense:
    """Every eigenvalue of the chain solve against dense eigh of the docstring matrix."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_full_spectrum(self, k):
        for g in (0.0, 0.05, 0.3, 1.0):
            for N in (k + 1, k + 2, 2 * k + 3, 31, 60):
                p = ModelParams(k, g, 1.0, 0.3)
                dense_vals = eigh(_dense_hkp(p, N), eigvals_only=True)
                norm = float(np.max(np.abs(dense_vals)))
                got = lowest_eigenvalues(build_hkp(p, N), 2 * N)
                assert np.max(np.abs(np.array(got) - dense_vals)) <= 64 * np.finfo(float).eps * norm


def _sturm_count(chains, x):
    """Eigenvalues below x of the chains (diag, squared couplings)."""
    count = 0
    for d, e2 in chains:
        q = d[0] - x
        count += q < 0
        for dj, ej2 in zip(d[1:], e2):
            q = dj - x - ej2 / q
            count += q < 0
    return count


class TestGroundEnergyOracle:
    """E_min against a 50-digit Sturm-count bisection on the exact chains.

    The chain entries are recomputed from the docstring formula in mpmath,
    the couplings squared exactly as g^2 n!/(n-k)!.  stebz at its default
    tolerance (eps*||T||) misses these cases by 30-700 times the bound.
    """

    @pytest.mark.parametrize("k,g,delta,N", [
        (1, 1.0, 0.0, 1000),        # displaced oscillator: exactly -1
        (2, 0.3, 0.0, 1000),
        (2, 0.5, 0.0, 1000),
        (2, 0.4, 0.2, 800),
    ])
    def test_e_min(self, k, g, delta, N):
        mpmath = pytest.importorskip("mpmath")
        p = ModelParams(k, g, 1.0, delta)
        chains = build_hkp(p, N)
        got = lowest_eigenvalues(chains, 1)[0]
        with mpmath.workdps(50):
            g2, w, d = mpmath.mpf(g) ** 2, mpmath.mpf(p.omega), mpmath.mpf(delta)
            exact = []
            for idx, _, _ in chains:
                n, s = np.divmod(idx, 2)
                assert np.all(np.diff(n) == k) and np.all(s[1:] != s[:-1])
                exact.append(([w * int(nj) + (2 * int(sj) - 1) * d for nj, sj in zip(n, s)],
                              [g2 * math.prod(int(nj) - t for t in range(k)) for nj in n[1:]]))
            half = mpmath.mpf(1e-9) * max(1, abs(got))
            lo, hi = got - half, got + half
            assert _sturm_count(exact, lo) == 0 and _sturm_count(exact, hi) >= 1
            while hi - lo > mpmath.mpf(10) ** -24 * abs(hi):
                mid = (lo + hi) / 2
                if _sturm_count(exact, mid) >= 1:
                    hi = mid
                else:
                    lo = mid
            if k == 1 and delta == 0:
                assert abs(hi + g * g) < mpmath.mpf(10) ** -22
            assert abs(got - hi) <= 1e-15 * abs(hi)


class TestDisplacedOscillator:
    def test_shifted_ladder(self):
        assert displaced_oscillator_oracle(1.0, 1.0, 5) == [-1.0, -1.0, 0.0, 0.0, 1.0]

    def test_g_zero(self):
        assert displaced_oscillator_oracle(0.0, 0.5, 4) == [0.0, 0.0, 0.5, 0.5]

    def test_truncated_numerics_match(self):
        p = ModelParams(1, 1.0, 1.0, 0.0)
        got = lowest_eigenvalues(build_hkp(p, 200), 10)
        assert np.allclose(got, displaced_oscillator_oracle(1.0, 1.0, 10),
                           rtol=0, atol=1e-8)

    def test_rejects_bad_omega(self):
        with pytest.raises(ValueError):
            displaced_oscillator_oracle(1.0, 0.0, 3)


class TestVariationalMonotonicity:
    @pytest.mark.parametrize("params", [
        ModelParams(1, 1.0, 1.0, 0.3),
        ModelParams(2, 0.4, 1.0, 0.2),
        ModelParams(3, 0.3, 1.0, 0.2),
    ])
    def test_ground_energy_non_increasing(self, params):
        vals = [lowest_eigenvalues(build_hkp(params, N), 1)[0]
                for N in (40, 80, 160)]
        assert vals[1] <= vals[0] + 1e-10
        assert vals[2] <= vals[1] + 1e-10


def _synthetic(rows, tol=1e-6):
    return SpectrumSweep(ModelParams(1, 1, 1, 0),
                         tuple(range(10, 10 + 10 * len(rows), 10)),
                         tuple(tuple(r) for r in rows), tol)


class TestClassify:
    def test_synthetic_convergent(self):
        rows = [(-1 - 2.0 ** -n, -2.0 ** -n) for n in (10, 20, 30)]
        assert classify_convergence(_synthetic(rows)) is Classification.Convergent

    def test_synthetic_divergent(self):
        rows = [(-float(n), -float(n) + 1) for n in (10, 20, 30)]
        assert classify_convergence(_synthetic(rows)) is Classification.Divergent

    def test_synthetic_collapse(self):
        # m lowest pack together while the bottom stays put
        rows = [(-1.0, -1.0 + s, -1.0 + 2 * s) for s in (1.0, 0.05, 0.01)]
        assert classify_convergence(_synthetic(rows)) is Classification.Collapse

    def test_synthetic_inconclusive(self):
        rows = [(-1.0, 0.0), (-2.0, -1.0), (-1.5, -0.5)]
        assert classify_convergence(_synthetic(rows)) is Classification.Inconclusive

    def test_needs_three_sizes(self):
        sweep = _synthetic([(-1.0, 0.0), (-1.0, 0.0)])
        with pytest.raises(ValueError):
            classify_convergence(sweep)

    def test_needs_two_eigenvalues_per_row(self):
        sweep = _synthetic([(-1.0,), (-1.0,), (-1.0,)])
        with pytest.raises(ValueError, match="need m >= 2 for gap statistics"):
            classify_convergence(sweep)

    def test_sweep_tol_is_the_default(self):
        # final E_min gap 9e-4: settled under the sweep's tol = 1e-3 only
        sweep = _synthetic([(-1.01, 0.0), (-1.001, 0.0), (-1.0001, 0.0)], tol=1e-3)
        assert classify_convergence(sweep) is Classification.Convergent
        assert classify_convergence(sweep, sweep.tol) is Classification.Convergent
        assert classify_convergence(sweep, 1e-6) is Classification.Inconclusive

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_tol_rejected(self, tol):
        sweep = _synthetic([(-1.01, 0.0), (-1.001, 0.0), (-1.0001, 0.0)])
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            classify_convergence(sweep, tol)

    def test_sweep_collapse_factor_is_used(self, monkeypatch):
        # the mean spacing shrinks by 5: a collapse only under a factor <= 5
        rows = [(-1.0, -1.0 + s, -1.0 + 2 * s) for s in (1.0, 0.5, 0.2)]
        sweep = _synthetic(rows)
        assert classify_convergence(sweep) is not Classification.Collapse
        monkeypatch.setattr(fock, "_COLLAPSE_FACTOR", 5.0)
        assert classify_convergence(sweep) is Classification.Collapse


class TestConvergenceSweep:
    def test_k1_converges(self):
        sweep = convergence_sweep(ModelParams(1, 1.0, 1.0, 0.0),
                                  [50, 100, 200], m=4)
        assert sweep.classification is Classification.Convergent
        assert sweep.eigenvalues[-1][0] == pytest.approx(-1.0, abs=1e-8)

    def test_validation(self):
        p = ModelParams(1, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            convergence_sweep(p, [50, 100], m=4)
        with pytest.raises(ValueError):
            convergence_sweep(p, [50, 100, 100], m=4)
        with pytest.raises(ValueError):
            convergence_sweep(p, [50, 100, 200], m=1)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_tol_rejected(self, tol):
        # checked before the sizes, so a bad tol is named even when they are bad too
        p = ModelParams(3, 0.1, 1.0, 0.0)
        for sizes in ([100, 200, 400], [100, 200]):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                convergence_sweep(p, sizes, tol=tol)


def _cpus(monkeypatch, n):
    # the CPUs the sweep sees, whether or not the platform has sched_getaffinity
    monkeypatch.setattr(fock.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _hex_rows(rows):
    return [[v.hex() for v in row] for row in rows]


def _serial_rows(p, sizes, m):
    return _hex_rows(lowest_eigenvalues(build_hkp(p, N), m) for N in sizes)


class TestParallelSweep:
    """convergence_sweep solves its sizes on threads; the rows are the serial loop's."""

    SIZES = ((6, 7, 8), (20, 40, 80), (50, 100, 200, 400), (10, 11, 30, 31, 90))

    def test_bit_identical_to_the_serial_loop(self, monkeypatch):
        _cpus(monkeypatch, 4)
        cases = list(itertools.product(range(1, 6), (0.0, 0.05, 0.3, 1.0),
                                       (0.0, 0.5, -0.25), self.SIZES))
        assert len(cases) == 240
        for k, g, delta, sizes in cases:
            p = ModelParams(k, g, 1.0, delta)
            sweep = convergence_sweep(p, sizes, m=10)
            assert sweep.N_list == sizes
            assert _hex_rows(sweep.eigenvalues) == _serial_rows(p, sizes, 10), (k, g, delta, sizes)

    @pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "cpu-count"])
    def test_one_cpu_starts_no_thread(self, monkeypatch, affinity):
        if affinity:
            _cpus(monkeypatch, 1)
        else:   # a platform without sched_getaffinity
            monkeypatch.delattr(fock.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(fock.os, "cpu_count", lambda: None)

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")
        monkeypatch.setattr(fock.threading, "Thread", no_thread)
        p = ModelParams(3, 0.1, 1.0, 0.5)
        sweep = convergence_sweep(p, (100, 200, 400), m=5)
        assert _hex_rows(sweep.eigenvalues) == _serial_rows(p, (100, 200, 400), 5)

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_first_failing_size_in_N_order_is_raised(self, monkeypatch, cpus):
        _cpus(monkeypatch, cpus)
        sizes, built = (20, 40, 60, 80, 100), []
        build = fock.build_hkp

        def failing(params, N):
            built.append(N)
            if N in (40, 80):
                raise ValueError(f"refused N={N}")
            return build(params, N)
        monkeypatch.setattr(fock, "build_hkp", failing)
        before = threading.active_count()
        with pytest.raises(ValueError, match="^refused N=40$"):
            convergence_sweep(ModelParams(2, 0.3, 1.0, 0.0), sizes)
        assert sorted(built) == list(sizes)     # every size was attempted
        assert threading.active_count() == before

    def test_too_small_a_first_size_is_refused_before_solving(self, monkeypatch):
        # the larger sizes would take seconds; the serial loop never built them
        built = []
        monkeypatch.setattr(fock, "build_hkp", lambda params, N: built.append(N))
        with pytest.raises(ValueError, match=r"^need N > k, got N=2, k=3$"):
            convergence_sweep(ModelParams(3, 0.1, 1.0, 0.0), (2, 10, 10**6))
        assert built == []

    def test_too_large_an_m_is_refused_before_solving(self, monkeypatch):
        # lowest_eigenvalues' refusal at the first size, which is 2N = 4 wide
        built = []
        monkeypatch.setattr(fock, "build_hkp", lambda params, N: built.append(N))
        with pytest.raises(ValueError, match=r"^need 1 <= m <= 4, got 10$"):
            convergence_sweep(ModelParams(1, 0.1, 1.0, 0.0), (2, 3, 10**6), m=10)
        assert built == []
        with pytest.raises(ValueError, match=r"^need 1 <= m <= 4, got 10$"):
            lowest_eigenvalues(build_hkp(ModelParams(1, 0.1, 1.0, 0.0), 2), 10)

    def test_each_size_solved_once_under_contention(self, monkeypatch):
        # more threads than cores, switching as often as the interpreter allows
        _cpus(monkeypatch, 8)
        sizes, built = tuple(range(20, 260, 20)), []
        build = fock.build_hkp

        def counting(params, N):
            built.append(N)
            return build(params, N)
        monkeypatch.setattr(fock, "build_hkp", counting)
        p = ModelParams(3, 0.2, 1.0, 0.5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sweep = convergence_sweep(p, sizes, m=4)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(built) == list(sizes)
        assert _hex_rows(sweep.eigenvalues) == _serial_rows(p, sizes, 4)


class TestEmitters:
    def _sweep(self):
        return convergence_sweep(ModelParams(1, 1.0, 1.0, 0.0), [20, 40, 60], m=3)

    def test_csv_shape(self):
        sweep = self._sweep()
        lines = sweep_csv(sweep).splitlines()
        assert lines[0] == "k,g,omega,delta,N,index,eigenvalue"
        assert len(lines) == 1 + 3 * 3
        first = lines[1].split(",")
        assert first[:6] == ["1", "1", "1", "0", "20", "0"]
        assert float(first[6]) == sweep.eigenvalues[0][0]

    def test_csv_roundtrip_precision(self):
        sweep = self._sweep()
        for line, expect in zip(sweep_csv(sweep).splitlines()[1:],
                                [v for row in sweep.eigenvalues for v in row]):
            assert float(line.rsplit(",", 1)[1]) == expect

    def test_summary_schema(self):
        schema = json.loads(
            (resources.files("kphoton") / "schemas/sweep.json").read_text())
        obj = sweep_summary(self._sweep())
        jsonschema.validate(obj, schema)
        assert obj["classification"] == "Convergent"
        assert obj["thresholds"]["artifact_choice"] is True
        assert len(obj["E_min_series"]) == 3


class TestLazyImport:
    def test_fock_names_load_on_first_use(self):
        script = (
            "import sys, kphoton\n"
            "assert 'numpy' not in sys.modules and 'kphoton.fock' not in sys.modules\n"
            "assert kphoton.ModelParams is kphoton.fock.ModelParams\n"
            "loaded = {'numpy', 'scipy', 'kphoton.asymptotics', 'kphoton.verdict',\n"
            "          'kphoton.weyl'} & set(sys.modules)\n"
            "assert not loaded, loaded\n"
            "try:\n"
            "    kphoton.no_such_name\n"
            "except AttributeError as exc:\n"
            "    assert 'no_such_name' in str(exc)\n"
            "else:\n"
            "    raise SystemExit('unknown name resolved')\n"
            "missing = [n for n in kphoton.__all__ if not hasattr(kphoton, n)]\n"
            "assert not missing, missing\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_exact_errors_live_on_the_package(self):
        # a caller catches the exact half's failures without loading it, and
        # kphoton.asymptotics, which raises them, exports the same classes
        script = (
            "import sys, kphoton\n"
            "errors = [kphoton.UnsolvableLevel, kphoton.DivisionByNonUnit, kphoton.OutOfScope]\n"
            "assert 'kphoton.asymptotics' not in sys.modules\n"
            "from kphoton import asymptotics\n"
            "assert errors == [asymptotics.UnsolvableLevel, asymptotics.DivisionByNonUnit,\n"
            "                  asymptotics.OutOfScope]\n"
            "print(' '.join(kphoton.__all__))\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [
            "Classification", "DivisionByNonUnit", "ExponentBranch", "LevelEquation",
            "ModelParams", "NormalizabilityReport", "OperatorPoly", "OutOfScope",
            "ParamPoly", "QuadraticRoot", "RingElem", "SpectrumSweep", "UnsolvableLevel",
            "Verdict", "VerdictReport", "a_coeff", "assemble_final_quadratic",
            "beta_unit_modulus", "build_hkp", "build_reduced_operator", "c_recursion",
            "classify_convergence", "convergence_sweep", "crho_closed", "critical_lines",
            "exponent_pipeline", "gf_coefficient", "jck_exact_spectrum", "lowest_eigenvalues",
            "normalizability", "rho_quadratic_general", "solve_levels",
            "substitute_ansatz", "sweep_csv", "sweep_summary", "symmetry_divergence",
            "verdict"]

    def test_verdict_name_stays_the_function(self):
        # importing the submodule kphoton.verdict, as cli's verdict handler
        # and the tests do, must not rebind the package's verdict function
        script = (
            "import sys, kphoton, kphoton.verdict\n"
            "from kphoton import verdict\n"
            "assert verdict is sys.modules['kphoton.verdict'].verdict\n"
            "assert kphoton.verdict is verdict\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
