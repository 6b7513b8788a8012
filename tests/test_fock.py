"""Truncated-matrix builds, exact oracles, convergence classification."""

import json
import math
import subprocess
import sys
from collections import Counter
from importlib import resources

import jsonschema
import numpy as np
import pytest
from scipy.linalg import eigh

from kphoton import fock
from kphoton.fock import (
    ChainMatrix,
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
from oracles import build_jck, dense, displaced_oscillator_oracle


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
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            ModelParams(**bad)


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
            m = build_hkp(ModelParams(k, 0.5, 1.0, 0.1), N)
            assert len(m.chains) == 2 * k
            idx = np.concatenate([c[0] for c in m.chains])
            assert np.array_equal(np.sort(idx), np.arange(2 * N))
            labels = set()
            for c in m.chains:
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

    def test_zero_coupling_at_large_k(self):
        # sqrt(n!/(n-k)!) is past the largest double here, but g = 0 zeroes it
        m = build_hkp(ModelParams(400, 0.0, 1.0, 0.0), 500)
        assert all(np.all(off == 0) for _, _, off in m.chains)

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
                  for idx, diag, off in build_jck(p, 10).chains if len(idx) == 2}
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
        m = ChainMatrix(5, [((i,), (v,), ()) for i, v in enumerate([3.0, -1.0, 4.0, 1.0, 5.0])])
        assert lowest_eigenvalues(m, 3) == pytest.approx([-1.0, 1.0, 3.0])

    def test_two_by_two(self):
        m = ChainMatrix(2, [((1, 0), (2.0, 0.0), (0.5,))])
        r = math.hypot(1.0, 0.5)
        assert lowest_eigenvalues(m, 2) == pytest.approx([1 - r, 1 + r], rel=1e-14)
        assert dense(m)[0, 1] == dense(m)[1, 0] == 0.5

    def test_against_dense_reference(self):
        # random chains over a shuffled basis, merged across chain boundaries
        rng = np.random.default_rng(20260814)
        dim = 200
        cuts = np.sort(rng.choice(np.arange(1, dim), size=7, replace=False))
        chains = [(idx, rng.standard_normal(len(idx)), rng.standard_normal(len(idx) - 1))
                  for idx in np.split(rng.permutation(dim), cuts)]
        m = ChainMatrix(dim, chains)
        H = dense(m)
        assert np.max(np.abs(H - H.T)) == 0.0
        dense_vals = eigh(H, eigvals_only=True)
        got = lowest_eigenvalues(m, 12)
        scale = max(1.0, float(np.max(np.abs(dense_vals))))
        assert np.allclose(got, dense_vals[:12], rtol=1e-10, atol=1e-10 * scale)

    def test_rejects_bad_count(self):
        m = ChainMatrix(3, [((0, 1, 2), (0.0, 0.0, 0.0), (1.0, 1.0))])
        for bad in (0, 4):
            with pytest.raises(ValueError):
                lowest_eigenvalues(m, bad)

    def test_chains_must_partition_the_basis(self):
        for chains in ([((0, 1), (0.0, 0.0), (1.0,))],                     # 2 missed
                       [((0, 1), (0.0, 0.0), (1.0,)), ((1, 2), (0.0, 0.0), (1.0,))],
                       [((0, 1, 3), (0.0, 0.0, 0.0), (1.0, 1.0))]):       # 3 >= dim
            with pytest.raises(ValueError):
                ChainMatrix(3, chains)


class TestChainsAgainstDense:
    """Every eigenvalue of the chain solve against dense eigh of the written-out matrix."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_full_spectrum(self, k):
        for g in (0.0, 0.05, 0.3, 1.0):
            for N in (k + 1, k + 2, 2 * k + 3, 31, 60):
                m = build_hkp(ModelParams(k, g, 1.0, 0.3), N)
                dense_vals = eigh(dense(m), eigvals_only=True)
                norm = float(np.max(np.abs(dense_vals)))
                got = lowest_eigenvalues(m, 2 * N)
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
        m = build_hkp(p, N)
        got = lowest_eigenvalues(m, 1)[0]
        with mpmath.workdps(50):
            g2, w, d = mpmath.mpf(g) ** 2, mpmath.mpf(p.omega), mpmath.mpf(delta)
            exact = []
            for idx, _, _ in m.chains:
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
                         tuple(tuple(r) for r in rows),
                         Classification.Inconclusive, tol)


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
            "assert 'numpy' in sys.modules\n"
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
