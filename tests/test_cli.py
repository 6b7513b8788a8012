"""Exit codes, exactness boundary, output formats, determinism."""

import dataclasses
import hashlib
import importlib
import json
import os
import subprocess
import sys
import warnings
from importlib import resources

import jsonschema
import pytest

from kphoton import asymptotics, cli, fock
from kphoton.cli import main


def _schema(name: str) -> dict:
    return json.loads((resources.files("kphoton") / f"schemas/{name}").read_text())


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeffs:
    def test_k3_text(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--k", "3")
        assert code == 0
        assert out == "a_1 = 9\na_2 = 18\na_3 = 6\n"

    def test_k4_csv(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--k", "4", "--format", "csv")
        assert code == 0
        assert out == "j,a_j\n1,16\n2,72\n3,96\n4,24\n"

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--k", "6", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        jsonschema.validate(obj, _schema("coeffs.json"))
        assert obj["coefficients"][0] == {"j": 1, "a": 36}

    def test_rejects_k0(self, capsys):
        code, _, err = run(capsys, "coeffs", "--k", "0")
        assert code == 2 and "k" in err


class TestOde:
    def test_k3_text_shows_fixture_terms(self, capsys):
        code, out, _ = run(capsys, "ode", "--k", "3")
        assert code == 0
        assert "(-9 + w^2)*z^2*Dz^2" in out and "(-6 - d^2 + E^2)" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "ode", "--k", "4", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        jsonschema.validate(obj, _schema("ode.json"))
        coeffs = {(t["z"], t["dz"]): t["coeff"] for t in obj["terms"]}
        assert coeffs[(3, 0)] == "4*w"

    def test_rejects_k1(self, capsys):
        assert run(capsys, "ode", "--k", "1")[0] == 2

    def test_k3_csv(self, capsys):
        code, out, _ = run(capsys, "ode", "--k", "3", "--format", "csv")
        assert code == 0
        assert out == ('z,dz,coeff\n0,0,"-6 - d^2 + E^2"\n0,6,"-1"\n'
                       '1,1,"-18 + w^2 - 2*w*E"\n2,0,"3*w"\n2,2,"-9 + w^2"\n'
                       '3,3,"-2"\n6,0,"-1"\n')


class TestExponents:
    def test_k5_table(self, capsys):
        code, out, _ = run(capsys, "exponents", "--k", "5")
        assert code == 0
        rows = [l for l in out.splitlines() if l.startswith("gamma =")]
        assert len(rows) == 10
        assert all("beta = 0" in r for r in rows)
        assert sum("rho = -2" in r for r in rows) == 5
        assert sum("rho = -5" in r for r in rows) == 5

    def test_k2_exits_2_with_pointer(self, capsys):
        code, _, err = run(capsys, "exponents", "--k", "2")
        assert code == 2
        assert "out of scope" in err

    def test_k_out_of_range(self, capsys):
        assert run(capsys, "exponents", "--k", "1")[0] == 2
        assert run(capsys, "exponents", "--k", "13")[0] == 2

    def test_non_integer_k_rejected(self, capsys):
        assert run(capsys, "exponents", "--k", "3.0")[0] == 2

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "exponents", "--k", "3", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        jsonschema.validate(obj, _schema("exponents.json"))
        assert len(obj["branches"]) == 6
        assert {b["gamma_power"] for b in obj["branches"]} == {1, 3, 5}

    def test_bad_depth(self, capsys):
        assert run(capsys, "exponents", "--k", "3", "--depth", "5")[0] == 2

    def test_k3_csv(self, capsys):
        code, out, _ = run(capsys, "exponents", "--k", "3", "--format", "csv")
        assert code == 0
        assert out == ('gamma_power,gamma,beta,rho\n'
                       '1,"g1","1/3*w*g2","-2"\n1,"g1","-1/3*w*g2","-2"\n'
                       '3,"-1","1/3*w","-2"\n3,"-1","-1/3*w","-2"\n'
                       '5,"-g2","-1/3*w*g1","-2"\n5,"-g2","1/3*w*g1","-2"\n')

    def test_full_range_digest(self, capsys):
        # every k exponents accepts, in every format, pinned as one digest of
        # the concatenated stdout
        h = hashlib.sha256()
        for fmt in ("text", "csv", "json"):
            for k in range(3, 13):
                code, out, _ = run(capsys, "exponents", "--k", str(k), "--format", fmt)
                assert code == 0
                h.update(out.encode())
        assert h.hexdigest() == "75f9932d1cec04fa762b93e00c34fe6924e7013e31e08ca39fd968d7896ee893"


class TestVerdict:
    def test_json_not_self_adjoint(self, capsys):
        code, out, _ = run(capsys, "verdict", "--k", "3", "--omega", "1",
                           "--delta", "1/2", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        jsonschema.validate(obj, _schema("verdict.json"))
        assert obj["verdict"] == "NotSelfAdjoint"
        assert len(obj["branches"]) == 6

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "verdict", "--k", "1", "--omega", "1",
                           "--delta", "1")
        assert code == 0 and "SelfAdjoint" in out

    def test_decimal_omega_rejected(self, capsys):
        code, _, err = run(capsys, "verdict", "--k", "3", "--omega", "0.5",
                           "--delta", "1")
        assert code == 2
        assert "decimal" in err

    def test_zero_denominator_rejected(self, capsys):
        assert run(capsys, "verdict", "--k", "3", "--omega", "1/0",
                   "--delta", "1")[0] == 2

    def test_nonpositive_omega_rejected(self, capsys):
        code, _, err = run(capsys, "verdict", "--k", "3", "--omega", "0",
                           "--delta", "1")
        assert code == 2
        assert "positive" in err

    def test_trace_file_matches_ref(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        code, out, _ = run(capsys, "verdict", "--k", "4", "--omega", "5",
                           "--delta", "0", "--format", "json",
                           "--trace", str(path))
        assert code == 0
        ref = json.loads(out)["trace_ref"]
        digest = hashlib.sha256(path.read_text().rstrip("\n").encode()).hexdigest()
        assert ref == f"sha256:{digest}"

    @pytest.mark.parametrize("omega, rho, digest", [
        # rho = -5/2 +- 1/4*sqrt(15): a real surd pair
        ("1", "rho = -5/2 + 1/4*sqrt(15),",
         "99781f9a05e083ccec1b606af9ab249928f43a61454eebca6b24c27d7c962f11"),
        # rho = -5/2 +- i*1/4*sqrt(9): a complex pair
        ("5", "rho = -5/2 - i*1/4*sqrt(9),",
         "550f8e279c83d1d3ffddc07b3a0cf3ce8ff7ac045d4d30c1dc946fc72fab56a5"),
    ], ids=["surd", "imaginary"])
    def test_k4_text_rho_forms(self, capsys, omega, rho, digest):
        code, out, _ = run(capsys, "verdict", "--k", "4", "--omega", omega,
                           "--delta", "0")
        assert code == 0
        assert rho in out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_full_range_digest(self, capsys):
        # every k verdict accepts, in both formats, at the benchmark's six
        # (omega, delta) pairs, plus the k = 4 double root at omega = 4
        params = [("5", "1/2"), ("7/2", "1/2"), ("1", "0"), ("3/4", "-2/3"),
                  ("11/3", "5/7"), ("2", "-1")]
        runs = [(k, omega, delta) for k in range(1, 13) for omega, delta in params]
        runs.append((4, "4", "0"))
        h = hashlib.sha256()
        for fmt in ("text", "json"):
            for k, omega, delta in runs:
                # the = form lets argparse take a negative rational as the value
                code, out, _ = run(capsys, "verdict", "--k", str(k), f"--omega={omega}",
                                   f"--delta={delta}", "--format", fmt)
                assert code == 0
                h.update(out.encode())
        assert h.hexdigest() == "d5ca37a97202c1777227768c8506eb00d9c6192d89d8b01c6ecd7de2911983ea"


class TestGf:
    def test_k5_text(self, capsys):
        code, out, _ = run(capsys, "gf", "--k", "5")
        assert code == 0
        assert "oracle check: consistent" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "gf", "--k", "7", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        jsonschema.validate(obj, _schema("gf.json"))
        assert obj["oracle_consistent"] is True

    def test_range(self, capsys):
        assert run(capsys, "gf", "--k", "4")[0] == 2
        assert run(capsys, "gf", "--k", "13")[0] == 2

    def test_k5_csv(self, capsys):
        code, out, _ = run(capsys, "gf", "--k", "5", "--format", "csv")
        assert code == 0
        assert out == ("name,value\nc0,210\nC2k_r2,45\nC2k_r,315\nCk_r2,10\n"
                       "Ck_r,20\nquadratic_linear,7\nquadratic_constant,10\n")

    def test_full_range_digest(self, capsys):
        # every k gf accepts, in every format, pinned as one digest of the
        # concatenated stdout
        h = hashlib.sha256()
        for fmt in ("text", "csv", "json"):
            for k in range(5, 13):
                code, out, _ = run(capsys, "gf", "--k", str(k), "--format", fmt)
                assert code == 0
                h.update(out.encode())
        assert h.hexdigest() == "6569c8f910321439e4513ab23fe96e575a24e794756d8f95a786254b7da634a1"


class TestSweep:
    def test_csv_header_exact(self, capsys):
        code, out, _ = run(capsys, "sweep", "--k", "1", "--g", "1",
                           "--N", "20,40,60", "--m", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,g,omega,delta,N,index,eigenvalue"
        assert len(lines) == 1 + 9

    def test_accepts_decimals(self, capsys):
        code, out, _ = run(capsys, "sweep", "--k", "1", "--g", "0.35",
                           "--delta", "0.2", "--N", "20,40,60", "--m", "2")
        assert code == 0
        fields = out.splitlines()[1].split(",")
        # 17 significant digits: printed fields round-trip to the exact floats
        assert float(fields[1]) == 0.35 and float(fields[3]) == 0.2
        assert fields[4:6] == ["20", "0"]

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "sweep", "--k", "2", "--g", "0.4",
                           "--delta", "1/5", "--N", "30,60,90", "--m", "4",
                           "--format", "json")
        assert code == 0
        jsonschema.validate(json.loads(out), _schema("sweep.json"))

    def test_text(self, capsys):
        # g = 0 leaves every chain diagonal, so E_min = -delta exactly
        code, out, _ = run(capsys, "sweep", "--k", "1", "--g", "0", "--delta", "1",
                           "--N", "20,40,60", "--m", "3", "--format", "text")
        assert code == 0
        assert out == ("k = 1, g = 0, omega = 1, delta = 1\n"
                       "classification: Convergent\n"
                       "N = 20: E_min = -1\nN = 40: E_min = -1\nN = 60: E_min = -1\n")

    def test_bad_size_lists(self, capsys):
        assert run(capsys, "sweep", "--k", "1", "--g", "1", "--N", "20,40")[0] == 2
        assert run(capsys, "sweep", "--k", "1", "--g", "1", "--N", "40,20,60")[0] == 2
        assert run(capsys, "sweep", "--k", "1", "--g", "1", "--N", "a,b,c")[0] == 2

    def test_bad_params(self, capsys):
        assert run(capsys, "sweep", "--k", "0", "--g", "1", "--N", "20,40,60")[0] == 2
        assert run(capsys, "sweep", "--k", "1", "--g", "-1", "--N", "20,40,60")[0] == 2
        assert run(capsys, "sweep", "--k", "1", "--g", "1", "--tol", "0",
                   "--N", "20,40,60")[0] == 2

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_rejected(self, capsys, tol):
        code, out, err = run(capsys, "sweep", "--k", "2", "--g", "0.3", "--tol", tol,
                             "--N", "20,40,60", "--format", "json")
        assert (code, out) == (2, "")
        assert "tol must be positive and finite" in err

    def test_zero_coupling_at_large_k(self, capsys):
        code, out, _ = run(capsys, "sweep", "--k", "400", "--g", "0",
                           "--N", "500,600,700", "--format", "json")
        assert code == 0
        assert json.loads(out)["E_min_series"] == [0.0, 0.0, 0.0]

    def test_coupling_overflow_is_a_usage_error(self, capsys):
        # g*sqrt(n!/(n-k)!) is past the largest double from n = k = 400 on
        code, out, err = run(capsys, "sweep", "--k", "400", "--g", "0.1",
                             "--N", "500,600,700")
        assert (code, out) == (2, "")
        assert "k=400, n=400;" in err
        assert "infs or NaNs" not in err

    def test_diagonal_overflow_is_a_usage_error(self, capsys):
        # w*n + d is past the largest double from n = 1 on
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "sweep", "--k", "2", "--g", "0.1", "--omega",
                                 "1e308", "--delta", "1e308", "--N", "10,20,30")
        assert (code, out) == (2, "")
        assert "diagonal w*n -+ d is not a finite double at k=2, n=1;" in err


class TestJcExact:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "jc-exact", "--k", "2", "--g", "0.1",
                           "--n-max", "0")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "index,eigenvalue"
        assert len(lines) == 5      # block pair + two uncoupled levels

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "jc-exact", "--k", "3", "--g", "0.5",
                           "--delta", "0.2", "--n-max", "4", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        jsonschema.validate(obj, _schema("jcexact.json"))
        assert len(obj["eigenvalues"]) == 2 * 5 + 3

    def test_bad_nmax(self, capsys):
        assert run(capsys, "jc-exact", "--k", "2", "--g", "1", "--n-max", "-1")[0] == 2

    def test_text(self, capsys):
        code, out, _ = run(capsys, "jc-exact", "--k", "2", "--g", "0.25",
                           "--delta", "1/2", "--n-max", "3", "--format", "text")
        assert code == 0
        assert out == ("E_0 = -0.5\nE_1 = 0.38762756430420542\nE_2 = 0.5\n"
                       "E_3 = 1.209430584957905\nE_4 = 1.6123724356957947\nE_5 = 2\n"
                       "E_6 = 2.7752551286084106\nE_7 = 2.790569415042095\nE_8 = 4\n"
                       "E_9 = 5.2247448713915894\n")

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    def test_coupling_overflow_is_a_usage_error(self, capsys, fmt):
        # g*sqrt((n+k)!/n!) is past the largest double already for n = 0, k = 400
        code, out, err = run(capsys, "jc-exact", "--k", "400", "--g", "0.1",
                             "--n-max", "3", "--format", fmt)
        assert (code, out) == (2, "")
        assert "k=400, n=400;" in err

    @pytest.mark.parametrize("omega, delta, n_max, what", [
        # w*n + d overflows at n = 1
        ("1e308", "1e308", "3", "diagonal w*n -+ d is not a finite double at k=2, n=1;"),
        # every entry is finite, but the block mean (w*(2n+k))/2 overflows at n = 1
        ("5e307", "0", "1", "closed-form eigenvalue is not a finite double at k=2, n=1;"),
    ], ids=["diagonal", "block-mean"])
    def test_diagonal_overflow_is_a_usage_error(self, capsys, omega, delta, n_max, what):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "jc-exact", "--k", "2", "--g", "0.1", "--omega",
                                 omega, "--delta", delta, "--n-max", n_max,
                                 "--format", "json")
        assert (code, out) == (2, "")
        assert what in err

    def test_zero_coupling_at_large_k(self, capsys):
        code, out, _ = run(capsys, "jc-exact", "--k", "400", "--g", "0",
                           "--n-max", "3", "--format", "json")
        assert code == 0
        # the k uncoupled levels n < 400, then each block's w*(n+k) and w*n
        want = sorted([*range(400), *range(400, 404), *range(4)])
        assert json.loads(out)["eigenvalues"] == want

    def test_full_range_digest(self, capsys):
        # a grid over k, coupling, splitting and n-max, in every format,
        # pinned as one digest of the concatenated stdout
        h = hashlib.sha256()
        for fmt in ("csv", "json", "text"):
            for k in range(1, 5):
                for g in ("0", "1/4"):
                    for delta in ("0", "1/2"):
                        for n_max in ("0", "6"):
                            code, out, _ = run(capsys, "jc-exact", "--k", str(k), "--g", g,
                                               "--delta", delta, "--n-max", n_max,
                                               "--format", fmt)
                            assert code == 0
                            h.update(out.encode())
        assert h.hexdigest() == "51a64226f6e1d9e7c62de1b0f1b690884227d0f0d30eaf6d88210b1b0abefe18"


class TestPlumbing:
    def test_byte_identical_runs(self, capsys):
        a = run(capsys, "verdict", "--k", "4", "--omega", "5", "--delta", "1",
                "--format", "json")
        b = run(capsys, "verdict", "--k", "4", "--omega", "5", "--delta", "1",
                "--format", "json")
        assert a == b
        c = run(capsys, "sweep", "--k", "2", "--g", "0.4", "--N", "30,60,90",
                "--m", "4")
        d = run(capsys, "sweep", "--k", "2", "--g", "0.4", "--N", "30,60,90",
                "--m", "4")
        assert c == d

    def test_coeffs_and_ode_full_range_digest(self, capsys):
        # every k the two subcommands accept, in every format, pinned as one
        # digest of the concatenated stdout
        h = hashlib.sha256()
        for fmt in ("text", "csv", "json"):
            for cmd, ks in (("coeffs", range(1, 65)), ("ode", range(2, 65))):
                for k in ks:
                    code, out, _ = run(capsys, cmd, "--k", str(k), "--format", fmt)
                    assert code == 0
                    h.update(out.encode())
        assert h.hexdigest() == "f79c8624bde85fb57077397b754028cff421ba8311f231292bfb5799ec45628f"

    def test_output_file_atomic_write(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("stale")
        code, out, _ = run(capsys, "sweep", "--k", "1", "--g", "1",
                           "--N", "20,40,60", "--m", "2", "--output", str(path))
        assert code == 0 and out == ""
        content = path.read_text()
        assert content.startswith("k,g,omega,delta,N,index,eigenvalue\n")
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".kphoton-tmp-")]
        assert leftovers == []

    def test_output_files_follow_umask(self, capsys, tmp_path):
        out, trace = tmp_path / "out.txt", tmp_path / "trace.json"
        old = os.umask(0o027)
        try:
            code, _, _ = run(capsys, "verdict", "--k", "3", "--omega", "1",
                             "--delta", "0", "--output", str(out),
                             "--trace", str(trace))
        finally:
            os.umask(old)
        assert code == 0
        assert out.stat().st_mode & 0o777 == 0o640
        assert trace.stat().st_mode & 0o777 == 0o640

    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "out.txt"
        code, out, err = run(capsys, "coeffs", "--k", "3", "--output", str(path))
        assert (code, out) == (2, "")
        assert err == f"kphoton: cannot write {path}: No such file or directory\n"

    def test_unwritable_trace_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "trace.json"
        code, out, err = run(capsys, "verdict", "--k", "3", "--omega", "1",
                             "--delta", "0", "--trace", str(path))
        assert (code, out) == (2, "")
        assert err == f"kphoton: cannot write {path}: No such file or directory\n"

    def test_output_onto_a_directory_leaves_no_temp_file(self, capsys, tmp_path):
        target = tmp_path / "dir"
        target.mkdir()
        code, out, err = run(capsys, "coeffs", "--k", "3", "--output", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"kphoton: cannot write {target}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir"]

    def test_internal_inconsistency_maps_to_3(self, capsys, monkeypatch):
        # kphoton.verdict the attribute is the function; patch the module
        mod = importlib.import_module("kphoton.verdict")
        real = mod.normalizability
        monkeypatch.setattr(mod, "normalizability", lambda b, omega: dataclasses.replace(
            real(b, omega), normalizable=False))
        code, out, err = run(capsys, "verdict", "--k", "3", "--omega", "1",
                             "--delta", "0")
        assert code == 3 and out == ""
        assert err.startswith("kphoton:") and "Traceback" not in err

    @pytest.mark.parametrize("args, message", [
        (("sweep", "--k", "2", "--g", "-1"), "coupling g must be nonnegative"),
        (("jc-exact", "--k", "0", "--g", "0.1"), "k must be a positive integer, got 0"),
        (("sweep", "--k", "1", "--g", "1", "--N", "10,5,30"),
         "truncation sizes must be strictly increasing"),
    ], ids=["sweep-g", "jc-exact-k", "sweep-N"])
    def test_domain_errors_exit_2_with_message(self, capsys, args, message):
        assert run(capsys, *args) == (2, "", f"kphoton: {message}\n")

    def test_unknown_flag(self, capsys):
        assert run(capsys, "coeffs", "--k", "3", "--bogus")[0] == 2

    def test_missing_subcommand(self, capsys):
        assert run(capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_unsolvable_level_maps_to_3(self, capsys, monkeypatch):
        def boom(k):
            raise asymptotics.UnsolvableLevel(7, "g2*c4", "nonzero residual")
        monkeypatch.setattr(cli, "_exponent_pipeline", boom)
        code, _, err = run(capsys, "exponents", "--k", "5")
        assert code == 3
        assert "g2*c4" in err and "level 7" in err

    def test_solver_failure_maps_to_3(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("banded eigensolver failed on dimension 40")
        monkeypatch.setattr(fock, "convergence_sweep", boom)
        code, _, err = run(capsys, "sweep", "--k", "1", "--g", "1",
                           "--N", "20,40,60")
        assert code == 3 and "eigensolver" in err

    def test_memory_error_maps_to_3(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB")
        monkeypatch.setattr(fock, "jck_exact_spectrum", boom)
        code, out, err = run(capsys, "jc-exact", "--k", "2", "--g", "0.3",
                             "--n-max", "100000000000")
        assert (code, out) == (3, "")
        assert err.startswith("kphoton:") and "memory" in err

    def test_module_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kphoton.cli", "coeffs", "--k", "3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "a_1 = 9\na_2 = 18\na_3 = 6\n"

    @pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")])
    def test_blas_threads_chosen_before_numpy_loads(self, preset, want):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        # numpy loads only when jc-exact first needs it, after the setting
        script = ("import sys, kphoton; assert 'numpy' not in sys.modules; "
                  "import os, kphoton.cli; assert 'numpy' not in sys.modules; "
                  "from kphoton.cli import main; "
                  "assert main(['jc-exact', '--k', '1', '--g', '0.1', '--n-max', '2']) == 0; "
                  "assert 'numpy' in sys.modules; "
                  "print(os.environ['OPENBLAS_NUM_THREADS'])")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == want

    # Each run is a fresh interpreter: main() is called in-process there so
    # sys.modules shows exactly what the subcommand imported.
    _REPORT_LOADS = ("import sys; from kphoton.cli import main; "
                     "code = main(sys.argv[1:]); "
                     "print(code, 'numpy' in sys.modules, 'scipy' in sys.modules, "
                     "file=sys.stderr)")

    @pytest.mark.parametrize("args, code", [
        (("coeffs", "--k", "5"), 0),
        (("ode", "--k", "5"), 0),
        (("exponents", "--k", "5"), 0),
        (("gf", "--k", "5"), 0),
        (("verdict", "--k", "4", "--omega", "1", "--delta", "0", "--trace", "TRACE"), 0),
        (("--help",), 0),
        (("exponents", "--k", "2"), 2),
    ], ids=["coeffs", "ode", "exponents", "gf", "verdict-trace", "help", "exit-2"])
    def test_exact_paths_never_load_numpy(self, tmp_path, args, code):
        trace = tmp_path / "trace.json"
        args = [str(trace) if a == "TRACE" else a for a in args]
        proc = subprocess.run([sys.executable, "-c", self._REPORT_LOADS, *args],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == f"{code} False False"
        assert trace.exists() == (str(trace) in args)

    @pytest.mark.parametrize("args", [
        ("sweep", "--k", "2", "--g", "0.3", "--N", "20,40,60", "--m", "2"),
        ("jc-exact", "--k", "1", "--g", "0.1", "--n-max", "2"),
    ], ids=["sweep", "jc-exact"])
    def test_numeric_paths_load_numpy(self, args):
        proc = subprocess.run([sys.executable, "-c", self._REPORT_LOADS, *args],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "0 True True"
