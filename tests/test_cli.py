"""Exit codes, exactness boundary, output formats, determinism."""

import contextlib
import hashlib
import importlib
import importlib.machinery
import io
import json
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kphoton import asymptotics, cli, fock
from kphoton.cli import main
from kphoton.weyl import P_ZERO, ParamPoly


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
        assert run(capsys, "exponents", "--k", "65")[0] == 2

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
        # k = 3..12, in every format, pinned as one digest of the
        # concatenated stdout; test_branch_set_past_12 pins larger k
        h = hashlib.sha256()
        for fmt in ("text", "csv", "json"):
            for k in range(3, 13):
                code, out, _ = run(capsys, "exponents", "--k", str(k), "--format", fmt)
                assert code == 0
                h.update(out.encode())
        assert h.hexdigest() == "75f9932d1cec04fa762b93e00c34fe6924e7013e31e08ca39fd968d7896ee893"

    @pytest.mark.parametrize("k", [13, 16, 24, 32, 48, 64])
    def test_branch_set_past_12(self, capsys, k):
        # for k >= 5 each root gamma = g^(2m+1) of gamma^k = -1 carries
        # beta = 0 and the two roots (1-k)/2 and (5-3k)/2 of
        # r^2 + (2k-3) r + 3k^2/4 - 2k + 5/4
        code, out, _ = run(capsys, "exponents", "--k", str(k), "--format", "json")
        assert code == 0
        obj = json.loads(out)
        jsonschema.validate(obj, _schema("exponents.json"))
        assert all(b["beta"] == "0" for b in obj["branches"])
        got = sorted((b["gamma_power"], Fraction(b["rho"])) for b in obj["branches"])
        assert got == sorted((2 * m + 1, Fraction(rho, 2))
                             for m in range(k) for rho in (1 - k, 5 - 3 * k))


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
        # a disc in (0, 1] is still a real surd
        ("31/8", "rho = -5/2 + 1/4*sqrt(63/64),",
         "fbcf2899c5add45024737050b083403c599ba85b008b129b01bb3ad2fad7eb76"),
    ], ids=["surd", "imaginary", "surd-below-one"])
    def test_k4_text_rho_forms(self, capsys, omega, rho, digest):
        code, out, _ = run(capsys, "verdict", "--k", "4", "--omega", omega,
                           "--delta", "0")
        assert code == 0
        assert rho in out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_full_range_digest(self, capsys):
        # k = 1..12, in both formats, at the benchmark's six (omega, delta)
        # pairs, plus the k = 4 double root at omega = 4
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

    def test_k64_not_self_adjoint(self, capsys):
        code, out, _ = run(capsys, "verdict", "--k", "64", "--omega", "3", "--delta", "0",
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        jsonschema.validate(obj, _schema("verdict.json"))
        assert obj["verdict"] == "NotSelfAdjoint"
        assert len(obj["branches"]) == 128


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
        assert run(capsys, "gf", "--k", "33")[0] == 2

    def test_k5_csv(self, capsys):
        code, out, _ = run(capsys, "gf", "--k", "5", "--format", "csv")
        assert code == 0
        assert out == ("name,value\nc0,210\nC2k_r2,45\nC2k_r,315\nCk_r2,10\n"
                       "Ck_r,20\nquadratic_linear,7\nquadratic_constant,10\n")

    def test_full_range_digest(self, capsys):
        # k = 5..12, in every format, pinned as one digest of the
        # concatenated stdout
        h = hashlib.sha256()
        for fmt in ("text", "csv", "json"):
            for k in range(5, 13):
                code, out, _ = run(capsys, "gf", "--k", str(k), "--format", fmt)
                assert code == 0
                h.update(out.encode())
        assert h.hexdigest() == "6569c8f910321439e4513ab23fe96e575a24e794756d8f95a786254b7da634a1"

    def test_k32_consistent(self, capsys):
        code, out, _ = run(capsys, "gf", "--k", "32")
        assert code == 0
        # r^2 + (2k-3) r + 3k^2/4 - 2k + 5/4 at k = 32
        assert "assembled monic quadratic: r^2 + 61*r + 2821/4\n" in out
        assert out.endswith("oracle check: consistent\n")


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

    def test_full_range_digest(self, capsys):
        # a grid over k, coupling and splitting, in every format, pinned as one
        # digest of the concatenated stdout; N = k+1..k+3 leaves chains of
        # length 1, and delta = 0 makes the chains (r, 0) and (r, 1) equal
        h = hashlib.sha256()
        for fmt in ("csv", "json", "text"):
            for k in range(1, 7):
                for g in ("0", "0.05", "0.3", "0.5"):
                    for delta in ("0", "1/2"):
                        for sizes in (("40,80,160",),
                                      (",".join(str(k + i) for i in (1, 2, 3)),
                                       "--m", "2")):
                            code, out, _ = run(capsys, "sweep", "--k", str(k), "--g", g,
                                               "--delta", delta, "--N", *sizes,
                                               "--format", fmt)
                            assert code == 0
                            h.update(out.encode())
        assert h.hexdigest() == "a55692ede32d92701e6f362e528524f5e4d14818b53d281643c6a397e13908d6"


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
        monkeypatch.setattr(mod, "normalizability",
                            lambda b, omega: real(b, omega)._replace(sign_vs_threshold=1))
        code, out, err = run(capsys, "verdict", "--k", "3", "--omega", "1",
                             "--delta", "0")
        assert code == 3 and out == ""
        assert err.startswith("kphoton:") and "Traceback" not in err

    @pytest.mark.parametrize("args, message", [
        (("sweep", "--k", "2", "--g", "-1"), "coupling g must be nonnegative"),
        (("jc-exact", "--k", "0", "--g", "0.1"), "k must be a positive integer, got 0"),
        (("sweep", "--k", "1", "--g", "1", "--N", "10,5,30"),
         "truncation sizes must be strictly increasing"),
        (("verdict", "--k", "0", "--omega", "1", "--delta", "0"),
         "verdict supports 1 <= k <= 64, got 0"),
        (("verdict", "--k", "65", "--omega", "1", "--delta", "0"),
         "verdict supports 1 <= k <= 64, got 65"),
        (("verdict", "--k", "3", "--omega", "-1/2", "--delta", "0"),
         "omega must be positive"),
    ], ids=["sweep-g", "jc-exact-k", "sweep-N", "verdict-k0", "verdict-k65",
            "verdict-negative-omega"])
    def test_domain_errors_exit_2_with_message(self, capsys, args, message):
        assert run(capsys, *args) == (2, "", f"kphoton: {message}\n")

    # a rational past the largest double is refused where --g, --omega,
    # --delta and --tol are parsed, so argparse reports it with its usage
    @pytest.mark.parametrize("option", ["--g", "--omega", "--delta", "--tol"])
    def test_rational_past_the_doubles_exits_2(self, capsys, option):
        big = "1" + "0" * 400 + "/3"
        code, out, err = run(capsys, "sweep", "--k", "3", "--g", "0.1", option, big)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            f"kphoton sweep: error: argument {option}: too large for a double: {big!r}")

    # argparse reads -1/2 and -1e-3 as options, not values; main hands a
    # separate negative value to the option before it, as --delta=... does
    @pytest.mark.parametrize("args", [
        ("verdict", "--k", "4", "--omega", "1", "--delta", "-1/2"),
        ("sweep", "--k", "2", "--g", "0.1", "--delta", "-1/2", "--N", "40,80,160"),
        ("sweep", "--k", "2", "--g", "0.1", "--delta", "-1e-3", "--N", "40,80,160"),
    ], ids=["verdict", "sweep", "sweep-exponent"])
    def test_negative_value_as_separate_argument(self, capsys, args):
        i = args.index("--delta")
        joined = (*args[:i], f"--delta={args[i + 1]}", *args[i + 2:])
        code, out, err = run(capsys, *args)
        assert (code, err) == (0, "")
        assert run(capsys, *joined) == (0, out, "")

    def test_help_ignores_a_negative_value_after_it(self, capsys):
        code, out, _ = run(capsys, "verdict", "--help", "-1/2")
        assert code == 0 and out.startswith("usage: kphoton verdict")

    def test_unknown_flag(self, capsys):
        assert run(capsys, "coeffs", "--k", "3", "--bogus")[0] == 2

    def test_missing_subcommand(self, capsys):
        assert run(capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    @pytest.fixture
    def cold_pipeline(self):
        # exponent_pipeline caches its result per k; a cached k would never
        # reach a patched solve_levels
        asymptotics.exponent_pipeline.cache_clear()
        yield
        asymptotics.exponent_pipeline.cache_clear()

    @pytest.mark.usefixtures("cold_pipeline")
    def test_unsolvable_level_maps_to_3(self, capsys, monkeypatch):
        def boom(levels, k):
            raise asymptotics.UnsolvableLevel(7, "g2*c4", "nonzero residual")
        # exponent_pipeline looks solve_levels up in its module on each call
        monkeypatch.setattr(asymptotics, "solve_levels", boom)
        assert run(capsys, "exponents", "--k", "5") == (
            3, "", "kphoton: unsolvable level 7: nonzero residual; residual: g2*c4\n")

    @pytest.mark.parametrize("error, code, prefix", [
        (asymptotics.OutOfScope, 2, "kphoton: "),
        (asymptotics.DivisionByNonUnit, 3, "kphoton: solver failure: "),
    ])
    @pytest.mark.usefixtures("cold_pipeline")
    def test_exact_failures_map_to_their_codes(self, capsys, monkeypatch, error, code, prefix):
        def boom(levels, k):
            raise error("raised in the pipeline")
        monkeypatch.setattr(asymptotics, "solve_levels", boom)
        assert run(capsys, "exponents", "--k", "5") == (
            code, "", f"{prefix}raised in the pipeline\n")

    @pytest.mark.parametrize("beta, rho, what", [
        (P_ZERO, ParamPoly.energy(), "exponent"),
        (P_ZERO, ParamPoly.delta(), "exponent"),
        (ParamPoly.energy(), ParamPoly.rational(-2), "beta"),
        (ParamPoly.delta(), ParamPoly.rational(-2), "beta"),
    ], ids=["rho-E", "rho-d", "beta-E", "beta-d"])
    @pytest.mark.parametrize("args", [
        ("exponents", "--k", "5"),
        ("verdict", "--k", "5", "--omega", "1", "--delta", "0"),
    ], ids=["exponents", "verdict"])
    @pytest.mark.usefixtures("cold_pipeline")
    def test_exponent_in_E_or_delta_maps_to_3(self, capsys, monkeypatch, beta, rho, what, args):
        # both readers of the branches need E symbolic
        branch = asymptotics.ExponentBranch(5, 0, asymptotics.RingElem.from_param(beta, 5),
                                            asymptotics.QuadraticRoot(rho))
        monkeypatch.setattr(asymptotics, "solve_levels", lambda levels, k: [branch])
        assert run(capsys, *args) == (
            3, "", f"kphoton: solver failure: {what} depends on E or Delta\n")

    def test_solver_failure_maps_to_3(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("tridiagonal eigensolver failed on a chain of length 40: "
                               "dstebz info = 1")
        monkeypatch.setattr(fock, "convergence_sweep", boom)
        code, _, err = run(capsys, "sweep", "--k", "1", "--g", "1",
                           "--N", "20,40,60")
        assert code == 3 and "eigensolver" in err

    @pytest.mark.parametrize("missing", ["extension", "symbol"])
    def test_missing_lapack_maps_to_3(self, capsys, monkeypatch, missing):
        # without scipy's _flapack, or without dstebz in its library, a sweep
        # is a solver failure that names what was looked for
        if missing == "extension":
            find = importlib.machinery.PathFinder.find_spec
            monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                                lambda name, *args: None if name == "scipy.linalg._flapack"
                                else find(name, *args))
            why = "no scipy.linalg._flapack extension is installed"
        else:
            monkeypatch.setattr(fock, "_DSTEBZ_NAMES", ("no_such_dstebz_",))
            why = ".*_flapack.* exports no no_such_dstebz_"
        fock._dstebz.cache_clear()
        try:
            code, out, err = run(capsys, "sweep", "--k", "3", "--g", "0.1",
                                 "--N", "40,80,160")
        finally:
            fock._dstebz.cache_clear()
        assert (code, out) == (3, "")
        assert re.fullmatch(f"kphoton: solver failure: LAPACK's dstebz was not found: "
                            f"{why}\n", err), err

    def test_memory_error_maps_to_3(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB")
        monkeypatch.setattr(fock, "jck_exact_spectrum", boom)
        code, out, err = run(capsys, "jc-exact", "--k", "2", "--g", "0.3",
                             "--n-max", "100000000000")
        assert (code, out) == (3, "")
        assert err.startswith("kphoton:") and "memory" in err

    # Each size is past what a 1 GiB address space holds, and the very last
    # one past sys.maxsize.  The children are started by a small interpreter
    # rather than by pytest: a child's ru_maxrss counts the memory of the
    # process it was forked from.
    _CAPPED = (
        "import json, os, resource, subprocess, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "runs = []\n"
        "for args in json.loads(sys.argv[1]):\n"
        "    proc = subprocess.Popen([sys.executable, '-m', 'kphoton.cli', *args],\n"
        "                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)\n"
        "    with proc.stdout, proc.stderr:\n"
        "        out, err = proc.stdout.read(), proc.stderr.read()\n"
        "    _, status, usage = os.wait4(proc.pid, 0)\n"
        "    proc.returncode = os.waitstatus_to_exitcode(status)\n"
        "    runs.append([proc.returncode, out, err, usage.ru_maxrss])\n"
        "print(json.dumps(runs))\n")

    def test_huge_sizes_fail_fast(self):
        commands = [["jc-exact", "--k", "2", "--g", "0.3", "--n-max", "100000000000"],
                    ["sweep", "--k", "3", "--g", "0.1", "--N", "10,20,100000000000"],
                    ["jc-exact", "--k", "100000000000000000000", "--g", "0.1",
                     "--n-max", "0"]]
        proc = subprocess.run([sys.executable, "-c", self._CAPPED, json.dumps(commands)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        for args, (code, out, err, maxrss_kb) in zip(commands, json.loads(proc.stdout)):
            assert (code, out, err) == (
                3, "", "kphoton: out of memory; use a smaller N or n_max\n"), args
            assert maxrss_kb < 200 * 1024, (args, maxrss_kb)

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
        # sweep opens scipy's LAPACK library, which starts OpenBLAS, only
        # after importing the CLI has chosen its thread count
        script = ("import ctypes, os, sys\n"
                  "load, seen = ctypes.CDLL, []\n"
                  "def spy(path, *args, **kwargs):\n"
                  "    seen.append((os.path.basename(path).split('.')[0],\n"
                  "                 os.environ.get('OPENBLAS_NUM_THREADS')))\n"
                  "    return load(path, *args, **kwargs)\n"
                  "ctypes.CDLL = spy\n"
                  "from kphoton.cli import main\n"
                  "argv = ['sweep', '--k', '1', '--g', '0.1', '--N', '4,5,6', '--m', '2']\n"
                  "assert main(argv) == 0\n"
                  "(name, threads), = seen\n"
                  "assert name == '_flapack', name\n"
                  "print(threads)")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == want

    # Each run is a fresh interpreter: main() is called in-process there so
    # sys.modules shows exactly what the subcommand imported.  No subcommand
    # loads dataclasses or the inspect module that it imports.  The last
    # field lists json, fractions and decimal as loaded after start-up, when
    # a site hook may already have loaded some of them.
    _REPORT_LOADS = ("import sys; start = set(sys.modules); "
                     "from kphoton.cli import main; "
                     "code = main(sys.argv[1:]); "
                     "print(code, 'numpy' in sys.modules, 'scipy' in sys.modules, "
                     "sorted({'dataclasses', 'inspect'} & set(sys.modules)), "
                     "sorted({'json', 'fractions', 'decimal'} & (set(sys.modules) - start)), "
                     "file=sys.stderr)")

    # the exact modules compute with fractions; json loads only for JSON
    # output or the verdict trace
    @pytest.mark.parametrize("args, code, loaded", [
        (("coeffs", "--k", "5"), 0, ["decimal", "fractions"]),
        (("coeffs", "--k", "5", "--format", "csv"), 0, ["decimal", "fractions"]),
        (("coeffs", "--k", "5", "--format", "json"), 0, ["decimal", "fractions", "json"]),
        (("ode", "--k", "5"), 0, ["decimal", "fractions"]),
        (("ode", "--k", "5", "--format", "csv"), 0, ["decimal", "fractions"]),
        (("exponents", "--k", "5"), 0, ["decimal", "fractions"]),
        (("exponents", "--k", "5", "--format", "csv"), 0, ["decimal", "fractions"]),
        (("gf", "--k", "5"), 0, ["decimal", "fractions"]),
        (("gf", "--k", "5", "--format", "csv"), 0, ["decimal", "fractions"]),
        (("verdict", "--k", "4", "--omega", "1", "--delta", "0", "--trace", "TRACE"), 0,
         ["decimal", "fractions", "json"]),
        (("--help",), 0, []),
        (("exponents", "--k", "2"), 2, ["decimal", "fractions"]),
    ], ids=["coeffs", "coeffs-csv", "coeffs-json", "ode", "ode-csv", "exponents",
            "exponents-csv", "gf", "gf-csv", "verdict-trace", "help", "exit-2"])
    def test_exact_paths_never_load_numpy(self, tmp_path, args, code, loaded):
        trace = tmp_path / "trace.json"
        args = [str(trace) if a == "TRACE" else a for a in args]
        proc = subprocess.run([sys.executable, "-c", self._REPORT_LOADS, *args],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == f"{code} False False [] {loaded}"
        assert trace.exists() == (str(trace) in args)

    # exponents certifies nothing: it loads neither the verdict module nor
    # the hashlib that the verdict's trace reference needs, nor dataclasses
    def test_exponents_load_no_verdict_module(self):
        script = ("import sys; from kphoton.cli import main; "
                  "code = main(sys.argv[1:]); "
                  "print(code, sorted({'kphoton.verdict', 'hashlib', 'dataclasses', "
                  "'inspect'} & set(sys.modules)), "
                  "'kphoton.asymptotics' in sys.modules, file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", script, "exponents", "--k", "4"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "0 [] True"

    # neither loads numpy, the scipy package, an exact module or dataclasses:
    # sweep's eigensolves call LAPACK through ctypes, and jc-exact is closed
    # form; fractions loads only to read a rational, json only for JSON output
    @pytest.mark.parametrize("args, loaded", [
        (("sweep", "--k", "2", "--g", "0.3", "--N", "20,40,60", "--m", "2"), []),
        (("sweep", "--k", "2", "--g", "3/10", "--N", "20,40,60", "--m", "2"),
         ["decimal", "fractions"]),
        (("sweep", "--k", "2", "--g", "0.3", "--N", "20,40,60", "--format", "json"), ["json"]),
        (("jc-exact", "--k", "1", "--g", "0.1", "--n-max", "2"), []),
    ], ids=["sweep", "sweep-rational", "sweep-json", "jc-exact"])
    def test_numeric_paths_load_no_numpy(self, args, loaded):
        script = ("import sys; start = set(sys.modules); "
                  "from kphoton.cli import main; "
                  "code = main(sys.argv[1:]); "
                  "print(code, sorted({'numpy', 'scipy', 'kphoton.asymptotics', "
                  "'kphoton.verdict', 'kphoton.weyl', 'dataclasses', 'inspect'} "
                  "& set(sys.modules)), "
                  "'kphoton.fock' in sys.modules, "
                  "sorted({'json', 'fractions', 'decimal'} & (set(sys.modules) - start)), "
                  "file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", script, *args],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == f"0 [] True {loaded}"


# values of the options after --k that every subcommand taking them accepts,
# truncation lists with N <= 10^4 among them, and odd values, some refused
# by every subcommand and some only by the exact ones
_SIZES = st.builds(lambda small, large: ",".join(map(str, sorted(small) + [10 ** 4] * large)),
                   st.sets(st.integers(3, 60), min_size=3, max_size=3), st.booleans())
_GOOD = {"--omega": st.sampled_from(["1", "3/10", "7/2", "2"]),
         "--delta": st.sampled_from(["0", "1/3", "-7/2", "0/5"]),
         "--g": st.sampled_from(["3/10", "0.5", "0", "1e-3"]),
         "--tol": st.sampled_from(["1e-6", "1/2"]),
         "--N": _SIZES,
         "--m": st.sampled_from(["10", "2", "5"]),
         "--n-max": st.sampled_from(["7", "0", "50", "10000"])}
_ODD = st.sampled_from(["0.5", "-1", "-1e-3", "0", "1e308", "1/0", "nan", "inf", "x", "",
                        "1.5", "20,x,40", "5,5,6", "40,20,30", "2,3,10000"])


@st.composite
def _argv(draw):
    """A subcommand from cli._COMMANDS with every option valid, --trace
    left out, and at most one changed: k one past either end of its range,
    a bad format, an odd value, or an option left out.  The options come in
    any order, each as --opt value or --opt=value."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    _, formats, k_range, _, options = cli._COMMANDS[name]
    lo, hi = k_range or (1, 4)      # ModelParams takes any k >= 1
    values = {"--k": draw(st.sampled_from([lo, hi, lo + 1])),
              "--format": draw(st.sampled_from(formats.split()))}
    for flag, _ in options:
        if flag != "--trace":
            values[flag] = draw(_GOOD[flag])
    fault = draw(st.sampled_from([None, None, *values]))
    if fault == "--k":
        values[fault] = draw(st.sampled_from([lo - 1, hi + 1]))
    elif fault == "--format":
        values[fault] = "xml"
    elif fault:
        values[fault] = draw(st.none() | _ODD)
    argv = [name]
    for flag, value in draw(st.permutations(sorted(values.items()))):
        if value is not None:
            argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, str(value)]
    return argv


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestExitCodeContract:
    @settings(max_examples=200, deadline=None)
    @given(argv=_argv())
    def test_every_argv_exits_0_2_or_3_the_same_way_twice(self, argv):
        # an exception escaping main fails the example with its argv
        code, out, err = first = _run_in_process(argv)
        assert code in (0, 2, 3), (argv, err)
        assert code == 0 or out == "", argv
        assert _run_in_process(argv) == first, argv
