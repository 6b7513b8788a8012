"""Tests for the benchmark's metric arithmetic and its BENCHMARK.json.

    python3 -m pytest perfbench/test_metrics.py -q
"""

import json
from pathlib import Path

import pytest

import metrics as M

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class TestTail:
    def test_ten_samples_beyond(self):
        samples = list(range(1, 26))            # 25 samples, 1..25
        value, pct, beyond = M.tail(samples)
        assert value == 15                      # 16..25 lie above it
        assert beyond == 10
        assert pct == pytest.approx(60.0)
        assert sum(s > value for s in samples) == 10

    def test_order_does_not_matter(self):
        samples = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0, 0.5]
        assert M.tail(samples) == M.tail(sorted(samples)) == (1.0, 100 * 2 / 12, 10)

    def test_eleven_is_the_smallest_sample_with_a_percentile(self):
        assert M.tail(list(range(11))) == (0, 100 / 11, 10)

    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_too_few_samples_reports_the_maximum(self, n):
        assert M.tail([float(i) for i in range(n)]) == (n - 1, 100.0, 0)

    def test_no_samples(self):
        with pytest.raises(ValueError):
            M.tail([])


class TestSelfTime:
    def spans(self, *rows):
        return [{"id": i, "name": n, "start": s, "end": e, "parent": p}
                for i, (n, s, e, p) in enumerate(rows)]

    def test_nested(self):
        spans = self.spans(("bench.op", 0.0, 10.0, None),
                           ("weyl.build", 1.0, 2.0, 0),
                           ("asymptotics.sub", 2.0, 7.0, 0),
                           ("asymptotics.inner", 3.0, 4.0, 2))
        assert M.self_times(spans) == pytest.approx(
            {"bench": 10 - 1 - 5, "weyl": 1.0, "asymptotics": (5 - 1) + 1})

    def test_overlapping_children_count_once(self):
        # two threads' worth of children inside one sweep span
        spans = self.spans(("fock.sweep", 0.0, 10.0, None),
                           ("fock.solve", 1.0, 6.0, 0),
                           ("fock.solve", 4.0, 8.0, 0))
        assert M.self_times(spans)["fock"] == pytest.approx((10 - 7) + 5 + 4)

    def test_children_are_clipped_to_the_parent(self):
        spans = self.spans(("cli.op", 0.0, 2.0, None), ("cli.late", 1.0, 5.0, 0))
        assert M.self_times(spans)["cli"] == pytest.approx(1.0 + 4.0)

    def test_tracer_records_parents(self):
        tr = M.Tracer()
        with tr.span("bench.op"):
            with tr.span("weyl.a"):
                pass
            with tr.span("asymptotics.b"):
                pass
        assert [(s["name"], s["parent"]) for s in tr.spans] == [
            ("bench.op", None), ("weyl.a", 0), ("asymptotics.b", 0)]
        assert all(s["end"] >= s["start"] for s in tr.spans)
        assert sum(M.self_times(tr.spans).values()) == pytest.approx(
            tr.spans[0]["end"] - tr.spans[0]["start"])


class TestFailRatio:
    def test_ratio(self):
        assert M.fail_ratio(0, 40) == 0.0
        assert M.fail_ratio(3, 12) == 0.25
        assert M.fail_ratio(5, 5) == 1.0

    @pytest.mark.parametrize("failed, attempted", [(0, 0), (-1, 3), (4, 3)])
    def test_rejects_impossible_counts(self, failed, attempted):
        with pytest.raises(ValueError):
            M.fail_ratio(failed, attempted)


class TestBenchmarkJson:
    def test_per_layer_names_match_the_probes(self):
        from probes import per_layer_units
        bench = json.loads(BENCHMARK.read_text())
        assert {m["name"]: m["unit"] for m in bench["per_layer"]} == per_layer_units()

    def test_sweep_tolerance_is_stated(self):
        from workloads import SWEEP_REL_TOL
        bench = json.loads(BENCHMARK.read_text())
        why = next(w["why"] for w in bench["workloads"] if w["name"] == "sweep-ladder")
        assert f"rel {SWEEP_REL_TOL:g}" in why
