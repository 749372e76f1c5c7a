"""Tests of the benchmark itself: checks fail on tampered results, and the
span arithmetic is right.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
from spans import OP, SETUP, Span, Tracer, layer_metrics, self_times
from workloads import EVAL_POOL, TABLE6, Classify6, Eval, Present7, Table6

polyak = run.import_polyak()


@pytest.fixture(scope="module")
def api():
    return run.load_api(None)


@pytest.fixture(scope="module")
def table4():
    return polyak.build_table(4)


def test_self_time_on_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 5.0, 9.0, parent=0),
        Span("b.child", 6.0, 8.0, parent=2),
        # Overlapping siblings and a child running past its parent's end
        # count each covered instant once.
        Span("c", 20.0, 30.0),
        Span("c1", 21.0, 25.0, parent=4),
        Span("c2", 23.0, 27.0, parent=4),
        Span("c3", 29.0, 35.0, parent=4),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 2.0, 3.0, 4.0, 4.0, 6.0])


def test_layer_metrics_per_unit():
    spans = []

    def add(name, start, end, parent=-1, **attrs):
        spans.append(Span(name, start, end, parent, attrs))
        return len(spans) - 1

    # Set-up builds a table once; two operations each run an SNF whose
    # endgame line came 3 s in.
    s = add(SETUP, 0.0, 10.0)
    t = add("invariant.build_table", 0.0, 9.0, s)
    add("smith.snf_sparse_mod2k", 1.0, 8.0, t, rows=4, cols=5, nnz_in=6, nontrivial=2,
        endgame_at=6.0)
    for start in (20.0, 30.0):
        o = add(OP, start, start + 5.0)
        add("smith.snf_sparse_mod2k", start, start + 4.0, o, rows=10, cols=20, nnz_in=30,
            nontrivial=3, endgame_at=start + 3.0)
        add("invariant.evaluate", start + 4.0, start + 4.5, o, rank=9, degree=6)
    # Spans outside any benchmark root (checks after measuring) are ignored.
    add("invariant.evaluate", 50.0, 60.0, rank=9, degree=6)

    m = layer_metrics(spans)
    assert m["smith.snf_s"] == pytest.approx(4.0)
    assert m["smith.pre_endgame_s"] == pytest.approx(3.0)
    assert m["smith.endgame_s"] == pytest.approx(1.0)
    assert m["smith.rows"] == 10 and m["smith.nontrivial"] == 3
    assert m["invariant.extract_s"] == pytest.approx(2.0)  # 9 s minus the 7 s SNF
    assert m["invariant.evaluate_calls"] == 1
    assert m["invariant.evaluate_gt8_per_s"] == pytest.approx(2.0)
    assert m["invariant.subsets_per_s"] == pytest.approx((36 + 84 + 126 + 126 + 84) / 0.5)
    assert m["homotopy.searches"] == 0 and m["homotopy.nodes_per_s"] == 0

    spec = run.benchmark_spec()
    assert set(m) | {"bench.traced_op_p50_s"} == {x["name"] for x in spec["per_layer"]}


def test_tracer_wraps_module_bindings_and_restores_them(table4):
    classify_module = __import__("importlib").import_module("polyak.classify")
    search = classify_module.search
    tracer = Tracer()
    tracer.install()
    try:
        c = classify_module.classify(4, table4)
    finally:
        tracer.uninstall()
    assert classify_module.search is search
    names = {s.name for s in tracer.spans}
    assert {"homotopy.search", "homotopy.reduce_with_trace", "invariant.evaluate",
            "words.enumerate_canonical"} <= names
    searches = [s for s in tracer.spans if s.name == "homotopy.search"]
    assert all("nodes" in s.attrs for s in searches)
    assert len(c.classes) > 0


@pytest.mark.parametrize(
    "expected",
    [None, {"divisors": {2: 31, 4: 6, 8: 1}}, {"table_sha256": "0" * 64}],
    ids=["published", "tampered-divisors", "tampered-digest"],
)
def test_table6_run_reports_numbers_only_when_checks_pass(expected):
    record = run.run_workload(Table6(expected), seed=1, seconds=0, trace=False)
    line = run.result(record, run.benchmark_spec())
    if expected is None:
        assert line["correct"] and line["failed"] == 0
        assert set(line["metrics"]) == {"setup_s", "op_p50_s", "op_p99_s", "ops_per_s",
                                        "peak_rss_mb"}
        assert record["digests"]["table_sha256"] == TABLE6["table_sha256"]
    else:
        assert not line["correct"] and line["failed"] >= 1
        assert line["metrics"] == {}


def test_present7_check_rejects_tampered_counts(api):
    wl = Present7()
    pres = SimpleNamespace(generators=[None] * 51870, raw_counts=(358644, 128926),
                           relations=[None] * 176591)
    assert wl.check(api, (pres, SimpleNamespace(nnz=626173))) == []
    assert len(wl.check(api, (pres, SimpleNamespace(nnz=626172)))) == 1
    pres.relations.pop()
    assert len(wl.check(api, (pres, SimpleNamespace(nnz=626173)))) == 1


def test_classify_check_rejects_tampered_report_and_trace(api, table4):
    c = polyak.classify(4, table4)
    wl = Classify6(Classify6().observe(api, c))
    assert wl.check(api, c) == []
    # Give a class another class's root: its members' traces no longer end there.
    c.classes[0] = dataclasses.replace(c.classes[0], root=c.classes[1].root)
    assert any("replay_failures" in e for e in wl.check(api, c))
    c.unresolved.append((0, 1))
    failed = wl.check(api, c)
    assert any("unresolved" in e for e in failed)
    assert any("report_sha256" in e for e in failed)


def test_eval_checks_reject_tampered_values(api, table4):
    wl = Eval()
    wl.seed, wl.table, wl.calls, wl.values = 1, table4, 0, []
    wl.pool = [polyak.canonicalize([0, 1, 0, 2, 1, 2])] * EVAL_POOL
    for _ in range(EVAL_POOL):
        assert wl.check(api, wl.op(api)) == []
    i, value = wl.op(api)
    assert len(wl.check(api, (i, tuple(c + 1 for c in value)))) == 1

    # An "invariant" that reads the rank changes under every reduction.
    wl.pool = [polyak.canonicalize([0, 0, 1, 2, 1, 2])] * EVAL_POOL
    tampered = SimpleNamespace(**{**vars(api), "evaluate": lambda table, w: (w.rank,)})
    attempted, failed = wl.final_checks(tampered)
    assert attempted > 1
    assert any("move_mismatches" in e for e in failed)
    assert any("reference_sha256" in e for e in failed)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for src in run.BENCH.glob("*.py"):
        shutil.copy(src, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_random_words_follow_the_seed(api):
    from workloads import random_words

    a = random_words(api, random.Random(5), 14)
    assert a == random_words(api, random.Random(5), 14)
    assert a != random_words(api, random.Random(6), 14)
    assert [w.rank for w in a[:7]] == [6, 7, 8, 8, 9, 10, 11]
