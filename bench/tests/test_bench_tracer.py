"""Self-time arithmetic of the tracer, and tracing the real CLI."""

import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402

NAMES = ["root", "a", "leaf", "task"]
# (id, parent, name, thread, t0, t1, c0, c1); CPU clocks are per thread
SPANS = np.array([
    (0, -1, 0, 0, 0.0, 10.0, 0.0, 6.0),
    (1, 0, 1, 0, 1.0, 4.0, 1.0, 3.0),
    (2, 1, 2, 0, 2.0, 3.0, 1.5, 2.0),
    (3, 0, 3, 1, 3.0, 6.0, 0.0, 2.5),   # pool thread, overlaps "a"
    (4, 3, 2, 1, 5.0, 5.5, 1.0, 1.5),
    (5, 0, 1, 0, 9.5, 11.0, 5.0, 5.5),
    (6, 9, 2, 2, 0.0, 1.0, 0.0, 0.25),  # parent never closed: a root
])


def test_self_times_on_nested_spans():
    # rows are in no particular order: per thread, in closing order
    order = np.array([2, 4, 1, 3, 6, 5, 0])
    cpu_self, work = tracer.self_times(SPANS[order])
    cpu_self = dict(zip(SPANS[order, 0].astype(int), cpu_self))
    work = dict(zip(SPANS[order, 0].astype(int), work))
    # CPU self subtracts children on the same thread only
    assert cpu_self[0] == pytest.approx(6 - 2 - 0.5)
    assert cpu_self[1] == pytest.approx(2 - 0.5)
    assert cpu_self[3] == pytest.approx(2.5 - 0.5)
    assert cpu_self[2] == cpu_self[4] == pytest.approx(0.5)
    assert cpu_self[6] == pytest.approx(0.25)
    # work adds the children's work on every thread
    assert work[3] == pytest.approx(2.5)
    assert work[1] == pytest.approx(2.0)
    assert work[0] == pytest.approx(3.5 + 2.0 + 2.5 + 0.5)
    assert work[6] == pytest.approx(0.25)


def test_aggregate_by_name():
    agg = tracer.aggregate(SPANS, NAMES)
    assert agg["a"]["calls"] == 2
    assert agg["a"]["wall"] == pytest.approx(3.0 + 1.5)
    assert agg["leaf"]["cpu_self"] == pytest.approx(0.5 + 0.5 + 0.25)
    assert agg["root"]["work"] == pytest.approx(8.5)


def test_tracer_parents_across_threads():
    tr = tracer.Tracer()
    outer, inner = tr.name_id("outer"), tr.name_id("inner")
    parent = tr.open(outer)
    tr.add("n", 1)

    def worker():
        tr.open(inner, parent)
        tr.add("n", 2)
        tr.maximum("peak", 7)
        tr.close()

    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    tr.maximum("peak", 3)
    tr.close()
    rows = {tr.names[int(row[2])]: row for row in tr.table()}
    assert rows["inner"][1] == rows["outer"][0]
    assert rows["inner"][3] != rows["outer"][3]
    assert tr.counts() == {"n": 3, "peak": 7}


def test_traced_cli_counts_repeat(tmp_path):
    """Two traced solves at one seed give identical counts, the wrappers
    leave the output unchanged, and uninstall restores the package."""
    pytest.importorskip("ellipticmc")
    import traced
    from ellipticmc import cli, nonlinear

    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "dimension": 3, "domain": {"shape": "ball", "radius": 1.0},
        "F": "u^2", "U": "2", "phi": "1", "b": 2.0,
        "solver": {"seed": 3, "paths": 50, "dt": 1e-2, "grid_h": 0.5, "tol": 0.1}}))
    original = nonlinear.apply_T
    runs = []
    for k in range(2):
        tr = tracer.Tracer()
        patches, missing = traced.install(tr)
        try:
            assert cli.main(["solve", "--problem", str(problem),
                             "--out", str(tmp_path / str(k))]) == 0
        finally:
            traced.uninstall(patches)
        assert missing == []
        agg = tracer.aggregate(tr.table(), tr.names)
        runs.append(traced.deterministic_counts(agg, tr.counts()))
    assert nonlinear.apply_T is original
    assert runs[0] == runs[1]
    assert runs[0]["sampling.em.walker_steps"] > 0
    assert runs[0]["parallel.task.calls"] == runs[0]["sampling.em.calls"]
    fields = [(tmp_path / str(k) / "field.csv").read_bytes() for k in range(2)]
    assert fields[0] == fields[1]


def test_layer_metrics_match_benchmark_json():
    import traced
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert names == [*traced.layer_metrics({}, {}), "trace.overhead_s"]
