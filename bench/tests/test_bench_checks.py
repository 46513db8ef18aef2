"""The benchmark's checks accept a right answer and reject a wrong one."""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Lambda interval of the reference problem, as validate reports it
M, M_TILDE = 0.13622482405126984, 1.0
SIGMA = 0.0037


def test_radial_closed_form():
    assert checks.radial_killed(0.0, 0.5) == pytest.approx(1 / math.sinh(1.0))
    assert checks.radial_killed(1e-9, 0.5) == pytest.approx(1 / math.sinh(1.0))
    assert checks.radial_killed(1.0, 2.0) == pytest.approx(1.0)
    assert checks.radial_killed(0.3, 0.0) == 1.0


def test_picard_bracket_inside_lambda_bracket():
    w = WORKLOADS["ref-solve"]
    radii = [0.0, 0.5, 0.5 * math.sqrt(2)]
    outer = checks.lambda_bracket(radii, M, M_TILDE, w.phi_range, w.rate)
    inner = checks.picard_bracket(radii, M, M_TILDE, w.phi_range, w.rate, [0.03])
    for (lo, hi), (ilo, ihi) in zip(outer, inner):
        assert lo <= ilo <= ihi <= hi


def _write_solve(out: Path, points, values, stderrs, max_stderrs):
    """Artifacts in the CLI's formats: '#' header lines, then data."""
    out.mkdir(parents=True, exist_ok=True)
    rows = ["# header", "x1,x2,x3,value,stderr"]
    rows += [",".join(map(repr, [*p, v, s])) for p, v, s in zip(points, values, stderrs)]
    (out / "field.csv").write_text("\n".join(rows) + "\n")
    (out / "trace.jsonl").write_text("# header\n" + "".join(
        json.dumps({"iteration": i + 1, "max_stderr": s}) + "\n"
        for i, s in enumerate(max_stderrs)))
    (out / "validation.json").write_text(json.dumps(
        {"contraction": {"m": M, "m_tilde": M_TILDE}}))


def _reference_grid():
    """The 19-point grid of grid_h = 0.5 on the unit ball."""
    ax = (-0.5, 0.0, 0.5)
    return [(a, b, c) for a in ax for b in ax for c in ax
            if a * a + b * b + c * c <= 0.5 + 1e-12]


def _verdicts(tmp_path, workload, points, values, iterations=2):
    _write_solve(tmp_path, points, values, [SIGMA] * len(values), [SIGMA] * iterations)
    return {v.name: v.ok for v in workload.check_solve(tmp_path)}


@pytest.mark.parametrize("shift", [0.0, 0.05, -0.05])
def test_ref_solve_rejects_shifted_field(tmp_path, shift):
    w = WORKLOADS["ref-solve"]
    points = _reference_grid()
    assert len(points) == w.grid_points
    radii = [math.hypot(*p) for p in points]
    allowance = checks.em_bias_allowance(M_TILDE, 1.0, w.dt)
    bracket = checks.picard_bracket(radii, M, M_TILDE, w.phi_range, w.rate,
                                    [checks.Z_GATE * SIGMA + allowance])
    values = [0.5 * (lo + hi) + shift for lo, hi in bracket]
    verdicts = _verdicts(tmp_path, w, points, values)
    assert verdicts["grid_points"]
    assert verdicts["picard_bracket"] is (shift == 0.0)


def test_ref_solve_rejects_field_below_lambda_bracket(tmp_path):
    w = WORKLOADS["ref-solve"]
    points = _reference_grid()
    lows = checks.lambda_bracket([math.hypot(*p) for p in points], M, M_TILDE,
                                 w.phi_range, w.rate)
    values = [lo - 0.05 for lo, _ in lows]
    assert not _verdicts(tmp_path, w, points, values)["picard_bracket"]


@pytest.mark.parametrize("shift, ok", [(0.0, True), (0.004, True), (0.05, False),
                                       (-0.05, False)])
def test_point_query_closed_form(tmp_path, shift, ok):
    w = WORKLOADS["point-query"]
    value = 1 / math.sinh(1.0) + shift
    verdicts = _verdicts(tmp_path, w, [(0.0, 0.0, 0.0)], [value])
    assert verdicts["picard_bracket"] is ok


def test_missing_grid_points_fail(tmp_path):
    w = WORKLOADS["point-query"]
    assert not _verdicts(tmp_path, w, [], [])["picard_bracket"]
    assert not _verdicts(tmp_path, w, [], [])["grid_points"]


@pytest.mark.parametrize("factor, ok", [(1.0, True), (0.997, True), (1.02, False),
                                        (0.98, False)])
def test_green_tight_norm(factor, ok):
    assert checks.check_norm(4 * math.pi * factor, 4 * math.pi).ok is ok
