"""The benchmark's workloads: one problem file each, run as a user runs it.

Every workload is the same closed-loop session, one client and one process
at a time: ``ellipticmc solve`` and then ``ellipticmc diagnose`` on the
solved field, with only ``--problem`` and ``--out``. No ``--threads`` is
passed, so the CLI default of os.cpu_count() threads is what is measured,
and no ``bridge`` key is set. The seed is a benchmark argument written into
``solver.seed``.

Schema note: ``ref-solve`` and ``diagnose-jump`` pin ``solver.dt`` (1e-3).
That key is the only one used here that a grid-free sampler would make
obsolete; such a change must keep accepting it or revise this benchmark
first. ``point-query`` relies on the default dt, (1e-2 R)^2 = 1e-4.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

TEST_DT = 1e-3
DEFAULT_DT = 1e-4


def _rate_u_squared(lo: float, hi: float) -> tuple[float, float]:
    # F = u^2 gives q_u = -u, so the killing rate is the field value itself
    return lo, hi


def _rate_half(lo: float, hi: float) -> tuple[float, float]:
    # F = 0.5 u gives q_u = -0.5 whatever the field
    return 0.5, 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    problem: dict          # problem file without solver.seed
    phi_range: tuple       # bounds of the boundary data
    rate: Callable         # killing-rate range for a field in [lo, hi]
    dt: float              # EM step the solve uses, for the bias allowance
    grid_points: int       # interior grid size at the pinned grid_h
    norm_U: float          # closed form of ||U||_D = 2 pi U on the unit ball
    measured: str          # the command whose peak memory is peak_rss_mb

    def problem_file(self, seed: int) -> dict:
        return {**self.problem, "solver": {**self.problem["solver"], "seed": seed}}

    def check_solve(self, out: Path) -> list:
        """Checks on the artifacts ``solve`` wrote into ``out``."""
        contraction = read_json(out / "validation.json")["contraction"]
        m, m_tilde = contraction["m"], contraction["m_tilde"]
        points, values, stderrs = read_field(out / "field.csv")
        radii = [math.hypot(*p) for p in points]
        allowance = checks.em_bias_allowance(
            self.rate(m, m_tilde)[1], self.phi_range[1], self.dt)
        widths = [checks.Z_GATE * rec["max_stderr"] + allowance
                  for rec in read_records(out / "trace.jsonl")[:-1]]
        n = len(values)
        return [
            checks.Verdict("grid_points", n == self.grid_points, 0.0, 0.0,
                           f"{n} points, expected {self.grid_points}"),
            checks.check_bracket(
                "picard_bracket", values, stderrs,
                checks.picard_bracket(radii, m, m_tilde, self.phi_range,
                                      self.rate, widths),
                allowance),
        ]

    def check_diagnose(self, out: Path) -> list:
        """Checks on the artifacts ``diagnose`` wrote into ``out``."""
        norm = read_json(out / "green_tight.json")["green_tight_norm_U"]
        return [checks.check_norm(norm, self.norm_U)]


def recorded_verdicts(out: Path) -> dict:
    """Verdicts ``diagnose`` wrote that are recorded but not gated: the weak
    residual budget is a known defect, and the benchmark neither hides it nor
    depends on it."""
    residuals = read_records(out / "weak_residuals.jsonl")
    sequences = read_records(out / "controlled_convergence.jsonl")
    return {
        "weak_residuals_within_budget":
            f"{sum(r['pass'] for r in residuals)}/{len(residuals)}",
        "controlled_convergence_passed":
            f"{sum(r['pass'] for r in sequences)}/{len(sequences)}",
    }


def snapshot(out: Path) -> dict:
    """sha256 of every file directly in ``out``."""
    if not out.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def written(before: dict, after: dict) -> dict:
    """The files of ``after`` that are new or changed since ``before``."""
    return {k: v for k, v in after.items() if before.get(k) != v}


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def read_records(path: Path) -> list:
    """Line-delimited JSON after the '#' header lines."""
    return [json.loads(ln) for ln in path.read_text(encoding="utf-8").splitlines()
            if ln and not ln.startswith("#")]


def read_field(path: Path):
    """(points, values, stderrs) of a field CSV (x1..xd, value, stderr)."""
    rows = [ln.split(",") for ln in path.read_text(encoding="utf-8").splitlines()
            if ln and not ln.startswith("#")][1:]
    data = [[float(tok) for tok in row] for row in rows]
    return ([row[:-2] for row in data], [row[-2] for row in data],
            [row[-1] for row in data])


_BALL = {"dimension": 3, "domain": {"shape": "ball", "radius": 1.0}}

WORKLOADS = {
    w.name: w for w in (
        # The reference problem at test settings, tol 0.1 so the loop stops on
        # tol at iteration 2: 19 EM batches per iteration, a weight q_u that
        # depends on u, and the 19-point thread pool. Batching over the grid
        # acts here.
        Workload(
            name="ref-solve",
            problem={**_BALL, "F": "u^2", "U": "2", "phi": "1", "b": 2.0,
                     "solver": {"grid_h": 0.5, "dt": TEST_DT, "paths": 1000,
                                "tol": 0.1}},
            phi_range=(1.0, 1.0), rate=_rate_u_squared, dt=TEST_DT,
            grid_points=19, norm_U=4.0 * math.pi, measured="solve",
        ),
        # The linear problem at the centre alone (grid_h 1) with the default
        # dt: one wide EM batch whose slowest paths take about 20k steps, no
        # per-point loop or pool. A sampler change acts here, batching not.
        Workload(
            name="point-query",
            problem={**_BALL, "F": "0.5 * u", "U": "0.5", "phi": "1",
                     "solver": {"grid_h": 1.0, "paths": 4000}},
            phi_range=(1.0, 1.0), rate=_rate_half, dt=DEFAULT_DT,
            grid_points=1, norm_U=math.pi, measured="solve",
        ),
        # Jump data with the equator declared as discontinuity set: diagnose
        # builds the control field and runs WoS harmonic extensions, and the
        # Green-tight/Kato quadrature carries most of it. No EM, no q_u there.
        Workload(
            name="diagnose-jump",
            problem={**_BALL, "F": "u^2", "U": "2", "phi": "1 + 0.5 * step(x3)",
                     "b": 2.0,
                     "solver": {"grid_h": 0.5, "dt": TEST_DT, "paths": 1000,
                                "tol": 0.1},
                     "diagnostics": {"discontinuity_set": [
                         {"type": "circle", "center": [0.0, 0.0, 0.0],
                          "radius": 1.0, "axis": 2}]}},
            phi_range=(1.0, 1.5), rate=_rate_u_squared, dt=TEST_DT,
            grid_points=19, norm_U=4.0 * math.pi, measured="diagnose",
        ),
    )
}
