"""Benchmark of the ellipticmc CLI, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs against the checkout this file sits in: ``src/ellipticmc`` is put on
PYTHONPATH, nothing is installed. Each run writes under ``.bench_out/NAME``:
the generated problem files, every artifact, the logs, and ``run.json`` with
the environment, every operation and every check. Session i of a run solves
the workload's problem with ``solver.seed`` = SUBSEED * N + i, so the same N
gives the same inputs, and the medians average over several random streams
rather than one.

--trace 0 (end to end). A closed loop with one client, one process at a
time: ``ellipticmc validate`` SETUP_RUNS times (``setup_s`` is the median
wall time), then sessions of ``solve`` and ``diagnose`` on the solved field
until S seconds have passed, at least MIN_SESSIONS of them, then one more
session that repeats the first seed. Reports the median wall time of each
command, the median work-normalised variance of the solves (mean stderr^2
over the grid times the solve's wall time) and the median peak resident
memory of the workload's measured command (``Workload.measured``).

--trace 1 (per layer). ``traced.run`` runs sessions at the first seed
through ``ellipticmc.cli.main`` in this process, alternating untraced and
traced sessions, and this script reports the median per-layer metrics of
the traced sessions; ``trace.overhead_s`` is the traced minus the untraced
median.

Every CLI command is one operation. It fails when its exit code is not 0,
when the files it wrote differ from those of the same command at the same
seed earlier in the run, when a traced session's counts differ from the
first traced session's, or when a check on its artifacts fails (see
``checks.py``). The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; units come from
BENCHMARK.json next to this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import asdict, dataclass, field
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from time import perf_counter

import checks
from traced import run as run_traced
from workloads import WORKLOADS, read_field, recorded_verdicts, snapshot, written

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_RUNS = 7
MIN_SESSIONS = 3
SUBSEED = 1000  # session i of a run at --seed N solves at solver.seed 1000 N + i
OP_TIMEOUT_S = 120.0


@dataclass
class Op:
    command: str
    seed: int
    out: str
    wall_s: float
    rc: int
    rss_mb: float
    written: dict
    failures: list = field(default_factory=list)


def spawn(argv: list, log: Path, env: dict) -> tuple[float, int, float]:
    """Run one process to completion: (wall seconds, exit code, peak RSS MB)."""
    with open(log, "wb") as fh:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def write_problem(workload, work: Path, seed: int) -> Path:
    path = work / f"problem-{seed}.json"
    path.write_text(json.dumps(workload.problem_file(seed), indent=2) + "\n",
                    encoding="utf-8")
    return path


def run_cli(command: str, seed: int, problem: Path, out: Path, log: Path,
            env: dict) -> Op:
    before = snapshot(out)
    wall, rc, rss = spawn([sys.executable, "-m", "ellipticmc.cli", command,
                           "--problem", str(problem), "--out", str(out)], log, env)
    return Op(command, seed, str(out), wall, rc, rss, written(before, snapshot(out)))


def mark_repeats(ops: list) -> None:
    """Fail every operation that exited non-zero or whose files differ from
    those of the first operation of the same command at the same seed."""
    first: dict = {}
    for op in ops:
        ref = first.setdefault((op.command, op.seed), op)
        if op.rc != 0:
            op.failures.append(f"exit code {op.rc}")
        elif op is not ref and op.written != ref.written:
            op.failures.append("artifacts differ from the first run at this seed")


def run_checks(workload, ops: list) -> tuple[list, dict]:
    """Check the first session's artifacts at every seed; a failed check
    fails every operation of that command at that seed."""
    verdicts, recorded = [], {}
    sessions = {op.seed: Path(op.out) for op in reversed(ops) if op.command == "solve"}
    for seed, out in sorted(sessions.items()):
        for command, check in (("solve", workload.check_solve),
                               ("diagnose", workload.check_diagnose)):
            try:
                found = check(out)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                found = [checks.Verdict("artifacts_readable", False, math.inf,
                                        None, repr(exc))]
            for v in found:
                verdicts.append({"seed": seed, "command": command, **v.record()})
                if not v.ok:
                    for op in ops:
                        if (op.command, op.seed) == (command, seed):
                            op.failures.append(f"check {v.name} failed")
        try:
            recorded[seed] = recorded_verdicts(out)
        except (OSError, KeyError, ValueError) as exc:
            recorded[seed] = repr(exc)
    return verdicts, recorded


def work_var(op: Op) -> float:
    """Mean stderr^2 over the grid of this solve, times its wall time."""
    try:
        stderrs = read_field(Path(op.out) / "field.csv")[2]
        return statistics.fmean(s * s for s in stderrs) * op.wall_s
    except (OSError, ValueError, IndexError, statistics.StatisticsError):
        return math.nan


def end_to_end(workload, seed: int, work: Path, seconds: float):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    first = SUBSEED * seed
    problem = write_problem(workload, work, first)
    ops = [run_cli("validate", first, problem, work / "setup" / str(k),
                   work / "logs" / f"validate{k}.log", env)
           for k in range(SETUP_RUNS)]

    def session(i: int, session_seed: int, path: Path) -> None:
        for command in ("solve", "diagnose"):
            ops.append(run_cli(command, session_seed, path, work / f"s{i}",
                               work / "logs" / f"{command}{i}.log", env))

    start, i = perf_counter(), 0
    while i < MIN_SESSIONS or perf_counter() - start < seconds:
        session_seed = first + i
        session(i, session_seed, write_problem(workload, work, session_seed))
        i += 1
    session(i, first, problem)  # a repeat: its files must be bit-identical
    mark_repeats(ops)
    verdicts, recorded = run_checks(workload, ops)

    def median(command, value=lambda op: op.wall_s):
        return statistics.median(value(op) for op in ops if op.command == command)

    metrics = {
        "setup_s": median("validate"),
        "solve_s": median("solve"),
        "diagnose_s": median("diagnose"),
        "work_var": median("solve", work_var),
        "peak_rss_mb": median(workload.measured, lambda op: op.rss_mb),
    }
    return ops, verdicts, recorded, metrics


def per_layer(workload, seed: int, work: Path, seconds: float):
    sys.path.insert(0, str(SRC))
    first = SUBSEED * seed
    problem = write_problem(workload, work, first)
    result = run_traced(problem, work, seconds)
    untraced, traced = result["untraced"], result["traced"]
    ops = [Op(c["command"], first, str(work / s["dir"]), 0.0, c["rc"], 0.0,
              c["written"])
           for s in untraced + traced for c in s["commands"]]
    mark_repeats(ops)
    for k, s in enumerate(traced):
        if s["counts"] != traced[0]["counts"]:
            start = 2 * (len(untraced) + k)  # the solve and diagnose of session k
            for op in ops[start:start + 2]:
                op.failures.append("trace counts differ from the first traced run")
    verdicts, recorded = run_checks(workload, ops)
    metrics = {name: statistics.median(s["layers"][name] for s in traced)
               for name in traced[0]["layers"]}
    metrics["trace.overhead_s"] = (statistics.median(s["wall_s"] for s in traced)
                                   - statistics.median(s["wall_s"] for s in untraced))
    recorded["missing_trace_targets"] = result["missing"]
    return ops, verdicts, recorded, metrics


def environment() -> dict:
    def pkg(name):
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    files = sorted((SRC / "ellipticmc").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        text = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + text)
        lines += sum(1 for ln in text.decode().splitlines() if ln.strip())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": pkg("numpy"),
        "scipy": pkg("scipy"),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_nonblank_lines": lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ellipticmc" / "cli.py").is_file():
        print(f"bench: no ellipticmc sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_out" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    measure = per_layer if args.trace else end_to_end
    ops, verdicts, recorded, values = measure(workload, args.seed, work, args.seconds)
    failed = sum(1 for op in ops if op.failures)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0 and all(v["ok"] for v in verdicts),
              "attempted": len(ops), "failed": failed, "metrics": metrics}

    (work / "run.json").write_text(json.dumps({
        "args": vars(args), "environment": environment(), "checks": verdicts,
        "recorded": recorded, "operations": [asdict(op) for op in ops],
        "result": result,
    }, indent=1) + "\n", encoding="utf-8")
    for v in verdicts:
        z = "" if v["z"] is None else f" z {v['z']:.3g}"
        print(f"check seed {v['seed']} {v['command']}/{v['name']}: "
              f"{'ok' if v['ok'] else 'FAIL'} "
              f"error {v['error']:.4g}{z} ({v['detail']})", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
