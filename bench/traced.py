"""Traced sessions of the ellipticmc CLI, run in this process.

``run(problem, out, seconds)`` alternates an untraced and a traced session,
each ``cli.main(["solve", ...])`` and then ``cli.main(["diagnose", ...])``,
until ``seconds`` have passed and at least MIN_PAIRS pairs ran. For a traced
session the public functions at the boundary of each ``src/ellipticmc``
module are wrapped (``TARGETS``); the modules themselves are not edited, and
the originals are restored after the session. The spans of the last traced
session are written to OUT/spans.f64 and OUT/spans.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import tracer as tracing
import workloads

MIN_PAIRS = 2
PACKAGE = "ellipticmc"


def _rows(x) -> int:
    shape = np.shape(x)
    return shape[0] if len(shape) > 1 else 1


# -- wrappers ---------------------------------------------------------------


def span(name, count=None):
    """Factory for a wrapper that records a span ``name`` around each call
    and then calls ``count(tracer, args, kwargs, result)``."""

    def make(tr, fn):
        nid = tr.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tr.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.close()
            if count is not None:
                count(tr, args, kwargs, result)
            return result

        return traced

    return make


def count_only(count):
    def make(tr, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(tr, args, kwargs, result)
            return result

        return counted

    return make


def rows_of(key, index):
    return lambda tr, args, kwargs, result: tr.add(key, _rows(args[index]))


def _em(tr, fn):
    """Walker steps of an EM batch: exit times over the step it was given."""
    signature = inspect.signature(fn)

    def count(tr, args, kwargs, result):
        dt = signature.bind(*args, **kwargs).arguments["dt"]
        steps = np.rint(result[1] / dt)
        tr.add("sampling.em.walker_steps", int(steps.sum()))
        tr.maximum("sampling.em.max_path_steps", int(steps.max(initial=0)))

    return span("sampling.em", count)(tr, fn)


def _count_wos(tr, args, kwargs, result):
    tr.add("sampling.wos.walker_steps", int(np.sum(result[1])))


def _count_picard(tr, args, kwargs, result):
    trace = result[1]
    tr.add("nonlinear.picard.iterations", trace.iterations)
    tr.add("nonlinear.picard.clamp_violations", int(sum(trace.clamp_violations)))
    if trace.sup_diffs:
        tr.notes["nonlinear.picard.final_sup_diff"] = trace.sup_diffs[-1]


def _count_within_budget(tr, args, kwargs, result):
    tr.add("diagnostics.weak_residual.within_budget", sum(r.ok for r in result))


def _count_bytes(tr, args, kwargs, result):
    tr.add("io.write.bytes", Path(args[0]).stat().st_size)


def _count_pairs(tr, args, kwargs, result):
    # one call per x sample: every quadrature cell against that x
    tr.add("diagnostics.quadrature.kernel_pairs", len(args[0].points))


def _q_of(tr, fn):
    """q_of builds the weight closure; the closure is what the sampler calls."""
    nid = tr.name_id("nonlinear.q_u")

    @functools.wraps(fn)
    def q_of(*args, **kwargs):
        q = fn(*args, **kwargs)

        def q_u(pts):
            tr.open(nid)
            try:
                return q(pts)
            finally:
                tr.close()
                tr.add("nonlinear.q_u.points", _rows(pts))

        return q_u

    return q_of


def _map_indexed(tr, fn):
    """Each task runs on a pool thread; its span names the map as parent."""
    map_id, task_id = tr.name_id("parallel.map"), tr.name_id("parallel.task")

    @functools.wraps(fn)
    def map_indexed(task, n, *args, **kwargs):
        parent = tr.open(map_id)

        def traced_task(i):
            tr.open(task_id, parent)
            try:
                return task(i)
            finally:
                tr.close()

        try:
            return fn(traced_task, n, *args, **kwargs)
        finally:
            tr.close()

    return map_indexed


# (module, attribute, wrapper factory). Methods are patched on their class;
# module functions wherever a package module holds the same object.
TARGETS = [
    ("problemspec", "load", span("problemspec.load")),
    ("problemspec", "validate", span("problemspec.validate")),
    ("problemspec", "ProblemSpec.F", span("exprlang.eval", rows_of("exprlang.eval.points", 1))),
    ("problemspec", "ProblemSpec.U", span("exprlang.eval", rows_of("exprlang.eval.points", 1))),
    ("problemspec", "ProblemSpec.phi", span("exprlang.eval", rows_of("exprlang.eval.points", 1))),
    ("nonlinear", "lambda_bounds", span("nonlinear.prepare")),
    ("nonlinear", "lipschitz_constant", span("nonlinear.prepare")),
    ("nonlinear", "picard_solve", span("nonlinear.picard", _count_picard)),
    ("nonlinear", "apply_T", span("nonlinear.apply_T")),
    ("nonlinear", "q_of", _q_of),
    ("sampling", "em_path_batch", _em),
    ("sampling", "wos_exit_batch", span("sampling.wos", _count_wos)),
    ("fields", "Field.nearest_index", span("fields.nearest", rows_of("fields.nearest.points", 1))),
    ("geometry", "DomainGeometry.signed_distance",
     span("geometry.signed_distance", rows_of("geometry.signed_distance.points", 1))),
    ("linear", "schrodinger_solution", span("linear.schrodinger")),
    ("linear", "harmonic_extension", span("linear.harmonic")),
    ("linear", "green_potential", span("linear.green")),
    ("linear", "field_harmonic_extension", span("linear.field_harmonic")),
    ("parallel", "map_indexed", _map_indexed),
    ("diagnostics", "green_tight_norm", span("diagnostics.quadrature")),
    ("diagnostics", "kato_modulus", span("diagnostics.quadrature")),
    ("diagnostics", "_kernel_quadrature", count_only(_count_pairs)),
    ("diagnostics", "control_function_heuristic", span("diagnostics.control")),
    ("diagnostics", "controlled_convergence_check", span("diagnostics.convergence")),
    ("diagnostics", "weak_residual", span("diagnostics.weak_residual", _count_within_budget)),
    ("io", "write_field_csv", span("io.write", _count_bytes)),
    ("io", "write_records", span("io.write", _count_bytes)),
    ("io", "write_json", span("io.write", _count_bytes)),
]


def install(tr: tracing.Tracer) -> tuple[list, list]:
    """Wrap every target that exists. Returns (patches, missing targets);
    pass the patches to ``uninstall``."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    patches, missing = [], []
    for modname, attr, make in TARGETS:
        try:
            mod = importlib.import_module(f"{PACKAGE}.{modname}")
        except ImportError:
            missing.append(f"{modname}.{attr}")
            continue
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        orig = vars(owner).get(name) if owner is not None else None
        if not callable(orig):
            missing.append(f"{modname}.{attr}")
            continue
        if owner_name:
            holders = [(owner, name)]
        else:
            holders = [(m, key) for m in modules + [mod]
                       for key, value in list(vars(m).items()) if value is orig]
        wrapped = make(tr, orig)
        for holder, key in dict.fromkeys(holders):
            patches.append((holder, key, orig))
            setattr(holder, key, wrapped)
    return patches, missing


def uninstall(patches: list) -> None:
    for holder, key, orig in reversed(patches):
        setattr(holder, key, orig)


# -- metrics ----------------------------------------------------------------


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(agg: dict, counts: dict) -> dict:
    """The per-layer metrics of one traced session. ``*.self_s`` are
    thread-CPU self seconds; ``*.s`` and ``*.wall_s`` are wall seconds of the
    calls, inclusive; ``steps_per_s`` and ``pairs_per_s`` divide by work,
    the inclusive CPU seconds of the calls. ``agg`` is from
    ``tracer.aggregate``."""

    def g(name, field):
        return agg.get(name, {}).get(field, 0)

    def c(key):
        return counts.get(key, 0)

    em_steps, wos_steps = c("sampling.em.walker_steps"), c("sampling.wos.walker_steps")
    pairs = c("diagnostics.quadrature.kernel_pairs")
    task_s = g("parallel.task", "cpu")
    return {
        "sampling.em.calls": g("sampling.em", "calls"),
        "sampling.em.walker_steps": em_steps,
        "sampling.em.self_s": g("sampling.em", "cpu_self"),
        "sampling.em.steps_per_s": _ratio(em_steps, g("sampling.em", "work")),
        "sampling.em.max_path_steps": c("sampling.em.max_path_steps"),
        "sampling.wos.calls": g("sampling.wos", "calls"),
        "sampling.wos.walker_steps": wos_steps,
        "sampling.wos.self_s": g("sampling.wos", "cpu_self"),
        "sampling.wos.steps_per_s": _ratio(wos_steps, g("sampling.wos", "work")),
        "nonlinear.q_u.calls": g("nonlinear.q_u", "calls"),
        "nonlinear.q_u.points": c("nonlinear.q_u.points"),
        "nonlinear.q_u.self_s": g("nonlinear.q_u", "cpu_self"),
        "nonlinear.q_u.share": _ratio(g("nonlinear.q_u", "work"),
                                      g("nonlinear.apply_T", "work")),
        "nonlinear.apply_T.s": g("nonlinear.apply_T", "wall"),
        "nonlinear.picard.iterations": c("nonlinear.picard.iterations"),
        "nonlinear.picard.final_sup_diff": c("nonlinear.picard.final_sup_diff"),
        "nonlinear.picard.clamp_violations": c("nonlinear.picard.clamp_violations"),
        "nonlinear.prepare.calls": g("nonlinear.prepare", "calls"),
        "nonlinear.prepare.s": g("nonlinear.prepare", "wall"),
        "fields.nearest.calls": g("fields.nearest", "calls"),
        "fields.nearest.points": c("fields.nearest.points"),
        "fields.nearest.self_s": g("fields.nearest", "cpu_self"),
        "exprlang.eval.calls": g("exprlang.eval", "calls"),
        "exprlang.eval.points": c("exprlang.eval.points"),
        "exprlang.eval.self_s": g("exprlang.eval", "cpu_self"),
        "geometry.signed_distance.calls": g("geometry.signed_distance", "calls"),
        "geometry.signed_distance.points": c("geometry.signed_distance.points"),
        "geometry.signed_distance.self_s": g("geometry.signed_distance", "cpu_self"),
        "linear.schrodinger.calls": g("linear.schrodinger", "calls"),
        "linear.harmonic.calls": g("linear.harmonic", "calls"),
        "linear.self_s": sum(row["cpu_self"] for name, row in agg.items()
                             if name.startswith("linear.")),
        "parallel.map.wall_s": g("parallel.map", "wall"),
        "parallel.map.task_s": task_s,
        "parallel.map.overlap": _ratio(task_s, g("parallel.map", "wall")),
        "diagnostics.quadrature.calls": g("diagnostics.quadrature", "calls"),
        "diagnostics.quadrature.kernel_pairs": pairs,
        "diagnostics.quadrature.self_s": g("diagnostics.quadrature", "cpu_self"),
        "diagnostics.quadrature.pairs_per_s": _ratio(pairs, g("diagnostics.quadrature", "work")),
        "diagnostics.control.s": g("diagnostics.control", "wall"),
        "diagnostics.convergence.s": g("diagnostics.convergence", "wall"),
        "diagnostics.weak_residual.s": g("diagnostics.weak_residual", "wall"),
        "diagnostics.weak_residual.within_budget": c("diagnostics.weak_residual.within_budget"),
        "problemspec.load.s": g("problemspec.load", "wall"),
        "problemspec.validate.s": g("problemspec.validate", "wall"),
        "io.write.calls": g("io.write", "calls"),
        "io.write.bytes": c("io.write.bytes"),
        "io.write.s": g("io.write", "wall"),
    }


def deterministic_counts(agg: dict, counts: dict) -> dict:
    """Calls per span name plus every counter: equal for equal inputs."""
    calls = {f"{name}.calls": row["calls"] for name, row in agg.items()}
    return {**dict(sorted(calls.items())), **dict(sorted(counts.items()))}


# -- sessions ---------------------------------------------------------------


def session(cli, problem: Path, out: Path, log, tr=None) -> dict:
    """solve, then diagnose, into ``out``; each command is one root span."""
    out.mkdir(parents=True, exist_ok=True)
    commands = []
    t0 = perf_counter()
    for command in ("solve", "diagnose"):
        before = workloads.snapshot(out)
        if tr is not None:
            tr.open(tr.name_id(f"cli.{command}"))
        try:
            with redirect_stdout(log), redirect_stderr(log):
                rc = cli.main([command, "--problem", str(problem), "--out", str(out)])
        finally:
            if tr is not None:
                tr.close()
        commands.append({"command": command, "rc": rc,
                         "written": workloads.written(before, workloads.snapshot(out))})
    return {"dir": out.name, "wall_s": perf_counter() - t0, "commands": commands}


def run(problem: Path, out: Path, seconds: float) -> dict:
    """Per session: wall time, exit codes and sha256 of the files each
    command wrote; for traced sessions also the per-layer metrics and the
    deterministic counts. Returns {"untraced": [...], "traced": [...],
    "missing": [targets not found in the package]}."""
    from ellipticmc import cli

    result = {"untraced": [], "traced": [], "missing": []}
    start = perf_counter()
    with open(out / "traced.log", "w", encoding="utf-8") as log:
        i = 0
        while i < MIN_PAIRS or perf_counter() - start < seconds:
            result["untraced"].append(session(cli, problem, out / f"u{i}", log))
            tr = tracing.Tracer()
            patches, result["missing"] = install(tr)
            try:
                rec = session(cli, problem, out / f"t{i}", log, tr)
            finally:
                uninstall(patches)
            agg, counts = tracing.aggregate(tr.table(), tr.names), tr.counts()
            rec["layers"] = layer_metrics(agg, counts)
            rec["counts"] = deterministic_counts(agg, counts)
            tr.dump(out / "spans")
            result["traced"].append(rec)
            i += 1
    return result
