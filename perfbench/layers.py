"""socfem's layers as the tracer sees them: hook targets and per-layer metrics.

Layers are the program's modules: ``fem`` (assembly, factorization,
implicit-Euler and mass solves, load vectors), ``paths`` (ensemble
sampling), ``spde`` (forward / backward sweeps), ``optimizer`` (the GP
workspace and loop), ``analysis`` (per-cell setup, error accumulation,
tables) and ``cli`` (the entry point and its file output).

Every ``*_s`` metric is inclusive wall time of that span, summed over
calls; ``<layer>.self_s`` sums the self time of all the layer's spans, so
the ``self_s`` values of all layers add up to the traced ``cli.main`` time.
A ratio whose denominator is zero on a workload (say, per-column cost of
multi-column solves on a workload without paths) reads 0.
"""

from __future__ import annotations

import math
from pathlib import Path

from tracer import Hook, Tracer

BLOCK_FALLBACK = 512  # socfem.paths.BLOCK at the time of writing


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _solve_label(args, kwargs) -> str:
    shape = getattr(_arg(args, kwargs, 1, "rhs"), "shape", ())
    return "[n]" if len(shape) == 2 and shape[1] > 1 else "[1]"


def _solve_cols(args, kwargs, result) -> dict:
    shape = getattr(_arg(args, kwargs, 1, "rhs"), "shape", ())
    return {"cols": shape[1] if len(shape) == 2 else 1}


def _path_steps(args, kwargs, resume) -> dict:
    first, (_, x) = resume
    return {"path_steps": 0 if first else x.shape[1]}


def _paths_drawn(args, kwargs, result) -> dict:
    return {"paths": _arg(args, kwargs, 0, "P") or 0}


def _gp_iterations(args, kwargs, result) -> dict:
    return {"iterations": len(result.records) if result is not None else 0}


def _error_blocks(args, kwargs, result) -> dict:
    import socfem.paths

    ensemble = _arg(args, kwargs, 2, "ensemble")
    block = getattr(socfem.paths, "BLOCK", BLOCK_FALLBACK)
    return {"blocks": math.ceil(ensemble.paths / block) if ensemble is not None else 0}


HOOKS = [
    Hook("socfem.fem:assemble", "fem.assemble"),
    Hook("socfem.fem:EulerSolver.__init__", "fem.factorize"),
    Hook("socfem.fem:EulerSolver.solve", "fem.solve", _solve_cols, _solve_label),
    Hook("socfem.fem:FemSystem.mass_solve", "fem.mass_solve"),
    Hook("socfem.fem:load_vector", "fem.load"),
    Hook("socfem.fem:load_from_values", "fem.load"),
    Hook("socfem.paths:sample", "paths.sample", _paths_drawn),
    Hook("socfem.spde:iter_forward_paths", "spde.path_sweep", _path_steps),
    Hook("socfem.spde:forward_mean", "spde.forward_mean"),
    Hook("socfem.spde:control_response", "spde.control_response"),
    Hook("socfem.spde:backward_adjoint_from_loads", "spde.backward_adjoint"),
    Hook("socfem.spde:mtilde_solve", "spde.mtilde"),
    Hook("socfem.spde:qtilde_solve", "spde.qtilde"),
    Hook("socfem.optimizer:GradientProjection.__init__", "optimizer.gp_setup"),
    Hook("socfem.optimizer:GradientProjection.run", "optimizer.gp_run", _gp_iterations),
    Hook("socfem.analysis:setup", "analysis.setup"),
    Hook("socfem.analysis:compute_errors", "analysis.compute_errors", _error_blocks),
    Hook("socfem.analysis:discrete_constraint_level", "analysis.discrete_delta"),
    Hook("socfem.analysis:convergence_study", "analysis.convergence_study"),
    Hook("socfem.analysis:constraint_table", "analysis.constraint_table"),
    Hook("socfem.cli:main", "cli.main"),
    Hook("pathlib:Path.write_text", "cli.write"),
    Hook("pathlib:Path.write_bytes", "cli.write"),
]

LAYERS = ("fem", "paths", "spde", "optimizer", "analysis", "cli")


def _s(ns: int) -> float:
    return ns / 1e9


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced invocation: name -> (value, unit, spans).

    ``spans`` lists the span names a metric is computed from; the caller
    marks the metric absent when any of them was not installed.
    """
    t = tracer.totals
    solve1, solven = t("fem.solve[1]"), t("fem.solve[n]")
    sweep = t("spde.path_sweep", exclude_parents=("spde.forward_mean",))
    fmean, resp = t("spde.forward_mean"), t("spde.control_response")
    back, mt, qt = t("spde.backward_adjoint"), t("spde.mtilde"), t("spde.qtilde")
    gp_setup, gp_run = t("optimizer.gp_setup"), t("optimizer.gp_run")
    iterations = gp_run.counters.get("iterations", 0)
    sample, write = t("paths.sample"), t("cli.write")
    out = {
        "fem.assemble_calls": (t("fem.assemble").calls, "count", ["fem.assemble"]),
        "fem.assemble_s": (_s(t("fem.assemble").total_ns), "s", ["fem.assemble"]),
        "fem.factorizations": (t("fem.factorize").calls, "count", ["fem.factorize"]),
        "fem.factorize_s": (_s(t("fem.factorize").total_ns), "s", ["fem.factorize"]),
        "fem.solve_calls": (solve1.calls + solven.calls, "count", ["fem.solve"]),
        "fem.solve_cols": (
            solve1.counters.get("cols", 0) + solven.counters.get("cols", 0), "count", ["fem.solve"]
        ),
        "fem.solve_1col_us": (_ratio(solve1.total_ns / 1e3, solve1.calls), "us", ["fem.solve"]),
        "fem.solve_1col_s": (_s(solve1.total_ns), "s", ["fem.solve"]),
        "fem.solve_ncol_us_per_col": (
            _ratio(solven.total_ns / 1e3, solven.counters.get("cols", 0)), "us", ["fem.solve"]
        ),
        "fem.solve_ncol_s": (_s(solven.total_ns), "s", ["fem.solve"]),
        "fem.mass_solve_calls": (t("fem.mass_solve").calls, "count", ["fem.mass_solve"]),
        "fem.mass_solve_s": (_s(t("fem.mass_solve").total_ns), "s", ["fem.mass_solve"]),
        "fem.load_calls": (t("fem.load").calls, "count", ["fem.load"]),
        "fem.load_s": (_s(t("fem.load").total_ns), "s", ["fem.load"]),
        "paths.sample_calls": (sample.calls, "count", ["paths.sample"]),
        "paths.sample_s": (_s(sample.total_ns), "s", ["paths.sample"]),
        "paths.paths_drawn": (sample.counters.get("paths", 0), "count", ["paths.sample"]),
        "spde.path_steps": (sweep.counters.get("path_steps", 0), "count", ["spde.path_sweep"]),
        "spde.path_sweep_s": (_s(sweep.total_ns), "s", ["spde.path_sweep", "spde.forward_mean"]),
        "spde.mean_sweeps": (
            fmean.calls + resp.calls + back.calls + mt.calls,
            "count",
            ["spde.forward_mean", "spde.control_response", "spde.backward_adjoint", "spde.mtilde"],
        ),
        "spde.control_response_s": (
            _s(t("spde.control_response", exclude_parents=("spde.qtilde",)).total_ns),
            "s",
            ["spde.control_response", "spde.qtilde"],
        ),
        "spde.backward_adjoint_s": (_s(back.total_ns), "s", ["spde.backward_adjoint"]),
        "spde.aux_fields_s": (_s(mt.total_ns + qt.total_ns), "s", ["spde.mtilde", "spde.qtilde"]),
        "spde.forward_mean_s": (_s(fmean.total_ns), "s", ["spde.forward_mean"]),
        "optimizer.gp_setups": (gp_setup.calls, "count", ["optimizer.gp_setup"]),
        "optimizer.gp_setup_s": (_s(gp_setup.total_ns), "s", ["optimizer.gp_setup"]),
        "optimizer.gp_iterations": (iterations, "count", ["optimizer.gp_run"]),
        "optimizer.gp_run_s": (_s(gp_run.total_ns), "s", ["optimizer.gp_run"]),
        "optimizer.iter_ms": (_ratio(gp_run.total_ns / 1e6, iterations), "ms", ["optimizer.gp_run"]),
        "analysis.setup_calls": (t("analysis.setup").calls, "count", ["analysis.setup"]),
        "analysis.setup_s": (_s(t("analysis.setup").total_ns), "s", ["analysis.setup"]),
        "analysis.compute_errors_s": (
            _s(t("analysis.compute_errors").total_ns), "s", ["analysis.compute_errors"]
        ),
        "analysis.error_blocks": (
            t("analysis.compute_errors").counters.get("blocks", 0), "count",
            ["analysis.compute_errors"],
        ),
        "analysis.discrete_delta_s": (
            _s(t("analysis.discrete_delta").total_ns), "s", ["analysis.discrete_delta"]
        ),
        "cli.write_s": (_s(write.total_ns), "s", ["cli.write"]),
    }
    for layer in LAYERS:
        self_ns = sum(
            agg.self_ns for (name, _), agg in tracer.aggregates.items()
            if name.startswith(layer + ".")
        )
        out[f"{layer}.self_s"] = (_s(self_ns), "s", [])
    return out


def output_bytes(out_dir: Path) -> int:
    """Bytes of every file the invocation left in its output directory."""
    return sum(p.stat().st_size for p in Path(out_dir).rglob("*") if p.is_file())
