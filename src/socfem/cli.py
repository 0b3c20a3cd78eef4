"""Command-line experiment harness.

Commands
--------
solve             one optimization run -> iterations.csv, final_fields.csv
convergence       error sweep over resolutions -> errors.csv, orders.json
constraint-table  converged constraint integrals -> table.csv, table_long.csv
verify            manufactured-solution residual report -> stdout JSON

Mesh sizes are given as exact fractions ("1/40") naming the grid pitch per
axis, so tabulated values never pick up decimal drift; the element
diameter is the pitch in 1D and sqrt(2) * pitch in 2D.  The time step
follows the --rule (tau=h, tau=h/sqrt2, tau=h^2, tau=h^2/2, tau=h^4)
applied to the element diameter, or an explicit --tau list.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.  A
fixed seed makes every output byte-identical across reruns.  Table cells run
one after another, resolutions outer, and are reported deltas outer.  Each
output file is written to a sibling temp file and renamed into place, so it
is either complete or absent.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from .analysis import (
    Resolution,
    constraint_table,
    convergence_study,
    orders_from_reports,
    setup,
)
from .errors import InvalidStateError, NumericalError
from .optimizer import OptimizerConfig, contraction_certificate, gp_iterate
from .paths import sample
from .problems import BY_NAME, example1, example2, verify_manufactured

RULES = ("tau=h", "tau=h/sqrt2", "tau=h^2", "tau=h^2/2", "tau=h^4")

ITERATIONS_HEADER = "iter,mu,step_error,constraint_integral,cost_J"
ERRORS_HEADER = (
    "h,tau,paths,seed,strong_l2_state,strong_l2_adjoint,strong_l2_control,"
    "h1_state,h1_adjoint,mu_error"
)
TABLE_LONG_HEADER = "delta,h,tau,integral,integral_sci,mu,iterations,converged"


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    problem: str
    pitches: list[Fraction]
    rule: str | None
    taus: list[Fraction] | None
    deltas: list[float] | None
    paths: int
    seed: int
    rho: float | None
    eps0: float
    max_iter: int
    estimator: str
    output_dir: Path
    samples: int
    beta: float | None
    exact_mu: float | None
    gamma: float | None
    lam: float | None
    xd_reading: str
    delta_mode: str


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse fraction {text!r}: {exc}")


def parse_fraction_list(text: str) -> list[Fraction]:
    return [parse_fraction(part) for part in text.split(",") if part.strip()]


def format_sci(x: float) -> str:
    """Six-significant-digit scientific format with a bare exponent."""
    if x == 0.0:
        return "0.00000E0"
    mantissa, exponent = f"{x:.5E}".split("E")
    return f"{mantissa}E{int(exponent)}"


def build_problem(cfg: RunConfig):
    if cfg.problem not in BY_NAME:
        raise ConfigError(f"unknown problem {cfg.problem!r}; choose from {sorted(BY_NAME)}")
    if cfg.problem == "example1":
        kwargs = {}
        if cfg.beta is not None:
            kwargs["beta"] = cfg.beta
        if cfg.exact_mu is not None:
            kwargs["mu"] = cfg.exact_mu
        return example1(xd_reading=cfg.xd_reading, **kwargs)
    kwargs = {}
    if cfg.gamma is not None:
        kwargs["gamma"] = cfg.gamma
    if cfg.lam is not None:
        kwargs["lam"] = cfg.lam
    if cfg.beta is not None:
        kwargs["beta"] = cfg.beta
    if cfg.exact_mu is not None:
        kwargs["mu"] = cfg.exact_mu
    return example2(**kwargs)


def resolutions_for(cfg: RunConfig, problem) -> list[Resolution]:
    """Turn pitch fractions plus the tau rule into (cells, steps) pairs."""
    if not cfg.pitches:
        raise ConfigError("at least one --h value is required")
    extent = problem.domain[0][1] - problem.domain[0][0]
    T = Fraction(problem.spec.T).limit_denominator(10**6)
    diag = Fraction(2) if problem.dim == 2 else Fraction(1)  # h^2 = diag * pitch^2

    taus: list[Fraction] = []
    if cfg.taus is not None:
        if len(cfg.taus) != len(cfg.pitches):
            raise ConfigError("--tau list must match --h list length")
        taus = list(cfg.taus)
    else:
        rule = cfg.rule or ("tau=h" if problem.dim == 1 else "tau=h/sqrt2")
        for pitch in cfg.pitches:
            if rule == "tau=h":
                if problem.dim == 2:
                    raise ConfigError(
                        "tau=h is irrational on 2D meshes; use tau=h/sqrt2 or an explicit --tau list"
                    )
                taus.append(pitch)
            elif rule == "tau=h/sqrt2":
                if problem.dim == 1:
                    raise ConfigError("tau=h/sqrt2 only applies to 2D meshes")
                taus.append(pitch)
            elif rule == "tau=h^2":
                taus.append(diag * pitch * pitch)
            elif rule == "tau=h^2/2":
                taus.append(diag * pitch * pitch / 2)
            elif rule == "tau=h^4":
                taus.append((diag * pitch * pitch) ** 2)
            else:
                raise ConfigError(f"unknown rule {rule!r}; choose from {RULES}")

    out = []
    for pitch, tau in zip(cfg.pitches, taus):
        cells = Fraction(extent) / pitch
        if cells.denominator != 1:
            raise ConfigError(f"pitch {pitch} does not divide the domain extent {extent}")
        steps = T / tau
        if steps.denominator != 1:
            raise ConfigError(f"tau {tau} does not divide the horizon T={problem.spec.T}")
        out.append(Resolution(cells=int(cells), steps=int(steps)))
    return out


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to a sibling temp file and rename it onto ``path``.

    The output is then either complete or absent: a failed write or rename
    removes the temp file and re-raises.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_lines(path: Path, lines) -> None:
    _write_atomic(path, "\n".join(lines) + "\n")


def _check_rho(cfg: RunConfig, problem) -> None:
    """Reject a non-positive --rho; warn when a given one has no certificate."""
    if cfg.rho is None:
        return
    if not cfg.rho > 0.0:
        raise ConfigError(f"--rho must be positive, got {cfg.rho!r}")
    spec = problem.spec
    if contraction_certificate(spec.alpha, spec.T, cfg.rho) is None:
        print(
            f"warning: rho={cfg.rho!r} has no contraction certificate "
            f"(alpha={spec.alpha!r}, T={spec.T!r})",
            file=sys.stderr,
        )


def run_solve(cfg: RunConfig) -> int:
    problem = build_problem(cfg)
    if cfg.deltas:
        if len(cfg.deltas) != 1:
            raise ConfigError("solve takes a single --delta value")
        problem = replace(problem, spec=replace(problem.spec, delta=cfg.deltas[0]))
    (res,) = resolutions_for(cfg, problem)
    _check_rho(cfg, problem)

    system, grid = setup(problem, res)
    ensemble = sample(cfg.paths, grid, cfg.seed) if cfg.estimator == "monte-carlo" else None
    config = OptimizerConfig(rho=cfg.rho, eps0=cfg.eps0, max_iter=cfg.max_iter)
    result = gp_iterate(
        problem.spec, system, grid, config, estimator=cfg.estimator, ensemble=ensemble
    )

    lines = [ITERATIONS_HEADER]
    for r in result.records:
        lines.append(
            f"{r.iteration},{r.mu!r},{r.step_error!r},{r.constraint_integral!r},{r.cost!r}"
        )
    _write_lines(cfg.output_dir / "iterations.csv", lines)

    coords = system.mesh.interior_nodes
    coord_cols = ",".join(f"x{d}" for d in range(problem.dim))
    lines = [f"t,{coord_cols},control,state_mean,adjoint_mean"]
    for n in range(grid.N + 1):
        t = float(grid.times[n])
        for j in range(system.n):
            xy = ",".join(repr(float(c)) for c in coords[j])
            lines.append(
                f"{t!r},{xy},{result.control.values[n, j]!r},"
                f"{result.state_mean.values[n, j]!r},{result.adjoint_mean.values[n, j]!r}"
            )
    _write_lines(cfg.output_dir / "final_fields.csv", lines)

    last = result.records[-1]
    print(
        f"solve: {cfg.problem} cells={res.cells} steps={res.steps} "
        f"estimator={cfg.estimator} iterations={result.iterations} "
        f"converged={result.converged} mu={result.mu!r} "
        f"integral={last.constraint_integral!r}"
    )
    if not result.converged:
        print("warning: optimizer hit max_iter before reaching eps0", file=sys.stderr)
    return 0


def run_convergence(cfg: RunConfig) -> int:
    problem = build_problem(cfg)
    resolutions = resolutions_for(cfg, problem)
    if len(resolutions) < 2:
        raise ConfigError("convergence needs at least two --h values to fit orders")
    _check_rho(cfg, problem)
    reports = convergence_study(
        problem,
        resolutions,
        paths=cfg.paths,
        seed=cfg.seed,
        rho=cfg.rho,
        eps0=cfg.eps0,
        max_iter=cfg.max_iter,
        estimator=cfg.estimator,
        delta_mode=cfg.delta_mode,
    )

    lines = [ERRORS_HEADER]
    for r in reports:
        lines.append(
            f"{r.h!r},{r.tau!r},{r.paths},{r.seed},{r.strong_l2_state!r},"
            f"{r.strong_l2_adjoint!r},{r.strong_l2_control!r},{r.h1_state!r},"
            f"{r.h1_adjoint!r},{r.mu_error!r}"
        )
    _write_lines(cfg.output_dir / "errors.csv", lines)

    scale = "tau" if cfg.rule in (None, "tau=h", "tau=h/sqrt2") else "h"
    fits = orders_from_reports(reports, scale=scale)
    payload = {
        "scale": scale,
        "fits": {
            name: {"slope": fit.slope, "r_squared": fit.r_squared}
            for name, fit in fits.items()
        },
    }
    _write_atomic(cfg.output_dir / "orders.json", json.dumps(payload, indent=2) + "\n")
    for name, fit in fits.items():
        print(f"{name}: slope={fit.slope:.4f} r2={fit.r_squared:.4f}")
    return 0


def run_constraint_table(cfg: RunConfig) -> int:
    problem = build_problem(cfg)
    resolutions = resolutions_for(cfg, problem)
    if not cfg.deltas:
        raise ConfigError("constraint-table needs --delta values")
    repeated = sorted({d for d in cfg.deltas if cfg.deltas.count(d) > 1})
    if repeated:
        raise ConfigError(
            f"constraint-table --delta repeats {', '.join(map(repr, repeated))}; "
            "each level is one table row"
        )
    _check_rho(cfg, problem)

    cells = constraint_table(
        problem,
        cfg.deltas,
        resolutions,
        estimator=cfg.estimator,
        paths=cfg.paths,
        seed=cfg.seed,
        rho=cfg.rho,
        eps0=cfg.eps0,
        max_iter=cfg.max_iter,
    )

    long_lines = [TABLE_LONG_HEADER]
    for c in cells:
        long_lines.append(
            f"{c.delta!r},{c.h!r},{c.tau!r},{c.integral!r},{format_sci(c.integral)},"
            f"{c.mu!r},{c.iterations},{int(c.converged)}"
        )
    _write_lines(cfg.output_dir / "table_long.csv", long_lines)

    headers = ["delta"] + [f"h={p}" for p in cfg.pitches]
    wide = [",".join(headers)]
    per_delta = {d: [] for d in cfg.deltas}
    for c in cells:
        per_delta[c.delta].append(format_sci(c.integral))
    for d in cfg.deltas:
        wide.append(",".join([repr(d)] + per_delta[d]))
    _write_lines(cfg.output_dir / "table.csv", wide)

    for row in wide:
        print(row)
    return 0


def run_verify(cfg: RunConfig) -> int:
    problem = build_problem(cfg)
    report = verify_manufactured(problem, samples=cfg.samples, seed=cfg.seed)
    text = json.dumps(report.as_dict(), indent=2)
    print(text)
    _write_atomic(cfg.output_dir / "verify.json", text + "\n")
    return 0


COMMANDS = {
    "solve": run_solve,
    "convergence": run_convergence,
    "constraint-table": run_constraint_table,
    "verify": run_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socfem", description="stochastic parabolic optimal control experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="key=value defaults file")
        p.add_argument("--problem", type=str, default=None)
        p.add_argument("--h", dest="h", type=str, default=None, help="pitch list, e.g. 1/40,1/45")
        p.add_argument("--rule", type=str, default=None, choices=RULES)
        p.add_argument("--tau", type=str, default=None, help="explicit tau list")
        p.add_argument("--delta", type=str, default=None, help="constraint level list")
        p.add_argument("--paths", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--rho", type=float, default=None)
        p.add_argument("--eps0", type=float, default=None)
        p.add_argument("--max-iter", type=int, default=None)
        p.add_argument("--estimator", type=str, default=None, choices=["mean-field", "monte-carlo"])
        p.add_argument("--output-dir", type=str, default=None)
        p.add_argument("--samples", type=int, default=None, help="verify sample count")
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--exact-mu", type=float, default=None)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--lam", type=float, default=None)
        p.add_argument("--xd-reading", type=str, default=None,
                       choices=["auto", "beta_w", "plain_w"])
        p.add_argument("--delta-mode", type=str, default=None,
                       choices=["discrete", "problem"],
                       help="constraint level for convergence runs")
    return parser


_DEFAULTS = {
    "problem": "example1",
    "h": "1/40",
    "rule": None,
    "tau": None,
    "delta": None,
    "paths": 2000,
    "seed": 7,
    "rho": None,
    "eps0": 1e-6,
    "max_iter": 500,
    "estimator": "mean-field",
    "output_dir": ".",
    "samples": 1000,
    "beta": None,
    "exact_mu": None,
    "gamma": None,
    "lam": None,
    "xd_reading": "auto",
    "delta_mode": "discrete",
}

_FLOAT_KEYS = {"rho", "eps0", "beta", "exact_mu", "gamma", "lam"}
_INT_KEYS = {"paths", "seed", "max_iter", "samples"}


def _read_config_file(path: str) -> dict:
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line (expected key = value): {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        if key in _FLOAT_KEYS:
            values[key] = float(value)
        elif key in _INT_KEYS:
            values[key] = int(value)
        else:
            values[key] = value
    return values


def _merge_config(args: argparse.Namespace) -> RunConfig:
    merged = dict(_DEFAULTS)
    if args.config:
        merged.update(_read_config_file(args.config))
    for key in _DEFAULTS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value

    output_dir = Path(merged["output_dir"])
    output_dir.mkdir(parents=True, exist_ok=True)

    deltas = None
    if merged["delta"] is not None:
        try:
            deltas = [float(Fraction(part)) for part in str(merged["delta"]).split(",") if part.strip()]
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"cannot parse --delta {merged['delta']!r}: {exc}")

    return RunConfig(
        command=args.command,
        problem=str(merged["problem"]),
        pitches=parse_fraction_list(str(merged["h"])),
        rule=merged["rule"],
        taus=parse_fraction_list(str(merged["tau"])) if merged["tau"] else None,
        deltas=deltas,
        paths=int(merged["paths"]),
        seed=int(merged["seed"]),
        rho=merged["rho"],
        eps0=float(merged["eps0"]),
        max_iter=int(merged["max_iter"]),
        estimator=str(merged["estimator"]),
        output_dir=output_dir,
        samples=int(merged["samples"]),
        beta=merged["beta"],
        exact_mu=merged["exact_mu"],
        gamma=merged["gamma"],
        lam=merged["lam"],
        xd_reading=str(merged["xd_reading"]),
        delta_mode=str(merged["delta_mode"]),
    )


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0) and 2
    try:
        cfg = _merge_config(args)
        return COMMANDS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, InvalidStateError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
