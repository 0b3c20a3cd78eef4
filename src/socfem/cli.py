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
applied to the element diameter, or an explicit --tau list; the two
exclude each other, so a run given both is a configuration error.

Every option is one row of ``OPTIONS``, and the flags are built from it.
Each ``key = value`` line of a ``--config`` file becomes a ``--key=value``
flag placed before the command-line flags, so a config value passes exactly
the checks its flag does and an explicit flag wins.  ``PROBLEM_FLAGS`` says
which problem reads which flag: --beta and --exact-mu go to both problems,
--xd-reading to example1 only, --gamma and --lam to example2 only.  A
problem flag that the chosen problem does not read is a configuration error.
``COMMAND_OPTIONS`` says which command reads which option; a flag or config
key that the command does not read is rejected like an unknown one.
Every default the library also has (--paths, --seed, --eps0, --max-iter,
--estimator, --samples, --delta-mode) is read from the library.
--paths and --seed (``SAMPLING``) are read by convergence, whose error pass
samples paths, by Monte Carlo runs and by verify (--seed); a mean-field
solve or constraint-table draws no paths, so either one given to it is a
configuration error.

Exit codes: 0 success; 2 configuration error (an unknown flag or config
key, a malformed or out-of-range value, a missing config file or one that
is not UTF-8, values the command cannot run such as an --h of one cell
per axis (no interior node), or an --output-dir that is or lies under a
file, or holds a directory named like one of the command's files),
reported before anything is solved or written; 3 numerical failure,
named by its cell in a study or table; 4 output error (a file could not
be written or renamed into place).  A fixed seed makes every output
byte-identical across reruns.  Table cells run one after another,
resolutions outer, and are reported deltas outer.

Each command only computes its outputs; ``_emit`` writes them.  Every file
goes to a hidden sibling temp file, and only once all are written are they
renamed into place, so a run leaves all of its files or none, and a failed
one none of the directories it created.  Stdout and the unconverged-run
``warning:`` lines are printed only after the files are in place; a --rho
with no contraction certificate is warned of before the solve.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import suppress
from dataclasses import asdict, astuple
from fractions import Fraction
from operator import attrgetter
from pathlib import Path

import numpy as np

from .analysis import (
    DELTA_MODES,
    ESTIMATORS,
    Resolution,
    constraint_table,
    convergence_study,
    orders_from_reports,
    setup,
)
from .errors import NumericalError
from .optimizer import GradientProjection, OptimizerConfig, contraction_certificate
from .paths import DEFAULT_PATHS, DEFAULT_SEED, MAX_PATHS, sample
from .problems import BY_NAME, DEFAULT_SAMPLES, verify_manufactured

ITERATIONS_HEADER = "iter,mu,step_error,constraint_integral,cost_J"
ERRORS_HEADER = (
    "h,tau,paths,seed,strong_l2_state,strong_l2_adjoint,strong_l2_control,"
    "h1_state,h1_adjoint,mu_error"
)
TABLE_LONG_HEADER = "delta,h,tau,integral,integral_sci,mu,iterations,converged"


class ConfigError(ValueError):
    pass


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse fraction {text!r}: {exc}")


def parse_fraction_list(text: str) -> list[Fraction]:
    return [parse_fraction(part) for part in text.split(",") if part.strip()]


def _checked(name: str, parse, ok):
    """An argparse type that parses, then requires ``ok``; argparse exits 2 if not."""

    def convert(text: str):
        try:
            value = parse(text)
        except OverflowError as exc:  # e.g. float(Fraction("1e400"))
            raise ValueError(text) from exc
        if not ok(value):
            raise ValueError(text)
        return value

    convert.__name__ = name
    return convert


_INF = float("inf")
positive_int = _checked("positive integer", int, lambda v: v > 0)
path_count = _checked("integer in 1..2**32", int, lambda v: 1 <= v <= MAX_PATHS)
nonnegative_int = _checked("non-negative integer", int, lambda v: v >= 0)
positive_float = _checked("positive finite float", float, lambda v: 0.0 < v < _INF)
finite_float = _checked("finite float", float, lambda v: abs(v) < _INF)
positive_fractions = _checked("positive fractions", parse_fraction_list, lambda v: v and min(v) > 0)
fraction_floats = _checked("fractions", lambda t: [float(p) for p in parse_fraction_list(t)], bool)


# rule -> (tau from the grid pitch p and d = h^2 / p^2, the one dimension the
# rule applies to or None); d is 1 in 1D and 2 in 2D, so tau=h/sqrt2 is p.
TAU_RULES = {
    "tau=h": (lambda p, d: p, 1),
    "tau=h/sqrt2": (lambda p, d: p, 2),
    "tau=h^2": (lambda p, d: d * p * p, None),
    "tau=h^2/2": (lambda p, d: d * p * p / 2, None),
    "tau=h^4": (lambda p, d: (d * p * p) ** 2, None),
}

# problem -> {option key: keyword of the problem's constructor}
PROBLEM_FLAGS = {
    "example1": {"beta": "beta", "exact_mu": "mu", "xd_reading": "xd_reading"},
    "example2": {"gamma": "gamma", "lam": "lam", "beta": "beta", "exact_mu": "mu"},
}


# Every option: flag --name, config key name, and its argparse settings.  A
# problem flag left unset keeps the problem's own default.
OPTIONS = {
    "problem": dict(default="example1", choices=tuple(PROBLEM_FLAGS)),
    "h": dict(type=positive_fractions, default="1/40", help="pitch list, e.g. 1/40,1/45"),
    "rule": dict(choices=tuple(TAU_RULES), help="default tau=h in 1D, tau=h/sqrt2 in 2D"),
    "tau": dict(type=positive_fractions, help="explicit tau list, one per --h"),
    "delta": dict(type=fraction_floats, help="constraint level list"),
    "paths": dict(type=path_count, help=f"Monte Carlo paths; default {DEFAULT_PATHS}"),
    "seed": dict(type=nonnegative_int, help=f"ensemble seed; default {DEFAULT_SEED}"),
    "rho": dict(type=positive_float, help="step size; default 0.9/(alpha + e^T)"),
    "eps0": dict(type=positive_float, default=OptimizerConfig.eps0, help="stopping tolerance"),
    "max-iter": dict(type=positive_int, default=OptimizerConfig.max_iter),
    "estimator": dict(default=ESTIMATORS[0], choices=ESTIMATORS),
    "output-dir": dict(type=Path, default="."),
    "samples": dict(type=positive_int, default=DEFAULT_SAMPLES, help="verify sample count"),
    "beta": dict(type=finite_float, help="noise amplitude (both problems)"),
    "exact-mu": dict(type=finite_float, help="exact multiplier (both problems)"),
    "gamma": dict(type=positive_float, help="diffusion (example2)"),
    "lam": dict(type=finite_float, help="state growth rate (example2)"),
    "xd-reading": dict(choices=("auto", "beta_w", "plain_w"), help="W coefficient in the target (example1)"),
    "delta-mode": dict(
        default=DELTA_MODES[0], choices=DELTA_MODES, help="constraint level of convergence"
    ),
}

# command -> the options it reads; each command's parser has only these flags
_SHARED = ("problem", "beta", "exact-mu", "gamma", "lam", "xd-reading", "seed", "output-dir")
_RUNS = ("h", "rule", "tau", "paths", "rho", "eps0", "max-iter", "estimator")
COMMAND_OPTIONS = {
    "solve": _SHARED + _RUNS + ("delta",),
    "convergence": _SHARED + _RUNS + ("delta-mode",),
    "constraint-table": _SHARED + _RUNS + ("delta",),
    "verify": _SHARED + ("samples",),
}

# the sampling options and their defaults; a mean-field solve or
# constraint-table draws no paths, so it reads neither
SAMPLING = {"paths": DEFAULT_PATHS, "seed": DEFAULT_SEED}


def _fill_sampling(args: argparse.Namespace) -> None:
    """Default --paths and --seed where the run reads them; reject them given where not."""
    mean_field = args.command in ("solve", "constraint-table") and args.estimator == "mean-field"
    for key, default in SAMPLING.items():
        if getattr(args, key, default) is None:  # verify has no --paths
            setattr(args, key, default)
        elif mean_field:
            raise ConfigError(f"a mean-field {args.command} draws no paths and does not read --{key}")


def format_sci(x: float) -> str:
    """Six-significant-digit scientific format with a bare exponent."""
    if x == 0.0:
        return "0.00000E0"
    mantissa, exponent = f"{x:.5E}".split("E")
    return f"{mantissa}E{int(exponent)}"


def build_problem(args: argparse.Namespace):
    """The chosen problem, given only the problem flags that are set."""
    reads = PROBLEM_FLAGS[args.problem]
    stray = [
        f"--{key.replace('_', '-')}"
        for flags in PROBLEM_FLAGS.values()
        for key in flags
        if key not in reads and getattr(args, key) is not None
    ]
    if stray:
        raise ConfigError(f"{args.problem} does not read {', '.join(stray)}")
    kwargs = {kw: getattr(args, k) for k, kw in reads.items() if getattr(args, k) is not None}
    return BY_NAME[args.problem](**kwargs)


def resolutions_for(args: argparse.Namespace, problem) -> list[Resolution]:
    """Turn pitch fractions plus the tau rule into distinct (cells, steps) pairs."""
    extent = problem.domain[0][1] - problem.domain[0][0]
    T = Fraction(problem.spec.T).limit_denominator(10**6)

    if args.tau is not None:
        if args.rule is not None:
            raise ConfigError("--tau and --rule exclude each other; give one of them")
        if len(args.tau) != len(args.h):
            raise ConfigError("--tau list must match --h list length")
        taus = args.tau
    else:
        rule = args.rule or ("tau=h" if problem.dim == 1 else "tau=h/sqrt2")
        tau_of, dim = TAU_RULES[rule]
        if dim not in (None, problem.dim):
            raise ConfigError(f"{rule} only applies to {dim}D meshes; use another --rule or --tau")
        taus = [tau_of(pitch, Fraction(problem.dim)) for pitch in args.h]

    out = []
    for pitch, tau in zip(args.h, taus):
        cells = Fraction(extent) / pitch
        if cells.denominator != 1:
            raise ConfigError(f"pitch {pitch} does not divide the domain extent {extent}")
        if cells < 2:
            raise ConfigError(f"--h {pitch} gives one cell per axis, which has no interior node")
        steps = T / tau
        if steps.denominator != 1:
            raise ConfigError(f"tau {tau} does not divide the horizon T={problem.spec.T}")
        res = Resolution(cells=int(cells), steps=int(steps))
        if res in out:
            raise ConfigError(f"--h {pitch} repeats cells={res.cells}, steps={res.steps}")
        out.append(res)
    return out


def _check_output_dir(out_dir: Path, names) -> None:
    """Reject an --output-dir the run's files cannot land in; creates nothing."""
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--output-dir {out_dir}: {existing} is not a directory")
    taken = [name for name in names if (out_dir / name).is_dir()]
    if taken:
        raise ConfigError(f"--output-dir {out_dir} holds a directory named {', '.join(taken)}")


def _emit(out_dir: Path, files: dict[str, str], stdout: str, warnings) -> None:
    """Put every file of a run in place, or none; then print stdout and the warnings.

    Each file is written to a hidden sibling temp file, then all are renamed
    onto their targets.  A failure removes this run's temp files, the
    targets already renamed and the directories this run created, deepest
    first, and re-raises.
    """
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # deepest first
    temps = {out_dir / f".{name}.{os.getpid()}.tmp": out_dir / name for name in files}
    placed = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for tmp, text in zip(temps, files.values()):
            tmp.write_text(text)
        for tmp, target in temps.items():
            os.replace(tmp, target)
            placed.append(target)
    except BaseException:
        for path in (*temps, *placed):
            path.unlink(missing_ok=True)
        for directory in made:
            with suppress(OSError):  # never made, or another process wrote into it
                directory.rmdir()
        raise
    print(stdout, end="")
    for line in warnings:
        print(f"warning: {line}", file=sys.stderr)


def _optimizer_config(args: argparse.Namespace, problem) -> OptimizerConfig:
    """The loop settings of a run; warns when a given --rho has no contraction certificate."""
    spec = problem.spec
    if args.rho is not None and contraction_certificate(spec.alpha, spec.T, args.rho) is None:
        print(
            f"warning: rho={args.rho!r} has no contraction certificate "
            f"(alpha={spec.alpha!r}, T={spec.T!r})",
            file=sys.stderr,
        )
    return OptimizerConfig(rho=args.rho, eps0=args.eps0, max_iter=args.max_iter)


def _unconverged(cell: str = "", step_error: float | None = None) -> str:
    """The warning for a run that stopped at max_iter; a table or study names its cell."""
    where, tail = (f"cell {cell}: ", f", step_error={step_error!r}") if cell else ("", "")
    return f"{where}optimizer hit max_iter before reaching eps0{tail}"


def _lines(lines) -> str:
    return "\n".join(lines) + "\n"


def _csv(header: str, rows) -> str:
    """The header line, then one line per row: its cells joined by commas with ``str``.

    Cells are Python ints, floats and strings, so every float is written in
    its shortest round-trip form.
    """
    return _lines([header, *(",".join(map(str, row)) for row in rows)])


def run_solve(args: argparse.Namespace, problem):
    for key in ("h", "tau", "delta"):
        if len(getattr(args, key) or ()) > 1:
            raise ConfigError(f"solve takes a single --{key} value")
    (res,) = resolutions_for(args, problem)
    config = _optimizer_config(args, problem)

    system, grid = setup(problem, res)
    ensemble = sample(args.paths, grid, args.seed) if args.estimator == "monte-carlo" else None
    delta = problem.delta if args.delta is None else args.delta[0]
    loop = GradientProjection(problem.spec, system, grid, config, ensemble)
    rows, scratch = [], np.empty_like(loop.base)

    def observe(record, control, state_mean):
        # cost_J of the live iterate: only this file reads it, so the loop does not
        cost = loop.cost(state_mean, control, scratch)
        if not math.isfinite(cost):
            raise NumericalError(
                f"gradient projection diverged at iteration {record.iteration}: cost={cost!r}"
            )
        rows.append((*astuple(record), cost))

    result = loop.run(delta, observe)

    iterations = _csv(ITERATIONS_HEADER, rows)
    coords = system.mesh.interior_nodes.tolist()
    arrays = grid.times, result.control, result.state_mean, result.adjoint_mean
    levels = zip(*(a.tolist() for a in arrays))  # one (t, control, state, adjoint) per time level
    fields = _csv(
        "t," + "".join(f"x{d}," for d in range(problem.dim)) + "control,state_mean,adjoint_mean",
        ((t, *xy, u[j], x[j], y[j]) for t, u, x, y in levels for j, xy in enumerate(coords)),
    )

    last = result.records[-1]
    stdout = (
        f"solve: {args.problem} cells={res.cells} steps={res.steps} "
        f"estimator={args.estimator} iterations={result.iterations} "
        f"converged={result.converged} mu={result.mu!r} "
        f"integral={last.constraint_integral!r}\n"
    )
    warnings = [] if result.converged else [_unconverged()]
    return (iterations, fields), stdout, warnings


def run_convergence(args: argparse.Namespace, problem):
    resolutions = resolutions_for(args, problem)
    scale = "tau" if args.rule in (None, "tau=h", "tau=h/sqrt2") else "h"
    if len({res.steps if scale == "tau" else res.cells for res in resolutions}) < 2:
        raise ConfigError(f"convergence needs at least two distinct {scale} values to fit orders")
    reports = convergence_study(
        problem, resolutions, _optimizer_config(args, problem), paths=args.paths,
        seed=args.seed, estimator=args.estimator, delta_mode=args.delta_mode,
    )

    errors = _csv(ERRORS_HEADER, map(attrgetter(*ERRORS_HEADER.split(",")), reports))
    fits = orders_from_reports(reports, scale=scale)
    payload = {
        "scale": scale,
        "fits": {
            name: {"slope": fit.slope, "r_squared": fit.r_squared}
            for name, fit in fits.items()
        },
    }
    stdout = _lines(f"{name}: slope={f.slope:.4f} r2={f.r_squared:.4f}" for name, f in fits.items())
    warnings = [
        _unconverged(f"cells={res.cells} steps={res.steps}", r.step_error)
        for r, res in zip(reports, resolutions)
        if not r.converged
    ]
    if warnings:
        warnings.append(f"the order fits use {len(warnings)} unconverged cell(s)")
    return (errors, json.dumps(payload, indent=2) + "\n"), stdout, warnings


def run_constraint_table(args: argparse.Namespace, problem):
    resolutions = resolutions_for(args, problem)
    if args.delta is None:
        raise ConfigError("constraint-table needs --delta values")
    repeated = sorted({d for d in args.delta if args.delta.count(d) > 1})
    if repeated:
        raise ConfigError(
            f"constraint-table --delta repeats {', '.join(map(repr, repeated))}; "
            "each level is one table row"
        )

    cells = constraint_table(
        problem, args.delta, resolutions, _optimizer_config(args, problem),
        estimator=args.estimator, paths=args.paths, seed=args.seed,
    )

    sci = [format_sci(c.integral) for c in cells]
    long_table = _csv(TABLE_LONG_HEADER, (
        (c.delta, c.h, c.tau, c.integral, s, c.mu, c.iterations, int(c.converged))
        for c, s in zip(cells, sci)
    ))
    k = len(resolutions)  # the cells come deltas outer: one row of k per delta
    wide = _csv(
        ",".join(["delta"] + [f"h={p}" for p in args.h]),
        ([d, *sci[i * k : (i + 1) * k]] for i, d in enumerate(args.delta)),
    )

    warnings = [
        _unconverged(f"delta={c.delta!r} cells={res.cells} steps={res.steps}", c.step_error)
        for c, res in zip(cells, resolutions * len(args.delta))
        if not c.converged
    ]
    return (long_table, wide), wide, warnings


def run_verify(args: argparse.Namespace, problem):
    report = verify_manufactured(problem, samples=args.samples, seed=args.seed)
    text = json.dumps(asdict(report), indent=2) + "\n"
    return (text,), text, []


# command -> (runner, the files it writes).  A runner takes the parsed flags
# and the built problem, and returns the texts of these files in this order,
# its stdout text and its warning lines; it writes and prints nothing itself.
COMMANDS = {
    "solve": (run_solve, ("iterations.csv", "final_fields.csv")),
    "convergence": (run_convergence, ("errors.csv", "orders.json")),
    "constraint-table": (run_constraint_table, ("table_long.csv", "table.csv")),
    "verify": (run_verify, ("verify.json",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socfem", description="stochastic parabolic optimal control experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        # no prefix matching: convergence must not read --delta as --delta-mode
        p = sub.add_parser(command, allow_abbrev=False)
        p.add_argument("--config", help="file of key = value lines, read as flags before these")
        for name in COMMAND_OPTIONS[command]:
            p.add_argument(f"--{name}", **OPTIONS[name])
    return parser


def _config_flags(parser: argparse.ArgumentParser, command: str, path: str) -> list[str]:
    """One ``--key=value`` flag per ``key = value`` line of a config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # a decode error has no strerror
        parser.error(f"cannot read config file {path!r}: {getattr(exc, 'strerror', exc)}")
    flags = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            parser.error(f"bad config line (expected key = value): {raw!r}")
        name = key.replace("_", "-")
        if name not in OPTIONS:
            parser.error(f"unknown config key {key!r} in {path}")
        if name not in COMMAND_OPTIONS[command]:
            parser.error(f"{command} does not read --{name} (config key {key!r} in {path})")
        flags.append(f"--{name}={value}")
    return flags


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the command comes first: the top-level parser has no options
            config = _config_flags(parser, args.command, args.config)
            args = parser.parse_args([argv[0], *config, *argv[1:]])
    except SystemExit as exc:  # argparse: 0 after --help, 2 for a bad flag or value
        return int(exc.code or 0) and 2
    try:
        _fill_sampling(args)
        run, names = COMMANDS[args.command]
        problem = build_problem(args)
        _check_output_dir(args.output_dir, names)
        texts, stdout, warnings = run(args, problem)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    try:
        _emit(args.output_dir, dict(zip(names, texts)), stdout, warnings)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
