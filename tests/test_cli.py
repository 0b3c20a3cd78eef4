import csv
import inspect
import json
import math
import os
from fractions import Fraction
from pathlib import Path

import pytest

from socfem.analysis import DELTA_MODES, ESTIMATORS, constraint_table, convergence_study
from socfem.cli import (
    COMMAND_OPTIONS,
    OPTIONS,
    ConfigError,
    _build_parser,
    _fill_sampling,
    format_sci,
    main,
    parse_fraction,
    parse_fraction_list,
)
from socfem.optimizer import GradientProjection, OptimizerConfig
from socfem.paths import MAX_PATHS
from socfem.problems import verify_manufactured


class TestParsing:
    def test_fraction(self):
        assert parse_fraction("1/40") == Fraction(1, 40)
        assert parse_fraction(" 3/8 ") == Fraction(3, 8)
        assert parse_fraction("0.25") == Fraction(1, 4)

    def test_fraction_list(self):
        assert parse_fraction_list("1/40,1/45") == [Fraction(1, 40), Fraction(1, 45)]

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            parse_fraction("1//40")
        with pytest.raises(ConfigError):
            parse_fraction("1/0")

    def test_format_sci(self):
        assert format_sci(0.199913) == "1.99913E-1"
        assert format_sci(-0.200232) == "-2.00232E-1"
        assert format_sci(1.0) == "1.00000E0"
        assert format_sci(0.0) == "0.00000E0"
        assert format_sci(12.5) == "1.25000E1"


class TestSolveCommand:
    def test_writes_artifacts_and_is_reproducible(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        argv = [
            "solve", "--problem", "example1", "--h", "1/8", "--rule", "tau=h",
            "--eps0", "1e-5", "--output-dir",
        ]
        assert main(argv + [str(out1)]) == 0
        assert main(argv + [str(out2)]) == 0
        it1 = (out1 / "iterations.csv").read_bytes()
        it2 = (out2 / "iterations.csv").read_bytes()
        assert it1 == it2
        header = it1.decode().splitlines()[0]
        assert header == "iter,mu,step_error,constraint_integral,cost_J"
        fields = (out1 / "final_fields.csv").read_text().splitlines()
        assert fields[0] == "t,x0,control,state_mean,adjoint_mean"
        assert len(fields) == 1 + 9 * 7  # (N+1) levels x interior nodes

    def test_divergent_step_size_is_numerical_failure(self, tmp_path, capsys):
        base = [
            "solve", "--problem", "example1", "--h", "1/10", "--rule", "tau=h",
            "--output-dir", str(tmp_path),
        ]
        assert main(base + ["--rho", "5"]) == 3
        assert not (tmp_path / "iterations.csv").exists()
        warnings = [line for line in capsys.readouterr().err.splitlines() if "rho=" in line]
        assert warnings == [
            "warning: rho=5.0 has no contraction certificate (alpha=1.0, T=1.0)"
        ]
        # the default 0.9/(alpha + e^T) is always certified
        assert main(base) == 0
        assert "certificate" not in capsys.readouterr().err
        assert main(base + ["--rho", "0"]) == 2

    def test_non_finite_cost_is_numerical_failure(self, tmp_path, monkeypatch, capsys):
        # only solve computes cost_J; one that overflows fails the run like a
        # divergent iterate would, and no file is written
        monkeypatch.setattr(GradientProjection, "cost", lambda self, x, u, scratch: math.inf)
        argv = [
            "solve", "--problem", "example1", "--h", "1/8", "--rule", "tau=h",
            "--output-dir", str(tmp_path / "run"),
        ]
        assert main(argv) == 3
        assert "diverged at iteration 0: cost=inf" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_max_iter_warns_and_still_writes(self, tmp_path, capsys):
        argv = [
            "solve", "--problem", "example1", "--h", "1/8", "--rule", "tau=h",
            "--max-iter", "2", "--output-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "iterations=2 converged=False" in captured.out
        assert captured.err == "warning: optimizer hit max_iter before reaching eps0\n"
        assert len((tmp_path / "iterations.csv").read_text().splitlines()) == 1 + 2

    def test_slack_delta_keeps_mu_zero(self, tmp_path):
        argv = [
            "solve", "--problem", "example1", "--h", "1/8", "--rule", "tau=h",
            "--delta", "10", "--eps0", "1e-5", "--output-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        rows = (tmp_path / "iterations.csv").read_text().splitlines()[1:]
        assert all(float(row.split(",")[1]) == 0.0 for row in rows)


class TestConvergenceCommand:
    def test_errors_csv_and_orders(self, tmp_path):
        argv = [
            "convergence", "--problem", "example1", "--h", "1/8,1/10",
            "--rule", "tau=h", "--paths", "60", "--seed", "7",
            "--output-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        lines = (tmp_path / "errors.csv").read_text().splitlines()
        assert lines[0] == (
            "h,tau,paths,seed,strong_l2_state,strong_l2_adjoint,"
            "strong_l2_control,h1_state,h1_adjoint,mu_error"
        )
        assert len(lines) == 3
        orders = json.loads((tmp_path / "orders.json").read_text())
        assert orders["scale"] == "tau"
        assert "strong_l2_state" in orders["fits"]

    def test_single_resolution_is_config_error(self, tmp_path, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("convergence solved before rejecting its config")

        monkeypatch.setattr("socfem.cli.convergence_study", no_solve)
        argv = [
            "convergence", "--problem", "example1", "--h", "1/8",
            "--rule", "tau=h", "--paths", "20", "--output-dir", str(tmp_path),
        ]
        assert main(argv) == 2
        assert not (tmp_path / "errors.csv").exists()

    def test_unconverged_cells_warn_on_stderr(self, tmp_path, capsys):
        argv = [
            "convergence", "--problem", "example1", "--h", "1/8,1/10",
            "--rule", "tau=h", "--paths", "40",
        ]
        assert main(argv + ["--output-dir", str(tmp_path / "full")]) == 0
        assert capsys.readouterr().err == ""  # converged cells print nothing
        assert main(argv + ["--max-iter", "2", "--output-dir", str(tmp_path / "two")]) == 0
        captured = capsys.readouterr()
        assert [line.split(":")[0] for line in captured.out.splitlines()] == [
            "strong_l2_state", "strong_l2_adjoint", "strong_l2_control",
            "mu_error", "h1_state", "h1_adjoint",
        ]
        *cells, fits = captured.err.splitlines()
        assert fits == "warning: the order fits use 2 unconverged cell(s)"
        heads, step_errors = zip(*(line.split(", step_error=") for line in cells))
        assert list(heads) == [
            f"warning: cell cells={k} steps={k}: optimizer hit max_iter before reaching eps0"
            for k in (8, 10)
        ]
        assert all(float(e) > 1e-6 for e in step_errors)

    def test_rule_h2_fits_against_h(self, tmp_path):
        argv = [
            "convergence", "--problem", "example1", "--h", "1/4,1/6",
            "--rule", "tau=h^2", "--paths", "30", "--output-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        orders = json.loads((tmp_path / "orders.json").read_text())
        assert orders["scale"] == "h"


class TestConstraintTableCommand:
    def test_table_shape_and_slack_mu(self, tmp_path):
        argv = [
            "constraint-table", "--problem", "example1", "--h", "1/8,1/10",
            "--rule", "tau=h", "--delta", "10,0.2", "--output-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        wide = (tmp_path / "table.csv").read_text().splitlines()
        assert wide[0] == "delta,h=1/8,h=1/10"
        assert len(wide) == 3
        long_rows = (tmp_path / "table_long.csv").read_text().splitlines()
        assert long_rows[0] == "delta,h,tau,integral,integral_sci,mu,iterations,converged"
        slack = [r for r in long_rows[1:] if r.startswith("10.0,")]
        assert len(slack) == 2
        assert all(float(r.split(",")[5]) == 0.0 for r in slack)
        active = [r for r in long_rows[1:] if r.startswith("0.2,")]
        for r in active:
            assert abs(float(r.split(",")[3]) - 0.2) <= 1e-8

    def test_unconverged_cells_warn_on_stderr(self, tmp_path, capsys):
        argv = [
            "constraint-table", "--problem", "example1", "--h", "1/8,1/10",
            "--rule", "tau=h", "--delta", "10,0.2",
        ]
        assert main(argv + ["--output-dir", str(tmp_path / "full")]) == 0
        assert capsys.readouterr().err == ""  # converged cells print nothing
        assert main(argv + ["--max-iter", "2", "--output-dir", str(tmp_path / "two")]) == 0
        err = capsys.readouterr().err.splitlines()
        rows = (tmp_path / "two" / "table_long.csv").read_text().splitlines()[1:]
        unconverged = [r.split(",") for r in rows if r.endswith(",0")]
        assert unconverged and len(err) == len(unconverged)
        for line, (delta, h, tau, *_) in zip(err, unconverged):
            cells, steps = round(1 / float(h)), round(1 / float(tau))
            head, step_error = line.split(", step_error=")
            assert head == (
                f"warning: cell delta={delta} cells={cells} steps={steps}: "
                "optimizer hit max_iter before reaching eps0"
            )
            assert float(step_error) > 1e-6

    def test_infeasible_projection_exits_3_without_output(self, tmp_path, monkeypatch, capsys):
        # a multiplier of zero never projects, so the active cell ends above delta
        monkeypatch.setattr("socfem.optimizer.select_multiplier", lambda *args: 0.0)
        out = tmp_path / "out"
        argv = [
            "constraint-table", "--problem", "example1", "--h", "1/8",
            "--rule", "tau=h", "--delta", "0.2", "--output-dir", str(out),
        ]
        assert main(argv) == 3
        assert "projection failed feasibility" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_delta_is_config_error(self, tmp_path):
        argv = [
            "constraint-table", "--problem", "example1", "--h", "1/8",
            "--rule", "tau=h", "--output-dir", str(tmp_path),
        ]
        assert main(argv) == 2

    def test_repeated_delta_is_config_error(self, tmp_path, monkeypatch, capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("constraint-table solved before rejecting its config")

        monkeypatch.setattr("socfem.cli.constraint_table", no_solve)
        argv = [
            "constraint-table", "--problem", "example1", "--h", "1/10",
            "--delta", "0.2,0.2", "--output-dir", str(tmp_path),
        ]
        assert main(argv) == 2
        assert "repeats 0.2" in capsys.readouterr().err
        assert not (tmp_path / "table.csv").exists()
        # the same level written two ways is still one level
        argv[argv.index("0.2,0.2")] = "1/5,0.2"
        assert main(argv) == 2


class TestVerifyCommand:
    def test_report(self, tmp_path, capsys):
        argv = [
            "verify", "--problem", "example2", "--samples", "80",
            "--output-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert [p.name for p in tmp_path.iterdir()] == ["verify.json"]  # no temp file left
        assert (tmp_path / "verify.json").read_text() == printed
        payload = json.loads(printed)
        assert payload["state_residual"] <= 1e-8
        assert payload["adjoint_mean_residual"] <= 1e-8


# Each command with flags it can run: (command, flags, the files it writes, in order)
RUNS = [
    ("solve", ["--h", "1/8"], ("iterations.csv", "final_fields.csv")),
    ("convergence", ["--h", "1/8,1/10", "--paths", "20"], ("errors.csv", "orders.json")),
    ("constraint-table", ["--h", "1/8", "--delta", "0.2"], ("table_long.csv", "table.csv")),
    ("verify", [], ("verify.json",)),
]


class TestAtomicOutputs:
    """A run leaves all of its files or none, and a failed write is exit 4."""

    @pytest.mark.parametrize("out", ["", "new/sub"], ids=["existing-dir", "new-dirs"])
    @pytest.mark.parametrize("step", ["write", "replace"])
    @pytest.mark.parametrize("command,flags,names", [RUNS[3], RUNS[0]], ids=["verify", "solve"])
    def test_failed_write_leaves_no_file(
        self, tmp_path, monkeypatch, capsys, out, step, command, flags, names
    ):
        # fail the last file's write or rename, after any earlier file's; the
        # directories the run created go too
        calls = []
        real_write_text, real_replace = Path.write_text, os.replace

        def half_write(self, text, *args, **kwargs):
            calls.append(self)
            if len(calls) < len(names):
                return real_write_text(self, text, *args, **kwargs)
            real_write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError("disk full")

        def failed_replace(src, dst):
            calls.append(dst)
            if len(calls) < len(names):
                return real_replace(src, dst)
            raise OSError("rename failed")

        if step == "write":
            monkeypatch.setattr(Path, "write_text", half_write)
        else:
            monkeypatch.setattr(os, "replace", failed_replace)
        assert main([command, *flags, "--output-dir", str(tmp_path / out)]) == 4
        assert len(calls) == len(names)
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing is printed for a run whose files failed
        assert [line for line in captured.err.splitlines() if "output error:" in line] == [
            f"output error: {'disk full' if step == 'write' else 'rename failed'}"
        ]
        assert "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == []


class TestOutputDirCheck:
    """An --output-dir the files cannot land in exits 2 before any solve, creating nothing."""

    @staticmethod
    def _rejected(capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error: --output-dir" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("under", [False, True], ids=["is-file", "under-file"])
    @pytest.mark.parametrize(
        "command,flags", [(c, f) for c, f, _ in RUNS], ids=[c for c, _, _ in RUNS]
    )
    def test_file_in_the_way(self, tmp_path, capsys, no_solver, under, command, flags):
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        out = blocker / "out" if under else blocker
        self._rejected(capsys, [command, *flags, "--output-dir", str(out)])
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_text() == "kept\n"

    @pytest.mark.parametrize(
        "command,flags,name",
        [(c, f, name) for c, f, names in RUNS for name in names],
        ids=[f"{c}-{name}" for c, _, names in RUNS for name in names],
    )
    def test_directory_named_like_a_file(self, tmp_path, capsys, no_solver, command, flags, name):
        (tmp_path / name).mkdir()
        self._rejected(capsys, [command, *flags, "--output-dir", str(tmp_path)])
        assert list(tmp_path.iterdir()) == [tmp_path / name]
        assert list((tmp_path / name).iterdir()) == []


REFERENCE = Path(__file__).parent / "reference"


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))


# the CSV columns written as integers; every other number is a float
INT_COLUMNS = {"iter", "paths", "seed", "iterations", "converged"}


class TestCsvValues:
    def test_every_cell_is_written_in_its_text_form(self, tmp_path):
        """Floats in shortest round-trip form, ints as ints, and the
        scientific cells as ``format_sci`` of the long table's integral."""
        runs = [
            ["solve", "--problem", "example1", "--h", "1/8", "--rule", "tau=h", "--eps0", "1e-5"],
            ["solve", "--problem", "example1", "--h", "1/8", "--estimator", "monte-carlo",
             "--paths", "20", "--seed", "3", "--eps0", "1e-5"],
            ["solve", "--problem", "example2", "--h", "1/4", "--eps0", "1e-4"],
            ["convergence", "--problem", "example1", "--h", "1/8,1/10", "--rule", "tau=h",
             "--paths", "30"],
            ["constraint-table", "--problem", "example1", "--h", "1/8,1/10", "--rule", "tau=h",
             "--delta", "10,0.2"],
        ]
        tables = {}
        for i, argv in enumerate(runs):
            out = tmp_path / str(i)
            assert main(argv + ["--output-dir", str(out)]) == 0
            for path in sorted(out.glob("*.csv")):
                with path.open(newline="") as f:
                    tables[f"{i}/{path.name}"] = list(csv.DictReader(f))
        assert {key.split("/")[1] for key in tables} == {
            "iterations.csv", "final_fields.csv", "errors.csv", "table.csv", "table_long.csv"
        }
        bad = []
        for key, rows in tables.items():
            wide_table = key.endswith("/table.csv")
            for row in rows:
                for column, cell in row.items():
                    if column == "integral_sci" or (wide_table and column != "delta"):
                        continue  # scientific cells, checked against the long table below
                    want = str(int(cell)) if column in INT_COLUMNS else repr(float(cell))
                    if cell != want:
                        bad.append((key, column, cell))
        assert bad == []

        long, wide = tables["4/table_long.csv"], tables["4/table.csv"]
        sci = [format_sci(float(row["integral"])) for row in long]
        assert [row["integral_sci"] for row in long] == sci
        assert [cell for row in wide for column, cell in row.items() if column != "delta"] == sci
        assert [row["delta"] for row in wide] == [row["delta"] for row in long[::2]]  # two --h


class TestReferenceOutputs:
    """Outputs that must stay within 1e-12 relative of the recorded reference.

    The ill-conditioned columns (a multiplier formed from a near-cancelling
    integral, the difference of nearly equal iterates, a log-log fit over
    close mesh sizes) show a change in summation order first.
    """

    def test_2d_solve_iterations(self, tmp_path):
        argv = [
            "solve", "--problem", "example2", "--h", "1/20", "--rule", "tau=h/sqrt2",
            "--output-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        got = (tmp_path / "iterations.csv").read_text().splitlines()
        want = (REFERENCE / "solve_example2_h1-20_iterations.csv").read_text().splitlines()
        assert got[0] == want[0]
        assert len(got) == len(want)
        for g, w in zip(got[1:], want[1:]):
            (g_iter, *g_vals), (w_iter, *w_vals) = g.split(","), w.split(",")
            assert g_iter == w_iter
            assert len(g_vals) == len(w_vals)
            assert all(_close(float(a), float(b)) for a, b in zip(g_vals, w_vals)), (g, w)

    def test_monte_carlo_solve_final_fields(self, tmp_path):
        argv = [
            "solve", "--problem", "example1", "--h", "1/10", "--rule", "tau=h",
            "--estimator", "monte-carlo", "--paths", "50", "--seed", "7",
            "--output-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        got = (tmp_path / "final_fields.csv").read_text().splitlines()
        want = (REFERENCE / "solve_example1_mc_h1-10_final_fields.csv").read_text().splitlines()
        assert got[0] == want[0]
        assert len(got) == len(want)
        exact = {"t", "x0"}
        for g, w in zip(got[1:], want[1:]):
            for column, a, b in zip(want[0].split(","), g.split(","), w.split(",")):
                assert a == b if column in exact else _close(float(a), float(b)), (column, g, w)

    def test_monte_carlo_table(self, tmp_path):
        argv = [
            "constraint-table", "--problem", "example1", "--rule", "tau=h", "--h", "1/40,1/45",
            "--delta", "0.2,-0.1", "--estimator", "monte-carlo", "--paths", "400", "--seed", "7",
            "--output-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        got = (tmp_path / "table_long.csv").read_text().splitlines()
        want = (
            REFERENCE / "constraint_table_example1_mc_h1-40_1-45_table_long.csv"
        ).read_text().splitlines()
        assert got[0] == want[0]
        assert len(got) == len(want)
        exact = {"iterations", "converged"}
        for g, w in zip(got[1:], want[1:]):
            for column, a, b in zip(want[0].split(","), g.split(","), w.split(",")):
                assert a == b if column in exact else _close(float(a), float(b)), (column, g, w)

    def test_convergence_orders(self, tmp_path):
        argv = [
            "convergence", "--problem", "example1", "--rule", "tau=h", "--h", "1/40,1/45",
            "--paths", "400", "--seed", "7", "--output-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        got = json.loads((tmp_path / "orders.json").read_text())
        want = json.loads(
            (REFERENCE / "convergence_example1_h1-40_1-45_orders.json").read_text()
        )
        assert got["scale"] == want["scale"]
        assert got["fits"].keys() == want["fits"].keys()
        for quantity, fit in want["fits"].items():
            assert got["fits"][quantity].keys() == fit.keys()
            for key, value in fit.items():
                assert _close(got["fits"][quantity][key], value), (quantity, key)


# Inputs that must exit 2 before anything is solved or written:
# (command, other flags, option key, bad value).  Each runs as a flag and as a
# config-file line.
BAD_INPUTS = [
    ("solve", [], "estimator", "bogus"),
    ("solve", [], "xd_reading", "nope"),
    ("solve", ["--estimator", "monte-carlo"], "paths", "abc"),
    ("solve", [], "max_iter", "0"),
    ("solve", [], "eps0", "0"),
    ("solve", [], "eps0", "nan"),
    ("solve", ["--estimator", "monte-carlo"], "paths", "0"),
    ("solve", ["--estimator", "monte-carlo"], "seed", "-1"),
    ("solve", [], "h", "0"),
    ("solve", [], "tau", "0"),
    ("solve", [], "h", "-1/10"),
    ("solve", ["--problem", "example2"], "gamma", "-1"),
    ("verify", [], "samples", "-3"),
    ("verify", [], "samples", "0"),
    ("solve", [], "beta", "nan"),
    ("solve", ["--problem", "example2"], "lam", "inf"),
    ("solve", [], "h", "1/10,1/20"),
    ("solve", ["--h", "1/10"], "tau", "1/10,1/20"),
    ("solve", ["--h", "1/10"], "gamma", "3"),
    ("solve", ["--h", "1/10"], "lam", "0.1"),
    ("verify", ["--problem", "example2"], "xd_reading", "auto"),
    ("convergence", ["--paths", "20"], "h", "1/10,1/10"),
    ("convergence", ["--h", "1/8,1/10", "--paths", "20"], "tau", "1/8"),
    ("constraint-table", ["--delta", "0.2"], "h", "1/10,0.1"),
]

# A valid option value given to a command that does not read that option:
# (command, other flags, option key, value).
UNREAD_INPUTS = [
    ("convergence", ["--h", "1/8,1/10", "--paths", "20"], "delta", "5"),
    ("convergence", ["--h", "1/8,1/10", "--paths", "20"], "samples", "3"),
    ("verify", [], "h", "1/10"),
    ("verify", [], "rule", "tau=h"),
    ("verify", [], "paths", "7"),
    ("verify", [], "estimator", "monte-carlo"),
    ("verify", [], "delta_mode", "problem"),
    ("solve", [], "samples", "3"),
    ("solve", [], "delta_mode", "problem"),
    ("constraint-table", ["--delta", "0.2"], "samples", "3"),
    ("constraint-table", ["--delta", "0.2"], "delta_mode", "problem"),
    # a mean-field run draws no paths
    ("solve", [], "paths", "5"),
    ("solve", [], "seed", "3"),
    ("constraint-table", ["--delta", "0.2"], "paths", "5"),
    ("constraint-table", ["--delta", "0.2"], "seed", "3"),
    # a valid --delta-mode value after its prefix, not read as --delta-mode
    ("convergence", ["--h", "1/8,1/10"], "delta", "problem"),
]


# Each run command given --tau, to be given --rule too: (command, flags).
# values that parse but that the library cannot run, each with the text of its error line
UNRUNNABLE = [
    ("solve", ["--h", "1"], "--h 1 gives one cell"),
    ("convergence", ["--h", "1,1/2", "--paths", "20"], "--h 1 gives one cell"),
    ("constraint-table", ["--h", "1,1/2", "--delta", "0.2"], "--h 1 gives one cell"),
    ("solve", ["--delta", "1e400"], "argument --delta"),
    ("solve", ["--estimator", "monte-carlo", "--paths", "5000000000"], "argument --paths"),
]

TAU_AND_RULE = [
    ("solve", ["--h", "1/10", "--tau", "1/100"]),
    ("convergence", ["--h", "1/8,1/10", "--tau", "1/64,1/100", "--paths", "20"]),
    ("constraint-table", ["--h", "1/8,1/10", "--tau", "1/64,1/100", "--delta", "0.2"]),
]


def _check_config_file_equals_flags(tmp_path, capsys, problem, step_key, step_value):
    """A solve from a config file of every option equals the same solve from flags.

    The time steps come from one of --tau and --rule, which exclude each other.
    """
    values = {
        "problem": problem, "h": "1/4", step_key: step_value, "delta": "0.3",
        "paths": "40", "seed": "3", "rho": "0.2", "eps0": "1e-5", "max_iter": "60",
        "estimator": "monte-carlo", "beta": "0.3", "exact_mu": "0.9",
    }
    per_problem = {
        "example1": {"xd_reading": "plain_w"},
        "example2": {"gamma": "0.3", "lam": "0.1"},
    }
    every_key = {name.replace("-", "_") for name in COMMAND_OPTIONS["solve"]}
    steps = {"tau", "rule"}
    assert set(values) | steps | {"output_dir"} | set().union(*per_problem.values()) == every_key
    values.update(per_problem[problem])

    cfg = tmp_path / "run.cfg"
    lines = [f"{k} = {v}" for k, v in values.items()]
    cfg.write_text("\n".join(lines + [f"output_dir = {tmp_path / 'cfg'}"]) + "\n")
    assert main(["solve", "--config", str(cfg)]) == 0
    from_config = capsys.readouterr()
    argv = ["solve", "--output-dir", str(tmp_path / "flags")]
    for k, v in values.items():
        argv += ["--" + k.replace("_", "-"), v]
    assert main(argv) == 0
    assert capsys.readouterr() == from_config
    written = sorted(p.name for p in (tmp_path / "cfg").iterdir())
    assert written == ["final_fields.csv", "iterations.csv"]
    assert written == sorted(p.name for p in (tmp_path / "flags").iterdir())
    for name in written:
        assert (tmp_path / "cfg" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()


@pytest.fixture
def no_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a solver ran before the configuration was rejected")

    names = ("GradientProjection", "convergence_study", "constraint_table", "verify_manufactured")
    for name in names:
        monkeypatch.setattr(f"socfem.cli.{name}", refuse)


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = example1\nh = 1/8\nrule = tau=h\neps0 = 1e-5\n")
        out = tmp_path / "out"
        argv = ["solve", "--config", str(cfg), "--h", "1/10", "--output-dir", str(out)]
        assert main(argv) == 0
        fields = (out / "final_fields.csv").read_text().splitlines()
        assert len(fields) == 1 + 11 * 9  # the flag's h = 1/10, not the file's 1/8

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "command,flags,key,value", BAD_INPUTS, ids=[f"{c}-{k}={v}" for c, _, k, v in BAD_INPUTS]
    )
    def test_bad_input_exits_2_before_solving(
        self, tmp_path, capsys, no_solver, source, command, flags, key, value
    ):
        flag = "--" + key.replace("_", "-")
        out = tmp_path / "out"
        argv = [command, *flags, "--output-dir", str(out)]
        if source == "flag":
            argv.append(f"{flag}={value}")
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key} = {value}\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err  # "configuration error:" or argparse's "error:"
        assert flag in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_every_option_is_read_by_some_command(self):
        assert set().union(*COMMAND_OPTIONS.values()) == set(OPTIONS)

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "command,flags,key,value",
        UNREAD_INPUTS,
        ids=[f"{c}-{k}={v}" for c, _, k, v in UNREAD_INPUTS],
    )
    def test_option_the_command_does_not_read_exits_2(
        self, tmp_path, capsys, no_solver, source, command, flags, key, value
    ):
        flag = "--" + key.replace("_", "-")
        out = tmp_path / "out"
        argv = [command, *flags, "--output-dir", str(out)]
        if source == "flag":
            argv += [flag, value]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key} = {value}\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert flag in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys, no_solver):
        missing = tmp_path / "missing.cfg"
        assert main(["solve", "--config", str(missing), "--output-dir", str(tmp_path)]) == 2
        assert str(missing) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_undecodable_config_file(self, tmp_path, capsys, no_solver):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff")
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"socfem: error: cannot read config file {str(cfg)!r}: 'utf-8' codec can't "
            "decode byte 0xff in position 0: invalid start byte"
        ]
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("problem", ["example1", "example2"])
    def test_config_file_equals_flags(self, tmp_path, capsys, problem):
        _check_config_file_equals_flags(tmp_path, capsys, problem, "tau", "1/8")

    @pytest.mark.parametrize("problem", ["example1", "example2"])
    def test_config_file_with_rule_equals_flags(self, tmp_path, capsys, problem):
        _check_config_file_equals_flags(tmp_path, capsys, problem, "rule", "tau=h^2")

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command,flags", TAU_AND_RULE, ids=[c for c, _ in TAU_AND_RULE])
    def test_tau_with_rule_exits_2_before_solving(
        self, tmp_path, capsys, no_solver, source, command, flags
    ):
        out = tmp_path / "out"
        argv = [command, *flags, "--output-dir", str(out)]
        if source == "flag":
            argv += ["--rule", "tau=h^2"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("rule = tau=h^2\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error:" in err and "--tau" in err and "--rule" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,flags,named", UNRUNNABLE, ids=[" ".join([c, *f]) for c, f, _ in UNRUNNABLE]
    )
    def test_unrunnable_value_exits_2_before_solving(
        self, tmp_path, capsys, no_solver, command, flags, named
    ):
        out = tmp_path / "out"
        assert main([command, *flags, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            next(line for line in err.splitlines() if named in line)
        ]
        assert "Traceback" not in err
        assert not out.exists()

    def test_defaults_are_the_library_defaults(self):
        """Every run default the parser fills in is the library's own, read
        from the signature of the function the command calls."""

        def defaults(fn):
            return {k: p.default for k, p in inspect.signature(fn).parameters.items()}

        parser, config = _build_parser(), OptimizerConfig()
        for command, fn in (("convergence", convergence_study), ("constraint-table", constraint_table)):
            args = parser.parse_args([command])
            _fill_sampling(args)
            library = defaults(fn)
            for key in ("paths", "seed", "estimator"):
                assert getattr(args, key) == library[key], (command, key)
            assert (args.eps0, args.max_iter) == (config.eps0, config.max_iter)
        args = parser.parse_args(["convergence"])
        assert args.delta_mode == defaults(convergence_study)["delta_mode"]
        args = parser.parse_args(["verify"])
        _fill_sampling(args)
        library = defaults(verify_manufactured)
        assert (args.samples, args.seed) == (library["samples"], library["seed"])
        assert OPTIONS["estimator"]["choices"] == ESTIMATORS
        assert OPTIONS["delta-mode"]["choices"] == DELTA_MODES

    def test_paths_bound_is_the_sampler_bound(self):
        path_count = OPTIONS["paths"]["type"]
        assert path_count(str(MAX_PATHS)) == MAX_PATHS
        for text in ("0", str(MAX_PATHS + 1)):
            with pytest.raises(ValueError):
                path_count(text)

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        for line in ("wibble = 3", "threads = 2", f"config = {cfg}"):
            cfg.write_text(line + "\n")
            assert main(["solve", "--config", str(cfg)]) == 2

    def test_bad_fraction_exit_code(self, tmp_path):
        argv = ["solve", "--h", "1//9", "--output-dir", str(tmp_path)]
        assert main(argv) == 2

    def test_tau_not_dividing_horizon(self, tmp_path, capsys, no_solver):
        argv = ["solve", "--h", "3/7", "--rule", "tau=h", "--output-dir", str(tmp_path)]
        assert main(argv) == 2
        # a pitch that divides the domain, with a tau that does not divide T
        out = tmp_path / "out"
        assert main(["solve", "--h", "1/10", "--tau", "3/7", "--output-dir", str(out)]) == 2
        assert "error: tau 3/7 does not divide the horizon T=1.0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "lines,named",
        [(["wibble"], "bad config line (expected key = value): 'wibble'"),
         (["# a comment", "   # an indented comment", "h = 0"], "argument --h")],
        ids=["no-equals", "comment-lines-skipped"],
    )
    def test_config_lines_exit_2_before_solving(self, tmp_path, capsys, no_solver, lines, named):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and named in err
        assert "comment" not in err  # a comment-only line is never reported
        assert not out.exists()

    def test_rule_dimension_mismatch(self, tmp_path):
        argv = [
            "solve", "--problem", "example2", "--h", "1/4", "--rule", "tau=h",
            "--output-dir", str(tmp_path),
        ]
        assert main(argv) == 2

    def test_unknown_flag(self):
        assert main(["solve", "--wibble", "3"]) == 2
        assert main(["solve", "--threads", "2"]) == 2

    def test_2d_defaults_runs(self, tmp_path):
        argv = [
            "solve", "--problem", "example2", "--h", "1/4", "--eps0", "1e-4",
            "--output-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        fields = (tmp_path / "final_fields.csv").read_text().splitlines()
        assert fields[0] == "t,x0,x1,control,state_mean,adjoint_mean"
