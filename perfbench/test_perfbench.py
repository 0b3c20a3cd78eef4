"""Tests of the benchmark itself: tracer arithmetic, output checks, seeds.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import layers
import workloads
from tracer import Hook, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class FakeClock:
    """A clock that only moves when the traced toy code says so."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def work(self, ns):
        self.now += ns


@pytest.fixture
def toy(monkeypatch):
    """Toy package ``toypkg`` with nested calls; ``inner`` is bound twice."""
    clock = FakeClock()
    mod = types.ModuleType("toypkg.core")

    def inner():
        clock.work(3)
        return 1

    def outer():
        clock.work(5)
        mod.inner()
        clock.work(2)
        mod.inner()
        clock.work(1)

    def stream(k):
        for i in range(k):
            clock.work(2)
            yield i

    def consume(k):
        total = 0
        for i in mod.stream(k):
            clock.work(10)  # consumer work between resumes
            total += i
        return total

    mod.inner, mod.outer, mod.stream, mod.consume = inner, outer, stream, consume
    alias = types.ModuleType("toypkg.alias")
    alias.inner = inner  # ``from .core import inner`` elsewhere
    monkeypatch.setitem(sys.modules, "toypkg.core", mod)
    monkeypatch.setitem(sys.modules, "toypkg.alias", alias)
    hooks = [
        Hook(f"toypkg.core:{name}", f"toy.{name}") for name in ("inner", "outer", "stream", "consume")
    ]
    tracer = Tracer("toy-run", clock=clock)
    tracer.install(hooks, prefix="toypkg")
    yield types.SimpleNamespace(mod=mod, alias=alias, clock=clock, tracer=tracer, inner=inner)
    tracer.uninstall()


def test_self_time_of_nested_calls(toy):
    toy.mod.outer()
    t = toy.tracer
    assert t.totals("toy.outer").total_ns == 14
    assert t.totals("toy.outer").self_ns == 8
    assert t.totals("toy.inner").calls == 2
    assert t.totals("toy.inner").self_ns == 6
    assert t.aggregates[("toy.inner", "toy.outer")].calls == 2
    # span list: outer is the root, both inner spans point at it
    assert t.names == ["toy.outer", "toy.inner", "toy.inner"]
    assert t.parents == [-1, 0, 0]
    assert (t.starts, t.ends) == ([0, 5, 10], [14, 8, 13])


def test_every_binding_is_wrapped_and_restored(toy):
    toy.alias.inner()
    assert toy.tracer.totals("toy.inner").calls == 1
    toy.tracer.uninstall()
    assert toy.mod.inner is toy.inner and toy.alias.inner is toy.inner


def test_generator_is_timed_per_resume(toy):
    assert toy.mod.consume(3) == 3
    t = toy.tracer
    gen = t.totals("toy.stream")
    assert gen.calls == 4  # three items and the final StopIteration
    assert gen.total_ns == 6
    consume = t.totals("toy.consume")
    assert consume.total_ns == 36 and consume.self_ns == 30


def test_missing_target_is_reported_absent():
    tracer = Tracer("absent-run")
    tracer.install([Hook("socfem_no_such_module:f", "x.f"), Hook("json:no_such_name", "x.g")])
    assert tracer.absent == ["x.f", "x.g"]
    assert tracer._undo == []


def test_every_hook_target_exists():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import socfem.cli  # noqa: F401  (loads every socfem module)

    tracer = Tracer("hooks-run")
    try:
        tracer.install(layers.HOOKS)
        assert tracer.absent == []
        import socfem.analysis
        import socfem.optimizer
        import socfem.spde

        # bound in several namespaces: all of them go through the tracer
        assert socfem.optimizer.control_response is socfem.spde.control_response
        assert socfem.analysis.assemble is socfem.fem.assemble is socfem.assemble
        assert hasattr(socfem.spde.control_response, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(socfem.spde.control_response, "__wrapped__")


# -- output checks ----------------------------------------------------------


def _row(delta, integral, mu, converged="1"):
    return {"delta": repr(delta), "integral": repr(integral), "mu": repr(mu),
            "converged": converged}


def test_checker_accepts_pinned_and_slack_cells():
    rows = [_row(1.0, 1.0000000000000002, 2.9), _row(2.0, 1.06, 0.0)]
    assert workloads.check_table_rows(rows, [1.0, 2.0]) == []


def test_checker_rejects_infeasible_integral():
    problems = workloads.check_table_rows([_row(0.1, 0.1 + 1e-6, 3.0)], [0.1])
    assert len(problems) == 1 and "infeasible" in problems[0]


def test_checker_rejects_unconverged_cell():
    problems = workloads.check_table_rows([_row(0.1, 0.1, 3.0, converged="0")], [0.1])
    assert len(problems) == 1 and "converged=0" in problems[0]


def test_checker_rejects_active_multiplier_off_the_boundary():
    problems = workloads.check_table_rows([_row(0.1, 0.05, 3.0)], [0.1])
    assert len(problems) == 1 and "off delta" in problems[0]


def test_checker_rejects_missing_cell():
    assert workloads.check_table_rows([_row(0.1, 0.1, 3.0)], [0.1, -0.1]) == [
        "delta=-0.1: no table row"
    ]


def test_nonzero_exit_fails_every_cell(tmp_path):
    argv = workloads.flags("table_mc_1d", 3)
    assert workloads.check_run("table_mc_1d", argv, tmp_path, 1, 3) == (4, 4, ["exit code 1"])


def test_slopes_outside_the_band_fail():
    fits = {name: {"slope": sum(band) / 2} for name, band in workloads.SLOPE_BANDS.items()}
    assert workloads.check_slopes(fits) == []
    fits["h1_state"] = {"slope": 2.0}
    assert workloads.check_slopes(fits) == ["h1_state: slope 2.0 outside [0.7, 1.3]"]


def test_reference_mismatch_is_reported(tmp_path):
    ref = workloads.REFERENCE_DIR / "table_mc_1d"
    for name in ("table_long.csv", "table.csv"):
        (tmp_path / name).write_text((ref / name).read_text())
    assert workloads.compare_reference("table_mc_1d", tmp_path) == []
    text = (tmp_path / "table_long.csv").read_text().replace(",35,1", ",36,1", 1)
    (tmp_path / "table_long.csv").write_text(text)
    (problem,) = workloads.compare_reference("table_mc_1d", tmp_path)
    assert "iterations" in problem


# -- seeds and the benchmark file ---------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_maps_to_identical_flags(name):
    seeds = [0, 1, 2, 12345, workloads.DEFAULT_SEED]
    first = {s: workloads.flags(name, s) for s in seeds}
    assert all(workloads.flags(name, s) == first[s] for s in seeds)
    # and in a fresh interpreter with another hash seed
    code = (
        "import json, workloads; "
        f"print(json.dumps({{s: workloads.flags({name!r}, s) for s in {seeds!r}}}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True, check=True,
        env={"PYTHONHASHSEED": "12345", "PATH": ""},
    ).stdout
    assert {int(k): v for k, v in json.loads(out).items()} == first
    assert len({tuple(v) for v in first.values()}) > 1


def test_default_seed_gives_the_paper_deltas():
    assert workloads.flags("table_2d", workloads.DEFAULT_SEED)[-1] == "1,-1"
    deltas = workloads.flags("table_2d", 4)[-1].split(",")
    assert float(deltas[0]) == -float(deltas[1]) and 0.1 <= float(deltas[0]) <= 1.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    extras = {"cli.bytes_written", "trace.spans", "trace.overhead_s", "baseline.blas1_wall_s"}
    listed = [m["name"] for m in spec["per_layer"]]
    assert len(listed) == len(set(listed))
    assert set(listed) == set(layers.layer_metrics(Tracer("empty"))) | extras
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "setup_s", "cpu_s", "peak_rss_mb", "pass_ratio"
    }


def test_refuses_to_run_without_a_source_tree(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "table_2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
