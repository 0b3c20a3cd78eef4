"""socfem benchmark: the paper's three experiment shapes through the CLI.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``);
``src`` goes on the children's ``PYTHONPATH``, nothing is installed.  Each
measured invocation of ``socfem.cli.main`` runs in a fresh child
interpreter, one after another, with the BLAS / thread environment
variables in ``STRIPPED_ENV`` removed so that socfem's own defaults are
measured.  Invocations repeat until ``--seconds`` have passed, at least
three times and an odd number of times; timings are medians over them.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: time from the call into ``socfem.cli.main`` until it returns;
* ``setup_s``: time for a fresh interpreter to import ``socfem.cli``
  (median of one import after each invocation, at least ``SETUP_PROBES``,
  after one warm-up import);
* ``cpu_s``: user + system CPU time of the child during the command;
* ``peak_rss_mb``: the child's maximum resident set size;
* ``pass_ratio``: cells that passed every check / cells attempted.

``--trace 1`` runs the untraced invocations as well (for the tracing
overhead), then one traced invocation and one with
``OPENBLAS_NUM_THREADS=1``, and reports the per-layer metrics of
``layers.py`` plus ``trace.overhead_s`` and ``baseline.blas1_wall_s``.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Everything else a run saw
(machine block, every invocation, every failed check) goes to
``.perfbench_work/<run>/results.json`` under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
STRIPPED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SOCFEM_THREADS")
MIN_INVOCATIONS = 3
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150
RUN_BUDGET_S = 170  # the whole run must end within 180 s
SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import socfem.cli; "
    "print(time.perf_counter() - t)"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, a child that hangs)."""


def child_env(root: Path, blas1: bool = False) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    if blas1:
        env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def setup_probe(root: Path) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET], cwd=root, env=child_env(root),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"importing socfem.cli failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


class Run:
    """One workload at one seed: its invocations, checks and metrics."""

    def __init__(self, root: Path, name: str, seed: int, work: Path):
        self.root, self.name, self.seed = root, name, seed
        self.argv = workloads.flags(name, seed)
        self.work = work
        self.invocations: list[dict] = []
        self.attempted = self.failed = 0

    def invoke(self, kind: str, blas1: bool = False, traced: bool = False) -> dict:
        tag = f"{len(self.invocations):02d}-{kind}"
        base = self.work / tag
        out = base / "cli_out"  # the CLI's --output-dir, holding only its files
        out.mkdir(parents=True)
        result_file = base / "result.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--out", str(out), "--result", str(result_file)]
        if traced:
            cmd += ["--spans", str(base / "spans.csv"), "--run-id", f"{self.work.name}/{tag}"]
        cmd += ["--"] + self.argv
        with open(base / "stdout.txt", "w") as so, open(base / "stderr.txt", "w") as se:
            try:
                proc = subprocess.run(
                    cmd, cwd=self.root, env=child_env(self.root, blas1),
                    stdout=so, stderr=se, timeout=CHILD_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                raise BenchError(f"{tag} ran past {CHILD_TIMEOUT_S} s")
        if proc.returncode != 0 or not result_file.is_file():
            raise BenchError(f"{tag}: benchmark child failed; see {base / 'stderr.txt'}")
        rec = json.loads(result_file.read_text())
        if Path(rec["socfem_file"]).resolve().parent != (self.root / "src" / "socfem").resolve():
            raise BenchError(f"measured socfem from {rec['socfem_file']}, not this checkout")
        cells, failed, problems = workloads.check_run(
            self.name, self.argv, out, rec["exit_code"], self.seed
        )
        self.attempted += cells
        self.failed += failed
        rec.update(kind=kind, tag=tag, cells=cells, failed=failed, problems=problems)
        self.invocations.append(rec)
        status = "ok" if not failed else f"FAILED {failed}/{cells}: {'; '.join(problems[:3])}"
        print(
            f"  {tag}: exit {rec['exit_code']} wall {rec['wall_s']:.3f} s "
            f"cpu {rec['cpu_s']:.3f} s rss {rec['peak_rss_mb']:.1f} MB  {status}",
            flush=True,
        )
        return rec

    def timed(self, seconds: float, started: float, probes: list | None) -> list[dict]:
        """Untraced invocations until ``seconds`` have passed.

        At least ``MIN_INVOCATIONS`` and an odd count, so the median is one
        invocation's value.  With ``probes``, a set-up probe follows each
        invocation, so probes spread over the whole run.
        """
        recs = []
        begin = time.perf_counter()
        while True:
            recs.append(self.invoke("timed"))
            if probes is not None:
                probes.append(setup_probe(self.root))
            now = time.perf_counter()
            last = recs[-1]["wall_s"] + recs[-1]["import_s"]
            if now - started + 2 * last > RUN_BUDGET_S:
                return recs
            if now - begin >= seconds and len(recs) >= MIN_INVOCATIONS and len(recs) % 2:
                return recs


def quartiles(values: list[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    work = root / ".perfbench_work" / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}-{time.time_ns()}"
    run = Run(root, name, seed, work)
    print(f"{name} seed={seed}: socfem {' '.join(run.argv)}", flush=True)

    setup_probe(root)  # warm-up: bytecode and file cache, not counted
    probes = None if trace else []
    timed = run.timed(seconds, started, probes)
    walls = [r["wall_s"] for r in timed]
    metrics: dict = {}
    detail: dict = {"timed_walls_s": walls}
    if not trace:
        probes += [setup_probe(root) for _ in range(SETUP_PROBES - len(probes))]
        detail["setup_probes_s"] = probes
        values = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(probes), "s"),
            "cpu_s": (statistics.median(r["cpu_s"] for r in timed), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in timed), "MB"),
        }
    else:
        traced = run.invoke("traced", traced=True)
        blas1 = run.invoke("blas1", blas1=True)
        values = {k: (v["value"], v["unit"]) for k, v in traced["layers"].items()}
        values["trace.overhead_s"] = (traced["wall_s"] - statistics.median(walls), "s")
        values["baseline.blas1_wall_s"] = (blas1["wall_s"], "s")
        detail["absent_hooks"] = traced["absent_hooks"]
        detail["spans_file"] = str(work / traced["tag"] / "spans.csv")
        detail["blas1_openblas"] = blas1["openblas"]
    passed = run.attempted - run.failed
    if not trace:
        values["pass_ratio"] = (passed / run.attempted, "ratio")
    for key, (value, unit) in values.items():
        metrics[key] = {"value": value, "unit": unit}
        shown = "absent" if value is None else f"{value:.6g}"
        spread = ""
        if key == "wall_s" and len(walls) > 1:
            spread = " (median of %d, quartiles %.4g..%.4g)" % ((len(walls),) + quartiles(walls))
        print(f"  {name} {key} = {shown} {unit}{spread}", flush=True)

    first = timed[0]  # runs with socfem's own thread defaults
    machine = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": first["python"],
        "numpy": first["numpy"],
        "scipy": first["scipy"],
        "openblas": first["openblas"],
        "stripped_env": list(STRIPPED_ENV),
        "stripped_env_present": [k for k in STRIPPED_ENV if k in os.environ],
    }
    print(f"  machine: {json.dumps(machine)}", flush=True)
    summary = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    work.mkdir(parents=True, exist_ok=True)
    (work / "results.json").write_text(json.dumps(
        dict(summary, workload=name, seed=seed, argv=run.argv, machine=machine,
             detail=detail, invocations=run.invocations), indent=1,
    ))
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "socfem" / "cli.py").is_file():
        print(f"error: {root} holds no socfem source tree (src/socfem/cli.py)", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {
            name: run_workload(root, name, args.seed, args.seconds, bool(args.trace))
            for name in names
        }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{key}": m for name, r in results.items() for key, m in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
