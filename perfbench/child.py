"""One measured ``socfem`` CLI invocation in a fresh interpreter.

    python3 perfbench/child.py --out DIR --result FILE [--spans FILE --run-id ID] -- ARGS...

Times the import of ``socfem.cli`` and the call into ``socfem.cli.main``
(wall, user + system CPU, peak RSS), then records the machine: Python,
numpy and scipy versions, and the build and effective thread count of
both bundled OpenBLAS copies, read through ``ctypes`` after the command.
With ``--spans`` the call runs under the outside-in tracer and the result
also carries the per-layer metrics.  The result is one JSON file.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

# (package, library glob, get_num_threads symbol, get_config symbol)
OPENBLAS = (
    ("numpy", "libscipy_openblas64_*.so*", "scipy_openblas_get_num_threads64_",
     "scipy_openblas_get_config64_"),
    ("scipy", "libscipy_openblas-*.so*", "scipy_openblas_get_num_threads",
     "scipy_openblas_get_config"),
)


def openblas_state() -> dict:
    """Build string and effective thread count of each bundled OpenBLAS."""
    out = {}
    for package, pattern, threads_sym, config_sym in OPENBLAS:
        entry = {"threads": "absent", "build": "absent", "library": "absent"}
        module = sys.modules.get(package)
        if module is not None:
            libs = sorted((Path(module.__file__).parent.parent / f"{package}.libs").glob(pattern))
            if libs:
                entry["library"] = libs[0].name
                try:
                    lib = ctypes.CDLL(str(libs[0]))
                    get_threads = getattr(lib, threads_sym)
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    entry["threads"] = get_threads()
                    get_config = getattr(lib, config_sym)
                    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                    entry["build"] = get_config().decode()
                except (OSError, AttributeError):
                    pass
        out[package] = entry
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--run-id", default="")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = [a for a in args.argv if a != "--"] + ["--output-dir", args.out]

    t0 = time.perf_counter()
    import socfem.cli as cli

    import_s = time.perf_counter() - t0

    tracer = None
    if args.spans:
        import layers
        from tracer import Tracer

        tracer = Tracer(args.run_id)
        tracer.install(layers.HOOKS)

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:  # the console script would exit 1 with this traceback
        traceback.print_exc()
        code = 1
    wall = time.perf_counter() - w0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    import numpy
    import scipy

    result = {
        "exit_code": code,
        "import_s": import_s,
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,  # Linux reports KiB
        "socfem_file": cli.__file__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_state(),
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.spans)
        metrics = {}
        for name, (value, unit, spans) in layers.layer_metrics(tracer).items():
            absent = any(s in tracer.absent for s in spans)
            metrics[name] = {"value": None if absent else value, "unit": unit}
            if absent:
                metrics[name]["absent"] = True
        metrics["cli.bytes_written"] = {"value": layers.output_bytes(args.out), "unit": "B"}
        metrics["trace.spans"] = {"value": len(tracer.names), "unit": "count"}
        result["layers"] = metrics
        result["absent_hooks"] = sorted(set(tracer.absent))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
