"""Run dpawno CLI stages in this process, one after another, and time them.

Usage: python3 perfbench/worker.py JOB.json

JOB.json holds {"src": <package source dir>, "stages": [argv, ...],
"trace": bool, "machine": bool, "uq_required_steps": int, "cpu": int or null,
"result": <path>}.  With "cpu" set, the process pins itself to that CPU
before its first stage.
Each argv is passed to `dpawno.cli.main` only after the previous call has
returned.  The result file receives each stage's exit code and wall time and
this process's peak resident memory; with "machine" set, also the machine
description (left out of timed set-up processes, whose whole life is timed);
with "trace" set, also the per-layer metrics of `tracer.Tracer`.
"""

import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
import traceback


def blas_threads():
    """Threads OpenBLAS will use, read from the library NumPy loaded."""
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def run_stage(main, argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error fails this stage, not the job
        traceback.print_exc()
        return 1


def main():
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import dpawno.cli as cli

    # described before pinning, so that nproc counts every CPU of the run
    described = machine() if job["machine"] else None
    if job.get("cpu") is not None:
        os.sched_setaffinity(0, {job["cpu"]})
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    stages = []
    for argv in job["stages"]:
        t0 = time.perf_counter()
        code = run_stage(cli.main, argv)
        stages.append({"stage": argv[0], "code": code,
                       "seconds": time.perf_counter() - t0})
        sys.stdout.flush()
    result = {
        "stages": stages,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if described is not None:
        result["machine"] = described
    if tracer is not None:
        result["layers"] = tracer.metrics(job["uq_required_steps"])
        result["tape_nodes"] = {k: sorted(v) for k, v in tracer.tape_nodes.items()}
        result["tape_mb"] = tracer.tape_mb
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
