"""Regenerate reference.json: the trained-model numbers of every input variant.

Usage (from the repository root):

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs gen-data and one traced cycle per variant and stores what `run.observe`
reads, plus the tape node counts of each batch shape (B, T) that the traced
run checks.  Regenerate only for a change that is meant to alter numerical
results or the tape.
"""

import json
import shutil
import sys
import time

import run


def main():
    names = sys.argv[1:] or sorted(run.WORKLOADS)
    run.pin_blas_threads()
    refs = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.is_file() else {}
    for workload in names:
        for variant in range(run.VARIANTS):
            _, preset, sets = run.inputs(workload, variant)
            work = run.WORK / f"reference-{workload}-{variant}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            stages = [run.gen_data_argv(preset, sets, work / "data")]
            stages += run.cycle_argvs(preset, sets, work / "data", work)
            result, wall = run.run_worker(work, "reference", stages,
                                          time.monotonic() + 900, trace=True)
            codes = [s["code"] for s in result["stages"]]
            if any(code != 0 for code in codes):
                sys.exit(f"{workload} variant {variant}: exit codes {codes}; see {work}")
            refs.setdefault(workload, {})[str(variant)] = {
                **run.observe(work), "tape_nodes": result["tape_nodes"]}
            run.REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
            shutil.rmtree(work)
            print(f"{workload} variant {variant}: {wall:.1f} s", flush=True)


if __name__ == "__main__":
    main()
