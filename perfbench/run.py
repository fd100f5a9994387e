"""dpawno benchmark: the real CLI stages on two workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk --seed 1 --seconds 50 --trace 0

Closed loops: within a worker every stage (`dpawno.cli.main`, in process)
starts only after the previous one has returned.  The seed picks one of
VARIANTS input variants (run.seed plus the workload's `--set` overrides); the
program sees only those inputs.  Set-up is `gen-data` in a fresh process,
repeated SETUP_REPEATS times one after another.  The timed stages then run as
whole cycles (train, evaluate, uq, reliability), each cycle in a fresh worker
process.  Cycles run in one stream per CPU (at most STREAMS), each stream
pinned to its own CPU; the streams sample the host's speed on two cores at
once (README.md, "Noise").  They run in rounds: every stream starts one cycle
at the same moment, and the next round waits for all of them.  A run plans
the workload's number of rounds, and `--seconds` caps it (no round starts
after it has passed, and one always runs).  Unlike a minimum, a median does
not fall as samples are added, so a faster commit that fits more rounds
gains no edge from them.

`--trace 0` prints the end-to-end metrics (each stage's median over the
cycles of all streams, and the median set-up).  `--trace 1`
runs one untraced and one traced pass (gen-data plus one cycle each) and
prints the per-layer metrics of the traced pass.  Every stage invocation is
one operation; it fails when it exits non-zero or its outputs fail a check
(see README.md).  The last line of standard output is the result object.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFERENCE = HERE / "reference.json"

DESK = "burgers1d-missing-diffusion-desk"
BURGERS2D = "burgers2d-missing-xdiff"
VARIANTS = 16
SETUP_REPEATS = 10
STREAMS = 2  # concurrent cycle streams, one per CPU, never more than nproc
RUN_BUDGET_S = 150  # workers still running this long after the start are killed
STAGES = ("train", "evaluate", "uq", "reliability")
SIDECARS = ("train_log.csv",)  # plus every *.meta.json

# Trained-model numbers may drift by this relative amount from the stored
# reference (float sums in another order).  p_f and the exact-solver record
# must match the reference exactly.
REL_TOL = 1e-7

WORKLOADS = {
    "desk": {
        "preset": DESK, "base_seed": 20240608, "cycles": 8,
        "sets": ["ic.train.1.count=2", "ic.train.2.count=2", "data.n_train=4",
                 "train.epochs=8", "train.schedule=auto: 10 @ 2, 50 @ 6",
                 "ic.test.1.count=20", "ic.test.2.count=20", "data.n_test=40",
                 "limit_state.horizon=5"],
    },
    "burgers2d-train": {
        "preset": BURGERS2D, "base_seed": 20240607, "cycles": 4,
        "sets": ["ic.train.1.count=2", "data.n_train=2", "data.nt_train=10",
                 "ic.test.1.count=4", "data.n_test=4", "data.nt_test=5",
                 "train.epochs=1", "train.schedule=pairs: 0:10",
                 "eval.steps=5", "eval.snapshots=5", "probe.t=3, 5",
                 "limit_state.horizon=5", "reliability.n=2"],
    },
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# inputs

def inputs(workload, seed):
    """(variant, preset, overrides) generated from the workload seed."""
    spec = WORKLOADS[workload]
    variant = seed % VARIANTS
    sets = [f"run.seed={spec['base_seed'] + variant}"] + spec["sets"]
    return variant, spec["preset"], [a for kv in sets for a in ("--set", kv)]


def gen_data_argv(preset, sets, data):
    return ["gen-data", "--preset", preset, *sets, "--out", str(data)]


def cycle_argvs(preset, sets, data, out):
    model = str(out / "train" / "model.dpaw")
    common = ["--preset", preset, *sets]
    return [
        ["train", *common, "--data", str(data), "--out", str(out / "train"),
         "--mode", "dpa"],
        ["evaluate", *common, "--data", str(data), "--dpa", model,
         "--out", str(out / "evaluate")],
        ["uq", *common, "--data", str(data), "--dpa", model,
         "--out", str(out / "uq")],
        ["reliability", *common, "--dpa", model, "--out", str(out / "reliability")],
    ]


def required_steps(preset, sets):
    """Sample-steps each stage's outputs require, from the configuration."""
    from dpawno.config import load_config
    from dpawno.training import schedule_lookup
    cfg = load_config(preset=preset, overrides=sets[1::2])
    tcfg = cfg.train_config()
    batches = [min(tcfg.batch_size, cfg.n_train - start)
               for start in range(0, cfg.n_train, tcfg.batch_size)]
    train = sum(sum(batches) * schedule_lookup(tcfg.unroll_schedule, e)
                for e in range(tcfg.epochs))
    nt = cfg.nt_test
    horizon = max([min(cfg.eval_steps, nt)] + [t for t in cfg.snapshots() if t <= nt])
    models = 2  # dpa-wno and physics-only; exact and dpa-wno for reliability
    return {
        "train": train,
        "evaluate": models * cfg.n_test * horizon,
        "uq": models * cfg.n_test * max(t for _, t in cfg.probes()),
        "reliability": models * cfg.reliability_n * cfg.limit_state().horizon,
    }


# ---------------------------------------------------------------------------
# running

def pin_blas_threads():
    """BLAS in every worker uses one thread (see README.md, "Noise")."""
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                      MKL_NUM_THREADS="1")


def run_worker(work, name, stages, deadline, trace=False, uq_required=0,
               describe_machine=True, cpu=None):
    """Run `stages` in one fresh worker process; (result, wall seconds).

    With `cpu` set, the worker pins itself to that CPU before its stages."""
    job = {"src": str(SRC), "stages": stages, "trace": trace,
           "machine": describe_machine, "uq_required_steps": uq_required,
           "cpu": cpu, "result": str(work / f"{name}.result.json")}
    job_path = work / f"{name}.job.json"
    job_path.write_text(json.dumps(job))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a worker could start")
    expired = []

    def kill(proc):
        expired.append(True)
        proc.kill()

    t0 = time.perf_counter()
    with open(work / f"{name}.log", "w") as log:
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(job_path)],
                                stdout=log, stderr=subprocess.STDOUT)
        # wait() with a timeout polls in sleeps of up to 50 ms, which would
        # quantize the set-up times; a timer kills the worker instead
        timer = threading.Timer(timeout, kill, (proc,))
        timer.start()
        proc.wait()
        wall = time.perf_counter() - t0
        timer.cancel()
    if expired:
        raise BenchError(f"worker {name} exceeded the time limit")
    try:
        result = json.loads(Path(job["result"]).read_text())
    except (OSError, ValueError):
        result = {"stages": [{"stage": a[0], "code": None, "seconds": None}
                             for a in stages]}
    return result, wall


def primary_digests(out):
    """sha256 of every primary output file under `out` (sidecars excluded)."""
    digests = {}
    for path in sorted(p for p in Path(out).rglob("*") if p.is_file()):
        if path.name.endswith(".meta.json") or path.name in SIDECARS:
            continue
        digests[str(path.relative_to(out))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def observe(out):
    """The trained-model numbers checked against the stored reference."""
    meta = json.loads((out / "train" / "train.meta.json").read_text())
    rows = (out / "evaluate" / "metrics.csv").read_text().splitlines()
    header = rows[0].split(",")
    er1 = {r.split(",")[0]: float(r.split(",")[header.index("er1_mse")])
           for r in rows[1:]}
    records = {json.loads(line)["model"]: line for line in
               (out / "reliability" / "reliability.jsonl").read_text().splitlines()}
    return {
        "final_loss": meta["final_loss"],
        "er1_mse": er1["dpa-wno"],
        "p_f": json.loads(records["dpa-wno"])["p_f"],
        "n": json.loads(records["dpa-wno"])["n"],
        "exact": records["exact"],
    }


def reference(workload, variant):
    """The stored reference values of one input variant, or None."""
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    return refs.get(workload, {}).get(str(variant))


def reference_failures(workload, variant, out):
    """Stages whose outputs disagree with the stored reference values."""
    ref = reference(workload, variant)
    if ref is None:
        return {"train": f"no reference for {workload} variant {variant}"}
    try:
        got = observe(out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return {"evaluate": f"outputs unreadable: {exc}"}
    bad = {}
    for key, stage in (("final_loss", "train"), ("er1_mse", "evaluate")):
        if abs(got[key] - ref[key]) > REL_TOL * abs(ref[key]):
            bad[stage] = f"{key} {got[key]!r} vs reference {ref[key]!r}"
    if got["p_f"] != ref["p_f"] or got["n"] != ref["n"]:
        bad["reliability"] = f"p_f {got['p_f']!r} vs reference {ref['p_f']!r}"
    elif got["exact"] != ref["exact"]:
        bad["reliability"] = "exact-solver record differs from the reference"
    return bad


class Ledger:
    """Operations attempted and failed; one operation per stage invocation."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, result, label):
        for s in result["stages"]:
            self.attempted += 1
            if s["code"] != 0:
                self.failures.append(f"{label}/{s['stage']}: exit code {s['code']}")

    def fail(self, label, stage, why):
        self.failures.append(f"{label}/{stage}: {why}")


def stage_digests(out):
    return {stage: primary_digests(out / stage) for stage in STAGES}


def compare_digests(ledger, label, got, want):
    for stage in want:
        if got[stage] != want[stage]:
            ledger.fail(label, stage, "primary outputs differ from the first pass")


def check_cycle(ledger, label, workload, variant, out):
    for stage, why in reference_failures(workload, variant, out).items():
        ledger.fail(label, stage, why)


def stage_seconds(result):
    return {s["stage"]: s["seconds"] for s in result["stages"]}


def measure(workload, seed, seconds, deadline):
    variant, preset, sets = inputs(workload, seed)
    n_cycles = WORKLOADS[workload]["cycles"]
    work = WORK / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = Ledger()
    setup_times, data_digests = [], []
    for i in range(SETUP_REPEATS):
        result, wall = run_worker(work, f"setup{i}",
                                  [gen_data_argv(preset, sets, work / f"data{i}")],
                                  deadline, describe_machine=False)
        ledger.record(result, f"setup{i}")
        setup_times.append(wall)
        data_digests.append(primary_digests(work / f"data{i}"))
        if data_digests[-1] != data_digests[0]:
            ledger.fail(f"setup{i}", "gen-data", "dataset differs from the first set-up")
    need = required_steps(preset, sets)
    cpus = sorted(os.sched_getaffinity(0))[:STREAMS]
    streams = [[] for _ in cpus]  # (name, result, out) of each cycle, in order
    errors = []
    go = []  # one entry per round: whether every stream starts another cycle
    start = time.monotonic()

    def next_round():  # runs once per round, when every stream is ready
        done = len(go)
        go.append(done < n_cycles and (done == 0 or time.monotonic() - start < seconds))

    # The streams start each round's cycles together, so their stages overlap
    # alike in every round (train with train); their contention for the
    # shared cache, memory and page faults then repeats from cycle to cycle.
    barrier = threading.Barrier(len(cpus), action=next_round)

    def stream(k):
        try:
            while True:
                barrier.wait()
                if not go[-1]:
                    break
                out = work / f"cycle{k}.{len(streams[k])}"
                argvs = cycle_argvs(preset, sets, work / "data0", out)
                result, _ = run_worker(work, out.name, argvs, deadline, cpu=cpus[k])
                streams[k].append((out.name, result, out))
        except threading.BrokenBarrierError:
            pass  # another stream failed; its error is reported
        except Exception as exc:  # any failure must release the other streams
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=stream, args=(k,)) for k in range(len(cpus))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    cycles, first = [], None
    for name, result, out in (c for s in streams for c in s):
        ledger.record(result, name)
        digests = stage_digests(out)
        if first is None:
            first = digests
        compare_digests(ledger, name, digests, first)
        check_cycle(ledger, name, workload, variant, out)
        cycles.append(result)
    times = [stage_seconds(c) for c in cycles]
    if any(t is None for c in times for t in c.values()):
        raise BenchError("a stage produced no timing; see the worker logs in " + str(work))
    # A stage's time is its median over the cycles of all streams.  On a
    # shared host a core can run a third slower for seconds to minutes at a
    # time; the median over two cores' samples follows the typical speed of
    # the run, while the minimum depends on whether the run happened to catch
    # a fast window (README.md, "Noise").
    metrics = {"setup_s": (statistics.median(setup_times), "s")}
    typical = {stage: statistics.median(t[stage] for t in times) for stage in STAGES}
    for stage in STAGES:
        metrics[f"{stage}_s"] = (typical[stage], "s")
    metrics["sample_steps_per_s"] = (sum(need.values()) / sum(typical.values()), "1/s")
    metrics["peak_rss_mb"] = (statistics.median(c["peak_rss_mb"] for c in cycles), "MB")
    info = {"cycles": [len(s) for s in streams], "cycles_planned": n_cycles,
            "cpus": cpus, "setup_repeats": SETUP_REPEATS,
            "stage_fastest_s": {stage: min(t[stage] for t in times) for stage in STAGES},
            "required_sample_steps": need, "machine": cycles[0]["machine"]}
    return metrics, ledger, info, work, variant


def measure_traced(workload, seed, deadline):
    variant, preset, sets = inputs(workload, seed)
    work = WORK / f"{workload}-s{seed}-p{os.getpid()}-trace"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = Ledger()
    need = required_steps(preset, sets)
    passes = {}
    for name, trace in (("untraced", False), ("traced", True)):
        out = work / name
        stages = [gen_data_argv(preset, sets, out / "data")]
        stages += cycle_argvs(preset, sets, out / "data", out)
        result, _ = run_worker(work, name, stages, deadline, trace=trace,
                               uq_required=need["uq"])
        ledger.record(result, name)
        check_cycle(ledger, name, workload, variant, out)
        passes[name] = (result, {**stage_digests(out),
                                 "gen-data": primary_digests(out / "data")})
    traced, untraced = passes["traced"], passes["untraced"]
    compare_digests(ledger, "traced", traced[1], untraced[1])
    if "layers" not in traced[0]:
        raise BenchError("the traced pass produced no trace; see " + str(work))
    want = (reference(workload, variant) or {}).get("tape_nodes")
    if traced[0]["tape_nodes"] != want:
        ledger.fail("traced", "train", f"tape node counts {traced[0]['tape_nodes']} "
                    f"differ from the reference {want}")
    secs = [sum(stage_seconds(p[0]).values()) for p in (traced, untraced)]
    metrics = {k: tuple(v) for k, v in traced[0]["layers"].items()}
    metrics["trace.overhead_s"] = (secs[0] - secs[1], "s")
    info = {"tape_nodes_by_batch": traced[0]["tape_nodes"],
            "tape_mb_by_batch": traced[0]["tape_mb"], "machine": traced[0]["machine"]}
    return metrics, ledger, info, work, variant


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dpawno" / "cli.py").is_file():
        print(f"dpawno sources not found under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    try:
        if args.trace:
            metrics, ledger, info, work, variant = measure_traced(
                args.workload, args.seed, deadline)
        else:
            metrics, ledger, info, work, variant = measure(
                args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    info.update(workload=args.workload, seed=args.seed, variant=variant,
                failures=ledger.failures)
    print(json.dumps(info, sort_keys=True))
    if not ledger.failures:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len({f.split(":")[0] for f in ledger.failures}),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
