"""Command-line experiment runner.

Subcommands: gen-data, train, evaluate, uq, reliability, gradcheck.
Exit codes: 0 success, 2 usage error, 3 numerical failure, 4 I/O error.

Primary outputs (datasets, checkpoints, metric/PDF/report files) are
byte-identical across re-runs with the same configuration and seed; wall
times and timestamps live only in sidecar files (*.meta.json, train_log.csv).
"""

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import datagen as dg
from . import gradcheck as gc
from . import reliability as rel
from . import training as tr
from . import uq
from . import wno as wno_mod
from .config import PRESETS, ExperimentConfig, load_config
from .errors import (
    DatasetIoError,
    DpawnoError,
    NonFiniteLoss,
    NumericalFailure,
    UsageError,
)

CONFIG_KEYS_HELP = """\
configuration keys (INI sections):
  [run]         seed, benchmark (burgers1d|nagumo|allen_cahn|burgers2d)
  [pde]         nu (burgers1d, burgers2d) | epsilon, alpha (nagumo) |
                gamma (allen_cahn), with nu, epsilon, gamma >= 0; nx,
                ny (burgers2d only), dt, bc, bc_value, domain,
                partial_terms, advection (central|upwind; burgers1d and
                burgers2d only)
  [data]        n_train, nt_train, n_test, nt_test (nt_* >= 1)
  [ic.train.N], [ic.test.N]
                kind, count (>= 1), and for kind cosine|sine (1D):
                amplitudes, frequencies; for kind square2d (2D): value
                (list, lo..hi grid, uniform: lo, hi)
  [wno]         width, layers, levels, fc1_dim, bands
  [train]       epochs, learning_rate (> 0), batch_size, schedule
                (auto: T0 @ HOLD, TMAX @ REACH  or  pairs: E:T ...; whole
                numbers, the first epoch 0 and every T >= 1)
  [probe]       x, y (burgers2d only), t (list of step indices); x and y
                lie within the [pde] domain
  [eval]        steps, snapshots
  [grf]         kernel (exp_sine_squared|rbf; rbf on 2D grids), alpha
                (1e-4 .. 4.5e11), length_scale, periodicity (each > 0;
                an exp_sine_squared periodicity at least twice the grid
                spacing)
  [limit_state] threshold, horizon
  [reliability] n
Every key is required except, with the default an omitted key takes:
[pde] bc_value 0, ny = nx, advection central; [wno] bands coarsest;
[train] batch_size 8; [grf] periodicity 1; [eval] steps 100;
[reliability] n 1000.
Any other section or key, [DEFAULT] included, and any key that the
benchmark or the family's kind does not read is a usage error.
Fixed, with no key: the db6 wavelet; gradient clipping at global norm 10;
GRF Cholesky jitter 1e-8, tenfold per retry up to 1e-4, jitter/alpha on
the axes after x.
Override any key with --set SECTION.KEY=VALUE (repeatable).
"""


# one column per training.EpochLog field, in order
TRAIN_LOG_COLUMNS = ("epoch", "T", "mean_loss", "wall_ms", "forward_ms",
                     "backward_ms", "optimizer_ms", "grad_norm_max",
                     "clipped_batches", "tape_nodes", "tape_bytes",
                     "minor_faults")


def _fmt(x) -> str:
    return repr(float(x))


def _csv_line(row) -> str:
    return ",".join(v if isinstance(v, str) else _fmt(v) for v in row) + "\n"


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(_csv_line(header))
        for row in rows:
            fh.write(_csv_line(row))


def _write_sidecar(path, doc):
    doc = dict(doc)
    doc["written_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_cfg(args) -> ExperimentConfig:
    return load_config(preset=args.preset, path=args.config, overrides=args.set or ())


def _ensure_outdir(path):
    if not path:
        raise UsageError("--out is required")
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise DatasetIoError(f"cannot create output directory {path}: {exc}") from exc
    return path


def _add_common(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=PRESETS, help="shipped benchmark preset")
    src.add_argument("--config", help="path to a configuration file")
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                   help="override one configuration key (repeatable)")


# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    cfg = _load_cfg(args)
    full = cfg.full_spec()
    # both roles are read and checked before anything is generated, and both
    # sets are generated before either is written, so a bad test section
    # leaves no fresh train.dpds next to a stale test.dpds
    roles = {"train": (cfg.families("train"), cfg.n_train, cfg.nt_train, "data"),
             "test": (cfg.families("test"), cfg.n_test, cfg.nt_test, "test")}
    for role, (families, n, _, _) in roles.items():
        yielded = sum(f.count for f in families)
        if yielded != n:
            raise UsageError(f"[ic.{role}.N] families yield {yielded} ICs; "
                             f"[data] n_{role} is {n}")
    out = _ensure_outdir(args.out)
    train, test = [dg.generate(full, families, nt, cfg.seed, purpose=purpose)
                   for families, _, nt, purpose in roles.values()]
    dg.save(train, os.path.join(out, "train.dpds"))
    dg.save(test, os.path.join(out, "test.dpds"))
    _write_sidecar(os.path.join(out, "gen-data.meta.json"), {
        "config": cfg.name,
        "seed": cfg.seed,
        "train": {"n": cfg.n_train, "nt": cfg.nt_train,
                  "family": train.family_desc},
        "test": {"n": cfg.n_test, "nt": cfg.nt_test, "family": test.family_desc},
    })
    print(f"wrote {out}/train.dpds ({cfg.n_train} x {cfg.nt_train + 1} states) "
          f"and {out}/test.dpds ({cfg.n_test} x {cfg.nt_test + 1})")
    return 0


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    out = _ensure_outdir(args.out)
    model = wno_mod.WnoModel.initialize(cfg.wno_config(), cfg.seed)
    ckpt = os.path.join(out, "model.dpaw")
    spec = cfg.data_only_spec() if args.mode == "data-only" else cfg.partial_spec()
    tcfg = cfg.train_config()
    dataset = _load_dataset(cfg, args.data, "train")
    # wall_ms makes the log a sidecar, not a primary output; one row is
    # flushed per epoch so a failed or killed run keeps its history
    with open(os.path.join(out, "train_log.csv"), "w") as log:
        log.write(_csv_line(TRAIN_LOG_COLUMNS))
        log.flush()

        def log_sink(row):
            cells = dataclasses.astuple(row)
            log.write(_csv_line([str(v) if isinstance(v, int) else v for v in cells]))
            log.flush()

        report = tr.train(model, dataset, spec, tcfg, log_sink=log_sink)
    wno_mod.save_checkpoint(model, ckpt)
    _write_sidecar(os.path.join(out, "train.meta.json"), {
        "config": cfg.name,
        "mode": args.mode,
        "epochs": tcfg.epochs,
        "final_loss": report.losses[-1],
        "wall_time_s": report.wall_time_s,
    })
    print(f"trained {tcfg.epochs} epochs (loss {report.losses[0]:.4g} -> "
          f"{report.losses[-1]:.4g}); wrote {ckpt}")
    return 0


def _load_dataset(cfg, data_dir, name):
    """The stored `name` set ("train" or "test"); one made for other physics
    or another grid than the configuration's is a usage error."""
    ds = dg.load(os.path.join(data_dir, f"{name}.dpds"))
    stored, wanted = dataclasses.asdict(ds.spec), dataclasses.asdict(cfg.full_spec())
    differ = [f"{key} {stored[key]!r} (configured {wanted[key]!r})"
              for key in wanted if stored[key] != wanted[key]]
    if differ:
        raise UsageError(f"{name} set was made for other physics: "
                         + "; ".join(differ))
    return ds


def _surrogates(cfg, args):
    """(name -> surrogate) for the models being compared."""
    out = {}
    if args.dpa:
        out["dpa-wno"] = tr.AugmentedSurrogate(cfg.partial_spec(),
                                               wno_mod.load_checkpoint(args.dpa))
    if getattr(args, "data_only", None):
        out["data-only"] = tr.AugmentedSurrogate(cfg.data_only_spec(),
                                                 wno_mod.load_checkpoint(args.data_only))
    out["physics-only"] = tr.PhysicsSurrogate(cfg.partial_spec())
    return out


def cmd_evaluate(args) -> int:
    cfg = _load_cfg(args)
    out = _ensure_outdir(args.out)
    # read (and so checked) before any file or checkpoint is loaded
    eval_steps, snapshots, probes = cfg.eval_steps, cfg.snapshots(), cfg.probes()
    test = _load_dataset(cfg, args.data, "test")
    truth = test.trajectories
    steps = min(eval_steps, test.n_steps)
    horizon = test.n_steps
    surrogates = _surrogates(cfg, args)
    probe_x, _ = probes[0]
    spec = cfg.partial_spec()
    index, snapped = uq.nearest_grid_index(spec.grid(), probe_x)
    # skipped, not rejected: a run that cuts data.nt_test keeps the preset's
    # later snapshots
    snap_steps = [t for t in snapshots if t <= test.n_steps]

    truth_probe = np.stack(
        [uq.probe_trajectories(truth, index, t) for t in range(1, steps + 1)])
    truth_densities = uq.step_densities(truth_probe)
    rows = []
    snapshot_fields = {}
    for name, sur in surrogates.items():
        stats = tr.rollout_statistics(sur, test.ics, horizon,
                                      probe_index=index, snapshots=snap_steps,
                                      truth=truth, mse_steps=steps)
        er2 = uq.mean_hellinger_from_samples(stats["probe"][:steps], truth_probe,
                                             truth_densities)
        rows.append((name, stats["mse"], er2, str(int(np.sum(stats["diverged"])))))
        snapshot_fields[name] = stats["snapshots"]
    _write_csv(os.path.join(out, "metrics.csv"),
               ["model", "er1_mse", "er2_mean_hellinger", "diverged"], rows)

    coords = spec.coordinates()
    for t_snap in snap_steps:
        header = ["x", "y"][:len(coords)]
        cols = [axis.ravel() for axis in coords]
        for i in range(min(3, truth.shape[0])):
            header.append(f"true_s{i}")
            cols.append(truth[i, t_snap, 0].ravel())
            for name in surrogates:
                header.append(f"{name}_s{i}")
                cols.append(snapshot_fields[name][t_snap][i, 0].ravel())
        _write_csv(os.path.join(out, f"snapshot_t{t_snap}.csv"), header,
                   list(zip(*cols)))
    _write_sidecar(os.path.join(out, "evaluate.meta.json"), {
        "config": cfg.name, "steps": steps,
        "probe_x": snapped, "probe_index": index,
        "models": sorted(surrogates),
    })
    print(f"wrote {out}/metrics.csv for {', '.join(rows[i][0] for i in range(len(rows)))}")
    return 0


def _density_or_delta(samples):
    try:
        return uq.estimate_pdf(samples)
    except DpawnoError:
        v = float(samples[0])
        eps = max(1e-6, 1e-6 * abs(v))
        return uq.Density(np.array([v - eps, v, v + eps]),
                          np.array([0.0, 1.0, 0.0]), eps)


# (pdf_probe*.csv column, density name), in column order
PDF_COLUMNS = (("mass_model", "dpa-wno"), ("mass_truth", "truth"),
               ("mass_partial", "physics-only"), ("mass_dataonly", "data-only"))


def cmd_uq(args) -> int:
    cfg = _load_cfg(args)
    out = _ensure_outdir(args.out)
    probes = cfg.probes()
    test = _load_dataset(cfg, args.data, "test")
    for _, t_star in probes:
        if not 1 <= t_star <= test.n_steps:
            raise UsageError(
                f"probe step {t_star} outside the test trajectories "
                f"(1..{test.n_steps})")
    surrogates = _surrogates(cfg, args)
    grid = cfg.partial_spec().grid()
    # every probe shares one location, so one rollout per surrogate serves all
    index, snapped = uq.nearest_grid_index(grid, probes[0][0])
    horizon = max(t_star for _, t_star in probes)
    predicted = {name: tr.rollout_statistics(sur, test.ics, horizon,
                                             probe_index=index)["probe"]
                 for name, sur in surrogates.items()}
    meta = {"config": cfg.name, "probes": []}
    for k, (_, t_star) in enumerate(probes):
        densities = {"truth": _density_or_delta(
            uq.probe_trajectories(test.trajectories, index, t_star))}
        for name, probe in predicted.items():
            densities[name] = _density_or_delta(probe[t_star - 1])
        rebinned = dict(zip(densities, uq.on_shared_support(densities.values())))
        # one mass column per density, only for the models that were given
        columns = [(c, rebinned[name]) for c, name in PDF_COLUMNS if name in rebinned]
        _write_csv(
            os.path.join(out, f"pdf_probe{k}.csv"),
            ["support"] + [c for c, _ in columns],
            [(s, *(d.mass[i] for _, d in columns))
             for i, s in enumerate(rebinned["truth"].support)])
        meta["probes"].append({"x": snapped, "t": t_star, "index": index,
                               "bandwidths": {n: d.bandwidth
                                              for n, d in densities.items()}})
    _write_sidecar(os.path.join(out, "uq.meta.json"), meta)
    print(f"wrote {len(probes)} PDF tables to {out}")
    return 0


def _paired(exact, dpa) -> dict:
    """How two candidates' per-sample margins on the same draws disagree:
    the samples where dpa-wno fails and exact is safe, the reverse, and the
    paired p_f difference (dpa-wno minus exact)."""
    exact_fails, dpa_fails = exact < 0.0, dpa < 0.0
    dpa_only = int(np.sum(dpa_fails & ~exact_fails))
    exact_only = int(np.sum(exact_fails & ~dpa_fails))
    n = len(exact)
    return {"n": n, "dpa_fails_exact_safe": dpa_only,
            "exact_fails_dpa_safe": exact_only,
            "p_f_difference": (dpa_only - exact_only) / n}


def cmd_reliability(args) -> int:
    # validate the sample count and load every checkpoint before the costly
    # GRF factorization, so a bad setting or checkpoint fails fast
    cfg = _load_cfg(args)
    n = cfg.reliability_n
    out = _ensure_outdir(args.out)
    grf = cfg.grf_spec()
    ls = cfg.limit_state()
    full = cfg.full_spec()
    candidates = {"exact": tr.PhysicsSurrogate(full)}
    if args.dpa:
        candidates["dpa-wno"] = tr.AugmentedSurrogate(
            cfg.partial_spec(), wno_mod.load_checkpoint(args.dpa))
    t0 = time.perf_counter()
    ics = rel.grf_initial_conditions(grf, full, n, cfg.seed)
    meta = {"config": cfg.name, "n": n, "horizon": ls.horizon,
            "grf_s": time.perf_counter() - t0, "models": {}}
    lines = []
    margins = {}
    for name in sorted(candidates):
        t0 = time.perf_counter()
        report = rel.estimate_reliability(candidates[name], ics, ls, cfg.seed)
        margins[name] = report.margins
        meta["models"][name] = {
            "rollout_s": time.perf_counter() - t0,
            "failures": report.failures,
            "diverged": report.diverged,
            "diverged_at": report.diverged_at,
            "p_f_wilson95": report.p_f_interval,
        }
        lines.append(report.to_json(model=name, **dataclasses.asdict(grf),
                                    g_t=ls.threshold, horizon=ls.horizon))
        print(f"{name}: reliability {report.reliability * 100:.2f}% "
              f"({report.failures}/{n} failures, {report.diverged} diverged)")
    if "dpa-wno" in margins:
        meta["paired"] = _paired(margins["exact"], margins["dpa-wno"])
    with open(os.path.join(out, "reliability.jsonl"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_sidecar(os.path.join(out, "reliability.meta.json"), meta)
    return 0


def cmd_gradcheck(args) -> int:
    names = PRESETS if args.all else (args.preset or "burgers1d-missing-diffusion-desk",)
    worst_overall = 0.0
    for name in names:
        cfg = load_config(preset=name, overrides=args.set or ())
        errors = gc.gradient_fidelity(cfg.partial_spec(), seed=args.seed)
        worst = max(errors.values())
        worst_overall = max(worst_overall, worst)
        status = "ok" if worst < 1e-5 else "FAIL"
        print(f"{name}: max relative gradient error {worst:.3e} [{status}]")
        if args.verbose:
            for block, err in sorted(errors.items()):
                print(f"    {block}: {err:.3e}")
    if worst_overall >= 1e-5:
        raise NonFiniteLoss(
            f"gradient fidelity {worst_overall:.3e} exceeds 1e-5")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpawno",
        description=(
            "Differentiable PDE stepping with a learnable wavelet-operator "
            "correction: data generation, training, evaluation, uncertainty "
            "quantification, and Monte Carlo reliability analysis."),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=CONFIG_KEYS_HELP)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate train/test ground truth",
                       formatter_class=argparse.RawDescriptionHelpFormatter,
                       epilog=CONFIG_KEYS_HELP)
    _add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train a model against stored ground truth",
                       formatter_class=argparse.RawDescriptionHelpFormatter,
                       epilog=CONFIG_KEYS_HELP)
    _add_common(p)
    p.add_argument("--data", required=True, help="directory with train.dpds")
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("dpa", "data-only"), default="dpa",
                   help="dpa: partial physics + correction; data-only: pure "
                        "next-step operator")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="ensemble error metrics and snapshots",
                       formatter_class=argparse.RawDescriptionHelpFormatter,
                       epilog=CONFIG_KEYS_HELP)
    _add_common(p)
    p.add_argument("--data", required=True, help="directory with test.dpds")
    p.add_argument("--dpa", help="trained checkpoint")
    p.add_argument("--data-only", dest="data_only", help="data-only checkpoint")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("uq", help="response PDFs at the configured probes",
                       formatter_class=argparse.RawDescriptionHelpFormatter,
                       epilog=CONFIG_KEYS_HELP)
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--dpa", help="trained checkpoint")
    p.add_argument("--data-only", dest="data_only", help="data-only checkpoint")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_uq)

    p = sub.add_parser("reliability", help="Monte Carlo failure probability",
                       formatter_class=argparse.RawDescriptionHelpFormatter,
                       epilog=CONFIG_KEYS_HELP)
    _add_common(p)
    p.add_argument("--dpa", help="trained checkpoint (exact solver always runs)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_reliability)

    p = sub.add_parser("gradcheck", help="reduced-size gradient fidelity suite")
    p.add_argument("--preset", choices=PRESETS)
    p.add_argument("--all", action="store_true", help="run every preset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (DatasetIoError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
