"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 5 and 7 share one desk-scale training run through a session fixture;
the full suite is designed to stay within the stated runtime budgets on a
single core.
"""

import dataclasses
import filecmp
import os
import time

import numpy as np
import pytest

from dpawno import autodiff as ad
from dpawno import cli
from dpawno import config as cf
from dpawno import datagen as dg
from dpawno import gradcheck as gc
from dpawno import physics as ph
from dpawno import reliability as rel
from dpawno import training as tr
from dpawno import uq
from dpawno import wavelet as wv
from dpawno import wno as wno_mod

DESK = "burgers1d-missing-diffusion-desk"


def report(num, passed, detail):
    print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {num}: {detail}")
    assert passed, f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def desk_artifacts():
    """Ground truth, trained DPA model, and trained data-only model for the
    desk-scale missing-diffusion benchmark (criteria 5 and 7)."""
    cfg = cf.load_config(preset=DESK)
    full, partial = cfg.full_spec(), cfg.partial_spec()
    donly_spec = cfg.data_only_spec()
    train_ds = dg.generate(full, cfg.families("train"), cfg.nt_train, cfg.seed,
                           purpose="data")
    test_ds = dg.generate(full, cfg.families("test"), cfg.nt_test, cfg.seed,
                          purpose="test")
    wcfg, tcfg = cfg.wno_config(), cfg.train_config()
    t0 = time.perf_counter()
    dpa = wno_mod.WnoModel.initialize(wcfg, cfg.seed)
    tr.train(dpa, train_ds, partial, tcfg)
    donly = wno_mod.WnoModel.initialize(wcfg, cfg.seed)
    tr.train(donly, train_ds, donly_spec, tcfg)
    train_time = time.perf_counter() - t0
    return {
        "cfg": cfg, "full": full, "partial": partial,
        "donly_spec": donly_spec, "train_ds": train_ds, "test_ds": test_ds,
        "dpa": dpa, "donly": donly, "train_time": train_time,
    }


def all_preset_specs():
    for name in cf.PRESETS:
        cfg = cf.load_config(preset=name)
        yield name, cfg


class TestCriterion1:
    def test_gradient_fidelity_all_presets(self):
        t0 = time.perf_counter()
        worst = {}
        for name, cfg in all_preset_specs():
            errors = gc.gradient_fidelity(cfg.partial_spec(), seed=3)
            worst[name] = max(errors.values())
        elapsed = time.perf_counter() - t0
        peak = max(worst.values())
        report(1, peak < 1e-5 and elapsed < 30.0,
               f"gradient fidelity max {peak:.2e} (< 1e-5) over "
               f"{len(worst)} presets in {elapsed:.1f}s (< 30 s)")


class TestCriterion2:
    def test_wavelet_exactness(self):
        levels = 4
        rng = np.random.default_rng(1234)
        t0 = time.perf_counter()
        worst_pr, worst_adj = 0.0, 0.0
        for n in (64, 112):
            x = rng.standard_normal((1000, n))
            approx, details = wv.dwt_multilevel(x, levels, 1)
            xr = wv.idwt_multilevel(approx, details, 1)
            worst_pr = max(worst_pr, float(np.max(np.abs(xr - x))))
            y_approx = rng.standard_normal(approx.shape)
            y_details = [(rng.standard_normal(d.shape),) for (d,) in details]
            lhs = np.sum(approx * y_approx, axis=-1)
            for (dc,), (dy,) in zip(details, y_details):
                lhs = lhs + np.sum(dc * dy, axis=-1)
            # A^T y is the tape's VJP of the transform the WNO records
            tape = ad.Tape()
            leaf = tape.leaf(x)
            t_approx, t_details = wv.dwt_multilevel(leaf, levels, 1)
            pairing = ad.total_sum(ad.mul(t_approx, y_approx))
            for (dc,), (dy,) in zip(t_details, y_details):
                pairing = ad.add(pairing, ad.total_sum(ad.mul(dc, dy)))
            ad.backward(tape, pairing)
            rhs = np.sum(x * ad.grad_of(tape, leaf), axis=-1)
            worst_adj = max(worst_adj, float(np.max(np.abs(lhs - rhs))))
        f = rng.standard_normal((100, 64, 64))
        c2 = wv.dwt_multilevel(f, levels, 2)
        fr = wv.idwt_multilevel(*c2, 2)
        worst_pr = max(worst_pr, float(np.max(np.abs(fr - f))))
        elapsed = time.perf_counter() - t0
        report(2, worst_pr < 1e-10 and worst_adj < 1e-10 and elapsed < 10.0,
               f"reconstruction {worst_pr:.2e}, adjoint {worst_adj:.2e} "
               f"(< 1e-10) in {elapsed:.1f}s (< 10 s)")


class TestCriterion3:
    def test_solver_verification(self):
        # analytic heat decay on a fine grid
        nu, nx = 0.05, 257
        spec = ph.PdeSpec("burgers1d", {"nu": nu}, ("diffusion",), "dirichlet",
                          (-1.0, 1.0), nx=nx, dt=2.4e-4)
        (x,) = spec.grid()
        u0 = np.sin(2 * np.pi * x)[None, :]
        u = u0.copy()
        for _ in range(50):
            u = ph.euler_step_values(u, spec)
        factor = float(u.ravel() @ u0.ravel() / (u0.ravel() @ u0.ravel()))
        exact = np.exp(-nu * (2 * np.pi) ** 2 * 50 * spec.dt)
        decay_err = abs(factor - exact) / exact

        # independently coded dense-matrix stepper, bit-exact over 50 steps
        cfg = cf.load_config(preset="burgers1d-missing-diffusion")
        bspec = cfg.full_spec()
        n = bspec.nx
        shift_p = np.roll(np.eye(n), 1, axis=1)
        shift_m = np.roll(np.eye(n), -1, axis=1)

        def dense_step(v):
            c = 1.0 / (2.0 * bspec.dx)
            d1 = (c * (v @ shift_p.T)) + (-c) * (v @ shift_m.T)
            k = bspec.params["nu"] / bspec.dx ** 2
            d2 = (k * (v @ shift_p.T)) + (-2.0 * k) * v + k * (v @ shift_m.T)
            rhs = (v * d1) * -1.0 + d2
            nxt = v + bspec.dt * rhs
            nxt[..., 0] = bspec.bc_value
            nxt[..., -1] = bspec.bc_value
            return nxt

        (xb,) = bspec.grid()
        a = (4.0 * np.sin(2 * np.pi * xb))[None, :]
        b = a.copy()
        exact_steps = True
        for _ in range(50):
            a = ph.euler_step_values(a, bspec)
            b = dense_step(b)
            exact_steps = exact_steps and np.array_equal(a, b)
        report(3, decay_err < 1e-3 and exact_steps,
               f"heat decay error {decay_err:.2e} (< 1e-3); duplicate stepper "
               f"bit-exact over 50 steps: {exact_steps}")


class TestCriterion4:
    def test_oracle_fixed_point_all_presets(self):
        results = {}
        for name, cfg in all_preset_specs():
            full, partial = cfg.full_spec(), cfg.partial_spec()
            missing = full.with_terms(
                t for t in full.terms if t not in partial.terms)
            fams = cfg.families("train")
            fams = [dataclasses.replace(f, count=min(f.count, 1))
                    for f in fams[:2]]
            ds = dg.generate(full, fams, 5, cfg.seed)
            states = tr.rollout(
                lambda u, m=missing, p=partial:
                ph.euler_step_values(u, p, ph.rhs_values(u, m)), ds.ics, 5)
            results[name] = all(
                np.array_equal(ad.value_of(s), ds.trajectories[:, t])
                for t, s in enumerate(states))
        report(4, all(results.values()),
               "(full - partial) rhs injection reproduces ground truth "
               f"bit-exactly on all {len(results)} presets")


class TestCriterion5:
    def test_gray_box_learning_benefit(self, desk_artifacts):
        art = desk_artifacts
        t0 = time.perf_counter()
        test_ds = art["test_ds"]
        horizon = test_ds.n_steps
        mse = {}
        for name, sur in (
                ("dpa", tr.AugmentedSurrogate(art["partial"], art["dpa"])),
                ("donly", tr.AugmentedSurrogate(art["donly_spec"], art["donly"])),
                ("ponly", tr.PhysicsSurrogate(art["partial"]))):
            states = tr.rollout(sur.step, test_ds.ics, horizon)
            pred = np.stack([ad.value_of(s) for s in states], axis=1)
            # mean squared error over samples x steps 1..100 x space
            diff = pred[:, 1:101] - test_ds.trajectories[:, 1:101]
            mse[name] = float(np.mean(diff * diff))
        elapsed = art["train_time"] + (time.perf_counter() - t0)
        ok = (mse["dpa"] < 0.5 * mse["ponly"]
              and mse["dpa"] < 0.2 * mse["donly"]
              and elapsed < 600.0)
        report(5, ok,
               f"test MSE dpa={mse['dpa']:.4f} vs physics-only "
               f"{mse['ponly']:.4f} (x{mse['dpa'] / mse['ponly']:.3f} < 0.5) "
               f"and data-only {mse['donly']:.4f} "
               f"(x{mse['dpa'] / mse['donly']:.3f} < 0.2); "
               f"{elapsed:.0f}s (< 600 s)")


class TestCriterion6:
    def test_hellinger_correctness(self):
        def gaussian_density(mu):
            s = np.linspace(mu - 8, mu + 8, 2001)
            pdf = np.exp(-0.5 * (s - mu) ** 2)
            return uq.Density(s, pdf / pdf.sum(), 0.1)

        h = uq.hellinger(gaussian_density(0.0), gaussian_density(1.0))
        closed = np.sqrt(1.0 - np.exp(-1.0 / 8.0))
        gauss_ok = abs(h - closed) < 0.01

        rng = np.random.default_rng(77)
        sym_ok = range_ok = True
        for _ in range(1000):
            n1, n2 = rng.integers(8, 80, size=2)
            lo1, lo2 = rng.uniform(-5, 0, size=2)
            p = uq.Density(np.linspace(lo1, lo1 + rng.uniform(0.5, 5), n1),
                           (lambda w: w / w.sum())(rng.uniform(0, 1, n1)), 0.1)
            q = uq.Density(np.linspace(lo2, lo2 + rng.uniform(0.5, 5), n2),
                           (lambda w: w / w.sum())(rng.uniform(0, 1, n2)), 0.1)
            h1, h2 = uq.hellinger(p, q), uq.hellinger(q, p)
            sym_ok = sym_ok and (h1 == h2)
            range_ok = range_ok and (-1e-12 <= h1 <= 1.0 + 1e-12)
        report(6, gauss_ok and sym_ok and range_ok,
               f"Gaussian closed form |{h:.4f} - {closed:.4f}| < 0.01; "
               "symmetry and [0,1] range on 1000 random density pairs")


class TestCriterion7:
    def test_reliability_self_consistency_and_pairing(self, desk_artifacts):
        art = desk_artifacts
        cfg = art["cfg"]
        grf, ls = cfg.grf_spec(), cfg.limit_state()
        t0 = time.perf_counter()
        # self-consistency: the reference solver as surrogate equals the
        # direct ground-truth computation exactly
        ics = rel.grf_initial_conditions(grf, art["full"], 1000, cfg.seed)
        truth_sur = tr.PhysicsSurrogate(art["full"])
        rep_truth = rel.estimate_reliability(truth_sur, ics, ls, cfg.seed)
        trajs = np.stack(tr.rollout(truth_sur.step, ics, ls.horizon), axis=1)
        margins = ls.threshold - np.max(np.abs(trajs).reshape(len(trajs), -1), axis=1)
        direct_failures = int(np.sum(margins < 0))
        self_consistent = (rep_truth.failures == direct_failures)

        rep_dpa = rel.estimate_reliability(
            tr.AugmentedSurrogate(art["partial"], art["dpa"]), ics, ls,
            cfg.seed)
        gap_pp = abs(rep_dpa.reliability - rep_truth.reliability) * 100.0
        elapsed = time.perf_counter() - t0
        report(7, self_consistent and gap_pp <= 2.0 and elapsed < 300.0,
               f"self-consistency exact ({rep_truth.failures} failures both "
               f"ways); |reliability gap| = {gap_pp:.2f} pp (<= 2) at n=1000 "
               f"[dpa {rep_dpa.reliability * 100:.2f}% vs truth "
               f"{rep_truth.reliability * 100:.2f}%] in {elapsed:.0f}s (< 300 s)")


class TestCriterion8:
    SMALL = [
        "--set", "train.epochs=2",
        "--set", "train.schedule=pairs: 0:3",
        "--set", "data.n_train=4", "--set", "data.n_test=6",
        "--set", "data.nt_test=30",
        "--set", "ic.train.1.count=2", "--set", "ic.train.2.count=2",
        "--set", "ic.test.1.count=3", "--set", "ic.test.2.count=3",
        "--set", "eval.steps=20", "--set", "eval.snapshots=5, 20",
        "--set", "probe.t=5, 20", "--set", "limit_state.horizon=20",
        "--set", "reliability.n=40",
    ]
    PRIMARY = {
        "gen-data": ("train.dpds", "test.dpds"),
        "train": ("model.dpaw",),
        "evaluate": ("metrics.csv", "snapshot_t5.csv", "snapshot_t20.csv"),
        "uq": ("pdf_probe0.csv", "pdf_probe1.csv"),
        "reliability": ("reliability.jsonl",),
    }

    def run_all(self, root):
        data = os.path.join(root, "data")
        assert cli.main(["gen-data", "--preset", DESK, "--out", data,
                         *self.SMALL]) == 0
        model_dirs = {}
        for mode in ("dpa", "data-only"):
            out = os.path.join(root, mode)
            assert cli.main(["train", "--preset", DESK, "--data", data,
                             "--out", out, "--mode", mode, *self.SMALL]) == 0
            model_dirs[mode] = out
        ev = os.path.join(root, "eval")
        assert cli.main(["evaluate", "--preset", DESK, "--data", data,
                         "--dpa", f"{model_dirs['dpa']}/model.dpaw",
                         "--data-only", f"{model_dirs['data-only']}/model.dpaw",
                         "--out", ev, *self.SMALL]) == 0
        uqd = os.path.join(root, "uq")
        assert cli.main(["uq", "--preset", DESK, "--data", data,
                         "--dpa", f"{model_dirs['dpa']}/model.dpaw",
                         "--data-only", f"{model_dirs['data-only']}/model.dpaw",
                         "--out", uqd, *self.SMALL]) == 0
        reld = os.path.join(root, "rel")
        assert cli.main(["reliability", "--preset", DESK,
                         "--dpa", f"{model_dirs['dpa']}/model.dpaw",
                         "--out", reld, *self.SMALL]) == 0
        return {"gen-data": data, "train": model_dirs["dpa"],
                "evaluate": ev, "uq": uqd, "reliability": reld}

    def test_cli_determinism(self, tmp_path, capsys):
        a = self.run_all(str(tmp_path / "a"))
        b = self.run_all(str(tmp_path / "b"))
        mismatches = []
        for command, files in self.PRIMARY.items():
            for fname in files:
                fa = os.path.join(a[command], fname)
                fb = os.path.join(b[command], fname)
                if not filecmp.cmp(fa, fb, shallow=False):
                    mismatches.append(f"{command}/{fname}")
        # gradcheck's primary output is its stdout report
        capsys.readouterr()  # drain output accumulated by the runs above
        reports = []
        for _ in range(2):
            assert cli.main(["gradcheck", "--preset", DESK]) == 0
            reports.append(capsys.readouterr().out)
        if reports[0] != reports[1]:
            mismatches.append("gradcheck/stdout")
        report(8, not mismatches,
               "byte-identical primary outputs across re-runs for "
               f"{sum(len(v) for v in self.PRIMARY.values())} files of "
               f"{len(self.PRIMARY)} commands plus the gradcheck report"
               + (f"; MISMATCH: {mismatches}" if mismatches else ""))


class TestCriterion9:
    def test_zero_init_equivalence_all_presets(self):
        results = {}
        for name, cfg in all_preset_specs():
            partial = cfg.partial_spec()
            wcfg = cfg.wno_config()
            model = wno_mod.WnoModel.initialize(wcfg, cfg.seed)
            fams = [dataclasses.replace(f, count=min(f.count, 2))
                    for f in cfg.families("train")[:1]]
            ds = dg.generate(cfg.full_spec(), fams, 0, cfg.seed)
            with_model = tr.rollout(tr.AugmentedSurrogate(partial, model).step,
                                    ds.ics, 5)
            physics = tr.rollout(tr.PhysicsSurrogate(partial).step, ds.ics, 5)
            results[name] = all(
                np.array_equal(ad.value_of(x), ad.value_of(y))
                for x, y in zip(with_model, physics))
        report(9, all(results.values()),
               "freshly initialized model rollout equals partial-physics "
               f"rollout bit-exactly on all {len(results)} presets")
