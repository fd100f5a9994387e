import json
import os
from collections import Counter

import numpy as np
import pytest

from dpawno import autodiff as ad
from dpawno import cli
from dpawno import config as cf
from dpawno import datagen as dg
from dpawno import training as tr
from dpawno import wno
from dpawno.errors import NonFiniteLoss, UsageError

FAST_TRAIN = [
    "--set", "train.epochs=2",
    "--set", "train.schedule=pairs: 0:3",
]
SMALL_DATA = [
    "--set", "data.n_train=4",
    "--set", "data.n_test=6",
    "--set", "data.nt_test=30",
    "--set", "ic.train.1.count=2", "--set", "ic.train.2.count=2",
    "--set", "ic.test.1.count=3", "--set", "ic.test.2.count=3",
    "--set", "eval.steps=20",
    "--set", "eval.snapshots=5, 20",
    "--set", "probe.t=5, 20",
    "--set", "limit_state.horizon=20",
    "--set", "reliability.n=40",
]
DESK = "burgers1d-missing-diffusion-desk"


class TestConfig:
    @pytest.mark.parametrize("name", cf.PRESETS)
    def test_presets_parse_and_build(self, name):
        c = cf.load_config(preset=name)
        full = c.full_spec()
        partial = c.partial_spec()
        assert set(partial.terms) < set(full.terms)
        assert c.data_only_spec().terms == ()
        assert c.wno_config().parameter_count() > 0
        assert c.train_config().epochs > 0
        assert c.families("train") and c.families("test")
        assert c.grf_spec().alpha > 0
        assert c.limit_state().threshold > 0
        assert c.probes()

    def test_unknown_preset(self):
        with pytest.raises(UsageError):
            cf.load_config(preset="nonexistent")

    def test_overrides(self):
        c = cf.load_config(preset=DESK, overrides=("pde.nx=32", "run.seed=5"))
        assert c.partial_spec().nx == 32
        assert c.seed == 5

    def test_bad_override(self):
        with pytest.raises(UsageError):
            cf.load_config(preset=DESK, overrides=("garbage",))

    def test_empty_test_family_rejected(self, tmp_path):
        text = cf.preset_text(DESK)
        path = tmp_path / "truncated.ini"
        path.write_text(text[:text.index("[ic.test.1]")])
        c = cf.load_config(path=str(path))
        assert c.families("train")
        with pytest.raises(UsageError):
            c.families("test")

    def test_schedule_grammar(self):
        auto = cf.parse_schedule("auto: 10 @ 100, 50 @ 400")
        assert auto[0] == (0, 10) and auto[-1][1] == 50
        pairs = cf.parse_schedule("pairs: 0:10 100:20")
        assert pairs == ((0, 10), (100, 20))
        with pytest.raises(UsageError):
            cf.parse_schedule("every 10 epochs")

    def test_malformed_schedule_rejected(self):
        for bad in ("auto: 10 @ 2", "auto: 10 @ 2, 50 @ 40, 60 @ 50",
                    "pairs: 0:10 20", "pairs: 0:10:3", "pairs: 0:1.5"):
            with pytest.raises(UsageError):
                cf.parse_schedule(bad)

    def test_amplitude_grammar(self):
        assert cf.parse_amplitudes("-8 .. 8") == tuple(
            float(a) for a in range(-8, 9) if a)
        assert cf.parse_amplitudes("uniform: -10, 10") == ("uniform", -10.0, 10.0)
        assert cf.parse_amplitudes("1, 2.5, -3") == (1.0, 2.5, -3.0)

    def test_full_scale_preset_values(self):
        c = cf.load_config(preset="burgers1d-missing-diffusion")
        spec = c.full_spec()
        assert spec.nx == 112 and c.nt_train == 50
        assert abs(spec.params["nu"] - 0.3 / np.pi) < 1e-15
        assert abs(spec.dt - 3e-4) < 1e-18
        n = cf.load_config(preset="nagumo-missing-reaction")
        ns = n.full_spec()
        assert ns.nx == 64 and abs(ns.dt - 1e-4) < 1e-18
        assert n.train_config().learning_rate == 0.002
        b2 = cf.load_config(preset="burgers2d-missing-xdiff")
        s2 = b2.full_spec()
        assert s2.ny == 64 and s2.bc_value == 1.0
        assert b2.partial_spec().terms == ("advection", "diffusion_y")


class TestCliPipeline:
    def run(self, *argv):
        return cli.main(list(argv))

    def test_full_pipeline(self, tmp_path):
        data = str(tmp_path / "data")
        assert self.run("gen-data", "--preset", DESK, "--out", data,
                        *SMALL_DATA) == 0
        assert os.path.exists(os.path.join(data, "train.dpds"))
        assert os.path.exists(os.path.join(data, "test.dpds"))

        dpa = str(tmp_path / "dpa")
        assert self.run("train", "--preset", DESK, "--data", data, "--out",
                        dpa, "--mode", "dpa", *SMALL_DATA, *FAST_TRAIN) == 0
        donly = str(tmp_path / "donly")
        assert self.run("train", "--preset", DESK, "--data", data, "--out",
                        donly, "--mode", "data-only", *SMALL_DATA,
                        *FAST_TRAIN) == 0
        ponly = str(tmp_path / "ponly")
        assert self.run("train", "--preset", DESK, "--data", data, "--out",
                        ponly, "--mode", "physics-only", *SMALL_DATA) == 0

        ev = str(tmp_path / "eval")
        assert self.run("evaluate", "--preset", DESK, "--data", data,
                        "--dpa", f"{dpa}/model.dpaw",
                        "--data-only", f"{donly}/model.dpaw",
                        "--out", ev, *SMALL_DATA) == 0
        lines = open(os.path.join(ev, "metrics.csv")).read().splitlines()
        assert lines[0] == "model,er1_mse,er2_mean_hellinger,diverged"
        assert len(lines) == 4
        assert os.path.exists(os.path.join(ev, "snapshot_t20.csv"))

        uqd = str(tmp_path / "uq")
        assert self.run("uq", "--preset", DESK, "--data", data,
                        "--dpa", f"{dpa}/model.dpaw",
                        "--data-only", f"{donly}/model.dpaw",
                        "--out", uqd, *SMALL_DATA) == 0
        header = open(os.path.join(uqd, "pdf_probe0.csv")).readline().strip()
        assert header == "support,mass_model,mass_truth,mass_partial,mass_dataonly"

        reld = str(tmp_path / "rel")
        assert self.run("reliability", "--preset", DESK,
                        "--dpa", f"{dpa}/model.dpaw",
                        "--out", reld, *SMALL_DATA) == 0
        records = [json.loads(line) for line in
                   open(os.path.join(reld, "reliability.jsonl"))]
        assert {r["model"] for r in records} == {"dpa-wno", "exact"}
        for r in records:
            assert r["n"] == 40
            assert 0.0 <= r["reliability"] <= 1.0

    def test_usage_error_exit_code(self, capsys):
        assert self.run("gen-data", "--preset", DESK, "--out", "") == 2

    def test_io_error_exit_code(self, tmp_path):
        missing = str(tmp_path / "noexist")
        code = self.run("train", "--preset", DESK, "--data", missing,
                        "--out", str(tmp_path / "o"), *FAST_TRAIN)
        assert code == 4

    def test_numerical_error_exit_code(self, tmp_path):
        data = str(tmp_path / "data")
        # CFL-violating dt makes generation blow up -> exit 3
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = self.run("gen-data", "--preset", DESK, "--out", data,
                            "--set", "pde.dt=0.05", *SMALL_DATA)
        assert code == 3

    def test_invalid_kernel_params_rejected_before_compute(self, tmp_path):
        code = self.run("reliability", "--preset", DESK,
                        "--out", str(tmp_path / "r"),
                        "--set", "grf.length_scale=-1")
        assert code != 0

    def test_help_mentions_config_keys(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["gen-data", "--help"])
        out = capsys.readouterr().out
        for key in ("partial_terms", "schedule", "threshold", "amplitudes"):
            assert key in out


def count_cholesky(monkeypatch):
    calls = []
    real = np.linalg.cholesky

    def counted(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return calls


class TestReliabilityCommand:
    def run(self, tmp_path, *extra):
        path = tmp_path / "model.dpaw"
        wno.WnoModel.initialize(cf.load_config(preset=DESK).wno_config(), 0).save(path)
        return cli.main(["reliability", "--preset", DESK, "--dpa", str(path),
                         "--out", str(tmp_path / "rel"), *SMALL_DATA, *extra])

    def test_one_factorization_for_every_candidate(self, tmp_path, monkeypatch):
        calls = count_cholesky(monkeypatch)
        assert self.run(tmp_path) == 0
        assert calls == [(64, 64)]

    def test_sidecar_matches_report(self, tmp_path):
        assert self.run(tmp_path) == 0
        rel_dir = tmp_path / "rel"
        records = [json.loads(line) for line in
                   (rel_dir / "reliability.jsonl").read_text().splitlines()]
        meta = json.loads((rel_dir / "reliability.meta.json").read_text())
        assert (meta["n"], meta["horizon"]) == (40, 20)
        assert meta["grf_s"] >= 0.0
        assert set(meta["models"]) == {r["model"] for r in records}
        for r in records:
            m = meta["models"][r["model"]]
            assert (m["failures"], m["diverged"]) == (r["failures"], r["diverged"])
            assert len(m["diverged_at"]) == r["diverged"]
            lo, hi = m["p_f_wilson95"]
            assert lo <= r["p_f"] <= hi and hi > lo
            assert m["rollout_s"] >= 0.0

    def test_zero_samples_rejected_before_factorization(self, tmp_path,
                                                         monkeypatch, capsys):
        calls = count_cholesky(monkeypatch)
        assert self.run(tmp_path, "--set", "reliability.n=0") == 2
        assert "[reliability] n" in capsys.readouterr().err
        assert calls == []


class TestDamagedCheckpoint:
    """A cut or non-finite checkpoint is an i/o error (exit 4), not a usage
    error or a plausible-looking report."""

    def reliability(self, tmp_path, model, keep=1.0, edit=lambda raw: raw):
        path = tmp_path / "model.dpaw"
        model.save(path)
        raw = path.read_bytes()
        path.write_bytes(edit(raw[:int(len(raw) * keep)]))
        return cli.main(["reliability", "--preset", DESK, "--dpa", str(path),
                         "--out", str(tmp_path / "rel"), *SMALL_DATA])

    def model(self):
        return wno.WnoModel.initialize(cf.load_config(preset=DESK).wno_config(), 0)

    def test_truncated_checkpoint_exits_4(self, tmp_path, capsys, monkeypatch):
        calls = count_cholesky(monkeypatch)
        assert self.reliability(tmp_path, self.model(), keep=0.5) == 4
        assert calls == []  # fails before the GRF factorization
        assert "checkpoint truncated" in capsys.readouterr().err
        assert not (tmp_path / "rel" / "reliability.jsonl").exists()

    def test_nan_parameter_exits_4(self, tmp_path, capsys):
        model = self.model()
        model.params["lift.bias"][0] = np.nan
        assert self.reliability(tmp_path, model) == 4
        assert "lift.bias" in capsys.readouterr().err
        assert not (tmp_path / "rel" / "reliability.jsonl").exists()

    def test_undecodable_header_exits_4(self, tmp_path, capsys, monkeypatch):
        calls = count_cholesky(monkeypatch)
        # byte 20 lies inside the JSON header, which starts after 12 bytes
        assert self.reliability(tmp_path, self.model(),
                                edit=lambda raw: raw[:20] + b"\xff" + raw[21:]) == 4
        assert "checkpoint header" in capsys.readouterr().err
        assert calls == []

    def test_header_missing_key_exits_4(self, tmp_path, capsys, monkeypatch):
        calls = count_cholesky(monkeypatch)
        assert self.reliability(
            tmp_path, self.model(),
            edit=lambda raw: raw.replace(b'"bands"', b'"bandz"', 1)) == 4
        err = capsys.readouterr().err
        assert "checkpoint header" in err and "bands" in err
        assert calls == []


@pytest.fixture(scope="module")
def desk_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("desk") / "data"
    assert cli.main(["gen-data", "--preset", DESK, "--out", str(data),
                     *SMALL_DATA]) == 0
    return data


class TestMalformedInput:
    """Malformed config text exits 2 and a corrupt dataset header exits 4,
    before any output or costly work."""

    @pytest.mark.parametrize("schedule", ["auto: 10 @ 2", "auto: 10, 50 @ 40",
                                          "pairs: 0:10 20"])
    def test_malformed_schedule_exits_2(self, tmp_path, desk_data, capsys,
                                        schedule):
        out = tmp_path / "train"
        code = cli.main(["train", "--preset", DESK, "--data", str(desk_data),
                         "--out", str(out), *SMALL_DATA, "--set", "train.epochs=2",
                         "--set", f"train.schedule={schedule}"])
        assert code == 2
        assert "cannot parse schedule" in capsys.readouterr().err
        assert not (out / "model.dpaw").exists()

    @pytest.mark.parametrize("key", ["limit_state.use_magnitude",
                                     "reliability.diverged_as_failure"])
    def test_boolean_typo_exits_2_before_factorization(self, tmp_path, monkeypatch,
                                                       capsys, key):
        calls = count_cholesky(monkeypatch)
        code = cli.main(["reliability", "--preset", DESK,
                         "--out", str(tmp_path / "rel"), *SMALL_DATA,
                         "--set", f"{key}=ture"])
        assert code == 2
        assert key.split(".")[1] in capsys.readouterr().err
        assert calls == []

    def test_undecodable_dataset_header_exits_4(self, tmp_path, desk_data, capsys):
        data = tmp_path / "data"
        data.mkdir()
        raw = (desk_data / "train.dpds").read_bytes()
        (data / "train.dpds").write_bytes(raw[:20] + b"\xff" + raw[21:])
        out = tmp_path / "train"
        code = cli.main(["train", "--preset", DESK, "--data", str(data),
                         "--out", str(out), *SMALL_DATA, *FAST_TRAIN])
        assert code == 4
        assert "dataset header" in capsys.readouterr().err
        assert not (out / "model.dpaw").exists()


class TestTrainLog:
    def test_epochs_logged_before_a_failure(self, tmp_path, monkeypatch):
        data, out = str(tmp_path / "data"), tmp_path / "dpa"
        assert cli.main(["gen-data", "--preset", DESK, "--out", data,
                         *SMALL_DATA]) == 0
        cfg = cf.load_config(preset=DESK, overrides=SMALL_DATA[1::2])
        batches = -(-cfg.n_train // cfg.train_config().batch_size)
        steps = []

        def step(opt, grads, original=tr.Adam.step):
            steps.append(1)
            if len(steps) == 2 * batches + 1:  # first batch of the third epoch
                raise NonFiniteLoss("injected failure")
            return original(opt, grads)

        monkeypatch.setattr(tr.Adam, "step", step)
        code = cli.main(["train", "--preset", DESK, "--data", data, "--out",
                         str(out), *SMALL_DATA, "--set", "train.epochs=3",
                         "--set", "train.schedule=pairs: 0:3"])
        assert code == 3
        rows = (out / "train_log.csv").read_text().splitlines()
        assert rows[0] == ("epoch,T,mean_loss,wall_ms,forward_ms,backward_ms,"
                           "optimizer_ms,grad_norm_max,clipped_batches,tape_nodes")
        assert [row.split(",")[:2] for row in rows[1:]] == [["0", "3"], ["1", "3"]]

    def train_log(self, tmp_path, name, grad_clip):
        data, out = tmp_path / "data", tmp_path / name
        if not data.exists():
            assert cli.main(["gen-data", "--preset", DESK, "--out", str(data),
                             *SMALL_DATA]) == 0
        assert cli.main(["train", "--preset", DESK, "--data", str(data), "--out",
                         str(out), *SMALL_DATA, "--set", "train.epochs=3",
                         "--set", "train.schedule=pairs: 0:2 2:4",
                         "--set", f"train.grad_clip={grad_clip}"]) == 0
        lines = (out / "train_log.csv").read_text().splitlines()
        header = lines[0].split(",")
        return [dict(zip(header, line.split(","))) for line in lines[1:]]

    def test_phase_columns_plausible(self, tmp_path):
        cfg = cf.load_config(preset=DESK, overrides=SMALL_DATA[1::2])
        batches = -(-cfg.n_train // cfg.train_config().batch_size)
        clipped = self.train_log(tmp_path, "clipped", 1e-9)
        free = self.train_log(tmp_path, "free", 0)
        ds = dg.load(str(tmp_path / "data" / "train.dpds"))
        for rows in (clipped, free):
            assert [(r["epoch"], r["T"]) for r in rows] == [
                ("0", "2"), ("1", "2"), ("2", "4")]
            for r in rows:
                phases = [float(r[k]) for k in ("forward_ms", "backward_ms",
                                                "optimizer_ms")]
                assert all(ms > 0.0 for ms in phases)
                assert sum(phases) <= float(r["wall_ms"])
                assert 0.0 < float(r["grad_norm_max"]) < np.inf
                assert int(r["tape_nodes"]) == tape_nodes(cfg, ds, int(r["T"]))
        # the norm is read before clipping, which would cap it at 1e-9
        assert all(float(r["grad_norm_max"]) > 1e-6 for r in clipped)
        assert [int(r["clipped_batches"]) for r in clipped] == [batches] * 3
        assert [int(r["clipped_batches"]) for r in free] == [0] * 3


def tape_nodes(cfg, ds, t_steps):
    """Nodes on the tape of one training batch at unroll length T."""
    model = wno.WnoModel.initialize(cfg.wno_config(), cfg.seed)
    tape = ad.Tape()
    staged = {name: tape.leaf(value) for name, value in model.params.items()}
    batch = ds.trajectories[:cfg.train_config().batch_size]
    tr.rollout_loss(model, cfg.partial_spec(), batch[:, 0], batch, t_steps,
                    params=staged)
    return len(tape.nodes)


class TestUqStepping:
    """`uq` rolls each surrogate once, to the latest probe step."""

    def setup_method(self):
        self.steps = Counter()

    def count_steps(self, monkeypatch):
        for cls in (tr.PhysicsSurrogate, tr.AugmentedSurrogate):
            def step(sur, u, original=cls.step):
                self.steps[id(sur)] += 1
                return original(sur, u)
            monkeypatch.setattr(cls, "step", step)

    def prepare(self, tmp_path):
        data, model = str(tmp_path / "data"), str(tmp_path / "model")
        assert cli.main(["gen-data", "--preset", DESK, "--out", data,
                         *SMALL_DATA]) == 0
        assert cli.main(["train", "--preset", DESK, "--data", data, "--out",
                         model, "--mode", "physics-only", *SMALL_DATA]) == 0
        return ["uq", "--preset", DESK, "--data", data,
                "--dpa", os.path.join(model, "model.dpaw"),
                "--out", str(tmp_path / "uq"), *SMALL_DATA]

    def test_one_rollout_per_surrogate(self, tmp_path, monkeypatch):
        argv = self.prepare(tmp_path)
        self.count_steps(monkeypatch)
        assert cli.main(argv) == 0  # probe.t=5, 20
        assert sorted(self.steps.values()) == [20, 20]
        for k in (0, 1):
            assert os.path.exists(tmp_path / "uq" / f"pdf_probe{k}.csv")

    @pytest.mark.parametrize("t_star", ["0", "31"])
    def test_bad_probe_step_rejected_before_rollout(self, tmp_path,
                                                    monkeypatch, t_star):
        argv = self.prepare(tmp_path)
        self.count_steps(monkeypatch)
        assert cli.main(argv + ["--set", f"probe.t=5, {t_star}"]) == 2
        assert not self.steps


class TestGradcheckCommand:
    def test_single_preset(self, capsys):
        assert cli.main(["gradcheck", "--preset", DESK]) == 0
        assert "max relative gradient error" in capsys.readouterr().out
