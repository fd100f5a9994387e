import configparser
import dataclasses
import json
import os
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from dpawno import autodiff as ad
from dpawno import cli
from dpawno import config as cf
from dpawno import datagen as dg
from dpawno import errors
from dpawno import physics as ph
from dpawno import reliability as rel
from dpawno import training as tr
from dpawno import wno
from dpawno.errors import NonFiniteLoss, UsageError
from helpers import reseal

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
ROOT = Path(__file__).resolve().parents[1]


def identity_checkpoint(path):
    """Save the zero-initialized desk model, which steps exactly like the
    known physics, at `path`; return the path as a string."""
    cfg = cf.load_config(preset=DESK)
    wno.save_checkpoint(wno.WnoModel.initialize(cfg.wno_config(), cfg.seed), path)
    return str(path)


class TestConfig:
    @pytest.mark.parametrize("name", cf.PRESETS)
    def test_presets_parse_and_build(self, name):
        c = cf.load_config(preset=name)
        full = c.full_spec()
        partial = c.partial_spec()
        assert set(partial.terms) < set(full.terms)
        assert c.data_only_spec().terms == ()
        assert c.wno_config().parameter_shapes()
        assert c.train_config().epochs > 0
        assert c.families("train") and c.families("test")
        assert c.grf_spec().alpha > 0
        assert c.limit_state().threshold > 0
        assert c.probes()
        # a probe location has one coordinate per spatial axis, x first,
        # and the WNO reads the state plus one coordinate channel per axis
        dims = len(full.spatial_shape())
        assert all(len(x_star) == dims for x_star, _ in c.probes())
        w = c.wno_config()
        assert (w.spatial_dims, w.in_channels, w.out_channels) == (
            dims, full.channels + dims, full.channels)

    @pytest.mark.parametrize("name", cf.PRESETS)
    def test_preset_sets_only_known_keys(self, name):
        """Every key a preset sets is one its section reads in the preset's
        context: the benchmark's constants and grid axes, the advection
        scheme only with that term, the keys of each family's kind."""
        parser = configparser.ConfigParser()
        parser.read_string(cf.preset_text(name))
        assert not parser.defaults()
        bench = parser.get("run", "benchmark")
        axes = "xy" if bench in ph.BENCHMARKS_2D else "x"
        advection = ("advection",) * ("advection" in ph.BENCHMARK_TERMS[bench])
        context = {
            "pde": ph.BENCHMARK_PARAMS[bench] + advection + (
                "dt", "bc", "bc_value", "domain", "partial_terms",
                *(f"n{axis}" for axis in axes)),
            "probe": (*axes, "t"),
        }
        for section in parser.sections():
            entry = re.sub(r"\.\d+$", ".N", section)
            read = context.get(entry, cf.KEYS[entry])
            if entry.startswith("ic."):
                read = ("kind", "count") + dg.IC_KINDS[parser.get(section, "kind")]
            assert set(parser.options(section)) <= set(read), section
            assert set(read) <= set(cf.KEYS[entry]), section

    def test_every_key_is_documented(self):
        """Every key of config.KEYS is listed under its section in the
        --help epilog and in the README's "Sections and keys" list."""
        readme = (ROOT / "README.md").read_text()
        readme = readme[readme.index("Sections and keys"):readme.index("## File formats")]
        # one entry per section: an indented help block, a README bullet
        help_entries = re.findall(r"^  (\[.*\n(?: {4,}.*\n)*)", cli.CONFIG_KEYS_HELP,
                                  re.MULTILINE)
        readme_entries = re.findall(r"^- (`\[.*\n(?:  .*\n)*)", readme, re.MULTILINE)
        for entries, quote in ((help_entries, ""), (readme_entries, "`")):
            by_section = {}
            for entry in entries:
                head = re.match(r"((?:`?\[[\w.]+\]`?(?:, )?)+)", entry).group(1)
                for section in re.findall(r"\[([\w.]+)\]", head):
                    by_section[section] = entry[len(head):]
            assert set(by_section) == set(cf.KEYS)
            for section, keys in cf.KEYS.items():
                for key in keys:
                    assert re.search(rf"{quote}\b{key}\b{quote}", by_section[section]), \
                        (section, key)

    @pytest.mark.parametrize("kind", dg.IC_KINDS)
    def test_every_ic_kind_is_configurable(self, kind):
        keys = ("count=1", f"kind={kind}",
                *(f"{key}=2" for key in dg.IC_KINDS[kind]))
        c = cf.load_config(preset=DESK,
                           overrides=[f"ic.train.9.{key}" for key in keys])
        assert c.families("train")[-1].kind == kind

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

    def test_uq_writes_only_the_given_models(self, tmp_path, desk_data):
        # the zero-initialized checkpoint steps exactly like the known
        # physics, so its column equals mass_partial, not the truth; no
        # data-only model was given, so there is no mass_dataonly column
        ponly = identity_checkpoint(tmp_path / "ponly.dpaw")
        uqd = tmp_path / "uq"
        assert self.run("uq", "--preset", DESK, "--data", str(desk_data),
                        "--dpa", ponly, "--out", str(uqd),
                        *SMALL_DATA) == 0
        header, *lines = (uqd / "pdf_probe0.csv").read_text().splitlines()
        assert header == "support,mass_model,mass_truth,mass_partial"
        rows = [line.split(",") for line in lines]
        assert all(len(row) == 4 and row[1] == row[3] for row in rows)
        assert any(row[1] != row[2] for row in rows)

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

    def test_physics_only_train_mode_refused(self, tmp_path):
        # evaluate and uq roll the known physics with no checkpoint
        with pytest.raises(SystemExit) as exit_info:
            self.run("train", "--preset", DESK, "--data", str(tmp_path),
                     "--out", str(tmp_path / "o"), "--mode", "physics-only")
        assert exit_info.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_readme_commands_parse(self):
        """Every `dpawno` line of README's "Command line" block, continuation
        lines joined and comments dropped, is accepted by the parser."""
        text = (ROOT / "README.md").read_text()
        block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
        lines = [line.split() for line in
                 block.split("```", 1)[0].replace("\\\n", " ").splitlines()
                 if line.strip() and not line.lstrip().startswith("#")]
        assert len(lines) >= 6 and {argv[0] for argv in lines} == {"dpawno"}
        parser = cli.build_parser()
        for argv in lines:
            try:
                parser.parse_args(argv[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {' '.join(argv)}")


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
        wno.save_checkpoint(
            wno.WnoModel.initialize(cf.load_config(preset=DESK).wno_config(), 0), path)
        return cli.main(["reliability", "--preset", DESK, "--dpa", str(path),
                         "--out", str(tmp_path / "rel"), *SMALL_DATA, *extra])

    def test_one_factorization_for_every_candidate(self, tmp_path, monkeypatch):
        calls = count_cholesky(monkeypatch)
        assert self.run(tmp_path) == 0
        assert calls == [(64, 64)]

    def test_2d_rbf_factors_one_matrix_per_axis(self, tmp_path, monkeypatch):
        calls = count_cholesky(monkeypatch)
        assert cli.main(["reliability", "--preset", "burgers2d-missing-xdiff",
                         "--out", str(tmp_path / "rel"), "--set", "pde.nx=16",
                         "--set", "pde.ny=8", "--set", "reliability.n=2",
                         "--set", "limit_state.horizon=1"]) == 0
        assert calls == [(8, 8), (16, 16)]

    def test_sidecar_matches_report(self, tmp_path):
        # a threshold inside the spread of the desk draws' peaks, so both
        # candidates fail on some samples and the paired counts are not void
        assert self.run(tmp_path, "--set", "limit_state.threshold=4.0") == 0
        rel_dir = tmp_path / "rel"
        records = {r["model"]: r for r in (
            json.loads(line) for line in
            (rel_dir / "reliability.jsonl").read_text().splitlines())}
        meta = json.loads((rel_dir / "reliability.meta.json").read_text())
        assert (meta["n"], meta["horizon"]) == (40, 20)
        assert meta["grf_s"] >= 0.0
        assert set(meta["models"]) == set(records)
        for name, r in records.items():
            m = meta["models"][name]
            assert (m["failures"], m["diverged"]) == (r["failures"], r["diverged"])
            assert len(m["diverged_at"]) == r["diverged"]
            lo, hi = m["p_f_wilson95"]
            assert lo <= r["p_f"] <= hi and hi > lo
            assert m["rollout_s"] >= 0.0
        paired = meta["paired"]
        assert paired["n"] == 40
        assert 0 < records["exact"]["failures"] < 40
        assert (paired["dpa_fails_exact_safe"] - paired["exact_fails_dpa_safe"]
                == records["dpa-wno"]["failures"] - records["exact"]["failures"])
        assert paired["p_f_difference"] == pytest.approx(
            records["dpa-wno"]["p_f"] - records["exact"]["p_f"], abs=1e-15)

    def test_paired_block_needs_both_candidates(self, tmp_path):
        assert cli.main(["reliability", "--preset", DESK,
                         "--out", str(tmp_path / "rel"), *SMALL_DATA]) == 0
        meta = json.loads((tmp_path / "rel" / "reliability.meta.json").read_text())
        assert "paired" not in meta

    def test_zero_samples_rejected_before_factorization(self, tmp_path,
                                                         monkeypatch, capsys):
        calls = count_cholesky(monkeypatch)
        assert self.run(tmp_path, "--set", "reliability.n=0") == 2
        assert "[reliability] n" in capsys.readouterr().err
        assert calls == []

    def test_negative_horizon_rejected_before_factorization(self, tmp_path,
                                                            monkeypatch, capsys):
        calls = count_cholesky(monkeypatch)
        assert self.run(tmp_path, "--set", "limit_state.horizon=-1") == 2
        assert "horizon" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "rel" / "reliability.jsonl").exists()


def test_paired_disagreement_counts():
    exact = np.array([1.0, -1.0, 0.5, -2.0, 3.0, 0.0])
    dpa = np.array([-0.5, 2.0, -np.inf, -1.0, 1.0, -0.1])
    # dpa fails where exact is safe on 0, 2 (diverged, margin -inf) and 5,
    # exact fails where dpa is safe on 1, both fail on 3
    assert cli._paired(exact, dpa) == {
        "n": 6, "dpa_fails_exact_safe": 3, "exact_fails_dpa_safe": 1,
        "p_f_difference": 2 / 6}


class TestDamagedCheckpoint:
    """A cut, non-finite or malformed checkpoint is an i/o error (exit 4),
    not a usage error or a plausible-looking report.  The header edits are
    re-sealed with a fresh digest, so they reach the checks behind it."""

    def reliability(self, tmp_path, model, keep=1.0, edit=None):
        path = tmp_path / "model.dpaw"
        wno.save_checkpoint(model, path)
        if edit:
            reseal(path, edit)
        raw = path.read_bytes()
        path.write_bytes(raw[:int(len(raw) * keep)])
        return cli.main(["reliability", "--preset", DESK, "--dpa", str(path),
                         "--out", str(tmp_path / "rel"), *SMALL_DATA])

    def model(self):
        return wno.WnoModel.initialize(cf.load_config(preset=DESK).wno_config(), 0)

    def test_truncated_checkpoint_exits_4(self, tmp_path, capsys, monkeypatch):
        calls = count_cholesky(monkeypatch)
        assert self.reliability(tmp_path, self.model(), keep=0.5) == 4
        assert calls == []  # fails before the GRF factorization
        assert "model.dpaw is truncated" in capsys.readouterr().err
        assert not (tmp_path / "rel" / "reliability.jsonl").exists()

    def test_nan_parameter_exits_4(self, tmp_path, capsys):
        model = self.model()
        model.params["lift.bias"][0] = np.nan
        assert self.reliability(tmp_path, model) == 4
        assert "lift.bias" in capsys.readouterr().err
        assert not (tmp_path / "rel" / "reliability.jsonl").exists()

    def test_undecodable_header_exits_4(self, tmp_path, capsys, monkeypatch):
        calls = count_cholesky(monkeypatch)
        assert self.reliability(tmp_path, self.model(),
                                edit=lambda h: h[:8] + b"\xff" + h[9:]) == 4
        assert "model.dpaw header is malformed: UnicodeDecodeError" in \
            capsys.readouterr().err
        assert calls == []

    def test_header_missing_key_exits_4(self, tmp_path, capsys, monkeypatch):
        calls = count_cholesky(monkeypatch)
        assert self.reliability(
            tmp_path, self.model(),
            edit=lambda h: h.replace(b'"bands"', b'"bandz"', 1)) == 4
        err = capsys.readouterr().err
        assert "checkpoint header" in err and "bands" in err
        assert calls == []

    def test_blocks_not_matching_header_exit_4(self, tmp_path, capsys, monkeypatch):
        # a header edited from width 24 to 25 still parses; the blocks do not
        # fit it, which is damage, not a checkpoint for another state shape
        calls = count_cholesky(monkeypatch)
        assert self.reliability(
            tmp_path, self.model(),
            edit=lambda h: h.replace(b'"width": 24', b'"width": 25', 1)) == 4
        assert "checkpoint blocks do not match its header" in capsys.readouterr().err
        assert calls == []

    def test_symmetric_extension_header_exits_4(self, tmp_path, capsys, monkeypatch):
        # periodic db6 is the only wavelet, so the header names none: a
        # header that adds a wavelet key, or any other unknown key, is damage
        def setting(key, value):
            def edit(header):
                doc = json.loads(header)
                doc[key] = value
                return json.dumps(doc, sort_keys=True).encode()
            return edit

        calls = count_cholesky(monkeypatch)
        for key, value in (("wavelet_extension", "symmetric"),
                           ("wavelet_family", "db4")):
            assert self.reliability(tmp_path, self.model(),
                                    edit=setting(key, value)) == 4
            err = capsys.readouterr().err
            assert "checkpoint header is malformed" in err and f"'{key}'" in err
        assert calls == []


# (overrides or config-file text, the name the error gives): keys the
# program no longer reads, a typo, an unknown section and a [DEFAULT] entry
UNKNOWN_KEYS = [
    pytest.param(["--set", "wno.extension=symmetric"], "[wno] extension",
                 id="extension"),
    pytest.param(["--set", "limit_state.use_magnitude=false"],
                 "[limit_state] use_magnitude", id="use_magnitude"),
    pytest.param(["--set", "reliability.diverged_as_failure=true"],
                 "[reliability] diverged_as_failure",
                 id="diverged"),
    pytest.param(["--set", "train.grad_clp=0"], "[train] grad_clp",
                 id="grad_clp"),
    pytest.param(["--set", "wno.family=db6"], "[wno] family", id="family"),
    pytest.param(["--set", "train.grad_clip=10"], "[train] grad_clip",
                 id="grad_clip"),
    pytest.param(["--set", "grf.jitter=1e-8"], "[grf] jitter", id="jitter"),
    pytest.param(["--set", "train.checkpoint_every=5"], "[train] checkpoint_every",
                 id="checkpoint_every"),
    pytest.param("[plot]\ncolor = red\n", "[plot]", id="section"),
    pytest.param("[DEFAULT]\nseed = 1\n", "[DEFAULT] seed", id="DEFAULT"),
    # keys another context reads
    pytest.param(["--set", "pde.gamma=5"],
                 "[pde] gamma (not read by benchmark burgers1d)", id="gamma"),
    pytest.param(["--set", "probe.y=0.3"],
                 "[probe] y (not read by benchmark burgers1d)", id="probe_y"),
    pytest.param(["--set", "ic.train.1.value=3"],
                 "[ic.train.1] value (not read by kind cosine)", id="value"),
    pytest.param(["--set", "pde.ny=32"],
                 "[pde] ny (not read by benchmark burgers1d)", id="ny"),
    pytest.param(["--preset", "nagumo-missing-reaction",
                  "--set", "pde.advection=upwind"],
                 "[pde] advection (not read by benchmark nagumo)",
                 id="advection"),
]


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

    @staticmethod
    def source(tmp_path, extra):
        """--set overrides on the desk preset (or on the --preset `extra`
        starts with), or a config file holding the desk preset plus the
        text `extra`."""
        if isinstance(extra, list):
            return extra if extra[0] == "--preset" else ["--preset", DESK, *extra]
        path = tmp_path / "config.ini"
        path.write_text(cf.preset_text(DESK) + "\n" + extra)
        return ["--config", str(path)]

    @pytest.mark.parametrize("extra, name", UNKNOWN_KEYS)
    def test_unknown_key_exits_2_before_cholesky(self, tmp_path, monkeypatch,
                                                 capsys, extra, name):
        calls = count_cholesky(monkeypatch)
        out = tmp_path / "rel"
        code = cli.main(["reliability", *self.source(tmp_path, extra),
                         "--out", str(out)])
        assert code == 2
        assert f"unknown config section or key: {name}\n" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("extra, name", UNKNOWN_KEYS)
    def test_unknown_key_exits_2_before_any_write(self, tmp_path, capsys, extra,
                                                  name):
        out = tmp_path / "data"
        code = cli.main(["gen-data", *self.source(tmp_path, extra),
                         "--out", str(out)])
        assert code == 2
        assert f"unknown config section or key: {name}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["reliability"])
    def test_2d_exp_sine_squared_exits_2(self, tmp_path, monkeypatch, capsys,
                                         command):
        # that kernel of the Euclidean distance does not separate over the
        # axes, and over a 2D grid its covariance is not positive definite
        calls = count_cholesky(monkeypatch)
        out = tmp_path / "out"
        code = cli.main([command, "--preset", "burgers2d-missing-xdiff",
                         "--set", "pde.nx=16", "--set", "pde.ny=16",
                         "--set", "reliability.n=2",
                         "--set", "grf.kernel=exp_sine_squared", "--out", str(out)])
        assert code == 2
        assert "exp_sine_squared GRF kernel does not separate" in \
            capsys.readouterr().err
        assert calls == []
        assert list(out.iterdir()) == []

    def test_unknown_benchmark_exits_2(self, tmp_path, capsys):
        out = tmp_path / "data"
        code = cli.main(["gen-data", "--preset", DESK, "--out", str(out),
                         "--set", "run.benchmark=burgers3d"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown benchmark 'burgers3d'" in err
        assert all(name in err for name in ("burgers1d", "nagumo", "allen_cahn",
                                            "burgers2d"))
        assert not (out / "train.dpds").exists()

    @pytest.mark.parametrize("override, message", [
        ("ic.test.2.kind=bogus", "unknown IC kind 'bogus' in [ic.test.2]"),
        ("data.n_test=7", "[ic.test.N] families yield 100 ICs; [data] n_test is 7"),
    ])
    def test_bad_test_role_exits_2_before_any_write(self, tmp_path, capsys,
                                                   override, message):
        out = tmp_path / "data"
        code = cli.main(["gen-data", "--preset", DESK, "--set", override,
                         "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (out / "train.dpds").exists()

    def test_unknown_partial_term_exits_2(self, tmp_path, capsys):
        code = cli.main(["train", "--preset", DESK, "--data", str(tmp_path / "none"),
                         "--out", str(tmp_path / "train"),
                         "--set", "pde.partial_terms=advection, reaction"])
        assert code == 2
        assert "'reaction'" in capsys.readouterr().err

    def test_unknown_benchmark_in_dataset_header_exits_4(self, tmp_path, desk_data,
                                                         capsys):
        data = tmp_path / "data"
        data.mkdir()
        raw = (desk_data / "train.dpds").read_bytes()
        assert raw.count(b'"burgers1d"') == 1
        (data / "train.dpds").write_bytes(raw)
        reseal(data / "train.dpds", lambda h: h.replace(b'"burgers1d"', b'"burgers9d"'))
        out = tmp_path / "train"
        code = cli.main(["train", "--preset", DESK, "--data", str(data),
                         "--out", str(out), *SMALL_DATA, *FAST_TRAIN])
        assert code == 4
        assert "burgers9d" in capsys.readouterr().err
        assert not (out / "model.dpaw").exists()

    @pytest.mark.parametrize("entry", [b'"advection": "upwind", ', b'"bc_value": 0.0, '])
    def test_dataset_header_without_a_spec_field_exits_4(self, tmp_path, desk_data,
                                                        capsys, entry):
        # a field with a default is still written, so one left out is damage
        data = tmp_path / "data"
        data.mkdir()
        raw = (desk_data / "train.dpds").read_bytes()
        assert raw.count(entry) == 1
        (data / "train.dpds").write_bytes(raw)
        reseal(data / "train.dpds", lambda h: h.replace(entry, b""))
        out = tmp_path / "train"
        code = cli.main(["train", "--preset", DESK, "--data", str(data),
                         "--out", str(out), *SMALL_DATA, *FAST_TRAIN])
        assert code == 4
        err = capsys.readouterr().err
        assert "dataset header is malformed: ValueError: keys" in err
        assert not (out / "model.dpaw").exists()

    def test_undecodable_dataset_header_exits_4(self, tmp_path, desk_data, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "train.dpds").write_bytes((desk_data / "train.dpds").read_bytes())
        reseal(data / "train.dpds", lambda h: h[:8] + b"\xff" + h[9:])
        out = tmp_path / "train"
        code = cli.main(["train", "--preset", DESK, "--data", str(data),
                         "--out", str(out), *SMALL_DATA, *FAST_TRAIN])
        assert code == 4
        assert "train.dpds header is malformed" in capsys.readouterr().err
        assert not (out / "model.dpaw").exists()


SMALL_2D = [
    "--set", "pde.nx=16", "--set", "pde.ny=16",
    "--set", "data.n_train=1", "--set", "ic.train.1.count=1",
    "--set", "data.nt_train=1", "--set", "data.n_test=1",
    "--set", "ic.test.1.count=1", "--set", "data.nt_test=1",
]
# (preset, override, the PdeSpec field it changes): one case per field
# that --set changes alone (benchmark also changes terms and params, and
# terms are always the benchmark's full set)
PHYSICS_FIELDS = [
    (DESK, "pde.nu=0.05", "params"),
    (DESK, "pde.bc=periodic", "bc"),
    (DESK, "pde.bc_value=0.5", "bc_value"),
    (DESK, "pde.domain=-2, 2", "domain"),
    (DESK, "pde.nx=32", "nx"),
    (DESK, "pde.dt=0.0002", "dt"),
    (DESK, "pde.advection=central", "advection"),
    ("burgers2d-missing-xdiff", "pde.ny=8", "ny"),
]

# section -> (its dataclass, the ExperimentConfig method that builds it, a
# command that builds it before reading any dataset)
READERS = {
    "pde": (ph.PdeSpec, "full_spec", ["gen-data"]),
    "wno": (wno.WnoConfig, "wno_config", ["train", "--data", "none"]),
    "train": (tr.TrainConfig, "train_config", ["train", "--data", "none"]),
    "grf": (rel.GrfSpec, "grf_spec", ["reliability"]),
    "limit_state": (rel.LimitState, "limit_state", ["reliability"]),
}
# (section, key) of every dataclass field that a key of its name fills
READ_FIELDS = [(section, f.name) for section, (cls, _, _) in READERS.items()
               for f in dataclasses.fields(cls) if f.name in cf.KEYS[section]]


class TestConfigErrors:
    """A configuration the data or the grid cannot serve is a usage error
    (exit 2), raised before any checkpoint is loaded or output written."""

    def test_schedule_beyond_dataset_exits_2(self, tmp_path, desk_data, capsys):
        out = tmp_path / "train"
        code = cli.main(["train", "--preset", DESK, "--data", str(desk_data),
                         "--out", str(out), *SMALL_DATA, "--set", "train.epochs=1",
                         "--set", "train.schedule=pairs: 0:500"])
        assert code == 2
        assert "usage error" in capsys.readouterr().err
        assert not (out / "model.dpaw").exists()

    @pytest.mark.parametrize("key", ["epochs=0", "epochs=-1", "batch_size=0"])
    def test_nonpositive_train_sizes_exit_2_before_the_dataset(self, tmp_path,
                                                               capsys, key):
        # the dataset does not exist: reading it first would exit 4
        out = tmp_path / "train"
        code = cli.main(["train", "--preset", DESK, "--data", str(tmp_path / "none"),
                         "--out", str(out), "--set", f"train.{key}"])
        assert code == 2
        assert f"[train] {key.split('=')[0]} must be >= 1" in capsys.readouterr().err
        assert not (out / "train_log.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_bad_learning_rate_exits_2_before_the_dataset(self, tmp_path, capsys,
                                                         value):
        # nan failed the first update and -1 diverged for epochs (exit 3)
        out = tmp_path / "train"
        code = cli.main(["train", "--preset", DESK, "--data", str(tmp_path / "none"),
                         "--out", str(out), "--set", f"train.learning_rate={value}"])
        assert code == 2
        assert capsys.readouterr().err == ("usage error: [train] learning_rate must "
                                           f"be finite and > 0, got {float(value)}\n")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("override", [
        "grf.alpha=nan", "grf.alpha=inf", "grf.alpha=0", "grf.length_scale=nan",
        "grf.length_scale=inf", "grf.length_scale=-0.5", "grf.periodicity=nan",
        "grf.periodicity=inf", "grf.periodicity=0"])
    def test_bad_grf_parameter_exits_2_before_cholesky(self, tmp_path, monkeypatch,
                                                       capsys, override):
        # alpha=nan wrote p_f 1.0 with every sample diverged, and
        # length_scale=inf p_f 0.001 from a constant field
        calls = count_cholesky(monkeypatch)
        out = tmp_path / "rel"
        code = cli.main(["reliability", "--preset", DESK, "--out", str(out),
                         "--set", "reliability.n=2", "--set", override])
        assert code == 2
        key, value = override[len("grf."):].split("=")
        assert capsys.readouterr().err == \
            f"usage error: [grf] {key} must be finite and > 0, got {float(value)}\n"
        assert calls == []
        assert not any(out.iterdir())

    @pytest.mark.parametrize("value", ["1e-160", "1e-300", "1e300"])
    def test_length_scale_whose_square_is_not_normal_exits_2_before_cholesky(
            self, tmp_path, monkeypatch, capsys, value):
        # in grf_covariance 1e-300 divided by zero and 1e300 overflowed
        # (exit 1), and 1e-160, squared to a subnormal, drew white noise
        # that every sample diverged from
        calls = count_cholesky(monkeypatch)
        out = tmp_path / "rel"
        code = cli.main(["reliability", "--preset", DESK, "--out", str(out),
                         "--set", "reliability.n=2",
                         "--set", f"grf.length_scale={value}"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"usage error: [grf] length_scale {float(value)} is out of range: "
            "its square is not a normal float\n")
        assert calls == []
        assert not any(out.iterdir())
        for ok in (1.5e-154, 1.3e154):  # square to normal floats
            rel.GrfSpec("rbf", 1.0, ok)

    @pytest.mark.parametrize("command, preset, override", [
        ("evaluate", DESK, "probe.x=5"),
        ("evaluate", DESK, "probe.x=nan"),
        ("evaluate", DESK, "probe.x=inf"),
        ("uq", DESK, "probe.x=inf"),
        ("uq", DESK, "probe.x=-1.5"),
        ("evaluate", "burgers2d-missing-xdiff", "probe.y=3"),
        ("uq", "burgers2d-missing-xdiff", "probe.y=3"),
    ], ids=["evaluate-x=5", "evaluate-x=nan", "evaluate-x=inf", "uq-x=inf",
            "uq-x=-1.5", "evaluate-2d-y=3", "uq-2d-y=3"])
    def test_probe_outside_the_domain_exits_2_before_the_dataset(
            self, tmp_path, capsys, command, preset, override):
        # snapped to a Dirichlet boundary point, such a probe read as a
        # perfect density match; the dataset does not exist: reading it
        # first would exit 4
        out = tmp_path / command
        code = cli.main([command, "--preset", preset, "--data", str(tmp_path / "none"),
                         "--out", str(out), "--set", override])
        assert code == 2
        axis, value = override[len("probe."):].split("=")
        lo, hi = cf.load_config(preset=preset).full_spec().domain
        assert capsys.readouterr().err == (
            f"usage error: [probe] {axis} must lie in the [pde] domain "
            f"[{lo}, {hi}], got {float(value)}\n")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command, override, bad", [
        ("evaluate", "eval.snapshots=inf", "inf"),
        ("evaluate", "eval.snapshots=1e400", "inf"),
        ("evaluate", "eval.snapshots=5, 2.5", "2.5"),
        ("evaluate", "probe.t=inf", "inf"),
        ("evaluate", "probe.t=2.5", "2.5"),
        ("uq", "probe.t=inf", "inf"),
        ("uq", "probe.t=-inf", "-inf"),
        ("uq", "probe.t=2.5", "2.5"),
        ("uq", "probe.t=5, nan", "nan"),
    ])
    def test_step_that_is_not_a_whole_number_exits_2_before_the_dataset(
            self, tmp_path, capsys, command, override, bad):
        # inf and 1e400 overflowed int() (exit 1), and probe.t=2.5 probed
        # step 2; the dataset does not exist: reading it first would exit 4
        out = tmp_path / command
        code = cli.main([command, "--preset", DESK, "--data", str(tmp_path / "none"),
                         "--out", str(out), "--set", override])
        assert code == 2
        section, key = override.split("=")[0].split(".")
        assert capsys.readouterr().err == (
            f"usage error: [{section}] {key} must list whole step numbers, "
            f"got {bad}\n")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("preset, overrides", [
        (DESK, ("probe.x=-1",)), (DESK, ("probe.x=1",)),
        ("burgers2d-missing-xdiff", ("probe.x=0", "probe.y=2"))])
    def test_probe_on_the_domain_edge_is_accepted(self, preset, overrides):
        c = cf.load_config(preset=preset, overrides=overrides)
        location = tuple(float(o.split("=")[1]) for o in overrides)
        assert c.probes()[0][0] == location

    @pytest.mark.parametrize("section,key", [("ic.train.1", "count"),
                                             ("ic.test.2", "amplitudes"),
                                             ("grf", "alpha")])
    def test_missing_family_or_grf_key_exits_2(self, tmp_path, capsys, section,
                                               key):
        text = cf.preset_text(DESK)
        start = text.index(f"[{section}]")
        line = text.index(f"\n{key} =", start)
        path = tmp_path / "missing.ini"
        path.write_text(text[:line] + text[text.index("\n", line + 1):])
        command = "reliability" if section == "grf" else "gen-data"
        code = cli.main([command, "--config", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == \
            f"usage error: missing config key [{section}] {key}\n"

    def test_missing_key_in_an_override_section_exits_2(self, tmp_path, capsys):
        code = cli.main(["gen-data", "--preset", DESK, "--out", str(tmp_path / "d"),
                         "--set", "ic.train.9.kind=sine"])
        assert code == 2
        assert capsys.readouterr().err == \
            "usage error: missing config key [ic.train.9] count\n"

    def test_duplicate_section_exits_2(self, tmp_path, capsys):
        path = tmp_path / "duplicate.ini"
        path.write_text(cf.preset_text(DESK) + "\n[run]\nseed = 1\n")
        code = cli.main(["gen-data", "--config", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: malformed config {path}")
        assert "section 'run' already exists" in err

    def test_lone_percent_in_a_value_exits_2(self, tmp_path, capsys):
        path = tmp_path / "percent.ini"
        path.write_text(cf.preset_text(DESK).replace("seed = ", "seed = 5%", 1))
        code = cli.main(["gen-data", "--config", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("usage error: [run] seed: '%'")

    def test_override_section_name_is_stripped(self):
        c = cf.load_config(preset=DESK, overrides=["ic.train.9 .kind = sine",
                                                   "ic.train.9. count=1"])
        assert c.parser.get("ic.train.9", "count") == "1"

    @pytest.mark.parametrize("overrides, message", [
        # the other family's 8 ICs still add up to n_train
        (["ic.train.1.count=0", "data.n_train=8"],
         "[ic.train.1] count must be >= 1, got 0"),
        (["ic.train.1.count=-1"], "[ic.train.1] count must be >= 1, got -1"),
        (["data.nt_train=0"], "[data] nt_train must be >= 1, got 0"),
        (["data.nt_test=0"], "[data] nt_test must be >= 1, got 0"),
    ], ids=["count=0", "count=-1", "nt_train=0", "nt_test=0"])
    def test_sizes_below_1_exit_2_before_any_write(self, tmp_path, capsys,
                                                   overrides, message):
        out = tmp_path / "data"
        sets = [arg for kv in overrides for arg in ("--set", kv)]
        code = cli.main(["gen-data", "--preset", DESK, *sets, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("preset, override, message", [
        (DESK, "pde.dt=0", "[pde] dt must be finite and > 0, got 0.0"),
        (DESK, "pde.dt=-1e-4", "[pde] dt must be finite and > 0, got -0.0001"),
        (DESK, "pde.dt=nan", "[pde] dt must be finite and > 0, got nan"),
        (DESK, "pde.dt=inf", "[pde] dt must be finite and > 0, got inf"),
        (DESK, "pde.nx=1", "[pde] nx must be >= 2, got 1"),
        (DESK, "pde.nx=6x4",
         "[pde] nx: invalid literal for int() with base 10: '6x4'"),
        (DESK, "pde.domain=1, 1",
         "[pde] domain must be two finite numbers lo < hi, got (1.0, 1.0)"),
        (DESK, "pde.domain=1, -1",
         "[pde] domain must be two finite numbers lo < hi, got (1.0, -1.0)"),
        (DESK, "pde.domain=0, inf",
         "[pde] domain must be two finite numbers lo < hi, got (0.0, inf)"),
        (DESK, "pde.domain=1",
         "[pde] domain must be two finite numbers lo < hi, got (1.0,)"),
        ("burgers2d-missing-xdiff", "pde.ny=0", "[pde] ny must be >= 2, got 0"),
        ("burgers2d-missing-xdiff", "pde.ny=1", "[pde] ny must be >= 2, got 1"),
        # unchecked, these blew the ground truth up at step 1 (exit 3)
        (DESK, "pde.nu=nan", "[pde] nu must be finite, got nan"),
        (DESK, "pde.bc_value=inf", "[pde] bc_value must be finite, got inf"),
        ("nagumo-missing-diffusion", "pde.alpha=-inf",
         "[pde] alpha must be finite, got -inf"),
        # unchecked, -inf overflowed rng.uniform (exit 1), and a NaN read as
        # a blow-up (exit 3), or passed when no sample drew it
        (DESK, "ic.test.1.amplitudes=uniform: -inf, 10",
         "[ic.test.1] amplitudes must be finite, got ('uniform', -inf, 10.0)"),
        (DESK, "ic.train.2.amplitudes=1, nan",
         "[ic.train.2] amplitudes must be finite, got (1.0, nan)"),
        (DESK, "ic.train.1.frequencies=nan, 5",
         "[ic.train.1] frequencies must be finite, got (nan, 5.0)"),
        ("burgers2d-missing-xdiff", "ic.train.1.value=uniform: 0, inf",
         "[ic.train.1] value must be finite, got ('uniform', 0.0, inf)"),
    ], ids=["dt=0", "dt<0", "dt=nan", "dt=inf", "nx=1", "nx=6x4", "domain=1,1",
            "domain=1,-1", "domain=0,inf", "domain=1", "ny=0", "ny=1", "nu=nan",
            "bc_value=inf", "alpha=-inf", "uniform-inf", "amplitude=nan",
            "frequency=nan", "value=inf"])
    def test_bad_grid_exits_2_before_any_write(self, tmp_path, capsys, preset,
                                               override, message):
        out = tmp_path / "data"
        code = cli.main(["gen-data", "--preset", preset, "--set", override,
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("section, key", READ_FIELDS,
                             ids=[f"{s}.{k}" for s, k in READ_FIELDS])
    def test_omitted_key_takes_the_field_default_or_exits_2(self, tmp_path, capsys,
                                                           section, key):
        # desk, or the 2D preset for the keys desk does not set
        for preset in (DESK, "burgers2d-missing-xdiff"):
            parser = configparser.ConfigParser()
            parser.read_string(cf.preset_text(preset))
            if parser.remove_option(section, key):
                break
        path = tmp_path / "omitted.ini"
        with open(path, "w") as fh:
            parser.write(fh)
        cls, method, command = READERS[section]
        (field,) = (f for f in dataclasses.fields(cls) if f.name == key)
        if field.default is not dataclasses.MISSING:
            built = getattr(cf.load_config(preset=preset), method)()
            omitted = getattr(cf.load_config(path=path), method)()
            assert omitted == dataclasses.replace(built, **{key: field.default})
            return
        out = tmp_path / "out"
        code = cli.main([*command, "--config", str(path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == \
            f"usage error: missing config key [{section}] {key}\n"
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("preset, override, field", PHYSICS_FIELDS,
                             ids=[field for _, _, field in PHYSICS_FIELDS])
    def test_dataset_for_other_physics_exits_2(self, tmp_path, desk_data, capsys,
                                               preset, override, field):
        data, sets = desk_data, SMALL_DATA
        if preset != DESK:
            data, sets = tmp_path / "data", SMALL_2D
            assert cli.main(["gen-data", "--preset", preset, *sets,
                             "--out", str(data)]) == 0
        out = tmp_path / "train"
        code = cli.main(["train", "--preset", preset, "--data", str(data),
                         "--out", str(out), *sets, "--set", override])
        assert code == 2
        err = capsys.readouterr().err
        prefix = "usage error: train set was made for other physics: "
        assert err.startswith(prefix)
        assert [part.split()[0] for part in err[len(prefix):].split("; ")] == [field]
        assert not (out / "model.dpaw").exists()

    def test_count_beyond_family_exits_2(self, tmp_path, capsys):
        out = tmp_path / "data"
        code = cli.main(["gen-data", "--preset", DESK, "--out", str(out),
                         "--set", "ic.train.1.count=2000"])
        assert code == 2
        assert "usage error" in capsys.readouterr().err
        assert not (out / "train.dpds").exists()

    def test_too_many_wavelet_levels_exits_2(self, tmp_path, desk_data, capsys):
        out = tmp_path / "train"
        code = cli.main(["train", "--preset", DESK, "--data", str(desk_data),
                         "--out", str(out), *SMALL_DATA, *FAST_TRAIN,
                         "--set", "wno.levels=9"])
        assert code == 2
        assert "2^levels" in capsys.readouterr().err
        assert not (out / "model.dpaw").exists()

    @pytest.mark.parametrize("key", ["eval.snapshots=0", "eval.snapshots=5, -3",
                                     "eval.steps=0"])
    def test_bad_evaluate_step_exits_2_before_checkpoint(self, tmp_path, desk_data,
                                                         capsys, key):
        # the checkpoint does not exist: reading it first would exit 4
        out = tmp_path / "eval"
        code = cli.main(["evaluate", "--preset", DESK, "--data", str(desk_data),
                         "--dpa", str(tmp_path / "missing.dpaw"), "--out", str(out),
                         *SMALL_DATA, "--set", key])
        assert code == 2
        assert f"[eval] {key.split('.')[1].split('=')[0]}" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    def test_snapshots_past_the_stored_horizon_are_skipped(self, tmp_path, desk_data):
        out = tmp_path / "eval"
        assert cli.main(["evaluate", "--preset", DESK, "--data", str(desk_data),
                         "--out", str(out), *SMALL_DATA,
                         "--set", "eval.snapshots=5, 999"]) == 0
        assert sorted(p.name for p in out.glob("snapshot_t*.csv")) == ["snapshot_t5.csv"]

    @pytest.mark.parametrize("command", ["train", "evaluate", "uq"])
    @pytest.mark.parametrize("config, differs", [
        (["--preset", "burgers2d-missing-xdiff"],
         "benchmark 'burgers1d' (configured 'burgers2d')"),
        (["--preset", DESK, *SMALL_DATA, "--set", "pde.nx=32"],
         "nx 64 (configured 32)"),
    ], ids=["benchmark", "grid"])
    def test_dataset_of_another_config_exits_2(self, tmp_path, desk_data, capsys,
                                               command, config, differs):
        out = tmp_path / command
        code = cli.main([command, *config, *FAST_TRAIN, "--data", str(desk_data),
                         "--out", str(out)])
        assert code == 2
        name = "train" if command == "train" else "test"
        err = capsys.readouterr().err
        assert f"{name} set was made for other physics: " in err and differs in err
        assert not any(out.iterdir())


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
                           "optimizer_ms,grad_norm_max,clipped_batches,tape_nodes,"
                           "tape_bytes,minor_faults")
        assert [row.split(",")[:2] for row in rows[1:]] == [["0", "3"], ["1", "3"]]

    def test_nonfinite_gradient_stops_before_the_update(self, tmp_path,
                                                        monkeypatch, capsys):
        data, out = str(tmp_path / "data"), tmp_path / "dpa"
        assert cli.main(["gen-data", "--preset", DESK, "--out", data,
                         *SMALL_DATA]) == 0
        cfg = cf.load_config(preset=DESK, overrides=SMALL_DATA[1::2])
        batches = -(-cfg.n_train // cfg.train_config().batch_size)
        sweeps, steps = [], []

        def backward(tape, seed, original=ad.backward):
            grads = original(tape, seed)
            sweeps.append(1)
            if len(sweeps) == batches:  # the last batch of the only epoch
                leaf = min(grads)  # the first parameter
                grads[leaf] = np.full_like(grads[leaf], np.inf)
            return grads

        def step(opt, grads, original=tr.Adam.step):
            steps.append(1)
            return original(opt, grads)

        monkeypatch.setattr(ad, "backward", backward)
        monkeypatch.setattr(tr.Adam, "step", step)
        code = cli.main(["train", "--preset", DESK, "--data", data, "--out",
                         str(out), *SMALL_DATA, "--set", "train.epochs=1",
                         "--set", "train.schedule=pairs: 0:3"])
        assert code == 3
        assert (f"epoch 0, batch {batches - 1}, T=3: gradient norm is inf"
                in capsys.readouterr().err)
        assert len(steps) == batches - 1
        assert not (out / "model.dpaw").exists()

    def train_log(self, tmp_path, monkeypatch, name, clip_norm):
        data, out = tmp_path / "data", tmp_path / name
        if not data.exists():
            assert cli.main(["gen-data", "--preset", DESK, "--out", str(data),
                             *SMALL_DATA]) == 0
        monkeypatch.setattr(tr, "GRAD_CLIP_NORM", clip_norm)
        assert cli.main(["train", "--preset", DESK, "--data", str(data), "--out",
                         str(out), *SMALL_DATA, "--set", "train.epochs=3",
                         "--set", "train.schedule=pairs: 0:2 2:4"]) == 0
        lines = (out / "train_log.csv").read_text().splitlines()
        header = lines[0].split(",")
        return [dict(zip(header, line.split(","))) for line in lines[1:]]

    def test_phase_columns_plausible(self, tmp_path, monkeypatch):
        cfg = cf.load_config(preset=DESK, overrides=SMALL_DATA[1::2])
        batches = -(-cfg.n_train // cfg.train_config().batch_size)
        clipped = self.train_log(tmp_path, monkeypatch, "clipped", 1e-9)
        free = self.train_log(tmp_path, monkeypatch, "free", np.inf)
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
                tape = batch_tape(cfg, ds, int(r["T"]))
                assert int(r["tape_nodes"]) == len(tape.nodes)
                assert int(r["tape_bytes"]) == sum(
                    node.value.nbytes for node in tape.nodes)
                assert int(r["minor_faults"]) >= 0
        # the norm is read before clipping, which would cap it at 1e-9
        assert all(float(r["grad_norm_max"]) > 1e-6 for r in clipped)
        assert [int(r["clipped_batches"]) for r in clipped] == [batches] * 3
        assert [int(r["clipped_batches"]) for r in free] == [0] * 3


def batch_tape(cfg, ds, t_steps):
    """The tape of one training batch at unroll length T, before backward."""
    model = wno.WnoModel.initialize(cfg.wno_config(), cfg.seed)
    tape = ad.Tape()
    staged = {name: tape.leaf(value) for name, value in model.params.items()}
    batch = ds.trajectories[:cfg.train_config().batch_size]
    tr.rollout_loss(model, cfg.partial_spec(), batch[:, 0], batch, t_steps,
                    params=staged)
    return tape


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
        data = str(tmp_path / "data")
        assert cli.main(["gen-data", "--preset", DESK, "--out", data,
                         *SMALL_DATA]) == 0
        return ["uq", "--preset", DESK, "--data", data,
                "--dpa", identity_checkpoint(tmp_path / "model.dpaw"),
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


class TestCheckpointForAnotherState:
    """A checkpoint made for another state shape (here a 2D Burgers model
    against the 1D desk preset) is a usage error named before any rollout."""

    @pytest.fixture
    def model_2d(self, tmp_path):
        path = tmp_path / "model2d.dpaw"
        cfg = cf.load_config(preset="burgers2d-missing-xdiff").wno_config()
        wno.save_checkpoint(wno.WnoModel.initialize(cfg, 0), path)
        return str(path)

    @staticmethod
    def assert_names_both_shapes(err):
        assert "Traceback" not in err
        assert "usage error: model has spatial_dims=2, in_channels=4, " \
            "out_channels=2" in err
        assert "burgers1d states of shape (1, 64) need spatial_dims=1, " \
            "in_channels=2, out_channels=1" in err

    def test_evaluate_exits_2(self, tmp_path, desk_data, model_2d, capsys):
        out = tmp_path / "eval"
        code = cli.main(["evaluate", "--preset", DESK, "--data", str(desk_data),
                         "--dpa", model_2d, "--out", str(out), *SMALL_DATA])
        assert code == 2
        self.assert_names_both_shapes(capsys.readouterr().err)
        assert not (out / "metrics.csv").exists()

    def test_reliability_exits_2_before_the_grf_draw(self, tmp_path, model_2d,
                                                      capsys, monkeypatch):
        drawn = []
        real = rel.grf_initial_conditions
        monkeypatch.setattr(rel, "grf_initial_conditions",
                            lambda *a, **k: drawn.append(a) or real(*a, **k))
        out = tmp_path / "rel"
        code = cli.main(["reliability", "--preset", DESK, "--dpa", model_2d,
                         "--out", str(out), *SMALL_DATA])
        assert code == 2
        self.assert_names_both_shapes(capsys.readouterr().err)
        assert drawn == []
        assert not (out / "reliability.jsonl").exists()


# every error class cli.main maps, with its documented exit code and the
# prefix of the one-line message it prints
EXIT_CODES = [
    (errors.UsageError, 2, "usage error"),
    (errors.ShapeMismatch, 2, "usage error"),
    (errors.ScheduleExhausted, 2, "usage error"),
    (errors.CountExceedsFamily, 2, "usage error"),
    (errors.SignalTooShort, 2, "usage error"),
    (errors.NonFiniteLoss, 3, "numerical failure"),
    (errors.NonFiniteState, 3, "numerical failure"),
    (errors.NonFiniteValue, 3, "numerical failure"),
    (errors.NotPositiveDefinite, 3, "numerical failure"),
    (errors.DatasetIoError, 4, "i/o error"),
    (errors.ChecksumMismatch, 4, "i/o error"),
    (errors.FormatVersionMismatch, 4, "i/o error"),
]
# raised only by misuse of the library API, or turned into a mapped class
# before they reach cli.main (UnsupportedTermForBenchmark becomes a usage
# error in config and an i/o error in datagen.load; DegenerateSamples falls
# back to a point mass in uq)
UNMAPPED = {errors.UnknownPrimitive, errors.NonScalarSeed, errors.EmptyTape,
            errors.UnsupportedTermForBenchmark, errors.DegenerateSamples}


class TestExitCodeTable:
    @pytest.mark.parametrize("error,code,prefix", EXIT_CODES,
                             ids=[e.__name__ for e, _, _ in EXIT_CODES])
    def test_error_maps_to_documented_exit_code(self, error, code, prefix,
                                                monkeypatch, capsys):
        def command(args):
            raise error("injected")

        monkeypatch.setattr(cli, "cmd_gradcheck", command)
        assert cli.main(["gradcheck"]) == code
        captured = capsys.readouterr()
        assert captured.err == f"{prefix}: injected\n"
        assert captured.out == ""

    def test_every_error_class_is_mapped_or_listed(self):
        defined = {obj for obj in vars(errors).values()
                   if isinstance(obj, type) and issubclass(obj, errors.DpawnoError)
                   and obj is not errors.DpawnoError}
        mapped = {e for e, _, _ in EXIT_CODES}
        assert defined - UNMAPPED == mapped
