import numpy as np
import pytest

from dpawno import autodiff as ad
from dpawno import wavelet as wv
from dpawno import wno
from dpawno.errors import (
    ChecksumMismatch,
    DatasetIoError,
    FormatVersionMismatch,
    ShapeMismatch,
)
from helpers import gradient_error


def mean(y):
    return ad.scalar_mul(ad.total_sum(y), 1.0 / ad.value_of(y).size)


def small_config(**kw):
    defaults = dict(width=4, layers=2,
                    levels=2,
                    fc1_dim=8, in_channels=2, out_channels=1, spatial_dims=1)
    defaults.update(kw)
    return wno.WnoConfig(**defaults)


def parameter_count(config):
    return sum(int(np.prod(s)) for s in config.parameter_shapes().values())


def randomized(config, seed=0, scale=0.3):
    model = wno.WnoModel.initialize(config, seed)
    rng = np.random.default_rng(seed + 17)
    for name in model.params:
        model.params[name] = scale * rng.standard_normal(model.params[name].shape)
    return model


# the coordinate array of a 16-point 1D grid, (dims,) + spatial
COORDS16 = np.linspace(-1.0, 1.0, 16)[None]


class TestLift:
    def test_zero_weights_give_bias(self):
        cfg = small_config()
        m = wno.WnoModel.initialize(cfg, 0)
        m.params["lift.weight"][:] = 0.0
        m.params["lift.bias"][:] = 2.5
        u = np.random.default_rng(1).standard_normal((3, 1, 16))
        out = wno.lift(u, COORDS16, m, m.params)
        assert np.all(out == 2.5)

    def test_identity_weights_copy_channels(self):
        cfg = small_config(width=2)
        m = wno.WnoModel.initialize(cfg, 0)
        m.params["lift.weight"] = np.eye(2)
        m.params["lift.bias"][:] = 0.0
        u = np.random.default_rng(2).standard_normal((1, 1, 16))
        out = wno.lift(u, COORDS16, m, m.params)
        assert np.array_equal(out[:, 0], u[:, 0])
        assert np.allclose(out[:, 1], COORDS16[0])

    def test_matches_pointwise_matmul(self):
        cfg = small_config()
        m = randomized(cfg, 3)
        u = np.random.default_rng(4).standard_normal((2, 1, 16))
        out = wno.lift(u, COORDS16, m, m.params)
        stacked = np.concatenate(
            [u, np.broadcast_to(COORDS16, (2, 1, 16))], axis=1)
        expected = np.einsum("wc,bcx->bwx", m.params["lift.weight"], stacked) \
            + m.params["lift.bias"][None, :, None]
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_grid_shape_mismatch(self):
        cfg = small_config()
        m = wno.WnoModel.initialize(cfg, 0)
        with pytest.raises(ShapeMismatch):
            wno.lift(np.zeros((1, 1, 16)), np.linspace(0, 1, 8)[None], m,
                     m.params)
        # the coordinate array carries its (dims,) axis
        with pytest.raises(ShapeMismatch):
            wno.lift(np.zeros((1, 1, 16)), np.linspace(0, 1, 16), m, m.params)

    def test_2d_coordinate_channels_follow_the_state(self):
        # identity lift: state channels, then x, then y of every point
        from dpawno import physics as ph
        spec = ph.PdeSpec("burgers2d", {"nu": 0.01}, ("advection",),
                          "periodic", nx=8, ny=4)
        cfg = small_config(width=4, in_channels=4, out_channels=2,
                           spatial_dims=2)
        m = wno.WnoModel.initialize(cfg, 0)
        m.params["lift.weight"] = np.eye(4)
        u = np.random.default_rng(5).standard_normal((3, 2, 4, 8))
        out = wno.lift(u, spec.coordinates(), m, m.params)
        x, y = spec.grid()
        assert np.array_equal(out[:, :2], u)
        assert np.array_equal(out[:, 2], np.broadcast_to(x, (3, 4, 8)))
        assert np.array_equal(out[:, 3], np.broadcast_to(y[:, None], (3, 4, 8)))
        with pytest.raises(ShapeMismatch):  # (y, x) order swapped
            wno.lift(u, spec.coordinates().transpose(0, 2, 1), m, m.params)


class TestKernelLayer:
    def test_all_zero_weights_give_zero(self):
        cfg = small_config()
        m = wno.WnoModel.initialize(cfg, 0)
        for name in m.params:
            if name.startswith("layer0."):
                m.params[name] = np.zeros_like(m.params[name])
        v = np.random.default_rng(5).standard_normal((2, 4, 16))
        out = wno.kernel_layer(v, 0, m, m.params)
        assert np.all(out.data if isinstance(out, ad.Tensor) else out == 0.0)

    def test_zero_kernel_identity_pointwise_no_activation_is_identity(self):
        cfg = small_config()
        m = wno.WnoModel.initialize(cfg, 0)
        for band in cfg.kernel_bands():
            m.params[f"layer0.kernel.{band}"] = np.zeros((4, 4))
        m.params["layer0.pointwise.weight"] = np.eye(4)
        m.params["layer0.pointwise.bias"] = np.zeros(4)
        v = np.random.default_rng(6).standard_normal((2, 4, 16))
        out = wno.kernel_layer(v, 0, m, m.params, final=True)
        assert np.array_equal(out, v)

    def test_layer_linear_without_activation(self):
        cfg = small_config()
        m = randomized(cfg, 7)
        m.params["layer0.pointwise.bias"] = np.zeros(4)
        rng = np.random.default_rng(8)
        x, y = rng.standard_normal((2, 4, 16)), rng.standard_normal((2, 4, 16))
        lhs = wno.kernel_layer(1.5 * x - 2.0 * y, 0, m, m.params, final=True)
        rhs = 1.5 * wno.kernel_layer(x, 0, m, m.params, final=True) \
            - 2.0 * wno.kernel_layer(y, 0, m, m.params, final=True)
        assert np.max(np.abs(lhs - rhs)) < 1e-11

    def test_untouched_bands_truncated_from_kernel_path(self):
        # with zero pointwise path, the layer output lives entirely in the
        # mixed (coarsest) sub-bands: finer detail bands of the output vanish
        cfg = small_config(layers=1)
        m = randomized(cfg, 9)
        m.params["layer0.pointwise.weight"] = np.zeros((4, 4))
        m.params["layer0.pointwise.bias"] = np.zeros(4)
        v = np.random.default_rng(10).standard_normal((1, 4, 16))
        out = wno.kernel_layer(v, 0, m, m.params, final=True)
        _, details = wv.dwt_multilevel(out, cfg.levels, 1)
        (finest,) = details[-1]
        assert np.max(np.abs(finest)) < 1e-12


class TestWnoForward:
    def test_fresh_model_outputs_zero(self):
        cfg = small_config()
        m = wno.WnoModel.initialize(cfg, 1)
        u = np.random.default_rng(11).standard_normal((4, 1, 16))
        assert np.all(wno.wno_forward(u, COORDS16, m, m.params) == 0.0)

    @pytest.mark.parametrize("nx", [112, 64])
    def test_shape_contract_1d(self, nx):
        cfg = wno.WnoConfig(width=6, layers=2,
                            levels=4,
                            fc1_dim=8, in_channels=2, out_channels=1,
                            spatial_dims=1)
        m = randomized(cfg, 12)
        u = np.random.default_rng(nx).standard_normal((2, 1, nx))
        out = wno.wno_forward(u, np.linspace(-1, 1, nx)[None], m, m.params)
        assert out.shape == u.shape

    def test_shape_contract_2d(self):
        cfg = wno.WnoConfig(width=3, layers=2,
                            levels=2,
                            fc1_dim=6, in_channels=4, out_channels=2,
                            spatial_dims=2)
        m = randomized(cfg, 13)
        u = np.random.default_rng(14).standard_normal((2, 2, 64, 64))
        axis = np.linspace(0, 2, 64)
        coords = np.stack(np.meshgrid(axis, axis))
        assert wno.wno_forward(u, coords, m, m.params).shape == u.shape

    def test_one_euler_step_mse_through_wno_gradient(self):
        from dpawno import physics as ph

        spec = ph.PdeSpec("burgers1d", {"nu": 0.3 / np.pi},
                          ("advection",), "dirichlet", 0.0, (-1.0, 1.0),
                          nx=8, dt=3e-4)
        cfg = small_config()
        m = randomized(cfg, 30)
        coords = spec.coordinates()
        rng = np.random.default_rng(31)
        u0 = rng.uniform(0.5, 1.5, size=(1, 1, 8))
        target = rng.standard_normal((1, 1, 8))

        def loss_wrt_param(t):
            stepped = ph.euler_step_values(
                u0, spec, wno.wno_forward(u0, coords, m, params={
                    **m.params, "downlift2.weight": t}))
            return mean(ad.square(ad.sub(stepped, target)))

        def loss_wrt_state(t):
            stepped = ph.euler_step_values(
                t, spec, wno.wno_forward(t, coords, m, m.params))
            return mean(ad.square(ad.sub(stepped, target)))

        # parameter influence is dt-suppressed through a single step; the
        # larger probe keeps the central-difference oracle above its own
        # roundoff floor
        assert gradient_error(loss_wrt_param,
                              m.params["downlift2.weight"], 1e-4) < 1e-5
        assert gradient_error(loss_wrt_state, u0, 1e-5) < 1e-5

    def test_gradients_match_finite_differences(self):
        cfg = small_config()
        m = randomized(cfg, 15)
        rng = np.random.default_rng(16)
        u = rng.standard_normal((2, 1, 16))
        target = rng.standard_normal((2, 1, 16))
        worst = 0.0
        for name in m.params:
            def loss_fn(t, name=name):
                p = dict(m.params)
                p[name] = t
                out = wno.wno_forward(u, COORDS16, m, params=p)
                return mean(ad.square(ad.sub(out, target)))
            worst = max(worst, gradient_error(loss_fn, m.params[name], 1e-5))
        def loss_u(t):
            out = wno.wno_forward(t, COORDS16, m, m.params)
            return mean(ad.square(ad.sub(out, target)))
        worst = max(worst, gradient_error(loss_u, u, 1e-5))
        assert worst < 1e-5


class TestInvariants:
    def test_parameter_count_resolution_independent(self):
        cfg = small_config()
        m = randomized(cfg, 17)
        for nx in (64, 112):
            u = np.zeros((1, 1, nx))
            out = wno.wno_forward(u, np.linspace(-1, 1, nx)[None], m, m.params)
            assert out.shape == u.shape
        assert parameter_count(cfg) == sum(v.size for v in m.params.values())

    def test_bands_all_count_independent_of_resolution(self):
        cfg = small_config(bands="all")
        assert len(cfg.kernel_bands()) == 1 + cfg.levels
        assert parameter_count(cfg) > parameter_count(small_config())

    def test_kernel_band_names(self):
        # the names of the mixing weights in a checkpoint
        assert small_config(bands="all").kernel_bands() == (
            "approx", "detail0", "detail1")
        assert small_config(spatial_dims=2, in_channels=3).kernel_bands() == (
            "approx", "lh0", "hl0", "hh0")
        assert small_config(spatial_dims=2, in_channels=3, bands="all").kernel_bands() == (
            "approx", "lh0", "hl0", "hh0", "lh1", "hl1", "hh1")

    def test_same_seed_same_init_same_forward(self):
        cfg = small_config()
        a = wno.WnoModel.initialize(cfg, 5)
        b = wno.WnoModel.initialize(cfg, 5)
        assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)
        a.params["downlift2.weight"] += 0.5  # same perturbation both sides
        b.params["downlift2.weight"] += 0.5
        u = np.random.default_rng(18).standard_normal((2, 1, 16))
        out_a = wno.wno_forward(u, COORDS16, a, a.params)
        out_b = wno.wno_forward(u, COORDS16, b, b.params)
        assert np.array_equal(out_a, out_b)

    def test_taped_forward_matches_plain(self):
        cfg = small_config()
        m = randomized(cfg, 19)
        u = np.random.default_rng(20).standard_normal((2, 1, 16))
        plain = wno.wno_forward(u, COORDS16, m, m.params)
        tape = ad.Tape()
        staged = {k: tape.leaf(v) for k, v in m.params.items()}
        taped = wno.wno_forward(tape.leaf(u), COORDS16, m, params=staged)
        assert np.array_equal(plain, taped.data)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = small_config(bands="all")
        m = randomized(cfg, 21)
        path = tmp_path / "model.dpaw"
        wno.save_checkpoint(m, path)
        loaded = wno.load_checkpoint(path)
        assert loaded.config == cfg
        assert all(np.array_equal(m.params[k], loaded.params[k]) for k in m.params)

    def test_newer_version_rejected(self, tmp_path):
        cfg = small_config()
        m = wno.WnoModel.initialize(cfg, 0)
        path = tmp_path / "model.dpaw"
        wno.save_checkpoint(m, path)
        saved = path.read_bytes()
        # a newer version, version 1 (the layout before the shared
        # container) and version 0, which nothing ever wrote
        for version in (99, 1, 0):
            raw = bytearray(saved)
            raw[4] = version  # the little-endian version field
            path.write_bytes(bytes(raw))
            with pytest.raises(FormatVersionMismatch,
                               match=f"version {version};.*re-run gen-data or train"):
                wno.load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.dpaw"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(DatasetIoError, match="not a DPAW file"):
            wno.load_checkpoint(path)

    @pytest.mark.parametrize("where", ["version", "config", "name", "data"])
    def test_truncated_rejected(self, tmp_path, where):
        # cut inside the version field, the JSON header, the first named
        # block, and 16 bytes short (the digest read from the payload)
        path = tmp_path / "model.dpaw"
        wno.save_checkpoint(randomized(small_config(), 22), path)
        raw = path.read_bytes()
        header_len = int.from_bytes(raw[8:12], "little")
        cut = {"version": 6, "config": 12 + header_len // 2,
               "name": 12 + header_len + 3, "data": len(raw) - 16}[where]
        path.write_bytes(raw[:cut])
        with pytest.raises(ChecksumMismatch):
            wno.load_checkpoint(path)

    def test_non_finite_parameter_rejected(self, tmp_path):
        m = randomized(small_config(), 23)
        m.params["lift.bias"][0] = np.nan
        path = tmp_path / "model.dpaw"
        wno.save_checkpoint(m, path)
        with pytest.raises(DatasetIoError, match="lift.bias"):
            wno.load_checkpoint(path)

    def test_wrong_shape_rejected(self):
        cfg = small_config()
        m = wno.WnoModel.initialize(cfg, 0)
        params = dict(m.params)
        params["lift.weight"] = np.zeros((3, 3))
        with pytest.raises(ShapeMismatch):
            wno.WnoModel(cfg, params)
