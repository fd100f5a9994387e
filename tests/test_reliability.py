import dataclasses
import tracemalloc

import numpy as np
import pytest

from dpawno import physics as ph
from dpawno import reliability as rel
from dpawno import training as tr
from dpawno import wno
from dpawno.errors import NotPositiveDefinite
from dpawno.rng import stream
from helpers import Replay

PERIODIC_GRF = rel.GrfSpec("exp_sine_squared", alpha=4.0, length_scale=0.5,
                        periodicity=1.0)


def burgers_full(nx=64):
    return ph.PdeSpec("burgers1d", {"nu": 0.3 / np.pi},
                      ("advection", "diffusion"), "dirichlet", 0.0,
                      (-1.0, 1.0), nx=nx, dt=3e-4, advection_scheme="upwind")


class TestCovariance:
    def test_diagonal_is_alpha_plus_jitter(self):
        k = rel.grf_covariance(PERIODIC_GRF, np.linspace(0, 1, 8), rel.JITTER)
        assert np.allclose(np.diag(k), 4.0 + 1e-8, atol=1e-15)

    def test_periodicity(self):
        # separation equal to the period recovers full covariance
        k = rel.grf_covariance(PERIODIC_GRF, np.array([0.0, 1.0]), rel.JITTER)
        assert abs(k[0, 1] - 4.0) < 1e-12

    def test_matches_scalar_formula(self):
        pts = np.array([0.0, 0.13, 0.5, 0.77])
        spec = rel.GrfSpec("exp_sine_squared", 4.0, 0.5, 1.0)
        k = rel.grf_covariance(spec, pts, 0.0)
        for i in range(4):
            for j in range(4):
                d = abs(pts[i] - pts[j])
                want = 4.0 * np.exp(-2.0 / 0.25 * np.sin(np.pi * d / 1.0) ** 2)
                assert abs(k[i, j] - want) < 1e-14

    def test_rbf_formula(self):
        pts = np.array([0.0, 0.5])
        spec = rel.GrfSpec("rbf", 4.0, 0.9)
        k = rel.grf_covariance(spec, pts, 0.0)
        want = 4.0 * np.exp(-0.25 / (2 * 0.81))
        assert abs(k[0, 1] - want) < 1e-14

    def test_symmetric(self):
        k = rel.grf_covariance(PERIODIC_GRF, np.linspace(0, 2, 30), rel.JITTER)
        assert np.array_equal(k, k.T)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            rel.GrfSpec("rbf", alpha=4.0, length_scale=0.0)
        with pytest.raises(ValueError):
            rel.GrfSpec("matern", alpha=4.0, length_scale=0.5)

    def test_not_positive_definite_surfaces(self, monkeypatch):
        def always_fail(_):
            raise np.linalg.LinAlgError("forced")
        monkeypatch.setattr(np.linalg, "cholesky", always_fail)
        with pytest.raises(NotPositiveDefinite):
            rel.sample_grf(PERIODIC_GRF, (np.linspace(0, 1, 8),), 1, seed=0)


def broadcast_covariance(spec, points, jitter):
    """The (n, n, d) broadcast construction that grf_covariance replaced,
    kept as the reference its values must equal bit for bit."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    dist = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
    if spec.kernel == "exp_sine_squared":
        k = spec.alpha * np.exp(
            -(2.0 / spec.length_scale ** 2)
            * np.sin(np.pi * dist / spec.periodicity) ** 2)
    else:
        k = spec.alpha * np.exp(-(dist ** 2) / (2.0 * spec.length_scale ** 2))
    return k + jitter * np.eye(len(pts))


class TestInPlaceCovariance:
    @pytest.mark.parametrize("jitter", (0.0, 1e-8))
    @pytest.mark.parametrize("kernel", rel.KERNELS)
    def test_equals_broadcast_expression(self, kernel, jitter):
        spec = rel.GrfSpec(kernel, alpha=3.7, length_scale=0.45,
                           periodicity=1.3)
        pts = np.linspace(-1.0, 1.0, 64)
        assert np.array_equal(rel.grf_covariance(spec, pts, jitter),
                              broadcast_covariance(spec, pts, jitter))

    def test_retries_factor_base_plus_jitter_eye(self, monkeypatch):
        received = []
        real = np.linalg.cholesky

        def fails_twice(a):
            received.append(a.copy())
            if len(received) < 3:
                raise np.linalg.LinAlgError("forced")
            return real(a)

        monkeypatch.setattr(np.linalg, "cholesky", fails_twice)
        pts = np.linspace(0.0, 1.0, 12)
        rel.sample_grf(PERIODIC_GRF, (pts,), 1, seed=0)
        base = broadcast_covariance(PERIODIC_GRF, pts, 0.0)
        # the jitter grows tenfold per retry, as the factorization computes it
        jitters = (1e-8, 1e-8 * 10.0, 1e-8 * 10.0 * 10.0)
        assert len(received) == 3
        for got, j in zip(received, jitters):
            assert np.array_equal(got, base + j * np.eye(len(pts)))


class TestSampleGrf:
    def test_empirical_covariance_matches(self):
        pts = np.array([0.1, 0.35])
        draws = rel.sample_grf(PERIODIC_GRF, (pts,), 50_000, seed=1)
        emp = draws.T @ draws / len(draws)
        want = rel.grf_covariance(PERIODIC_GRF, pts, rel.JITTER)
        assert np.max(np.abs(emp - want) / np.abs(want)) < 0.05

    def test_degenerate_variance_limit(self, monkeypatch):
        # a jitter as small as the variance, so that it does not set the
        # draws' scale
        monkeypatch.setattr(rel, "JITTER", 1e-16)
        tiny = rel.GrfSpec("exp_sine_squared", alpha=1e-12, length_scale=0.5,
                           periodicity=1.0)
        draws = rel.sample_grf(tiny, (np.linspace(0, 1, 16),), 100, seed=2)
        assert np.max(np.abs(draws)) < 1e-4

    def test_same_seed_identical(self):
        a = rel.sample_grf(PERIODIC_GRF, (np.linspace(0, 1, 16),), 10, seed=3)
        b = rel.sample_grf(PERIODIC_GRF, (np.linspace(0, 1, 16),), 10, seed=3)
        assert np.array_equal(a, b)


def unit_variance_covariance(spec, axis):
    """The covariance of a non-x axis: the unit-variance kernel with the
    jitter divided by alpha."""
    return rel.grf_covariance(dataclasses.replace(spec, alpha=1.0), axis,
                              rel.JITTER / spec.alpha)


class TestPerAxisFactors:
    """A kernel that separates over the grid axes is factored one axis at a
    time; the x factor is the 1D one and every other axis carries the unit
    kernel with the same relative jitter."""

    RBF = rel.GrfSpec("rbf", alpha=4.0, length_scale=0.3)

    def test_kron_of_axis_factors_factors_kron_covariance(self):
        x, y = np.linspace(0.0, 2.0, 8), np.linspace(0.0, 1.5, 6)
        k_x = rel.grf_covariance(self.RBF, x, rel.JITTER)
        k_y = unit_variance_covariance(self.RBF, y)
        l_y, l_x = rel._factors(self.RBF, (x, y))
        assert np.array_equal(l_x, np.linalg.cholesky(k_x))
        assert np.array_equal(l_y, np.linalg.cholesky(k_y))
        assert np.allclose(np.kron(l_y, l_x), np.linalg.cholesky(np.kron(k_y, k_x)),
                           rtol=0.0, atol=1e-12)

    def test_2d_rbf_empirical_covariance_matches(self):
        x, y = np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 3)
        spec = rel.GrfSpec("rbf", alpha=4.0, length_scale=0.8)
        draws = rel.sample_grf(spec, (x, y), 10_000, seed=11)
        gx, gy = np.meshgrid(x, y)
        want = broadcast_covariance(spec, np.column_stack([gx.ravel(), gy.ravel()]),
                                    rel.JITTER)
        emp = draws.T @ draws / len(draws)
        assert np.max(np.abs(emp - want)) < 0.05 * spec.alpha

    def test_1d_draws_are_z_times_factor_transposed(self):
        x = np.linspace(-1.0, 1.0, 64)
        z = stream(3, "grf").standard_normal((100, len(x)))
        chol = np.linalg.cholesky(rel.grf_covariance(PERIODIC_GRF, x, rel.JITTER))
        draws = rel.sample_grf(PERIODIC_GRF, (x,), 100, seed=3)
        assert draws.tobytes() == (z @ chol.T).tobytes()

    def test_2d_exp_sine_squared_rejected_before_factorization(self, monkeypatch):
        # the kernel of the Euclidean distance does not separate over the axes
        shapes = []
        real = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda a: shapes.append(a.shape) or real(a))
        x, y = np.linspace(0.0, 0.35, 8), np.linspace(0.0, 0.25, 6)
        with pytest.raises(ValueError, match="rbf"):
            rel.sample_grf(PERIODIC_GRF, (x, y), 5, seed=4)
        assert shapes == []

    def test_2d_rbf_draw_builds_no_grid_sized_matrix(self):
        # one 4096 x 4096 matrix would be 134 MB
        axis = np.arange(64) * 2.0 / 64
        tracemalloc.start()
        try:
            rel.sample_grf(self.RBF, (axis, axis), 1, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


class TestMargin:
    """The per-sample margin estimate_reliability computes, min over the
    steps 0..horizon of (threshold - spatial max response), read off a
    surrogate that replays one stored trajectory (T+1, C) + spatial."""

    @staticmethod
    def margin(trajectory, ls):
        traj = np.asarray(trajectory, dtype=np.float64)[None]
        rep = rel.estimate_reliability(Replay(traj), traj[:, 0], ls, seed=0)
        return float(rep.margins[0])

    def test_huge_threshold_is_safe(self):
        ls = rel.LimitState(threshold=1e12, horizon=10)
        traj = np.random.default_rng(4).standard_normal((11, 1, 8))
        assert self.margin(traj, ls) > 0

    def test_breach_arithmetic(self):
        ls = rel.LimitState(threshold=5.0, horizon=10)
        traj = np.zeros((11, 1, 8))
        traj[4, 0, 3] = 6.0
        assert self.margin(traj, ls) == -1.0

    def test_initial_condition_included(self):
        ls = rel.LimitState(threshold=5.0, horizon=10)
        traj = np.zeros((11, 1, 8))
        traj[0, 0, 2] = -8.0
        assert self.margin(traj, ls) == -3.0

    def test_constant_zero_trajectory(self):
        ls = rel.LimitState(threshold=7.0, horizon=10)
        assert self.margin(np.zeros((11, 1, 8)), ls) == 7.0

    def test_magnitude_vs_signed(self):
        # the response is |u|: a trough below -threshold fails too
        traj = np.zeros((3, 1, 4))
        traj[1, 0, 0] = -9.0
        assert self.margin(traj, rel.LimitState(threshold=7.0, horizon=2)) == -2.0

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            rel.LimitState(threshold=1.0, horizon=-1)
        assert rel.LimitState(threshold=1.0, horizon=0).horizon == 0

    def test_horizon_truncates(self):
        ls = rel.LimitState(threshold=1.0, horizon=3)
        traj = np.zeros((11, 1, 4))
        traj[9] = 50.0  # beyond the horizon
        assert self.margin(traj, ls) == 1.0


class TestGrfInitialConditions:
    """The GRF draws run over the spec's grid axes in the order of its
    coordinate array; in 1D they equal the construction they replaced byte
    for byte."""

    def test_2d_matches_column_stack_of_meshgrid(self):
        spec = ph.PdeSpec("burgers2d", {"nu": 0.01}, (), "periodic",
                          domain=(0.0, 2.0), nx=8, ny=6)
        grf = rel.GrfSpec("rbf", alpha=1.0, length_scale=0.4)
        ics = rel.grf_initial_conditions(grf, spec, 5, seed=7)
        x, y = spec.grid()
        gx, gy = np.meshgrid(x, y)
        points = np.column_stack([gx.ravel(), gy.ravel()])
        # the factor of the draws is one over the column-stacked meshgrid
        # points: its product with its transpose is their covariance
        chol = np.kron(*rel._factors(grf, (x, y)))
        assert np.allclose(chol @ chol.T,
                           broadcast_covariance(grf, points, rel.JITTER),
                           rtol=0.0, atol=1e-7)
        z = stream(7, "grf", 0).standard_normal((5, len(points)))
        fields = (z @ chol.T).reshape(5, 1, len(y), len(x))
        old = np.broadcast_to(fields, (5, 2, len(y), len(x)))
        assert ics.shape == (5,) + spec.state_shape()
        assert np.allclose(ics, old, rtol=0.0, atol=1e-12)
        assert ics.tobytes() == np.ascontiguousarray(np.broadcast_to(
            rel.sample_grf(grf, (x, y), 5, 7).reshape(5, 1, len(y), len(x)),
            ics.shape)).tobytes()

    def test_zero_mean(self):
        ics = rel.grf_initial_conditions(PERIODIC_GRF, burgers_full(nx=64), 400,
                                         seed=5)
        sigma = np.sqrt(PERIODIC_GRF.alpha)
        assert abs(ics.mean()) < 3.0 * sigma / np.sqrt(400 * 4)  # correlated draws

    def test_1d_matches_draws_on_the_axis(self):
        spec = burgers_full(nx=32)
        ics = rel.grf_initial_conditions(PERIODIC_GRF, spec, 4, seed=3)
        (x,) = spec.grid()
        old = rel.sample_grf(PERIODIC_GRF, (x,), 4, 3)[:, None, :]
        assert ics.tobytes() == np.ascontiguousarray(old).tobytes()


def draws(full, n, seed):
    return rel.grf_initial_conditions(PERIODIC_GRF, full, n, seed=seed)


class TestEstimateReliability:
    def test_reference_solver_self_consistency(self):
        full = burgers_full()
        ls = rel.LimitState(threshold=7.0, horizon=30)
        sur = tr.PhysicsSurrogate(full)
        ics = rel.grf_initial_conditions(PERIODIC_GRF, full, 200, seed=5)
        rep = rel.estimate_reliability(sur, ics, ls, seed=5)
        # direct ground-truth computation over the same draws
        trajs = np.stack(tr.rollout(sur.step, ics, ls.horizon), axis=1)
        margins = ls.threshold - np.max(np.abs(trajs).reshape(len(trajs), -1),
                                        axis=1)
        assert rep.failures == int(np.sum(margins < 0))
        assert rep.reliability == 1.0 - rep.failures / 200

    def test_threshold_below_reachable_floor_fails_everything(self):
        full = burgers_full()
        ls = rel.LimitState(threshold=1e-6, horizon=5)
        rep = rel.estimate_reliability(tr.PhysicsSurrogate(full),
                                       draws(full, 50, 6), ls, seed=6)
        assert rep.reliability < 0.05

    def test_monotone_in_threshold(self):
        full = burgers_full()
        sur = tr.PhysicsSurrogate(full)
        ics = draws(full, 100, 7)
        last = -1.0
        for g_t in (2.0, 4.0, 6.0, 8.0):
            rep = rel.estimate_reliability(
                sur, ics, rel.LimitState(g_t, horizon=20), seed=7)
            assert rep.reliability >= last
            last = rep.reliability

    def test_pf_plus_reliability_is_one(self):
        full = burgers_full()
        rep = rel.estimate_reliability(tr.PhysicsSurrogate(full),
                                       draws(full, 64, 8),
                                       rel.LimitState(5.0, horizon=10), seed=8)
        assert rep.p_f + rep.reliability == 1.0
        assert rep.stderr == pytest.approx(
            np.sqrt(rep.p_f * (1 - rep.p_f) / 64))

    def test_deterministic_across_runs(self):
        full = burgers_full()
        ls = rel.LimitState(6.0, horizon=15)
        reps = [rel.estimate_reliability(tr.PhysicsSurrogate(full),
                                         draws(full, 80, 9), ls, seed=9)
                for _ in range(3)]
        assert reps[0].failures == reps[1].failures == reps[2].failures

    def test_margin_indicator_consistency(self):
        full = burgers_full()
        ls = rel.LimitState(5.5, horizon=20)
        rep = rel.estimate_reliability(tr.PhysicsSurrogate(full),
                                       draws(full, 100, 10), ls, seed=10)
        assert rep.failures == int(np.sum(rep.margins < 0))

    def test_json_record_fields(self):
        full = burgers_full()
        rep = rel.estimate_reliability(tr.PhysicsSurrogate(full),
                                       draws(full, 16, 11),
                                       rel.LimitState(7.0, horizon=5), seed=11)
        import json
        doc = json.loads(rep.to_json(kernel="exp_sine_squared", g_t=7.0))
        for key in ("n", "failures", "reliability", "stderr", "seed",
                    "kernel", "g_t"):
            assert key in doc

    def test_shared_ics_left_untouched(self):
        full = burgers_full()
        ics = draws(full, 24, 12)
        ics[:2] = 9e7  # two samples diverge in the first step
        before = ics.copy()
        model = wno.WnoModel.initialize(
            wno.WnoConfig(width=6, layers=2, fc1_dim=12), seed=0)
        rng = np.random.default_rng(13)
        for name in ("downlift2.weight", "downlift2.bias"):
            model.params[name] = 0.1 * rng.standard_normal(model.params[name].shape)
        ls = rel.LimitState(6.0, horizon=8)
        for sur in (tr.PhysicsSurrogate(full),
                    tr.AugmentedSurrogate(full.with_terms(("advection",)), model)):
            shared = rel.estimate_reliability(sur, ics, ls, seed=12)
            assert np.array_equal(ics, before)
            fresh = rel.estimate_reliability(sur, before.copy(), ls, seed=12)
            assert np.array_equal(shared.margins, fresh.margins)
            assert shared.diverged == 2
            assert [i for i, _ in shared.diverged_at] == [0, 1]
            assert all(1 <= t <= ls.horizon for _, t in shared.diverged_at)


class TestWilsonInterval:
    def test_textbook_value(self):
        lo, hi = rel.wilson_interval(1, 10)
        assert lo == pytest.approx(0.01788, abs=1e-5)
        assert hi == pytest.approx(0.40416, abs=1e-5)

    def test_zero_failures_is_not_a_point(self):
        lo, hi = rel.wilson_interval(0, 1000)
        z2 = 1.959963984540054 ** 2
        assert lo == 0.0
        assert hi == pytest.approx(z2 / (1000 + z2), rel=1e-12)

    def test_symmetric_and_contains_estimate(self):
        for failures in range(0, 41):
            lo, hi = rel.wilson_interval(failures, 40)
            assert 0.0 <= lo <= failures / 40 <= hi <= 1.0
            mlo, mhi = rel.wilson_interval(40 - failures, 40)
            assert mlo == pytest.approx(1.0 - hi, abs=1e-12)
            assert mhi == pytest.approx(1.0 - lo, abs=1e-12)

    def test_empty(self):
        assert rel.wilson_interval(0, 0) is None
