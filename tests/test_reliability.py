import numpy as np
import pytest

from dpawno import physics as ph
from dpawno import reliability as rel
from dpawno import training as tr
from dpawno.errors import NotPositiveDefinite

PERIODIC_GRF = rel.GrfSpec("exp_sine_squared", alpha=4.0, length_scale=0.5,
                        periodicity=1.0)


def burgers_full(nx=64):
    return ph.PdeSpec("burgers1d", {"nu": 0.3 / np.pi},
                      ("advection", "diffusion"), "dirichlet", 0.0,
                      (-1.0, 1.0), nx=nx, dt=3e-4, advection_scheme="upwind")


class TestCovariance:
    def test_diagonal_is_alpha_plus_jitter(self):
        k = rel.grf_covariance(PERIODIC_GRF, np.linspace(0, 1, 8))
        assert np.allclose(np.diag(k), 4.0 + PERIODIC_GRF.jitter, atol=1e-15)

    def test_periodicity(self):
        # separation equal to the period recovers full covariance
        k = rel.grf_covariance(PERIODIC_GRF, np.array([0.0, 1.0]))
        assert abs(k[0, 1] - 4.0) < 1e-12

    def test_matches_scalar_formula(self):
        pts = np.array([0.0, 0.13, 0.5, 0.77])
        spec = rel.GrfSpec("exp_sine_squared", 4.0, 0.5, 1.0, jitter=0.0)
        k = rel.grf_covariance(spec, pts)
        for i in range(4):
            for j in range(4):
                d = abs(pts[i] - pts[j])
                want = 4.0 * np.exp(-2.0 / 0.25 * np.sin(np.pi * d / 1.0) ** 2)
                assert abs(k[i, j] - want) < 1e-14

    def test_rbf_formula(self):
        pts = np.array([[0.0, 0.0], [0.3, 0.4]])
        spec = rel.GrfSpec("rbf", 4.0, 0.9, jitter=0.0)
        k = rel.grf_covariance(spec, pts)
        want = 4.0 * np.exp(-0.25 / (2 * 0.81))
        assert abs(k[0, 1] - want) < 1e-14

    def test_symmetric(self):
        k = rel.grf_covariance(PERIODIC_GRF, np.linspace(0, 2, 30))
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
            rel.sample_grf(PERIODIC_GRF, np.linspace(0, 1, 8), 1, seed=0)


class TestSampleGrf:
    def test_empirical_covariance_matches(self):
        pts = np.array([0.1, 0.35])
        draws = rel.sample_grf(PERIODIC_GRF, pts, 50_000, seed=1)
        emp = draws.T @ draws / len(draws)
        want = rel.grf_covariance(PERIODIC_GRF, pts)
        assert np.max(np.abs(emp - want) / np.abs(want)) < 0.05

    def test_degenerate_variance_limit(self):
        tiny = rel.GrfSpec("exp_sine_squared", alpha=1e-12, length_scale=0.5,
                           periodicity=1.0, jitter=1e-16)
        draws = rel.sample_grf(tiny, np.linspace(0, 1, 16), 100, seed=2)
        assert np.max(np.abs(draws)) < 1e-4

    def test_same_seed_identical(self):
        a = rel.sample_grf(PERIODIC_GRF, np.linspace(0, 1, 16), 10, seed=3)
        b = rel.sample_grf(PERIODIC_GRF, np.linspace(0, 1, 16), 10, seed=3)
        assert np.array_equal(a, b)


class TestMargin:
    def test_huge_threshold_is_safe(self):
        ls = rel.LimitState(threshold=1e12, horizon=10)
        traj = np.random.default_rng(4).standard_normal((11, 1, 8))
        assert rel.evaluate_margin(traj, ls) > 0

    def test_breach_arithmetic(self):
        ls = rel.LimitState(threshold=5.0, horizon=10)
        traj = np.zeros((11, 1, 8))
        traj[4, 0, 3] = 6.0
        assert rel.evaluate_margin(traj, ls) == -1.0

    def test_constant_zero_trajectory(self):
        ls = rel.LimitState(threshold=7.0, horizon=10)
        assert rel.evaluate_margin(np.zeros((11, 1, 8)), ls) == 7.0

    def test_magnitude_vs_signed(self):
        traj = np.zeros((3, 1, 4))
        traj[1, 0, 0] = -9.0
        mag = rel.LimitState(threshold=7.0, horizon=2, use_magnitude=True)
        signed = rel.LimitState(threshold=7.0, horizon=2, use_magnitude=False)
        assert rel.evaluate_margin(traj, mag) == -2.0
        assert rel.evaluate_margin(traj, signed) == 7.0

    def test_horizon_truncates(self):
        ls = rel.LimitState(threshold=1.0, horizon=3)
        traj = np.zeros((11, 1, 4))
        traj[9] = 50.0  # beyond the horizon
        assert rel.evaluate_margin(traj, ls) == 1.0


class TestEstimateReliability:
    def test_reference_solver_self_consistency(self):
        full = burgers_full()
        ls = rel.LimitState(threshold=7.0, horizon=30)
        sur = tr.PhysicsSurrogate(full)
        rep = rel.estimate_reliability(sur, PERIODIC_GRF, ls, 200, seed=5, spec=full)
        # direct ground-truth computation over the same draws
        ics = rel.grf_initial_conditions(PERIODIC_GRF, full, 200, seed=5)
        trajs = np.stack(tr.rollout(None, full, ics, ls.horizon), axis=1)
        margins = np.array([rel.evaluate_margin(t, ls) for t in trajs])
        assert rep.failures == int(np.sum(margins < 0))
        assert rep.reliability == 1.0 - rep.failures / 200

    def test_threshold_below_reachable_floor_fails_everything(self):
        full = burgers_full()
        ls = rel.LimitState(threshold=1e-6, horizon=5)
        rep = rel.estimate_reliability(tr.PhysicsSurrogate(full), PERIODIC_GRF, ls,
                                       50, seed=6, spec=full)
        assert rep.reliability < 0.05

    def test_monotone_in_threshold(self):
        full = burgers_full()
        sur = tr.PhysicsSurrogate(full)
        last = -1.0
        for g_t in (2.0, 4.0, 6.0, 8.0):
            rep = rel.estimate_reliability(
                sur, PERIODIC_GRF, rel.LimitState(g_t, horizon=20), 100,
                seed=7, spec=full)
            assert rep.reliability >= last
            last = rep.reliability

    def test_pf_plus_reliability_is_one(self):
        full = burgers_full()
        rep = rel.estimate_reliability(tr.PhysicsSurrogate(full), PERIODIC_GRF,
                                       rel.LimitState(5.0, horizon=10), 64,
                                       seed=8, spec=full)
        assert rep.p_f + rep.reliability == 1.0
        assert rep.stderr == pytest.approx(
            np.sqrt(rep.p_f * (1 - rep.p_f) / 64))

    def test_deterministic_across_runs(self):
        full = burgers_full()
        ls = rel.LimitState(6.0, horizon=15)
        reps = [rel.estimate_reliability(tr.PhysicsSurrogate(full),
                                         PERIODIC_GRF, ls, 80, seed=9, spec=full)
                for _ in range(3)]
        assert reps[0].failures == reps[1].failures == reps[2].failures

    def test_margin_indicator_consistency(self):
        full = burgers_full()
        ls = rel.LimitState(5.5, horizon=20)
        rep = rel.estimate_reliability(tr.PhysicsSurrogate(full), PERIODIC_GRF, ls,
                                       100, seed=10, spec=full,
                                       keep_margins=True)
        assert rep.failures == int(np.sum(rep.margins < 0))

    def test_json_record_fields(self):
        full = burgers_full()
        rep = rel.estimate_reliability(tr.PhysicsSurrogate(full), PERIODIC_GRF,
                                       rel.LimitState(7.0, horizon=5), 16,
                                       seed=11, spec=full)
        import json
        doc = json.loads(rep.to_json(kernel="exp_sine_squared", g_t=7.0))
        for key in ("n", "failures", "reliability", "stderr", "seed",
                    "kernel", "g_t"):
            assert key in doc
