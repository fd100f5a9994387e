import numpy as np
import pytest

from dpawno import datagen as dg
from dpawno import physics as ph
from dpawno import training as tr
from dpawno import uq
from dpawno.errors import DegenerateSamples, ShapeMismatch
from helpers import Replay


def gaussian_density(mu, sigma=1.0, n=2001, span=8.0):
    s = np.linspace(mu - span, mu + span, n)
    pdf = np.exp(-0.5 * ((s - mu) / sigma) ** 2)
    mass = pdf / pdf.sum()
    return uq.Density(s, mass, 0.1)


class TestEstimatePdf:
    def test_standard_normal_mode_near_zero(self):
        # frozen draw: the KDE mode of this seed sits within 0.05 of zero
        samples = np.random.default_rng(1).standard_normal(10_000)
        d = uq.estimate_pdf(samples, 1024)
        assert abs(d.support[np.argmax(d.mass)]) < 0.05

    def test_two_point_density_symmetric(self):
        # at n=2 the Silverman bandwidth (~1.3) exceeds the separation, so the
        # two kernels blend; the exact property is the mirror symmetry
        d = uq.estimate_pdf(np.array([-1.0, 1.0]), 401)
        assert np.allclose(d.mass, d.mass[::-1], atol=1e-12)
        assert abs(d.support[np.argmax(d.mass)]) < 1e-9

    def test_degenerate_samples_raise(self):
        with pytest.raises(DegenerateSamples):
            uq.estimate_pdf(np.full(10, 3.3))
        with pytest.raises(DegenerateSamples):
            uq.estimate_pdf(np.array([1.0]))

    def test_mass_conservation(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = uq.estimate_pdf(rng.standard_normal(rng.integers(5, 200)))
            assert abs(d.mass.sum() - 1.0) < 1e-9

    def test_silverman_bandwidth_value(self):
        samples = np.random.default_rng(3).standard_normal(500)
        d = uq.estimate_pdf(samples)
        expected = 1.06 * np.std(samples, ddof=1) * 500 ** (-0.2)
        assert abs(d.bandwidth - expected) < 1e-12


class TestHellinger:
    def test_identical_distributions_zero(self):
        d = uq.estimate_pdf(np.random.default_rng(4).standard_normal(200))
        assert uq.hellinger(d, d) == 0.0

    def test_disjoint_supports_one(self):
        a = uq.Density(np.linspace(0, 1, 64), np.full(64, 1 / 64), 0.1)
        b = uq.Density(np.linspace(50, 51, 64), np.full(64, 1 / 64), 0.1)
        assert abs(uq.hellinger(a, b) - 1.0) < 1e-12

    def test_gaussian_closed_form(self):
        # equal variances: H^2 = 1 - exp(-(mu1-mu2)^2 / 8)
        h = uq.hellinger(gaussian_density(0.0), gaussian_density(1.0))
        assert abs(h - np.sqrt(1.0 - np.exp(-1.0 / 8.0))) < 0.01

    def test_symmetry_and_range_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n1, n2 = rng.integers(8, 80, size=2)
            lo1, lo2 = rng.uniform(-5, 0, size=2)
            p = uq.Density(np.linspace(lo1, lo1 + rng.uniform(0.5, 5), n1),
                           (lambda w: w / w.sum())(rng.uniform(0, 1, n1)), 0.1)
            q = uq.Density(np.linspace(lo2, lo2 + rng.uniform(0.5, 5), n2),
                           (lambda w: w / w.sum())(rng.uniform(0, 1, n2)), 0.1)
            h, h_swapped = uq.hellinger(p, q), uq.hellinger(q, p)
            assert h == h_swapped
            assert -1e-12 <= h <= 1.0 + 1e-12

    def test_rebinning_stability(self):
        rng = np.random.default_rng(6)
        p = uq.estimate_pdf(rng.standard_normal(400))
        q = uq.estimate_pdf(rng.standard_normal(400) + 0.4)
        h_base = uq.hellinger(p, q)
        lo = min(p.support[0], q.support[0])
        hi = max(p.support[-1], q.support[-1])
        bins = 4 * max(len(p.support), len(q.support))
        h_fine = uq.hellinger(uq.rebin(p, lo, hi, bins), uq.rebin(q, lo, hi, bins))
        assert abs(h_base - h_fine) < 0.01


class TestEnsembleMse:
    """er1, the ensemble MSE that evaluate writes to metrics.csv:
    rollout_statistics' mse against `truth` over steps 1..mse_steps."""

    @staticmethod
    def mse(pred, truth, mse_steps=100):
        stats = tr.rollout_statistics(Replay(pred), pred[:, 0], pred.shape[1] - 1,
                                      truth=truth, mse_steps=mse_steps)
        return stats["mse"]

    def test_identical_zero(self):
        t = np.random.default_rng(7).standard_normal((4, 11, 1, 8))
        assert self.mse(t, t) == 0.0

    def test_unit_offset_gives_one(self):
        t = np.random.default_rng(8).standard_normal((4, 11, 1, 8))
        assert abs(self.mse(t + 1.0, t) - 1.0) < 1e-12

    def test_only_first_steps_counted(self):
        t = np.zeros((2, 11, 1, 4))
        p = t.copy()
        p[:, 6:] = 100.0  # beyond the 5-step window
        assert self.mse(p, t, mse_steps=5) == 0.0
        assert self.mse(p, t, mse_steps=6) > 0.0


class TestProbeEnsemble:
    def setup_method(self):
        self.spec = ph.PdeSpec("burgers1d", {"nu": 0.3 / np.pi},
                               ("advection", "diffusion"), "dirichlet", 0.0,
                               (-1.0, 1.0), nx=32, dt=3e-4)
        fams = [dg.IcFamily("sine", 4, amplitudes=(1.0, 2.0, 3.0, 4.0),
                            frequencies=(2,))]
        self.ds = dg.generate(self.spec, fams, 10, seed=9)

    def test_truth_surrogate_reproduces_stored_values(self):
        sur = tr.PhysicsSurrogate(self.spec)
        index, snapped = uq.nearest_grid_index(self.spec.grid(), (-0.35,))
        (ix,) = index
        probe = tr.rollout_statistics(sur, self.ds.ics, 7,
                                      probe_index=index)["probe"]
        assert probe.shape == (7, 4)
        for t in range(1, 8):
            assert np.array_equal(probe[t - 1],
                                  self.ds.trajectories[:, t, 0, ix])
            assert np.array_equal(
                uq.probe_trajectories(self.ds.trajectories, index, t),
                self.ds.trajectories[:, t, 0, ix])
        assert abs(snapped[0] - (-0.35)) <= self.spec.dx / 2

    def test_frozen_dynamics_returns_ic_values(self):
        frozen = self.spec.with_terms(())
        sur = tr.PhysicsSurrogate(frozen)
        index, _ = uq.nearest_grid_index(self.spec.grid(), (0.11,))
        probe = tr.rollout_statistics(sur, self.ds.ics, 5,
                                      probe_index=index)["probe"]
        for row in probe:
            assert np.array_equal(row, self.ds.ics[(slice(None), 0) + index])

    def test_probe_beyond_rollout_raises(self):
        with pytest.raises(ValueError):
            uq.probe_trajectories(self.ds.trajectories, (3,), 99)

    def test_location_must_match_grid_axes(self):
        with pytest.raises(ShapeMismatch):
            uq.nearest_grid_index(self.spec.grid(), (0.1, 0.2))

    def test_2d_probe_snapping(self):
        x = np.linspace(0, 2, 16)
        (iy, ix), (sx, sy) = uq.nearest_grid_index((x, x), (0.69, 1.03))
        assert abs(sx - 0.69) <= (x[1] - x[0]) / 2
        assert abs(sy - 1.03) <= (x[1] - x[0]) / 2
        # a (iy, ix) probe reads channel 0 of the 2D state
        frozen = ph.PdeSpec("burgers2d", {"nu": 0.01}, (), "periodic",
                            nx=16, dt=1e-4)
        ics = np.random.default_rng(12).standard_normal((3, 2, 16, 16))
        probe = tr.rollout_statistics(tr.PhysicsSurrogate(frozen), ics, 2,
                                      probe_index=(iy, ix))["probe"]
        for row in probe:
            assert np.array_equal(row, ics[:, 0, iy, ix])
        stored = ics[:, None]  # (B, T+1 = 1, C, Y, X)
        assert np.array_equal(uq.probe_trajectories(stored, (iy, ix), 0),
                              ics[:, 0, iy, ix])


class TestMeanHellinger:
    @staticmethod
    def probe(trajectories):
        return np.stack([uq.probe_trajectories(trajectories, (3,), s)
                         for s in range(1, 6)])

    @staticmethod
    def mean_hellinger(pred, truth):
        return uq.mean_hellinger_from_samples(pred, truth, uq.step_densities(truth))

    def test_identical_trajectories_zero(self):
        t = np.random.default_rng(10).standard_normal((30, 6, 1, 8))
        assert self.mean_hellinger(self.probe(t), self.probe(t)) == 0.0

    def test_shifted_trajectories_positive(self):
        rng = np.random.default_rng(11)
        t = rng.standard_normal((30, 6, 1, 8))
        assert self.mean_hellinger(self.probe(t + 2.0), self.probe(t)) > 0.5

    def test_shared_truth_densities_match_per_pair_estimates(self):
        # steps: both spread, prediction constant, truth constant, both the
        # same constant, both constant but apart
        rng = np.random.default_rng(12)
        spread = rng.standard_normal((2, 20))
        pred = np.stack([spread[0], np.full(20, 0.3), spread[1],
                         np.full(20, 0.7), np.full(20, 0.1)])
        truth = np.stack([spread[1] + 0.5, spread[0], np.full(20, 0.2),
                          np.full(20, 0.7), np.full(20, 0.2)])
        expected = []
        for p, q in zip(pred, truth):
            try:
                expected.append(uq.hellinger(uq.estimate_pdf(p, 256),
                                             uq.estimate_pdf(q, 256)))
            except DegenerateSamples:
                expected.append(0.0 if np.array_equal(p, q) else 1.0)
        assert [d is None for d in uq.step_densities(truth)] == [
            False, False, True, True, True]
        assert self.mean_hellinger(pred, truth) == float(np.mean(expected))
        assert expected[1:] == [1.0, 1.0, 0.0, 1.0]
