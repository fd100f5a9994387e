import numpy as np
import pytest

from dpawno import autodiff as ad
from dpawno import physics as ph
from dpawno import training as tr
from dpawno.errors import NonFiniteState, ShapeMismatch, UnsupportedTermForBenchmark
from helpers import gradient_error


def mean(y):
    return ad.scalar_mul(ad.total_sum(y), 1.0 / ad.value_of(y).size)


def burgers(nx=64, nu=0.3 / np.pi, dt=3e-4, terms=("advection", "diffusion"),
            scheme="central"):
    return ph.PdeSpec("burgers1d", {"nu": nu}, terms, "dirichlet", 0.0,
                      (-1.0, 1.0), nx=nx, dt=dt, advection_scheme=scheme)


def nagumo(terms=("diffusion", "reaction"), epsilon=0.2, alpha=-0.5):
    return ph.PdeSpec("nagumo", {"epsilon": epsilon, "alpha": alpha}, terms,
                      "periodic", domain=(0.0, 1.0), nx=64, dt=1e-4)


def burgers2d(terms=("advection", "diffusion_x", "diffusion_y"), nx=16, dt=1e-3):
    return ph.PdeSpec("burgers2d", {"nu": 0.1 / np.pi}, terms, "dirichlet", 1.0,
                      (0.0, 2.0), nx=nx, dt=dt, advection_scheme="upwind")


class TestRhs:
    def test_constant_field_pure_diffusion_is_zero(self):
        spec = burgers(terms=("diffusion",))
        r = ph.rhs_values(np.full((1, 64), 4.2), spec)
        assert np.max(np.abs(r)) < 1e-12

    def test_sine_diffusion_matches_analytic(self):
        nu = 0.05
        spec = ph.PdeSpec("allen_cahn", {"gamma": nu}, ("diffusion",),
                          "periodic", domain=(0.0, 1.0), nx=256, dt=1e-5)
        (x,) = spec.grid()
        u = np.sin(2 * np.pi * x)[None, :]
        r = ph.rhs_values(u, spec)
        expected = -nu * (2 * np.pi) ** 2 * u
        err = np.max(np.abs(r - expected))
        assert err < 5.0 * nu * (2 * np.pi) ** 4 * spec.dx ** 2 / 12

    def test_nagumo_reaction_roots_exactly_zero(self):
        spec = nagumo(terms=("reaction",))
        for root in (0.0, 1.0, spec.params["alpha"]):
            r = ph.rhs_values(np.full((1, 64), root), spec)
            assert np.all(r == 0.0)

    def test_unsupported_term(self):
        with pytest.raises(UnsupportedTermForBenchmark):
            burgers(terms=("reaction",))

    def test_empty_terms_give_zeros(self):
        spec = burgers(terms=())
        u = np.random.default_rng(0).standard_normal((1, 64))
        assert np.all(ph.rhs_values(u, spec) == 0.0)

    def test_shape_mismatch(self):
        spec = burgers()
        with pytest.raises(ShapeMismatch):
            ph.rhs_values(np.zeros((1, 32)), spec)


class TestEulerStep:
    def test_no_rhs_no_correction_is_identity_interior(self):
        spec = nagumo(terms=())
        u = np.random.default_rng(1).standard_normal((1, 64))
        assert np.array_equal(ph.euler_step_values(u, spec), u)

    def test_constant_correction_linear_update(self):
        spec = nagumo(terms=())
        u = np.random.default_rng(2).standard_normal((1, 64))
        corr = np.full_like(u, 3.0)
        out = ph.euler_step_values(u, spec, corr)
        assert np.allclose(out, u + spec.dt * 3.0, atol=1e-15)

    def test_dense_matrix_duplicate_is_bit_exact_for_50_steps(self):
        spec = burgers()
        n = spec.nx
        shift_p = np.roll(np.eye(n), 1, axis=1)   # (u @ shift_p.T)[i] = u[i+1]
        shift_m = np.roll(np.eye(n), -1, axis=1)  # u[i-1]

        def dense_step(u):
            c = 1.0 / (2.0 * spec.dx)
            d1 = (c * (u @ shift_p.T)) + (-c) * (u @ shift_m.T)
            k = spec.params["nu"] / spec.dx ** 2
            d2 = (k * (u @ shift_p.T)) + (-2.0 * k) * u + k * (u @ shift_m.T)
            rhs = (u * d1) * -1.0 + d2
            nxt = u + spec.dt * rhs
            nxt[..., 0] = spec.bc_value
            nxt[..., -1] = spec.bc_value
            return nxt

        (x,) = spec.grid()
        u = (3.0 * np.sin(2 * np.pi * x))[None, :]
        v = u.copy()
        for _ in range(50):
            u = ph.euler_step_values(u, spec)
            v = dense_step(v)
            assert np.array_equal(u, v)

    def test_blowup_raises(self):
        # the unrolled rollout the trainer differentiates checks every step
        spec = burgers(nu=0.0955, dt=1.0)  # absurd step to force blow-up
        u = np.full((1, 64), 5e7)
        with pytest.raises(NonFiniteState):
            tr.rollout(tr.PhysicsSurrogate(spec).step, u, 50)

    def test_correction_shape_mismatch(self):
        spec = burgers()
        u = np.zeros((1, 64))
        with pytest.raises(ShapeMismatch):
            ph.euler_step_values(u, spec, np.zeros((1, 32)))


class TestApplyBc:
    def test_periodic_is_identity(self):
        spec = nagumo()
        u = np.random.default_rng(4).standard_normal((1, 64))
        assert ph.apply_bc_values(u, spec) is u

    def test_dirichlet_zero_endpoints(self):
        spec = burgers()
        u = np.random.default_rng(5).standard_normal((1, 64))
        out = ph.apply_bc_values(u, spec)
        assert out[0, 0] == 0.0 and out[0, -1] == 0.0
        assert np.array_equal(out[0, 1:-1], u[0, 1:-1])

    def test_dirichlet_mask_built_once_and_read_only(self):
        spec = burgers2d()
        tape = ad.Tape()
        u = tape.leaf(np.random.default_rng(7).standard_normal((2, 2, 16, 16)))
        for _ in range(3):
            u = ph.euler_step_values(u, spec)
        masks = [node.ctx["mask"] for node in tape.nodes
                 if node.op == "boundary_overwrite"]
        assert len(masks) == 3
        assert all(mask is masks[0] for mask in masks)
        assert not masks[0].flags.writeable
        # a spec with the same state shape and bc shares the mask
        assert burgers2d(dt=2e-3).boundary_mask() is masks[0]

    def test_burgers2d_edges_pinned_to_one_after_step(self):
        spec = burgers2d()
        u = np.random.default_rng(6).standard_normal((2, 16, 16)) + 2.0
        out = ph.euler_step_values(u, spec)
        for edge in (out[..., 0], out[..., -1], out[..., 0, :], out[..., -1, :]):
            assert np.all(edge == 1.0)


class TestInvariants:
    def test_term_additivity_exact(self):
        rng = np.random.default_rng(7)
        spec = burgers()
        u = rng.standard_normal((2, 1, 64))
        both = ph.rhs_values(u, spec)
        adv = ph.rhs_values(u, spec.with_terms(("advection",)))
        dif = ph.rhs_values(u, spec.with_terms(("diffusion",)))
        assert np.array_equal(both, adv + dif)
        spec2 = burgers2d()
        w = rng.standard_normal((3, 2, 16, 16))
        total = ph.rhs_values(w, spec2)
        parts = [ph.rhs_values(w, spec2.with_terms((t,))) for t in spec2.terms]
        assert np.array_equal(total, (parts[0] + parts[1]) + parts[2])

    def test_gradient_through_five_steps(self):
        spec = burgers(nx=16)
        rng = np.random.default_rng(8)
        target = rng.standard_normal((1, 16))

        def loss_fn(t):
            v = t
            for _ in range(5):
                v = ph.euler_step_values(v, spec)
            return mean(ad.square(ad.sub(v, target)))

        point = (2.0 * np.sin(2 * np.pi * np.linspace(-1, 1, 16)))[None, :]
        assert gradient_error(loss_fn, point, 1e-5) < 1e-5

    def test_heat_equation_analytic_decay(self):
        nu, nx = 0.05, 257
        spec = ph.PdeSpec("burgers1d", {"nu": nu}, ("diffusion",), "dirichlet",
                          0.0, (-1.0, 1.0), nx=nx, dt=2.4e-4)
        (x,) = spec.grid()
        u0 = np.sin(2 * np.pi * x)[None, :]
        u = u0.copy()
        for _ in range(50):
            u = ph.euler_step_values(u, spec)
        factor = float(u.ravel() @ u0.ravel() / (u0.ravel() @ u0.ravel()))
        exact = np.exp(-nu * (2 * np.pi) ** 2 * 50 * spec.dt)
        assert abs(factor - exact) / exact < 1e-3

    def test_oracle_correction_reproduces_full_physics(self):
        spec = burgers()
        partial = spec.with_terms(("advection",))
        missing = spec.with_terms(t for t in spec.terms if t not in partial.terms)
        (x,) = spec.grid()
        u_full = (4.0 * np.sin(2 * np.pi * x))[None, :]
        u_inj = u_full.copy()
        for _ in range(50):
            u_inj = ph.euler_step_values(u_inj, partial,
                                         ph.rhs_values(u_inj, missing))
            u_full = ph.euler_step_values(u_full, spec)
            assert np.array_equal(u_full, u_inj)

    def test_upwind_matches_central_for_smooth_low_cfl(self):
        # both schemes converge to the same PDE: difference is O(dx)
        x = np.linspace(-1, 1, 512)
        u = (0.5 * np.sin(np.pi * x))[None, :]
        c = burgers(nx=512, dt=1e-6, terms=("advection",))
        w = burgers(nx=512, dt=1e-6, terms=("advection",), scheme="upwind")
        rc = ph.rhs_values(u, c)
        rw = ph.rhs_values(u, w)
        assert np.max(np.abs(rc - rw)) < 0.5 * np.pi ** 2 * c.dx


class TestSpecValidation:
    def test_cfl_warning(self):
        with pytest.warns(RuntimeWarning):
            burgers(nx=512, dt=1e-2)

    def test_grid_spacing_conventions(self):
        d = burgers(nx=65)
        assert abs(d.dx - 2.0 / 64) < 1e-15
        p = nagumo()
        assert abs(p.dx - 1.0 / 64) < 1e-15

    def test_grid_and_spacing_are_tuples_x_first(self):
        (x,) = burgers(nx=65).grid()
        assert np.array_equal(x, np.linspace(-1.0, 1.0, 65))
        (x,) = nagumo().grid()
        assert np.array_equal(x, np.arange(64) / 64)
        spec = ph.PdeSpec("burgers2d", {"nu": 0.01}, (), "periodic",
                          domain=(0.0, 2.0), nx=8, ny=4)
        x, y = spec.grid()
        assert np.array_equal(x, 2.0 * np.arange(8) / 8)
        assert np.array_equal(y, 2.0 * np.arange(4) / 4)
        assert spec.spacing() == (spec.dx, spec.dy) == (0.25, 0.5)
        assert burgers(nx=65).spacing() == (2.0 / 64,)
        x, y = burgers2d(nx=16).grid()
        assert np.array_equal(x, np.linspace(0.0, 2.0, 16))
        assert np.array_equal(y, x)

    @pytest.mark.parametrize("spec", [
        burgers(nx=16),
        ph.PdeSpec("burgers2d", {"nu": 0.01}, (), "dirichlet", nx=8, ny=4),
    ], ids=["1d", "2d"])
    def test_coordinates_hold_every_point_x_first(self, spec):
        coords = spec.coordinates()
        grid = spec.grid()
        assert coords.shape == (len(grid),) + spec.spatial_shape()
        for axis, (values, channel) in enumerate(zip(grid, coords)):
            # channel k varies along spatial axis -1-k only
            shape = [1] * len(grid)
            shape[-1 - axis] = len(values)
            assert np.array_equal(
                channel, np.broadcast_to(values.reshape(shape), spec.spatial_shape()))

    def test_unknown_benchmark(self):
        with pytest.raises(UnsupportedTermForBenchmark):
            ph.PdeSpec("kdv", {}, (), "periodic")

    def test_terms_canonicalized(self):
        spec = burgers(terms=("diffusion", "advection"))
        assert spec.terms == ("advection", "diffusion")
