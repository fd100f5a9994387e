import numpy as np
import pytest

from dpawno import datagen as dg
from dpawno import physics as ph
from dpawno.errors import (
    ChecksumMismatch,
    CountExceedsFamily,
    DatasetIoError,
    FormatVersionMismatch,
    NonFiniteState,
)

AMPS_16 = tuple(float(a) for a in range(-8, 9) if a)


def burgers_spec(nx=112, dt=5e-4):
    return ph.PdeSpec("burgers1d", {"nu": 0.005 / np.pi},
                      ("advection", "diffusion"), "dirichlet",
                      (-1.0, 1.0), nx=nx, dt=dt, advection="upwind")


def benchmark_families():
    return [dg.IcFamily("cosine", 16, amplitudes=AMPS_16, frequencies=(1, 5)),
            dg.IcFamily("sine", 16, amplitudes=AMPS_16, frequencies=(2, 4))]


def assert_same_dataset(a, b):
    assert (a.spec, a.seed, a.family_desc) == (b.spec, b.seed, b.family_desc)
    assert np.array_equal(a.trajectories, b.trajectories)


class TestSampleIcs:
    def test_training_enumeration_yields_32_half_and_half(self):
        spec = burgers_spec()
        ics = dg.sample_families(benchmark_families(), spec, seed=1)
        assert ics.shape == (32, 1, 112)
        # cosine block is even in x for these grids, sine block odd
        (x,) = spec.grid()
        assert np.allclose(ics[:16, 0], ics[:16, 0][:, ::-1], atol=1e-12)
        assert np.allclose(ics[16:, 0], -ics[16:, 0][:, ::-1], atol=1e-12)

    def test_enumeration_subsample_without_replacement(self):
        spec = burgers_spec()
        fam = dg.IcFamily("cosine", 16, amplitudes=AMPS_16, frequencies=(1, 5))
        ics = dg.sample_ics(fam, 16, spec, seed=3)
        assert ics.shape[0] == 16
        flat = ics.reshape(16, -1)
        assert len({tuple(np.round(r, 12)) for r in flat}) == 16

    def test_count_exceeds_family(self):
        spec = burgers_spec()
        fam = dg.IcFamily("cosine", 40, amplitudes=(1.0, 2.0), frequencies=(1,))
        with pytest.raises(CountExceedsFamily):
            dg.sample_ics(fam, 40, spec, seed=0)

    def test_square2d_background_value_plateau(self):
        spec = ph.PdeSpec("burgers2d", {"nu": 0.1 / np.pi},
                          ("advection", "diffusion_x", "diffusion_y"),
                          "dirichlet", (0.0, 2.0), nx=16, dt=1e-3, bc_value=1.0)
        fam = dg.IcFamily("square2d", 1, amplitudes=(1.0,))
        ics = dg.sample_ics(fam, 1, spec, seed=0)
        # plateau value equal to the background makes the field identically 1
        assert np.all(ics == 1.0)
        fam5 = dg.IcFamily("square2d", 1, amplitudes=(5.0,))
        ics5 = dg.sample_ics(fam5, 1, spec, seed=0)
        assert set(np.unique(ics5)) == {1.0, 5.0}
        assert np.array_equal(ics5[0, 0], ics5[0, 1])

    @pytest.mark.parametrize("kind", ["square2d"])
    def test_2d_families_rejected_on_a_1d_grid(self, kind):
        fam = dg.IcFamily(kind, 1, amplitudes=(3.0,))
        with pytest.raises(ValueError, match="2D only"):
            dg.sample_ics(fam, 1, burgers_spec(), seed=0)

    def test_deterministic_given_seed(self):
        spec = burgers_spec()
        fam = dg.IcFamily("sine", 8, amplitudes=("uniform", -10, 10),
                          frequencies=(2, 4))
        a = dg.sample_ics(fam, 8, spec, seed=11)
        b = dg.sample_ics(fam, 8, spec, seed=11)
        assert np.array_equal(a, b)

    def test_train_and_test_streams_differ(self):
        spec = burgers_spec()
        fam = dg.IcFamily("sine", 8, amplitudes=("uniform", -10, 10),
                          frequencies=(2, 4))
        a = dg.sample_ics(fam, 8, spec, seed=11, purpose="data")
        b = dg.sample_ics(fam, 8, spec, seed=11, purpose="test")
        assert not np.array_equal(a, b)


class TestGenerate:
    def test_benchmark_scale_shapes(self):
        ds = dg.generate(burgers_spec(), benchmark_families(), 50, seed=2)
        assert ds.trajectories.shape == (32, 51, 1, 112)
        assert np.all(np.isfinite(ds.trajectories))

    def test_nt_zero_keeps_only_ics(self):
        ds = dg.generate(burgers_spec(), benchmark_families(), 0, seed=2)
        assert ds.trajectories.shape[1] == 1
        assert np.array_equal(ds.ics, ds.trajectories[:, 0])

    def test_same_seed_bit_identical(self):
        a = dg.generate(burgers_spec(), benchmark_families(), 10, seed=4)
        b = dg.generate(burgers_spec(), benchmark_families(), 10, seed=4)
        assert_same_dataset(a, b)

    def test_partial_terms_rejected(self):
        spec = burgers_spec().with_terms(("advection",))
        with pytest.raises(ValueError):
            dg.generate(spec, benchmark_families(), 10, seed=0)

    def test_blowup_reports_sample_index(self):
        spec = ph.PdeSpec("burgers1d", {"nu": 0.3 / np.pi},
                          ("advection", "diffusion"), "dirichlet",
                          (-1.0, 1.0), nx=64, dt=0.05)
        fams = [dg.IcFamily("sine", 4, amplitudes=(1.0, 2.0, 4.0, 8.0),
                            frequencies=(4,))]
        with pytest.raises(NonFiniteState, match="sample"):
            dg.generate(spec, fams, 50, seed=0)

    def test_advective_cfl_warning(self):
        # max|u0| dt/dx = 8 * 0.004 / (2/63) = 1.008
        spec = burgers_spec(nx=64, dt=0.004)
        fams = [dg.IcFamily("sine", 1, amplitudes=(8.0,), frequencies=(1,))]
        ics = dg.sample_families(fams, spec, seed=0)
        assert np.max(np.abs(ics)) * spec.dt / spec.dx > 1.0
        with pytest.warns(RuntimeWarning, match="advective CFL number 1.00"):
            dg.generate(spec, fams, 0, seed=0)

    def test_no_advective_cfl_warning_below_one(self, recwarn):
        spec = burgers_spec(nx=64, dt=0.0035)  # Courant number 0.882
        fams = [dg.IcFamily("sine", 1, amplitudes=(8.0,), frequencies=(1,))]
        dg.generate(spec, fams, 0, seed=0)
        assert not [w for w in recwarn if "CFL" in str(w.message)]

    def test_advective_cfl_counts_both_2d_directions(self):
        # each direction alone is below 1, their sum is not
        spec = ph.PdeSpec("burgers2d", {"nu": 0.1 / np.pi},
                          ("advection", "diffusion_x", "diffusion_y"),
                          "dirichlet", (0.0, 2.0), nx=16, dt=0.07, bc_value=1.0)
        fams = [dg.IcFamily("square2d", 1, amplitudes=(1.0,))]
        ics = dg.sample_families(fams, spec, seed=0)
        assert np.max(np.abs(ics)) * spec.dt / spec.dx < 1.0
        with pytest.warns(RuntimeWarning, match="advective CFL"):
            dg.generate(spec, fams, 0, seed=0)

    def test_stored_states_satisfy_euler_recurrence(self):
        spec = burgers_spec(nx=64)
        ds = dg.generate(spec, [dg.IcFamily("sine", 4, amplitudes=(1., 2., 3., 4.),
                                            frequencies=(2,))], 20, seed=6)
        for t in range(20):
            stepped = ph.euler_step_values(ds.trajectories[:, t], spec)
            assert np.array_equal(stepped, ds.trajectories[:, t + 1])


class TestFileFormat:
    def make_dataset(self):
        return dg.generate(burgers_spec(nx=64),
                           [dg.IcFamily("sine", 3, amplitudes=(1., 2., 3.),
                                        frequencies=(2,))], 8, seed=8)

    def test_round_trip_bit_exact(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "d.dpds"
        dg.save(ds, path)
        assert_same_dataset(dg.load(path), ds)

    def test_truncated_file_checksum_mismatch(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "d.dpds"
        dg.save(ds, path)
        raw = path.read_bytes()
        for cut in (len(raw) - 4, len(raw) - 200, 10):
            path.write_bytes(raw[:cut])
            with pytest.raises(ChecksumMismatch):
                dg.load(path)

    def test_corrupted_payload_checksum_mismatch(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "d.dpds"
        dg.save(ds, path)
        raw = bytearray(path.read_bytes())
        raw[-100] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumMismatch):
            dg.load(path)

    def test_newer_version_rejected_without_partial_read(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "d.dpds"
        dg.save(ds, path)
        saved = path.read_bytes()
        # a newer version, version 1 (the layout before the shared
        # container) and version 0, which nothing ever wrote
        for version in (99, 1, 0):
            raw = bytearray(saved)
            raw[4] = version
            path.write_bytes(bytes(raw))
            with pytest.raises(FormatVersionMismatch,
                               match=f"version {version};.*re-run gen-data or train"):
                dg.load(path)

    def test_missing_file_io_error(self, tmp_path):
        with pytest.raises(DatasetIoError):
            dg.load(tmp_path / "absent.dpds")

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "x.dpds"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(DatasetIoError, match="not a DPDS file"):
            dg.load(path)
