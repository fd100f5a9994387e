import numpy as np
import pytest

from dpawno import autodiff as ad
from dpawno import wavelet as wv
from dpawno.errors import InconsistentCoeffLengths, SignalTooShort


def transform_matrix(n, spec):
    """Explicit transform matrix from unit-vector responses."""
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        cols.append(flatten(wv.dwt_multilevel(e, spec)))
    return np.column_stack(cols)


def bands(c):
    return [c.approx] + [b for level in c.details for b in level]


def flatten(c):
    """Coefficients as one vector, approximation band first."""
    return np.concatenate([np.ravel(b) for b in bands(c)])


def adjoint_apply(x, y, spec):
    """A^T y, as the gradient of sum <band, y_band> taken through
    dwt_multilevel on a tape."""
    tape = ad.Tape()
    leaf = tape.leaf(x)
    pairing = None
    for band, y_band in zip(bands(wv.dwt_multilevel(leaf, spec)), bands(y)):
        term = ad.total_sum(ad.mul(band, y_band))
        pairing = term if pairing is None else ad.add(pairing, term)
    ad.backward(tape, pairing)
    return ad.grad_of(tape, leaf)


class TestFilters:
    @pytest.mark.parametrize("family", wv.FAMILIES)
    def test_orthonormality_identities(self, family):
        h, g = wv.filters(family)
        taps = len(h)
        assert abs(np.sum(h) - np.sqrt(2)) < 1e-12
        assert abs(np.sum(h * h) - 1.0) < 1e-12
        for k in range(1, taps // 2):
            assert abs(np.dot(h[2 * k:], h[:-2 * k])) < 1e-12
        # analysis/synthesis pair reconstructs: checked as matrix identity
        lo, hi = wv.level_analysis(32, family)
        s_lo, s_hi = wv.level_synthesis(32, family)
        assert np.max(np.abs(s_lo @ lo + s_hi @ hi - np.eye(32))) < 1e-12
        # periodic level matrices are orthogonal: synthesis is the transpose
        assert np.array_equal(s_lo, lo.T) and np.array_equal(s_hi, hi.T)

    def test_db6_has_twelve_taps(self):
        h, _ = wv.filters("db6")
        assert len(h) == 12


class TestDwt1d:
    def test_constant_signal_details_vanish(self):
        spec = wv.WaveletSpec("db6", 4)
        c = wv.dwt_multilevel(np.full(64, 3.7), spec)
        for (d,) in c.details:
            assert np.max(np.abs(d)) < 1e-13 * 3.7
        # approximation picks up 2^(levels/2) per coefficient
        assert np.allclose(c.approx, 3.7 * 2 ** (4 / 2), atol=1e-12)

    def test_zero_signal(self):
        spec = wv.WaveletSpec("db6", 3)
        c = wv.dwt_multilevel(np.zeros(32), spec)
        assert np.all(c.approx == 0.0)
        assert all(np.all(d == 0.0) for (d,) in c.details)

    def test_matches_matrix_oracle(self):
        spec = wv.WaveletSpec("db6", 4)
        mat = transform_matrix(64, spec)
        x = np.random.default_rng(0).standard_normal(64)
        assert np.max(np.abs(flatten(wv.dwt_multilevel(x, spec)) - mat @ x)) < 1e-12

    def test_too_short_raises(self):
        with pytest.raises(SignalTooShort):
            wv.dwt_multilevel(np.zeros(8), wv.WaveletSpec("db6", 4))

    def test_odd_length_periodic_raises(self):
        with pytest.raises(SignalTooShort):
            wv.dwt_multilevel(np.zeros(18), wv.WaveletSpec("db6", 2))


class TestIdwt1d:
    def test_round_trip_length_112(self):
        spec = wv.WaveletSpec("db6", 4)
        x = np.random.default_rng(1).standard_normal(112)
        xr = wv.idwt_multilevel(wv.dwt_multilevel(x, spec), spec)
        assert np.max(np.abs(xr - x)) < 1e-10

    def test_zero_coeffs_give_zero_signal(self):
        spec = wv.WaveletSpec("db6", 2)
        c = wv.dwt_multilevel(np.zeros(32), spec)
        assert np.all(wv.idwt_multilevel(c, spec) == 0.0)

    def test_delta_approx_reproduces_inverse_matrix_column(self):
        spec = wv.WaveletSpec("db4", 3)
        n = 64
        mat = transform_matrix(n, spec)
        inv = np.linalg.inv(mat)
        c = wv.dwt_multilevel(np.zeros(n), spec)
        delta = np.zeros_like(c.approx)
        delta[2] = 1.0
        c = wv.WaveletCoeffs(delta, [(np.zeros_like(d),) for (d,) in c.details],
                             c.original_shapes)
        assert np.max(np.abs(wv.idwt_multilevel(c, spec) - inv[:, 2])) < 1e-11

    def test_inconsistent_lengths_raise(self):
        spec = wv.WaveletSpec("db6", 2)
        c = wv.dwt_multilevel(np.random.default_rng(2).standard_normal(32), spec)
        broken = wv.WaveletCoeffs(c.approx[:-1], c.details, c.original_shapes)
        with pytest.raises(InconsistentCoeffLengths):
            wv.idwt_multilevel(broken, spec)

    def test_wrong_band_count_raises(self):
        spec = wv.WaveletSpec("db6", 2)
        c = wv.dwt_multilevel(np.random.default_rng(2).standard_normal((16, 32)), spec)
        with pytest.raises(InconsistentCoeffLengths):
            wv.idwt_multilevel(c, spec, dims=2)
        c2 = wv.dwt_multilevel(np.ones((16, 16)), spec, dims=2)
        with pytest.raises(InconsistentCoeffLengths):
            wv.idwt_multilevel(c2, spec)


class TestDwt2d:
    def test_constant_field_detail_bands_vanish(self):
        spec = wv.WaveletSpec("db2", 2)
        c = wv.dwt_multilevel(np.full((8, 8), 2.0), spec, dims=2)
        for lh, hl, hh in c.details:
            assert max(np.max(np.abs(b)) for b in (lh, hl, hh)) < 1e-13

    def test_round_trip_64x64(self):
        spec = wv.WaveletSpec("db6", 4)
        f = np.random.default_rng(3).standard_normal((64, 64))
        fr = wv.idwt_multilevel(wv.dwt_multilevel(f, spec, dims=2), spec, dims=2)
        assert np.max(np.abs(fr - f)) < 1e-10

    def test_separability_on_outer_product(self):
        spec = wv.WaveletSpec("db6", 3)
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal(64), rng.standard_normal(64)
        c2 = wv.dwt_multilevel(np.outer(a, b), spec, dims=2)
        ca, cb = wv.dwt_multilevel(a, spec), wv.dwt_multilevel(b, spec)
        assert np.max(np.abs(c2.approx - np.outer(ca.approx, cb.approx))) < 1e-11

    @pytest.mark.parametrize("family", ["db4"], ids=["periodic"])
    def test_band_names_on_outer_product(self, family):
        # f[y, x] = a[y] b[x] and the first letter of a band name is the
        # filter along x: lh = hi(a) (x) lo(b), hl = lo(a) (x) hi(b) and
        # hh = hi(a) (x) hi(b).  An L-level transform's coarsest level is
        # level L of any deeper one, so levels 1..3 cover every level.
        rng = np.random.default_rng(24)
        a, b = rng.standard_normal(40), rng.standard_normal(48)
        for levels in (1, 2, 3):
            spec = wv.WaveletSpec(family, levels)
            lh, hl, hh = wv.dwt_multilevel(np.outer(a, b), spec, dims=2).details[0]
            ca, cb = wv.dwt_multilevel(a, spec), wv.dwt_multilevel(b, spec)
            (hi_a,), (hi_b,) = ca.details[0], cb.details[0]
            assert np.max(np.abs(lh - np.outer(hi_a, cb.approx))) < 1e-12
            assert np.max(np.abs(hl - np.outer(ca.approx, hi_b))) < 1e-12
            assert np.max(np.abs(hh - np.outer(hi_a, hi_b))) < 1e-12

    def test_channel_dims_pass_through(self):
        spec = wv.WaveletSpec("db2", 2)
        f = np.random.default_rng(5).standard_normal((3, 2, 16, 16))
        c = wv.dwt_multilevel(f, spec, dims=2)
        assert c.approx.shape[:2] == (3, 2)
        assert np.max(np.abs(wv.idwt_multilevel(c, spec, dims=2) - f)) < 1e-10


class TestInvariants:
    @pytest.mark.parametrize("n,family,levels", [(64, "db6", 4), (112, "db6", 4),
                                                 (64, "db2", 3), (112, "db4", 4)])
    def test_perfect_reconstruction_and_energy(self, n, family, levels):
        spec = wv.WaveletSpec(family, levels)
        rng = np.random.default_rng(n + levels)
        for _ in range(25):
            x = rng.standard_normal(n)
            c = wv.dwt_multilevel(x, spec)
            assert np.max(np.abs(wv.idwt_multilevel(c, spec) - x)) < 1e-10
            e_sig = float(np.sum(x * x))
            e_coef = float(np.sum(flatten(c) ** 2))
            assert abs(e_sig - e_coef) < 1e-9 * e_sig

    def test_linearity(self):
        spec = wv.WaveletSpec("db6", 4)
        rng = np.random.default_rng(9)
        x, y = rng.standard_normal(112), rng.standard_normal(112)
        lhs = flatten(wv.dwt_multilevel(2.5 * x - 1.25 * y, spec))
        rhs = 2.5 * flatten(wv.dwt_multilevel(x, spec)) \
            - 1.25 * flatten(wv.dwt_multilevel(y, spec))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("spec", [wv.WaveletSpec("db6", 3)], ids=["periodic"])
    def test_adjoint_identity(self, spec):
        rng = np.random.default_rng(10)
        for _ in range(20):
            x = rng.standard_normal(64)
            c = wv.dwt_multilevel(x, spec)
            y = wv.WaveletCoeffs(rng.standard_normal(c.approx.shape),
                                 [(rng.standard_normal(d.shape),) for (d,) in c.details],
                                 c.original_shapes)
            lhs = float(np.dot(flatten(c), flatten(y)))
            rhs = float(np.dot(x, adjoint_apply(x, y, spec)))
            assert abs(lhs - rhs) < 1e-10

    def test_adjoint_equals_inverse_when_periodic(self):
        spec = wv.WaveletSpec("db6", 4)
        rng = np.random.default_rng(11)
        x = rng.standard_normal(64)
        c = wv.dwt_multilevel(x, spec)
        assert np.max(np.abs(adjoint_apply(x, c, spec)
                             - wv.idwt_multilevel(c, spec))) < 1e-12


class TestTapeTensors:
    """The transforms the WNO records on the tape: Tensor inputs and None
    (zero) detail bands."""

    @pytest.mark.parametrize("dims,shape,spec", [
        (1, (3, 2, 64), wv.WaveletSpec("db6", 3)),
        (2, (2, 3, 32, 16), wv.WaveletSpec("db6", 2)),
    ], ids=["1d-periodic", "2d-periodic"])
    def test_tensor_path_matches_ndarray_path(self, dims, shape, spec):
        x = np.random.default_rng(20).standard_normal(shape)
        tape = ad.Tape()
        leaf = tape.leaf(x)
        taped, plain = wv.dwt_multilevel(leaf, spec, dims), wv.dwt_multilevel(x, spec, dims)
        for t_band, p_band in zip(bands(taped), bands(plain)):
            assert isinstance(t_band, ad.Tensor)
            assert np.array_equal(t_band.data, p_band)
        back = wv.idwt_multilevel(taped, spec, dims)
        assert np.array_equal(back.data, wv.idwt_multilevel(plain, spec, dims))
        # idwt(dwt(x)) = x, so its VJP returns the cotangent unchanged
        w = np.random.default_rng(23).standard_normal(shape)
        ad.backward(tape, ad.total_sum(ad.mul(back, w)))
        assert np.max(np.abs(ad.grad_of(tape, leaf) - w)) < 1e-12

    @pytest.mark.parametrize("spec", [wv.WaveletSpec("db4", 3)], ids=["periodic"])
    def test_none_detail_band_is_a_zero_band_1d(self, spec):
        c = wv.dwt_multilevel(np.random.default_rng(21).standard_normal((2, 64)), spec)

        def inverse(coarsest):
            return wv.idwt_multilevel(wv.WaveletCoeffs(
                c.approx, [(coarsest,)] + c.details[1:], c.original_shapes), spec)

        assert np.array_equal(inverse(None), inverse(np.zeros_like(c.details[0][0])))

    @pytest.mark.parametrize("spec", [wv.WaveletSpec("db4", 2)], ids=["periodic"])
    def test_none_detail_band_is_a_zero_band_2d(self, spec):
        c = wv.dwt_multilevel(
            np.random.default_rng(22).standard_normal((2, 32, 24)), spec, dims=2)
        lh, hl, hh = c.details[-1]

        def inverse(finest):
            return wv.idwt_multilevel(wv.WaveletCoeffs(
                c.approx, c.details[:-1] + [finest], c.original_shapes), spec, dims=2)

        assert np.array_equal(inverse((None, hl, None)),
                              inverse((np.zeros_like(lh), hl, np.zeros_like(hh))))

    def test_wrong_length_tensor_band_raises(self):
        spec = wv.WaveletSpec("db6", 2)
        tape = ad.Tape()
        c = wv.dwt_multilevel(tape.leaf(np.ones(32)), spec)
        short = ad.slice_axis(c.details[0][0], -1, 0, 7)
        with pytest.raises(InconsistentCoeffLengths):
            wv.idwt_multilevel(
                wv.WaveletCoeffs(c.approx, [(short,)] + c.details[1:],
                                 c.original_shapes), spec)
        c2 = wv.dwt_multilevel(tape.leaf(np.ones((16, 16))), spec, dims=2)
        lh, hl, hh = c2.details[0]
        with pytest.raises(InconsistentCoeffLengths):
            wv.idwt_multilevel(
                wv.WaveletCoeffs(c2.approx,
                                 [(lh, ad.slice_axis(hl, -2, 0, 3), hh)]
                                 + c2.details[1:], c2.original_shapes), spec, dims=2)


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            wv.WaveletSpec("haar", 2)

    def test_bad_levels(self):
        with pytest.raises(ValueError):
            wv.WaveletSpec("db6", 0)

    def test_coefficient_length_rule(self):
        # ceil(n / 2^k) per level for the periodic lengths used here
        spec = wv.WaveletSpec("db6", 4)
        c = wv.dwt_multilevel(np.zeros(112), spec)
        assert [d.shape[-1] for (d,) in c.details] == [7, 14, 28, 56]
        assert c.approx.shape[-1] == 7
        assert wv.coeff_length(64) == 32
