import dataclasses

import numpy as np
import pytest

from dpawno import autodiff as ad
from dpawno import wavelet as wv
from dpawno import wno
from dpawno.errors import ShapeMismatch, SignalTooShort


def transform_matrix(n, levels):
    """Explicit transform matrix from unit-vector responses."""
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        cols.append(flatten(wv.dwt_multilevel(e, levels, 1)))
    return np.column_stack(cols)


def bands(c):
    approx, details = c
    return [approx] + [b for level in details for b in level]


def flatten(c):
    """Coefficients as one vector, approximation band first."""
    return np.concatenate([np.ravel(b) for b in bands(c)])


def adjoint_apply(x, y, levels):
    """A^T y, as the gradient of sum <band, y_band> taken through
    dwt_multilevel on a tape."""
    tape = ad.Tape()
    leaf = tape.leaf(x)
    pairing = None
    for band, y_band in zip(bands(wv.dwt_multilevel(leaf, levels, 1)), bands(y)):
        term = ad.total_sum(ad.mul(band, y_band))
        pairing = term if pairing is None else ad.add(pairing, term)
    ad.backward(tape, pairing)
    return ad.grad_of(tape, leaf)


class TestFilters:
    def test_orthonormality_identities(self):
        h, g = wv.filters()
        taps = len(h)
        assert abs(np.sum(h) - np.sqrt(2)) < 1e-12
        assert abs(np.sum(h * h) - 1.0) < 1e-12
        for k in range(1, taps // 2):
            assert abs(np.dot(h[2 * k:], h[:-2 * k])) < 1e-12
        # analysis/synthesis pair reconstructs: checked as matrix identity,
        # also at level lengths shorter than the 12 taps, where the periodic
        # extension wraps the filter more than once
        for n in (2, 4, 8, 16, 32):
            lo, hi = wv.level_analysis(n)
            s_lo, s_hi = wv.level_synthesis(n)
            assert np.max(np.abs(s_lo @ lo + s_hi @ hi - np.eye(n))) < 1e-12
            # periodic level matrices are orthogonal: synthesis is the
            # transpose
            assert np.array_equal(s_lo, lo.T) and np.array_equal(s_hi, hi.T)

    def test_db6_has_twelve_taps(self):
        h, _ = wv.filters()
        assert len(h) == 12


class TestDwt1d:
    def test_constant_signal_details_vanish(self):
        levels = 4
        approx, details = wv.dwt_multilevel(np.full(64, 3.7), levels, 1)
        for (d,) in details:
            assert np.max(np.abs(d)) < 1e-13 * 3.7
        # approximation picks up 2^(levels/2) per coefficient
        assert np.allclose(approx, 3.7 * 2 ** (4 / 2), atol=1e-12)

    def test_zero_signal(self):
        levels = 3
        approx, details = wv.dwt_multilevel(np.zeros(32), levels, 1)
        assert np.all(approx == 0.0)
        assert all(np.all(d == 0.0) for (d,) in details)

    def test_matches_matrix_oracle(self):
        levels = 4
        mat = transform_matrix(64, levels)
        x = np.random.default_rng(0).standard_normal(64)
        assert np.max(np.abs(flatten(wv.dwt_multilevel(x, levels, 1)) - mat @ x)) < 1e-12

    def test_too_short_raises(self):
        with pytest.raises(SignalTooShort):
            wv.dwt_multilevel(np.zeros(8), 4, 1)

    def test_odd_length_periodic_raises(self):
        with pytest.raises(SignalTooShort):
            wv.dwt_multilevel(np.zeros(18), 2, 1)


class TestIdwt1d:
    def test_round_trip_length_112(self):
        levels = 4
        x = np.random.default_rng(1).standard_normal(112)
        xr = wv.idwt_multilevel(*wv.dwt_multilevel(x, levels, 1), 1)
        assert np.max(np.abs(xr - x)) < 1e-10

    def test_zero_coeffs_give_zero_signal(self):
        levels = 2
        c = wv.dwt_multilevel(np.zeros(32), levels, 1)
        assert np.all(wv.idwt_multilevel(*c, 1) == 0.0)

    def test_delta_approx_reproduces_inverse_matrix_column(self):
        levels = 3
        n = 64
        mat = transform_matrix(n, levels)
        inv = np.linalg.inv(mat)
        approx, details = wv.dwt_multilevel(np.zeros(n), levels, 1)
        delta = np.zeros_like(approx)
        delta[2] = 1.0
        assert np.max(np.abs(wv.idwt_multilevel(delta, details, 1) - inv[:, 2])) < 1e-11

    def test_inconsistent_lengths_raise(self):
        levels = 2
        approx, details = wv.dwt_multilevel(
            np.random.default_rng(2).standard_normal(32), levels, 1)
        # a short approximation band: the level's detail band no longer fits
        with pytest.raises(ShapeMismatch):
            wv.idwt_multilevel(approx[:-1], details, 1)


class TestDwt2d:
    def test_constant_field_detail_bands_vanish(self):
        levels = 2
        _, details = wv.dwt_multilevel(np.full((8, 8), 2.0), levels, 2)
        for lh, hl, hh in details:
            assert max(np.max(np.abs(b)) for b in (lh, hl, hh)) < 1e-13

    def test_round_trip_64x64(self):
        levels = 4
        f = np.random.default_rng(3).standard_normal((64, 64))
        fr = wv.idwt_multilevel(*wv.dwt_multilevel(f, levels, 2), 2)
        assert np.max(np.abs(fr - f)) < 1e-10

    def test_separability_on_outer_product(self):
        levels = 3
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal(64), rng.standard_normal(64)
        approx2, _ = wv.dwt_multilevel(np.outer(a, b), levels, 2)
        (approx_a, _), (approx_b, _) = (wv.dwt_multilevel(a, levels, 1),
                                        wv.dwt_multilevel(b, levels, 1))
        assert np.max(np.abs(approx2 - np.outer(approx_a, approx_b))) < 1e-11

    @pytest.mark.parametrize("depths", [(1, 2, 3)], ids=["periodic"])
    def test_band_names_on_outer_product(self, depths):
        # f[y, x] = a[y] b[x] and the first letter of a band name is the
        # filter along x: lh = hi(a) (x) lo(b), hl = lo(a) (x) hi(b) and
        # hh = hi(a) (x) hi(b).  An L-level transform's coarsest level is
        # level L of any deeper one, so levels 1..3 cover every level.
        rng = np.random.default_rng(24)
        a, b = rng.standard_normal(40), rng.standard_normal(48)
        for levels in depths:
            lh, hl, hh = wv.dwt_multilevel(np.outer(a, b), levels, 2)[1][0]
            lo_a, ((hi_a,), *_) = wv.dwt_multilevel(a, levels, 1)
            lo_b, ((hi_b,), *_) = wv.dwt_multilevel(b, levels, 1)
            assert np.max(np.abs(lh - np.outer(hi_a, lo_b))) < 1e-12
            assert np.max(np.abs(hl - np.outer(lo_a, hi_b))) < 1e-12
            assert np.max(np.abs(hh - np.outer(hi_a, hi_b))) < 1e-12

    def test_channel_dims_pass_through(self):
        levels = 2
        f = np.random.default_rng(5).standard_normal((3, 2, 16, 16))
        approx, details = wv.dwt_multilevel(f, levels, 2)
        assert approx.shape[:2] == (3, 2)
        assert np.max(np.abs(wv.idwt_multilevel(approx, details, 2) - f)) < 1e-10


class TestInvariants:
    @pytest.mark.parametrize("n,levels", [(64, 4), (112, 4), (64, 3), (112, 3)],
                             ids=["64-db6-4", "112-db6-4", "64-db6-3", "112-db6-3"])
    def test_perfect_reconstruction_and_energy(self, n, levels):
        rng = np.random.default_rng(n + levels)
        for _ in range(25):
            x = rng.standard_normal(n)
            c = wv.dwt_multilevel(x, levels, 1)
            assert np.max(np.abs(wv.idwt_multilevel(*c, 1) - x)) < 1e-10
            e_sig = float(np.sum(x * x))
            e_coef = float(np.sum(flatten(c) ** 2))
            assert abs(e_sig - e_coef) < 1e-9 * e_sig

    def test_linearity(self):
        levels = 4
        rng = np.random.default_rng(9)
        x, y = rng.standard_normal(112), rng.standard_normal(112)
        lhs = flatten(wv.dwt_multilevel(2.5 * x - 1.25 * y, levels, 1))
        rhs = 2.5 * flatten(wv.dwt_multilevel(x, levels, 1)) \
            - 1.25 * flatten(wv.dwt_multilevel(y, levels, 1))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("levels", [3], ids=["periodic"])
    def test_adjoint_identity(self, levels):
        rng = np.random.default_rng(10)
        for _ in range(20):
            x = rng.standard_normal(64)
            c = approx, details = wv.dwt_multilevel(x, levels, 1)
            y = (rng.standard_normal(approx.shape),
                 [(rng.standard_normal(d.shape),) for (d,) in details])
            lhs = float(np.dot(flatten(c), flatten(y)))
            rhs = float(np.dot(x, adjoint_apply(x, y, levels)))
            assert abs(lhs - rhs) < 1e-10

    def test_adjoint_equals_inverse_when_periodic(self):
        levels = 4
        rng = np.random.default_rng(11)
        x = rng.standard_normal(64)
        c = wv.dwt_multilevel(x, levels, 1)
        assert np.max(np.abs(adjoint_apply(x, c, levels)
                             - wv.idwt_multilevel(*c, 1))) < 1e-12


class TestTapeTensors:
    """The transforms the WNO records on the tape: Tensor inputs and None
    (zero) detail bands."""

    @pytest.mark.parametrize("dims,shape,levels", [
        (1, (3, 2, 64), 3),
        (2, (2, 3, 32, 16), 2),
    ], ids=["1d-periodic", "2d-periodic"])
    def test_tensor_path_matches_ndarray_path(self, dims, shape, levels):
        x = np.random.default_rng(20).standard_normal(shape)
        tape = ad.Tape()
        leaf = tape.leaf(x)
        taped = wv.dwt_multilevel(leaf, levels, dims)
        plain = wv.dwt_multilevel(x, levels, dims)
        for t_band, p_band in zip(bands(taped), bands(plain)):
            assert isinstance(t_band, ad.Tensor)
            assert np.array_equal(t_band.data, p_band)
        back = wv.idwt_multilevel(*taped, dims)
        assert np.array_equal(back.data, wv.idwt_multilevel(*plain, dims))
        # idwt(dwt(x)) = x, so its VJP returns the cotangent unchanged
        w = np.random.default_rng(23).standard_normal(shape)
        ad.backward(tape, ad.total_sum(ad.mul(back, w)))
        assert np.max(np.abs(ad.grad_of(tape, leaf) - w)) < 1e-12

    @pytest.mark.parametrize("levels", [3], ids=["periodic"])
    def test_none_detail_band_is_a_zero_band_1d(self, levels):
        approx, details = wv.dwt_multilevel(
            np.random.default_rng(21).standard_normal((2, 64)), levels, 1)

        def inverse(coarsest):
            return wv.idwt_multilevel(approx, [(coarsest,)] + details[1:], 1)

        assert np.array_equal(inverse(None), inverse(np.zeros_like(details[0][0])))

    @pytest.mark.parametrize("levels", [2], ids=["periodic"])
    def test_none_detail_band_is_a_zero_band_2d(self, levels):
        approx, details = wv.dwt_multilevel(
            np.random.default_rng(22).standard_normal((2, 32, 24)), levels, 2)
        lh, hl, hh = details[-1]

        def inverse(finest):
            return wv.idwt_multilevel(approx, details[:-1] + [finest], 2)

        assert np.array_equal(inverse((None, hl, None)),
                              inverse((np.zeros_like(lh), hl, np.zeros_like(hh))))

    def test_wrong_length_tensor_band_raises(self):
        levels = 2
        tape = ad.Tape()
        approx, details = wv.dwt_multilevel(tape.leaf(np.ones(32)), levels, 1)
        short = ad.slice_axis(details[0][0], -1, 0, 7)
        with pytest.raises(ShapeMismatch):
            wv.idwt_multilevel(approx, [(short,)] + details[1:], 1)
        approx2, details2 = wv.dwt_multilevel(tape.leaf(np.ones((16, 16))), levels, 2)
        lh, hl, hh = details2[0]
        with pytest.raises(ShapeMismatch):
            wv.idwt_multilevel(
                approx2, [(lh, ad.slice_axis(hl, -2, 0, 3), hh)] + details2[1:], 2)


class TestSpecValidation:
    def test_unknown_family(self):
        # db6 is the only family, so a checkpoint header has no family key
        # and one naming a family is rejected
        header = dataclasses.asdict(wno.WnoConfig())
        header["wavelet_family"] = "haar"
        with pytest.raises(ValueError, match="wavelet_family"):
            wno.config_from_header(header)

    def test_bad_levels(self):
        with pytest.raises(ValueError, match="levels"):
            wno.WnoConfig(levels=0)

    def test_coefficient_length_rule(self):
        # ceil(n / 2^k) per level for the periodic lengths used here
        approx, details = wv.dwt_multilevel(np.zeros(112), 4, 1)
        assert [d.shape[-1] for (d,) in details] == [7, 14, 28, 56]
        assert approx.shape[-1] == 7
