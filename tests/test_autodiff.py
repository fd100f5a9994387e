import tracemalloc

import numpy as np
import pytest

from dpawno import autodiff as ad
from dpawno import wavelet as wv
from dpawno.errors import (
    EmptyTape,
    NonFiniteValue,
    NonScalarSeed,
    ShapeMismatch,
    UnknownPrimitive,
)
from helpers import gradient_error

RNG = np.random.default_rng(2024)


def mean(y):
    return ad.scalar_mul(ad.total_sum(y), 1.0 / ad.value_of(y).size)


def away_from_zero(shape, lo=0.5, hi=1.5):
    """Inputs with |x| in [lo, hi]: keeps finite-difference checks conditioned."""
    mag = RNG.uniform(lo, hi, size=shape)
    sign = np.where(RNG.uniform(size=shape) < 0.5, -1.0, 1.0)
    return mag * sign


class TestRecordExamples:
    def test_add_elementwise(self):
        t = ad.Tape()
        c = ad.add(t.leaf([1.0, 2.0, 3.0, 4.0]), t.leaf([10.0, 20.0, 30.0, 40.0]))
        assert np.array_equal(c.data, [11.0, 22.0, 33.0, 44.0])

    def test_gelu_fixed_point_at_zero(self):
        t = ad.Tape()
        assert ad.gelu(t.leaf([0.0])).data[0] == 0.0

    def test_matmul_matches_brute_force(self):
        t = ad.Tape()
        w = RNG.standard_normal((2, 3))
        v = RNG.standard_normal((4, 3))
        out = ad.matmul(t.leaf(w), t.leaf(v), channel_axis=1)
        expected = [[sum(w[i][j] * v[b][j] for j in range(3)) for i in range(2)]
                    for b in range(4)]
        assert np.allclose(out.data, expected, atol=1e-14)

    def test_unknown_primitive(self):
        t = ad.Tape()
        with pytest.raises(UnknownPrimitive):
            ad.record(t, "convolve3d", t.leaf([1.0]))

    def test_shape_mismatch(self):
        t = ad.Tape()
        with pytest.raises(ShapeMismatch):
            ad.add(t.leaf([1.0, 2.0]), t.leaf([1.0, 2.0, 3.0]))

    def test_mixed_tapes_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        with pytest.raises(ValueError):
            ad.add(t1.leaf([1.0]), t2.leaf([1.0]))

    def test_nonfinite_forward_raises(self):
        t = ad.Tape()
        x = t.leaf([1e308])
        with pytest.raises(NonFiniteValue):
            ad.mul(x, x)


class TestBackwardExamples:
    def test_sum_of_squares(self):
        t = ad.Tape()
        x = t.leaf([1.0, 2.0, 3.0])
        ad.backward(t, ad.total_sum(ad.square(x)))
        assert np.array_equal(ad.grad_of(t, x), [2.0, 4.0, 6.0])

    def test_mean_gradient(self):
        t = ad.Tape()
        x = t.leaf([5.0, 1.0, -2.0, 0.5])
        ad.backward(t, mean(x))
        assert np.array_equal(ad.grad_of(t, x), [0.25, 0.25, 0.25, 0.25])

    def test_dwt_gradient_equals_matrix_column_sums(self):
        lo, hi = wv.level_analysis(8)
        full = np.vstack([lo, hi])
        t = ad.Tape()
        x = t.leaf(RNG.standard_normal(8))
        out = ad.add(ad.total_sum(ad.level_matmul(lo, x, -1)),
                     ad.total_sum(ad.level_matmul(hi, x, -1)))
        ad.backward(t, out)
        assert np.allclose(ad.grad_of(t, x), full.sum(axis=0), atol=1e-12)

    def test_seed_must_be_scalar(self):
        t = ad.Tape()
        x = t.leaf([1.0, 2.0])
        with pytest.raises(NonScalarSeed):
            ad.backward(t, ad.square(x))

    def test_empty_tape(self):
        with pytest.raises(EmptyTape):
            ad.backward(ad.Tape(), 0)

    def test_non_ancestors_absent(self):
        t = ad.Tape()
        x = t.leaf([1.0, 2.0])
        y = t.leaf([3.0, 4.0])  # never used downstream of the seed
        loss = ad.total_sum(ad.square(x))
        grads = ad.backward(t, loss)
        assert x.node_id in grads
        assert y.node_id not in grads

    def test_backward_keeps_only_leaf_gradients(self):
        t = ad.Tape()
        w = t.leaf([[0.5, -1.0], [2.0, 0.25]])
        x = t.leaf([[1.0, 2.0]])
        t.leaf([3.0])  # not an ancestor of the seed
        loss = ad.total_sum(ad.square(ad.gelu(ad.matmul(w, x, channel_axis=1))))
        grads = ad.backward(t, loss)
        assert set(grads) == {w.node_id, x.node_id}
        assert t.gradients is grads


class TestPrimitiveGradients:
    """Every primitive passes a seeded finite-difference check at step 1e-5."""

    def cases(self):
        x = away_from_zero((2, 3, 8))
        c = away_from_zero((2, 3, 8), 1.0, 2.0)
        w = away_from_zero((4, 3))
        b = away_from_zero((3,))
        lo, _ = wv.level_analysis(8)
        mask = np.zeros((1, 1, 8), dtype=bool)
        mask[..., 0] = mask[..., -1] = True
        quad = lambda y: ad.total_sum(ad.square(y))  # noqa: E731
        return {
            "add": (lambda t: quad(ad.add(t, c)), x),
            "sub": (lambda t: quad(ad.sub(c, t)), x),
            "mul": (lambda t: quad(ad.mul(t, c)), x),
            "scalar_mul": (lambda t: quad(ad.scalar_mul(t, -2.5)), x),
            "matmul_input": (lambda t: quad(ad.matmul(w, t, channel_axis=1)), x),
            "matmul_weight": (lambda t: quad(ad.matmul(t, x, channel_axis=1)), w),
            "bias_add": (lambda t: quad(ad.bias_add(x, t, channel_axis=1)), b),
            "gelu": (lambda t: quad(ad.gelu(t)), x),
            "square": (lambda t: ad.total_sum(ad.mul(ad.square(t), c)), x),
            "sum": (lambda t: ad.square(ad.total_sum(t)), x),
            "slice_axis": (lambda t: quad(ad.slice_axis(t, -1, 2, 6)), x),
            "concat": (lambda t: quad(ad.concat(t, c, 1)), x),
            "boundary": (lambda t: quad(ad.boundary_overwrite(t, mask, 1.5)), x),
            "stencil": (lambda t: quad(
                ad.circ_stencil(t, [(1, 2.0), (0, -1.0), (-1, 3.0)], -1)), x),
            # a wide analysis and a tall synthesis matrix
            "level_matmul_wide": (lambda t: quad(ad.level_matmul(lo, t, -1)), x),
            "level_matmul_tall": (lambda t: quad(
                ad.level_matmul(lo.T, t, -1)), away_from_zero((2, 3, 4))),
        }

    def test_all_primitives_within_1e5(self):
        failures = {}
        for name, (fn, point) in self.cases().items():
            err = gradient_error(fn, point, 1e-5)
            if err >= 1e-5:
                failures[name] = err
        assert not failures, f"primitives over tolerance: {failures}"


class TestInvariants:
    def test_backward_linearity(self):
        x0 = away_from_zero(10)
        t = ad.Tape()
        x = t.leaf(x0)
        f = ad.total_sum(ad.square(x))
        g = mean(ad.gelu(x))
        ad.backward(t, f)
        gf = ad.grad_of(t, x).copy()
        ad.backward(t, g)
        gg = ad.grad_of(t, x).copy()
        comb = ad.add(ad.scalar_mul(f, 2.0), ad.scalar_mul(g, -3.0))
        ad.backward(t, comb)
        assert np.allclose(ad.grad_of(t, x), 2.0 * gf - 3.0 * gg, atol=1e-12)

    def test_replay_determinism(self):
        t = ad.Tape()
        x = t.leaf(away_from_zero((4, 8)))
        loss = mean(ad.square(ad.gelu(ad.scalar_mul(x, 1.3))))
        first = ad.backward(t, loss)[x.node_id].tobytes()
        second = ad.backward(t, loss)[x.node_id].tobytes()
        assert first == second

    def test_distinct_tapes_on_distinct_threads(self):
        from concurrent.futures import ThreadPoolExecutor

        def job(seed):
            rng = np.random.default_rng(seed)
            x0 = rng.uniform(0.5, 1.5, size=(4, 16))
            t = ad.Tape()
            x = t.leaf(x0)
            loss = ad.total_sum(ad.square(ad.gelu(x)))
            ad.backward(t, loss)
            return ad.grad_of(t, x)

        serial = [job(s) for s in range(8)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(job, range(8)))
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)

    def op_cases(self):
        """(primitive, op call, operands): every primitive, float and int
        operands, and channel axes inside and in front of a rank-2 or
        rank-3 operand."""
        x = away_from_zero((2, 4, 16))
        c = away_from_zero((2, 4, 16))
        w = away_from_zero((3, 4))
        b = away_from_zero((4,))
        lo, _ = wv.level_analysis(16)
        mask = np.zeros((1, 1, 16), dtype=bool)
        mask[..., 0] = True
        taps = [(1, 2.0), (0, -1.0), (-1, 3.0)]
        return [
            ("add", ad.add, (x, c)),
            ("add", ad.add, (x, 2.5)),
            ("add", ad.add, (3, x)),
            ("sub", ad.sub, (x, c)),
            ("sub", ad.sub, (1.5, x)),
            ("mul", ad.mul, (x, c)),
            ("mul", ad.mul, (x, np.float32(0.5))),
            ("scalar_mul", lambda a: ad.scalar_mul(a, -1.3), (x,)),
            ("matmul", lambda a, v: ad.matmul(a, v, channel_axis=1), (w, x)),
            ("matmul", lambda a, v: ad.matmul(a, v, channel_axis=0), (w, x[0])),
            ("bias_add", lambda v, a: ad.bias_add(v, a, channel_axis=1), (x, b)),
            ("bias_add", lambda v, a: ad.bias_add(v, a, channel_axis=0), (x[0], b)),
            ("gelu", ad.gelu, (x,)),
            ("square", ad.square, (x,)),
            ("sum", ad.total_sum, (x,)),
            ("slice_axis", lambda a: ad.slice_axis(a, -1, 2, 9), (x,)),
            ("concat", lambda a, d: ad.concat(a, d, 1), (x, c)),
            ("boundary_overwrite", lambda a: ad.boundary_overwrite(a, mask, 0.5), (x,)),
            ("circ_stencil", lambda a: ad.circ_stencil(a, taps, -1), (x,)),
            ("level_matmul", lambda a: ad.level_matmul(lo, a, -1), (x,)),
            ("level_matmul", lambda a: ad.level_matmul(lo.T, a, -1), (x[..., :8],)),
        ]

    def test_taped_and_plain_paths_bit_identical(self):
        cases = self.op_cases()
        assert {op for op, _, _ in cases} == set(ad.PRIMITIVES)
        for op, fn, operands in cases:
            plain = fn(*operands)
            tape = ad.Tape()
            taped_operands = [tape.leaf(a) if isinstance(a, np.ndarray) else a
                              for a in operands]
            before = len(tape.nodes)
            taped = fn(*taped_operands)
            assert not isinstance(plain, ad.Tensor), op
            assert len(tape.nodes) == before + 1, op
            assert tape.nodes[-1].op == op
            assert bitwise_equal(np.asarray(plain), taped.data), op


def moveaxis_matmul(mat, v, axis):
    """The reference formulation of the dense axis kernels."""
    return np.moveaxis(np.moveaxis(v, axis, -1) @ mat.T, -1, axis)


def gelu_reference(x):
    t = np.tanh(0.7978845608028654 * (x + 0.044715 * x * x * x))
    return 0.5 * x * (1.0 + t)


def gelu_vjp_reference(x, g):
    c, a = 0.7978845608028654, 0.044715
    t = np.tanh(c * (x + a * x * x * x))
    dx = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3.0 * a * x * x)
    return g * dx


def bitwise_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def axis_cases():
    """(v, axis) for every rank 1-4 and axis, on contiguous inputs and on
    transposed views of the same shape."""
    sizes = (3, 5, 4, 6)
    for ndim in range(1, 5):
        shape = sizes[:ndim]
        for axis in list(range(ndim)) + [-1]:
            yield RNG.standard_normal(shape), axis
            yield RNG.standard_normal(shape[::-1]).transpose(), axis


GELU_EDGE = np.array([0.0, -0.0, 5e-324, -1e-310, 1e-160, 30.0, -30.0])


def large_gelu_inputs():
    """Inputs above the single-shot size of the GELU kernels, which walk them
    in chunks: contiguous, the channel-last 4D view a channel matmul
    returns, a transposed 2D array, and a size that leaves a ragged last
    chunk with the edge values at both ends."""
    ragged = RNG.uniform(-6.0, 6.0, 5 * (ad._CHUNK_BYTES // 8) + 123)
    ragged[:7], ragged[-7:] = GELU_EDGE, GELU_EDGE
    return [RNG.uniform(-6.0, 6.0, (1, 64, 32, 40)),
            RNG.uniform(-6.0, 6.0, (1, 32, 48, 64)).transpose(0, 3, 1, 2),
            RNG.uniform(-6.0, 6.0, (300, 301)).T,
            ragged]


def gelu_inputs():
    """|x| <= 30, through tanh saturation, signed zeros and subnormals,
    contiguous and as a transposed view; then the large inputs."""
    line = np.concatenate([np.linspace(-30.0, 30.0, 2401), GELU_EDGE])
    grid = RNG.uniform(-30.0, 30.0, size=(5, 3, 8))
    return [line, grid, grid.transpose(2, 0, 1),
            RNG.standard_normal((4, 9)).T * 4.0] + large_gelu_inputs()


def gelu_gradients(x):
    """Cotangents in x's layout, C order and F order."""
    same = np.empty_like(x)
    same[...] = RNG.standard_normal(x.shape)
    return same, RNG.standard_normal(x.shape), RNG.standard_normal(x.shape[::-1]).T


class TestKernelEquivalence:
    """The dense kernels equal their reference formulations bit for bit and
    return the same memory layout, so every downstream BLAS call sees the
    same operands."""

    @pytest.mark.parametrize("kernel", [ad.k_axis_matmul])
    def test_axis_kernels_match_moveaxis(self, kernel):
        count = 0
        for v, axis in axis_cases():
            mat = RNG.standard_normal((7, v.shape[axis]))
            out = kernel(mat, v, axis)
            ref = mat @ v if v.ndim == 1 else moveaxis_matmul(mat, v, axis)
            assert bitwise_equal(out, ref), (v.shape, v.strides, axis)
            assert out.strides == ref.strides, (v.shape, v.strides, axis)
            count += 1
        assert count == 2 * (2 + 3 + 4 + 5)

    def test_matmul_vjp_matches_moveaxis(self):
        for v, axis in axis_cases():
            if v.ndim == 1:
                continue
            w = RNG.standard_normal((7, v.shape[axis]))
            tape = ad.Tape()
            out = ad.matmul(tape.leaf(w), tape.leaf(v), channel_axis=axis)
            g = RNG.standard_normal(out.shape)
            gw, gx = ad._vjp_matmul(tape, tape.nodes[out.node_id], g)
            gm, xm = np.moveaxis(g, axis, -1), np.moveaxis(v, axis, -1)
            ref_gw = gm.reshape(-1, w.shape[0]).T @ xm.reshape(-1, w.shape[1])
            ref_gx = np.moveaxis(gm @ w, -1, axis)
            assert bitwise_equal(gw, ref_gw), (v.shape, axis)
            assert bitwise_equal(gx, ref_gx) and gx.strides == ref_gx.strides

    def test_level_matmul_vjp_matches_moveaxis(self):
        for v, axis in axis_cases():
            mat = RNG.standard_normal((7, v.shape[axis]))
            tape = ad.Tape()
            out = ad.level_matmul(mat, tape.leaf(v), axis)
            g = RNG.standard_normal(out.shape)
            (gx,) = ad._vjp_level_matmul(tape, tape.nodes[out.node_id], g)
            ref = moveaxis_matmul(mat.T, g, axis)
            assert bitwise_equal(gx, ref) and gx.strides == ref.strides

    def test_gelu_matches_reference(self):
        for x in gelu_inputs():
            ref = gelu_reference(x)
            out = ad.gelu(x)
            assert bitwise_equal(out, ref), (x.shape, x.strides)
            assert out.strides == ref.strides, (x.shape, x.strides)

    def test_gelu_vjp_matches_reference(self):
        for x in gelu_inputs():
            for g in gelu_gradients(x):
                tape = ad.Tape()
                out = ad.gelu(tape.leaf(x))
                (dx,) = ad._vjp_gelu(tape, tape.nodes[out.node_id], g)
                assert bitwise_equal(dx, gelu_vjp_reference(x, g)), (
                    x.strides, g.strides)
                # x's layout, whatever the layout of g
                assert dx.strides == gelu_reference(x).strides

    def test_large_gelu_inputs_are_chunked(self):
        for x in large_gelu_inputs():
            pieces = list(ad._pieces(1, x, np.empty_like(x)))
            assert len(pieces) > 4 and pieces[0][0].ndim == 1, x.shape

    def test_nonfinite_in_last_chunk_raises(self):
        x = large_gelu_inputs()[-1]
        x[-1] = np.nan
        with pytest.raises(NonFiniteValue, match="'gelu'"):
            ad.record(ad.Tape(), "gelu", x)

    def test_gelu_leaves_inputs_untouched(self):
        for x in gelu_inputs():
            x_before = x.copy()
            ad.gelu(x)
            tape = ad.Tape()
            leaf = tape.leaf(x)
            out = ad.gelu(leaf)
            for g in gelu_gradients(x):
                g_before = g.copy()
                ad._vjp_gelu(tape, tape.nodes[out.node_id], g)
                assert bitwise_equal(g, g_before)
            assert bitwise_equal(x, x_before)
            assert bitwise_equal(leaf.data, x_before)

    def test_matmul_leaves_inputs_untouched(self):
        for v, axis in axis_cases():
            if v.ndim == 1:
                continue
            w = RNG.standard_normal((7, v.shape[axis]))
            v_before, w_before = v.copy(), w.copy()
            tape = ad.Tape()
            out = ad.matmul(tape.leaf(w), tape.leaf(v), channel_axis=axis)
            g = RNG.standard_normal(out.shape)
            g_before = g.copy()
            ad._vjp_matmul(tape, tape.nodes[out.node_id], g)
            assert bitwise_equal(v, v_before) and bitwise_equal(w, w_before)
            assert bitwise_equal(g, g_before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_gelu_input_raises(self, bad):
        x = np.array([[0.5, -1.0], [bad, 2.0]])
        with pytest.raises(NonFiniteValue, match="'gelu'"):
            ad.record(ad.Tape(), "gelu", x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_matmul_input_raises(self, bad):
        x = RNG.standard_normal((2, 3, 8))
        x[1, 2, 5] = bad
        tape = ad.Tape()
        w = tape.leaf(RNG.standard_normal((4, 3)))
        with pytest.raises(NonFiniteValue, match="'matmul'"):
            ad.matmul(w, x, channel_axis=1)


class TestGeluMemory:
    """The GELU kernels allocate their output and chunk-sized scratch only:
    no full-size temporary, whatever the layout of the incoming gradient."""

    @staticmethod
    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_below_one_and_a_half_outputs(self):
        x = RNG.standard_normal((1, 128, 64, 64))
        tape = ad.Tape()
        node = tape.nodes[ad.gelu(tape.leaf(x)).node_id]
        assert self.peak(lambda: ad.gelu(x)) < 1.5 * x.nbytes
        for g in (RNG.standard_normal(x.shape),
                  RNG.standard_normal(x.shape[::-1]).T):
            assert self.peak(lambda: ad._vjp_gelu(tape, node, g)) < 1.5 * x.nbytes
