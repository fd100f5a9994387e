"""Reverse-mode differentiation over dense float64 grid tensors.

Define-by-run: every operation appends a node to the active :class:`Tape`;
:func:`backward` walks the tape once in reverse and keeps only the gradients
of leaf nodes.  Each primitive is defined once, as a (forward, vjp, reads,
rebuilt) entry in :data:`PRIMITIVES`, and every public op goes through one
dispatch path: it is recorded when any input is a Tensor, otherwise its
forward function is evaluated on the plain operands.  Evaluating a model with or
without a tape therefore produces bit-identical values.  A VJP that is a
forward kernel with transposed params (the transposed matrix of a matmul,
the negated offsets of a stencil, the two slices of a concat) calls that
kernel, so each evaluation order is written once.

A node keeps an input value only when its VJP reads it (`reads`): the
output array belongs to the returned :class:`Tensor` and is saved on its
node when, and only when, a consumer that reads it is recorded.  Values
nothing reads in reverse are freed as soon as the forward pass drops them.
The output of a `rebuilt` primitive (GELU and the channel `matmul` and
`bias_add`, cheap ops whose inputs the tape keeps or rebuilds anyway) is
never saved: a VJP that reads it gets it by re-running the forward on the
primitive's own inputs, kept or themselves rebuilt, with the params it was
recorded with, which gives the same bits.  That trades a re-run of each
affine map and activation per read in the reverse sweep for a tape without
the lift output, the activations and the pre-activations.

GELU and its VJP, the largest kernels outside BLAS, walk a large array in
its memory order in cache-sized chunks, with one output array and
chunk-sized scratch instead of full-size temporaries.  Each chunk runs the
same elementwise expression in the same operation order, so the values, and
the output's strides, are those of one whole-array evaluation.

Shapes are explicit (rank 1-4, optional leading batch axis); there is no
general broadcasting.  Python floats are accepted as scalar operands.
"""

from functools import lru_cache

import numpy as np

from .errors import (
    EmptyTape,
    NonFiniteValue,
    NonScalarSeed,
    ShapeMismatch,
    UnknownPrimitive,
)

_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715
_GELU_3A = 3.0 * _GELU_A


# ---------------------------------------------------------------------------
# kernels (each shared by a primitive's forward and VJP, or by two primitives)
#
# Each kernel evaluates its formula in a fixed order and hands BLAS fixed
# operands; byte-identical primary outputs across versions depend on both.
# How an elementwise kernel splits its array is not part of that order: each
# element's result depends on that element's operands alone.

# GELU and its VJP are bound by memory traffic, not by tanh.  An output
# larger than _SINGLE_SHOT_BYTES whose operands share one contiguous layout
# is walked in memory order, _CHUNK_BYTES at a time: each chunk runs the
# single-shot expression, in the same operation order, into its slice of the
# output, and a chunk's operands and scratch (at most five 128 KiB buffers)
# stay in a 2 MiB L2 cache from one operation to the next.
_CHUNK_BYTES = 1 << 17
_SINGLE_SHOT_BYTES = 4 * _CHUNK_BYTES


def _pieces(scratch, *arrays):
    """Matching pieces of the same-shaped `arrays` (output last), each
    followed by `scratch` new buffers shaped like it: flat chunks in memory
    order when the output is large and every array shares one contiguous
    layout, else the whole arrays with full-size scratch."""
    out = arrays[-1]
    if out.nbytes > _SINGLE_SHOT_BYTES:
        order = np.argsort(out.strides)[::-1]
        flats = [a.transpose(order) for a in arrays]
        if all(f.flags.c_contiguous for f in flats):
            flats = [f.reshape(-1) for f in flats]
            step = _CHUNK_BYTES // out.itemsize
            bufs = [np.empty(step) for _ in range(scratch)]
            for i in range(0, out.size, step):
                n = min(step, out.size - i)
                yield (tuple(f[i:i + n] for f in flats)
                       + tuple(b[:n] for b in bufs))
            return
    yield arrays + tuple(np.empty_like(out) for _ in range(scratch))


def _gelu_tanh(x, t):
    """t = tanh(C (x + A x^3)), evaluated in the order of that expression:
    ((A x) x) x, then + x, then * C."""
    np.multiply(_GELU_A, x, out=t)
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)


@lru_cache(maxsize=None)
def _axis_orders(ndim, axis):
    """(order, inverse): the transpose that moves `axis` to the end, keeping
    the other axes in order, and the one that moves it back."""
    axis %= ndim
    order = tuple(i for i in range(ndim) if i != axis) + (axis,)
    inverse = tuple(order.index(i) for i in range(ndim))
    return order, inverse


def k_axis_matmul(mat, v, axis):
    """mat applied along `axis` of v, as v @ mat.T on the view with `axis`
    moved last.  Only those operand roles and views keep results bitwise
    stable; `mat @ v` forms round differently."""
    if axis == -1 or axis == v.ndim - 1:
        return v @ mat.T
    order, inverse = _axis_orders(v.ndim, axis)
    return (v.transpose(order) @ mat.T).transpose(inverse)


def k_circ_stencil(v, taps, axis):
    # accumulation order is fixed: it is part of the bit-exactness contract
    # with the dense-matrix reference stepper
    out = taps[0][1] * np.roll(v, -taps[0][0], axis=axis)
    for offset, weight in taps[1:]:
        out = out + weight * np.roll(v, -offset, axis=axis)
    return out


# ---------------------------------------------------------------------------
# tape machinery

# The value of every node whose output no VJP reads.
_UNSAVED = np.empty(0)
_UNSAVED.flags.writeable = False


class Node:
    __slots__ = ("op", "parents", "value", "ctx")

    def __init__(self, op, parents, ctx):
        self.op = op
        self.parents = parents
        # the output, once a consumer's VJP reads it (never for a rebuilt op)
        self.value = _UNSAVED
        self.ctx = ctx


class Tensor:
    """Handle to one tape node and owner of its output array `data`."""

    __slots__ = ("tape", "node_id", "data")

    def __init__(self, tape, node_id, data):
        self.tape = tape
        self.node_id = node_id
        self.data = data

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(node={self.node_id}, shape={self.shape})"


class Tape:
    """Append-only operation record plus the leaf gradients filled by backward."""

    def __init__(self):
        self.nodes = []
        self.gradients = {}

    def leaf(self, value) -> Tensor:
        arr = np.asarray(value, dtype=np.float64)
        _check_finite(arr, "leaf")
        self.nodes.append(Node("leaf", (), None))
        return Tensor(self, len(self.nodes) - 1, arr)


def _check_finite(arr, op):
    if not np.isfinite(arr).all():
        raise NonFiniteValue(f"non-finite value produced by {op!r}")


def _operand(x):
    """A non-Tensor operand that is not a float: ints and NumPy scalars
    become floats, anything else becomes a float64 array."""
    if isinstance(x, (int, np.floating, np.integer)):
        return float(x)
    return np.asarray(x, dtype=np.float64)


def _rebuilt(op):
    entry = PRIMITIVES.get(op)  # None for a leaf
    return entry is not None and entry[3]


def _input_value(tape, node, i):
    """The value of input `i` of `node`: a constant from its ctx, a kept
    value from its parent's node, or the output of a rebuilt parent,
    computed again from that parent's inputs and recorded params."""
    pid = node.parents[i]
    if pid is None:
        return node.ctx["consts"][i]
    parent = tape.nodes[pid]
    if not _rebuilt(parent.op):
        return parent.value
    values = [_input_value(tape, parent, j) for j in range(len(parent.parents))]
    return PRIMITIVES[parent.op][0](values, parent.ctx)[0]


def record(tape: Tape, op: str, *inputs, **params) -> Tensor:
    """Record one primitive on `tape` and return the output tensor.

    Inputs may be Tensors (on this tape), arrays or scalars; the latter two
    are constants that receive no gradient.  The inputs the op's VJP reads
    are kept: a Tensor's value on its node (unless a rebuilt op made it), a
    constant in the ctx.
    """
    entry = PRIMITIVES.get(op)
    if entry is None:
        raise UnknownPrimitive(f"unknown primitive {op!r}")
    reads = entry[2]
    nodes = tape.nodes
    parents = []
    values = []
    consts = {}
    for i, x in enumerate(inputs):
        if isinstance(x, Tensor):
            if x.tape is not tape:
                raise ValueError("inputs registered on a different tape")
            parents.append(x.node_id)
            values.append(x.data)
            if i in reads and not _rebuilt(nodes[x.node_id].op):
                nodes[x.node_id].value = x.data
        else:
            val = x if isinstance(x, float) else _operand(x)
            parents.append(None)
            values.append(val)
            if i in reads:
                consts[i] = val
    out, ctx = entry[0](values, params)
    _check_finite(out, op)
    if consts:
        ctx = dict(ctx or {})
        ctx["consts"] = consts
    nodes.append(Node(op, tuple(parents), ctx))
    return Tensor(tape, len(nodes) - 1, out)


def backward(tape: Tape, seed: Tensor) -> dict:
    """Populate and return gradients of the scalar Tensor `seed` w.r.t. its
    leaf ancestors.

    An interior node's gradient is dropped as soon as it has been propagated
    to its parents: keeping it would cost as much memory as the forward tape.
    """
    if not tape.nodes:
        raise EmptyTape("backward on an empty tape")
    if seed.data.size != 1:
        raise NonScalarSeed(f"seed must be scalar-shaped, got {seed.shape}")
    seed_id = seed.node_id
    grads = {seed_id: np.ones_like(seed.data)}
    for nid in range(seed_id, -1, -1):
        g = grads.get(nid)
        if g is None:
            continue
        node = tape.nodes[nid]
        if node.op == "leaf":
            continue
        contribs = PRIMITIVES[node.op][1](tape, node, g)
        for i, contrib in enumerate(contribs):
            pid = node.parents[i]
            if pid is None or contrib is None:
                continue
            if pid in grads:
                grads[pid] = grads[pid] + contrib
            else:
                grads[pid] = contrib
        del grads[nid]
    tape.gradients = grads
    return grads


def grad_of(tape: Tape, tensor: Tensor) -> np.ndarray:
    """Gradient of the last backward seed w.r.t. the leaf `tensor` (zeros if
    detached)."""
    g = tape.gradients.get(tensor.node_id)
    if g is None:
        return np.zeros_like(tensor.data)
    return g


# ---------------------------------------------------------------------------
# primitive definitions

def _shapes_equal(a, b, op):
    if isinstance(a, float) or isinstance(b, float):
        return
    if a.shape != b.shape:
        raise ShapeMismatch(f"{op}: {a.shape} vs {b.shape}")


def _fw_add(v, p):
    _shapes_equal(v[0], v[1], "add")
    return v[0] + v[1], None


def _fw_sub(v, p):
    _shapes_equal(v[0], v[1], "sub")
    return v[0] - v[1], None


def _fw_mul(v, p):
    _shapes_equal(v[0], v[1], "mul")
    return v[0] * v[1], None


def _fw_scalar_mul(v, p):
    return v[0] * p["scalar"], p


def _fw_matmul(v, p):
    w, x = v
    axis = p["channel_axis"]
    if w.ndim != 2 or x.shape[axis] != w.shape[1]:
        raise ShapeMismatch(f"matmul: {w.shape} against axis {axis} of {x.shape}")
    return k_axis_matmul(w, x, axis), p


def _fw_bias_add(v, p):
    x, b = v
    axis = p["channel_axis"]
    if b.ndim != 1 or x.shape[axis] != b.shape[0]:
        raise ShapeMismatch(f"bias_add: {b.shape} against axis {axis} of {x.shape}")
    shape = [1] * x.ndim
    shape[axis] = b.shape[0]
    return x + b.reshape(shape), p


def _fw_gelu(v, p):
    # 0.5 x (1 + t), as (0.5 x) * (1 + t); the tanh is recomputed in the
    # vjp: storing it would add one full-size array per activation to the tape
    out = np.empty_like(v[0], dtype=np.float64)
    for xp, op, t in _pieces(1, v[0], out):
        _gelu_tanh(xp, t)
        t += 1.0
        np.multiply(0.5, xp, out=op)
        op *= t
    return out, None


def _fw_square(v, p):
    return v[0] * v[0], None


def _fw_sum(v, p):
    return np.asarray(np.sum(v[0])), {"in_shape": np.shape(v[0])}


def _fw_slice_axis(v, p):
    index = [slice(None)] * v[0].ndim
    index[p["axis"]] = slice(p["start"], p["stop"])
    index = tuple(index)
    return v[0][index].copy(), {"index": index, "in_shape": v[0].shape}


def _fw_concat(v, p):
    axis = p["axis"]
    return np.concatenate([v[0], v[1]], axis=axis), {
        "axis": axis, "split": v[0].shape[axis]}


def _fw_boundary_overwrite(v, p):
    mask = p["mask"]
    out = np.where(mask, p["value"], v[0])
    if out.shape != v[0].shape:
        raise ShapeMismatch(f"boundary_overwrite: mask {mask.shape} vs {v[0].shape}")
    return out, p


def _fw_circ_stencil(v, p):
    return k_circ_stencil(v[0], p["taps"], p["axis"]), p


def _fw_level_matmul(v, p):
    mat, axis = p["matrix"], p["axis"]
    if v[0].shape[axis] != mat.shape[1]:
        raise ShapeMismatch(
            f"axis matmul: matrix {mat.shape} against axis {axis} of {v[0].shape}")
    return k_axis_matmul(mat, v[0], axis), p


def _vjp_add(tape, node, g):
    return g, g


def _vjp_sub(tape, node, g):
    return g, -g


def _vjp_mul(tape, node, g):
    a = _input_value(tape, node, 0)
    b = _input_value(tape, node, 1)
    return g * b, g * a


def _vjp_scalar_mul(tape, node, g):
    return (g * node.ctx["scalar"],)


def _vjp_matmul(tape, node, g):
    w = _input_value(tape, node, 0)
    x = _input_value(tape, node, 1)
    axis = node.ctx["channel_axis"]
    order, _ = _axis_orders(x.ndim, axis)
    gw = (g.transpose(order).reshape(-1, w.shape[0]).T
          @ x.transpose(order).reshape(-1, w.shape[1]))
    return gw, k_axis_matmul(w.T, g, axis)


def _vjp_bias_add(tape, node, g):
    axis = node.ctx["channel_axis"]
    reduce_axes = tuple(i for i in range(g.ndim) if i != axis)
    return g, np.sum(g, axis=reduce_axes)


def _vjp_gelu(tape, node, g):
    # g * (0.5 (1 + t) + 0.5 x (1 - t^2) C (1 + 3A x^2)), evaluated left to
    # right into the output t and two scratch buffers per piece; g and x are
    # tape values and stay untouched.  A g in another layout than the output
    # is not copied into it: it multiplies the whole output once, in place.
    x = _input_value(tape, node, 0)
    out = np.empty_like(x, dtype=np.float64)
    fused = (g,) if g.strides == out.strides else ()
    for xp, *gp, t, s, dx in _pieces(2, x, *fused, out):
        _gelu_tanh(xp, t)
        np.multiply(t, t, out=s)
        np.subtract(1.0, s, out=s)
        np.multiply(0.5, xp, out=dx)
        dx *= s
        dx *= _GELU_C
        np.multiply(_GELU_3A, xp, out=s)
        s *= xp
        s += 1.0
        dx *= s
        t += 1.0
        t *= 0.5
        t += dx
        if gp:
            t *= gp[0]
    if not fused:
        out *= g
    return (out,)


def _vjp_square(tape, node, g):
    return (2.0 * _input_value(tape, node, 0) * g,)


def _vjp_sum(tape, node, g):
    return (np.broadcast_to(g, node.ctx["in_shape"]).copy(),)


def _vjp_slice_axis(tape, node, g):
    out = np.zeros(node.ctx["in_shape"])
    out[node.ctx["index"]] = g
    return (out,)


def _vjp_concat(tape, node, g):
    axis, split = node.ctx["axis"], node.ctx["split"]
    return (_fw_slice_axis([g], {"axis": axis, "start": 0, "stop": split})[0],
            _fw_slice_axis([g], {"axis": axis, "start": split, "stop": None})[0])


def _vjp_boundary_overwrite(tape, node, g):
    return (np.where(node.ctx["mask"], 0.0, g),)


def _vjp_circ_stencil(tape, node, g):
    # the adjoint of a circular stencil is the stencil with negated offsets
    taps = tuple((-offset, weight) for offset, weight in node.ctx["taps"])
    return (k_circ_stencil(g, taps, node.ctx["axis"]),)


def _vjp_level_matmul(tape, node, g):
    return (k_axis_matmul(node.ctx["matrix"].T, g, node.ctx["axis"]),)


# name -> (forward, vjp, reads, rebuilt).  forward(values, params) returns
# (output, ctx); vjp(tape, node, g) returns one cotangent per input and may
# read the values of the inputs whose indices are in `reads`, no others.  A
# rebuilt op's output is never kept: a VJP that reads it gets
# forward(inputs, node.ctx)[0] again, so a rebuilt op reads all of its
# inputs and its forward returns its params within its ctx.
PRIMITIVES = {
    "add": (_fw_add, _vjp_add, (), False),
    "sub": (_fw_sub, _vjp_sub, (), False),
    "mul": (_fw_mul, _vjp_mul, (0, 1), False),
    "scalar_mul": (_fw_scalar_mul, _vjp_scalar_mul, (), False),
    "matmul": (_fw_matmul, _vjp_matmul, (0, 1), True),
    "bias_add": (_fw_bias_add, _vjp_bias_add, (0, 1), True),
    "gelu": (_fw_gelu, _vjp_gelu, (0,), True),
    "square": (_fw_square, _vjp_square, (0,), False),
    "sum": (_fw_sum, _vjp_sum, (), False),
    "slice_axis": (_fw_slice_axis, _vjp_slice_axis, (), False),
    "concat": (_fw_concat, _vjp_concat, (), False),
    "boundary_overwrite": (_fw_boundary_overwrite, _vjp_boundary_overwrite, (),
                           False),
    "circ_stencil": (_fw_circ_stencil, _vjp_circ_stencil, (), False),
    "level_matmul": (_fw_level_matmul, _vjp_level_matmul, (), False),
}


# ---------------------------------------------------------------------------
# public ops: one dispatch path for taped and untaped evaluation

def _apply(op, *inputs, **params):
    """Record primitive `op` when any input is a Tensor, else return its
    forward value on the plain operands."""
    operands = []
    for x in inputs:
        if isinstance(x, Tensor):
            return record(x.tape, op, *inputs, **params)
        operands.append(x if isinstance(x, float) else _operand(x))
    return PRIMITIVES[op][0](operands, params)[0]


def add(a, b):
    return _apply("add", a, b)


def sub(a, b):
    return _apply("sub", a, b)


def mul(a, b):
    return _apply("mul", a, b)


def scalar_mul(a, c: float):
    return _apply("scalar_mul", a, scalar=float(c))


def matmul(w, v, channel_axis: int):
    return _apply("matmul", w, v, channel_axis=channel_axis)


def bias_add(v, b, channel_axis: int):
    return _apply("bias_add", v, b, channel_axis=channel_axis)


def gelu(x):
    return _apply("gelu", x)


def square(x):
    return _apply("square", x)


def total_sum(x):
    return _apply("sum", x)


def slice_axis(x, axis: int, start: int, stop: int):
    return _apply("slice_axis", x, axis=axis, start=start, stop=stop)


def concat(a, b, axis: int):
    return _apply("concat", a, b, axis=axis)


def boundary_overwrite(x, mask, value: float):
    return _apply("boundary_overwrite", x, mask=np.asarray(mask, dtype=bool),
                  value=float(value))


def circ_stencil(x, taps, axis: int):
    taps = tuple((int(o), float(w)) for o, w in taps)
    return _apply("circ_stencil", x, taps=taps, axis=axis)


def level_matmul(matrix, x, axis: int):
    """Apply a constant per-level wavelet matrix along `axis`."""
    return _apply("level_matmul", x, matrix=np.asarray(matrix, dtype=np.float64),
                  axis=axis)


def value_of(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


# ---------------------------------------------------------------------------

def central_differences(fn, point, step: float) -> np.ndarray:
    """Central-difference gradient of the float-valued `fn` at `point`,
    bumping one coordinate at a time by +-`step`."""
    point = np.asarray(point, dtype=np.float64)
    flat = point.ravel().copy()
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = fn(flat.reshape(point.shape))
        flat[i] = orig - step
        lo = fn(flat.reshape(point.shape))
        flat[i] = orig
        numeric[i] = (hi - lo) / (2.0 * step)
    return numeric.reshape(point.shape)

