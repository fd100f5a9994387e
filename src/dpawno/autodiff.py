"""Reverse-mode differentiation over dense float64 grid tensors.

Define-by-run: every operation appends a node to the active :class:`Tape`;
:func:`backward` walks the tape once in reverse and keeps only the gradients
of leaf nodes.  Each primitive is defined once, as a (forward, vjp) pair in
:data:`PRIMITIVES`, and every public op goes through one dispatch path: it is
recorded when any input is a Tensor, otherwise its forward function is
evaluated on the plain operands.  Evaluating a model with or without a tape
therefore produces bit-identical values.

Shapes are explicit (rank 1-4, optional leading batch axis); there is no
general broadcasting.  Python floats are accepted as scalar operands.
"""

from functools import lru_cache

import numpy as np

from .errors import (
    EmptyTape,
    NonFiniteLoss,
    NonFiniteValue,
    NonScalarSeed,
    ShapeMismatch,
    UnknownPrimitive,
)

_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715
_GELU_3A = 3.0 * _GELU_A


# ---------------------------------------------------------------------------
# kernels (shared by taped and untaped evaluation)
#
# Each kernel evaluates its formula in a fixed order and hands BLAS fixed
# operands; byte-identical primary outputs across versions depend on both.

def _gelu_tanh(x):
    """tanh(C (x + A x^3)) in one fresh buffer, evaluated in the order of
    that expression: ((A x) x) x, then + x, then * C."""
    t = np.multiply(_GELU_A, x, out=np.empty_like(x, dtype=np.float64))
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    return np.tanh(t, out=t)


def k_gelu(x):
    # 0.5 x (1 + t), as (0.5 x) * (1 + t)
    t = _gelu_tanh(x)
    t += 1.0
    out = np.multiply(0.5, x, out=np.empty_like(t))
    out *= t
    return out


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


def k_channel_matmul(w, v, axis):
    if v.ndim == 1:
        return w @ v
    return k_axis_matmul(w, v, axis)


def k_circ_stencil(v, taps, axis):
    # accumulation order is fixed: it is part of the bit-exactness contract
    # with the dense-matrix reference stepper
    out = taps[0][1] * np.roll(v, -taps[0][0], axis=axis)
    for offset, weight in taps[1:]:
        out = out + weight * np.roll(v, -offset, axis=axis)
    return out


def k_bias_add(v, b, axis):
    shape = [1] * v.ndim
    shape[axis] = b.shape[0]
    return v + b.reshape(shape)


# ---------------------------------------------------------------------------
# tape machinery

class Node:
    __slots__ = ("op", "parents", "value", "ctx")

    def __init__(self, op, parents, value, ctx):
        self.op = op
        self.parents = parents
        self.value = value
        self.ctx = ctx


class Tensor:
    """Handle to one tape node; `data` lives on the tape."""

    __slots__ = ("tape", "node_id")

    def __init__(self, tape, node_id):
        self.tape = tape
        self.node_id = node_id

    @property
    def data(self) -> np.ndarray:
        return self.tape.nodes[self.node_id].value

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
        self.nodes.append(Node("leaf", (), arr, None))
        return Tensor(self, len(self.nodes) - 1)


def _check_finite(arr, op):
    if not np.isfinite(arr).all():
        raise NonFiniteValue(f"non-finite value produced by {op!r}")


def _operand(x):
    """A non-Tensor operand: floats stay, ints and NumPy scalars become
    floats, anything else becomes a float64 array."""
    if isinstance(x, float):
        return x
    if isinstance(x, (int, np.floating, np.integer)):
        return float(x)
    return np.asarray(x, dtype=np.float64)


def _input_value(tape, node, i):
    pid = node.parents[i]
    if pid is not None:
        return tape.nodes[pid].value
    return node.ctx["consts"][i]


def record(tape: Tape, op: str, *inputs, **params) -> Tensor:
    """Record one primitive on `tape` and return the output tensor.

    Inputs may be Tensors (on this tape), arrays or scalars; the latter two
    are constants that receive no gradient.
    """
    entry = PRIMITIVES.get(op)
    if entry is None:
        raise UnknownPrimitive(f"unknown primitive {op!r}")
    nodes = tape.nodes
    parents = []
    values = []
    consts = {}
    for i, x in enumerate(inputs):
        if isinstance(x, Tensor):
            if x.tape is not tape:
                raise ValueError("inputs registered on a different tape")
            parents.append(x.node_id)
            values.append(nodes[x.node_id].value)
        else:
            val = x if isinstance(x, float) else _operand(x)
            parents.append(None)
            values.append(val)
            consts[i] = val
    out, ctx = entry[0](values, params)
    _check_finite(out, op)
    if consts:
        ctx = dict(ctx or {})
        ctx["consts"] = consts
    nodes.append(Node(op, tuple(parents), out, ctx))
    return Tensor(tape, len(nodes) - 1)


def backward(tape: Tape, seed) -> dict:
    """Populate and return gradients of `seed` w.r.t. its leaf ancestors.

    An interior node's gradient is dropped as soon as it has been propagated
    to its parents: keeping it would cost as much memory as the forward tape.
    """
    if not tape.nodes:
        raise EmptyTape("backward on an empty tape")
    seed_id = seed.node_id if isinstance(seed, Tensor) else int(seed)
    seed_node = tape.nodes[seed_id]
    if seed_node.value.size != 1:
        raise NonScalarSeed(f"seed must be scalar-shaped, got {seed_node.value.shape}")
    grads = {seed_id: np.ones_like(seed_node.value)}
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
    axis = p.get("channel_axis")
    if axis is None:
        if x.ndim != 1:
            raise ShapeMismatch("matmul: channel_axis required for rank >= 2 input")
        axis = 0
    if w.ndim != 2 or x.shape[axis] != w.shape[1]:
        raise ShapeMismatch(f"matmul: {w.shape} against axis {axis} of {x.shape}")
    return k_channel_matmul(w, x, axis), {"axis": axis}


def _fw_bias_add(v, p):
    x, b = v
    axis = p.get("channel_axis")
    if axis is None:
        axis = 1 if x.ndim >= 3 else 0
    if b.ndim != 1 or x.shape[axis] != b.shape[0]:
        raise ShapeMismatch(f"bias_add: {b.shape} against axis {axis} of {x.shape}")
    return k_bias_add(x, b, axis), {"axis": axis}


def _fw_gelu(v, p):
    # the tanh is recomputed in the vjp: storing it would add one full-size
    # array per activation to the tape
    return k_gelu(v[0]), None


def _fw_square(v, p):
    return v[0] * v[0], None


def _fw_sum(v, p):
    return np.asarray(np.sum(v[0])), None


def _fw_slice_axis(v, p):
    sl = [slice(None)] * v[0].ndim
    sl[p["axis"]] = slice(p["start"], p["stop"])
    return v[0][tuple(sl)].copy(), {**p, "in_shape": v[0].shape}


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
    axis = node.ctx["axis"]
    if x.ndim == 1:
        return np.outer(g, x), w.T @ g
    order, inverse = _axis_orders(x.ndim, axis)
    gm, xm = g.transpose(order), x.transpose(order)
    gw = gm.reshape(-1, w.shape[0]).T @ xm.reshape(-1, w.shape[1])
    return gw, (gm @ w).transpose(inverse)


def _vjp_bias_add(tape, node, g):
    axis = node.ctx["axis"]
    reduce_axes = tuple(i for i in range(g.ndim) if i != axis)
    return g, np.sum(g, axis=reduce_axes)


def _vjp_gelu(tape, node, g):
    # g * (0.5 (1 + t) + 0.5 x (1 - t^2) C (1 + 3A x^2)), evaluated left to
    # right in three fresh buffers; g and x are tape values and stay untouched
    x = _input_value(tape, node, 0)
    t = _gelu_tanh(x)
    s = np.multiply(t, t, out=np.empty_like(t))
    np.subtract(1.0, s, out=s)
    dx = np.multiply(0.5, x, out=np.empty_like(t))
    dx *= s
    dx *= _GELU_C
    np.multiply(_GELU_3A, x, out=s)
    s *= x
    s += 1.0
    dx *= s
    t += 1.0
    t *= 0.5
    t += dx
    t *= g
    return (t,)


def _vjp_square(tape, node, g):
    return (2.0 * _input_value(tape, node, 0) * g,)


def _vjp_sum(tape, node, g):
    x = _input_value(tape, node, 0)
    return (np.broadcast_to(g, x.shape).copy(),)


def _vjp_slice_axis(tape, node, g):
    ctx = node.ctx
    out = np.zeros(ctx["in_shape"])
    sl = [slice(None)] * len(ctx["in_shape"])
    sl[ctx["axis"]] = slice(ctx["start"], ctx["stop"])
    out[tuple(sl)] = g
    return (out,)


def _vjp_concat(tape, node, g):
    axis, split = node.ctx["axis"], node.ctx["split"]
    sl_a = [slice(None)] * g.ndim
    sl_b = [slice(None)] * g.ndim
    sl_a[axis] = slice(0, split)
    sl_b[axis] = slice(split, None)
    return g[tuple(sl_a)].copy(), g[tuple(sl_b)].copy()


def _vjp_boundary_overwrite(tape, node, g):
    return (np.where(node.ctx["mask"], 0.0, g),)


def _vjp_circ_stencil(tape, node, g):
    taps = node.ctx["taps"]
    axis = node.ctx["axis"]
    out = taps[0][1] * np.roll(g, taps[0][0], axis=axis)
    for offset, weight in taps[1:]:
        out = out + weight * np.roll(g, offset, axis=axis)
    return (out,)


def _vjp_level_matmul(tape, node, g):
    return (k_axis_matmul(node.ctx["matrix"].T, g, node.ctx["axis"]),)


# name -> (forward, vjp).  forward(values, params) returns (output, ctx);
# vjp(tape, node, g) returns one cotangent per input.
PRIMITIVES = {
    "add": (_fw_add, _vjp_add),
    "sub": (_fw_sub, _vjp_sub),
    "mul": (_fw_mul, _vjp_mul),
    "scalar_mul": (_fw_scalar_mul, _vjp_scalar_mul),
    "matmul": (_fw_matmul, _vjp_matmul),
    "bias_add": (_fw_bias_add, _vjp_bias_add),
    "gelu": (_fw_gelu, _vjp_gelu),
    "square": (_fw_square, _vjp_square),
    "sum": (_fw_sum, _vjp_sum),
    "slice_axis": (_fw_slice_axis, _vjp_slice_axis),
    "concat": (_fw_concat, _vjp_concat),
    "boundary_overwrite": (_fw_boundary_overwrite, _vjp_boundary_overwrite),
    "circ_stencil": (_fw_circ_stencil, _vjp_circ_stencil),
    "dwt_level": (_fw_level_matmul, _vjp_level_matmul),
    "idwt_level": (_fw_level_matmul, _vjp_level_matmul),
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


def matmul(w, v, channel_axis=None):
    return _apply("matmul", w, v, channel_axis=channel_axis)


def bias_add(v, b, channel_axis=None):
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


def level_matmul(kind: str, matrix, x, axis: int):
    """Apply a constant per-level wavelet matrix along `axis`.

    `kind` tags the tape node as "dwt_level" or "idwt_level".
    """
    return _apply(kind, x, matrix=np.asarray(matrix, dtype=np.float64), axis=axis)


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


def check_gradient(loss_fn, point, step: float) -> float:
    """Max relative disagreement between reverse-mode and central differences.

    `loss_fn` maps a Tensor to a scalar Tensor.  Relative error per coordinate
    is |autodiff - central| / (|central| + 1e-12).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    point = np.asarray(point, dtype=np.float64)

    def eval_loss(values):
        tape = Tape()
        try:
            out = loss_fn(tape.leaf(values))
        except NonFiniteValue as exc:
            raise NonFiniteLoss(str(exc)) from exc
        val = float(value_of(out))
        if not np.isfinite(val):
            raise NonFiniteLoss("loss function returned a non-finite value")
        return val

    tape = Tape()
    x = tape.leaf(point)
    try:
        out = loss_fn(x)
    except NonFiniteValue as exc:
        raise NonFiniteLoss(str(exc)) from exc
    if out.data.size != 1:
        raise NonScalarSeed("loss function must return a scalar")
    if not np.isfinite(float(out.data)):
        raise NonFiniteLoss("loss function returned a non-finite value")
    backward(tape, out)
    auto = grad_of(tape, x)

    numeric = central_differences(eval_loss, point, step)
    rel = np.abs(auto - numeric) / (np.abs(numeric) + 1e-12)
    return float(np.max(rel)) if rel.size else 0.0
