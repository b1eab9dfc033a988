"""Dense tensors with reverse-mode automatic differentiation.

A small CPU engine: numpy buffers, a dynamically recorded DAG, and a
hand-written adjoint per op. Broadcasting is limited to numpy's
trailing-dimension alignment. f32 is the training dtype; f64 exists for
gradient checking. Tensors are immutable once produced by an op; a recorded
graph belongs to a single thread.
"""
from __future__ import annotations

import math
import zlib

import numpy as np

from .errors import ContractError, NumericDomainError, ParseError, ShapeError

F32 = np.dtype(np.float32)
F64 = np.dtype(np.float64)

_grad_enabled = True


class no_grad:
    """Context manager that suspends graph recording (inference fast path)."""

    def __enter__(self):
        global _grad_enabled
        self._saved = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, exc_type, exc, tb):
        global _grad_enabled
        _grad_enabled = self._saved
        return False


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_needs_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = np.ascontiguousarray(arr, dtype=dtype)
        elif arr.dtype not in (F32, F64):
            arr = np.ascontiguousarray(arr, dtype=F32)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward = None
        self._needs_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name})"

    def __getitem__(self, key):
        return index(self, key)


def _node(data: np.ndarray, parents: tuple, backward) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.grad = None
    if _grad_enabled and any(p._needs_grad for p in parents):
        out._parents = parents
        out._backward = backward
        out._needs_grad = True
    else:
        out._parents = ()
        out._backward = None
        out._needs_grad = False
    return out


def _check_dtypes(*tensors: Tensor):
    dt = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != dt:
            raise ShapeError(
                f"mixed dtypes {dt.name} and {t.data.dtype.name}; cast explicitly"
            )


def _check_broadcast(a: Tensor, b: Tensor):
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(f"shapes {a.data.shape} and {b.data.shape} do not broadcast") from None


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def backward(loss: Tensor):
    """Reverse-mode sweep from a scalar loss; leaf .grad accumulates additively."""
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    topo: list[Tensor] = []
    visited = {id(loss)}
    stack: list[tuple[Tensor, object]] = [(loss, iter(loss._parents))]
    while stack:
        node, parents = stack[-1]
        advanced = False
        for p in parents:
            if p._needs_grad and id(p) not in visited:
                visited.add(id(p))
                stack.append((p, iter(p._parents)))
                advanced = True
                break
        if not advanced:
            topo.append(node)
            stack.pop()

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad = g if node.grad is None else node.grad + g
        if node._backward is None:
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not parent._needs_grad:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg


# ---------------------------------------------------------------------------
# elementwise and arithmetic ops


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes(a, b)
    _check_broadcast(a, b)
    return _node(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes(a, b)
    _check_broadcast(a, b)
    return _node(
        a.data - b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; a constant operand (a mask, a weight) gets no gradient."""
    _check_dtypes(a, b)
    _check_broadcast(a, b)
    return _node(
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape) if a._needs_grad else None,
            _unbroadcast(g * a.data, b.data.shape) if b._needs_grad else None,
        ),
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes(a, b)
    _check_broadcast(a, b)
    if np.any(b.data == 0):
        raise NumericDomainError("division by zero")
    return _node(
        a.data / b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        ),
    )


def neg(a: Tensor) -> Tensor:
    return _node(-a.data, (a,), lambda g: (-g,))


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)
    return _node(out_data, (a,), lambda g: (g * out_data,))


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise NumericDomainError("log of a non-positive value")
    return _node(np.log(a.data), (a,), lambda g: (g / a.data,))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 0.5 * (1 + tanh(x/2)) in place: no masks, and tanh cannot overflow
    out = np.multiply(x, 0.5)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid(a.data)
    return _node(s, (a,), lambda g: (g * s * (1.0 - s),))


def softplus(a: Tensor) -> Tensor:
    # log(1 + e^x) = max(x, 0) + log1p(e^-|x|), stable at both tails
    x = a.data
    out_data = np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))
    return _node(out_data, (a,), lambda g: (g * _sigmoid(x),))


def silu(a: Tensor) -> Tensor:
    s = _sigmoid(a.data)
    out_data = a.data * s
    return _node(out_data, (a,), lambda g: (g * (s + out_data * (1.0 - s)),))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        return (s * (g - (g * s).sum(axis=axis, keepdims=True)),)

    return _node(s, (a,), bw)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    logZ = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - logZ

    def bw(g):
        return (g - np.exp(out_data) * g.sum(axis=axis, keepdims=True),)

    return _node(out_data, (a,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift.

    gain and bias are (d,). Each row reduction is one einsum over the flattened
    rows: unlike a GEMV, it sums every row the same way wherever the row sits in
    the batch.
    """
    if eps <= 0:
        raise NumericDomainError(f"layer_norm eps must be > 0, got {eps}")
    _check_dtypes(x, gain, bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(f"layer_norm gain/bias {gain.data.shape}/{bias.data.shape} != {(d,)}")
    x2 = x.data.reshape(-1, d)
    xhat = x2 - (np.einsum("ij->i", x2) / d)[:, None]
    inv = (1.0 / np.sqrt(np.einsum("ij,ij->i", xhat, xhat) / d + eps))[:, None]
    xhat *= inv
    out_data = xhat * gain.data
    out_data += bias.data

    def bw(g):
        g2 = g.reshape(-1, d)
        dx = g2 * gain.data
        m2 = (np.einsum("ij,ij->i", dx, xhat) / d)[:, None]
        dx -= (np.einsum("ij->i", dx) / d)[:, None]
        dx -= xhat * m2
        dx *= inv
        return (dx.reshape(x.data.shape), np.einsum("ij,ij->j", g2, xhat), g2.sum(0))

    return _node(out_data.reshape(x.data.shape), (x, gain, bias), bw)


# ---------------------------------------------------------------------------
# linear algebra and structure ops


def matmul(a: Tensor, w: Tensor) -> Tensor:
    """(..., d) @ (d, k): the right operand is a 2-D weight. Each gradient is one
    GEMM over all the leading rows of `a`."""
    _check_dtypes(a, w)
    if w.data.ndim != 2 or a.data.ndim < 1 or a.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(f"matmul shapes {a.data.shape} and {w.data.shape}: "
                         "need (..., d) and a (d, k) weight")
    d, k = w.data.shape

    def bw(g):  # a constant operand gets no gradient
        g2 = g.reshape(-1, k)
        return ((g2 @ w.data.T).reshape(a.data.shape) if a._needs_grad else None,
                a.data.reshape(-1, d).T @ g2 if w._needs_grad else None)

    return _node(np.matmul(a.data, w.data), (a, w), bw)


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ShapeError(
            f"token id out of range [0,{table.data.shape[0]}): min {ids.min()}, max {ids.max()}"
        )

    def bw(g):  # the rows of each id summed in one reduceat over the stably sorted ids
        order = np.argsort(ids, axis=None, kind="stable")
        rows, starts = np.unique(ids.reshape(-1)[order], return_index=True)
        dtab = np.zeros_like(table.data)
        dtab[rows] = np.add.reduceat(g.reshape(-1, table.data.shape[1])[order], starts, axis=0)
        return (dtab,)

    return _node(table.data[ids], (table,), bw)


def causal_depthwise_conv(x: Tensor, kernel: Tensor) -> Tensor:
    """Per-channel causal convolution.

    x has shape (..., T, C) and kernel (C, K); output position t sees inputs
    t-K+1..t with zero left padding, so nothing flows backward in time.
    """
    _check_dtypes(x, kernel)
    if x.data.shape[-1] != kernel.data.shape[0]:
        raise ShapeError(f"conv channels {x.data.shape} vs kernel {kernel.data.shape}")
    C, K = kernel.data.shape
    xs = x.data.reshape(-1, x.data.shape[-2], C)
    T = xs.shape[1]
    # tap K-1-s reads the input s positions back; a tap reaching before t = 0 adds nothing
    out_data = xs * kernel.data[:, K - 1]
    for s in range(1, min(K, T)):
        out_data[:, s:] += kernel.data[:, K - 1 - s] * xs[:, :T - s]

    def bw(g):
        gs = g.reshape(xs.shape)
        dx = gs * kernel.data[:, K - 1]
        dk = np.zeros_like(kernel.data)
        dk[:, K - 1] = np.einsum("btc,btc->c", gs, xs)
        for s in range(1, min(K, T)):
            dx[:, :T - s] += kernel.data[:, K - 1 - s] * gs[:, s:]
            dk[:, K - 1 - s] = np.einsum("btc,btc->c", gs[:, s:], xs[:, :T - s])
        return (dx.reshape(x.data.shape), dk)

    return _node(out_data.reshape(x.data.shape), (x, kernel), bw)


def reshape(a: Tensor, shape) -> Tensor:
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


def transpose(a: Tensor, axes) -> Tensor:
    inverse = np.argsort(axes)
    return _node(np.transpose(a.data, axes), (a,), lambda g: (np.transpose(g, inverse),))


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    _check_dtypes(*tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)

    def bw(g):
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))

    return _node(out_data, tuple(tensors), bw)


def index(a: Tensor, key) -> Tensor:
    """Basic slicing only (ints, slices, None, Ellipsis)."""
    out_data = a.data[key]

    def bw(g):
        da = np.zeros_like(a.data)
        da[key] = g
        return (da,)

    return _node(np.ascontiguousarray(out_data), (a,), bw)


def broadcast_to(a: Tensor, shape) -> Tensor:
    out_data = np.broadcast_to(a.data, shape)
    return _node(out_data, (a,), lambda g: (_unbroadcast(g, a.data.shape),))


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).astype(a.data.dtype, copy=True),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape).astype(a.data.dtype, copy=True),)

    return _node(out_data, (a,), bw)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )
    return mul(tsum(a, axis=axis, keepdims=keepdims),
               Tensor(np.asarray(1.0 / count, dtype=a.data.dtype)))


def make_op(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    """Record a custom op node; backward_fn(g) returns one gradient per parent."""
    return _node(data, parents, backward_fn)


# ---------------------------------------------------------------------------
# gradient checking and the one-tensor encoding of checkpoint blobs


def grad_check(f, params: list[Tensor], step: float = 1e-5, max_coords: int = 24, rng=None) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    Coordinates are subsampled per tensor beyond `max_coords` (seeded through
    `rng`). Parameters must be f64; rel error uses a 1e-8 floor.
    """
    for p in params:
        if p.data.dtype != F64:
            raise ContractError("grad_check requires f64 parameters")
        p.grad = None
    loss = f(params)
    backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    rng = rng or np.random.default_rng(0)

    worst = 0.0
    with no_grad():
        for p, ad in zip(params, analytic):
            if not p.data.flags["C_CONTIGUOUS"]:
                p.data = np.ascontiguousarray(p.data)
            flat = p.data.reshape(-1)
            n = flat.size
            coords = np.arange(n) if n <= max_coords else np.sort(
                rng.choice(n, size=max_coords, replace=False)
            )
            for c in coords:
                orig = flat[c]
                flat[c] = orig + step
                fp = float(f(params).data)
                flat[c] = orig - step
                fm = float(f(params).data)
                flat[c] = orig
                fd = (fp - fm) / (2.0 * step)
                a = ad.reshape(-1)[c]
                rel = abs(a - fd) / max(abs(a), abs(fd), 1e-8)
                worst = max(worst, rel)
    return worst


_DTYPE_TOKENS = {F32: "f32", F64: "f64"}
_TOKEN_DTYPES = {"f32": "<f4", "f64": "<f8"}


def save_tensor(fh, arr: np.ndarray) -> dict:
    """Append `arr`'s raw little-endian values to the binary file `fh`. Returns
    the index entry `load_tensor` decodes them by: the dtype token ("f32" or
    "f64"), the shape, the byte offset in the file and the bytes' zlib.crc32."""
    token = _DTYPE_TOKENS.get(arr.dtype)
    if token is None:
        raise ShapeError(f"cannot dump dtype {arr.dtype}")
    raw = np.ascontiguousarray(arr, dtype=_TOKEN_DTYPES[token])
    entry = {"dtype": token, "shape": list(arr.shape), "offset": fh.tell(),
             "crc32": zlib.crc32(raw)}
    fh.write(raw)
    return entry


def load_tensor(raw, entry: dict, path, name: str) -> np.ndarray:
    """Inverse of save_tensor: decode `raw`, the bytes the index `entry` spans in
    the file `path`. An entry that is not one save_tensor writes, a byte count
    that disagrees with the dtype and shape, or a crc32 other than the entry's
    raises ParseError naming `path` and the tensor `name`."""
    try:
        dtype = np.dtype(_TOKEN_DTYPES[entry["dtype"]])
        shape = tuple(int(d) for d in entry["shape"])
        crc = int(entry["crc32"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"tensor {name}: malformed index entry {entry!r} ({exc!r})",
                         path=path) from None
    expected = dtype.itemsize * math.prod(shape)
    if len(raw) != expected:
        raise ParseError(f"tensor {name} spans {len(raw)} bytes; a {entry['dtype']} tensor "
                         f"of shape {shape} needs {expected}", path=path)
    if zlib.crc32(raw) != crc:
        raise ParseError(f"tensor {name} fails its crc32 check", path=path)
    return np.frombuffer(raw, dtype=dtype).reshape(shape).astype(dtype.newbyteorder("="))
