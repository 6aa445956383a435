"""Differentiable numeric primitives on small dense arrays.

Everything here is reverse-mode: each operation computes its forward value
eagerly with numpy and records an analytic vector-Jacobian product, so any
scalar built from these ops can call ``backward()``. ``grad_check`` verifies
the recorded VJPs against central differences and is the correctness oracle
for every model in this package.

Precision policy: float64 for verification and gradient tests, float32
allowed for speed. Ops preserve the dtype they are given.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np
from scipy.special import erf, expit

from .errors import DimensionError

Array = np.ndarray

_FLOAT_DTYPES = (np.float32, np.float64)

WEIGHT_INIT_STD = 0.02


class Tensor:
    """A float array (0-d scalar, vector or matrix) in the autodiff graph."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, value, requires_grad: bool = False):
        v = np.asarray(value)
        if v.dtype not in _FLOAT_DTYPES:
            v = v.astype(np.float64)
        if v.ndim > 2:
            raise DimensionError(f"Tensor holds at most 2-d data, got shape {v.shape}")
        self.value = v
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[Array], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def dtype(self):
        return self.value.dtype

    @property
    def rows(self) -> int:
        return self.value.shape[0]

    @property
    def cols(self) -> int:
        return self.value.shape[1]

    def item(self) -> float:
        return float(self.value.item())

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable leaf."""
        if self.value.ndim != 0:
            raise DimensionError(f"backward() needs a scalar, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        _accumulate(self, np.ones_like(self.value))
        for node in reversed(topo):
            if node._vjp is not None:
                node._vjp(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: Array) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # Own the buffer: g may be a view into someone else's array.
        t.grad = np.array(g, dtype=t.value.dtype)
    else:
        t.grad += g


def _node(value: Array, parents: Sequence[Tensor], vjp: Callable[[Array], None]) -> Tensor:
    out = Tensor(value)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a broadcast gradient back to the original operand shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise / arithmetic ops


def add(a, b, n_seqs: int = 1) -> Tensor:
    """a + b with numpy broadcasting. With ``n_seqs`` > 1, ``a``'s rows hold
    ``n_seqs`` stacked equal-length sequences and ``b`` is broadcast against
    each of them."""
    a, b = as_tensor(a), as_tensor(b)
    if n_seqs == 1:
        value = a.value + b.value
    else:
        split = (n_seqs, _sequence_length(a, n_seqs, "add")) + a.shape[1:]
        value = (a.value.reshape(split) + b.value).reshape(a.shape)
    same_shape = a.shape == b.shape == value.shape

    def vjp(g: Array) -> None:
        if same_shape:
            _accumulate(a, g)
            _accumulate(b, g)
        else:
            _accumulate(a, _unbroadcast(g, a.shape).astype(a.dtype, copy=False))
            gb = g if n_seqs == 1 else g.reshape(split)
            _accumulate(b, _unbroadcast(gb, b.shape).astype(b.dtype, copy=False))

    return _node(value, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    value = a.value * b.value

    def vjp(g: Array) -> None:
        _accumulate(a, _unbroadcast(g * b.value, a.shape).astype(a.dtype, copy=False))
        _accumulate(b, _unbroadcast(g * a.value, b.shape).astype(b.dtype, copy=False))

    return _node(value, (a, b), vjp)


def scale(a, c: float) -> Tensor:
    a = as_tensor(a)
    value = a.value * c

    def vjp(g: Array) -> None:
        _accumulate(a, (g * c).astype(a.dtype, copy=False))

    return _node(value, (a,), vjp)


def neg(a) -> Tensor:
    return scale(a, -1.0)


def sub(a, b) -> Tensor:
    return add(a, neg(b))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise DimensionError(
            f"matmul needs matrices, got shapes {a.shape} and {b.shape}"
        )
    if a.cols != b.rows:
        raise DimensionError(
            f"matmul: left operand is {a.rows}x{a.cols}, right operand is {b.rows}x{b.cols}"
        )
    value = a.value @ b.value

    def vjp(g: Array) -> None:
        _accumulate(a, g @ b.value.T)
        _accumulate(b, a.value.T @ g)

    return _node(value, (a, b), vjp)


def gelu(a) -> Tensor:
    """Exact GELU: x * Phi(x) with the Gaussian CDF."""
    a = as_tensor(a)
    x = a.value
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    value = x * cdf

    def vjp(g: Array) -> None:
        pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        _accumulate(a, (g * (cdf + x * pdf)).astype(a.dtype, copy=False))

    return _node(value.astype(a.dtype, copy=False), (a,), vjp)


# ---------------------------------------------------------------------------
# structural ops


def concat_rows(parts: Sequence[Tensor], n_seqs: int = 1) -> Tensor:
    """Join parts along the rows. Each part holds ``n_seqs`` stacked
    equal-length sequences; sequence i of the result is sequence i of every
    part, in part order."""
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise DimensionError("concat_rows needs at least one part")
    lengths = [_sequence_length(p, n_seqs, "concat_rows") for p in parts]
    blocks = [p.value.reshape((n_seqs, n) + p.shape[1:]) for p, n in zip(parts, lengths)]
    joined = np.concatenate(blocks, axis=1)
    offsets = np.cumsum([0] + lengths)

    def vjp(g: Array) -> None:
        g = g.reshape(joined.shape)
        for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accumulate(part, g[:, lo:hi].reshape(part.shape))

    return _node(joined.reshape((-1,) + joined.shape[2:]), parts, vjp)


def slice_rows(a, start: int, stop: int, n_seqs: int = 1) -> Tensor:
    """Rows ``start:stop`` of each of the ``n_seqs`` stacked equal-length
    sequences in ``a``'s rows, stacked in sequence order."""
    a = as_tensor(a)
    split = (n_seqs, _sequence_length(a, n_seqs, "slice_rows")) + a.shape[1:]
    cut = np.array(a.value.reshape(split)[:, start:stop])
    value = cut.reshape((-1,) + a.shape[1:])

    def vjp(g: Array) -> None:
        full = np.zeros(split, dtype=a.dtype)
        full[:, start:stop] = g.reshape(cut.shape)
        _accumulate(a, full.reshape(a.shape))

    return _node(value, (a,), vjp)


def _sequence_length(a: Tensor, n_seqs: int, op: str) -> int:
    """Rows per sequence when ``a``'s rows hold ``n_seqs`` equal-length ones."""
    if n_seqs < 1 or a.rows % n_seqs != 0:
        raise DimensionError(f"{op}: {a.rows} rows do not split into {n_seqs} equal sequences")
    return a.rows // n_seqs


def mean_rows(a, n_seqs: int = 1) -> Tensor:
    """Mean across the rows of each of ``n_seqs`` stacked equal-length
    sequences: an (n_seqs x D) result, 1xD for a single sequence."""
    a = as_tensor(a)
    n = _sequence_length(a, n_seqs, "mean_rows")
    value = a.value.reshape(n_seqs, n, -1).mean(axis=1)

    def vjp(g: Array) -> None:
        spread = np.broadcast_to((g / n)[:, None, :], (n_seqs, n, a.cols))
        _accumulate(a, spread.reshape(a.shape).astype(a.dtype, copy=False))

    return _node(value, (a,), vjp)


def sum_all(a) -> Tensor:
    a = as_tensor(a)

    def vjp(g: Array) -> None:
        _accumulate(a, np.broadcast_to(g, a.shape).astype(a.dtype, copy=False))

    return _node(a.value.sum(), (a,), vjp)


def mean_all(a) -> Tensor:
    a = as_tensor(a)
    return scale(sum_all(a), 1.0 / a.value.size)


def causal_mix(a, w, n_seqs: int = 1) -> Tensor:
    """Causal lag mixing: y[t] = sum_tau w[tau] * x[t - tau], zero-padded past.

    The rows of ``a`` hold ``n_seqs`` stacked equal-length sequences; each
    starts from its own zero-padded past, so no history crosses a boundary.
    """
    a, w = as_tensor(a), as_tensor(w)
    if w.value.ndim != 1:
        raise DimensionError(f"causal_mix weights must be a vector, got shape {w.shape}")
    t_len = _sequence_length(a, n_seqs, "causal_mix")
    x = a.value.reshape(n_seqs, t_len, -1)
    taps = w.value
    value = np.zeros_like(x)
    for tau in range(min(len(taps), t_len)):
        if tau == 0:
            value += taps[0] * x
        else:
            value[:, tau:] += taps[tau] * x[:, :-tau]

    def vjp(g: Array) -> None:
        g = g.reshape(x.shape)
        gx = np.zeros_like(x)
        gw = np.zeros_like(taps)
        for tau in range(min(len(taps), t_len)):
            if tau == 0:
                gx += taps[0] * g
                gw[0] = (g * x).sum()
            else:
                gx[:, :-tau] += taps[tau] * g[:, tau:]
                gw[tau] = (g[:, tau:] * x[:, :-tau]).sum()
        _accumulate(a, gx.reshape(a.shape))
        _accumulate(w, gw)

    return _node(value.reshape(a.shape), (a, w), vjp)


# ---------------------------------------------------------------------------
# normalization and attention kernels


def linear(x, w, b=None) -> Tensor:
    """y = x W (+ b broadcast per row), fused into one graph node."""
    x, w = as_tensor(x), as_tensor(w)
    if x.value.ndim != 2 or w.value.ndim != 2 or x.cols != w.rows:
        raise DimensionError(
            f"linear: input is {x.shape}, weight is {w.shape}; inner dims must match"
        )
    if b is None:
        return matmul(x, w)
    b = as_tensor(b)
    if b.value.ndim != 1 or b.value.shape[0] != w.cols:
        raise DimensionError(
            f"linear: bias has shape {b.shape}, weight produces {w.cols} columns"
        )
    value = x.value @ w.value + b.value

    def vjp(g: Array) -> None:
        _accumulate(x, g @ w.value.T)
        _accumulate(w, x.value.T @ g)
        _accumulate(b, g.sum(axis=0))

    return _node(value, (x, w, b), vjp)


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Per-row normalization to mean 0 / variance 1, then scale and shift."""
    if eps <= 0:
        raise ValueError(f"layer_norm eps must be positive, got {eps}")
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.value.ndim != 2:
        raise DimensionError(f"layer_norm expects a matrix, got shape {x.shape}")
    d = x.cols
    if gamma.value.shape != (d,) or beta.value.shape != (d,):
        raise DimensionError(
            f"layer_norm: input has {d} columns but gamma/beta have shapes "
            f"{gamma.shape}/{beta.shape}"
        )
    xv = x.value
    mu = xv.mean(axis=1, keepdims=True)
    xc = xv - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    value = xhat * gamma.value + beta.value

    def vjp(g: Array) -> None:
        _accumulate(gamma, (g * xhat).sum(axis=0))
        _accumulate(beta, g.sum(axis=0))
        dxhat = g * gamma.value
        dx = inv * (
            dxhat
            - dxhat.mean(axis=1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
        )
        _accumulate(x, dx.astype(x.dtype, copy=False))

    return _node(value.astype(x.dtype, copy=False), (x, gamma, beta), vjp)


def _softmax_value(z: Array, axis: int) -> Array:
    shifted = z - z.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax(x) -> Tensor:
    """Softmax of a vector; shift-invariant and overflow-safe."""
    x = as_tensor(x)
    if x.value.ndim != 1:
        raise DimensionError(f"softmax expects a vector, got shape {x.shape}")
    if x.value.size == 0:
        raise ValueError("softmax of an empty vector is undefined")
    y = _softmax_value(x.value, axis=0)

    def vjp(g: Array) -> None:
        _accumulate(x, (y * (g - float(np.dot(g, y)))).astype(x.dtype, copy=False))

    return _node(y.astype(x.dtype, copy=False), (x,), vjp)


# ---------------------------------------------------------------------------
# loss kernels


def sigmoid_cross_entropy(logit, target) -> Tensor:
    """Binary cross-entropy from logits, numerically stable at large |logit|.

    ``target`` holds one value in [0, 1] per logit (a float for a single
    logit); the result is the sum of the per-logit losses.
    """
    logit = as_tensor(logit)
    t = np.asarray(target, dtype=np.float64).reshape(-1)
    z = logit.value.reshape(-1)
    if z.size != t.size:
        raise DimensionError(f"{z.size} logits for {t.size} binary targets")
    if not (t.min() >= 0.0 and t.max() <= 1.0):
        raise ValueError(f"binary targets must lie in [0, 1], got {target}")
    value = np.logaddexp(0.0, z).sum() - z @ t  # softplus(z) - z * t

    def vjp(g: Array) -> None:
        gz = g * (expit(z) - t)
        _accumulate(logit, gz.reshape(logit.shape).astype(logit.dtype, copy=False))

    return _node(np.asarray(value, dtype=logit.dtype), (logit,), vjp)


def softmax_cross_entropy(scores, target_index) -> Tensor:
    """Cross-entropy of score vectors against true class indices.

    For one int index, ``scores`` is one vector-like tensor. For a sequence
    of B indices it holds B equal-length score vectors in row-major order,
    as B rows or as one column, and the result is the sum of their losses.
    """
    scores = as_tensor(scores)
    targets = np.asarray(target_index).reshape(-1)
    n_rows = targets.size
    shape = scores.shape
    if len(shape) == 2 and shape[0] != n_rows and shape[1] != 1:
        raise DimensionError(f"scores of shape {shape} do not hold {n_rows} score vectors")
    if n_rows < 1 or scores.value.size % n_rows != 0:
        raise DimensionError(f"{scores.value.size} scores do not split into {n_rows} rows")
    flat = scores.value.reshape(n_rows, -1)
    n = flat.shape[1]
    if not (targets.min() >= 0 and targets.max() < n):
        raise ValueError(f"label out of range: index {target_index} for {n} classes")
    rows = np.arange(n_rows)
    shifted = flat - flat.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    sums = e.sum(axis=1)
    value = np.log(sums).sum() - shifted[rows, targets].sum()

    def vjp(g: Array) -> None:
        p = e / sums[:, None]
        p[rows, targets] -= 1.0
        _accumulate(scores, (g * p).reshape(shape).astype(scores.dtype, copy=False))

    return _node(np.asarray(value, dtype=scores.dtype), (scores,), vjp)


# ---------------------------------------------------------------------------
# parameters


@dataclass
class Param:
    value: Array
    trainable: bool = True


class ParamSet:
    """Named parameters with unique names and a per-parameter trainable flag."""

    def __init__(self):
        self._params: dict[str, Param] = {}

    def add(self, name: str, value, trainable: bool = True) -> None:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name!r}")
        v = np.asarray(value)
        if v.dtype not in _FLOAT_DTYPES:
            v = v.astype(np.float64)
        self._params[name] = Param(v, trainable)

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def __iter__(self) -> Iterator[str]:
        return iter(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def trainable_names(self) -> list[str]:
        return [n for n, p in self._params.items() if p.trainable]

    def freeze_all(self) -> None:
        for p in self._params.values():
            p.trainable = False

    def as_tensors(self, train: bool = True) -> dict[str, Tensor]:
        """Leaf tensors sharing this set's arrays; trainable ones track gradients."""
        return {
            n: Tensor(p.value, requires_grad=train and p.trainable)
            for n, p in self._params.items()
        }

    def values_copy(self) -> dict[str, Array]:
        return {n: p.value.copy() for n, p in self._params.items()}

    def load(self, values: Mapping[str, Array]) -> None:
        for name, v in values.items():
            p = self._params[name]
            if p.value.shape != v.shape:
                raise DimensionError(
                    f"param {name!r}: cannot load shape {v.shape} into {p.value.shape}"
                )
            p.value = np.array(v, dtype=p.value.dtype)

    def checksum(self) -> str:
        """SHA-256 over all parameter bytes; bit-identical params give equal sums."""
        h = hashlib.sha256()
        for name in sorted(self._params):
            p = self._params[name]
            h.update(name.encode())
            h.update(str(p.value.shape).encode())
            h.update(np.ascontiguousarray(p.value).tobytes())
        return h.hexdigest()


def collect_grads(leaves: Mapping[str, Tensor]) -> dict[str, Array]:
    """Gradients for every trainable leaf; zeros if a leaf was unused."""
    out = {}
    for name, t in leaves.items():
        if t.requires_grad:
            out[name] = t.grad if t.grad is not None else np.zeros_like(t.value)
    return out


# ---------------------------------------------------------------------------
# encoder layer


ENCODER_PARAM_FIELDS = (
    "wq", "bq", "wk", "wv", "bv", "wo", "bo",
    "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2",
    "ln1_gamma", "ln1_beta", "ln2_gamma", "ln2_beta",
)


@dataclass
class EncoderLayerParams:
    """Per-layer attention + feed-forward parameters, as graph leaves.

    The key projection carries no bias: a shared key offset shifts every
    score in a row equally, which softmax ignores, so its gradient is
    identically zero.
    """

    n_heads: int
    wq: Tensor
    bq: Tensor
    wk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor
    ln1_gamma: Tensor
    ln1_beta: Tensor
    ln2_gamma: Tensor
    ln2_beta: Tensor

    def __post_init__(self):
        d = self.wq.value.shape[0]
        if d % self.n_heads != 0:
            raise DimensionError(
                f"model width {d} is not divisible by {self.n_heads} heads"
            )
        for name in ("wq", "wk", "wv", "wo"):
            if getattr(self, name).value.shape != (d, d):
                raise DimensionError(
                    f"{name} must be {d}x{d}, got {getattr(self, name).shape}"
                )
        if self.ffn_w1.value.shape[0] != d or self.ffn_w2.value.shape[1] != d:
            raise DimensionError("feed-forward weights do not map back to model width")
        if self.ffn_w1.value.shape[1] != self.ffn_w2.value.shape[0]:
            raise DimensionError("feed-forward hidden widths disagree")

    @property
    def width(self) -> int:
        return self.wq.value.shape[0]

    @classmethod
    def from_tensors(cls, tensors: Mapping[str, Tensor], prefix: str, n_heads: int) -> "EncoderLayerParams":
        return cls(n_heads=n_heads, **{f: tensors[prefix + f] for f in ENCODER_PARAM_FIELDS})


def init_encoder_layer_arrays(rng: np.random.Generator, d: int, d_ff: int) -> dict[str, Array]:
    """Fresh per-layer arrays: N(0, 0.02) weights, zero biases/beta, unit gamma."""
    def w(shape):
        return rng.normal(0.0, WEIGHT_INIT_STD, size=shape)

    return {
        "wq": w((d, d)), "bq": np.zeros(d),
        "wk": w((d, d)),
        "wv": w((d, d)), "bv": np.zeros(d),
        "wo": w((d, d)), "bo": np.zeros(d),
        "ffn_w1": w((d, d_ff)), "ffn_b1": np.zeros(d_ff),
        "ffn_w2": w((d_ff, d)), "ffn_b2": np.zeros(d),
        "ln1_gamma": np.ones(d), "ln1_beta": np.zeros(d),
        "ln2_gamma": np.ones(d), "ln2_beta": np.zeros(d),
    }


def scaled_dot_attention(
    q, k, v, n_heads: int, weights_out: list | None = None, n_seqs: int = 1
) -> Tensor:
    """Per-head softmax(Q Kt / sqrt(dh)) V with heads batched in one node.

    Inputs are full-width (n_seqs*T x D) projections whose rows hold
    ``n_seqs`` stacked sequences of T tokens; column block i holds head i.
    Each sequence attends only within itself. Pass ``weights_out`` to
    capture the attention matrices (a debug path): one (heads x T x T) array
    is appended per sequence, in sequence order, and every row of every head
    sums to 1.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    rows, d = q.shape
    if k.shape != (rows, d) or v.shape != (rows, d):
        raise DimensionError(
            f"attention projections disagree: q={q.shape}, k={k.shape}, v={v.shape}"
        )
    if d % n_heads != 0:
        raise DimensionError(f"width {d} is not divisible by {n_heads} heads")
    t_len = _sequence_length(q, n_seqs, "scaled_dot_attention")
    dh = d // n_heads
    inv = 1.0 / math.sqrt(dh)

    def split(m: Array) -> Array:  # n_seqs x heads x T x dh
        return m.reshape(n_seqs, t_len, n_heads, dh).transpose(0, 2, 1, 3)

    def join(m: Array) -> Array:
        return m.transpose(0, 2, 1, 3).reshape(rows, d)

    qh, kh, vh = split(q.value), split(k.value), split(v.value)
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * inv
    scores -= scores.max(axis=3, keepdims=True)
    attn = np.exp(scores)
    attn /= attn.sum(axis=3, keepdims=True)
    if weights_out is not None:
        weights_out.extend(attn.copy())
    out = join(attn @ vh)

    def vjp(g: Array) -> None:
        gh = split(g)
        d_attn = gh @ vh.transpose(0, 1, 3, 2)
        d_v = attn.transpose(0, 1, 3, 2) @ gh
        d_scores = attn * (d_attn - (d_attn * attn).sum(axis=3, keepdims=True))
        d_q = (d_scores @ kh) * inv
        d_k = (d_scores.transpose(0, 1, 3, 2) @ qh) * inv
        _accumulate(q, join(d_q))
        _accumulate(k, join(d_k))
        _accumulate(v, join(d_v))

    return _node(out, (q, k, v), vjp)


def multi_head_attention(
    x, p: EncoderLayerParams, weights_out: list | None = None, n_seqs: int = 1
) -> Tensor:
    """Scaled dot-product self-attention within each of the ``n_seqs``
    stacked token sequences in ``x``'s rows."""
    x = as_tensor(x)
    d = x.cols
    if d != p.width:
        raise DimensionError(f"input width {d} does not match layer width {p.width}")
    q = linear(x, p.wq, p.bq)
    k = linear(x, p.wk)
    v = linear(x, p.wv, p.bv)
    attended = scaled_dot_attention(q, k, v, p.n_heads, weights_out, n_seqs)
    return linear(attended, p.wo, p.bo)


def feed_forward(x, p: EncoderLayerParams) -> Tensor:
    return linear(gelu(linear(x, p.ffn_w1, p.ffn_b1)), p.ffn_w2, p.ffn_b2)


def encoder_layer(
    x,
    p: EncoderLayerParams,
    norm_first: bool = True,
    weights_out: list | None = None,
    n_seqs: int = 1,
) -> Tensor:
    """One transformer encoder layer over ``n_seqs`` stacked token sequences;
    pre-norm residual by default. Only attention mixes rows, and it stays
    within each sequence."""
    x = as_tensor(x)
    if norm_first:
        normed = layer_norm(x, p.ln1_gamma, p.ln1_beta)
        h = add(x, multi_head_attention(normed, p, weights_out, n_seqs))
        return add(h, feed_forward(layer_norm(h, p.ln2_gamma, p.ln2_beta), p))
    h = layer_norm(add(x, multi_head_attention(x, p, weights_out, n_seqs)), p.ln1_gamma, p.ln1_beta)
    return layer_norm(add(h, feed_forward(h, p)), p.ln2_gamma, p.ln2_beta)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(
    f: Callable[[dict[str, Tensor]], Tensor],
    params: ParamSet,
    eps: float = 1e-5,
) -> float:
    """Compare analytic gradients of ``f`` against central differences.

    ``f`` maps leaf tensors (from ``params.as_tensors()``) to a scalar and must
    be pure. Returns the max over checked entries of
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).

    An entry whose analytic and numeric values both lie below the central
    difference's roundoff floor, |f| * 2**-50 / eps (a few units of roundoff
    in f over eps), agrees with a zero gradient to within roundoff and counts
    as 0; every other entry is judged by the relative measure.
    """
    leaves = params.as_tensors()
    out = f(leaves)
    base = float(out.value)
    if not math.isfinite(base):
        raise ValueError(f"function is non-finite at the base point: {base}")
    out.backward()
    analytic = collect_grads(leaves)

    def eval_plain() -> float:
        return float(f(params.as_tensors(train=False)).value)

    floor = abs(base) * 2.0**-50 / eps
    worst = 0.0
    for name in params.trainable_names():
        arr = params[name].value
        grad = analytic[name]
        for idx in np.ndindex(arr.shape):
            original = arr[idx]
            arr[idx] = original + eps
            f_plus = eval_plain()
            arr[idx] = original - eps
            f_minus = eval_plain()
            arr[idx] = original
            numeric = (f_plus - f_minus) / (2.0 * eps)
            ana = float(grad[idx])
            if max(abs(ana), abs(numeric)) < floor:
                continue
            rel = abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst
