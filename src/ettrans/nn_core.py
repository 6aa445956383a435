"""Differentiable numeric primitives on small dense arrays.

Everything here is reverse-mode: each operation computes its forward value
eagerly with numpy and records an analytic vector-Jacobian product, so any
scalar built from these ops can call ``backward()``, once. ``grad_check`` verifies
the recorded VJPs against central differences and is the correctness oracle
for every model in this package.

A batch is an axis. A value of rank 3 is (samples x rows x cols): ops that
work on sequences read axis -2 as tokens or frames and the leading axis as
samples, and nothing mixes one sample's rows with another's. A (rows x cols)
value is one sample. Kernels that need 2-d BLAS operands flatten a batch to
(samples*rows x cols) internally.

Values are float64 throughout; a float32 input is cast once, when its
``Tensor`` is made.
"""

from __future__ import annotations

import functools
import hashlib
import math
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ContractViolationError, DimensionError

Array = np.ndarray

WEIGHT_INIT_STD = 0.02


class Tensor:
    """A float64 array in the autodiff graph: a scalar, a vector, a matrix or
    a (samples x rows x cols) batch of matrices."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, value, requires_grad: bool = False):
        v = np.asarray(value, dtype=np.float64)
        if v.ndim > 3:
            raise DimensionError(f"Tensor holds at most 3-d data, got shape {v.shape}")
        self.value = v
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[Array], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def rows(self) -> int:
        """Rows of each sample: the length of axis -2."""
        if self.value.ndim < 2:
            raise DimensionError(f"a value of shape {self.shape} has no rows")
        return self.value.shape[-2]

    @property
    def cols(self) -> int:
        return self.value.shape[-1]

    def item(self) -> float:
        return float(self.value.item())

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable leaf.

        A graph backpropagates once: each interior node drops its gradient,
        its VJP (and the activations that holds) and its parents as soon as
        its VJP has run, so the graph's memory is freed during the pass.
        Leaves keep their gradients. A second ``backward()`` through a spent
        node raises ``RuntimeError``."""
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
        while topo:
            node = topo.pop()
            if node._vjp is not None:
                node._vjp(node.grad)
                node.grad, node._vjp, node._parents = None, _spent_vjp, ()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, grad={self.requires_grad})"


def _spent_vjp(g: Array) -> None:
    """The VJP of a node whose graph has already backpropagated."""
    raise RuntimeError("graph already backpropagated")


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: Array) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # Own the buffer: g may be a view into someone else's array.
        t.grad = np.array(g)
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
# numpy kernels
#
# Forward/backward pairs on plain arrays. Each forward returns its value and
# what its backward needs. The graph ops wrap them one op per node, and
# ``encoder_layer`` chains them inside a single node.

LAYER_NORM_EPS = 1e-5


# Phi(-|x|) = exp(-x^2/2) * erfcx(u) / 2 with u = |x|/sqrt(2), and erfcx(u)
# is a degree-16 polynomial in v = 0.35 u / (1 + 0.35 u), which runs over
# [0, 2.1/3.1] as u runs over [0, 6]. The coefficients (constant term first)
# are the power-basis form of erfcx's interpolant at the 17 Chebyshev
# extrema of that interval, both computed with mpmath at 60 digits and then
# rounded. The constant term is erfcx(0) = 1 exactly, so Phi(0) = 0.5. Past
# u = 6, erfc(u) < 3e-17 and v is clamped. Against mpmath.ncdf the absolute
# error is 2.2e-16 over [-12, 12], as for scipy's ndtr. The kernel evaluates
# -erfcx/2, a scaling by a power of two that changes no bit.
_CDF_SLOPE = 0.35 / math.sqrt(2.0)
_CDF_ABS_X_MAX = 6.0 * math.sqrt(2.0)
_CDF_POLY = tuple(-0.5 * c for c in (
    1.0, -3.223940477415756, 4.939324828708267, -4.442664164166923,
    1.9495427791547197, 0.14476944609221265, -0.4536130928109237,
    -0.025005243541412172, 0.11998444519272938, 0.02897605652709324,
    -0.024160073731737026, -0.03184013522529571, 0.028635881179634184,
    -0.03451493752323225, 0.04766546138622402, -0.030030705422114515,
    0.00687094650851403,
))
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _normal_cdf(x) -> tuple[Array, Array]:
    """The standard normal CDF Phi(x) and exp(-x^2/2), elementwise.

    Exact at 0 and +-inf, NaN for NaN, and free of overflow for any float.
    """
    ax = np.abs(np.asarray(x, dtype=np.float64))
    # exp(-x^2/2) is 0 past |x| = 38.6, so clamping at 40 changes no bit
    # and keeps x^2 finite
    bell = np.minimum(ax, 40.0)
    bell *= bell
    bell *= -0.5
    bell = np.exp(bell)
    v = np.minimum(ax, _CDF_ABS_X_MAX)
    v *= _CDF_SLOPE
    v = v / (v + 1.0)
    r = v * _CDF_POLY[-1]
    for c in _CDF_POLY[-2:0:-1]:
        r += c
        r *= v
    r += _CDF_POLY[0]
    r *= bell
    r += 0.5  # 1/2 - Phi(-|x|)
    cdf = np.copysign(r, x)
    cdf += 0.5
    return cdf, bell


def _gelu_forward(x: Array) -> tuple[Array, tuple[Array, Array]]:
    """x * Phi(x); saves Phi(x) and exp(-x^2/2) for the backward pass."""
    cdf, bell = _normal_cdf(x)
    return x * cdf, (cdf, bell)


def _gelu_backward(g: Array, x: Array, saved: tuple[Array, Array]) -> Array:
    cdf, bell = saved
    slope = x * bell
    slope *= _INV_SQRT_2PI
    slope += cdf
    slope *= g
    return slope


def _layer_norm_forward(
    x: Array, gamma: Array, beta: Array, eps: float
) -> tuple[Array, tuple[Array, Array]]:
    """Row-normalized ``x`` times gamma plus beta; saves (xhat, 1/std)."""
    inv_d = 1.0 / x.shape[1]
    xhat = x - x.sum(axis=1, keepdims=True) * inv_d
    inv = 1.0 / np.sqrt((xhat * xhat).sum(axis=1, keepdims=True) * inv_d + eps)
    xhat *= inv
    value = xhat * gamma
    value += beta
    return value, (xhat, inv)


def _layer_norm_backward(
    g: Array, saved: tuple[Array, Array], gamma: Array
) -> tuple[Array, Array, Array]:
    """Gradients (dx, dgamma, dbeta) of ``_layer_norm_forward``."""
    xhat, inv = saved
    inv_d = 1.0 / xhat.shape[1]
    dxhat = g * gamma
    proj = (dxhat * xhat).sum(axis=1, keepdims=True) * inv_d
    dx = dxhat - dxhat.sum(axis=1, keepdims=True) * inv_d
    dx -= xhat * proj
    dx *= inv
    return dx, (g * xhat).sum(axis=0), g.sum(axis=0)


def _softmax_inplace(z: Array) -> Array:
    """Softmax over the last axis of a float array, in place; returns ``z``."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _attention_forward(
    qkv: Array, n_heads: int, weights_out: list | None
) -> tuple[Array, tuple[Array, Array, Array, Array]]:
    """Per-head softmax(Q Kt / sqrt(dh)) V within each sample.

    ``qkv`` is [Q | K | V] of one (T x 3D) sequence or a (samples x T x 3D)
    batch. Returns the result flattened to (samples*T x D) and the per-head
    (q / sqrt(dh), k, v, attention) arrays, each samples x heads x T x
    (dh or T), that the backward needs.
    """
    t_len, d = qkv.shape[-2], qkv.shape[-1] // 3
    dh = d // n_heads
    heads = qkv.reshape(-1, t_len, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)
    qh = heads[0] * (1.0 / math.sqrt(dh))
    kh, vh = heads[1], heads[2]
    attn = _softmax_inplace(qh @ kh.swapaxes(2, 3))
    if weights_out is not None:
        weights_out.extend(attn.copy())
    out = (attn @ vh).transpose(0, 2, 1, 3).reshape(-1, d)
    return out, (qh, kh, vh, attn)


def _attention_backward(g: Array, saved: tuple[Array, Array, Array, Array]) -> Array:
    """Gradient of ``_attention_forward`` with respect to [Q | K | V]."""
    qh, kh, vh, attn = saved
    n_samples, n_heads, t_len, dh = qh.shape
    gh = g.reshape(n_samples, t_len, n_heads, dh).transpose(0, 2, 1, 3)
    d_scores = gh @ vh.swapaxes(2, 3)
    d_scores -= (d_scores * attn).sum(axis=3, keepdims=True)
    d_scores *= attn
    d_qkv = np.empty((n_samples, t_len, 3, n_heads, dh), dtype=d_scores.dtype)
    d_heads = d_qkv.transpose(2, 0, 3, 1, 4)
    np.matmul(d_scores, kh, out=d_heads[0])
    d_heads[0] *= 1.0 / math.sqrt(dh)
    np.matmul(d_scores.swapaxes(2, 3), qh, out=d_heads[1])
    np.matmul(attn.swapaxes(2, 3), gh, out=d_heads[2])
    return d_qkv.reshape(n_samples * t_len, 3 * n_heads * dh)


# ---------------------------------------------------------------------------
# elementwise / arithmetic ops


def add(a, b) -> Tensor:
    """a + b with numpy broadcasting: a (rows x D) operand adds to every
    sample of a (samples x rows x D) one."""
    a, b = as_tensor(a), as_tensor(b)
    try:
        value = a.value + b.value
    except ValueError as exc:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from exc
    same_shape = a.shape == b.shape

    def vjp(g: Array) -> None:
        if same_shape:
            _accumulate(a, g)
            _accumulate(b, g)
        else:
            _accumulate(a, _unbroadcast(g, a.shape))
            _accumulate(b, _unbroadcast(g, b.shape))

    return _node(value, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    value = a.value * b.value

    def vjp(g: Array) -> None:
        _accumulate(a, _unbroadcast(g * b.value, a.shape))
        _accumulate(b, _unbroadcast(g * a.value, b.shape))

    return _node(value, (a, b), vjp)


def scale(a, c: float) -> Tensor:
    a = as_tensor(a)
    value = a.value * c

    def vjp(g: Array) -> None:
        _accumulate(a, g * c)

    return _node(value, (a,), vjp)


def gelu(a) -> Tensor:
    """Exact GELU: x * Phi(x) with the Gaussian CDF."""
    a = as_tensor(a)
    value, saved = _gelu_forward(a.value)

    def vjp(g: Array) -> None:
        _accumulate(a, _gelu_backward(g, a.value, saved))

    return _node(value, (a,), vjp)


# ---------------------------------------------------------------------------
# structural ops


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Join parts along the row axis; batches join sample by sample, so
    sample i of the result is sample i of every part, in part order."""
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise DimensionError("concat_rows needs at least one part")
    lengths = [p.rows for p in parts]
    if len({p.shape[:-2] + p.shape[-1:] for p in parts}) != 1:
        raise DimensionError(
            f"concat_rows: parts of shapes {[p.shape for p in parts]} differ off the row axis"
        )
    value = np.concatenate([p.value for p in parts], axis=-2)
    offsets = np.cumsum([0] + lengths)

    def vjp(g: Array) -> None:
        for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accumulate(part, g[..., lo:hi, :])

    return _node(value, parts, vjp)


def slice_rows(a, start: int, stop: int) -> Tensor:
    """Rows ``start:stop`` of each sample."""
    a = as_tensor(a)
    if a.value.ndim < 2:
        raise DimensionError(f"slice_rows needs rows, got shape {a.shape}")
    value = np.array(a.value[..., start:stop, :])

    def vjp(g: Array) -> None:
        full = np.zeros_like(a.value)
        full[..., start:stop, :] = g
        _accumulate(a, full)

    return _node(value, (a,), vjp)


def mean_rows(a) -> Tensor:
    """Mean across the rows of each sample: (samples x D) for a batch, 1 x D
    for a single sample."""
    a = as_tensor(a)
    n = a.rows
    x = a.value.reshape(-1, n, a.cols)
    value = x.mean(axis=1)

    def vjp(g: Array) -> None:
        _accumulate(a, np.broadcast_to((g / n)[:, None, :], x.shape).reshape(a.shape))

    return _node(value, (a,), vjp)


def sum_all(a) -> Tensor:
    a = as_tensor(a)

    def vjp(g: Array) -> None:
        _accumulate(a, np.broadcast_to(g, a.shape))

    return _node(a.value.sum(), (a,), vjp)


def mean_all(a) -> Tensor:
    a = as_tensor(a)
    return scale(sum_all(a), 1.0 / a.value.size)


def causal_mix(a, w) -> Tensor:
    """Causal lag mixing: y[t] = sum_tau w[tau] * x[t - tau], zero-padded past.

    Every sample starts from its own zero-padded past, so no history crosses
    from one sample into the next.
    """
    a, w = as_tensor(a), as_tensor(w)
    if w.value.ndim != 1:
        raise DimensionError(f"causal_mix weights must be a vector, got shape {w.shape}")
    t_len = a.rows
    x = a.value.reshape(-1, t_len, a.cols)
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
    """y = x W (+ b broadcast per row), fused into one graph node; a batch
    ``x`` runs as one (samples*rows x K) BLAS product."""
    x, w = as_tensor(x), as_tensor(w)
    if x.value.ndim not in (2, 3) or w.value.ndim != 2 or x.cols != w.rows:
        raise DimensionError(
            f"linear: input is {x.shape}, weight is {w.shape}; inner dims must match"
        )
    if b is not None:
        b = as_tensor(b)
        if b.value.ndim != 1 or b.value.shape[0] != w.cols:
            raise DimensionError(
                f"linear: bias has shape {b.shape}, weight produces {w.cols} columns"
            )
    flat = x.value.reshape(-1, w.rows)
    value = flat @ w.value if b is None else flat @ w.value + b.value

    def vjp(g: Array) -> None:
        g = g.reshape(-1, w.cols)
        _accumulate(x, (g @ w.value.T).reshape(x.shape))
        _accumulate(w, flat.T @ g)
        if b is not None:
            _accumulate(b, g.sum(axis=0))

    parents = (x, w) if b is None else (x, w, b)
    return _node(value.reshape(x.shape[:-1] + (w.cols,)), parents, vjp)


def layer_norm(x, gamma, beta, eps: float = LAYER_NORM_EPS) -> Tensor:
    """Per-row normalization to mean 0 / variance 1, then scale and shift."""
    if eps <= 0:
        raise ValueError(f"layer_norm eps must be positive, got {eps}")
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.value.ndim not in (2, 3):
        raise DimensionError(f"layer_norm expects a matrix or a batch, got shape {x.shape}")
    d = x.cols
    if gamma.value.shape != (d,) or beta.value.shape != (d,):
        raise DimensionError(
            f"layer_norm: input has {d} columns but gamma/beta have shapes "
            f"{gamma.shape}/{beta.shape}"
        )
    value, saved = _layer_norm_forward(x.value.reshape(-1, d), gamma.value, beta.value, eps)

    def vjp(g: Array) -> None:
        dx, dgamma, dbeta = _layer_norm_backward(g.reshape(-1, d), saved, gamma.value)
        _accumulate(gamma, dgamma)
        _accumulate(beta, dbeta)
        _accumulate(x, dx.reshape(x.shape))

    return _node(value.reshape(x.shape), (x, gamma, beta), vjp)


def softmax(x) -> Tensor:
    """Softmax of a vector; shift-invariant and overflow-safe."""
    x = as_tensor(x)
    if x.value.ndim != 1:
        raise DimensionError(f"softmax expects a vector, got shape {x.shape}")
    if x.value.size == 0:
        raise ValueError("softmax of an empty vector is undefined")
    y = _softmax_inplace(x.value.copy())

    def vjp(g: Array) -> None:
        _accumulate(x, y * (g - float(np.dot(g, y))))

    return _node(y, (x,), vjp)


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
    with np.errstate(under="ignore"):  # softplus(z) rounds to exactly 0 for z << 0
        value = np.logaddexp(0.0, z).sum() - z @ t  # softplus(z) - z * t

    def vjp(g: Array) -> None:
        sigmoid = 0.5 * np.tanh(0.5 * z) + 0.5  # cannot overflow, unlike 1/(1+exp(-z))
        _accumulate(logit, (g * (sigmoid - t)).reshape(logit.shape))

    return _node(value, (logit,), vjp)


def softmax_cross_entropy(scores, target_index) -> Tensor:
    """Cross-entropy of score vectors against true class indices.

    For one int index, ``scores`` is one vector-like tensor. For a sequence
    of B indices it holds B equal-length score vectors in row-major order:
    as B rows, as one column, or as a (B x T x 1) batch of per-frame
    scores. The result is the sum of their losses.
    """
    scores = as_tensor(scores)
    targets = np.asarray(target_index).reshape(-1)
    n_rows = targets.size
    shape = scores.shape
    if (len(shape) == 3 or len(shape) == 2 and shape[1] != 1) and shape[0] != n_rows:
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
        _accumulate(scores, (g * p).reshape(shape))

    return _node(value, (scores,), vjp)


# ---------------------------------------------------------------------------
# parameters


class Param:
    """One named parameter, a view into its set's flat buffer. Assigning to
    ``value`` copies into the buffer and refuses a change of shape."""

    def __init__(self, name: str, value: Array):
        self.name, self._value = name, value

    @property
    def value(self) -> Array:
        return self._value

    @value.setter
    def value(self, new) -> None:
        new = np.asarray(new, dtype=np.float64)
        if new.shape != self._value.shape:
            raise DimensionError(f"param {self.name!r} is {self._value.shape}, not {new.shape}")
        self._value[...] = new


class Leaves(dict):
    """Leaf tensors by name; ``grad`` is the flat array their grads view, if any."""

    grad: Array | None = None


class ParamSet:
    """Named parameters in one flat float64 buffer, ``values``, in the order
    they were added; each ``Param`` is a view into it. ``frozen`` marks the
    whole set immutable: its leaves track no gradients and no optimizer may
    step it."""

    def __init__(self):
        self.values = np.zeros(0)
        self.frozen = False
        self._params: dict[str, Param] = {}

    def add(self, name: str, value) -> None:
        """Append a copy of ``value``; every view moves to the grown buffer."""
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name!r}")
        value = np.asarray(value, dtype=np.float64)
        self.values = np.concatenate([self.values, value.ravel()])
        self._params[name] = Param(name, value)
        for p, view in zip(self._params.values(), self._views(self.values)):
            p._value = view

    def _views(self, flat: Array) -> Iterator[Array]:
        """One view into ``flat``, laid out like ``values``, per parameter."""
        offset = 0
        for p in self._params.values():
            yield flat[offset : offset + p.value.size].reshape(p.value.shape)
            offset += p.value.size

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def as_tensors(self, train: bool = True) -> Leaves:
        """Leaf tensors over this set's views. With ``train`` on an unfrozen
        set each leaf's grad is preset to its view of one zeroed flat array,
        the mapping's ``grad``, so backward accumulates straight into it."""
        track = train and not self.frozen
        leaves = Leaves((n, Tensor(p.value, requires_grad=track)) for n, p in self._params.items())
        if track:
            leaves.grad = np.zeros_like(self.values)
            for leaf, grad in zip(leaves.values(), self._views(leaves.grad)):
                leaf.grad = grad
        return leaves

    def checksum(self) -> str:
        """SHA-256 over all parameter bytes; bit-identical params give equal sums."""
        h = hashlib.sha256()
        for name in sorted(self._params):
            p = self._params[name]
            h.update(name.encode())
            h.update(str(p.value.shape).encode())
            h.update(np.ascontiguousarray(p.value).tobytes())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# encoder layer


# The encoder layer's parameters in ParamSet order: name, shape over the
# model width "d" and the feed-forward width "f", and initial value ("w" for
# N(0, WEIGHT_INIT_STD) weights, else a fill). A layer reads its leaves as
# ``leaves[prefix + name]``. The key projection carries no bias: a shared key
# offset shifts every score in a row equally, which softmax ignores, so its
# gradient is identically zero.
ENCODER_PARAM_LAYOUT = (
    ("wq", "dd", "w"), ("bq", "d", 0.0), ("wk", "dd", "w"),
    ("wv", "dd", "w"), ("bv", "d", 0.0), ("wo", "dd", "w"), ("bo", "d", 0.0),
    ("ffn_w1", "df", "w"), ("ffn_b1", "f", 0.0), ("ffn_w2", "fd", "w"), ("ffn_b2", "d", 0.0),
    ("ln1_gamma", "d", 1.0), ("ln1_beta", "d", 0.0), ("ln2_gamma", "d", 1.0), ("ln2_beta", "d", 0.0),
)
ENCODER_PARAM_FIELDS = tuple(name for name, _, _ in ENCODER_PARAM_LAYOUT)


@functools.cache  # every graph checks its layers' shapes
def _encoder_shapes(d: int, d_ff: int) -> dict[str, tuple[int, ...]]:
    """The shape of each encoder parameter by name, in layout order."""
    return {
        name: tuple(d if dim == "d" else d_ff for dim in dims)
        for name, dims, _ in ENCODER_PARAM_LAYOUT
    }


def _layer_leaves(x: Tensor, leaves: Mapping, prefix: str, n_heads: int) -> dict[str, Tensor]:
    """One encoder layer's leaves by layout name, checked against each other,
    ``n_heads`` and the input ``x``: the fused layer runs its kernels without
    per-op shape checks."""
    p = {name: leaves[prefix + name] for name in ENCODER_PARAM_FIELDS}
    d = (p["wq"].value.shape or (0,))[0]
    d_ff = (p["ffn_w1"].value.shape or (0,))[-1]
    for name, shape in _encoder_shapes(d, d_ff).items():
        if p[name].value.shape != shape:
            raise DimensionError(f"{prefix}{name} must have shape {shape}, got {p[name].shape}")
    if n_heads < 1 or d % n_heads != 0:
        raise DimensionError(f"model width {d} is not divisible by {n_heads} heads")
    if x.value.ndim not in (2, 3) or x.cols != d:
        raise DimensionError(f"input of shape {x.shape} does not match layer width {d}")
    return p


def init_encoder_layer_arrays(rng: np.random.Generator, d: int, d_ff: int) -> dict[str, Array]:
    """Fresh per-layer arrays in layout order: N(0, 0.02) weights drawn in
    that order, zero biases/beta, unit gamma."""
    shapes = _encoder_shapes(d, d_ff)
    return {
        name: rng.normal(0.0, WEIGHT_INIT_STD, size=shapes[name]) if init == "w"
        else np.full(shapes[name], init)
        for name, _, init in ENCODER_PARAM_LAYOUT
    }


def scaled_dot_attention(q, k, v, n_heads: int, weights_out: list | None = None) -> Tensor:
    """Per-head softmax(Q Kt / sqrt(dh)) V with heads batched in one node.

    Inputs are full-width (T x D) projections, or (samples x T x D) batches
    of them; column block i holds head i. Each sample attends only within
    itself. Pass ``weights_out`` to capture the attention matrices (a debug
    path): one (heads x T x T) array is appended per sample, in sample
    order, and every row of every head sums to 1.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.value.ndim not in (2, 3) or k.shape != q.shape or v.shape != q.shape:
        raise DimensionError(
            f"attention projections disagree: q={q.shape}, k={k.shape}, v={v.shape}"
        )
    d = q.cols
    if d % n_heads != 0:
        raise DimensionError(f"width {d} is not divisible by {n_heads} heads")
    qkv = np.concatenate((q.value, k.value, v.value), axis=-1)
    out, saved = _attention_forward(qkv, n_heads, weights_out)

    def vjp(g: Array) -> None:
        d_qkv = _attention_backward(g.reshape(-1, d), saved).reshape(q.shape[:-1] + (3 * d,))
        _accumulate(q, d_qkv[..., :d])
        _accumulate(k, d_qkv[..., d : 2 * d])
        _accumulate(v, d_qkv[..., 2 * d :])

    return _node(out.reshape(q.shape), (q, k, v), vjp)


def multi_head_attention(
    x, leaves: Mapping[str, Tensor], prefix: str, n_heads: int, weights_out: list | None = None
) -> Tensor:
    """Scaled dot-product self-attention within each sample of ``x``, with
    the projections of the encoder layer whose leaves are
    ``leaves[prefix + name]``."""
    x = as_tensor(x)
    p = _layer_leaves(x, leaves, prefix, n_heads)
    q = linear(x, p["wq"], p["bq"])
    k = linear(x, p["wk"])
    v = linear(x, p["wv"], p["bv"])
    attended = scaled_dot_attention(q, k, v, n_heads, weights_out)
    return linear(attended, p["wo"], p["bo"])


def encoder_layer(
    x, leaves: Mapping[str, Tensor], prefix: str, n_heads: int,
    weights_out: list | None = None,
) -> Tensor:
    """One pre-norm transformer encoder layer over a (T x D) token sequence
    or a (samples x T x D) batch of them: attention, then feed-forward, each
    adds its output on its layer-normed input to that input. Only attention
    mixes rows, within each sample. The layer reads its parameters as
    ``leaves[prefix + name]`` for each name in ``ENCODER_PARAM_LAYOUT``.

    The layer is one graph node: the forward pass chains the numpy kernels
    on the batch flattened to (samples*T x D) and one analytic VJP covers
    the whole layer. It computes the same function as ``layer_norm``,
    ``multi_head_attention``, ``linear``, ``gelu`` and ``add`` composed,
    with Q, K and V in one product. ``weights_out`` receives one
    (heads x T x T) attention array per sample, as from
    ``scaled_dot_attention``.
    """
    x = as_tensor(x)
    layer = _layer_leaves(x, leaves, prefix, n_heads)
    p = {name: leaf.value for name, leaf in layer.items()}
    d = x.cols
    w_qkv = np.concatenate((p["wq"], p["wk"], p["wv"]), axis=1)
    b_qkv = np.concatenate((p["bq"], np.zeros_like(p["bq"]), p["bv"]))
    wo, w1, w2 = p["wo"], p["ffn_w1"], p["ffn_w2"]
    g1, g2 = p["ln1_gamma"], p["ln2_gamma"]
    xv = x.value.reshape(-1, d)

    # attention block
    attn_in, ln1 = _layer_norm_forward(xv, g1, p["ln1_beta"], LAYER_NORM_EPS)
    qkv = attn_in @ w_qkv
    qkv += b_qkv
    attended, attn_saved = _attention_forward(
        qkv.reshape(x.shape[:-1] + (3 * d,)), n_heads, weights_out
    )
    h = attended @ wo
    h += p["bo"]
    h += xv

    # feed-forward block
    ffn_in, ln2 = _layer_norm_forward(h, g2, p["ln2_beta"], LAYER_NORM_EPS)
    hidden = ffn_in @ w1
    hidden += p["ffn_b1"]
    act, gelu_saved = _gelu_forward(hidden)
    out = act @ w2
    out += p["ffn_b2"]
    out += h

    def vjp(g: Array) -> None:
        # d_out: gradient at the output, the second residual sum; d_h: at h, the first
        d_out = g.reshape(-1, d)
        d_hidden = _gelu_backward(d_out @ w2.T, hidden, gelu_saved)
        d_h = d_hidden @ w1.T
        grads = {
            "ffn_w2": act.T @ d_out, "ffn_b2": d_out.sum(axis=0),
            "ffn_w1": ffn_in.T @ d_hidden, "ffn_b1": d_hidden.sum(axis=0),
        }
        d_h, d_g2, d_be2 = _layer_norm_backward(d_h, ln2, g2)
        d_h += d_out
        d_qkv = _attention_backward(d_h @ wo.T, attn_saved)
        d_w_qkv = attn_in.T @ d_qkv
        d_b_qkv = d_qkv.sum(axis=0)
        d_x = d_qkv @ w_qkv.T
        d_x, d_g1, d_be1 = _layer_norm_backward(d_x, ln1, g1)
        d_x += d_h
        grads.update(
            wq=d_w_qkv[:, :d], wk=d_w_qkv[:, d : 2 * d], wv=d_w_qkv[:, 2 * d :],
            bq=d_b_qkv[:d], bv=d_b_qkv[2 * d :],
            wo=attended.T @ d_h, bo=d_h.sum(axis=0),
            ln1_gamma=d_g1, ln1_beta=d_be1, ln2_gamma=d_g2, ln2_beta=d_be2,
        )
        _accumulate(x, d_x.reshape(x.shape))
        for name, leaf in layer.items():
            _accumulate(leaf, grads[name])

    return _node(out.reshape(x.shape), (x, *layer.values()), vjp)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(
    f: Callable[[dict[str, Tensor]], Tensor],
    params: ParamSet,
    eps: float = 1e-5,
) -> float:
    """Compare analytic gradients of ``f`` against central differences.

    ``f`` maps leaf tensors (from ``params.as_tensors()``; a frozen
    ``params`` raises ``ContractViolationError``) to a scalar and must be
    pure. Each entry of ``params.values`` is perturbed in turn. Returns the max over checked entries of
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).

    An entry whose analytic and numeric values both lie below the central
    difference's roundoff floor, |f| * 2**-50 / eps (a few units of roundoff
    in f over eps), agrees with a zero gradient to within roundoff and counts
    as 0; every other entry is judged by the relative measure.
    """
    if params.frozen:
        raise ContractViolationError("grad_check on a frozen parameter set")
    leaves = params.as_tensors()
    out = f(leaves)
    base = float(out.value)
    if not math.isfinite(base):
        raise ValueError(f"function is non-finite at the base point: {base}")
    out.backward()

    def eval_plain() -> float:
        return float(f(params.as_tensors(train=False)).value)

    floor = abs(base) * 2.0**-50 / eps
    worst = 0.0
    values = params.values
    for i, ana in enumerate(leaves.grad.tolist()):
        original = values[i]
        values[i] = original + eps
        f_plus = eval_plain()
        values[i] = original - eps
        f_minus = eval_plain()
        values[i] = original
        numeric = (f_plus - f_minus) / (2.0 * eps)
        if max(abs(ana), abs(numeric)) < floor:
            continue
        rel = abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst
