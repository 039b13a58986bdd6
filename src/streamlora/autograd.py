"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

The whole training stack runs on this module: a `Value` wraps an ndarray,
operations build a graph of parent links and backward closures, and
`backward` walks the graph once in reverse topological order. The graph is
rebuilt on every forward pass; nothing persists between steps except the
leaf tensors themselves.

Design choices that matter for correctness:

* everything is float64, always. Mixed precision buys nothing at this scale
  and float64 keeps finite-difference checks tight.
* gradients accumulate with `+=`. Running backward on two graphs that share
  a leaf sums their contributions; callers reset with `zero_grad` between
  steps.
* softmax subtracts the row max before exponentiating. The max is treated
  as a constant, which is exact because softmax is shift invariant.
* backward closures receive the output node as an argument instead of
  capturing it, so the graph has no reference cycles and plain refcounting
  frees it as soon as the caller drops the root.
"""

from __future__ import annotations

import hashlib
import io
import struct
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

Array = np.ndarray

# ---------------------------------------------------------------------------
# grad mode
# ---------------------------------------------------------------------------

_grad_enabled = [True]


class no_grad:
    """Context manager that disables graph construction.

    Inside the block every op returns a plain constant `Value`. Used for
    evaluation passes and for the loss re-evaluations inside
    `finite_diff_grad`, where building a graph would only cost time.
    """

    def __enter__(self) -> "no_grad":
        self._prev = _grad_enabled[0]
        _grad_enabled[0] = False
        return self

    def __exit__(self, *exc) -> None:
        _grad_enabled[0] = self._prev


# ---------------------------------------------------------------------------
# Value
# ---------------------------------------------------------------------------


class Value:
    """A dense float64 tensor node in the autodiff graph.

    `data` is the forward value, `grad` the accumulated adjoint (lazily
    allocated, `None` until something writes to it), `requires_grad` marks
    leaves the optimizer owns and any node downstream of one.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data: Array = arr
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Value, ...] = ()
        self._backward: Callable[[Value], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def accumulate_grad(self, g: Array) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def detach(self) -> "Value":
        """Same data, no history. Gradients never flow through the result."""
        return Value(self.data)

    def item(self) -> float:
        return float(self.data)

    # operator sugar -------------------------------------------------------

    def __add__(self, other) -> "Value":
        return add(self, _as_value(other))

    def __radd__(self, other) -> "Value":
        return add(_as_value(other), self)

    def __sub__(self, other) -> "Value":
        return sub(self, _as_value(other))

    def __rsub__(self, other) -> "Value":
        return sub(_as_value(other), self)

    def __mul__(self, other) -> "Value":
        return mul(self, _as_value(other))

    def __rmul__(self, other) -> "Value":
        return mul(_as_value(other), self)

    def __neg__(self) -> "Value":
        return neg(self)

    def __matmul__(self, other) -> "Value":
        return matmul(self, _as_value(other))

    def __truediv__(self, other) -> "Value":
        if isinstance(other, Value):
            raise TypeError("divide by a python scalar, or use powi for tensors")
        return mul(self, Value(1.0 / float(other)))

    def __repr__(self) -> str:
        return f"Value(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _as_value(x) -> Value:
    return x if isinstance(x, Value) else Value(x)


def _make_node(data: Array, parents: Sequence[Value], backward: Callable[[Value], None]) -> Value:
    out = Value(data)
    if _grad_enabled[0] and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum `g` down to `shape`, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    squeeze = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if squeeze:
        g = g.sum(axis=squeeze, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# arithmetic ops
# ---------------------------------------------------------------------------


def add(a: Value, b: Value) -> Value:
    data = a.data + b.data

    def backward(out: Value) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(out.grad, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(out.grad, b.data.shape))

    return _make_node(data, (a, b), backward)


def sub(a: Value, b: Value) -> Value:
    data = a.data - b.data

    def backward(out: Value) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(out.grad, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(-_unbroadcast(out.grad, b.data.shape))

    return _make_node(data, (a, b), backward)


def neg(a: Value) -> Value:
    def backward(out: Value) -> None:
        if a.requires_grad:
            a.accumulate_grad(-out.grad)

    return _make_node(-a.data, (a,), backward)


def mul(a: Value, b: Value) -> Value:
    data = a.data * b.data

    def backward(out: Value) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(out.grad * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(out.grad * a.data, b.data.shape))

    return _make_node(data, (a, b), backward)


def matmul(a: Value, b: Value) -> Value:
    """Matrix product for 1-D and 2-D operands, numpy `@` semantics."""
    if a.data.ndim == 0 or b.data.ndim == 0:
        raise ValueError("matmul requires 1-D or 2-D operands")
    if a.data.ndim > 2 or b.data.ndim > 2:
        raise ValueError("matmul supports at most 2-D operands")
    data = a.data @ b.data

    def backward(out: Value) -> None:
        g = out.grad
        ad, bd = a.data, b.data
        if a.requires_grad:
            if ad.ndim == 1 and bd.ndim == 1:
                ga = g * bd
            elif ad.ndim == 1:  # (k,) @ (k,n) -> (n,)
                ga = bd @ g
            elif bd.ndim == 1:  # (m,k) @ (k,) -> (m,)
                ga = np.outer(g, bd)
            else:
                ga = g @ bd.T
            a.accumulate_grad(ga)
        if b.requires_grad:
            if ad.ndim == 1 and bd.ndim == 1:
                gb = g * ad
            elif ad.ndim == 1:
                gb = np.outer(ad, g)
            elif bd.ndim == 1:
                gb = ad.T @ g
            else:
                gb = ad.T @ g
            b.accumulate_grad(gb)

    return _make_node(data, (a, b), backward)


def transpose(a: Value) -> Value:
    if a.data.ndim != 2:
        raise ValueError("transpose expects a 2-D value")

    def backward(out: Value) -> None:
        if a.requires_grad:
            a.accumulate_grad(out.grad.T)

    return _make_node(a.data.T, (a,), backward)


def powi(a: Value, exponent: float) -> Value:
    """Elementwise power with a constant exponent."""
    data = a.data ** exponent

    def backward(out: Value) -> None:
        if a.requires_grad:
            a.accumulate_grad(out.grad * exponent * a.data ** (exponent - 1.0))

    return _make_node(data, (a,), backward)


def tanh(a: Value) -> Value:
    data = np.tanh(a.data)

    def backward(out: Value) -> None:
        if a.requires_grad:
            a.accumulate_grad(out.grad * (1.0 - out.data ** 2))

    return _make_node(data, (a,), backward)


def log(a: Value, floor: float | None = None) -> Value:
    """Natural log, optionally clamping the argument below at `floor`.

    With a floor the gradient is 1/clamped everywhere, so tiny inputs get
    a large but finite pull instead of an inf. Without a floor the input
    must be strictly positive.
    """
    if floor is None:
        if np.any(a.data <= 0.0):
            raise ValueError("log of non-positive value; pass floor= to clamp")
        clamped = a.data
    else:
        clamped = np.maximum(a.data, floor)
    data = np.log(clamped)

    def backward(out: Value) -> None:
        if a.requires_grad:
            a.accumulate_grad(out.grad / clamped)

    return _make_node(data, (a,), backward)


def mean(a: Value, axis: int | None = None, keepdims: bool = False) -> Value:
    count = a.data.size if axis is None else a.data.shape[axis]
    data = a.data.sum(axis=axis, keepdims=keepdims) / count   # the bits of ndarray.mean

    def backward(out: Value) -> None:
        if not a.requires_grad:
            return
        g = out.grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a.accumulate_grad(np.broadcast_to(g, a.data.shape) / count)

    return _make_node(data, (a,), backward)


def vsum(a: Value, axis: int | None = None, keepdims: bool = False) -> Value:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(out: Value) -> None:
        if not a.requires_grad:
            return
        g = out.grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a.accumulate_grad(np.broadcast_to(g, a.data.shape).copy())

    return _make_node(data, (a,), backward)


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------


def concat(values: Sequence[Value], axis: int = 0) -> Value:
    if not values:
        raise ValueError("concat of an empty sequence")
    data = np.concatenate([v.data for v in values], axis=axis)
    sizes = [v.data.shape[axis] for v in values]

    def backward(out: Value) -> None:
        offset = 0
        for v, n in zip(values, sizes):
            if v.requires_grad:
                index = [slice(None)] * out.grad.ndim
                index[axis] = slice(offset, offset + n)
                v.accumulate_grad(out.grad[tuple(index)])
            offset += n

    return _make_node(data, tuple(values), backward)


def take_rows(table: Value, ids: Sequence[int]) -> Value:
    """Row lookup, the embedding primitive. Backward scatters into rows."""
    idx = np.asarray(ids, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("take_rows expects a non-empty 1-D index list")
    if idx.min() < 0 or idx.max() >= table.data.shape[0]:
        raise ValueError(f"row index out of range for table with {table.data.shape[0]} rows")
    data = table.data[idx]

    def backward(out: Value) -> None:
        if table.requires_grad:
            g = np.zeros_like(table.data)
            np.add.at(g, idx, out.grad)
            table.accumulate_grad(g)

    return _make_node(data, (table,), backward)


def cols(a: Value, start: int, stop: int) -> Value:
    """Contiguous slice along the last axis."""
    data = a.data[..., start:stop]

    def backward(out: Value) -> None:
        if a.requires_grad:
            g = np.zeros_like(a.data)
            g[..., start:stop] = out.grad
            a.accumulate_grad(g)

    return _make_node(data, (a,), backward)


def pick(a: Value, index: int) -> Value:
    """Single element of a 1-D value, as a scalar."""
    if a.data.ndim != 1:
        raise ValueError("pick expects a 1-D value")
    data = np.asarray(a.data[index])

    def backward(out: Value) -> None:
        if a.requires_grad:
            g = np.zeros_like(a.data)
            g[index] = out.grad
            a.accumulate_grad(g)

    return _make_node(data, (a,), backward)


def detach(a: Value) -> Value:
    return a.detach()


# ---------------------------------------------------------------------------
# softmax family
# ---------------------------------------------------------------------------


def masked_softmax_np(logits: Array, mask: Array | None) -> Array:
    """Plain-numpy masked softmax along the last axis.

    The forward half of the `masked_softmax` op. Masked-out entries are
    exactly 0 in the output; `mask` broadcasts against the logits.
    """
    x = np.asarray(logits, dtype=np.float64)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if not mask.any(axis=-1).all():
            raise ValueError("empty routing subset")
        x = np.where(mask, x, -np.inf)          # exp(-inf - max) is exactly 0
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def masked_softmax(logits: Value, mask: Array | None = None) -> Value:
    """Softmax along the last axis restricted to `mask`.

    Entries where the mask is false come out exactly 0 and receive exactly
    zero gradient; the normalization runs over the masked entries only.
    A row with no admissible entry raises.
    """
    data = masked_softmax_np(logits.data, mask)

    def backward(out: Value) -> None:
        if not logits.requires_grad:
            return
        y = out.data
        g = out.grad
        dot = (g * y).sum(axis=-1, keepdims=True)
        logits.accumulate_grad(y * (g - dot))

    return _make_node(data, (logits,), backward)


def softmax(logits: Value) -> Value:
    return masked_softmax(logits, None)


def cross_entropy(logits: Value, target: int) -> Value:
    """Negative log-likelihood of `target` under softmax(logits).

    Computed as logsumexp(logits) - logits[target]; the backward pass is
    the classic softmax-minus-onehot.
    """
    x = logits.data
    if x.ndim != 1:
        raise ValueError("cross_entropy expects 1-D logits")
    if not 0 <= target < x.shape[0]:
        raise ValueError(f"target {target} out of range for {x.shape[0]} classes")
    m = x.max()
    lse = m + np.log(np.exp(x - m).sum())
    data = np.asarray(lse - x[target])

    def backward(out: Value) -> None:
        if not logits.requires_grad:
            return
        p = np.exp(x - m)
        p /= p.sum()
        p[target] -= 1.0
        logits.accumulate_grad(out.grad * p)

    return _make_node(data, (logits,), backward)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def backward(root: Value) -> None:
    """Reverse-mode sweep from a scalar root.

    Gradients are accumulated into `.grad` of every reachable node that
    requires grad; leaves keep theirs until `zero_grad`. The traversal is
    iterative, so graph depth is not limited by the recursion limit.
    """
    if root.data.shape != ():
        raise ValueError(f"backward needs a scalar root, got shape {root.data.shape}")
    if not root.requires_grad:
        raise ValueError("root does not require grad; nothing to differentiate")

    topo: list[Value] = []
    visited: set[int] = set()
    stack: list[tuple[Value, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    root.accumulate_grad(np.ones_like(root.data))
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node)


# ---------------------------------------------------------------------------
# parameter store and checkpoints
# ---------------------------------------------------------------------------


class ParamStore:
    """Ordered, named collection of trainable leaves.

    Paths are dotted strings like ``layer.0.attn_out.expert.1.A``. Iteration
    follows insertion order, which is fixed by model construction and hence
    stable across runs with the same configuration.
    """

    def __init__(self) -> None:
        self._params: dict[str, Value] = {}

    def add(self, path: str, value: Value) -> Value:
        if path in self._params:
            raise ValueError(f"duplicate parameter path: {path}")
        if not path:
            raise ValueError("empty parameter path")
        value.requires_grad = True
        self._params[path] = value
        return value

    def __contains__(self, path: str) -> bool:
        return path in self._params

    def __getitem__(self, path: str) -> Value:
        if path not in self._params:
            raise KeyError(f"unknown parameter path: {path}")
        return self._params[path]

    def __len__(self) -> int:
        return len(self._params)

    def paths(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Value]]:
        return iter(self._params.items())

    def values(self) -> Iterator[Value]:
        return iter(self._params.values())

    def zero_grad(self) -> None:
        for v in self._params.values():
            v.grad = None

    def n_scalars(self) -> int:
        return sum(v.data.size for v in self._params.values())

    def state_arrays(self) -> dict[str, Array]:
        return {path: v.data for path, v in self._params.items()}

    def save(self, path, extra: dict[str, Array] | None = None) -> None:
        records = dict(self.state_arrays())
        if extra:
            overlap = set(records) & set(extra)
            if overlap:
                raise ValueError(f"extra records collide with parameter paths: {sorted(overlap)}")
            records.update(extra)
        save_checkpoint(path, records)

    def load(self, path) -> dict[str, Array]:
        """Restore parameter data in place; returns any non-parameter records."""
        records = load_checkpoint(path)
        leftovers: dict[str, Array] = {}
        seen = set()
        for name, arr in records.items():
            if name in self._params:
                p = self._params[name]
                if arr.shape != p.data.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: checkpoint {arr.shape} vs model {p.data.shape}"
                    )
                p.data = arr
                seen.add(name)
            else:
                leftovers[name] = arr
        missing = set(self._params) - seen
        if missing:
            raise ValueError(f"checkpoint is missing parameters: {sorted(missing)[:5]}")
        return leftovers


_CKPT_MAGIC = b"SLCKPT01"


def save_checkpoint(path, records: dict[str, Array]) -> None:
    """Write named float64 arrays to a flat binary file.

    Layout: magic, uint32 record count, then per record a uint32 name
    length, the UTF-8 name, uint32 ndim, uint32 dims, and the row-major
    float64 payload. Everything little-endian; round-trips bit-exactly.
    """
    buf = io.BytesIO()
    buf.write(_CKPT_MAGIC)
    buf.write(struct.pack("<I", len(records)))
    for name, arr in records.items():
        arr = np.asarray(arr, dtype=np.float64, order="C")
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<I", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<I", arr.ndim))
        for d in arr.shape:
            buf.write(struct.pack("<I", d))
        buf.write(arr.tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_checkpoint(path) -> dict[str, Array]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != _CKPT_MAGIC:
        raise ValueError("not a checkpoint file (bad magic)")
    off = 8
    (count,) = struct.unpack_from("<I", raw, off)
    off += 4
    records: dict[str, Array] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", raw, off)
        off += 4
        name = raw[off : off + name_len].decode("utf-8")
        off += name_len
        (ndim,) = struct.unpack_from("<I", raw, off)
        off += 4
        shape = struct.unpack_from(f"<{ndim}I", raw, off) if ndim else ()
        off += 4 * ndim
        n = int(np.prod(shape)) if ndim else 1
        arr = np.frombuffer(raw, dtype="<f8", count=n, offset=off).reshape(shape).copy()
        off += 8 * n
        records[name] = arr
    return records


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def finite_diff_grad(
    f: Callable[[], float],
    params: Iterable[Value] | ParamStore,
    epsilon: float = 1e-5,
) -> list[Array]:
    """Central-difference gradient of `f` w.r.t. each parameter tensor.

    `f` is re-evaluated with one coordinate nudged by +/- epsilon at a
    time, so the cost is 2x the total number of scalars. The parameters
    are restored exactly afterwards. Raises if `f` returns a non-finite
    value at any probe point.
    """
    if isinstance(params, ParamStore):
        tensors = list(params.values())
    else:
        tensors = list(params)
    grads: list[Array] = []
    for t in tensors:
        g = np.zeros_like(t.data)
        for idx in np.ndindex(t.data.shape):
            orig = t.data[idx]
            t.data[idx] = orig + epsilon
            f_plus = float(f())
            t.data[idx] = orig - epsilon
            f_minus = float(f())
            t.data[idx] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise ValueError("objective returned a non-finite value during probing")
            g[idx] = (f_plus - f_minus) / (2.0 * epsilon)
        grads.append(g)
    return grads


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------


def named_rng(seed: int, *names: str) -> np.random.Generator:
    """Counter-based generator for an independent named stream.

    Philox keyed by (seed, sha256(name)...) gives streams that are stable
    across runs and independent of how many other streams exist, so adding
    or removing a consumer never shifts anyone else's draws.
    """
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for name in names:
        digest = hashlib.sha256(name.encode("utf-8")).digest()
        entropy.append(int.from_bytes(digest[:8], "little"))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
