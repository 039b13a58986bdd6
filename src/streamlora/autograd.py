"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

The whole training stack runs on this module: a `Value` wraps an ndarray,
operations build a graph of parent links and backward closures, and
`backward` walks the graph once in reverse topological order. Each closure
is a pure function of its node's output gradient that returns one
gradient per parent (`None` for a parent that does not require grad);
only `backward` stores and sums them. The graph is rebuilt on every
forward pass; nothing persists between steps except the leaf tensors
themselves.

Design choices that matter for correctness:

* everything is float64, always. Mixed precision buys nothing at this scale
  and float64 keeps finite-difference checks tight.
* leaves accumulate gradients with `+=`. Running backward on two graphs
  that share a leaf sums their contributions; callers reset with
  `zero_grad` between steps. An interior node's gradient lives only while
  the sweep needs it: `backward` drops it once the node has passed it on.
* softmax subtracts the row max before exponentiating. The max is treated
  as a constant, which is exact because softmax is shift invariant.
* backward closures capture their parents and arrays, never their output
  node, so the graph has no reference cycles and plain refcounting frees
  it as soon as the caller drops the root.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import struct
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

Array = np.ndarray
Grads = Sequence[Array | None]          # a closure's gradients, one per parent
Backward = Callable[[Array], Grads]

# ---------------------------------------------------------------------------
# grad mode
# ---------------------------------------------------------------------------

_grad_enabled = [True]


class no_grad:
    """Context manager that disables graph construction.

    Inside the block every op returns a plain constant `Value`. Used for
    evaluation passes and for the probes `finite_diff_grad` evaluates,
    where building a graph would only cost time.
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

    `data` is the forward value and `requires_grad` marks leaves the
    optimizer owns and any node downstream of one. `grad` is the adjoint,
    `None` until a backward sweep writes it. A leaf (a node without `_parents`)
    accumulates it over backward sweeps until `zero_grad`; a leaf in a
    `ParamStore` holds a view of the store's zeroed gradient vector from
    the start, so one no path reached holds an exactly-zero `grad`, not
    `None`. An interior node holds it only during a sweep, from its first
    consumer's turn until its own closure runs.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data: Array = arr
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Value, ...] = ()
        self._backward: Backward | None = None

    def detach(self) -> "Value":
        """Same data, no history. Gradients never flow through the result."""
        return Value(self.data)

    # operator sugar -------------------------------------------------------

    def __add__(self, other) -> "Value":
        return add(self, _as_value(other))

    def __sub__(self, other) -> "Value":
        return sub(self, _as_value(other))

    def __mul__(self, other) -> "Value":
        return mul(self, _as_value(other))

    def __repr__(self) -> str:
        return f"Value(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _as_value(x) -> Value:
    return x if isinstance(x, Value) else Value(x)


def _make_node(data: Array, parents: Sequence[Value], backward: Backward) -> Value:
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

    def backward(g: Array) -> Grads:
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _make_node(data, (a, b), backward)


def sub(a: Value, b: Value) -> Value:
    data = a.data - b.data

    def backward(g: Array) -> Grads:
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                -_unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _make_node(data, (a, b), backward)


def mul(a: Value, b: Value) -> Value:
    data = a.data * b.data

    def backward(g: Array) -> Grads:
        return (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

    return _make_node(data, (a, b), backward)


def matmul(a: Value, b: Value) -> Value:
    """Matrix product with `np.matmul` semantics over operands of at least
    two dimensions: the last two axes multiply, leading axes broadcast."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(f"matmul requires operands of at least two dimensions, "
                         f"got shapes {a.data.shape} and {b.data.shape}")
    data = np.matmul(a.data, b.data)

    def backward(g: Array) -> Grads:
        ad, bd = a.data, b.data
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape)
        if b.requires_grad:
            if bd.ndim == 2 and ad.ndim > 2:     # one product over every leading axis
                gb = ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = _unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape)
        return ga, gb

    return _make_node(data, (a, b), backward)


def transpose(a: Value, axis1: int = -1, axis2: int = -2) -> Value:
    """Swap two axes, by default the last two."""
    if a.data.ndim < 2:
        raise ValueError("transpose expects a value of at least two dimensions")
    return _make_node(np.swapaxes(a.data, axis1, axis2), (a,), lambda g: (np.swapaxes(g, axis1, axis2),))


def reshape(a: Value, shape: tuple[int, ...]) -> Value:
    return _make_node(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


def powi(a: Value, exponent: float) -> Value:
    """Elementwise power with a constant exponent."""
    return _make_node(a.data ** exponent, (a,), lambda g: (g * exponent * a.data ** (exponent - 1.0),))


def tanh(a: Value) -> Value:
    data = np.tanh(a.data)
    return _make_node(data, (a,), lambda g: (g * (1.0 - data ** 2),))


def log(a: Value, floor: float) -> Value:
    """Natural log of the argument clamped below at `floor`.

    The gradient is 1/clamped everywhere, so tiny inputs get a large but
    finite pull instead of an inf.
    """
    clamped = np.maximum(a.data, floor)
    return _make_node(np.log(clamped), (a,), lambda g: (g / clamped,))


def mean(a: Value, axis: int | None = None, keepdims: bool = False) -> Value:
    count = a.data.size if axis is None else a.data.shape[axis]
    data = a.data.sum(axis=axis, keepdims=keepdims) / count   # the bits of ndarray.mean
    return _make_node(data, (a,), lambda g: (_spread(g, a.data.shape, axis, keepdims) / count,))


def vsum(a: Value, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> Value:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    return _make_node(data, (a,), lambda g: (_spread(g, a.data.shape, axis, keepdims),))


def _spread(g: Array, shape: tuple[int, ...], axis, keepdims: bool) -> Array:
    """A read-only view of a reduction's gradient `g` broadcast back over
    the reduced `axis` to the input's `shape`."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------


def concat(values: Sequence[Value], axis: int = 0) -> Value:
    """Join along `axis`. Operands that differ off that axis broadcast as
    in elementwise ops (the axis must then be negative), so a (k, d) value
    joins a (B, k', d) one along axis -2 as if repeated B times; the
    backward sums each operand's slice back down to its shape."""
    if not values:
        raise ValueError("concat of an empty sequence")
    arrays = [v.data for v in values]
    try:
        data = np.concatenate(arrays, axis=axis)
    except ValueError as exc:
        # only a negative axis names the same axis in operands of any rank
        if axis >= 0 or isinstance(exc, np.exceptions.AxisError):
            raise
        data = np.concatenate(_broadcast_off_axis(arrays, axis), axis=axis)
    sizes = [a.shape[axis] for a in arrays]

    def backward(g: Array) -> Grads:
        grads, offset = [], 0
        for v, n in zip(values, sizes):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offset, offset + n)
            grads.append(_unbroadcast(g[tuple(index)], v.data.shape) if v.requires_grad else None)
            offset += n
        return grads

    return _make_node(data, tuple(values), backward)


def _broadcast_off_axis(arrays: list[Array], axis: int) -> list[Array]:
    """Broadcast every axis of `arrays` but the negative `axis`."""
    common = np.broadcast_shapes(*(a.shape[:axis] + a.shape[axis:][1:] for a in arrays))
    cut = len(common) + axis + 1
    return [np.broadcast_to(a, common[:cut] + (a.shape[axis],) + common[cut:]) for a in arrays]


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
    return _make_node(data, (logits,), lambda g: (data * (g - (g * data).sum(axis=-1, keepdims=True)),))


def softmax(logits: Value) -> Value:
    return masked_softmax(logits, None)


def cross_entropy(logits: Value, target) -> Value:
    """Negative log-likelihood of `target` under softmax(logits) along the
    last axis: (..., B, C) logits with B targets give the (..., B) per-row
    losses, the targets shared by every leading index of the logits.

    Computed as logsumexp(logits) - logits[target]; the backward pass is
    the classic softmax-minus-onehot.
    """
    x = logits.data
    t = np.asarray(target, dtype=np.intp)
    if x.ndim <= t.ndim or t.shape != x.shape[x.ndim - 1 - t.ndim : -1]:
        raise ValueError(f"{t.size} targets for logits of shape {x.shape}")
    if t.size and not (0 <= t.min() and t.max() < x.shape[-1]):
        raise ValueError(f"target out of range for {x.shape[-1]} classes")
    onehot = np.arange(x.shape[-1]) == t[..., None]
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    total = e.sum(axis=-1, keepdims=True)
    picked = np.take_along_axis(x, np.broadcast_to(t[..., None], x.shape[:-1] + (1,)), axis=-1)
    data = (m + np.log(total) - picked)[..., 0]
    return _make_node(data, (logits,), lambda g: (g[..., None] * (e / total - onehot),))


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def backward(root: Value) -> None:
    """Reverse-mode sweep from a scalar root.

    The root's gradient is ones; a leaf root adds them like any leaf.
    Then each interior node, in reverse topological order, hands its
    gradient to its closure and is released (`grad` back to `None`), so
    at most the gradients of the sweep's frontier are alive at once; each
    gradient the closure returns goes to its parent (`_receive`). Every
    reachable leaf that requires grad thus gets its gradient added to
    `.grad`, where it accumulates until `zero_grad`. The traversal is
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

    _receive(root, np.ones_like(root.data))
    for node in reversed(topo):
        if node._backward is not None:
            g, node.grad = node.grad, None
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is not None:
                    _receive(parent, pg)


def _receive(node: Value, g: Array) -> None:
    """Add `g`, of `node`'s full shape, into `node.grad`. A leaf in a
    `ParamStore` adds it into its view of the store's gradient vector, and
    a standalone leaf starts from a copy of its first gradient, since a
    leaf's gradient outlives the sweep. An interior node adopts its first
    gradient and sums later ones out of place: one array may reach several
    nodes (`add` hands its own to both operands), so none is written to."""
    if node.grad is None:
        node.grad = g if node._parents else np.array(g, dtype=np.float64)
    elif node._parents:
        node.grad = node.grad + g
    else:
        node.grad += g


# ---------------------------------------------------------------------------
# parameter store and checkpoints
# ---------------------------------------------------------------------------


class ParamStore:
    """Ordered, named collection of trainable leaves in one flat state.

    Paths are dotted strings like ``layer.0.attn_out.expert.1.A``. The store
    is built once from `(path, leaf)` pairs, in the order model construction
    fixes, so iteration is stable across runs with the same configuration.
    Building it copies the leaves in that order into one float64 `vector`
    and allocates one zeroed `grad` vector beside it; each leaf's `data` and
    `grad` become reshaped views into the two. Write a leaf in place
    (`p.data[...] = x`): a leaf rebound to another array has left the store,
    and `flat` refuses it.
    """

    def __init__(self, leaves: Iterable[tuple[str, Value]] = ()) -> None:
        self._params: dict[str, Value] = {}
        for path, value in leaves:
            if path in self._params:
                raise ValueError(f"duplicate parameter path: {path}")
            if not path:
                raise ValueError("empty parameter path")
            self._params[path] = value
        self.vector = np.empty(sum(v.data.size for v in self._params.values()))
        self.grad = np.zeros_like(self.vector)
        offset = 0
        for v in self._params.values():
            end, shape = offset + v.data.size, v.data.shape
            self.vector[offset:end] = v.data.ravel()
            v.data = self.vector[offset:end].reshape(shape)
            v.grad = self.grad[offset:end].reshape(shape)
            v.requires_grad = True
            offset = end

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
        self.grad[...] = 0.0

    def flat(self) -> tuple[Array, Array]:
        """`vector` and `grad`, once every leaf is checked to still view them."""
        for path, v in self._params.items():
            if v.data.base is not self.vector or getattr(v.grad, "base", None) is not self.grad:
                raise ValueError(f"parameter {path} was rebound away from the store's flat state; "
                                 f"write its data and grad in place")
        return self.vector, self.grad

    def save(self, path, extra: dict[str, Array] | None = None) -> None:
        records = {name: v.data for name, v in self._params.items()}
        if extra:
            overlap = set(records) & set(extra)
            if overlap:
                raise ValueError(f"extra records collide with parameter paths: {sorted(overlap)}")
            records.update(extra)
        save_checkpoint(path, records)

    def load(self, path) -> dict[str, Array]:
        """Restore parameter data in place; returns any non-parameter records.
        Every parameter's record is checked before any is written, so a
        checkpoint that does not fit leaves the store as it was."""
        records = load_checkpoint(path)
        missing = sorted(set(self._params) - set(records))
        if missing:
            raise ValueError(f"checkpoint is missing parameters: {missing[:5]}")
        for name, p in self._params.items():
            if records[name].shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: checkpoint {records[name].shape} "
                                 f"vs model {p.data.shape}")
        for name, p in self._params.items():
            p.data[...] = records.pop(name)
        return records


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a temporary file next to `path` for writing; when the block
    ends without an error, the file replaces `path` in one step. If the
    block raises, the temporary file is removed and `path` keeps what it
    held before, so a reader never sees a partly written artifact."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_CKPT_MAGIC = b"SLCKPT01"


def save_checkpoint(path, records: dict[str, Array]) -> None:
    """Write named float64 arrays to a flat binary file.

    Layout: magic, uint32 record count, then per record a uint32 name
    length, the UTF-8 name, uint32 ndim, uint32 dims, and the row-major
    float64 payload. Everything little-endian; round-trips bit-exactly.
    The file is replaced atomically (`atomic_open`).
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
    with atomic_open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_checkpoint(path) -> dict[str, Array]:
    """Read a `save_checkpoint` file. A file cut anywhere (a shape too large
    for the file counts as a cut), carrying bytes after its last record,
    naming a record in bytes that are not UTF-8, or holding a NaN or
    infinity (which no run can save: training stops on a non-finite loss)
    raises `ValueError` naming the file and the part at fault."""
    with open(path, "rb") as fh:
        raw = fh.read()
    off = 0

    def take(size: int, what: str) -> bytes:
        nonlocal off
        if off + size > len(raw):
            raise ValueError(f"{path}: truncated at {what}: {size} bytes needed at offset {off}, "
                             f"{len(raw) - off} left")
        off += size
        return raw[off - size : off]

    def uint(what: str) -> int:
        return struct.unpack("<I", take(4, what))[0]

    if take(8, "the magic") != _CKPT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    count = uint("the record count")
    records: dict[str, Array] = {}
    for index in range(count):
        encoded = take(uint(f"record {index} name length"), f"record {index} name")
        try:
            name = encoded.decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: record {index} name is not valid UTF-8: {encoded!r}") from None
        ndim = uint(f"record {name!r} ndim")
        shape = tuple(uint(f"record {name!r} shape") for _ in range(ndim))
        payload = take(8 * math.prod(shape), f"record {name!r} payload")   # np.prod can overflow
        records[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        if not np.isfinite(records[name]).all():
            raise ValueError(f"{path}: record {name!r} holds non-finite values")
    if off != len(raw):
        raise ValueError(f"{path}: {len(raw) - off} trailing bytes after the last record")
    return records


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def finite_diff_grad(
    f: Callable[[int, Array], Array],
    params: Iterable[Value],
    epsilon: float = 1e-5,
    copies: int = 1,
) -> list[Array]:
    """Central-difference gradient of `f` w.r.t. each parameter tensor.

    Every scalar is probed twice, at +epsilon and at -epsilon, one tensor
    at a time, in blocks of at most `copies` probes: `f(i, stack)` gets
    the index i of the probed tensor in `params` and an (n, *shape) stack
    of n <= copies nudged copies of its `data`, the +/- pair of each
    coordinate on neighbouring copies, and returns the n values. No
    tensor is written or rebound; evaluating a copy is `f`'s business.
    Raises if any probe value is non-finite.
    """
    if copies < 1:
        raise ValueError(f"copies must be at least 1, got {copies}")
    grads: list[Array] = []
    for i, t in enumerate(params):
        shape, flat = t.data.shape, t.data.reshape(-1)
        values = np.empty(2 * flat.size)        # f at +eps, -eps for each coordinate in turn
        for start in range(0, values.size, copies):
            probes = np.arange(start, min(start + copies, values.size))
            stack = np.repeat(flat[None], probes.size, axis=0)
            stack[np.arange(probes.size), probes // 2] += np.where(probes % 2 == 0, epsilon, -epsilon)
            got = np.asarray(f(i, stack.reshape((probes.size,) + shape)), dtype=np.float64)
            if got.shape != (probes.size,):
                raise ValueError(f"objective returned shape {got.shape} for a block of "
                                 f"{probes.size} copies")
            if not np.isfinite(got).all():
                raise ValueError("objective returned a non-finite value during probing")
            values[probes] = got
        grads.append(((values[0::2] - values[1::2]) / (2.0 * epsilon)).reshape(shape))
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
