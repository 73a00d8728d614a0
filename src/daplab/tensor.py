"""Dense float32 or float64 tensors with reverse-mode automatic
differentiation.

Deliberately small: only the kernels a tiny segmentation network needs
(convolution, ReLU, bilinear/nearest resizing, `reshape`, the two loss
reductions) plus an SGD optimizer with Nesterov momentum and polynomial decay.
Each op computes in its inputs' dtype, and so does its backward: float32
inputs give float32 outputs and gradients, float64 inputs float64 ones.
The scalar reductions (`total` and the two losses) are the exception:
they accumulate into a float64 0-d tensor, and their backward hands on
gradients in the input's dtype again. `conv2d` is where constants meet
parameters: an input that needs no gradient (an image, class fractions,
the class table) takes its kernel's dtype there, so no caller casts one.
Training runs in float32; the finite-difference checks feed float64.
Everything is single-threaded per graph.

The graph is made of op records, and a record points at the producers of
its inputs, not at the input tensors (see OpRecord). An intermediate array
that no backward reads is freed as soon as the caller lets go of its
tensor, during the forward. One that a backward reads (a conv's columns, a
ReLU's mask) lives until that backward has run: `backward` consumes the
graph, dropping each record's `backward_fn` once it is called, so it runs
once per graph.

Importing this module makes glibc keep freed heap in the process (see
_keep_freed_heap), so a step's arrays reuse the pages of the step before.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import math
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .classes import IGNORE_ID
from .errors import DimensionError

_GRAD_ENABLED = True
_RECORD_SEQ = itertools.count()        # OpRecord.seq: creation order

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3      # glibc <malloc.h>


def _keep_freed_heap() -> None:
    """Have glibc's malloc serve step-sized arrays from the heap and keep
    the heap it frees.

    By default glibc `mmap`s each allocation above its mmap threshold and
    trims the top of the heap once it holds more than its trim threshold,
    so each step's multi-MB float64 arrays go back to the kernel and are
    page-faulted in again by the next step. Raising the mmap threshold to
    32 MiB (glibc's 64-bit maximum) and the trim threshold to 64 MiB makes
    a step's arrays reuse the pages of the step before. Both are set,
    because setting either one turns off glibc's dynamic thresholds. The
    setting acts on this process only. Without glibc's `mallopt` (musl,
    macOS, Windows) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):  # 0: above this build's maximum
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_heap()


@contextlib.contextmanager
def no_grad():
    """Suppress graph recording inside the block (inference mode)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


class Tensor:
    """A dense float32 or float64 array with an optional gradient buffer.

    `data` is row-major; a float32 array stays float32 and anything else
    becomes float64. `grad`, once populated by backward(), has the same
    shape as `data` and accumulates across backward() calls until
    reset_gradients() clears it. `op` is the record that produced this
    tensor, or None for leaves.
    """

    __slots__ = ("data", "requires_grad", "grad", "op")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype != np.float32:
            arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.op: Optional[OpRecord] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.data).all())

    def __repr__(self) -> str:
        return f"Tensor(shape={list(self.shape)}, requires_grad={self.requires_grad})"


class OpRecord:
    """One forward step: op kind, one gradient sink per input, the function
    mapping the output gradient to per-input gradients, and `seq`, the
    record's place in creation order.

    An input's sink is where its gradient goes: the record that produced
    it, for an op output; the tensor itself, for a leaf that requires a
    gradient; None, for anything else. So a record keeps no intermediate
    tensor. An intermediate's array outlives the forward only when a
    `backward_fn` keeps it to read (a conv's columns, a loss's
    log-probabilities) or a caller holds the tensor. `backward` sets
    `backward_fn` to None once it has run it, so what it kept is freed
    there and a consumed record cannot run again.

    `output` is not kept either: the output holds the record as `op`, so a
    reference back would make every graph a cycle that only the cyclic
    garbage collector frees. A dropped graph is freed by reference counting
    alone."""

    __slots__ = ("kind", "sinks", "backward_fn", "seq")

    def __init__(self, kind: str, inputs: Sequence[Tensor], output: Tensor,
                 backward_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]):
        self.kind = kind
        self.sinks = tuple(t.op if t.op is not None else t if t.requires_grad else None
                           for t in inputs)
        self.backward_fn = backward_fn
        self.seq = next(_RECORD_SEQ)


def _tracked(inputs: Iterable[Tensor]) -> bool:
    """Whether an op on `inputs` gets a record: gradients are live and an
    input requires one."""
    return _GRAD_ENABLED and any(t.requires_grad for t in inputs)


def _emit(kind: str, inputs: Sequence[Tensor], out_data: np.ndarray,
          backward_fn) -> Tensor:
    """Wrap an op result, attaching a record when `_tracked(inputs)`. So
    single-input ops return their gradient untested; two-input ops test each
    input. A `backward_fn` keeps only what it reads: no input tensor whose
    array it does not need."""
    track = _tracked(inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        out.op = OpRecord(kind, inputs, out, backward_fn)
    return out


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar root.

    Adds dLoss/dTensor to .grad of each leaf (a tensor without an op record)
    that requires a gradient and that `loss` depends on, and ones to `loss`'s
    own .grad when it requires one, with or without an op; intermediate
    results get no .grad. A .grad has its tensor's dtype.

    Gradients flow along the records' sinks: an op output's gradient is
    summed at its producer's record, in the order its consumers run, and
    handed to that record's `backward_fn`. The sweep needs no intermediate
    tensor.

    The sweep consumes the graph: it drops every reachable record's
    `backward_fn`, each right after calling it, so each array a backward
    reads is freed after its last read. A second backward through any
    consumed record raises RuntimeError before any .grad changes; gradients
    accumulate across separate graphs until reset_gradients().
    """
    if loss.data.size != 1:
        raise DimensionError(f"backward() root must be scalar, got shape {list(loss.shape)}")
    # an op's inputs exist before it does, so descending seq is topological
    reachable: dict[int, OpRecord] = {}
    stack = [loss.op]
    while stack:
        record = stack.pop()
        if record is not None and record.seq not in reachable:
            if record.backward_fn is None:
                raise RuntimeError(f"backward() through a consumed {record.kind} record: "
                                   "a graph's backward runs once; build the graph again")
            reachable[record.seq] = record
            stack.extend(s for s in record.sinks if not isinstance(s, Tensor))

    # sink -> summed gradient; records and tensors hash by identity
    flowing: dict = {} if loss.op is None else {loss.op: np.ones_like(loss.data)}
    for _, record in sorted(reachable.items(), reverse=True):
        backward_fn, record.backward_fn = record.backward_fn, None
        upstream = flowing.pop(record, None)
        if upstream is None:
            continue
        for sink, grad_in in zip(record.sinks, backward_fn(upstream)):
            if sink is None or grad_in is None:
                continue
            if sink in flowing:
                flowing[sink] = flowing[sink] + grad_in
            else:
                flowing[sink] = grad_in
    if loss.requires_grad:
        flowing[loss] = np.ones_like(loss.data)
    # every reachable record was popped, so only leaves are left
    for leaf, grad in flowing.items():
        if leaf.grad is None:
            leaf.grad = np.array(grad, dtype=leaf.data.dtype, copy=True)
        else:
            leaf.grad = leaf.grad + grad


def reset_gradients(tensors: Iterable[Tensor]) -> None:
    """Clear accumulated gradients; callers do this between optimizer steps."""
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# elementwise / structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add: {a.shape} vs {b.shape}")

    need_a, need_b = a.requires_grad, b.requires_grad

    def back(g):
        return (g if need_a else None,
                g if need_b else None)

    return _emit("add", (a, b), a.data + b.data, back)


def scale(a: Tensor, factor: float) -> Tensor:
    factor = float(factor)

    def back(g):
        return (g * factor,)

    return _emit("scale", (a,), a.data * factor, back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"mul: {a.shape} vs {b.shape}")

    def back(g):
        return (g * b.data if a.requires_grad else None,
                g * a.data if b.requires_grad else None)

    return _emit("mul", (a, b), a.data * b.data, back)


def total(x: Tensor) -> Tensor:
    """Sum of all elements, accumulated in float64, as a scalar tensor."""

    shape, dtype = x.data.shape, x.data.dtype

    def back(g):
        return (np.full(shape, float(g), dtype),)

    return _emit("total", (x,), x.data.sum(dtype=np.float64), back)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0); the subgradient at exactly 0 is 0.

    -0.0 maps to +0.0. A NaN propagates rather than being zeroed, so a
    non-finite activation reaches the loss, whose finiteness check rejects it.
    A record keeps the 1-byte mask `out > 0`, not the output; the mask
    holds exactly where `x > 0` does, -0.0 and NaN included. It is made
    only when there is a record, so a no_grad pass makes none.
    """
    out = np.maximum(x.data, 0.0)
    mask = out > 0.0 if _tracked((x,)) else None

    def back(g):
        return (g * mask,)

    return _emit("relu", (x,), out, back)


def take_batch(x: Tensor, index: int) -> Tensor:
    """Select sample `index` along the batch axis, keeping the axis."""
    n = x.data.shape[0]
    if not 0 <= index < n:
        raise DimensionError(f"take_batch: index {index} out of range {n}")

    shape, dtype = x.data.shape, x.data.dtype

    def back(g):
        full = np.zeros(shape, dtype)
        full[index:index + 1] = g
        return (full,)

    return _emit("take_batch", (x,), x.data[index:index + 1].copy(), back)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    """`x`'s elements, in row-major order, as an array of `shape`: a view
    of x's array, and its gradient a view of the output's."""
    shape = tuple(int(s) for s in shape)
    if any(s < 0 for s in shape) or math.prod(shape) != x.data.size:
        raise DimensionError(f"reshape: cannot view {x.shape} as {shape}")

    in_shape = x.data.shape

    def back(g):
        return (g.reshape(in_shape),)

    return _emit("reshape", (x,), x.data.reshape(shape), back)


# ---------------------------------------------------------------------------
# convolution


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation of [N,Cin,H,W] with [Cout,Cin,kh,kw].

    Output spatial size is floor((H + 2*padding - kh)/stride) + 1, same for
    width. No bias term; the models here do not use one.

    The forward works on channels-first im2col columns [N, Cin*kh*kw, Ho*Wo]:
    row (c, i, j) holds tap (i, j) of input channel c for every output
    position, so `kernel` reshaped to [Cout, Cin*kh*kw] times the columns is
    the output in NCHW order. A 1x1, stride-1 kernel's columns are a view of
    the (padded) input; any other kernel's are copied tap by tap, one
    strided slice per (i, j), into a fresh [N,Cin,kh,kw,Ho,Wo] array.

    An input that needs no gradient is cast to the kernel's dtype, in the
    padding copy when there is one; an input that needs a gradient keeps
    its own, and so do the padded input, the columns and its gradient.

    A record holds its columns until backward, which reuses them for the
    kernel gradient, one `columns[b] @ g[b].T` per sample, and then frees
    them with the record's `backward_fn`. Without a record (under no_grad,
    or when no input requires a gradient) nothing keeps them. The input
    gradient is built one sample at a time: the sample's column gradient,
    tap-major [kh,kw,Cin,Ho,Wo], then one contiguous [Cin,Ho,Wo] slab per
    tap added into its padded input gradient, so only one sample's column
    gradient exists at once.
    """
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise DimensionError("conv2d expects 4-d input and kernel")
    n, cin, h, w = x.data.shape
    cout, ck, kh, kw = kernel.data.shape
    if ck != cin:
        raise DimensionError(f"conv2d: kernel expects {ck} input channels, got {cin}")
    if stride < 1:
        raise DimensionError("conv2d: stride must be >= 1")
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise DimensionError(f"conv2d: kernel {kh}x{kw} larger than padded input {hp}x{wp}")
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1

    need_x = x.requires_grad
    dtype = x.data.dtype if need_x else kernel.data.dtype
    if padding:
        # assigning rounds as astype does
        xp = np.zeros((n, cin, hp, wp), dtype=dtype)
        xp[:, :, padding:padding + h, padding:padding + w] = x.data
    else:
        xp = x.data.astype(dtype, copy=False)
    if kh == kw == stride == 1:
        cols = xp.reshape(n, cin, ho * wo)
    else:
        cols = np.empty((n, cin, kh, kw, ho, wo), dtype=dtype)
        for i in range(kh):
            for j in range(kw):
                cols[:, :, i, j] = xp[:, :, i:i + stride * ho:stride,
                                      j:j + stride * wo:stride]
        cols = cols.reshape(n, cin * kh * kw, ho * wo)
    out = (kernel.data.reshape(cout, cin * kh * kw) @ cols).reshape(n, cout, ho, wo)

    def back(g):
        g3 = g.reshape(n, cout, ho * wo)
        dk = dx = None
        if kernel.requires_grad:
            dkt = cols[0] @ g3[0].T
            for b in range(1, n):
                dkt += cols[b] @ g3[b].T
            dk = dkt.T.reshape(cout, cin, kh, kw)
        if need_x:
            taps = kernel.data.transpose(2, 3, 1, 0).reshape(kh * kw * cin, cout)
            dxp = np.zeros((n, cin, hp, wp), dtype=dtype)
            for b in range(n):
                dcols = (taps @ g3[b]).reshape(kh, kw, cin, ho, wo)
                for i in range(kh):
                    for j in range(kw):
                        dxp[b, :, i:i + stride * ho:stride,
                            j:j + stride * wo:stride] += dcols[i, j]
                del dcols
            dx = dxp[:, :, padding:padding + h, padding:padding + w]
        return (dx, dk)

    return _emit("conv2d", (x, kernel), out, back)


# ---------------------------------------------------------------------------
# resizing

_RESIZE_CACHE: dict = {}


def _resize_matrix(in_size: int, out_size: int, mode: str,
                   dtype=np.float64) -> np.ndarray:
    """Row-stochastic [out_size, in_size] sampling matrix of `dtype`.

    Source coordinate for output index d: s = (d + 0.5) * in/out - 0.5,
    clamped to [0, in-1]. Bilinear rows blend floor(s) and floor(s)+1;
    nearest rows pick round(s) with exact halves resolved toward the lower
    index. Resizing to the same size yields the identity matrix exactly.
    The weights are computed in float64 and rounded once to `dtype`.
    """
    key = (in_size, out_size, mode, np.dtype(dtype))
    cached = _RESIZE_CACHE.get(key)
    if cached is not None:
        return cached
    d = np.arange(out_size, dtype=np.float64)
    s = np.clip((d + 0.5) * (in_size / out_size) - 0.5, 0.0, in_size - 1.0)
    mat = np.zeros((out_size, in_size), dtype=np.float64)
    if mode == "bilinear":
        lo = np.floor(s).astype(np.int64)
        hi = np.minimum(lo + 1, in_size - 1)
        frac = s - lo
        np.add.at(mat, (np.arange(out_size), lo), 1.0 - frac)
        np.add.at(mat, (np.arange(out_size), hi), frac)
    elif mode == "nearest":
        nearest = np.clip(np.ceil(s - 0.5).astype(np.int64), 0, in_size - 1)
        mat[np.arange(out_size), nearest] = 1.0
    else:
        raise ValueError(f"unknown resize mode {mode!r}")
    mat = _RESIZE_CACHE[key] = mat.astype(dtype, copy=False)
    return mat


def _resize(x: Tensor, out_h: int, out_w: int, mode: str) -> Tensor:
    if x.data.ndim != 4:
        raise DimensionError("resize expects a 4-d [N,C,H,W] tensor")
    if out_h < 1 or out_w < 1:
        raise DimensionError("resize: target sizes must be >= 1")
    n, c, h, w = x.data.shape
    ay = _resize_matrix(h, out_h, mode, x.data.dtype)
    ax = _resize_matrix(w, out_w, mode, x.data.dtype)

    def back(g):
        return (ay.T @ (g @ ax),)

    return _emit(f"resize_{mode}", (x,), ay @ (x.data @ ax.T), back)


def bilinear_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear resampling, half-pixel-centre convention, edges clamped."""
    return _resize(x, out_h, out_w, "bilinear")


def nearest_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Nearest-neighbour resampling under the same coordinate convention."""
    return _resize(x, out_h, out_w, "nearest")


# ---------------------------------------------------------------------------
# losses


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean over non-ignored pixels of -log softmax(logits)[label].

    `labels` is an integer [N,H,W] array; entries equal to IGNORE_ID
    contribute nothing. Raises if every pixel is ignored (the mean would be
    undefined) or if a label falls outside [0, C). The log-softmax has the
    logits' dtype; the mean is accumulated in float64.
    """
    if logits.data.ndim != 4:
        raise DimensionError("softmax_cross_entropy expects [N,C,H,W] logits")
    n, c, h, w = logits.data.shape
    labels = np.asarray(labels)
    if labels.shape != (n, h, w):
        raise DimensionError(f"labels shape {labels.shape} != {(n, h, w)}")
    valid = labels != IGNORE_ID
    count = int(valid.sum())
    if count == 0:
        raise DimensionError("softmax_cross_entropy: every pixel is ignored")
    safe_lab = np.where(valid, labels, 0)      # an ignored pixel points at class 0
    if safe_lab.min() < 0 or safe_lab.max() >= c:
        raise DimensionError("softmax_cross_entropy: label id out of range")
    # flat index of each pixel's label entry in [N,C,H,W]
    hw = h * w
    at_label = safe_lab.reshape(n, hw).astype(np.intp)
    at_label *= hw
    at_label += np.arange(0, n * c * hw, c * hw)[:, None]
    at_label += np.arange(hw)

    log_probs = logits.data - logits.data.max(axis=1, keepdims=True)
    log_probs -= np.log(np.exp(log_probs).sum(axis=1, keepdims=True))  # [N,C,H,W]
    valid = valid.reshape(n, hw)
    loss = -(log_probs.take(at_label)[valid].sum(dtype=np.float64)) / count

    def back(g):
        grad = np.exp(log_probs)
        grad *= valid.reshape(n, 1, h, w) / grad.dtype.type(count)
        # minus 1/count at each valid pixel's label
        flat = grad.reshape(-1)
        picked = flat[at_label]
        np.subtract(picked, 1.0 / count, out=picked, where=valid)
        flat[at_label] = picked
        grad *= float(g)
        return (grad,)

    return _emit("softmax_cross_entropy", (logits,), np.float64(loss), back)


def sum_squared_error(a: Tensor, b: Tensor) -> Tensor:
    """Squared channel distance, averaged over positions.

    Axis 1 is the channel axis for stacked maps ([N,C,...]); a 1-d tensor is
    a single channel vector at one position. Symmetric, zero iff a == b.
    The sum is accumulated in float64.
    """
    if a.shape != b.shape:
        raise DimensionError(f"sum_squared_error: {a.shape} vs {b.shape}")
    diff = a.data - b.data
    positions = 1 if diff.ndim <= 1 else diff.size // diff.shape[1]
    loss = float((diff * diff).sum(dtype=np.float64) / positions)
    need_a, need_b = a.requires_grad, b.requires_grad

    def back(g):
        d = (2.0 / positions) * diff * float(g)
        return (d if need_a else None,
                -d if need_b else None)

    return _emit("sum_squared_error", (a, b), np.float64(loss), back)


# ---------------------------------------------------------------------------
# optimizer


def polynomial_lr(base_lr: float, step: int, total_steps: int, power: float = 0.9) -> float:
    """Polynomial decay: base_lr * (1 - step/total)^power, floored at 0;
    total_steps is at least 1 (a run of 0 steps takes no step)."""
    frac = min(max(step / total_steps, 0.0), 1.0)
    return base_lr * (1.0 - frac) ** power


class SGD:
    """SGD with Nesterov momentum, coupled weight decay and per-name
    learning-rate multipliers.

    Per parameter with gradient g (g' = g + weight_decay * p):

        v <- momentum * v + g'
        p <- p - lr_eff * (g' + momentum * v)

    lr_eff = lr * multiplier for the longest matching name prefix in
    `lr_multipliers`. Names starting with a `weight_decay_exempt` prefix
    skip the decay term. Both are settled per name at construction.
    Parameters whose grad is None are left untouched: they never entered
    the graph this step, so neither momentum nor weight decay applies to
    them.
    """

    def __init__(self, params: dict, lr: float, momentum: float = 0.0,
                 weight_decay: float = 0.0, lr_multipliers: Optional[dict] = None,
                 weight_decay_exempt: tuple = ()):
        self.params = dict(params)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.velocity = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        multipliers = lr_multipliers or {}
        exempt = tuple(weight_decay_exempt)
        self.multiplier, self.decay = {}, {}
        for name in self.params:
            prefixes = [prefix for prefix in multipliers if name.startswith(prefix)]
            self.multiplier[name] = multipliers[max(prefixes, key=len)] if prefixes else 1.0
            self.decay[name] = 0.0 if name.startswith(exempt) else float(weight_decay)

    def step(self, lr: Optional[float] = None) -> None:
        """Update every parameter and its velocity in place; p.grad is only
        read."""
        rate = self.lr if lr is None else float(lr)
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            if self.decay[name]:
                g = self.decay[name] * p.data
                g += p.grad
            v = self.velocity[name]
            v *= self.momentum
            v += g
            update = self.momentum * v
            update += g
            update *= rate * self.multiplier[name]
            p.data -= update
