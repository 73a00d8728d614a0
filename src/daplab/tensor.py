"""Dense float64 tensors with reverse-mode automatic differentiation.

Deliberately small: only the kernels a tiny segmentation network needs
(convolution, ReLU, bilinear/nearest resizing, the two loss reductions)
plus an SGD optimizer with Nesterov momentum and polynomial decay.
Everything is float64 and single-threaded per graph; verifiability beats
throughput at this scale.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import DimensionError

_GRAD_ENABLED = True


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
    """A dense float64 array with an optional gradient buffer.

    `data` is row-major. `grad`, once populated by backward(), has the same
    shape as `data` and accumulates across backward() calls until
    reset_gradients() clears it. `op` is the record that produced this
    tensor, or None for leaves.
    """

    __slots__ = ("data", "requires_grad", "grad", "op")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
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
    """One forward step: op kind, input tensors, output tensor, and the
    function mapping the output gradient to per-input gradients."""

    __slots__ = ("kind", "inputs", "output", "backward_fn")

    def __init__(self, kind: str, inputs: Sequence[Tensor], output: Tensor,
                 backward_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]):
        self.kind = kind
        self.inputs = tuple(inputs)
        self.output = output
        self.backward_fn = backward_fn


def _emit(kind: str, inputs: Sequence[Tensor], out_data: np.ndarray,
          backward_fn) -> Tensor:
    """Wrap an op result, attaching a record when gradients are live."""
    track = _GRAD_ENABLED and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        out.op = OpRecord(kind, inputs, out, backward_fn)
    return out


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar root.

    Accumulates dLoss/dTensor into .grad of every requires_grad tensor
    reachable from `loss`; calling twice without reset_gradients() adds the
    gradients again.
    """
    if loss.data.size != 1:
        raise DimensionError(f"backward() root must be scalar, got shape {list(loss.shape)}")
    # records reachable from the root in topological order: each record
    # comes after every record producing one of its inputs
    nodes: list[OpRecord] = []
    if loss.op is not None:
        seen = {id(loss.op)}
        stack = [(loss.op, iter(loss.op.inputs))]
        while stack:
            record, pending = stack[-1]
            child = None
            for tensor_in in pending:
                producer = tensor_in.op
                if producer is not None and id(producer) not in seen:
                    child = producer
                    break
            if child is None:
                nodes.append(record)
                stack.pop()
            else:
                seen.add(id(child))
                stack.append((child, iter(child.inputs)))

    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    holders: dict[int, Tensor] = {id(loss): loss}
    for record in reversed(nodes):
        upstream = flowing.pop(id(record.output), None)
        if upstream is None:
            continue
        for tensor_in, grad_in in zip(record.inputs, record.backward_fn(upstream)):
            if grad_in is None:
                continue
            key = id(tensor_in)
            holders[key] = tensor_in
            if key in flowing:
                flowing[key] = flowing[key] + grad_in
            else:
                flowing[key] = grad_in
    if loss.requires_grad:
        flowing[id(loss)] = np.ones_like(loss.data)
    for key, grad in flowing.items():
        holder = holders[key]
        if not holder.requires_grad:
            continue
        if holder.grad is None:
            holder.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            holder.grad = holder.grad + grad


def reset_gradients(tensors: Iterable[Tensor]) -> None:
    """Clear accumulated gradients; callers do this between optimizer steps."""
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# elementwise / structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add: {a.shape} vs {b.shape}")

    def back(g):
        return (g if a.requires_grad else None,
                g if b.requires_grad else None)

    return _emit("add", (a, b), a.data + b.data, back)


def scale(a: Tensor, factor: float) -> Tensor:
    factor = float(factor)

    def back(g):
        return (g * factor if a.requires_grad else None,)

    return _emit("scale", (a,), a.data * factor, back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"mul: {a.shape} vs {b.shape}")

    def back(g):
        return (g * b.data if a.requires_grad else None,
                g * a.data if b.requires_grad else None)

    return _emit("mul", (a, b), a.data * b.data, back)


def total(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""

    def back(g):
        return (np.full_like(x.data, float(g)) if x.requires_grad else None,)

    return _emit("total", (x,), np.float64(x.data.sum()), back)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); the subgradient at exactly 0 is 0."""
    mask = x.data > 0.0

    def back(g):
        return (g * mask if x.requires_grad else None,)

    return _emit("relu", (x,), np.where(mask, x.data, 0.0), back)


def take_batch(x: Tensor, index: int) -> Tensor:
    """Select sample `index` along the batch axis, keeping the axis."""
    n = x.data.shape[0]
    if not 0 <= index < n:
        raise DimensionError(f"take_batch: index {index} out of range {n}")

    def back(g):
        if not x.requires_grad:
            return (None,)
        full = np.zeros_like(x.data)
        full[index:index + 1] = g
        return (full,)

    return _emit("take_batch", (x,), x.data[index:index + 1].copy(), back)


# ---------------------------------------------------------------------------
# convolution

_COL_INDEX_CACHE: dict = {}


def _patch_indices(cin, hp, wp, ho, wo, kh, kw, stride):
    """Flat indices into a padded [Cin, Hp, Wp] volume for every im2col
    column entry, laid out [Ho*Wo, Cin*kh*kw] to match the forward cols."""
    key = (cin, hp, wp, ho, wo, kh, kw, stride)
    cached = _COL_INDEX_CACHE.get(key)
    if cached is not None:
        return cached
    rows = np.arange(ho)[:, None] * stride + np.arange(kh)[None, :]      # [Ho,kh]
    cols = np.arange(wo)[:, None] * stride + np.arange(kw)[None, :]      # [Wo,kw]
    idx = (np.arange(cin)[:, None, None, None, None] * (hp * wp)
           + rows[None, :, None, :, None] * wp
           + cols[None, None, :, None, :])                               # [Cin,Ho,Wo,kh,kw]
    idx = np.ascontiguousarray(idx.transpose(1, 2, 0, 3, 4)).reshape(ho * wo, cin * kh * kw)
    _COL_INDEX_CACHE[key] = idx
    return idx


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation of [N,Cin,H,W] with [Cout,Cin,kh,kw].

    Output spatial size is floor((H + 2*padding - kh)/stride) + 1, same for
    width. No bias term; the models here do not use one.
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

    if kh == 1 and kw == 1 and stride == 1 and padding == 0:
        # pointwise convolution: a plain channel mix, no patch extraction
        kmat = kernel.data[:, :, 0, 0]
        out = np.einsum("oc,nchw->nohw", kmat, x.data)

        def back_pointwise(g):
            dk = None
            dx = None
            if kernel.requires_grad:
                dk = np.einsum("nohw,nchw->oc", g, x.data).reshape(cout, cin, 1, 1)
            if x.requires_grad:
                dx = np.einsum("oc,nohw->nchw", kmat, g)
            return (dx, dk)

        return _emit("conv2d", (x, kernel), out, back_pointwise)

    if padding:
        xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        xp = x.data
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]                          # [N,Cin,Ho,Wo,kh,kw]
    cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5)).reshape(
        n * ho * wo, cin * kh * kw)
    kmat = kernel.data.reshape(cout, cin * kh * kw)
    out = (cols @ kmat.T).reshape(n, ho, wo, cout).transpose(0, 3, 1, 2)

    def back(g):
        dmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * ho * wo, cout)
        dk = None
        dx = None
        if kernel.requires_grad:
            dk = (dmat.T @ cols).reshape(cout, cin, kh, kw)
        if x.requires_grad:
            dcols = dmat @ kmat                                          # [N*Ho*Wo, Cin*kh*kw]
            idx = _patch_indices(cin, hp, wp, ho, wo, kh, kw, stride)
            offsets = np.arange(n, dtype=np.int64) * (cin * hp * wp)
            flat_idx = (idx[None, :, :] + offsets[:, None, None]).ravel()
            dxp = np.bincount(flat_idx, weights=dcols.ravel(),
                              minlength=n * cin * hp * wp).reshape(n, cin, hp, wp)
            dx = dxp[:, :, padding:padding + h, padding:padding + w] if padding else dxp
        return (dx, dk)

    return _emit("conv2d", (x, kernel), out, back)


# ---------------------------------------------------------------------------
# resizing

_RESIZE_CACHE: dict = {}


def _resize_matrix(in_size: int, out_size: int, mode: str) -> np.ndarray:
    """Row-stochastic [out_size, in_size] sampling matrix.

    Source coordinate for output index d: s = (d + 0.5) * in/out - 0.5,
    clamped to [0, in-1]. Bilinear rows blend floor(s) and floor(s)+1;
    nearest rows pick round(s) with exact halves resolved toward the lower
    index. Resizing to the same size yields the identity matrix exactly.
    """
    key = (in_size, out_size, mode)
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
    _RESIZE_CACHE[key] = mat
    return mat


def _resize(x: Tensor, out_h: int, out_w: int, mode: str) -> Tensor:
    if x.data.ndim != 4:
        raise DimensionError("resize expects a 4-d [N,C,H,W] tensor")
    if out_h < 1 or out_w < 1:
        raise DimensionError("resize: target sizes must be >= 1")
    n, c, h, w = x.data.shape
    ay = _resize_matrix(h, out_h, mode)
    ax = _resize_matrix(w, out_w, mode)

    def apply(data, my, mx):
        t = np.tensordot(data, mx, axes=([3], [1]))                      # [N,C,H,out_w]
        t = np.tensordot(t, my, axes=([2], [1]))                         # [N,C,out_w,out_h]
        return np.ascontiguousarray(t.transpose(0, 1, 3, 2))

    def back(g):
        if not x.requires_grad:
            return (None,)
        return (apply(g, ay.T, ax.T),)

    return _emit(f"resize_{mode}", (x,), apply(x.data, ay, ax), back)


def bilinear_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear resampling, half-pixel-centre convention, edges clamped."""
    return _resize(x, out_h, out_w, "bilinear")


def nearest_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Nearest-neighbour resampling under the same coordinate convention."""
    return _resize(x, out_h, out_w, "nearest")


# ---------------------------------------------------------------------------
# losses


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray, ignore_id: int = 255) -> Tensor:
    """Mean over non-ignored pixels of -log softmax(logits)[label].

    `labels` is an integer [N,H,W] array; entries equal to `ignore_id`
    contribute nothing. Raises if every pixel is ignored (the mean would be
    undefined) or if a label falls outside [0, C).
    """
    if logits.data.ndim != 4:
        raise DimensionError("softmax_cross_entropy expects [N,C,H,W] logits")
    n, c, h, w = logits.data.shape
    labels = np.asarray(labels)
    if labels.shape != (n, h, w):
        raise DimensionError(f"labels shape {labels.shape} != {(n, h, w)}")
    valid = labels != ignore_id
    count = int(valid.sum())
    if count == 0:
        raise DimensionError("softmax_cross_entropy: every pixel is ignored")
    lab = labels.astype(np.int64)
    if lab[valid].min() < 0 or lab[valid].max() >= c:
        raise DimensionError("softmax_cross_entropy: label id out of range")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z                                          # [N,C,H,W]
    safe_lab = np.where(valid, lab, 0)
    picked = np.take_along_axis(log_probs, safe_lab[:, None], axis=1)[:, 0]
    loss = -(picked[valid].sum()) / count

    def back(g):
        if not logits.requires_grad:
            return (None,)
        soft = np.exp(log_probs)
        grad = soft * (valid[:, None] / count)
        nz = np.nonzero(valid)
        grad[nz[0], lab[valid], nz[1], nz[2]] -= 1.0 / count
        return (grad * g,)

    return _emit("softmax_cross_entropy", (logits,), np.float64(loss), back)


def sum_squared_error(a: Tensor, b: Tensor) -> Tensor:
    """Squared channel distance, averaged over positions.

    Axis 1 is the channel axis for stacked maps ([N,C,...]); a 1-d tensor is
    a single channel vector at one position. Symmetric, zero iff a == b.
    """
    if a.shape != b.shape:
        raise DimensionError(f"sum_squared_error: {a.shape} vs {b.shape}")
    diff = a.data - b.data
    positions = 1 if diff.ndim <= 1 else diff.size // diff.shape[1]
    loss = float((diff * diff).sum() / positions)

    def back(g):
        d = (2.0 / positions) * diff * g
        return (d if a.requires_grad else None,
                -d if b.requires_grad else None)

    return _emit("sum_squared_error", (a, b), np.float64(loss), back)


# ---------------------------------------------------------------------------
# optimizer


def polynomial_lr(base_lr: float, step: int, total_steps: int, power: float = 0.9) -> float:
    """Polynomial decay: base_lr * (1 - step/total)^power, floored at 0."""
    if total_steps <= 0:
        return base_lr
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
    skip the decay term. Parameters whose grad is None are left untouched:
    they never entered the graph this step, so neither momentum nor weight
    decay applies to them.
    """

    def __init__(self, params: dict, lr: float, momentum: float = 0.0,
                 weight_decay: float = 0.0, lr_multipliers: Optional[dict] = None,
                 weight_decay_exempt: tuple = ()):
        self.params = dict(params)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.lr_multipliers = dict(lr_multipliers or {})
        self.weight_decay_exempt = tuple(weight_decay_exempt)
        self.velocity = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def _multiplier(self, name: str) -> float:
        best = 1.0
        best_len = -1
        for prefix, mult in self.lr_multipliers.items():
            if name.startswith(prefix) and len(prefix) > best_len:
                best, best_len = mult, len(prefix)
        return best

    def step(self, lr: Optional[float] = None) -> None:
        rate = self.lr if lr is None else float(lr)
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay and not name.startswith(self.weight_decay_exempt):
                g = g + self.weight_decay * p.data
            v = self.velocity[name]
            v *= self.momentum
            v += g
            update = g + self.momentum * v if self.momentum else v
            p.data -= rate * self._multiplier(name) * update
