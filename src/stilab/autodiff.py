"""Reverse-mode differentiation on a flat tape of array primitives.

Every primitive application appends one record to the tape in execution
order, so reverse iteration visits records in reverse topological order and
no explicit graph sort is needed. Values and gradients are dense float64
numpy arrays; reductions use a fixed, input-independent order, which makes
identical tapes produce bitwise-identical gradients.

Backward closures save arrays and flags, never tensors, and a tape indexes
its named leaves by id, so no reference cycle runs through a tape: it is
freed as soon as its last tensor is dropped, not when the cycle collector
next runs. A training loop therefore holds one step's tape at a time, and
``Tape.backward`` frees each record's saved arrays as it goes: a tape is
single-use.

The primitive set is intentionally small: it is the closure of the encoder,
interaction and loss computations under differentiation, nothing more. One
primitive is fused rather than elementary: ``maxsim``, the late-interaction
score ``max over (patch, word) of z . word``, whose backward touches only
the winning pair instead of a dense similarity gradient. It also projects
the patches, z = ReLU(patches @ W_p), when given the weight, a chunk of
patch matrices at a time: its record then keeps only the winning rows of the
patches and of z, and the gradients of the patches and of W_p flow through
those rows alone, never through a dense z or gradient of z.

``encoded_maxsim`` runs the same chunk loop on constant raw patch features
and encodes each chunk first, e = raw @ W_v + b, also taking each chunk's
patch means as the frames. It appends two single-output records, frames and
scores, and builds no dense encoded array, gradient or mask: the encoder's
gradient comes from the raw frame means and the winners' raw rows alone.

``maxsim`` scores segments: the words of K classes are concatenated into one
(N_w, D) matrix, and K+1 offsets (``segment_offsets``) mark where each class's
words start and end, so one record scores every class. Without offsets all
words are one segment and the segment axis is dropped. ``weighted_sum``
likewise contracts against K weight columns at once.

There is one operand layout: ``matmul`` multiplies a stack of matrices by one
matrix, and ``weighted_sum`` always takes its weights as (..., T, K) columns.
A single class is the one-segment case, K = 1, and ``reshape`` adds or drops
that size-1 axis.

``stack`` and ``max_reduce`` have no pipeline caller. They stay only because
the per-layer tracer (``perfbench/tracing.py``) names them in its op list;
they go once that list drops them (the benchmark-upkeep item in ROADMAP.md).
Until then the tests use ``max_reduce`` as the dense MaxSim reference and
``stack`` to assemble the per-class reference score matrix.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

Array = np.ndarray


class AutodiffError(Exception):
    """Base class for engine misuse."""


class ShapeMismatchError(AutodiffError, ValueError):
    """Operand shapes are incompatible for the requested primitive."""


class NonScalarOutputError(AutodiffError):
    """backward() was asked to differentiate a non-scalar value."""


def _as_f64(value) -> Array:
    return np.asarray(value, dtype=np.float64)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    kept = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if kept:
        grad = grad.sum(axis=kept, keepdims=True)
    return grad.reshape(shape)


def _normalize_axis(axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise ShapeMismatchError(f"axis {axis} out of range for {ndim}-d value")
    return axis % ndim


class TapeTensor:
    """A value recorded on a tape. Treat ``data`` as read-only."""

    __slots__ = ("tape", "tid", "data", "requires_grad")

    def __init__(self, tape: "Tape", tid: int, data: Array, requires_grad: bool):
        self.tape = tape
        self.tid = tid
        self.data = data
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"TapeTensor(id={self.tid}, shape={self.shape}, requires_grad={self.requires_grad})"


@dataclass
class TapeRecord:
    """One primitive application: op kind, operand ids, output id, and the
    vector-Jacobian closure holding whatever forward arrays it saved."""

    op: str
    input_ids: tuple[int, ...]
    input_requires: tuple[bool, ...]
    output_id: int
    backward_fn: Callable[[Array], tuple[Array | None, ...]]


class Tape:
    """Append-only record of primitive applications, one per forward op."""

    def __init__(self):
        self._records: list[TapeRecord] = []
        self._next_id = 0
        self._param_ids: dict[str, int] = {}
        self._spent = False

    @property
    def records(self) -> Sequence[TapeRecord]:
        """The records not yet consumed: empty once ``backward`` has run."""
        return tuple(self._records)

    @property
    def param_ids(self) -> Mapping[str, int]:
        """Tensor id of each named leaf."""
        return dict(self._param_ids)

    def _new_tensor(self, data, requires_grad: bool) -> TapeTensor:
        t = TapeTensor(self, self._next_id, _as_f64(data), requires_grad)
        self._next_id += 1
        return t

    def constant(self, data) -> TapeTensor:
        return self._new_tensor(data, requires_grad=False)

    def leaf(self, data, name: str | None = None) -> TapeTensor:
        """A differentiable input. Named leaves are indexed for gradient maps."""
        t = self._new_tensor(data, requires_grad=True)
        if name is not None:
            if name in self._param_ids:
                raise AutodiffError(f"parameter leaf {name!r} registered twice on one tape")
            self._param_ids[name] = t.tid
        return t

    def backward(self, output: TapeTensor) -> dict[int, Array]:
        """Accumulate gradients of a scalar output for every reachable tensor.

        Returns a map from tensor id to gradient array. Records are replayed
        strictly in reverse append order; gradient accumulation for a tensor
        therefore happens in one fixed order, keeping results bitwise
        reproducible across identical tapes.

        A tensor's second gradient is summed into a fresh buffer; its third
        and later ones are added into that buffer in place. Only buffers
        allocated here are ever mutated, never arrays a backward closure
        returned, and the summation order is the same either way.

        Backward consumes the tape, leaving ``records`` empty: each record, with
        the arrays it saved, is dropped before the next one's VJP runs. A tape
        is single-use; a second call raises ``AutodiffError``.
        """
        if output.tape is not self:
            raise AutodiffError("output tensor belongs to a different tape")
        if output.data.shape != ():
            raise NonScalarOutputError(
                f"backward requires a scalar output, got shape {output.data.shape}"
            )
        if self._spent:
            raise AutodiffError("tape was already differentiated; a tape is single-use")
        self._spent = True
        records, self._records = self._records, []
        grads: dict[int, Array] = {output.tid: np.ones((), dtype=np.float64)}
        owned: set[int] = set()  # ids whose gradient buffer was allocated here
        while records:
            rec = records.pop()  # rebinding drops the previous record
            g = grads.pop(rec.output_id, None)
            if g is None:
                continue
            input_grads = rec.backward_fn(g)
            for tid, needed, gi in zip(rec.input_ids, rec.input_requires, input_grads):
                if not needed or gi is None:
                    continue
                prev = grads.get(tid)
                if prev is None:
                    grads[tid] = gi
                elif tid in owned and prev.ndim:
                    np.add(prev, gi, out=prev)
                else:
                    grads[tid] = prev + gi
                    owned.add(tid)
        return grads


def _coerce(tape: Tape, value) -> TapeTensor:
    if isinstance(value, TapeTensor):
        if value.tape is not tape:
            raise AutodiffError("cannot mix tensors from different tapes")
        return value
    return tape.constant(value)


def _record(op: str, inputs: Sequence[TapeTensor], out_data, backward_fn) -> TapeTensor:
    tape = inputs[0].tape
    for t in inputs[1:]:
        if t.tape is not tape:
            raise AutodiffError("cannot mix tensors from different tapes")
    requires = any(t.requires_grad for t in inputs)
    out = tape._new_tensor(out_data, requires)
    if requires:
        tape._records.append(
            TapeRecord(
                op=op,
                input_ids=tuple(t.tid for t in inputs),
                input_requires=tuple(t.requires_grad for t in inputs),
                output_id=out.tid,
                backward_fn=backward_fn,
            )
        )
    return out


# ---------------------------------------------------------------------------
# elementwise arithmetic (numpy broadcasting, summed back in backward)
# ---------------------------------------------------------------------------

def add(a: TapeTensor, b) -> TapeTensor:
    b = _coerce(a.tape, b)
    out = a.data + b.data
    shape_a, shape_b = a.shape, b.shape

    def bw(g):
        return _unbroadcast(g, shape_a), _unbroadcast(g, shape_b)

    return _record("add", (a, b), out, bw)


def mul(a: TapeTensor, b) -> TapeTensor:
    b = _coerce(a.tape, b)
    A, B, need_a, need_b = a.data, b.data, a.requires_grad, b.requires_grad
    out = A * B

    def bw(g):
        ga = _unbroadcast(g * B, A.shape) if need_a else None
        gb = _unbroadcast(g * A, B.shape) if need_b else None
        return ga, gb

    return _record("mul", (a, b), out, bw)


def div(a: TapeTensor, b) -> TapeTensor:
    b = _coerce(a.tape, b)
    A, B, need_a, need_b = a.data, b.data, a.requires_grad, b.requires_grad
    out = A / B

    def bw(g):
        ga = _unbroadcast(g / B, A.shape) if need_a else None
        gb = _unbroadcast(-g * A / (B * B), B.shape) if need_b else None
        return ga, gb

    return _record("div", (a, b), out, bw)


def neg(x: TapeTensor) -> TapeTensor:
    return _record("neg", (x,), -x.data, lambda g: (-g,))


def exp(x: TapeTensor) -> TapeTensor:
    out = np.exp(x.data)
    return _record("exp", (x,), out, lambda g: (g * out,))


def relu(x: TapeTensor) -> TapeTensor:
    """max(x, 0): -0.0 becomes +0.0 and a NaN passes through."""
    mask = x.data > 0.0
    out = np.maximum(x.data, 0.0)
    return _record("relu", (x,), out, lambda g: (g * mask,))


def clip(x: TapeTensor, lo: float | None, hi: float | None) -> TapeTensor:
    """Clamp with pass-through gradient on the closed interval [lo, hi]."""
    out = np.clip(x.data, lo, hi)
    mask = np.ones_like(x.data, dtype=bool)
    if lo is not None:
        mask &= x.data >= lo
    if hi is not None:
        mask &= x.data <= hi
    return _record("clip", (x,), out, lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a: TapeTensor, b: TapeTensor) -> TapeTensor:
    """np.matmul of a stack of matrices by one matrix: (..., m, k) @ (k, n)."""
    A, B, need_a, need_b = a.data, b.data, a.requires_grad, b.requires_grad
    if A.ndim < 2 or B.ndim != 2:
        raise ShapeMismatchError(f"matmul expects (..., m, k) @ (k, n), got {A.shape} @ {B.shape}")
    if A.shape[-1] != B.shape[0]:
        raise ShapeMismatchError(f"matmul inner dimensions differ: {A.shape} @ {B.shape}")
    out = np.matmul(A, B)
    k, n = B.shape

    def bw(g):
        ga = np.matmul(g, B.T) if need_a else None
        gb = A.reshape(-1, k).T @ g.reshape(-1, n) if need_b else None
        return ga, gb

    return _record("matmul", (a, b), out, bw)


def transpose(x: TapeTensor) -> TapeTensor:
    """Reverse the axes (the matrix transpose of a 2-d value)."""
    return _record("transpose", (x,), np.transpose(x.data), lambda g: (np.transpose(g),))


def segment_offsets(segments, count: int) -> Array:
    """Validated segment offsets for ``count`` rows.

    ``segments`` holds K+1 strictly increasing integer offsets from 0 to
    ``count``: segment k is rows ``offsets[k]:offsets[k+1]``, so every
    segment has at least one row. ``None`` is one segment over every row.
    """
    if segments is None:
        return np.array([0, count], dtype=np.intp)
    offsets = np.asarray(segments)
    if (
        offsets.ndim != 1
        or offsets.size < 2
        or offsets.dtype.kind not in "iu"
        or offsets[0] != 0
        or offsets[-1] != count
        or np.any(np.diff(offsets) < 1)
    ):
        raise ShapeMismatchError(
            f"segments must rise strictly from 0 to {count}, got {segments!r}"
        )
    return offsets.astype(np.intp)


# Patch matrices are encoded, projected and scored at most this many values
# at a time, so each chunk stays in cache across its K segment products.
MAXSIM_CHUNK_VALUES = 1 << 16


def maxsim(
    patches: TapeTensor, words: TapeTensor, segments=None, weight: TapeTensor | None = None
) -> TapeTensor:
    """Late-interaction MaxSim of patches against each segment of the words.

    patches is (..., N_p, D_in) and words (N_w, D). With a (D_in, D)
    ``weight`` the patches are projected first, z = ReLU(patches @ weight),
    by the same arithmetic as ``relu(matmul(patches, weight))``; without one
    z is the (..., N_p, D) patches themselves. ``segments`` splits the words
    into K segments (see ``segment_offsets``), one per class, and the result
    is (..., K): per segment, the max over (patch, word of that segment) of
    z[patch] . word. With ``segments=None`` every word is in one segment and
    the segment axis is dropped, so the result is (...).

    The (N_p, D_in) patch matrices are taken in chunks of at most
    ``MAXSIM_CHUNK_VALUES`` projected values (or one matrix, if larger), and
    no full z is built. numpy multiplies a stack of matrices one matrix at a
    time, so every product is the one an unchunked ``np.matmul`` computes,
    bit for bit. (``encoded_maxsim`` runs this loop with an encoder.) Each segment
    takes one argmax over the row-major flattened (N_p, n_k) similarities of
    its own ``z @ W_kᵀ``, which resolves ties to the smallest patch, then the
    smallest word of that segment.

    The record keeps only the winning rows of z (and of the patches, if the
    weight needs a gradient), and the backward touches those rows only.
    Score (i, k) has gz = g * words[w*], gated by z[p*] > 0 under a weight.
    It adds gz (or gz @ weightᵀ) to its winning patch row p*, segment by
    segment, in increasing k; g * z[p*] to its winning word row w*, in the
    row-major order of the scores; and patches[p*]ᵀ gz to the weight.
    Without a weight these are the sums of a plain sequential loop over the
    scores, bit for bit; no dense (N_p, K) one-hot and no dense gradient of
    z is built.
    """
    return _maxsim(patches, words, segments, weight, None)[1]


def encoded_maxsim(
    raw: TapeTensor,
    video_weight: TapeTensor,
    video_bias: TapeTensor,
    words: TapeTensor | None = None,
    segments=None,
    weight: TapeTensor | None = None,
) -> tuple[TapeTensor, TapeTensor | None]:
    """``maxsim`` of affinely encoded patches, with their frame means.

    raw is a constant (..., N_p, D_in) tensor of raw patch features. Each
    chunk of raw patch matrices is encoded, e = raw @ video_weight +
    video_bias (the arithmetic of ``add(matmul(raw, W_v), b)``), inside
    ``maxsim``'s chunk loop, which then scores e exactly as ``maxsim(e,
    words, segments, weight=weight)`` would. Returns (frames, scores): the
    (..., D) patch means of e, bit for bit ``np.mean(e, axis=-2)``, and the
    scores, or None when ``words`` is None (then nothing is scored). No
    dense encoded array, gradient or mask is built.

    The loop appends two records. The frames record saves the (..., D_in)
    patch means of raw and sends the frame gradient g_f to the encoder:
    mean_p(raw)ᵀ g_f to ``video_weight`` and Σ g_f to ``video_bias``. The
    scores record keeps the winners' raw, encoded and projected rows only;
    its backward forms gz as ``maxsim`` does, e[p*]ᵀ gz for ``weight``, g_e =
    gz @ weightᵀ, raw[p*]ᵀ g_e for ``video_weight`` and Σ g_e for
    ``video_bias``.
    """
    if raw.requires_grad:
        raise AutodiffError("encoded_maxsim takes the raw features as a constant, not a leaf")
    return _maxsim(raw, words, segments, weight, (video_weight, video_bias))


def _maxsim(patches, words, segments, weight, encoder):
    """The one chunk loop behind ``maxsim`` and ``encoded_maxsim``: (frames
    or None without an encoder, scores or None without words)."""
    P = patches.data
    if P.ndim < 2 or (words is not None and words.ndim != 2):
        raise ShapeMismatchError(
            f"maxsim expects patches (..., N_p, D) and words (N_w, D); "
            f"got {P.shape} and {None if words is None else words.shape}"
        )
    shape, n_p, d_in = P.shape, P.shape[-2], P.shape[-1]
    width = d_in  # of the rows that are projected (or scored without a weight)
    if encoder is not None:
        W_v, bias = encoder
        if W_v.ndim != 2 or W_v.shape[0] != d_in or bias.shape != W_v.shape[1:]:
            raise ShapeMismatchError(
                f"encoder weight {W_v.shape} and bias {bias.shape} cannot encode {P.shape}"
            )
        width = W_v.shape[1]
    if weight is not None and (weight.ndim != 2 or weight.shape[0] != width):
        raise ShapeMismatchError(f"maxsim weight {weight.shape} cannot project {P.shape}")
    dim = width if weight is None else weight.shape[1]
    if words is not None and dim != words.shape[-1]:
        raise ShapeMismatchError(f"maxsim embedding dimensions differ: {P.shape} and {words.shape}")
    if n_p < 1 or (words is not None and words.shape[0] < 1):
        raise ShapeMismatchError("maxsim needs at least one patch and one word")
    matrices = P.reshape(-1, n_p, d_in)
    m = matrices.shape[0]
    enc_inputs = () if encoder is None else (patches, W_v, bias)
    need_wv = encoder is not None and W_v.requires_grad
    need_b = encoder is not None and bias.requires_grad
    frames = np.empty((m, width)) if encoder is not None else None
    raw_mean = np.empty((m, d_in)) if need_wv else None

    scored = words is not None
    if scored:
        W = words.data
        offsets = segment_offsets(segments, W.shape[0])
        lengths = np.diff(offsets)
        count = lengths.size
        inputs = (patches, words) + (() if weight is None else (weight,)) + enc_inputs[1:]
        need_p, need_w = patches.requires_grad, words.requires_grad
        need_weight = weight is not None and weight.requires_grad
        need_rows = need_p or need_wv or need_b  # the gradient of the projected rows
        recorded = any(t.requires_grad for t in inputs)  # an unrecorded op gathers nothing
        best_sim = np.empty((m, count))
        best = np.empty((m, count), dtype=np.intp)  # flat (patch, word) per segment
        z_won = np.empty((m, count, dim)) if recorded else None
        x_won = np.empty((m, count, width)) if need_weight else None  # rows that were projected
    step = max(1, MAXSIM_CHUNK_VALUES // (n_p * dim))  # whole patch matrices per chunk
    for start in range(0, m, step):
        chunk = slice(start, start + step)
        x = matrices[chunk]
        if encoder is not None:
            if raw_mean is not None:
                raw_mean[chunk] = np.mean(x, axis=-2)
            x = np.matmul(x, W_v.data)
            x += bias.data
            frames[chunk] = np.mean(x, axis=-2)
        if not scored:
            continue
        z = x
        if weight is not None:
            z = np.matmul(x, weight.data)
            np.maximum(z, 0.0, out=z)  # ReLU in place: -0.0 becomes +0.0, a NaN passes
        for k in range(count):
            flat = np.matmul(z, W[offsets[k]:offsets[k + 1]].T).reshape(z.shape[0], -1)
            flat.argmax(axis=-1, out=best[chunk, k])
            flat.max(axis=-1, out=best_sim[chunk, k])
        if recorded:  # gather the winning rows by their index in the flattened chunk
            won = best[chunk] // lengths + n_p * np.arange(z.shape[0])[:, None]
            np.take(z.reshape(-1, dim), won, axis=0, out=z_won[chunk])
            if x_won is not None:
                np.take(x.reshape(-1, width), won, axis=0, out=x_won[chunk])

    frames_out = None
    if encoder is not None:

        def frames_bw(g):
            g = g.reshape(-1, width)
            g_wv = raw_mean.T @ g if need_wv else None
            return None, g_wv, g.sum(axis=0) if need_b else None

        frames_out = _record("encode", enc_inputs, frames.reshape(shape[:-2] + (width,)), frames_bw)
    if not scored:
        return frames_out, None
    out = best_sim.reshape(shape[:-2] + (count,))
    if segments is None:
        out = out[..., 0]
    if not recorded:
        return frames_out, _record("maxsim", inputs, out, None)

    p_star, words_won = np.divmod(best, lengths)  # (M, K)
    words_won += offsets[:-1]
    rows = p_star + n_p * np.arange(m)[:, None]  # rows of the (-1, D_in) patches
    raw_won = P.reshape(-1, d_in)[rows.ravel()] if need_wv else None
    Wp = None if weight is None else weight.data

    def bw(g):
        g = g.reshape(-1, count, 1)
        gw = g_weight = g_rows = None
        if need_w:
            gw = _scatter_add(words_won.ravel(), (g * z_won).reshape(-1, dim), W.shape[0])
        if need_rows or need_weight:
            gz = g * W[words_won]  # (M, K, D)
            if Wp is not None:
                gz *= z_won > 0.0
        if need_weight:
            g_weight = x_won.reshape(-1, width).T @ gz.reshape(-1, dim)
        if need_rows:
            g_rows = gz.reshape(-1, dim)  # (M·K, width)
            if Wp is not None:
                g_rows = g_rows @ Wp.T
        grads = (None, gw) + (() if Wp is None else (g_weight,))
        if encoder is not None:
            g_wv = raw_won.T @ g_rows if need_wv else None
            return grads + (g_wv, g_rows.sum(axis=0) if need_b else None)
        if need_p:
            g_rows = g_rows.reshape(-1, count, width)
            gp = np.zeros((m * n_p, d_in))
            for k in range(count):  # one winner per patch matrix: no row repeats
                gp[rows[:, k]] += g_rows[:, k]
            grads = (gp.reshape(shape),) + grads[1:]
        return grads

    return frames_out, _record("maxsim", inputs, out, bw)


def _scatter_add(index: Array, rows: Array, size: int) -> Array:
    """A zero (size, ...) array with each ``rows[i]`` added into row
    ``index[i]``, in increasing i: the sums of a sequential ``np.add.at``,
    bit for bit, from one ``np.bincount`` over the flattened entries."""
    tail = rows.shape[1:]
    width = int(np.prod(tail))
    flat = (index[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(flat, weights=rows.ravel(), minlength=size * width)
    return sums.reshape((size,) + tail)


def l2_normalize(x: TapeTensor, axis: int = -1) -> TapeTensor:
    ax = _normalize_axis(axis, x.ndim)
    norm = np.sqrt(np.sum(x.data * x.data, axis=ax, keepdims=True))
    if np.any(norm == 0.0):
        raise ValueError("l2_normalize: zero-norm slice")
    out = x.data / norm

    def bw(g):
        return ((g - out * np.sum(g * out, axis=ax, keepdims=True)) / norm,)

    return _record("l2_normalize", (x,), out, bw)


# ---------------------------------------------------------------------------
# reductions and reweightings
# ---------------------------------------------------------------------------

def max_reduce(x: TapeTensor, axis: int) -> TapeTensor:
    """Max along one axis. Ties route the entire gradient to the smallest
    index attaining the max, matching the forward tie-break."""
    ax = _normalize_axis(axis, x.ndim)
    shape = x.shape
    out = np.max(x.data, axis=ax)
    argmax = np.argmax(x.data, axis=ax)

    def bw(g):
        z = np.zeros(shape)
        np.put_along_axis(z, np.expand_dims(argmax, ax), np.expand_dims(g, ax), axis=ax)
        return (z,)

    return _record("max_reduce", (x,), out, bw)


def mean_reduce(x: TapeTensor, axis: int) -> TapeTensor:
    shape = x.shape
    ax = _normalize_axis(axis, x.ndim)
    out = np.mean(x.data, axis=ax)
    count = shape[ax]

    def bw(g):  # a read-only view: the tape never mutates a gradient it did not allocate
        return (np.broadcast_to(np.expand_dims(g / count, ax), shape),)

    return _record("mean_reduce", (x,), out, bw)


def sum_reduce(x: TapeTensor, axis: int | None = None) -> TapeTensor:
    shape = x.shape
    if axis is None:
        out = np.sum(x.data)

        def bw_all(g):
            return (np.full(shape, g),)

        return _record("sum_reduce", (x,), out, bw_all)
    ax = _normalize_axis(axis, x.ndim)
    out = np.sum(x.data, axis=ax)

    def bw(g):
        return (np.broadcast_to(np.expand_dims(g, ax), shape).copy(),)

    return _record("sum_reduce", (x,), out, bw)


def softmax(x: TapeTensor, axis: int = -1) -> TapeTensor:
    ax = _normalize_axis(axis, x.ndim)
    shifted = x.data - np.max(x.data, axis=ax, keepdims=True)
    e = np.exp(shifted)
    out = e / np.sum(e, axis=ax, keepdims=True)

    def bw(g):
        return (out * (g - np.sum(g * out, axis=ax, keepdims=True)),)

    return _record("softmax", (x,), out, bw)


def log_softmax(x: TapeTensor, axis: int = -1) -> TapeTensor:
    ax = _normalize_axis(axis, x.ndim)
    shifted = x.data - np.max(x.data, axis=ax, keepdims=True)
    out = shifted - np.log(np.sum(np.exp(shifted), axis=ax, keepdims=True))

    def bw(g):
        return (g - np.exp(out) * np.sum(g, axis=ax, keepdims=True),)

    return _record("log_softmax", (x,), out, bw)


def weighted_sum(values: TapeTensor, weights: TapeTensor) -> TapeTensor:
    """Contract values (..., T, D) against each column of weights (..., T, K)
    into (..., K, D).

    Accumulates strictly left-to-right over T, so each result row is bitwise
    identical to a naive per-step summation loop.
    """
    V, w, need_v, need_w = values.data, weights.data, values.requires_grad, weights.requires_grad
    if values.ndim < 2 or w.ndim != values.ndim or values.shape[:-1] != w.shape[:-1]:
        raise ShapeMismatchError(
            f"weighted_sum expects values (..., T, D) with weights (..., T, K); "
            f"got {values.shape} and {weights.shape}"
        )
    v = V[..., None, :]  # (..., T, 1, D)
    out = v[..., 0, :, :] * w[..., 0, :, None]
    for t in range(1, values.shape[-2]):
        out = out + v[..., t, :, :] * w[..., t, :, None]

    def bw(g):  # g is (..., K, D)
        gv = np.matmul(w, g) if need_v else None
        gw = np.matmul(V, np.swapaxes(g, -1, -2)) if need_w else None
        return gv, gw

    return _record("weighted_sum", (values, weights), out, bw)


# ---------------------------------------------------------------------------
# shape plumbing
# ---------------------------------------------------------------------------

def reshape(x: TapeTensor, shape: tuple[int, ...]) -> TapeTensor:
    """The same values in a new shape of the same size: the one primitive
    that adds or drops a size-1 axis."""
    before = x.shape
    return _record("reshape", (x,), x.data.reshape(shape), lambda g: (g.reshape(before),))


def stack(tensors: Sequence[TapeTensor], axis: int = 0) -> TapeTensor:
    if not tensors:
        raise ShapeMismatchError("stack needs at least one tensor")
    shape = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != shape:
            raise ShapeMismatchError("stack operands must share a shape")
    out = np.stack([t.data for t in tensors], axis=axis)
    needed = tuple(t.requires_grad for t in tensors)

    def bw(g):
        return tuple(np.take(g, i, axis=axis) if need else None for i, need in enumerate(needed))

    return _record("stack", tuple(tensors), out, bw)


def index_select(x: TapeTensor, indices, axis: int) -> TapeTensor:
    """Gather slices along an axis; backward scatter-adds into the source."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeMismatchError("index_select expects a 1-d index list")
    ax = _normalize_axis(axis, x.ndim)
    shape = x.shape
    out = np.take(x.data, idx, axis=ax)

    def bw(g):
        z = _scatter_add(idx, np.moveaxis(g, ax, 0), shape[ax])
        return (np.ascontiguousarray(np.moveaxis(z, 0, ax)),)

    return _record("index_select", (x,), out, bw)


# ---------------------------------------------------------------------------
# parameters and verification
# ---------------------------------------------------------------------------

class ParameterStore:
    """Named trainable tensors with registration-time shapes.

    Stored arrays are read-only snapshots; updates swap in a fresh array via
    ``set_value`` so tensors already captured on a tape keep their values.
    """

    def __init__(self):
        self._values: dict[str, Array] = {}

    def register(self, name: str, value) -> None:
        if name in self._values:
            raise KeyError(f"parameter {name!r} already registered")
        arr = _as_f64(value).copy()
        arr.flags.writeable = False
        self._values[name] = arr

    def names(self) -> tuple[str, ...]:
        return tuple(self._values)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def value(self, name: str) -> Array:
        return self._values[name]

    def set_value(self, name: str, value) -> None:
        arr = _as_f64(value)
        current = self._values[name]
        if arr.shape != current.shape:
            raise ShapeMismatchError(
                f"parameter {name!r} has shape {current.shape}, refusing update of shape {arr.shape}"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        self._values[name] = arr

    def leaves(self, tape: Tape) -> dict[str, TapeTensor]:
        """Create one named differentiable leaf per parameter on a tape."""
        return {name: tape.leaf(value, name=name) for name, value in self._values.items()}

    def copy(self) -> "ParameterStore":
        dup = ParameterStore()
        for name, value in self._values.items():
            dup.register(name, value)
        return dup

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        for name, value in self._values.items():
            digest.update(name.encode("utf-8"))
            digest.update(str(value.shape).encode("ascii"))
            digest.update(value.tobytes())
        return digest.hexdigest()


GradientMap = dict  # name -> gradient array, same shape as the parameter


def parameter_gradients(loss: TapeTensor, store: ParameterStore) -> GradientMap:
    """Gradients of a scalar loss for every parameter in the store.

    Parameters the forward pass never touched get explicit zero tensors. The
    call consumes ``loss.tape``, so each loss is differentiated once.
    """
    raw = loss.tape.backward(loss)
    ids = loss.tape.param_ids
    grads: GradientMap = {}
    for name in store.names():
        g = raw.get(ids[name]) if name in ids else None
        grads[name] = np.asarray(g) if g is not None else np.zeros_like(store.value(name))
    return grads


def finite_difference_check(
    loss_fn: Callable[[ParameterStore], TapeTensor],
    params: ParameterStore,
    eps: float = 1e-5,
    *,
    coords_per_param: int = 4,
    seed: int = 0,
) -> float:
    """Compare analytic gradients against central differences.

    ``loss_fn`` must build a fresh tape from the store (using
    ``params.leaves(tape)``) and return the scalar loss tensor. A random
    sample of coordinates per parameter is perturbed by ±eps and the worst
    relative error ``|analytic - numeric| / max(1, |numeric|)`` is returned.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    loss = loss_fn(params)
    if not np.isfinite(loss.data):
        raise AutodiffError(f"loss is not finite: {loss.data!r}")
    analytic = parameter_gradients(loss, params)

    def evaluate() -> float:
        value = float(loss_fn(params).data)
        if not np.isfinite(value):
            raise AutodiffError("loss became non-finite during finite differencing")
        return value

    rng = np.random.default_rng(seed)
    worst = 0.0
    for name in params.names():
        base = params.value(name)
        n = base.size
        if n == 0:
            continue
        count = min(coords_per_param, n)
        coords = np.sort(rng.choice(n, size=count, replace=False))
        for c in coords:
            plus = base.copy()
            plus.flat[c] += eps
            params.set_value(name, plus)
            up = evaluate()
            minus = base.copy()
            minus.flat[c] -= eps
            params.set_value(name, minus)
            down = evaluate()
            params.set_value(name, base)
            numeric = (up - down) / (2.0 * eps)
            err = abs(float(analytic[name].flat[c]) - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst
