"""Periodically time-varying bidirectional recurrent APP detector.

One network serves one SIC stage.  Stage s of S processes the inputs of all
remaining stages j = s..S in unrolled order (t-major, phase-inner), so the
input process is cyclostationary with period S-s+1; every recurrent layer
therefore carries one forward and one backward cell *per phase*, cycling
with that period.  A cell applies its own affine input map plus the affine
state map of the phase the incoming state was produced in; activations are
rectified linear.  Forward and backward half-states are concatenated into
the next layer's input, and a final affine-plus-softmax cell reads out APPs
at the current stage's phase only.  The schedule follows from the shape:
step k runs phase k mod P, P = S-s+1, and the APP of the stage's t-th
symbol is read out at step (t-1)*P.

Input vectors pair a window of channel outputs centered on the target
symbol's output chunk with the closest already-decided symbols; both parts
are standardized with statistics stored on the model, and zero padding
extends windows past the block edges.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .apps import AppMatrix, MultCounter, _sum_in_numpy_order, block_slices
from .sic import SicPlan, StageView, ic_window_indices

_MAGIC = b"NLSICRNN"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class RnnShape:
    """Layer input widths (dims[0] = observation window + decided-symbol
    window) plus the SIC geometry the network is built for."""

    dims: tuple
    l_y: int
    l_ic: int
    n_stages: int
    s: int
    m_symbols: int
    n_os: int

    def __post_init__(self):
        if len(self.dims) < 2:
            raise ValueError("need at least one recurrent layer and the output layer")
        if self.dims[0] != self.l_y + self.l_ic:
            raise ValueError(
                f"dims[0]={self.dims[0]} must equal l_y+l_ic={self.l_y + self.l_ic}")
        if any(d % 2 != 0 for d in self.dims[1:]):
            raise ValueError("recurrent layer widths must be even (two half-states)")
        if not 1 <= self.s <= self.n_stages:
            raise ValueError(f"stage {self.s} out of range 1..{self.n_stages}")

    @property
    def phases(self) -> int:
        return self.n_stages - self.s + 1

    @property
    def n_recurrent(self) -> int:
        return len(self.dims) - 1


@dataclass
class Normalization:
    """Input standardization constants learned at training time."""

    y_mean: float = 0.0
    y_std: float = 1.0
    sym_scale: float = 1.0


class LayerViews(NamedTuple):
    """One recurrent layer's parameters as no-copy views of RnnModel.flat,
    indexed [phase, direction] with direction 0 forward and 1 backward."""

    in_w: np.ndarray  # (P, 2, half, d_in)
    in_b: np.ndarray  # (P, 2, half)
    st_w: np.ndarray  # (P, 2, half, half)
    st_b: np.ndarray  # (P, 2, half)


class RnnModel:
    """Phase-indexed parameters of the time-varying network.

    All parameters live in one flat float64 buffer, laid out in the
    canonical order of :meth:`parameters` (which is also the checkpoint's
    byte order): per recurrent layer, per phase, the forward then the
    backward cell's input map (w, b) and state map (w, b); then out.w and
    out.b.  ``layers`` and ``out_w``/``out_b`` are views into it.
    """

    def __init__(self, shape: RnnShape, norm: Optional[Normalization] = None,
                 provenance: Optional[dict] = None):
        self.shape = shape
        self.norm = norm or Normalization()
        self.provenance = provenance or {}
        p, m, width = shape.phases, shape.m_symbols, shape.dims[-1]
        halves = [d // 2 for d in shape.dims[1:]]
        # one cell is the four tensors of one (phase, direction)
        cells = [half * (d_in + half + 2) for half, d_in in zip(halves, shape.dims)]
        self.flat = np.zeros(2 * p * sum(cells) + m * (width + 1))
        self.layers = []
        offset = 0
        for half, d_in, cell in zip(halves, shape.dims, cells):
            block = self.flat[offset:offset + 2 * p * cell].reshape(p, 2, cell)
            offset += 2 * p * cell
            in_w, in_b, st_w, st_b = np.split(
                block, np.cumsum([half * d_in, half, half * half]), axis=2)
            self.layers.append(LayerViews(in_w.reshape(p, 2, half, d_in), in_b,
                                          st_w.reshape(p, 2, half, half), st_b))
        self.out_w = self.flat[offset:offset + m * width].reshape(m, width)
        self.out_b = self.flat[offset + m * width:]

    def parameters(self):
        """(name, array) pairs in the canonical order used everywhere."""
        for i, layer in enumerate(self.layers):
            for p in range(self.shape.phases):
                for d, tag in enumerate(("fw", "bw")):
                    yield f"layer{i}.phase{p}.{tag}_in.w", layer.in_w[p, d]
                    yield f"layer{i}.phase{p}.{tag}_in.b", layer.in_b[p, d]
                    yield f"layer{i}.phase{p}.{tag}_st.w", layer.st_w[p, d]
                    yield f"layer{i}.phase{p}.{tag}_st.b", layer.st_b[p, d]
        yield "out.w", self.out_w
        yield "out.b", self.out_b

    def copy(self) -> "RnnModel":
        other = RnnModel(self.shape, Normalization(**vars(self.norm)),
                         dict(self.provenance))
        other.flat[...] = self.flat
        return other


def init_model(shape: RnnShape, rng: np.random.Generator,
               norm: Optional[Normalization] = None) -> RnnModel:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per tensor, which
    keeps the initial recurrence sub-contractive under ReLU."""
    model = RnnModel(shape, norm=norm)
    for _, arr in model.parameters():
        fan_in = arr.shape[1] if arr.ndim == 2 else arr.shape[0]
        bound = 1.0 / np.sqrt(fan_in)
        arr[...] = rng.uniform(-bound, bound, size=arr.shape)
    return model


# ---------------------------------------------------------------------------
# Input assembly


@dataclass(frozen=True, eq=False)
class InputIndexer:
    """Gather maps from one block's observations and decided symbols onto
    the unrolled input sequence.

    Index matrices depend only on the SIC geometry, so they are built once
    and reused across blocks; -1 marks a zero-padded slot.
    """

    shape: RnnShape
    plan: SicPlan
    y_idx: np.ndarray          # (T, l_y) into the observation vector
    v_idx: np.ndarray          # (T, l_ic) into the stage's decided symbols


def build_indexer(plan: SicPlan, s: int, shape: RnnShape) -> InputIndexer:
    if plan.n_stages != shape.n_stages or s != shape.s:
        raise ValueError("indexer stage geometry does not match the model shape")
    delta = (shape.l_y - 1) // 2
    # input step k targets the k-th undecided symbol, whose output chunk
    # ends at observation n_os*(position+1) (1-based)
    targets = plan.undecided_positions(s)
    y_idx = shape.n_os * (targets[:, None] + 1) - 1 - delta + np.arange(shape.l_y)
    y_idx[(y_idx < 0) | (y_idx >= shape.n_os * plan.n)] = -1
    known_idx = plan.known_positions(s)
    v_idx = np.array([ic_window_indices(p, known_idx, shape.l_ic)
                      for p in targets], dtype=int)
    return InputIndexer(shape=shape, plan=plan, y_idx=y_idx, v_idx=v_idx)


def gather_inputs(indexer: InputIndexer, y: np.ndarray, decided: np.ndarray,
                  norm: Normalization) -> np.ndarray:
    """Assemble the (B, T, dims[0]) input sequences of B blocks from their
    observations y, (B, n_os*n), and the values of their decided symbols,
    (B, k) at the indexer's plan.known_positions(s)."""
    y_std = (y - norm.y_mean) / norm.y_std
    yw = y_std[:, np.clip(indexer.y_idx, 0, y.shape[1] - 1)]
    yw[:, indexer.y_idx < 0] = 0.0
    if indexer.shape.l_ic == 0:
        return yw
    # slot -1 reads the appended zero
    padded = np.concatenate([decided, np.zeros((len(y), 1))], axis=1)
    return np.concatenate([yw, padded[:, indexer.v_idx] * norm.sym_scale], axis=2)


# ---------------------------------------------------------------------------
# Forward pass


class Workspace:
    """Scratch arrays that :func:`forward` and ``training.backward`` write
    into, owned by the caller and reused from call to call.

    Each named buffer keeps the largest size asked of it and is handed out as
    a contiguous view of the shape asked for, so a call with fewer blocks
    reuses it and a run of equal calls allocates nothing after the first.
    What a call returns inside it (the ForwardCache arrays, the gradients)
    stays valid until the next call given the same workspace.
    """

    def __init__(self):
        self._buffers = {}
        self._model = None

    def empty(self, key, shape, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._buffers[key] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    def zeros(self, key, shape) -> np.ndarray:
        arr = self.empty(key, shape)
        arr.fill(0.0)
        return arr

    def zero_model(self, shape: RnnShape) -> RnnModel:
        """An all-zero model of the given shape, the same object each call."""
        if self._model is None or self._model.shape != shape:
            self._model = RnnModel(shape)
        else:
            self._model.flat.fill(0.0)
        return self._model


@dataclass
class ForwardCache:
    """Activations retained for reverse-mode differentiation, as views of
    the forward pass's workspace.

    All are indexed by step first: ``inputs[i][step]`` and ``h[i][step]``
    are the (B, width) rows step `step` of layer i reads and writes, and
    ``pre[i][step, d]`` is direction d's (B, half) pre-activation block.
    The h buffers are block-major underneath, (B, T, 2*half), like the
    caller's inputs, so every layer reads its input rows with the strides of
    a block-major input.  That matters where numpy hands a product with a
    side of width 1 to gemv or dot, whose bits depend on those strides.
    """

    inputs: list        # r^i per layer, (T, B, dims[i]); r^i = h[i-1]
    pre: list           # pre-activations per layer, (T, 2, B, half)
    h: list             # half-states per layer, (T, B, 2*half)
    readout: np.ndarray  # (B, N, dims[-1]) last layer's states at steps 0, P, ...
    probs: np.ndarray   # (B, N, M) APPs


def _check_finite(pre: np.ndarray, steps, layer: int, what: str):
    """pre: (T, B, half) pre-activations of one direction, computed in the
    order `steps`; names the first step in that order that is non-finite."""
    finite = np.isfinite(pre)
    if not finite.all():
        step = next(step for step in steps if not finite[step].all())
        raise FloatingPointError(
            f"non-finite {what} activation in layer {layer} at step {step}")


def _directions(t_steps: int):
    """(direction, step order, offset of the step whose state feeds the
    current one) of the forward and the backward recursion."""
    return ((0, range(t_steps), -1), (1, range(t_steps - 1, -1, -1), 1))


def forward(model: RnnModel, inputs: np.ndarray,
            counter: Optional[MultCounter] = None, want_cache: bool = False,
            ws: Optional[Workspace] = None):
    """Run the network over an unrolled input sequence.

    inputs: (T, dims[0]) or (B, T, dims[0]).  Step k runs phase k mod P and
    the APPs are read out at steps 0, P, 2P, ...  Returns (logp, cache) with
    logp of shape (B, N, M), N = ceil(T/P); cache is None unless requested.

    Every activation is written into `ws` (a fresh workspace if none is
    given), laid out as ForwardCache describes, so a caller that passes the
    same workspace to every call allocates no activations after the first.
    Before a direction's recursion, each phase's input products run as one
    stacked product, (T/P, B, dims[i]) @ (dims[i], half); the recursion then
    makes one (B, half) @ (half, half) state product per step and adds
    ((x@W + in_b) + s@U) + st_b, the biases as whole (B, half) blocks.  A
    row's bits depend on the shape of the product that computes it, and a
    stacked product gives each of its matrices the bits of that matrix's
    own product, so these shapes and this order keep the results of the
    step-by-step computation bit for bit.

    The softmax runs on the M columns of the (B, N, M) logits: the max as
    np.maximum over columns 0, 1, ..., M-1, and the sum of the exponentials
    by _sum_in_numpy_order over the columns, in numpy's order for a sum
    along the last axis: sequential below 8 symbols, 8 interleaved
    accumulators combined pairwise from 8.  So logp and probs carry the
    bits of the reductions along axis 2, which cost more on 4 columns than
    the arithmetic does.
    """
    if ws is None:
        ws = Workspace()
    shape = model.shape
    r = np.asarray(inputs, dtype=np.float64)
    if r.ndim == 2:
        r = r[None]
    b, t_steps, _ = r.shape
    r = r.swapaxes(0, 1)
    p_count = shape.phases

    cache = ForwardCache([], [], [], None, None) if want_cache else None
    for i, (in_w, in_b, st_w, st_b) in enumerate(model.layers):
        half = in_b.shape[-1]
        pre = ws.empty(("pre", i), (t_steps, 2, b, half))
        h = ws.empty(("h", i), (b, t_steps, 2 * half)).swapaxes(0, 1)
        zero = ws.zeros("zero", (b, half))
        fed = ws.empty("fed", (b, half))
        for d, steps, feed in _directions(t_steps):
            h_d = h[:, :, d * half:(d + 1) * half]
            # the biases as whole (B, half) blocks: a same-shape add takes
            # less time than a broadcast one, with the same sums
            in_rows, st_rows = ws.empty("bias_rows", (2, p_count, b, half))
            in_rows[...] = in_b[:, d, None]
            st_rows[...] = st_b[:, d, None]
            for p in range(p_count):
                np.matmul(r[p::p_count], in_w[p, d].T, out=pre[p::p_count, d])
            # by the step's phase p: its input bias, and the state map of
            # the phase q = p + feed that produced the incoming state
            maps = [(in_rows[p], st_w[(p + feed) % p_count, d].T,
                     st_rows[(p + feed) % p_count]) for p in range(p_count)]
            state = zero
            for step in steps:
                in_row, u, u_b = maps[step % p_count]
                z = pre[step, d]
                z += in_row
                np.matmul(state, u, out=fed)
                z += fed
                z += u_b
                state = np.maximum(z, zero, out=h_d[step])
        if not np.isfinite(pre).all():
            for d, steps, _ in _directions(t_steps):
                _check_finite(pre[:, d], steps, i, ("forward", "backward")[d])

        if counter is not None:
            d_in = shape.dims[i]
            counter.add(f"layer{i}",
                        b * t_steps * (d_in * 2 * half + 2 * half * half))
        if want_cache:
            cache.inputs.append(r)
            cache.pre.append(pre)
            cache.h.append(h)
        r = h

    read_steps = np.arange(0, t_steps, p_count)
    if p_count == 1:
        # every step reads out: the states' block-major buffer is the readout
        readout = r.swapaxes(0, 1)
    else:
        readout = ws.empty("readout", (b, len(read_steps), shape.dims[-1]))
        # np.take writes straight into `readout` only when it need not check
        # the indices; mode="clip" skips the check, and these lie in 0..T-1
        np.take(r.swapaxes(0, 1), read_steps, axis=1, out=readout, mode="clip")
    logits = readout @ model.out_w.T + model.out_b
    if counter is not None:
        counter.add("out", b * len(read_steps) * shape.m_symbols * shape.dims[-1])
    cols = logits.transpose(2, 0, 1)
    mx = cols[0].copy()
    for col in cols[1:]:
        np.maximum(mx, col, out=mx)
    shifted = logits - mx[:, :, None]
    z = np.exp(shifted)
    denom = _sum_in_numpy_order(z.transpose(2, 0, 1))[:, :, None]
    logp = shifted - np.log(denom)
    if want_cache:
        cache.readout = readout
        cache.probs = z / denom
    return logp, cache


def rnn_apps(model: RnnModel, y: np.ndarray, view: StageView,
             counter: Optional[MultCounter] = None) -> AppMatrix:
    """Detector-facing inference for every block of one SIC stage: the
    blocks' input sequences go through one batched forward pass per slice,
    and the slices share one workspace.
    y: (B, n_os*n) observations of the blocks `view` describes."""
    indexer = build_indexer(view.plan, view.s, model.shape)
    y = view.observations(y, model.shape.n_os)
    # inputs plus the pre-activations, states and outputs of a layer
    activations = 8 * len(indexer.y_idx) * 3 * sum(model.shape.dims)
    logp = np.empty((len(y), len(view.targets), model.shape.m_symbols))
    ws = Workspace()
    for lo, hi in block_slices(len(y), activations):
        data = gather_inputs(indexer, y[lo:hi], view.known_val[lo:hi],
                             model.norm)
        logp[lo:hi], _ = forward(model, data, counter=counter, ws=ws)
    return AppMatrix(probs=np.exp(logp), positions=view.targets)


def count_rnn_multiplications(shape: RnnShape) -> int:
    """Closed-form real multiplications per input step: the sum of
    dims[i]*dims[i+1] + dims[i+1]^2/2 over the recurrent layers plus
    m_symbols*dims[-1] for the output cell.

    The closed form charges the output cell at every input step.  A stage
    with P phases reads out an APP only every P-th step, so a forward pass
    executes m_symbols*dims[-1]*(1 - 1/P) fewer multiplications per step
    than this count; the two agree when P = 1."""
    total = 0
    for i in range(shape.n_recurrent):
        total += shape.dims[i] * shape.dims[i + 1] + shape.dims[i + 1] ** 2 // 2
    return total + shape.dims[-1] * shape.m_symbols


# ---------------------------------------------------------------------------
# Serialization: a header and the flat buffer as little-endian f64, plus a
# JSON sidecar


def _tensor_list(model: RnnModel) -> list:
    return [{"name": n, "shape": list(a.shape)} for n, a in model.parameters()]


def save_model(model: RnnModel, stem) -> None:
    stem = Path(stem)
    with open(stem.with_suffix(".bin"), "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _FORMAT_VERSION))
        fh.write(model.flat.astype("<f8", copy=False).tobytes())
    sidecar = {
        "format_version": _FORMAT_VERSION,
        "shape": asdict(model.shape),
        "phases": model.shape.phases,
        "tensors": _tensor_list(model),
        "normalization": vars(model.norm),
        "provenance": model.provenance,
    }
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(stem) -> RnnModel:
    """Read a checkpoint written by :func:`save_model`.  A malformed one
    raises ValueError, or KeyError/TypeError for a sidecar missing keys or
    holding the wrong types."""
    stem = Path(stem)
    with open(stem.with_suffix(".json")) as fh:
        sidecar = json.load(fh)
    if sidecar["format_version"] != _FORMAT_VERSION:
        raise ValueError(f"unsupported model format {sidecar['format_version']}")
    shape = RnnShape(**{**sidecar["shape"], "dims": tuple(sidecar["shape"]["dims"])})
    model = RnnModel(shape, norm=Normalization(**sidecar["normalization"]),
                     provenance=sidecar.get("provenance", {}))
    if sidecar["tensors"] != _tensor_list(model):
        raise ValueError("sidecar tensor list does not match its shape")
    raw = stem.with_suffix(".bin").read_bytes()
    header = len(_MAGIC) + 4
    if raw[:len(_MAGIC)] != _MAGIC:
        raise ValueError("not a model file")
    if len(raw) != header + 8 * model.flat.size:
        raise ValueError(f"model file holds {len(raw)} bytes, expected "
                         f"{header + 8 * model.flat.size}")
    (version,) = struct.unpack_from("<I", raw, len(_MAGIC))
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported model format {version}")
    model.flat[...] = np.frombuffer(raw, dtype="<f8", offset=header)
    return model
