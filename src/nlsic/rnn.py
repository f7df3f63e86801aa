"""Periodically time-varying bidirectional recurrent APP detector.

One network serves one SIC stage.  Stage s of S processes the inputs of all
remaining stages j = s..S in unrolled order (t-major, phase-inner), so the
input process is cyclostationary with period S-s+1; every recurrent layer
therefore carries one forward and one backward cell *per phase*, cycling
with that period.  A cell applies its own affine input map plus the affine
state map of the phase the incoming state was produced in; activations are
rectified linear.  Forward and backward half-states are concatenated into
the next layer's input, and a final affine-plus-softmax cell reads out APPs
at the current stage's phase only.

Input vectors pair a window of channel outputs centered on the target
symbol's output chunk with the closest already-decided symbols; both parts
are standardized with statistics stored on the model, and zero padding
extends windows past the block edges.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .apps import AppMatrix, MultCounter, block_slices
from .sic import SicPlan, StageView, ic_window_indices, kappa

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

    def capturable_memory(self, t_rnn: int) -> int:
        """Largest symbol memory the unrolled network can represent."""
        return self.l_y // self.n_os + (t_rnn - 1)


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
    phase_idx: np.ndarray      # (T,) 0 <-> phase j = s
    out_steps: np.ndarray      # steps producing APP rows
    target_serial: np.ndarray  # (N,) serial 0-based positions of those rows

    @property
    def n_steps(self) -> int:
        return len(self.phase_idx)


def build_indexer(plan: SicPlan, s: int, shape: RnnShape) -> InputIndexer:
    if plan.n_stages != shape.n_stages or s != shape.s:
        raise ValueError("indexer stage geometry does not match the model shape")
    n_big = plan.n_stages
    per = plan.per_stage
    phases = shape.phases
    t_steps = per * phases
    delta = (shape.l_y - 1) // 2
    nabla = shape.l_y - 1 - delta

    y_idx = np.full((t_steps, shape.l_y), -1, dtype=int)
    v_idx = np.full((t_steps, shape.l_ic), -1, dtype=int)
    phase_idx = np.empty(t_steps, dtype=int)
    known_idx = plan.known_positions(s)
    step = 0
    n_y = shape.n_os * plan.n
    for t in range(1, per + 1):
        for j in range(s, n_big + 1):
            center = shape.n_os * kappa(j, t, n_big)  # 1-based observation index
            window = center - 1 - delta + np.arange(shape.l_y)
            window[(window < 0) | (window >= n_y)] = -1
            y_idx[step] = window
            v_idx[step] = ic_window_indices(j, t, plan, known_idx, shape.l_ic)
            phase_idx[step] = j - s
            step += 1
    out_steps = np.flatnonzero(phase_idx == 0)
    target_serial = np.array([kappa(s, t, n_big) - 1 for t in range(1, per + 1)])
    return InputIndexer(shape=shape, plan=plan, y_idx=y_idx, v_idx=v_idx,
                        phase_idx=phase_idx, out_steps=out_steps,
                        target_serial=target_serial)


def gather_inputs(indexer: InputIndexer, y: np.ndarray, decided: np.ndarray,
                  norm: Normalization) -> np.ndarray:
    """Assemble the (B, T, dims[0]) input sequences of B blocks from their
    observations y, (B, n_os*n), and the values of their decided symbols,
    (B, k) at the indexer's plan.known_positions(s)."""
    y = np.asarray(y, dtype=np.float64)
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


@dataclass
class ForwardCache:
    """Activations retained for reverse-mode differentiation."""

    inputs: list        # r^i per layer, (B, T, dims[i])
    pre: list           # pre-activations per layer, (B, T, 2, half)
    h: list             # half-states per layer, (B, T, 2, half)
    logits: np.ndarray  # (B, N, M)
    probs: np.ndarray
    logp: np.ndarray


def _check_finite(arr: np.ndarray, layer: int, what: str):
    """arr: (B, T, half) pre-activations of one direction."""
    if not np.all(np.isfinite(arr)):
        step = int(np.argwhere(~np.isfinite(arr))[0][1])
        raise FloatingPointError(
            f"non-finite {what} activation in layer {layer} at step {step}")


def _directions(t_steps: int):
    """(direction, step order, offset of the step whose state feeds the
    current one) of the forward and the backward recursion."""
    return ((0, range(t_steps), -1), (1, range(t_steps - 1, -1, -1), 1))


def forward(model: RnnModel, inputs: np.ndarray, phase_idx: np.ndarray,
            out_steps: np.ndarray, counter: Optional[MultCounter] = None,
            want_cache: bool = False):
    """Run the network over an unrolled input sequence.

    inputs: (T, dims[0]) or (B, T, dims[0]).  Returns (logp, cache) with
    logp of shape (B, N, M); cache is None unless requested.
    """
    shape = model.shape
    r = np.asarray(inputs, dtype=np.float64)
    if r.ndim == 2:
        r = r[None]
    b, t_steps, _ = r.shape
    p_count = shape.phases

    cache = ForwardCache([], [], [], None, None, None) if want_cache else None
    for i, (in_w, in_b, st_w, st_b) in enumerate(model.layers):
        half = in_b.shape[-1]
        pre = np.empty((b, t_steps, 2, half))
        h = np.empty((b, t_steps, 2, half))
        for d, steps, feed in _directions(t_steps):
            state = np.zeros((b, half))
            for step in steps:
                p = phase_idx[step]
                q = (p + feed) % p_count
                z = (r[:, step] @ in_w[p, d].T + in_b[p, d]
                     + state @ st_w[q, d].T + st_b[q, d])
                pre[:, step, d] = z
                state = np.maximum(z, 0.0)
                h[:, step, d] = state
            _check_finite(pre[:, :, d], i, ("forward", "backward")[d])

        if counter is not None:
            d_in = shape.dims[i]
            counter.add(f"layer{i}",
                        b * t_steps * (d_in * 2 * half + 2 * half * half))
        if want_cache:
            cache.inputs.append(r)
            cache.pre.append(pre)
            cache.h.append(h)
        r = h.reshape(b, t_steps, 2 * half)

    logits = r[:, out_steps] @ model.out_w.T + model.out_b
    if counter is not None:
        counter.add("out", b * len(out_steps) * shape.m_symbols * shape.dims[-1])
    mx = logits.max(axis=2, keepdims=True)
    z = np.exp(logits - mx)
    denom = z.sum(axis=2, keepdims=True)
    logp = (logits - mx) - np.log(denom)
    if want_cache:
        cache.inputs.append(r)
        cache.logits = logits
        cache.probs = z / denom
        cache.logp = logp
    return logp, cache


def rnn_apps(model: RnnModel, y: np.ndarray, view: StageView,
             counter: Optional[MultCounter] = None) -> AppMatrix:
    """Detector-facing inference for every block of one SIC stage: the
    blocks' input sequences go through one batched forward pass.
    y: (B, n_os*n) observations of the blocks `view` describes."""
    indexer = build_indexer(view.plan, view.s, model.shape)
    y = view.observations(y, model.shape.n_os)
    # inputs plus the pre-activations, states and outputs of a layer
    activations = 8 * indexer.n_steps * 3 * sum(model.shape.dims)
    logp = np.empty((len(y), len(indexer.out_steps), model.shape.m_symbols))
    for lo, hi in block_slices(len(y), activations):
        data = gather_inputs(indexer, y[lo:hi], view.known_val[lo:hi],
                             model.norm)
        logp[lo:hi], _ = forward(model, data, indexer.phase_idx,
                                 indexer.out_steps, counter=counter)
    return AppMatrix(probs=np.exp(logp), logp=logp,
                     positions=indexer.target_serial)


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
