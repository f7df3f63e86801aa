"""Cross-entropy training of the recurrent APP detector.

Reverse-mode gradients are derived by hand through the softmax head, the
half-state concatenation, and both time-varying recurrent paths including
the period wrap, then fed to ADAM with standard moment settings.  Training
data is unlimited fresh simulation: every gradient step draws a new batch of
short blocks whose length is capped so no sequence unrolls more than t_rnn
recurrent inputs, and stage conditioning always uses the true earlier-stage
symbols (the ideal-code assumption).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import channel as ch
from .apps import CLAMP_FLOOR
from .rnn import (InputIndexer, Normalization, RnnModel, RnnShape,
                  _directions, build_indexer, forward, gather_inputs,
                  init_model)
from .sic import SicPlan

LN2 = np.log(2.0)


@dataclass(frozen=True)
class TrainConfig:
    learn_rate: float
    n_iter: int
    n_batch: int
    t_rnn: int
    seed: int = 0
    divergence_patience: int = 100


class TrainDivergence(RuntimeError):
    """Raised when the loss exceeds the divergence ceiling for too long."""

    def __init__(self, iteration: int, recent: list):
        super().__init__(
            f"training diverged at iteration {iteration}; "
            f"last losses: {[round(v, 3) for v in recent[-5:]]}")
        self.iteration = iteration
        self.recent = recent

    def __reduce__(self):
        # args holds only the message; rebuild from the constructor's
        # arguments so the error survives the pipe from a worker process
        return type(self), (self.iteration, self.recent)


@dataclass
class TrainLog:
    iters: list = field(default_factory=list)
    loss_bits: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    clamp_events: int = 0

    def append(self, iteration: int, loss: float, gnorm: float):
        self.iters.append(iteration)
        self.loss_bits.append(loss)
        self.grad_norm.append(gnorm)

    def to_csv(self, path) -> None:
        """Deterministic columns only; wall time lives in the run manifest."""
        with open(path, "w", newline="") as fh:
            fh.write("iter,loss_bits,grad_norm\n")
            for i, lo, gn in zip(self.iters, self.loss_bits, self.grad_norm):
                fh.write(f"{i},{lo:.10f},{gn:.10f}\n")


@dataclass(frozen=True, eq=False)
class Batch:
    """One training batch in unrolled-network coordinates."""

    inputs: np.ndarray       # (B, T, dims[0])
    targets: np.ndarray      # (B, N) alphabet indices of the stage symbols
    phase_idx: np.ndarray
    out_steps: np.ndarray


def loss(model: RnnModel, batch: Batch):
    """Mean -log2 Q(truth) over the batch in bits; uniform APPs score
    exactly the alphabet entropy, a perfect detector scores zero.

    Returns (bits, clamp_count)."""
    logp, _ = forward(model, batch.inputs, batch.phase_idx, batch.out_steps)
    return _nll_bits(logp, batch.targets)


def _nll_bits(logp: np.ndarray, targets: np.ndarray):
    b, n, _ = logp.shape
    picked = np.take_along_axis(logp, targets[:, :, None], axis=2)[:, :, 0]
    floor_nats = np.log(CLAMP_FLOOR)
    clamped = picked < floor_nats
    picked = np.maximum(picked, floor_nats)
    bits = float(-np.mean(picked) / LN2)
    return bits, int(np.count_nonzero(clamped))


def backward(model: RnnModel, batch: Batch):
    """Exact reverse-mode gradients of the bit loss for every parameter.

    Returns (grads, loss_bits, clamp_count); grads is an RnnModel of the
    same shape whose parameters hold the gradients.
    """
    shape = model.shape
    logp, cache = forward(model, batch.inputs, batch.phase_idx, batch.out_steps,
                          want_cache=True)
    bits, clamps = _nll_bits(logp, batch.targets)

    b, n_out, m = logp.shape
    scale = 1.0 / (b * n_out * LN2)
    dlogits = cache.probs.copy()
    np.put_along_axis(
        dlogits, batch.targets[:, :, None],
        np.take_along_axis(dlogits, batch.targets[:, :, None], axis=2) - 1.0, axis=2)
    dlogits *= scale
    # clamped rows contribute a constant to the loss: no gradient
    picked = np.take_along_axis(logp, batch.targets[:, :, None], axis=2)[:, :, 0]
    dlogits[picked < np.log(CLAMP_FLOOR)] = 0.0

    grads = RnnModel(shape)
    r_last = cache.inputs[-1]
    flat_dl = dlogits.reshape(-1, m)
    flat_r = r_last[:, batch.out_steps].reshape(-1, shape.dims[-1])
    grads.out_w += flat_dl.T @ flat_r
    grads.out_b += flat_dl.sum(axis=0)

    t_steps = r_last.shape[1]
    dr = np.zeros_like(r_last)
    dr[:, batch.out_steps] = dlogits @ model.out_w

    p_count = shape.phases
    for i in range(shape.n_recurrent - 1, -1, -1):
        in_w, _, st_w, _ = model.layers[i]
        g_in_w, g_in_b, g_st_w, g_st_b = grads.layers[i]
        half = in_w.shape[2]
        r_in, pre, h = cache.inputs[i], cache.pre[i], cache.h[i]
        dh = dr.reshape(b, t_steps, 2, half)
        active = pre > 0
        zero = np.zeros((b, half))
        dr_prev = np.zeros_like(r_in)
        for d, steps, feed in _directions(t_steps):
            carry = zero
            for step in reversed(steps):
                p = batch.phase_idx[step]
                q = (p + feed) % p_count
                dz = (dh[:, step, d] + carry) * active[:, step, d]
                dz_sum = dz.sum(axis=0)
                src = step + feed
                h_src = h[:, src, d] if 0 <= src < t_steps else zero
                g_in_w[p, d] += dz.T @ r_in[:, step]
                g_in_b[p, d] += dz_sum
                g_st_w[q, d] += dz.T @ h_src
                g_st_b[q, d] += dz_sum
                dr_prev[:, step] += dz @ in_w[p, d]
                carry = dz @ st_w[q, d]
        dr = dr_prev

    for name, g in grads.parameters():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in {name}")
    return grads, bits, clamps


def grad_global_norm(grads: RnnModel) -> float:
    # per-tensor sums in canonical order: the trainlog records this value
    return float(np.sqrt(sum(float(np.sum(g * g)) for _, g in grads.parameters())))


class Adam:
    """Standard ADAM with bias correction (beta1=0.9, beta2=0.999, eps=1e-8)
    over the model's flat parameter buffer."""

    def __init__(self, model: RnnModel, learn_rate: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = learn_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = np.zeros_like(model.flat)
        self.v = np.zeros_like(model.flat)

    def step(self, model: RnnModel, grads: RnnModel) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        g = grads.flat
        self.m = self.beta1 * self.m + (1 - self.beta1) * g
        self.v = self.beta2 * self.v + (1 - self.beta2) * g * g
        model.flat -= self.lr * (self.m / c1) / (np.sqrt(self.v / c2) + self.eps)


# ---------------------------------------------------------------------------
# Data production and the training loop


def calibrate_normalization(chan: ch.DiscreteChannel, rng: np.random.Generator,
                            n_symbols: int = 16384) -> Normalization:
    """Standardization constants from a fresh calibration run at the
    operating power: observations to zero mean/unit variance, decided-symbol
    inputs to unit RMS."""
    m = chan.config.alphabet.size
    rows = chan.levels[rng.integers(0, m, size=(8, n_symbols // 8))]
    _, y = ch.simulate_batch(chan, rows, rng)
    sym_rms = float(np.sqrt(np.mean(chan.levels**2)))
    return Normalization(y_mean=float(np.mean(y)), y_std=float(np.std(y)),
                         sym_scale=1.0 / sym_rms)


def make_batch(chan: ch.DiscreteChannel, indexer: InputIndexer, norm: Normalization,
               n_batch: int, rng: np.random.Generator) -> Batch:
    """Fresh simulated batch of short blocks in network coordinates."""
    plan = indexer.plan
    m = chan.config.alphabet.size
    rows = chan.levels[rng.integers(0, m, size=(n_batch, plan.n))]
    x_emit, y = ch.simulate_batch(chan, rows, rng)
    decided = x_emit[:, plan.known_positions(indexer.shape.s)]
    inputs = gather_inputs(indexer, y, decided, norm)
    targets = chan.symbol_indices(x_emit[:, indexer.target_serial])
    return Batch(inputs=inputs, targets=targets,
                 phase_idx=indexer.phase_idx, out_steps=indexer.out_steps)


def train_stage(chan: ch.DiscreteChannel, plan: SicPlan, s: int, shape: RnnShape,
                cfg: TrainConfig, warm_model: Optional[RnnModel] = None):
    """ADAM-train one stage's network on freshly simulated batches.

    Each training sequence is one fresh block of t_rnn/(S-s+1) stage symbols,
    so no gradient crosses a sequence boundary.  A warm-start model must
    match the shape exactly; its parameters are copied and the input
    normalization is re-calibrated at the current operating power.

    Returns (model, TrainLog).
    """
    phases = shape.phases
    if cfg.t_rnn % phases != 0:
        raise ValueError(f"t_rnn={cfg.t_rnn} not divisible by {phases} phases")
    per_stage = cfg.t_rnn // phases
    train_plan = SicPlan(plan.n_stages, plan.n_stages * per_stage)
    indexer = build_indexer(train_plan, s, shape)

    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, s]))
    norm = calibrate_normalization(chan, rng)
    if warm_model is not None:
        if warm_model.shape != shape:
            raise ValueError("warm-start model shape does not match")
        model = warm_model.copy()
        model.norm = norm
    else:
        model = init_model(shape, rng, norm=norm)
    model.provenance = {"stage": s, "n_stages": plan.n_stages,
                        "seed": cfg.seed, "n_iter": cfg.n_iter,
                        "warm_start": warm_model is not None}

    log = TrainLog()
    opt = Adam(model, cfg.learn_rate)
    ceiling = 4.0 * chan.config.alphabet.bits
    over = 0
    for it in range(cfg.n_iter):
        batch = make_batch(chan, indexer, norm, cfg.n_batch, rng)
        grads, bits, clamps = backward(model, batch)
        opt.step(model, grads)
        log.clamp_events += clamps
        log.append(it, bits, grad_global_norm(grads))
        over = over + 1 if bits > ceiling else 0
        if over >= cfg.divergence_patience:
            raise TrainDivergence(it, log.loss_bits)
    return model, log
