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
from .rnn import (InputIndexer, Normalization, RnnModel, RnnShape, Workspace,
                  _directions, build_indexer, forward, gather_inputs,
                  init_model)
from .sic import SicPlan

LN2 = np.log(2.0)

# Consecutive iterations the loss may stay above the divergence ceiling
# before training gives up.
DIVERGENCE_PATIENCE = 100

# Symbols simulated per input-normalization calibration.
CALIBRATION_SYMBOLS = 16384


@dataclass(frozen=True)
class TrainConfig:
    learn_rate: float
    n_iter: int
    n_batch: int
    t_rnn: int
    seed: int = 0


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


def loss(model: RnnModel, batch: Batch):
    """Mean -log2 Q(truth) over the batch in bits; uniform APPs score
    exactly the alphabet entropy, a perfect detector scores zero.

    Returns (bits, clamp_count)."""
    logp, _ = forward(model, batch.inputs)
    return _nll_bits(logp, batch.targets)


def _nll_bits(logp: np.ndarray, targets: np.ndarray):
    b, n, _ = logp.shape
    picked = np.take_along_axis(logp, targets[:, :, None], axis=2)[:, :, 0]
    floor_nats = np.log(CLAMP_FLOOR)
    clamped = picked < floor_nats
    picked = np.maximum(picked, floor_nats)
    bits = float(-np.mean(picked) / LN2)
    return bits, int(np.count_nonzero(clamped))


def _add_by_label(g: np.ndarray, labels: np.ndarray, rows: np.ndarray):
    """Add rows[k] to g[labels[k]] for k = 0, 1, ... in turn, g being zero,
    with the bits of that loop: per label, 0 + ((x0 + x1) + ...) equals
    ((0 + x0) + x1) + ... bit for bit.  np.add.reduce sums along axis 0 row
    after row when a row has more than one element but pairwise when it has
    one, so 1-element rows go through np.add.accumulate, which always keeps
    the order.  (np.add.at keeps it too, but at rnn-sweep's shapes it took
    longer than the products whose sums it forms.)"""
    for label in range(len(g)):
        picked = rows[labels == label]
        if len(picked) == 0:
            continue
        if picked[0].size > 1:
            g[label] += np.add.reduce(picked, axis=0)
        else:
            g[label] += np.add.accumulate(picked, axis=0)[-1]


def backward(model: RnnModel, batch: Batch, ws: Optional[Workspace] = None):
    """Exact reverse-mode gradients of the bit loss for every parameter.

    Returns (grads, loss_bits, clamp_count); grads is an RnnModel of the
    same shape whose parameters hold the gradients.  The forward pass, the
    gradients and every intermediate live in `ws` (a fresh workspace if none
    is given), so grads is valid until its next use.

    Per direction, one loop over the steps runs the recursion through the
    state map.  The weight-gradient products then run stacked over the
    steps, each with the (half, B) @ (B, width) shape of one step, and are
    summed from zero in the order the loop visited the steps: that order and
    those shapes give the bits of a step-by-step accumulation.
    """
    if ws is None:
        ws = Workspace()
    shape = model.shape
    logp, cache = forward(model, batch.inputs, want_cache=True, ws=ws)
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

    grads = ws.zero_model(shape)
    width = shape.dims[-1]
    flat_dl = dlogits.reshape(-1, m)
    grads.out_w += flat_dl.T @ cache.readout.reshape(-1, width)
    grads.out_b += flat_dl.sum(axis=0)

    # the top layer's state gradient: dlogits @ out_w at the readout steps
    # 0, P, 2P, ..., 0 elsewhere
    t_steps = batch.inputs.shape[1]
    p_count = shape.phases
    phases = np.arange(t_steps) % p_count
    d_read = np.matmul(dlogits, model.out_w, out=ws.empty("d_read", (b, n_out, width)))
    dh = [ws.zeros("dh_zero", (b, width))] * t_steps
    dh[::p_count] = d_read.swapaxes(0, 1)

    for i in range(shape.n_recurrent - 1, -1, -1):
        in_w, _, st_w, _ = model.layers[i]
        g_in_w, g_in_b, g_st_w, g_st_b = grads.layers[i]
        half, d_in = in_w.shape[2:]
        r_in, h = cache.inputs[i], cache.h[i]
        active = np.greater(cache.pre[i], 0.0,
                            out=ws.empty("active", cache.pre[i].shape, bool))
        dz = ws.empty("dz", (t_steps, b, half))
        carry = ws.empty("carry", (b, half))
        zero = ws.zeros("zero", (b, half))
        sums = ws.empty("sums", (t_steps, half))
        in_prod = ws.empty("in_prod", (t_steps, half, d_in))
        st_prod = ws.empty("st_prod", (t_steps, half, half))
        if i > 0:
            dr = ws.zeros(("dr", i), (t_steps, b, d_in))
            dr_d = ws.empty("dr_d", (t_steps, b, d_in))
            w_steps = ws.empty("w_steps", (t_steps, half, d_in))
        for d, steps, feed in _directions(t_steps):
            cols = slice(d * half, (d + 1) * half)
            st_maps = [st_w[q, d] for q in range(p_count)]
            state_grad = zero
            for step in reversed(steps):
                dz_step = dz[step]
                np.add(dh[step][:, cols], state_grad, out=dz_step)
                dz_step *= active[step, d]
                state_grad = np.matmul(dz_step, st_maps[(step + feed) % p_count],
                                       out=carry)

            # the loop visited the steps in reverse processing order
            back = slice(None, None, feed)
            p_back = phases[back]
            q_back = (p_back + feed) % p_count
            dz_t = dz.transpose(0, 2, 1)
            np.matmul(dz_t, r_in, out=in_prod)
            _add_by_label(g_in_w[:, d], p_back, in_prod[back])
            np.sum(dz, axis=1, out=sums)
            _add_by_label(g_in_b[:, d], p_back, sums[back])
            _add_by_label(g_st_b[:, d], q_back, sums[back])
            # each step's state came from step + feed; the edge step's from zeros
            h_d = h[:, :, cols]
            if feed < 0:
                np.matmul(dz_t[1:], h_d[:-1], out=st_prod[1:])
                st_prod[0] = 0.0
            else:
                np.matmul(dz_t[:-1], h_d[1:], out=st_prod[:-1])
                st_prod[-1] = 0.0
            _add_by_label(g_st_w[:, d], q_back, st_prod[back])
            if i > 0:
                np.take(in_w[:, d], phases, axis=0, out=w_steps, mode="clip")
                dr += np.matmul(dz, w_steps, out=dr_d)
        if i > 0:
            dh = dr

    if not np.all(np.isfinite(grads.flat)):
        name = next(name for name, g in grads.parameters()
                    if not np.all(np.isfinite(g)))
        raise FloatingPointError(f"non-finite gradient in {name}")
    return grads, bits, clamps


def grad_global_norm(grads: RnnModel) -> float:
    # per-tensor sums in canonical order: the trainlog records this value
    return float(np.sqrt(sum(float(np.sum(g * g)) for _, g in grads.parameters())))


class Adam:
    """Standard ADAM with bias correction over the model's flat parameter
    buffer."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, model: RnnModel, learn_rate: float):
        self.lr = learn_rate
        self.t = 0
        self.m = np.zeros_like(model.flat)
        self.v = np.zeros_like(model.flat)

    def step(self, model: RnnModel, grads: RnnModel) -> None:
        self.t += 1
        c1 = 1.0 - self.BETA1 ** self.t
        c2 = 1.0 - self.BETA2 ** self.t
        g = grads.flat
        self.m = self.BETA1 * self.m + (1 - self.BETA1) * g
        self.v = self.BETA2 * self.v + (1 - self.BETA2) * g * g
        model.flat -= self.lr * (self.m / c1) / (np.sqrt(self.v / c2) + self.EPS)


# ---------------------------------------------------------------------------
# Data production and the training loop


def calibrate_normalization(chan: ch.DiscreteChannel,
                            rng: np.random.Generator) -> Normalization:
    """Standardization constants from a fresh calibration run at the
    operating power: observations to zero mean/unit variance, decided-symbol
    inputs to unit RMS."""
    rows = ch.draw_symbols(chan, (8, CALIBRATION_SYMBOLS // 8), rng)
    _, y = ch.simulate_batch(chan, rows, rng)
    sym_rms = float(np.sqrt(np.mean(chan.levels**2)))
    return Normalization(y_mean=float(np.mean(y)), y_std=float(np.std(y)),
                         sym_scale=1.0 / sym_rms)


def make_batch(chan: ch.DiscreteChannel, indexer: InputIndexer, norm: Normalization,
               n_batch: int, rng: np.random.Generator) -> Batch:
    """Fresh simulated batch of short blocks in network coordinates."""
    plan, s = indexer.plan, indexer.shape.s
    rows = ch.draw_symbols(chan, (n_batch, plan.n), rng)
    x_emit, y = ch.simulate_batch(chan, rows, rng)
    decided = x_emit[:, plan.known_positions(s)]
    inputs = gather_inputs(indexer, y, decided, norm)
    targets = chan.symbol_indices(x_emit[:, plan.stage_positions(s)])
    return Batch(inputs=inputs, targets=targets)


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
    ws = Workspace()
    ceiling = 4.0 * chan.config.alphabet.bits
    over = 0
    for it in range(cfg.n_iter):
        batch = make_batch(chan, indexer, norm, cfg.n_batch, rng)
        grads, bits, clamps = backward(model, batch, ws)
        opt.step(model, grads)
        log.clamp_events += clamps
        log.append(it, bits, grad_global_norm(grads))
        over = over + 1 if bits > ceiling else 0
        if over >= DIVERGENCE_PATIENCE:
            raise TrainDivergence(it, log.loss_bits)
    return model, log
