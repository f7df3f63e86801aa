"""Bit-wise Gibbs sampling of symbol APPs under the truncated auxiliary channel.

Each chain sweeps the unknown symbols in fixed serial order and resamples one
Gray-labelled bit at a time from its conditional under the factorized
auxiliary likelihood; only the chunks whose windows contain the flipped
symbol are re-evaluated, so the per-bit work stays local in the memory.
Post-burn-in symbol frequencies across all chains, with add-one smoothing,
form the APP estimate.  Pinned symbols are never resampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .apps import AppMatrix, MultCounter
from .fba import AuxChannel
from .sic import StageView


@dataclass(frozen=True)
class GibbsConfig:
    memory: int
    n_iter: int
    n_par: int
    burn_in: int = 25

    def __post_init__(self):
        if not self.n_iter > self.burn_in >= 0:
            raise ValueError("need n_iter > burn_in >= 0")
        if self.n_par < 1:
            raise ValueError("need at least one chain")


def gray_labels(m_symbols: int) -> np.ndarray:
    """Binary-reflected Gray label of each symbol index (ascending levels)."""
    i = np.arange(m_symbols)
    return i ^ (i >> 1)


def gray_to_index(m_symbols: int) -> np.ndarray:
    labels = gray_labels(m_symbols)
    inv = np.empty(m_symbols, dtype=int)
    inv[labels] = np.arange(m_symbols)
    return inv


def _chunk_windows(aux: AuxChannel, pos: int, n: int):
    """Chunks (1-based) whose symbol window contains 0-based position `pos`,
    and the window's symbol positions for mean evaluation."""
    kappa = pos + 1
    lo = max(kappa - aux.future, 1)
    hi = min(kappa + aux.memory - aux.future, n)
    chunks = np.arange(lo, hi + 1)
    # window of chunk q covers positions q - past .. q + future, oldest first
    wpos = chunks[:, None] - (aux.memory - aux.future) + np.arange(aux.window)[None, :]
    return chunks, wpos - 1  # symbol positions 0-based, may be out of range


def _context_values(values: np.ndarray, wpos: np.ndarray) -> np.ndarray:
    """Gather per-chain symbol values into windows, zero outside the block.

    values: (n_chains, n).  wpos: (n_q, window) 0-based symbol positions.
    Returns (n_chains, n_q, window).
    """
    n = values.shape[1]
    safe = np.clip(wpos, 0, n - 1)
    out = values[:, safe]
    out[:, wpos < 0] = 0.0
    out[:, wpos >= n] = 0.0
    return out


def _run_chains(aux: AuxChannel, y: np.ndarray, n: int, pinned_mask: np.ndarray,
                states: np.ndarray, uniforms: np.ndarray, burn_in: int,
                counter: Optional[MultCounter] = None) -> np.ndarray:
    """Sweep a batch of chains in lockstep; returns post-burn-in counts.

    states: (n_chains, n) symbol digits, pinned columns already correct.
    uniforms: (n_chains, n_iter, n_unknown, m_bits) pre-drawn per chain.
    """
    m_sym = aux.m_symbols
    m_bits = int(np.log2(m_sym))
    n_os = aux.n_os
    inv2s = 1.0 / (2.0 * aux.sigma2)
    gray = gray_labels(m_sym)
    ungray = gray_to_index(m_sym)
    unknown = np.flatnonzero(~pinned_mask)
    n_chains, n_iter = uniforms.shape[0], uniforms.shape[1]

    windows = [_chunk_windows(aux, int(pos), n) for pos in unknown]
    counts = np.zeros((n, m_sym), dtype=np.int64)
    values = aux.levels[states]

    for sweep in range(n_iter):
        for k, pos in enumerate(unknown):
            chunks, wpos = windows[k]
            y_chunks = y[(chunks[:, None] - 1) * n_os + np.arange(n_os)[None, :]]
            within = np.flatnonzero(wpos == pos)  # flat offsets of the target slot
            cur_label = gray[states[:, pos]]
            for b in range(m_bits):
                lab0 = cur_label & ~(1 << b)
                lab1 = cur_label | (1 << b)
                cand = np.stack([aux.levels[ungray[lab0]], aux.levels[ungray[lab1]]])
                ctx = _context_values(values, wpos)        # (C, n_q, W)
                ctx = np.broadcast_to(ctx, (2,) + ctx.shape).copy()
                flat_ctx = ctx.reshape(2 * n_chains, -1)
                flat_ctx[:, within] = cand.reshape(-1)[:, None]
                mu = aux.mean_contexts(
                    flat_ctx.reshape(-1, aux.window), counter=counter)
                mu = mu.reshape(2, n_chains, len(chunks), n_os)
                diff = y_chunks[None, None, :, :] - mu
                metric = np.sum(diff * diff, axis=(2, 3)) * inv2s
                if counter is not None:
                    counter.add("gs-metric", 2 * n_chains * len(chunks) * n_os
                                + 2 * n_chains)
                # stable sigmoid: 1/(1+e^d) = (1 - tanh(d/2))/2
                p_one = 0.5 * (1.0 - np.tanh(0.5 * (metric[1] - metric[0])))
                take_one = uniforms[:, sweep, k, b] < p_one
                cur_label = np.where(take_one, lab1, lab0)
            states[:, pos] = ungray[cur_label]
            values[:, pos] = aux.levels[states[:, pos]]
        if sweep >= burn_in:
            np.add.at(counts, (np.arange(n)[None, :].repeat(n_chains, 0), states), 1)
    return counts


def gibbs_app(aux: AuxChannel, y: np.ndarray, view: StageView, cfg: GibbsConfig,
              rng: np.random.Generator, positions: Optional[np.ndarray] = None,
              counter: Optional[MultCounter] = None) -> AppMatrix:
    """Approximate symbol-wise APPs for the current stage by Gibbs sampling.

    All not-yet-decided symbols (stages >= s) are resampled so later stages
    are marginalized; decided symbols are pinned.  Requested rows at pinned
    positions are exact point masses.
    """
    if cfg.memory != aux.memory:
        raise ValueError("sampler memory must match the auxiliary channel")
    n = view.plan.n
    if len(y) != aux.n_os * n:
        raise ValueError(f"expected {aux.n_os * n} observations, got {len(y)}")
    if positions is None:
        positions = view.targets
    positions = np.asarray(positions, dtype=int)

    m_sym = aux.m_symbols
    m_bits = int(np.log2(m_sym))
    pinned_mask = np.zeros(n, dtype=bool)
    pinned_mask[view.known_idx] = True
    pinned_digits = aux.chan.symbol_indices(view.known_val)
    unknown = np.flatnonzero(~pinned_mask)

    # per-chain streams: initial states and one uniform per (sweep, symbol, bit)
    chain_rngs = rng.spawn(cfg.n_par)
    states = np.zeros((cfg.n_par, n), dtype=int)
    states[:, view.known_idx] = pinned_digits[None, :]
    uniforms = np.empty((cfg.n_par, cfg.n_iter, len(unknown), m_bits))
    for c, crng in enumerate(chain_rngs):
        states[c, unknown] = crng.integers(0, m_sym, size=len(unknown))
        uniforms[c] = crng.random((cfg.n_iter, len(unknown), m_bits))

    counts = _run_chains(aux, y, n, pinned_mask, states, uniforms,
                         cfg.burn_in, counter=counter)

    total = (cfg.n_iter - cfg.burn_in) * cfg.n_par
    probs = np.empty((len(positions), m_sym))
    for i, p in enumerate(positions):
        if pinned_mask[p]:
            row = np.zeros(m_sym)
            row[pinned_digits[np.searchsorted(view.known_idx, p)]] = 1.0
        else:
            row = (counts[p] + 1.0) / (total + m_sym)
        probs[i] = row
    with np.errstate(divide="ignore"):
        logp = np.log(probs)
    return AppMatrix(probs=probs, logp=logp, positions=positions)


def count_gs_multiplications(aux: AuxChannel, cfg: GibbsConfig, m_bits: int,
                             n: int) -> float:
    """Real multiplications per APP estimate of the sampler on an n-symbol
    block with every position unknown.  Mirrors the instrumented kernel
    exactly: per bit update, both symbol candidates re-evaluate the affected
    chunk windows through the truncated pipeline and their Gaussian metrics.
    Exactly proportional to n_iter and n_par.
    """
    nz = aux._s_map.shape[0]
    per_context = (nz * aux.window
                   + nz * aux.chan.config.nonlinearity.mults_per_sample
                   + aux.n_os * nz)
    visits = [len(_chunk_windows(aux, pos, n)[0]) for pos in range(n)]
    mean_per_chain = 2 * sum(visits) * per_context
    metric_per_chain = sum(2 * v * aux.n_os + 2 for v in visits)
    total = cfg.n_par * cfg.n_iter * m_bits * (mean_per_chain + metric_per_chain)
    return total / n
