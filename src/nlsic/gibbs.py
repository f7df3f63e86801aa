"""Bit-wise Gibbs sampling of symbol APPs under the truncated auxiliary channel.

Each chain resamples the unknown symbols one Gray-labelled bit at a time
from its conditional under the factorized auxiliary likelihood; only the
chunks whose windows contain the symbol are re-evaluated, so the per-bit
work stays local in the memory.  A sweep is a chromatic scan (Besag's
coding scheme): positions more than `memory` apart share no chunk window,
so the positions of one colour, position mod memory+1, are conditionally
independent given the rest of the block, and a batch of them is resampled
in one vectorised step, one bit after another.  Updates within a colour
commute, so a sweep equals a serial scan in colour order, whatever the step
size.  Post-burn-in symbol frequencies across all chains, with add-one
smoothing, form the APP estimate.  Pinned symbols are never resampled.

One call covers every block of a SIC stage, as one StageView and one
(B, n_os*n) observation array: the pinned positions are the same for all
blocks, so their chains sweep in lockstep as the rows of one state array,
in block slices of bounded memory, and the call returns one AppMatrix of
(B, N, M) PMFs at the stage targets.  Every chain owns a generator spawned
in block order and draws its uniforms one sweep at a time, one per
(unknown position, bit) in position order, so a block's APPs do not depend
on which blocks share its call.

Chains are independent, so once a slice has FORK_UPDATES bit updates each
block's chains are cut into contiguous groups, one per CPU the caller has
to itself (see nlsic.parallel), and the groups sweep in forked workers;
smaller slices sweep in the calling process, where a fork would cost more
than it saves.  Generators and initial states are drawn in the calling
process; the groups' integer counts and multiplication tallies add up
exactly, so the APPs do not depend on the number of processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import parallel
from .apps import AppMatrix, MultCounter, block_slices
from .fba import AuxChannel
from .sic import StageView

# Context rows per colour step: a whole colour class at once falls out of
# cache and runs slower than the serial scan.
STEP_ROWS = 4096

# Bit updates a block slice needs before its chains are split across
# processes.  On 2 CPUs a split slice ran up to 3x slower below 60k updates,
# broke even near 250k and ran 1.5x faster from 500k on, whatever the chain
# count: a fork costs 5-20 ms, and half of each step's time does not shrink
# with fewer chains.
FORK_UPDATES = 1 << 19


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


def _colour_steps(aux: AuxChannel, ys: np.ndarray, unknown: np.ndarray,
                  n_chains: int) -> list:
    """Colour steps of one sweep, in colour order: unknown positions of one
    colour (position mod memory+1) and one chunk count, as many as fit in
    STEP_ROWS context rows (candidates x chains x chunks), at least one.
    A step holds their indices into `unknown`, their positions, the clipped
    window positions, the window slots outside the block, the flat offsets
    of the target slots and every block's observation chunks,
    (n_blk, 1, sites, n_q * n_os)."""
    n = ys.shape[1] // aux.n_os
    groups = {}
    for k, pos in enumerate(unknown):
        chunks, wpos = _chunk_windows(aux, int(pos), n)
        groups.setdefault((pos % aux.window, len(chunks)), []).append(
            (k, pos, chunks, wpos))
    steps = []
    for (_, n_q), sites in sorted(groups.items()):
        per_step = max(1, STEP_ROWS // (2 * n_chains * n_q))
        for i in range(0, len(sites), per_step):
            ks, ps, chunks, wpos = map(np.array, zip(*sites[i:i + per_step]))
            rows = (chunks[..., None] - 1) * aux.n_os + np.arange(aux.n_os)
            tgt = np.flatnonzero(wpos == ps[:, None, None]).reshape(len(ps), n_q)
            steps.append((ks, ps, np.clip(wpos, 0, n - 1),
                          (wpos < 0) | (wpos >= n), tgt,
                          ys[:, None, rows.reshape(len(ps), -1)]))
    return steps


def _sweep_chains(aux: AuxChannel, ys: np.ndarray, unknown: np.ndarray,
                  states: np.ndarray, chain_rngs, n_iter: int, burn_in: int,
                  counter: Optional[MultCounter] = None) -> np.ndarray:
    """Sweep the chains of every block in lockstep; returns post-burn-in
    counts, (n_blk, n, M).

    ys: (n_blk, n_os * n) observations.  unknown: the ascending positions
    to resample.  states: (n_blk * n_par, n) symbol digits, block-major,
    pinned columns already correct; chain_rngs[c] draws chain c's
    uniforms, one (n_unknown, m_bits) array per sweep.
    """
    n_blk = len(ys)
    n_chains, n = states.shape
    n_par = n_chains // n_blk
    m_sym = aux.m_symbols
    m_bits = int(np.log2(m_sym))
    inv2s = 1.0 / (2.0 * aux.sigma2)
    gray = gray_labels(m_sym)
    ungray = gray_to_index(m_sym)
    label_level = aux.levels[ungray]
    steps = _colour_steps(aux, ys, unknown, n_chains)
    values = aux.levels[states]
    # flat (block, position, symbol) bin of each chain's position
    bins = ((np.arange(n_chains)[:, None] // n_par) * n + np.arange(n)) * m_sym
    counts = np.zeros(n_blk * n * m_sym, dtype=np.int64)
    uniforms = np.empty((n_chains, len(unknown), m_bits))

    for sweep in range(n_iter):
        for crng, u in zip(chain_rngs, uniforms):
            crng.random(out=u)
        for ks, ps, safe, outside, tgt, y_sites in steps:
            ctx = values[:, safe]                          # (C, S, n_q, W)
            ctx[:, outside] = 0.0
            # both candidates' windows; only the target slots change per bit
            pair = np.stack([ctx, ctx]).reshape(2, n_chains, -1)
            cur_label = gray[states[:, ps]]                # (C, S)
            for b in range(m_bits):
                labs = np.stack([cur_label & ~(1 << b), cur_label | (1 << b)])
                pair[:, :, tgt] = label_level[labs][..., None]
                mu = aux.mean_contexts(pair.reshape(-1, aux.window),
                                       counter=counter)
                diff = y_sites - mu.reshape((2, n_blk, n_par) + y_sites.shape[2:])
                metric = np.einsum("...k,...k->...", diff, diff).reshape(
                    2, n_chains, -1) * inv2s
                if counter is not None:
                    counter.add("gs-metric", 2 * n_chains * tgt.size * aux.n_os
                                + 2 * n_chains * len(ps))
                # stable sigmoid: 1/(1+e^d) = (1 - tanh(d/2))/2
                p_one = 0.5 * (1.0 - np.tanh(0.5 * (metric[1] - metric[0])))
                cur_label = np.where(uniforms[:, ks, b] < p_one, labs[1], labs[0])
            states[:, ps] = ungray[cur_label]
            values[:, ps] = aux.levels[states[:, ps]]
        if sweep >= burn_in:
            counts += np.bincount((bins + states).ravel(), minlength=counts.size)
    return counts.reshape(n_blk, n, m_sym)


def _sweep_split(aux: AuxChannel, ys: np.ndarray, unknown: np.ndarray,
                 states: np.ndarray, chain_rngs, cfg: GibbsConfig,
                 counter: Optional[MultCounter]) -> np.ndarray:
    """:func:`_sweep_chains` with each block's chains cut into contiguous
    groups, one per worker of a parallel map, once the slice has at least
    FORK_UPDATES bit updates.  Chains are independent, so the groups'
    counts and multiplication tallies add up to the whole's."""
    n_blk, n_par = len(ys), cfg.n_par
    updates = n_blk * n_par * len(unknown) * int(np.log2(aux.m_symbols)) * cfg.n_iter
    k = parallel.workers(n_par) if updates >= FORK_UPDATES else 1
    bounds = [n_par * w // k for w in range(k + 1)]
    by_block = states.reshape(n_blk, n_par, -1)

    def sweep_group(w):
        a, b = bounds[w], bounds[w + 1]
        tally = None if counter is None else MultCounter()
        counts = _sweep_chains(
            aux, ys, unknown, by_block[:, a:b].reshape(n_blk * (b - a), -1),
            [chain_rngs[i * n_par + c] for i in range(n_blk) for c in range(a, b)],
            cfg.n_iter, cfg.burn_in, counter=tally)
        return counts, tally

    groups, _ = parallel.parallel_map(sweep_group, range(k))
    if counter is not None:
        for _, tally in groups:
            for kind, count in tally.by_kind.items():
                counter.add(kind, count)
    return sum(counts for counts, _ in groups)


def gibbs_apps(aux: AuxChannel, y: np.ndarray, view: StageView,
               cfg: GibbsConfig, rng: np.random.Generator,
               counter: Optional[MultCounter] = None) -> AppMatrix:
    """Approximate symbol-wise APPs at the stage targets of every block of
    one SIC stage by Gibbs sampling, the chains of all blocks sweeping in
    lockstep.

    y: (B, n_os*n) observations of the blocks `view` describes.  All
    not-yet-decided symbols (stages >= s) are resampled so later stages are
    marginalized; decided symbols are pinned.  Each block spawns cfg.n_par
    chain generators from `rng`, in block order; a chain draws its initial
    state, then one uniform per (symbol, bit) at each sweep.
    """
    if cfg.memory != aux.memory:
        raise ValueError("sampler memory must match the auxiliary channel")
    y = view.observations(y, aux.n_os)
    b, n = len(y), view.plan.n
    m_sym = aux.m_symbols
    m_bits = int(np.log2(m_sym))
    unknown = np.delete(np.arange(n), view.known_idx)
    pinned = aux.chan.symbol_indices(view.known_val)
    positions = view.targets
    total = (cfg.n_iter - cfg.burn_in) * cfg.n_par

    # per block: chain states, values, count bins and one sweep's uniforms,
    # plus its counts and the observation chunks of every position
    stored = 8 * n * (cfg.n_par * (3 + m_bits) + m_sym + aux.window * aux.n_os)
    probs = np.empty((b, len(positions), m_sym))
    for lo, hi in block_slices(b, stored):
        chain_rngs = rng.spawn((hi - lo) * cfg.n_par)
        states = np.zeros((len(chain_rngs), n), dtype=int)
        states[:, view.known_idx] = np.repeat(pinned[lo:hi], cfg.n_par, axis=0)
        for c, crng in enumerate(chain_rngs):
            states[c, unknown] = crng.integers(0, m_sym, size=len(unknown))
        counts = _sweep_split(aux, y[lo:hi], unknown, states, chain_rngs, cfg,
                              counter)
        probs[lo:hi] = (counts[:, positions] + 1.0) / (total + m_sym)
    return AppMatrix(probs=probs, positions=positions)


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
