"""Monte-Carlo achievable-rate estimation.

Stage rates are mismatched lower bounds: with uniform inputs the symbol
entropy is exactly the alphabet's bit count, so the stage rate reduces to
m + E[log2 Q(truth)] over fresh blocks, with the detector conditioned on
true earlier-stage symbols (ideal codes between stages).  The average over
stages is the SIC rate; one stage is plain separate detection.  Standard
errors are per-block jackknife estimates, and the auxiliary-channel upper
bound from the trellis module completes the rate sandwich.

A detector is any callable apps(y, view, rng) -> AppMatrix: one call per
SIC stage, over all of that stage's blocks, whose observations are the rows
of y and whose decided symbols `view` holds.  Each stage draws its
evaluation blocks one after another from the caller's generator into one
batch; the returned (B, N, M) AppMatrix is scored without a loop over
blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import channel as ch
from .apps import CLAMP_FLOOR, AppMatrix
from .fba import AuxChannel, fba_ub, jackknife_stderr
from .sic import SicPlan, stage_view


def uniform_apps(m_symbols: int):
    """Dummy detector: uniform PMFs, zero rate by construction."""
    def apps(y, view, rng) -> AppMatrix:
        probs = np.full((len(y), len(view.targets), m_symbols), 1.0 / m_symbols)
        return AppMatrix(probs=probs, positions=view.targets)
    return apps


@dataclass
class StageRate:
    s: int
    rate: float
    stderr: float
    clamp_fraction: float
    flagged: bool


@dataclass
class RateReport:
    stage_rates: list
    i_sic_stderr: float
    ub: Optional[float] = None
    ub_stderr: Optional[float] = None

    @property
    def i_sic(self) -> float:
        """The SIC rate: the average of the stage rates."""
        return float(np.mean([sr.rate for sr in self.stage_rates]))


def evaluate_stage_on_blocks(apps, chan: ch.DiscreteChannel, plan: SicPlan,
                             s: int, blocks: ch.Blocks, rng) -> StageRate:
    """Stage rate on caller-supplied blocks (lets detectors share data)."""
    app = apps(blocks.y, stage_view(plan, s, blocks.x), rng)
    log2q = app.log2_prob_of(chan.symbol_indices(blocks.x[:, app.positions]))
    per_block = chan.config.alphabet.bits + log2q.mean(axis=1)
    clamped = log2q <= np.log2(CLAMP_FLOOR) + 1e-9
    frac = np.count_nonzero(clamped) / clamped.size
    return StageRate(s=s, rate=float(np.mean(per_block)),
                     stderr=jackknife_stderr(per_block),
                     clamp_fraction=frac, flagged=frac > 0.01)


def simulate_eval_blocks(chan: ch.DiscreteChannel, n_blk: int, n: int,
                         rng) -> ch.Blocks:
    """n_blk fresh blocks of n symbols, drawn one block after another."""
    parts = [ch.random_block(chan, n, rng) for _ in range(n_blk)]
    return ch.Blocks(x=np.concatenate([b.x for b in parts]),
                     y=np.concatenate([b.y for b in parts]),
                     p_tx=np.concatenate([b.p_tx for b in parts]))


def estimate_sic(apps, chan: ch.DiscreteChannel, plan: SicPlan, n_blk: int,
                 rng, ub_aux: Optional[AuxChannel] = None) -> RateReport:
    """Run every stage on n_blk fresh blocks of plan.n symbols, each stage
    drawing its own after the previous stage ran, average, and optionally
    attach the upper bound on fresh blocks of its own."""
    stage_rates = []
    for s in range(1, plan.n_stages + 1):
        blocks = simulate_eval_blocks(chan, n_blk, plan.n, rng)
        stage_rates.append(evaluate_stage_on_blocks(apps, chan, plan, s,
                                                    blocks, rng))
    i_sic_se = float(np.sqrt(np.sum([sr.stderr**2 for sr in stage_rates]))
                     / plan.n_stages)
    ub = ub_se = None
    if ub_aux is not None:
        blocks = simulate_eval_blocks(chan, n_blk, plan.n, rng)
        ub, ub_se = fba_ub(ub_aux, blocks)
    return RateReport(stage_rates=stage_rates, i_sic_stderr=i_sic_se, ub=ub,
                      ub_stderr=ub_se)
