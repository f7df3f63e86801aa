"""Monte-Carlo achievable-rate estimation.

Stage rates are mismatched lower bounds: with uniform inputs the symbol
entropy is exactly the alphabet's bit count, so the stage rate reduces to
m + E[log2 Q(truth)] over fresh blocks, with the detector conditioned on
true earlier-stage symbols (ideal codes between stages).  The average over
stages is the SIC rate; one stage is plain separate detection.  Standard
errors are per-block jackknife estimates, and the auxiliary-channel upper
bound from the trellis module completes the rate sandwich.

A detector is any callable apps(ys, views, rng) -> [AppMatrix]: one call
per sweep point over the blocks of every SIC stage, where ys[i] holds the
observations of the blocks views[i] describes and the i-th AppMatrix their
(B, N, M) PMFs at that stage's targets.  The trellis detector runs all
stages in one pass; `stage_by_stage` makes a per-point detector of one that
takes a single stage.  Each stage draws its evaluation blocks one after
another from the caller's generator into one batch, stage after stage,
before the detector runs; so a detector may spawn generators from `rng` but
must not draw from it.  The returned APPs are scored without a loop over
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
    def apps(ys, views, rng) -> list:
        return [AppMatrix(probs=np.full((len(y), len(view.targets), m_symbols),
                                        1.0 / m_symbols),
                          positions=view.targets)
                for y, view in zip(ys, views)]
    return apps


def stage_by_stage(stage_apps):
    """The detector apps(ys, views, rng) that calls the one-stage detector
    stage_apps(y, view, rng) on each stage in turn."""
    def apps(ys, views, rng) -> list:
        return [stage_apps(y, view, rng) for y, view in zip(ys, views)]
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


def _score_stage(chan: ch.DiscreteChannel, s: int, app: AppMatrix,
                 x: np.ndarray) -> StageRate:
    """Stage rate of APPs at the stage targets of the blocks whose emitted
    symbols are the rows of x."""
    log2q = app.log2_prob_of(chan.symbol_indices(x[:, app.positions]))
    per_block = chan.config.alphabet.bits + log2q.mean(axis=1)
    clamped = log2q <= np.log2(CLAMP_FLOOR) + 1e-9
    frac = np.count_nonzero(clamped) / clamped.size
    return StageRate(s=s, rate=float(np.mean(per_block)),
                     stderr=jackknife_stderr(per_block),
                     clamp_fraction=frac, flagged=frac > 0.01)


def evaluate_stage_on_blocks(apps, chan: ch.DiscreteChannel, plan: SicPlan,
                             s: int, blocks: ch.Blocks, rng) -> StageRate:
    """Stage rate on caller-supplied blocks (lets detectors share data)."""
    [app] = apps([blocks.y], [stage_view(plan, s, blocks.x)], rng)
    return _score_stage(chan, s, app, blocks.x)


def simulate_eval_blocks(chan: ch.DiscreteChannel, n_blk: int, n: int,
                         rng) -> ch.Blocks:
    """n_blk fresh blocks of n symbols, drawn one block after another into
    one batch."""
    blocks = ch.Blocks(x=np.empty((n_blk, n)),
                       y=np.empty((n_blk, chan.config.n_os * n)),
                       p_tx=np.empty(n_blk))
    for i in range(n_blk):
        block = ch.random_block(chan, n, rng)
        blocks.x[i], blocks.y[i] = block.x[0], block.y[0]
        blocks.p_tx[i] = block.p_tx[0]
    return blocks


def estimate_sic(apps, chan: ch.DiscreteChannel, plan: SicPlan, n_blk: int,
                 rng, ub_aux: Optional[AuxChannel] = None) -> RateReport:
    """Draw n_blk fresh blocks of plan.n symbols for every stage, stage
    after stage, detect all stages in one detector call, average the stage
    rates, and optionally attach the upper bound on fresh blocks of its own,
    drawn after the stages' blocks."""
    stages = range(1, plan.n_stages + 1)
    blocks = [simulate_eval_blocks(chan, n_blk, plan.n, rng) for _ in stages]
    views = [stage_view(plan, s, b.x) for s, b in zip(stages, blocks)]
    stage_apps = apps([b.y for b in blocks], views, rng)
    stage_rates = [_score_stage(chan, s, app, b.x)
                   for s, app, b in zip(stages, stage_apps, blocks)]
    i_sic_se = float(np.sqrt(np.sum([sr.stderr**2 for sr in stage_rates]))
                     / plan.n_stages)
    ub = ub_se = None
    if ub_aux is not None:
        ub, ub_se = fba_ub(ub_aux, simulate_eval_blocks(chan, n_blk, plan.n,
                                                        rng))
    return RateReport(stage_rates=stage_rates, i_sic_stderr=i_sic_se, ub=ub,
                      ub_stderr=ub_se)
