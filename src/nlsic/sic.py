"""Successive-interference-cancellation index algebra.

A block of n symbols is split into S stage streams by downsampling: stage s
owns the serial positions s, s+S, s+2S, ... (1-based).  Later stages condition
on the decided symbols of earlier stages; this module owns the bookkeeping of
which positions are known, which are targets, and which known symbols sit in
the local window around a target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def kappa(s: int, t: int, n_stages: int) -> int:
    """Serial 1-based index of the t-th symbol of stage s: s + (t-1)*S."""
    if not 1 <= s <= n_stages:
        raise ValueError(f"stage {s} out of range 1..{n_stages}")
    if t < 1:
        raise ValueError(f"within-stage index {t} must be >= 1")
    return s + (t - 1) * n_stages


@dataclass(frozen=True)
class SicPlan:
    """Stage count S and block length n, with N = n/S symbols per stage."""

    n_stages: int
    n: int

    def __post_init__(self):
        if self.n_stages < 1:
            raise ValueError("need at least one stage")
        if self.n % self.n_stages != 0:
            raise ValueError(f"block length {self.n} not divisible by S={self.n_stages}")

    @property
    def per_stage(self) -> int:
        return self.n // self.n_stages

    def stage_positions(self, s: int) -> np.ndarray:
        """Serial 0-based positions of stage s, ascending."""
        if not 1 <= s <= self.n_stages:
            raise ValueError(f"stage {s} out of range 1..{self.n_stages}")
        return np.arange(s - 1, self.n, self.n_stages)

    def known_positions(self, s: int) -> np.ndarray:
        """Serial 0-based positions decided before stage s, those of
        stages 1..s-1, ascending."""
        if not 1 <= s <= self.n_stages:
            raise ValueError(f"stage {s} out of range 1..{self.n_stages}")
        return np.flatnonzero(np.arange(self.n) % self.n_stages < s - 1)


def partition(x: np.ndarray, n_stages: int) -> list:
    """Split a block into its S stage streams; V_s[t] = x[kappa(s,t+1)-1]."""
    x = np.asarray(x)
    if len(x) % n_stages != 0:
        raise ValueError(f"block length {len(x)} not divisible by S={n_stages}")
    return [x[s::n_stages] for s in range(n_stages)]


def interleave(stages: list) -> np.ndarray:
    """Inverse of :func:`partition`."""
    n_stages = len(stages)
    n = sum(len(v) for v in stages)
    out = np.empty(n, dtype=np.asarray(stages[0]).dtype)
    for s, v in enumerate(stages):
        out[s::n_stages] = v
    return out


@dataclass(frozen=True, eq=False)
class StageView:
    """Detector-side view of one SIC stage over a batch of B blocks.

    known_idx holds the serial 0-based positions of the decided symbols of
    stages < s (ascending, the same in every block) and known_val their
    values, (B, len(known_idx)); `targets` are the positions of stage s.
    """

    plan: SicPlan
    s: int
    known_idx: np.ndarray
    known_val: np.ndarray

    @property
    def targets(self) -> np.ndarray:
        return self.plan.stage_positions(self.s)

    def observations(self, y: np.ndarray, n_os: int) -> np.ndarray:
        """y as a float array of the blocks' observations, checked to hold
        n_os samples per symbol for each of the view's blocks."""
        y = np.asarray(y, dtype=np.float64)
        want = (len(self.known_val), n_os * self.plan.n)
        if y.shape != want:
            raise ValueError(f"expected observations of shape {want}, got {y.shape}")
        return y


def stage_view(plan: SicPlan, s: int, x: np.ndarray) -> StageView:
    """Build the stage-s view of the blocks whose emitted symbols are the
    rows of x, (B, n), with the true prior-stage symbols as the decided ones
    (the ideal-code assumption used throughout rate estimation)."""
    idx = plan.known_positions(s)
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != plan.n:
        raise ValueError(f"symbols of shape {x.shape} are not (blocks, n={plan.n})")
    return StageView(plan=plan, s=s, known_idx=idx, known_val=x[:, idx])


def ic_window_indices(j: int, t: int, plan: SicPlan, known_idx: np.ndarray,
                      l_ic: int) -> np.ndarray:
    """The l_ic decided symbols closest (in serial index) to kappa(j,t), as
    indices into the ascending positions `known_idx`.

    Ties prefer the smaller serial index; the chosen indices are ascending
    and padded with -1 (a zero-filled slot) on the left when fewer than
    l_ic decided symbols exist.
    """
    if l_ic < 0:
        raise ValueError("l_ic must be >= 0")
    target = kappa(j, t, plan.n_stages) - 1
    dist = np.abs(known_idx - target)
    chosen = np.sort(np.lexsort((known_idx, dist))[:l_ic])
    return np.concatenate([np.full(l_ic - len(chosen), -1, dtype=int), chosen])
