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

    def _stage_of_position(self, s: int) -> np.ndarray:
        """The 0-based stage of each serial position, once s is checked to
        be a stage."""
        if not 1 <= s <= self.n_stages:
            raise ValueError(f"stage {s} out of range 1..{self.n_stages}")
        return np.arange(self.n) % self.n_stages

    def stage_positions(self, s: int) -> np.ndarray:
        """Serial 0-based positions of stage s, ascending."""
        return np.flatnonzero(self._stage_of_position(s) == s - 1)

    def known_positions(self, s: int) -> np.ndarray:
        """Serial 0-based positions decided before stage s, those of
        stages 1..s-1, ascending."""
        return np.flatnonzero(self._stage_of_position(s) < s - 1)

    def undecided_positions(self, s: int) -> np.ndarray:
        """Serial 0-based positions not yet decided at stage s, those of
        stages s..S, ascending: the t-th symbol of stages s..S in turn, for
        t = 1, 2, ..."""
        return np.flatnonzero(self._stage_of_position(s) >= s - 1)


@dataclass(frozen=True, eq=False)
class StageView:
    """Detector-side view of one SIC stage over a batch of B blocks.

    The plan alone gives `known_idx`, the serial 0-based positions of stages
    < s (ascending, the same in every block), and `targets`, those of stage
    s; known_val holds the decided values at known_idx, (B, len(known_idx)).
    """

    plan: SicPlan
    s: int
    known_val: np.ndarray

    def __post_init__(self):
        shape, width = np.shape(self.known_val), len(self.known_idx)
        if len(shape) != 2 or shape[1] != width:
            raise ValueError(f"decided symbols of shape {shape}, not (B, {width})")

    @property
    def known_idx(self) -> np.ndarray:
        return self.plan.known_positions(self.s)

    @property
    def targets(self) -> np.ndarray:
        return self.plan.stage_positions(self.s)

    def observations(self, y: np.ndarray, n_os: int) -> np.ndarray:
        """y as a float array of the blocks' observations, checked to be
        real and to hold n_os samples per symbol for each of the view's
        blocks."""
        if np.asarray(y).dtype.kind == "c":
            raise ValueError("observations must be real")
        y = np.asarray(y, dtype=np.float64)
        want = (len(self.known_val), n_os * self.plan.n)
        if y.shape != want:
            raise ValueError(f"expected observations of shape {want}, got {y.shape}")
        return y


def stage_view(plan: SicPlan, s: int, x: np.ndarray) -> StageView:
    """Build the stage-s view of the blocks whose emitted symbols are the
    rows of x, (B, n), with the true prior-stage symbols as the decided ones
    (the ideal-code assumption used throughout rate estimation)."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != plan.n:
        raise ValueError(f"symbols of shape {x.shape} are not (blocks, n={plan.n})")
    return StageView(plan=plan, s=s, known_val=x[:, plan.known_positions(s)])


def ic_window_indices(target: int, known_idx: np.ndarray,
                      l_ic: int) -> np.ndarray:
    """The l_ic decided symbols closest to the serial 0-based position
    `target`, as indices into the ascending positions `known_idx`.

    Ties prefer the smaller serial index; the chosen indices are ascending
    and padded with -1 (a zero-filled slot) on the left when fewer than
    l_ic decided symbols exist.
    """
    if l_ic < 0:
        raise ValueError("l_ic must be >= 0")
    dist = np.abs(known_idx - target)
    chosen = np.sort(np.lexsort((known_idx, dist))[:l_ic])
    return np.concatenate([np.full(l_ic - len(chosen), -1, dtype=int), chosen])
