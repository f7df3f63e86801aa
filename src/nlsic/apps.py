"""Common output type of all APP detectors, plus operation counting.

Every detector (forward-backward, Gibbs sampler, recurrent network) returns
an :class:`AppMatrix`: one PMF over the symbol alphabet per target position
of each block of a SIC stage.  The numeric helpers that more than one
detector or the rate estimates use live here too, so a command loads no
detector module it does not run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Smallest probability a scored symbol may receive: the training loss, its
# gradient and the rate estimates clamp below it so every log stays finite.
CLAMP_FLOOR = 1e-30

# Bytes of working state that one detector pass over a slice of blocks may
# hold.  A stage's blocks run slice by slice, so memory does not grow with
# their number.
SLICE_BYTES = 1 << 22


def block_slices(n_blocks: int, bytes_per_block: int, shared: int = 0) -> list:
    """(lo, hi) bounds of consecutive block slices within SLICE_BYTES, of
    which the call holds `shared` bytes whatever its slices."""
    step = max(1, (SLICE_BYTES - shared) // bytes_per_block)
    return [(lo, min(lo + step, n_blocks)) for lo in range(0, n_blocks, step)]


def _sum_in_numpy_order(parts) -> np.ndarray:
    """Elementwise sum of equal-shape terms, rounded as numpy's sum along a
    contiguous axis of these terms rounds: sequential below 8 terms, eight
    interleaved accumulators combined pairwise up to 128 (the rest added
    after them), and two halves split at a multiple of 8 beyond.

    parts: a list of arrays, or one array (any strides) whose leading axis
    holds the terms.  From 8 terms on the accumulators are one array, so
    the pairwise tree is three strided adds."""
    n = len(parts)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _sum_in_numpy_order(parts[:half]) + _sum_in_numpy_order(parts[half:])
    if n < 8:
        total = parts[0]
        for p in parts[1:]:
            total = total + p
        return total
    parts = np.asarray(parts)
    tail = n - n % 8
    acc = parts[:8]
    for i in range(8, tail, 8):
        acc = acc + parts[i:i + 8]
    while len(acc) > 1:
        acc = acc[0::2] + acc[1::2]
    total = acc[0]
    for p in parts[tail:]:
        total = total + p
    return total


def jackknife_stderr(values: np.ndarray) -> float:
    """Leave-one-out jackknife standard error of the sample mean."""
    values = np.asarray(values, dtype=np.float64)
    k = len(values)
    if k < 2:
        return float("nan")
    total = values.sum()
    loo = (total - values) / (k - 1)
    return float(np.sqrt((k - 1) / k * np.sum((loo - loo.mean()) ** 2)))


@dataclass
class MultCounter:
    """Tally of real multiplications executed by an instrumented kernel."""

    total: int = 0
    by_kind: dict = field(default_factory=dict)

    def add(self, kind: str, count: int) -> None:
        self.total += int(count)
        self.by_kind[kind] = self.by_kind.get(kind, 0) + int(count)


@dataclass
class AppMatrix:
    """Per-symbol a-posteriori PMFs over the alphabet for a batch of blocks.

    Attributes:
        probs: (B, N, M) probabilities, each row a PMF.
        positions: (N,) serial 0-based symbol indices the rows refer to,
            the same in every block.
    """

    probs: np.ndarray
    positions: np.ndarray

    @classmethod
    def from_logp(cls, logp: np.ndarray, positions: np.ndarray) -> "AppMatrix":
        """Normalize unnormalized log scores row-wise into PMFs."""
        logp = np.asarray(logp, dtype=np.float64)
        mx = logp.max(axis=-1, keepdims=True)
        z = np.exp(logp - mx)
        return cls(probs=z / z.sum(axis=-1, keepdims=True),
                   positions=np.asarray(positions))

    @property
    def n_rows(self) -> int:
        """PMF rows over all blocks."""
        return self.probs.shape[0] * self.probs.shape[1]

    def log2_prob_of(self, indices: np.ndarray) -> np.ndarray:
        """log2 of the probability assigned to given symbol indices, (B, N).

        Probabilities below CLAMP_FLOOR are clamped to keep it finite.
        """
        idx = np.asarray(indices, dtype=int)[..., None]
        p = np.take_along_axis(self.probs, idx, axis=-1)[..., 0]
        return np.log2(np.maximum(p, CLAMP_FLOOR))
