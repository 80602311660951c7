"""Independent brute-force validators.

Grid maximization for the exponents, exhaustive integer allocation
search, and exact ML-decoding ensemble error on tiny BSC instances.
These are shipped (not test-only) so the CLI `verify` command can rerun
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import _doubles, _is_integer
from .arq import _merge_moments, _moments
from .channel import HopChannel, e0

__all__ = [
    "GridSpec",
    "grid_max_exponent",
    "exhaustive_allocation",
    "bsc_ensemble_error",
]

_MAX_EXHAUSTIVE_Q = 60
_MAX_EXHAUSTIVE_N = 3
_MAX_ENSEMBLE_Q = 10
_MAX_ENSEMBLE_M = 8
_ENSEMBLE_BLOCK = 65_536  # trials whose errors are held at once, then reduced to moments

# evaluate huge grids in slabs to bound memory, and at most this many points to bound time
_GRID_CHUNK = 2_000_000
_MAX_GRID_POINTS = 10 ** 8


@dataclass(frozen=True)
class GridSpec:
    rho_min: float
    rho_max: float
    step: float

    def __post_init__(self):
        if not (0 <= self.rho_min < self.rho_max < math.inf and 0 < self.step < math.inf):
            raise ValueError("need 0 <= rho_min < rho_max < inf and 0 < step < inf")
        for name, value in zip(("rho_min", "rho_max", "step"), _doubles(
                (self.rho_min, self.rho_max, self.step), ValueError, "rho_min, rho_max and step")):
            object.__setattr__(self, name, value)
        if (steps := (self.rho_max - self.rho_min) / self.step) + 1e-9 >= _MAX_GRID_POINTS:
            raise ValueError(f"grid of {steps + 1:.10g} points, more than {_MAX_GRID_POINTS:.0e}")

    @property
    def points(self) -> int:
        # tiny slack so an endpoint like rho = 1.0 is not lost to fp division
        return math.floor((self.rho_max - self.rho_min) / self.step + 1e-9) + 1


def grid_max_exponent(rate: float, ch: HopChannel, grid: GridSpec) -> tuple[float, float]:
    """Maximize -rho*rate + E0(rho) on a dense rho grid.

    Ground truth for the parametric solvers; returns (exponent, argmax rho).
    """
    if not -math.inf < rate < math.inf:  # NaN fails it too
        raise ValueError(f"rate must be finite, got {rate}")
    rate = _doubles([rate], ValueError, "rate")[0]
    best_val = -math.inf
    best_rho = grid.rho_min
    npts = grid.points
    for start in range(0, npts, _GRID_CHUNK):
        stop = min(start + _GRID_CHUNK, npts)
        rho = grid.rho_min + grid.step * np.arange(start, stop, dtype=np.float64)
        vals = -rho * rate + np.asarray(e0(rho, ch))
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val = float(vals[k])
            best_rho = float(rho[k])
    return max(best_val, 0.0), best_rho


def exhaustive_allocation(exponents: list[float], q_total: int) -> list[int]:
    """Global minimizer of sum(exp(-Q_n E_n)) over integer compositions of Q.

    Only for desk-scale instances (Q <= 60, N <= 3); ties resolved to the
    lexicographically smallest composition.
    """
    n = len(exponents)
    if not (_is_integer(q_total) and all(0 <= e < math.inf for e in exponents)):  # NaN fails
        raise ValueError("need an integer budget and finite exponents >= 0")
    if q_total > _MAX_EXHAUSTIVE_Q or n > _MAX_EXHAUSTIVE_N:
        raise ValueError(
            f"instance too large for enumeration (Q <= {_MAX_EXHAUSTIVE_Q}, "
            f"N <= {_MAX_EXHAUSTIVE_N})")
    if q_total < n:
        raise ValueError("budget smaller than hop count")
    exponents = _doubles(exponents, ValueError, "exponents")
    best = None
    best_val = math.inf
    # cut points over Q-1 interior gaps give all compositions into n positive parts
    for cuts in combinations(range(1, q_total), n - 1):
        edges = (0,) + cuts + (q_total,)
        blocks = [edges[i + 1] - edges[i] for i in range(n)]
        val = sum(math.exp(-b * e) for b, e in zip(blocks, exponents))
        if val < best_val:
            best_val = val
            best = blocks
    return best


def _hamming_table(q: int) -> np.ndarray:
    """All 2^q binary sequences as a (2^q, q) array."""
    outputs = np.arange(2 ** q, dtype=np.uint32)
    return ((outputs[:, None] >> np.arange(q, dtype=np.uint32)[None, :]) & 1).astype(np.uint8)


def bsc_ensemble_error(blocklength: int, num_codewords: int, crossover: float,
                       trials: int, seed: int) -> tuple[float, float]:
    """Exact ML ensemble error of random binary codes on a BSC, averaged
    over `trials` i.i.d. uniform codebooks.

    ML ties count as errors (pessimistic), so the estimate upper-bounds the
    true ensemble error.  Returns (mean, stderr), numpy's mean and std(ddof=1) /
    sqrt(trials) bit for bit up to `_ENSEMBLE_BLOCK` trials, in O(`_ENSEMBLE_BLOCK`) memory.
    """
    if not (_is_integer(blocklength, 1) and _is_integer(num_codewords, 1)
            and _is_integer(trials, 1, 2 ** 53) and 0 <= crossover <= 1):  # NaN fails it too
        raise ValueError("need integers blocklength, num_codewords >= 1, trials in [1, 2**53]"
                         " and p in [0, 1]")
    if not _is_integer(seed, 0):  # not a bool, which numpy would take as 0 or 1
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    if blocklength > _MAX_ENSEMBLE_Q or num_codewords > _MAX_ENSEMBLE_M:
        raise ValueError(
            f"instance too large for exact enumeration (Q <= {_MAX_ENSEMBLE_Q}, "
            f"M <= {_MAX_ENSEMBLE_M})")
    q, m, p = blocklength, num_codewords, float(crossover)
    outputs = _hamming_table(q)  # (2^q, q)
    likelihood_by_dist = np.array(
        [p ** d * (1.0 - p) ** (q - d) for d in range(q + 1)])
    moments = None
    for start in range(0, trials, _ENSEMBLE_BLOCK):  # each block's errors, then its moments
        pe = np.empty(min(_ENSEMBLE_BLOCK, trials - start))
        for k in range(len(pe)):
            rng = np.random.default_rng([seed, start + k])
            code = rng.integers(0, 2, size=(m, q), dtype=np.uint8)
            dist = np.count_nonzero(code[:, None, :] != outputs[None, :, :], axis=2)
            lik = likelihood_by_dist[dist]  # (m, 2^q)
            colmax = lik.max(axis=0)
            unique_max = (lik == colmax[None, :]).sum(axis=0) == 1
            # codeword m decodes correctly on y iff it is the unique ML winner
            correct = (lik == colmax[None, :]) & unique_max[None, :]
            pe[k] = 1.0 - np.sum(lik * correct) / m
        moments = _moments(pe) if moments is None else _merge_moments(moments, _moments(pe))
    _, total, m2 = moments
    return total / trials, math.sqrt(m2 / (trials - 1)) / math.sqrt(trials) if trials > 1 else 0.0
