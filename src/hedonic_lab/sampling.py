"""Reproducible sampling of random games with i.i.d. utilities.

Seeding is counter-based: a ``SeedSpec`` (master seed, stream index) fully
determines a generator, and per-trial seeds are derived statelessly from a
master so trials can run in any order or in parallel with identical results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .games import HedonicGame, _integer

__all__ = ["UtilityDistribution", "SeedSpec", "sample_game", "derive_trial_seed"]

_UINT64 = (1 << 64) - 1

# Draws per chunk of ``UtilityDistribution.sample`` (128 KB of float64): a
# chunk is scaled and range-checked while it is still in cache.
_CHUNK = 1 << 14


@dataclass(frozen=True)
class UtilityDistribution:
    """Uniform distribution on the open interval ``(lo, hi)``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got ({self.lo}, {self.hi})")
        if not math.isfinite(self.hi - self.lo):
            # hi - lo scales every draw; an infinite width makes no finite draw.
            raise ValueError(f"need a finite width hi - lo, got ({self.lo}, {self.hi})")

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "UtilityDistribution":
        return cls(float(lo), float(hi))

    @classmethod
    def parse(cls, spec: str) -> "UtilityDistribution":
        """Parse ``uniform:lo:hi`` (e.g. ``uniform:-1:1``)."""
        parts = spec.strip().split(":")
        if len(parts) != 3 or parts[0].lower() != "uniform":
            raise ValueError(f"cannot parse distribution {spec!r}, expected uniform:lo:hi")
        return cls(float(parts[1]), float(parts[2]))

    @property
    def mean(self) -> float:
        return (self.lo + self.hi) / 2.0

    @property
    def positive_mass(self) -> float:
        """P(X > 0) for a draw from this distribution."""
        if self.hi <= 0:
            return 0.0
        if self.lo >= 0:
            return 1.0
        return self.hi / (self.hi - self.lo)

    def sample(self, rng: np.random.Generator, shape,
               out: np.ndarray | None = None) -> np.ndarray:
        """Draws of ``shape`` into a fresh array, or into the C-contiguous ``out``.

        The table is filled in chunks of its flat view: each chunk takes its
        generator doubles, is scaled to ``lo + (hi - lo) * u`` and checked
        against the open support while it is still in cache.  The stream is
        consumed in C order, so the draws equal ``rng.uniform(lo, hi, shape)``
        bit for bit.  Endpoints have probability ~2^-53; when one occurs, every
        entry on an endpoint is then redrawn over the whole table, in C order,
        until none is left.
        """
        lo, hi = self.lo, self.hi
        if out is None:
            out = np.empty(shape)
        elif out.shape != tuple(np.atleast_1d(shape)) and out.shape != shape:
            raise ValueError("out buffer shape mismatch")
        flat = out.reshape(-1)
        on_endpoint = False
        for start in range(0, flat.size, _CHUNK):
            chunk = flat[start:start + _CHUNK]
            rng.random(out=chunk)
            chunk *= hi - lo
            chunk += lo
            on_endpoint = on_endpoint or chunk.min() <= lo or chunk.max() >= hi
        if on_endpoint:
            bad = (out <= lo) | (out >= hi)
            while bad.any():
                k = int(bad.sum())
                out[bad] = lo + (hi - lo) * rng.random(k)
                bad = (out <= lo) | (out >= hi)
        return out

    def spec_string(self) -> str:
        return f"uniform:{self.lo:g}:{self.hi:g}"


UNIFORM_SYMMETRIC = UtilityDistribution(-1.0, 1.0)


@dataclass(frozen=True)
class SeedSpec:
    """(master seed, stream index): fully determines every sampled value.

    Both fields are stored as Python ints; NumPy integers are taken, a bool,
    float or any other non-integer raises ``TypeError``.  The master seed may
    be negative, the stream index may not.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "master_seed", _integer(self.master_seed, "master_seed"))
        object.__setattr__(self, "stream_index", _integer(self.stream_index, "stream_index"))
        if self.stream_index < 0:
            raise ValueError("stream_index must be nonnegative")

    def seed_sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(self.master_seed & _UINT64,
                                      spawn_key=(self.stream_index,))

    def rng(self) -> np.random.Generator:
        # SFC64: fastest numpy bit generator at equal statistical quality here.
        return np.random.Generator(np.random.SFC64(self.seed_sequence()))


def derive_trial_seed(master: SeedSpec, trial: int) -> SeedSpec:
    """Stateless per-trial seed: injective in ``trial`` for a fixed master.

    ``trial`` follows the rule for seeds: a bool, float or other non-integer
    raises ``TypeError``.
    """
    trial = _integer(trial, "trial")
    if trial < 0:
        raise ValueError("trial index must be nonnegative")
    return SeedSpec(master.master_seed, master.stream_index + trial)


def sample_game(n: int, dist: UtilityDistribution, seed: SeedSpec,
                *, out: np.ndarray | None = None) -> HedonicGame:
    """Sample a random game with every off-diagonal entry an i.i.d. draw from ``dist``.

    ``out`` reuses a caller-owned C-contiguous (n, n) float64 buffer for
    tight loops; the values are identical to a fresh allocation, but any game
    previously wrapping that buffer must no longer be read.  Any other ``out``
    raises ``ValueError``: the draws fill the buffer in C order.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if out is not None and not (isinstance(out, np.ndarray) and out.dtype == np.float64
                                and out.shape == (n, n) and out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous float64 ({n}, {n}) array")
    rng = seed.rng()
    if out is not None:
        out.setflags(write=True)
    arr = dist.sample(rng, (n, n), out=out)
    np.fill_diagonal(arr, 0.0)
    return HedonicGame.from_validated_array(arr)
