"""Deterministic random-number streams for experiments.

Every stochastic component draws from a named stream derived from a single
root seed, so adding a new component never perturbs the draws seen by
existing ones — experiment results stay reproducible and comparable.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Dict, Iterable


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a child seed for ``name`` from ``root_seed``, stably."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class JitterStream:
    """Multiplicative lognormal jitter for one component, drawn lazily.

    Each stream owns an independent :class:`random.Random`, so the draws
    a component sees depend only on its own name — never on how other
    components interleave with it. Every :meth:`next` call draws exactly
    one value, ``exp(sigma * gauss(0, 1))``.
    """

    __slots__ = ("sigma", "_seed", "_rng")

    def __init__(self, seed: int, sigma: float) -> None:
        if sigma < 0:
            raise ValueError("jitter sigma cannot be negative")
        self.sigma = sigma
        # The generator (about 2.5 KB of state) is seeded on the first
        # draw: the executor keeps a stream per costed node, and many
        # nodes of a short run are never drawn for.
        self._seed = seed
        self._rng = None

    def next(self) -> float:
        """The next multiplier (mean ~1.0, spread ``sigma`` in log space)."""
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self._seed)
        return math.exp(self.sigma * rng.gauss(0.0, 1.0))


class RngRegistry:
    """Factory of named, independent :class:`random.Random` streams."""

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating if needed) the stream for ``name``."""
        stream = self._streams.get(name)
        if stream is None:
            stream = self._streams[name] = random.Random(
                derive_seed(self.root_seed, name))
        return stream

    def jitter_stream(self, name: str, sigma: float) -> JitterStream:
        """An independent jitter stream for ``name``."""
        return JitterStream(derive_seed(self.root_seed, name), sigma)

    def jitter_streams(self, prefix: str, keys: Iterable,
                       sigma: float) -> Dict:
        """Batch-derive one jitter stream per key (``{prefix}:{key}``).

        Components with many jittered entities (the executor keeps one
        stream per costed graph node) derive them all once, when their
        plan is compiled, instead of re-deriving named streams on every
        draw.
        """
        return {key: self.jitter_stream(f"{prefix}:{key}", sigma)
                for key in keys}

    def exponential(self, name: str, mean: float) -> float:
        """One draw from an exponential distribution with the given mean."""
        if mean <= 0:
            raise ValueError("exponential mean must be positive")
        return self.stream(name).expovariate(1.0 / mean)

    def uniform(self, name: str, low: float, high: float) -> float:
        return self.stream(name).uniform(low, high)

    def lognormal_around(self, name: str, center: float, sigma: float) -> float:
        """Multiplicative jitter: draw centered at ``center`` with spread
        ``sigma`` (in log space). Used for per-kernel execution noise."""
        if center <= 0:
            raise ValueError("lognormal center must be positive")
        return center * self.stream(name).lognormvariate(0.0, sigma)
