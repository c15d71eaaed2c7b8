"""Counter-based uniform stream for reproducible record sampling.

Record ``i`` of a stream is a pure function of ``(seed, i)``: the ``k``
uniforms consumed by that record come from a splitmix-style 64-bit mix of
the counter ``i * k + j``, keyed by the seed.  Any sharding of the index
range therefore reproduces the exact same stream, which is what makes the
sampling contracts byte-reproducible across worker layouts.

It is the package's one random source, so no module imports
``numpy.random``: the homodyne and spin samplers draw their records from
it, and ``qtomo validate`` its random inputs, each input from counters that
no other input uses.
"""

from __future__ import annotations

import numpy as np

__all__ = ["record_uniforms"]

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def record_uniforms(seed: int, start: int, count: int, draws: int) -> np.ndarray:
    """Uniforms in [0, 1) for records ``start .. start+count-1``.

    Returns shape ``(count, draws)``; row ``r`` depends only on
    ``(seed, start + r)``.
    """
    if count < 0 or draws < 1:
        raise ValueError("count must be >= 0 and draws >= 1")
    with np.errstate(over="ignore"):
        key = _mix64(np.uint64(seed % (1 << 64)) + _GAMMA)
        counters = (
            np.arange(start, start + count, dtype=np.uint64)[:, None] * np.uint64(draws)
            + np.arange(draws, dtype=np.uint64)[None, :]
        )
        bits = _mix64(key + (counters + np.uint64(1)) * _GAMMA)
    return (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53
