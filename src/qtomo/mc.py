"""Monte Carlo aggregation of estimator values over records.

Accumulators are immutable values with the Chan-Golub-LeVeque merge
(1983), so a record stream can be split into shards in any layout:
determinism comes from the merge invariant, not from processing order.
Each shard's moments come from two numpy passes (mean, then the sum of
squared deviations), summed in an order that no BLAS thread count
changes.  Real and imaginary second moments are tracked separately
because error bars are checked per component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._jsonio import check_rows

__all__ = [
    "RunningEstimate",
    "moments",
    "merge",
    "finalize",
    "reconstruct",
]


@dataclass(frozen=True)
class RunningEstimate:
    count: int = 0
    mean: complex = 0.0 + 0.0j
    m2_re: float = 0.0
    m2_im: float = 0.0


def moments(values) -> RunningEstimate:
    """Count, mean and per-component M2 of one shard of complex values."""
    values = np.asarray(values, dtype=complex)
    if values.size == 0:
        return RunningEstimate()
    mean = values.mean()
    dev = values - mean
    # squared in place and summed by numpy's pairwise sum, not by a BLAS dot,
    # whose order of summation changes with the BLAS thread count
    squares = dev.real, dev.imag
    for part in squares:
        np.square(part, out=part)
    return RunningEstimate(
        count=values.size,
        mean=complex(mean),
        m2_re=float(squares[0].sum()),
        m2_im=float(squares[1].sum()),
    )


def merge(a: RunningEstimate, b: RunningEstimate) -> RunningEstimate:
    """Combine accumulators of disjoint streams (associative, commutative)."""
    if a.count == 0:
        return b
    if b.count == 0:
        return a
    count = a.count + b.count
    delta = b.mean - a.mean
    scale = a.count * b.count / count
    return RunningEstimate(
        count=count,
        mean=a.mean + delta * (b.count / count),
        m2_re=a.m2_re + b.m2_re + delta.real**2 * scale,
        m2_im=a.m2_im + b.m2_im + delta.imag**2 * scale,
    )


def finalize(acc: RunningEstimate) -> dict:
    """Mean with per-component standard errors; stderr is None below 2 samples."""
    if acc.count < 1:
        raise ValueError("cannot finalize an empty estimate")
    if acc.count >= 2:
        stderr_re = math.sqrt(acc.m2_re / (acc.count - 1)) / math.sqrt(acc.count)
        stderr_im = math.sqrt(acc.m2_im / (acc.count - 1)) / math.sqrt(acc.count)
    else:
        stderr_re = stderr_im = None
    return {
        "mean": acc.mean,
        "stderr_re": stderr_re,
        "stderr_im": stderr_im,
        "count": acc.count,
    }


def reconstruct(records, kernel) -> dict:
    """Average the estimator kernel over a record batch.

    A kernel value that is not finite (an outcome so large that its
    estimator overflows), or whose real or imaginary part is so large that
    the sum of squared deviations of the batch could overflow, raises
    RecordError naming the first such record.
    """
    if len(records) == 0:
        raise ValueError("cannot reconstruct from an empty record stream")
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.asarray(kernel.evaluate(records), dtype=complex)
    # each deviation is at most 2 * limit, so the sum of count squares stays finite
    limit = math.sqrt(np.finfo(float).max / (8.0 * values.size))
    check_rows([
        (np.isfinite(values), "estimator value is not finite", values),
        (
            np.maximum(np.abs(values.real), np.abs(values.imag)) <= limit,
            f"estimator value is too large to average over {values.size} records "
            f"(limit {limit:.3e})",
            values,
        ),
    ])
    return finalize(moments(values))
