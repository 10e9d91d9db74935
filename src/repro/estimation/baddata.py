"""Bad-data detection and identification.

Standard WLS post-processing (Abur & Expósito, ch. 5):

- :func:`chi_square_test` — global detection: the WLS objective follows a
  chi-square distribution with ``m - n`` degrees of freedom under the
  Gaussian hypothesis.
- :func:`normalized_residuals` — per-measurement normalized residuals using
  the residual covariance ``Ω = R - H G⁻¹ Hᵀ``.
- :func:`identify_bad_data` — the largest-normalized-residual loop: remove
  the worst measurement, re-estimate, repeat until the test passes.

Nothing here builds or factors a gain of its own: the residual covariance
solves against the estimator's factor (:meth:`WlsEstimator.factor_at`), and a
removed measurement is a zero in the ``weights`` given to its loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.stats import chi2

from ..grid.network import Network
from ..measurements.types import MeasurementSet
from .results import EstimationResult
from .wls import WlsEstimator

__all__ = [
    "chi_square_test",
    "normalized_residuals",
    "BadDataReport",
    "identify_bad_data",
]


def chi_square_test(result: EstimationResult, *, alpha: float = 0.01) -> bool:
    """True when the estimate passes the global chi-square test.

    ``alpha`` is the false-alarm probability; the test passes when the WLS
    objective is below the (1 - alpha) quantile of chi2(dof).
    """
    if result.dof <= 0:
        return True  # no redundancy, nothing to test
    threshold = chi2.ppf(1.0 - alpha, df=result.dof)
    return result.objective <= threshold


def normalized_residuals(
    estimator: WlsEstimator, result: EstimationResult, weights=None
) -> np.ndarray:
    """Normalized residuals ``|r_i| / sqrt(Ω_ii)``.

    ``Ω = R - H G⁻¹ Hᵀ`` is the residual covariance; its diagonal comes
    from multi-right-hand-side solves against the estimator's gain factor
    at the solution (no dense m×m matrix is formed).  ``weights`` are the
    row weights ``result`` was estimated with (default: the set's own); a
    row of zero weight took no part in the estimate and reads 0.
    """
    w = estimator.mset.weights if weights is None else np.asarray(weights, float)
    factor, H = estimator.factor_at(result.Vm, result.Va, w)
    with np.errstate(divide="ignore"):      # zero weight: R = inf, reads 0
        omega = 1.0 / w - factor.quadratic_diagonal(H)
    # Leverage points can drive Ω_ii to ~0; floor it to keep ratios finite.
    return np.abs(result.residuals) / np.sqrt(np.maximum(omega, 1e-12))


@dataclass
class BadDataReport:
    """Outcome of the identification loop."""

    clean: MeasurementSet
    removed_rows: list[int]
    result: EstimationResult
    passes_chi_square: bool


def identify_rows(
    estimator: WlsEstimator,
    *,
    z: np.ndarray | None = None,
    alpha: float = 0.01,
    nr_threshold: float = 3.0,
    max_removals: int = 20,
    result: EstimationResult | None = None,
) -> tuple[list[int], EstimationResult, bool]:
    """The largest-normalized-residual loop on one estimator.

    Estimates (values ``z``, default the set's own), tests, zeroes the
    weight of the row with the largest normalized residual above
    ``nr_threshold``, and repeats.  ``result`` is the first pass when the
    caller already holds it (this estimator's flat-start solve of ``z``
    with the set's own weights).  Returns ``(removed rows, last result,
    whether it passes the chi-square test)``; the result keeps every row's
    residual, its ``dof`` and ``objective`` count the rows still weighted.
    """
    w = estimator.mset.weights      # computed from sigma: ours to write into
    removed: list[int] = []
    if result is None:
        result = estimator.estimate(z=z, weights=w)
    while True:
        passes = chi_square_test(result, alpha=alpha)
        if passes or len(removed) >= max_removals:
            return removed, result, passes
        rn = normalized_residuals(estimator, result, w)
        worst = int(np.argmax(rn))
        if rn[worst] < nr_threshold:
            return removed, result, passes
        removed.append(worst)
        w[worst] = 0.0
        result = estimator.estimate(z=z, weights=w)


def identify_bad_data(
    net: Network,
    mset: MeasurementSet,
    *,
    alpha: float = 0.01,
    nr_threshold: float = 3.0,
    max_removals: int = 20,
) -> BadDataReport:
    """Largest-normalized-residual identification loop.

    Estimates, tests, removes the measurement with the largest normalized
    residual above ``nr_threshold``, and repeats (:func:`identify_rows` on
    one estimator of ``mset``).  Row indices in ``removed_rows`` refer to
    the *original* measurement set; ``result`` is reported over ``clean``.
    """
    removed, result, passes = identify_rows(
        WlsEstimator(net, mset),
        alpha=alpha, nr_threshold=nr_threshold, max_removals=max_removals,
    )
    keep = np.ones(len(mset), dtype=bool)
    keep[removed] = False
    return BadDataReport(
        clean=mset.subset(keep),
        removed_rows=removed,
        result=replace(result, residuals=result.residuals[keep]),
        passes_chi_square=passes,
    )
