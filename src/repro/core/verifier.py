"""The verifier: sampled error measurement (paper Section 3.6).

Given a segmentation, the verifier draws repeated k-out-of-n samples from
the source data and counts, per sample,

* **false positives** — tuples a cluster covers whose group is *not* the
  criterion value, and
* **false negatives** — tuples of the criterion group no cluster covers.

The per-sample error is ``FP + FN``; the relative error is that count over
the sample size.  Averaging over repeats ("a stronger statistical
technique") tightens the estimate, and the standard error across repeats
quantifies how tight.  The MDL scorer consumes the mean error count.

Hot path
--------
Cluster coverage and target membership are computed **once per
segmentation** as boolean vectors over the full table; every repeat is
then a pure gather + popcount, and all repeats are evaluated together as
one ``(repeats, k)`` array operation (:func:`count_repeat_errors`).

Each repeat draws its indices from its own deterministic generator
(:func:`repro.data.sampling.repeat_rng`), so the estimate for a fixed
seed does not depend on how the repeats are batched.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.segmentation import Segmentation
from repro.data.sampling import mean_and_stderr, repeat_rng, sample_indices
from repro.data.schema import Table
from repro.obs import metrics, trace

logger = logging.getLogger(__name__)


def count_repeat_errors(covered: np.ndarray, is_target: np.ndarray,
                        sample_size: int, seed: int,
                        repeat_ids: Sequence[int],
                        ) -> tuple[np.ndarray, np.ndarray]:
    """FP and FN counts for a batch of repeats, as one array operation.

    ``covered``/``is_target`` are full-table boolean vectors; repeat ``r``
    draws its ``sample_size`` indices from ``repeat_rng(seed, r)``.  All
    the batch's samples are gathered into one ``(repeats, k)`` matrix and
    the per-repeat counts fall out of two vectorised comparisons.

    Because seeding is per repeat, any partition of ``repeat_ids``
    produces the same counts.  Returns ``(fp_counts, fn_counts)``
    aligned with ``repeat_ids``.
    """
    n = len(covered)
    indices = np.stack([
        sample_indices(n, sample_size, repeat_rng(seed, repeat))
        for repeat in repeat_ids
    ])
    sample_covered = covered[indices]
    sample_target = is_target[indices]
    fp_counts = np.count_nonzero(sample_covered & ~sample_target, axis=1)
    fn_counts = np.count_nonzero(~sample_covered & sample_target, axis=1)
    return fp_counts.astype(np.int64), fn_counts.astype(np.int64)


def target_mask(labels: np.ndarray, target_value) -> np.ndarray:
    """Boolean mask of rows whose label equals the target value.

    NumPy broadcasts ``==`` element-wise over object arrays, which is the
    fast path; the scalar fallback covers values whose ``__eq__`` refuses
    arrays or returns non-arrays.
    """
    comparison = labels == target_value
    if isinstance(comparison, np.ndarray) and comparison.dtype == bool:
        return comparison
    return np.asarray(
        [label == target_value for label in labels], dtype=bool
    )


@dataclass(frozen=True)
class VerificationReport:
    """The verifier's estimate for one segmentation.

    ``mean_errors`` is the average FP+FN *count* per sample (what MDL
    wants); ``error_rate`` is the same as a fraction of the sample size
    (what the paper's Figures 11/12 plot).
    """

    mean_false_positives: float
    mean_false_negatives: float
    sample_size: int
    repeats: int
    error_rate: float
    error_rate_stderr: float

    @property
    def mean_errors(self) -> float:
        return self.mean_false_positives + self.mean_false_negatives


@dataclass
class Verifier:
    """Estimates segmentation error on samples of one source table.

    Parameters
    ----------
    table:
        The source data, carrying the LHS columns and the group column.
    rhs_attribute, target_value:
        The criterion: rows with ``table[rhs_attribute] == target_value``
        belong to the segment being verified.
    sample_size:
        ``k`` of the k-out-of-n scheme.  Clamped to the table size.
    repeats:
        Number of independent samples averaged.
    seed:
        RNG seed; a fixed verifier gives identical estimates for identical
        segmentations, which keeps the optimizer's search deterministic.
        Repeat ``r`` always draws from ``repeat_rng(seed, r)``.
    """

    table: Table
    rhs_attribute: str
    target_value: object
    sample_size: int = 1000
    repeats: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sample_size <= 0:
            raise ValueError("sample_size must be positive")
        if self.repeats <= 0:
            raise ValueError("repeats must be positive")
        self.sample_size = min(self.sample_size, len(self.table))

    # ------------------------------------------------------------------
    # Coverage precomputation (once per segmentation)
    # ------------------------------------------------------------------
    def _coverage(self, segmentation: Segmentation,
                  ) -> tuple[np.ndarray, np.ndarray]:
        """Full-table cluster-coverage and target-membership vectors."""
        covered = segmentation.covers(
            self.table.column(segmentation.x_attribute),
            self.table.column(segmentation.y_attribute),
        )
        is_target = target_mask(
            self.table.column(self.rhs_attribute), self.target_value
        )
        return covered, is_target

    def verify(self, segmentation: Segmentation) -> VerificationReport:
        """Estimate the segmentation's error by repeated sampling."""
        with trace("verify", sample_size=self.sample_size,
                   repeats=self.repeats) as span:
            covered, is_target = self._coverage(segmentation)
            fp_counts, fn_counts = count_repeat_errors(
                covered, is_target, self.sample_size, self.seed,
                range(self.repeats),
            )
            metrics.inc("verifier.samples_drawn", self.repeats)
            metrics.inc("verifier.tuples_sampled",
                        self.repeats * self.sample_size)
            rates = (fp_counts + fn_counts) / float(self.sample_size)
            mean_rate, stderr = mean_and_stderr(rates)
            span.set("error_rate", mean_rate)
            logger.debug(
                "verified %d rules on %d x %d samples: error %.4f",
                len(segmentation), self.repeats, self.sample_size,
                mean_rate,
            )
        return VerificationReport(
            mean_false_positives=float(np.mean(fp_counts)),
            mean_false_negatives=float(np.mean(fn_counts)),
            sample_size=self.sample_size,
            repeats=self.repeats,
            error_rate=mean_rate,
            error_rate_stderr=stderr,
        )

    def exact_error_rate(self, segmentation: Segmentation) -> float:
        """Full-table FP+FN rate (no sampling) — the ground truth the
        sampled estimate approximates; used by tests and the figure
        benchmarks where determinism matters more than speed."""
        with trace("verify.exact", tuples=len(self.table)) as span:
            covered, is_target = self._coverage(segmentation)
            errors = np.count_nonzero(
                covered & ~is_target
            ) + np.count_nonzero(~covered & is_target)
            rate = float(errors) / len(self.table)
            metrics.inc("verifier.tuples_scanned", len(self.table))
            span.set("error_rate", rate)
        return rate
