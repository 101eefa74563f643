"""Analysis utilities around ARCS output.

* :class:`Segmentation` — the segmentation object (all clustered rules
  for one criterion value) and its region algebra, re-exported here from
  :mod:`repro.core.segmentation`, where it lives because core depends on
  it.
* :mod:`repro.analysis.accuracy` — the exact, area-based
  false-positive/false-negative analysis of paper Figure 9, available when
  the generating function's true regions are known.
* :mod:`repro.analysis.selection` — entropy/information-gain and principal
  component attribute selection (paper Sections 1 and 5).
"""

from repro.analysis.accuracy import RegionErrorReport, exact_region_error
from repro.analysis.calibration import (
    ErrorDecomposition,
    decompose_error,
    label_noise_rate,
)
from repro.analysis.report import evaluation_report
from repro.core.segmentation import Segmentation
from repro.analysis.selection import (
    information_gain,
    principal_components,
    rank_attribute_pairs,
)

__all__ = [
    "Segmentation",
    "ErrorDecomposition",
    "decompose_error",
    "label_noise_rate",
    "evaluation_report",
    "RegionErrorReport",
    "exact_region_error",
    "information_gain",
    "principal_components",
    "rank_attribute_pairs",
]
