"""Saving and loading ARCS artefacts.

Two artefacts are worth persisting:

* a **segmentation** — the end product handed to users; serialised as
  JSON so it is diffable, versionable and consumable outside Python;
* a **BinArray** — the paper's re-mining asset: persisting it lets a
  later session change thresholds or criterion values without re-reading
  the source data (the counts, layouts and encoding round-trip through a
  compressed ``.npz``).

Formats are versioned; loaders reject unknown versions loudly rather
than guessing.
"""

from __future__ import annotations

import json
import time
import zipfile
from pathlib import Path

import numpy as np

import repro

from repro.binning.bin_array import BinArray
from repro.binning.categorical import CategoricalEncoding
from repro.binning.strategies import BinLayout
from repro.core.rules import ClusteredRule, GridRect, Interval
from repro.core.segmentation import Segmentation
from repro.data.summary import ReferenceProfile, reference_profile

SEGMENTATION_FORMAT = "arcs-segmentation/1"
BINARRAY_FORMAT = "arcs-binarray/1"


class PersistenceError(ValueError):
    """Raised when a file is not a valid persisted artefact."""


# ----------------------------------------------------------------------
# Segmentations (JSON)
# ----------------------------------------------------------------------
def _interval_to_dict(interval: Interval) -> dict:
    return {
        "low": interval.low,
        "high": interval.high,
        "closed_high": interval.closed_high,
    }


def _interval_from_dict(data: dict) -> Interval:
    return Interval(
        float(data["low"]), float(data["high"]),
        closed_high=bool(data["closed_high"]),
    )


def _rule_to_dict(rule: ClusteredRule) -> dict:
    payload = {
        "x_attribute": rule.x_attribute,
        "y_attribute": rule.y_attribute,
        "x_interval": _interval_to_dict(rule.x_interval),
        "y_interval": _interval_to_dict(rule.y_interval),
        "rhs_attribute": rule.rhs_attribute,
        "rhs_value": rule.rhs_value,
        "support": rule.support,
        "confidence": rule.confidence,
    }
    if rule.rect is not None:
        payload["rect"] = [
            rule.rect.x_lo, rule.rect.x_hi,
            rule.rect.y_lo, rule.rect.y_hi,
        ]
    return payload


def _rule_from_dict(data: dict) -> ClusteredRule:
    rect = None
    if "rect" in data:
        x_lo, x_hi, y_lo, y_hi = data["rect"]
        rect = GridRect(int(x_lo), int(x_hi), int(y_lo), int(y_hi))
    return ClusteredRule(
        x_attribute=data["x_attribute"],
        y_attribute=data["y_attribute"],
        x_interval=_interval_from_dict(data["x_interval"]),
        y_interval=_interval_from_dict(data["y_interval"]),
        rhs_attribute=data["rhs_attribute"],
        rhs_value=data["rhs_value"],
        support=float(data["support"]),
        confidence=float(data["confidence"]),
        rect=rect,
    )


def save_segmentation(segmentation: Segmentation,
                      path: str | Path, *,
                      bin_array: BinArray | None = None,
                      reference: ReferenceProfile | None = None) -> None:
    """Write a segmentation to ``path`` as versioned JSON.

    Alongside the rules, the artefact records provenance metadata
    (``library_version``, ``created_unix``) for registries and
    inspection tools; loaders tolerate its absence so pre-metadata
    artefacts keep loading.

    When the training ``bin_array`` (or a pre-distilled ``reference``
    profile) is supplied, its occupancy grid is embedded as a
    ``reference_profile`` block so the serving layer can score live
    traffic drift against the training distribution
    (:func:`segmentation_reference`).  Old artefacts without the block
    keep loading; serving then reports drift as unavailable.
    """
    if reference is None and bin_array is not None:
        reference = reference_profile(bin_array)
    payload = {
        "format": SEGMENTATION_FORMAT,
        "metadata": {
            "library_version": repro.__version__,
            "created_unix": time.time(),  # wall-clock: ok (artefact stamp)
        },
        "x_attribute": segmentation.x_attribute,
        "y_attribute": segmentation.y_attribute,
        "rhs_attribute": segmentation.rhs_attribute,
        "rhs_value": segmentation.rhs_value,
        "rules": [_rule_to_dict(rule) for rule in segmentation.rules],
    }
    if reference is not None:
        payload["reference_profile"] = reference.to_dict()
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)


def _read_segmentation_payload(path: str | Path) -> dict:
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except ValueError as error:
            raise PersistenceError(f"{path} is not valid JSON: {error}")
    found = payload.get("format") if isinstance(payload, dict) else None
    if found != SEGMENTATION_FORMAT:
        raise PersistenceError(
            f"{path} is not a {SEGMENTATION_FORMAT} file "
            f"(format={found!r})"
        )
    return payload


def segmentation_metadata(path: str | Path) -> dict:
    """The artefact's provenance metadata (empty for older artefacts).

    Validates the format tag like :func:`load_segmentation`, so feeding
    a foreign JSON file still fails loudly.
    """
    metadata = _read_segmentation_payload(path).get("metadata", {})
    return dict(metadata) if isinstance(metadata, dict) else {}


def segmentation_reference(path: str | Path) -> ReferenceProfile | None:
    """The training reference profile embedded in a segmentation
    artefact, or ``None`` for artefacts saved without one.

    Validates the format tag like :func:`load_segmentation`; a present
    but malformed ``reference_profile`` block raises
    :class:`PersistenceError` rather than silently disabling drift.
    """
    payload = _read_segmentation_payload(path)
    block = payload.get("reference_profile")
    if block is None:
        return None
    try:
        return ReferenceProfile.from_dict(block)
    except ValueError as error:
        raise PersistenceError(
            f"{path} has a malformed reference_profile block: {error}"
        ) from error


def load_segmentation(path: str | Path) -> Segmentation:
    """Read a segmentation previously written by
    :func:`save_segmentation`."""
    payload = _read_segmentation_payload(path)
    return Segmentation(
        rules=tuple(
            _rule_from_dict(rule) for rule in payload["rules"]
        ),
        x_attribute=payload["x_attribute"],
        y_attribute=payload["y_attribute"],
        rhs_attribute=payload["rhs_attribute"],
        rhs_value=payload["rhs_value"],
    )


# ----------------------------------------------------------------------
# BinArrays (npz)
# ----------------------------------------------------------------------
def save_bin_array(bin_array: BinArray, path: str | Path) -> None:
    """Write a BinArray (counts + layouts + encoding) to an ``.npz``.

    RHS values are stored as JSON so arbitrary hashable-but-serialisable
    values (strings, ints) survive; exotic value types should be encoded
    by the caller first.
    """
    metadata = {
        "format": BINARRAY_FORMAT,
        "x_attribute": bin_array.x_layout.attribute,
        "y_attribute": bin_array.y_layout.attribute,
        "rhs_attribute": bin_array.rhs_encoding.attribute,
        "rhs_values": list(bin_array.rhs_encoding.values),
        "target_code": bin_array.target_code,
        "n_total": bin_array.n_total,
    }
    np.savez_compressed(
        path,
        metadata=np.frombuffer(
            json.dumps(metadata).encode(), dtype=np.uint8
        ),
        x_edges=bin_array.x_layout.edges,
        y_edges=bin_array.y_layout.edges,
        counts=bin_array.counts,
        totals=bin_array.totals,
    )


def load_bin_array(path: str | Path) -> BinArray:
    """Read a BinArray previously written by :func:`save_bin_array`."""
    try:
        archive = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile) as error:
        raise PersistenceError(
            f"{path} is not a persisted BinArray: {error}"
        ) from None
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise PersistenceError(f"{path} is not a persisted BinArray")
    with archive:
        try:
            metadata = json.loads(bytes(archive["metadata"]).decode())
        except (KeyError, ValueError) as error:
            raise PersistenceError(
                f"{path} is not a persisted BinArray: {error}"
            ) from None
        if metadata.get("format") != BINARRAY_FORMAT:
            raise PersistenceError(
                f"{path} has format {metadata.get('format')!r}, "
                f"expected {BINARRAY_FORMAT}"
            )
        bin_array = BinArray(
            x_layout=BinLayout(metadata["x_attribute"],
                               archive["x_edges"]),
            y_layout=BinLayout(metadata["y_attribute"],
                               archive["y_edges"]),
            rhs_encoding=CategoricalEncoding(
                metadata["rhs_attribute"],
                tuple(metadata["rhs_values"]),
            ),
            target_code=metadata["target_code"],
        )
        counts = archive["counts"]
        totals = archive["totals"]
        if counts.shape != bin_array.counts.shape:
            raise PersistenceError(
                f"count cube shape {counts.shape} does not match the "
                f"stored layouts {bin_array.counts.shape}"
            )
        bin_array.counts = counts.astype(np.int64)
        bin_array.totals = totals.astype(np.int64)
        bin_array.n_total = int(metadata["n_total"])
    return bin_array
