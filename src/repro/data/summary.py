"""Dataset profiling: the quick look before choosing LHS attributes.

The ARCS workflow starts with a human choosing two LHS attributes and a
criterion (paper Section 1), which presumes a summary of what the table
holds.  :func:`profile_table` computes per-attribute statistics —
range, mean, quartiles and a coarse text histogram for quantitative
columns; cardinality and top values for categorical ones — and
:func:`format_profile` renders them for the terminal (the CLI's
``arcs describe`` command).

The same module owns the *bin-occupancy* statistics of a populated
BinArray (:func:`profile_bin_array`), so the binner's occupancy gauges,
the CLI's ``remine`` output and any ad-hoc inspection all share one
implementation — and the serialisable :class:`ReferenceProfile` derived
from the same grid (:func:`reference_profile`), which persistence embeds
in the model artefact and the serving monitor scores live traffic
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.schema import DataError, Table

#: Characters for the eight-level text histogram bars.
_BARS = " .:-=+*#"


@dataclass(frozen=True)
class QuantitativeProfile:
    """Summary statistics of one quantitative column."""

    name: str
    minimum: float
    maximum: float
    mean: float
    quartiles: tuple[float, float, float]
    histogram: str


@dataclass(frozen=True)
class CategoricalProfile:
    """Summary statistics of one categorical column."""

    name: str
    cardinality: int
    top_values: tuple[tuple[object, int], ...]


def _text_histogram(values: np.ndarray, bins: int = 24) -> str:
    counts, _ = np.histogram(values, bins=bins)
    peak = counts.max() if counts.size else 0
    if peak == 0:
        return " " * bins
    levels = np.ceil(counts / peak * (len(_BARS) - 1)).astype(int)
    return "".join(_BARS[level] for level in levels)


def profile_table(table: Table,
                  top_k: int = 5) -> list:
    """Profile every column; returns a list of per-attribute profiles
    in schema order."""
    if top_k <= 0:
        raise ValueError("top_k must be positive")
    profiles = []
    for name, spec in table.schema.items():
        column = table.column(name)
        if spec.is_quantitative:
            values = column.astype(np.float64)
            if len(values) == 0:
                raise ValueError(f"cannot profile empty column {name!r}")
            if not np.isfinite(values).all():
                raise DataError(
                    f"column {name!r} contains NaN or infinite values; "
                    "clean the data before profiling"
                )
            q1, q2, q3 = np.quantile(values, [0.25, 0.5, 0.75])
            profiles.append(
                QuantitativeProfile(
                    name=name,
                    minimum=float(values.min()),
                    maximum=float(values.max()),
                    mean=float(values.mean()),
                    quartiles=(float(q1), float(q2), float(q3)),
                    histogram=_text_histogram(values),
                )
            )
        else:
            values, counts = np.unique(
                column.astype(str), return_counts=True
            )
            order = np.argsort(-counts)
            top = tuple(
                (values[i], int(counts[i])) for i in order[:top_k]
            )
            profiles.append(
                CategoricalProfile(
                    name=name,
                    cardinality=len(values),
                    top_values=top,
                )
            )
    return profiles


@dataclass(frozen=True)
class OccupancyProfile:
    """Bin-occupancy statistics of one populated BinArray."""

    grid_cells: int
    occupied_cells: int
    n_tuples: int
    max_cell_count: int
    mean_occupied_count: float

    @property
    def occupancy_fraction(self) -> float:
        if self.grid_cells == 0:
            return 0.0
        return self.occupied_cells / self.grid_cells


def profile_bin_array(bin_array) -> OccupancyProfile:
    """Occupancy statistics of any BinArray-shaped object (``totals``
    grid plus ``n_total``)."""
    totals = np.asarray(bin_array.totals)
    occupied = int(np.count_nonzero(totals))
    return OccupancyProfile(
        grid_cells=int(totals.size),
        occupied_cells=occupied,
        n_tuples=int(bin_array.n_total),
        max_cell_count=int(totals.max()) if totals.size else 0,
        mean_occupied_count=(
            float(totals.sum() / occupied) if occupied else 0.0
        ),
    )


@dataclass(frozen=True)
class ReferenceProfile:
    """Training occupancy distilled for drift scoring.

    The joint per-cell tuple counts of a populated BinArray plus the
    exact bin edges that produced them — everything the serving monitor
    needs to re-bin live traffic into the *training* grid and compare
    distributions, and small enough to embed in the model artefact.
    Marginals are derived, not stored.
    """

    x_attribute: str
    y_attribute: str
    x_edges: np.ndarray
    y_edges: np.ndarray
    totals: np.ndarray
    n_total: int

    def __post_init__(self):
        x_edges = np.asarray(self.x_edges, dtype=np.float64)
        y_edges = np.asarray(self.y_edges, dtype=np.float64)
        totals = np.asarray(self.totals, dtype=np.int64)
        if x_edges.ndim != 1 or x_edges.size < 2:
            raise ValueError("x_edges must be a 1-D array of >= 2 edges")
        if y_edges.ndim != 1 or y_edges.size < 2:
            raise ValueError("y_edges must be a 1-D array of >= 2 edges")
        expected_shape = (x_edges.size - 1, y_edges.size - 1)
        if totals.shape != expected_shape:
            raise ValueError(
                f"totals shape {totals.shape} does not match the edge "
                f"grid {expected_shape}"
            )
        if int(self.n_total) < 0:
            raise ValueError("n_total must be non-negative")
        for array in (x_edges, y_edges, totals):
            array.flags.writeable = False
        object.__setattr__(self, "x_edges", x_edges)
        object.__setattr__(self, "y_edges", y_edges)
        object.__setattr__(self, "totals", totals)
        object.__setattr__(self, "n_total", int(self.n_total))

    @property
    def n_x(self) -> int:
        return self.totals.shape[0]

    @property
    def n_y(self) -> int:
        return self.totals.shape[1]

    @property
    def x_counts(self) -> np.ndarray:
        """Marginal tuple counts per x bin."""
        return self.totals.sum(axis=1)

    @property
    def y_counts(self) -> np.ndarray:
        """Marginal tuple counts per y bin."""
        return self.totals.sum(axis=0)

    def occupancy(self) -> OccupancyProfile:
        return profile_bin_array(self)

    def to_dict(self) -> dict:
        """JSON-serialisable form (embedded in model artefacts)."""
        return {
            "x_attribute": self.x_attribute,
            "y_attribute": self.y_attribute,
            "x_edges": [float(edge) for edge in self.x_edges],
            "y_edges": [float(edge) for edge in self.y_edges],
            "totals": [
                [int(count) for count in row] for row in self.totals
            ],
            "n_total": self.n_total,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ReferenceProfile":
        """Inverse of :meth:`to_dict`; raises :class:`ValueError` on a
        malformed payload."""
        if not isinstance(payload, dict):
            raise ValueError(
                f"reference profile must be an object, got "
                f"{type(payload).__name__}"
            )
        try:
            return cls(
                x_attribute=str(payload["x_attribute"]),
                y_attribute=str(payload["y_attribute"]),
                x_edges=np.asarray(payload["x_edges"], dtype=np.float64),
                y_edges=np.asarray(payload["y_edges"], dtype=np.float64),
                totals=np.asarray(payload["totals"], dtype=np.int64),
                n_total=int(payload["n_total"]),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(
                f"malformed reference profile: {exc}"
            ) from exc


def reference_profile(bin_array) -> ReferenceProfile:
    """Distil a populated BinArray into a :class:`ReferenceProfile`."""
    return ReferenceProfile(
        x_attribute=bin_array.x_layout.attribute,
        y_attribute=bin_array.y_layout.attribute,
        x_edges=np.array(bin_array.x_layout.edges, dtype=np.float64),
        y_edges=np.array(bin_array.y_layout.edges, dtype=np.float64),
        totals=np.array(bin_array.totals, dtype=np.int64),
        n_total=int(bin_array.n_total),
    )


def format_occupancy(profile: OccupancyProfile) -> str:
    """One-line terminal rendering of an :class:`OccupancyProfile`."""
    return (
        f"{profile.n_tuples:,} tuples over {profile.grid_cells:,} cells: "
        f"{profile.occupied_cells:,} occupied "
        f"({profile.occupancy_fraction:.1%}), "
        f"mean {profile.mean_occupied_count:.1f} / "
        f"max {profile.max_cell_count} per occupied cell"
    )


def format_profile(profiles: list, n_rows: int) -> str:
    """Render profiles as an aligned terminal report."""
    lines = [f"{n_rows:,} rows, {len(profiles)} attributes", ""]
    for profile in profiles:
        if isinstance(profile, QuantitativeProfile):
            q1, q2, q3 = profile.quartiles
            lines.append(
                f"{profile.name:>12}  [{profile.minimum:g}, "
                f"{profile.maximum:g}]  mean={profile.mean:g}  "
                f"quartiles={q1:g}/{q2:g}/{q3:g}"
            )
            lines.append(f"{'':>12}  |{profile.histogram}|")
        else:
            rendered = ", ".join(
                f"{value} ({count})"
                for value, count in profile.top_values
            )
            lines.append(
                f"{profile.name:>12}  {profile.cardinality} distinct: "
                f"{rendered}"
            )
    return "\n".join(lines)
