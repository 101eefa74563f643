"""Output checks.  Each returns the list of problems it found; an empty
list means the output is correct.  Every problem counts as one failed
operation in the benchmark's result, never as a skip."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

#: The declared domains of the two LHS attributes (``data.synthetic``).
AGE_RANGE = (20.0, 80.0)
SALARY_RANGE = (20_000.0, 150_000.0)


def model_id(raw: bytes) -> str:
    """The id ``arcs serve`` gives an artefact: its bytes' sha256, 12 hex."""
    return hashlib.sha256(raw).hexdigest()[:12]


def region_error(segmentation) -> float:
    """Exact error area against function 2's true Group-A regions."""
    from repro.analysis.accuracy import exact_region_error
    from repro.data.functions import true_regions

    return exact_region_error(segmentation, true_regions(2), AGE_RANGE,
                              SALARY_RANGE).total_error_area


def region_quality(path: Path, ceiling: float) -> tuple[float, list[str]]:
    """A saved segmentation's region error, failed above ``ceiling``.

    The error is deterministic per input, so a ceiling set above every
    seed measured catches a change that returns a worse segmentation.
    """
    from repro.persistence import load_segmentation

    try:
        error = region_error(load_segmentation(path))
    except (OSError, ValueError, KeyError) as problem:
        return float("nan"), [f"{path.name} does not load: {problem}"]
    if not error <= ceiling:
        return error, [f"{path.name}: region error {error:.6f} is above "
                       f"the ceiling {ceiling:g}"]
    return error, []


def same_segmentation(paths: list[Path]) -> list[str]:
    """Repeated fits of one input must save the same segmentation.

    Compares the semantic content hash (rules and attributes), since
    artefact bytes also carry a creation time stamp.
    """
    from repro.persistence import load_segmentation
    from repro.stream.refitter import segmentation_content_hash

    problems = []
    hashes = []
    for path in paths:
        try:
            hashes.append(segmentation_content_hash(
                load_segmentation(path)))
        except (OSError, ValueError, KeyError) as error:
            problems.append(f"{path.name} does not load: {error}")
    if len(set(hashes)) > 1:
        problems.append(f"repetitions saved different segmentations: "
                        f"{sorted(set(hashes))}")
    return problems


def stream_artefacts(capture_dir: Path) -> list[str]:
    """Every artefact a refit published loads, and its bytes hash to the
    model id the refit reported."""
    from repro.persistence import load_segmentation

    document = json.loads((capture_dir / "stream.json").read_text())
    published = [record["model_id"] for record in document["records"]
                 if record["published"]]
    paths = sorted(capture_dir.glob("artefact-*.json"))
    problems = []
    if len(paths) != len(published):
        problems.append(f"{len(published)} publishes but {len(paths)} "
                        f"artefacts captured")
    for path, expected in zip(paths, published):
        try:
            load_segmentation(path)
        except (OSError, ValueError, KeyError) as error:
            problems.append(f"{path.name} does not load: {error}")
            continue
        if model_id(path.read_bytes()) != expected:
            problems.append(f"{path.name} is not model {expected}")
    return problems


def prediction(status: int, body, index: int,
               expected: dict[str, list[int]]) -> str | None:
    """One ``/predict`` answer for point ``index``.

    ``expected`` maps each servable model id to the scalar oracle's rule
    index per point (``-1`` outside every rule).  Returns the problem,
    or ``None`` when the answer is right.
    """
    if status != 200:
        return f"HTTP {status}"
    if not isinstance(body, dict) or body.get("model") not in expected:
        return f"answer names no known model: {body!r:.120}"
    want = expected[body["model"]][index]
    got = body.get("rule")
    got = -1 if got is None else got
    if got != want or body.get("in_segment") != (want >= 0):
        return (f"point {index}: model {body['model']} answered rule "
                f"{got}, oracle says {want}")
    return None
