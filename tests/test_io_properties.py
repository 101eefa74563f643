"""Property-based round-trip tests for CSV I/O and persistence."""

import csv

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.io import read_csv, stream_csv, write_csv
from repro.data.schema import DataError, Table, categorical, quantitative

# Categorical values that survive CSV round trips (csv handles quoting,
# but values come back as strings, so generate strings; commas and
# quotes are fair game).
category_values = st.text(
    alphabet=st.characters(
        whitelist_categories=("Lu", "Ll", "Nd"),
        whitelist_characters=" ,_-'\"",
    ),
    min_size=1, max_size=12,
).map(str.strip).filter(bool)

SPECS = [
    quantitative("x"),
    quantitative("y"),
    categorical("label"),
]


@st.composite
def tables(draw, max_rows=30):
    n = draw(st.integers(1, max_rows))
    xs = draw(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n
    ))
    ys = draw(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n
    ))
    labels = draw(st.lists(category_values, min_size=n, max_size=n))
    return Table.from_columns(
        SPECS, {"x": xs, "y": ys, "label": labels}
    )


@settings(max_examples=40, deadline=None)
@given(tables())
def test_csv_round_trip_preserves_rows(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("io") / "t.csv"
    write_csv(table, path)
    loaded = read_csv(path, SPECS)
    assert len(loaded) == len(table)
    assert np.allclose(loaded.column("x"), table.column("x"),
                       rtol=1e-12, atol=0)
    assert list(loaded.column("label")) == [
        str(value) for value in table.column("label")
    ]


@settings(max_examples=30, deadline=None)
@given(tables(), st.integers(1, 7))
def test_streamed_chunks_concat_to_whole_file(tmp_path_factory, table,
                                              chunk_rows):
    path = tmp_path_factory.mktemp("io") / "t.csv"
    write_csv(table, path)
    chunks = list(stream_csv(path, SPECS, chunk_rows=chunk_rows))
    assert sum(len(chunk) for chunk in chunks) == len(table)
    assert all(len(chunk) <= chunk_rows for chunk in chunks)
    combined = chunks[0]
    for chunk in chunks[1:]:
        combined = combined.concat(chunk)
    whole = read_csv(path, SPECS)
    assert np.allclose(combined.column("y"), whole.column("y"),
                       rtol=1e-12, atol=0)


# ----------------------------------------------------------------------
# The columnar reader against a row-wise reference parser
# ----------------------------------------------------------------------
def reference_read(path, specs):
    """Row-wise reference: ``csv.reader`` and ``float()`` per field of
    the columns ``specs`` names, checking each row's width first."""
    wanted = {spec.name: spec for spec in specs}
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        columns = {name: [] for name in header if name in wanted}
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"line {line_number}: expected "
                                f"{len(header)} fields, got {len(row)}")
            for name, text in zip(header, row):
                if name not in wanted:
                    continue
                if wanted[name].is_quantitative:
                    try:
                        value = float(text)
                    except ValueError:
                        raise DataError(
                            f"line {line_number}: {text!r} is not a number "
                            f"for quantitative attribute {name!r}"
                        ) from None
                else:
                    value = text
                columns[name].append(value)
    return Table.from_columns([wanted[name] for name in columns], columns)


def assert_same_table(table, expected):
    assert table.attribute_names == expected.attribute_names
    for name in expected.attribute_names:
        got, want = table.column(name), expected.column(name)
        assert got.dtype == want.dtype
        if want.dtype == object:
            assert got.tolist() == want.tolist()
        else:
            assert got.tobytes() == want.tobytes()  # bit-identical


def outcome(read, path, specs):
    """``("ok", table)`` or ``("error", message)``."""
    try:
        return "ok", read(path, specs)
    except DataError as error:
        return "error", str(error)


ALL_SPECS = {
    "x": quantitative("x"),
    "y": quantitative("y"),
    "label": categorical("label"),
    "note": categorical("note"),
}

number_texts = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["nan", "inf", "-Infinity", " 7 ", "1_000", "-0.0",
                     "1e-320", "+.5"]),
)


@st.composite
def csv_files(draw, max_rows=25, faults=False):
    """``(write(path), specs)``: a CSV with a shuffled header, quoted
    categorical values, blank lines and an optional byte-order mark,
    plus a random subset of its columns to load.  Columns outside the
    subset may hold anything.  With ``faults``, ragged rows and
    non-numeric fields are injected at random positions."""
    n = draw(st.integers(1, max_rows))
    chosen = draw(st.lists(st.sampled_from(sorted(ALL_SPECS)),
                           min_size=1, unique=True))
    header = draw(st.permutations(sorted(ALL_SPECS)))
    columns = {
        name: draw(st.lists(
            number_texts if name in chosen
            and ALL_SPECS[name].is_quantitative else category_values,
            min_size=n, max_size=n,
        ))
        for name in header
    }
    rows = [[columns[name][i] for name in header] for i in range(n)]
    records = list(rows)
    if faults:
        numeric = [index for index, name in enumerate(header)
                   if name in chosen and ALL_SPECS[name].is_quantitative]
        for _ in range(draw(st.integers(1, 3))):
            if draw(st.booleans()):
                width = draw(st.sampled_from([1, len(header) - 1,
                                              len(header) + 1]))
                records.insert(draw(st.integers(0, len(records))),
                               ["9"] * width)
            else:
                row = draw(st.sampled_from(rows))
                row[draw(st.sampled_from(numeric or range(len(row))))] = \
                    "n/a"
    for _ in range(draw(st.integers(0, 3))):
        records.insert(draw(st.integers(0, len(records))), [])
    bom = draw(st.booleans())

    def write(path):
        with open(path, "w", newline="",
                  encoding="utf-8-sig" if bom else "utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for record in records:
                if record:
                    writer.writerow(record)
                else:
                    handle.write("\r\n")

    return write, [ALL_SPECS[name] for name in chosen]


@settings(max_examples=60, deadline=None)
@given(csv_files())
def test_read_csv_matches_row_wise_reference(tmp_path_factory, case):
    write, specs = case
    path = tmp_path_factory.mktemp("io") / "t.csv"
    write(path)
    assert_same_table(read_csv(path, specs), reference_read(path, specs))


@settings(max_examples=40, deadline=None)
@given(csv_files(), st.integers(1, 9))
def test_stream_chunks_concat_to_read_csv(tmp_path_factory, case,
                                          chunk_rows):
    write, specs = case
    path = tmp_path_factory.mktemp("io") / "t.csv"
    write(path)
    whole = read_csv(path, specs)
    chunks = list(stream_csv(path, specs, chunk_rows=chunk_rows))
    assert [len(chunk) for chunk in chunks[:-1]] == \
        [chunk_rows] * (len(chunks) - 1)
    assert 0 < len(chunks[-1]) <= chunk_rows
    assert_same_table(Table(schema=dict(chunks[0].schema), columns={
        name: np.concatenate([chunk.column(name) for chunk in chunks])
        for name in chunks[0].schema
    }), whole)


@settings(max_examples=150, deadline=None)
@given(csv_files(max_rows=8, faults=True), st.integers(1, 9))
def test_injected_faults_report_the_reference_line(tmp_path_factory,
                                                   case, chunk_rows):
    write, specs = case
    path = tmp_path_factory.mktemp("io") / "t.csv"
    write(path)
    kind, expected = outcome(reference_read, path, specs)
    for read in (read_csv, lambda p, s: list(
            stream_csv(p, s, chunk_rows=chunk_rows))):
        got_kind, got = outcome(read, path, specs)
        assert got_kind == kind
        if kind == "error":
            assert got == expected
    if kind == "ok":
        assert_same_table(read_csv(path, specs), expected)


@settings(max_examples=30, deadline=None)
@given(tables())
def test_segmentation_membership_survives_json(tmp_path_factory, table):
    """Persisted segmentations classify points identically."""
    from repro.core.rules import ClusteredRule, Interval
    from repro.core.segmentation import Segmentation
    from repro.persistence import load_segmentation, save_segmentation

    xs = table.column("x")
    ys = table.column("y")
    x_lo, x_hi = float(xs.min()), float(xs.max()) + 1.0
    y_lo, y_hi = float(ys.min()), float(ys.max()) + 1.0
    segmentation = Segmentation.from_rules([
        ClusteredRule(
            "x", "y",
            Interval(x_lo, (x_lo + x_hi) / 2 + 1e-9),
            Interval(y_lo, y_hi),
            "label", "A", support=0.5, confidence=0.9,
        )
    ])
    path = tmp_path_factory.mktemp("io") / "seg.json"
    save_segmentation(segmentation, path)
    loaded = load_segmentation(path)
    assert np.array_equal(
        segmentation.covers(xs, ys), loaded.covers(xs, ys)
    )
