"""CSV exports and summary files."""

import importlib.util
import json
import math
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from wittenlab import (
    build_manifold,
    build_series,
    evolve,
    hamilton_harnack_defect,
    initial_delta,
    li_yau_defect,
    make_flow,
    ricci_bakry_emery,
    sup_bound_defect,
)
from wittenlab import reports
from wittenlab.cli import main
from wittenlab.harnack import _defect_columns
from wittenlab.heatflow import HeatState, _as_stack
from wittenlab.ricciflow import margin_columns
from wittenlab.config import ConfigError

from references import (
    REFERENCE,
    one_heat_flow,
    reference_entropy_series,
    reference_fmt,
    reference_lines,
    reference_series_rows,
    snapshots_csv_per_row,
)


def text(blocks):
    return "".join(blocks)


def test_curvature_csv_columns(circle_cos):
    cfs = [ricci_bakry_emery(circle_cos, m) for m in (2.0, 3.5)]
    lines = text(reports.curvature_csv(cfs)).splitlines()
    assert lines[0] == "# wittenlab curvature-rows v1: m"
    assert lines[1:] == ["m", "2.0", "3.5"]


def test_torus_field_stack_has_the_grid_shape(torus_flat, tmp_path):
    reps = [SimpleNamespace(t=0.5, m=m, defect=np.full(torus_flat.shape, m)) for m in (3, 4.0)]
    lines = text(reports.field_csv((np.array([r.t]), r.m) for r in reps)).splitlines()
    assert lines[0] == "# wittenlab field-rows v1: t,m"
    assert lines[1:] == ["t,m", "0.5,3", "0.5,4.0"]
    path = tmp_path / "field.npy"
    reports.write_npy(str(path), (2, 64, 64), [r.defect for r in reps])
    stack = np.load(path)
    assert stack.dtype == np.dtype("<f8") and stack.shape == (2, 64, 64)
    assert (stack[0] == 3.0).all() and (stack[1] == 4.0).all()


def test_snapshot_and_manifest_csv(circle_cos, tmp_path):
    s = initial_delta(circle_cos, 0, t0=0.05)
    manifest = []
    snaps = evolve(s, [0.1], manifest=manifest)
    snap_text = text(reports.snapshots_csv(snaps))
    assert snap_text.splitlines()[1] == "t,u"
    man_text = text(reports.manifest_csv(manifest))
    assert man_text.splitlines()[1] == "t,dt,error_estimate"
    assert len(man_text.splitlines()) == 2 + len(manifest)


def benchmark_checks():
    """``benchmarks/checks.py``, imported from its file as it stands."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "checks.py"
    spec = importlib.util.spec_from_file_location("benchmark_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, x0", [("circle_cos", 0), ("torus_32x48", (3, 5))])
def test_the_benchmark_reads_snapshots_back_bit_for_bit(request, tmp_path, name, x0):
    """The benchmark's reader takes a snapshot table's first column as t
    and its last as u, the row's node its position in C order."""
    M = request.getfixturevalue(name)
    stack = _as_stack(evolve(initial_delta(M, x0, t0=0.08), [0.1, 0.3]))
    path = tmp_path / "snapshots.csv"
    reports.write_blocks(str(path), reports.snapshots_csv(stack))
    times, u = benchmark_checks().read_snapshots(path, M.shape)
    assert np.array_equal(bits(times), bits(stack.t))
    assert np.array_equal(bits(u), bits(stack.u))


def test_entropy_series_csv_with_margin(circle_cos):
    s = initial_delta(circle_cos, 0, t0=0.05)
    snaps = evolve(s, [0.1, 0.5])
    series = [build_series(snaps, m, 1.0) for m in (3.0, 4.0)]
    lines = text(reports.entropy_series_csv(series, [[0.0, 0.1], [0.2, 0.3]])).splitlines()
    header = lines[1].split(",")
    assert header[:2] == ["m", "t"]
    assert header[-1] == "flow_margin"
    assert len(lines) == 2 + 2 * 2
    assert [line.split(",")[0] for line in lines[2:]] == ["3.0", "3.0", "4.0", "4.0"]


def test_atomic_write_and_summary(tmp_path):
    base = str(tmp_path / "sub" / "summary")
    reports.write_summary(base, {"alpha": {"ok": True, "value": 1.5}})
    with open(base + ".txt") as f:
        assert "[PASS] alpha" in f.read()
    with open(base + ".json") as f:
        data = json.load(f)
    assert data["alpha"]["ok"] is True
    # overwrite is atomic and idempotent
    reports.write_summary(base, {"alpha": {"ok": False}})
    with open(base + ".txt") as f:
        assert "[FAIL] alpha" in f.read()
    assert not [f for f in os.listdir(tmp_path / "sub") if f.startswith(".tmp_")]


@pytest.mark.parametrize("mask", [0o022, 0o077], ids=["umask_022", "umask_077"])
def test_written_files_take_the_mode_that_open_gives(tmp_path, mask):
    previous = os.umask(mask)
    try:
        reports.atomic_write(str(tmp_path / "written.csv"), "a\n")
        with open(tmp_path / "opened.csv", "w") as handle:
            handle.write("a\n")
    finally:
        os.umask(previous)
    modes = [os.stat(tmp_path / name).st_mode for name in ("written.csv", "opened.csv")]
    assert modes[0] == modes[1] == 0o100666 & ~mask


def test_a_failed_write_names_the_path_and_leaves_no_temporary_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(ConfigError, match=f"out: cannot write {target}: "):
        reports.atomic_write(str(target), "text")
    assert os.listdir(tmp_path) == ["taken"]


@pytest.mark.parametrize("existing", [None, "old\n"], ids=["new_file", "over_a_file"])
def test_blocks_that_raise_partway_leave_no_file_behind(tmp_path, existing):
    target = tmp_path / "table.csv"
    if existing is not None:
        target.write_text(existing)

    def blocks():
        yield "header\n"
        yield "row\n" * 10000
        raise ValueError("field shape does not match")

    def fields():
        yield np.zeros(64)
        raise ValueError("field shape does not match")

    # text blocks, and the fields of a binary stack: one that raises, one of
    # another shape, too few and too many
    for write, message in [
        (lambda: reports.write_blocks(str(target), blocks()), "field shape"),
        (lambda: reports.write_npy(str(target), (2, 64), fields()), "field shape"),
        (lambda: reports.write_npy(str(target), (2, 64), [np.zeros(64), np.zeros(63)]),
         r"field shape \(63,\) does not match grid \(64,\)"),
        (lambda: reports.write_npy(str(target), (2, 64), [np.zeros(64)]),
         "1 fields for a stack of 2"),
        (lambda: reports.write_npy(str(target), (2, 64), [np.zeros(64)] * 3),
         "3 fields for a stack of 2"),
    ]:
        with pytest.raises(ValueError, match=message):
            write()
        assert os.listdir(tmp_path) == ([] if existing is None else ["table.csv"])
        if existing is not None:
            assert target.read_text() == existing


def assert_same_text(blocks, expected):
    """The joined text ``blocks`` equals ``expected``; on a mismatch, name the
    first differing line (pytest's own diff of two long texts takes minutes)."""
    got = "".join(blocks)
    if got == expected:
        return
    got_lines, expected_lines = got.split("\n"), expected.split("\n")
    for i, (g, e) in enumerate(zip(got_lines, expected_lines)):
        if g != e:
            pytest.fail(f"line {i} differs: {g!r} != {e!r}")
    pytest.fail(f"{len(got_lines)} lines != {len(expected_lines)} lines")


SPECIAL = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e300, -1e300,
           0.1, 1.0, 3.0, -2.5, 1e-7, 123456789.0, 2.0 ** 0.5]


def special_field(shape, rng):
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, size=shape)
    n = min(values.size, len(SPECIAL))
    values.reshape(-1)[:n] = SPECIAL[:n]
    return values


def scalars(rng):
    """Mixed Python and numpy scalars, special values included."""
    pool = [*SPECIAL, 2, -7, True, False, np.float64(0.3), np.int64(5), np.bool_(True),
            np.float32(0.1), np.float64(-0.0)]
    return [pool[i] for i in rng.permutation(len(pool))]


# Python and numpy scalars of one type: the values one column of a report
# or manifest table holds
TYPED = (
    [*SPECIAL, np.float64(0.3), np.float32(0.1), np.float64(-0.0)],
    [2, -7, 0, 10**12, np.int64(5)],
    [True, False, np.bool_(True)],
)


def typed_columns(rng, count, rows):
    """``count`` columns of ``rows`` scalars each, column i of the type
    ``TYPED[i % 3]``, the values drawn at random from its pool."""
    return [
        [pool[i] for i in rng.integers(len(pool), size=rows)]
        for pool in (TYPED[c % len(TYPED)] for c in range(count))
    ]


def bits(values):
    """The float64 bit patterns of ``values``: equal only if every value is
    the same float, the sign of zero and NaN included."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


def old_node_table(text, keys):
    """``(key texts per field, value texts)`` of a text table with a row per
    grid node of each field, its ``keys`` key columns first and its value
    last, as the field and curvature tables were written."""
    rows = [line.split(",") for line in text.splitlines()[2:]]
    return [tuple(r[:keys]) for r in rows], [r[-1] for r in rows]


def field_key_rows(M, reps):
    """The ``(t, m)`` key texts of each field of ``reps``, as the per-node
    field table keyed its rows."""
    keys, _ = old_node_table(REFERENCE["field"](M, reps, "v"), 2)
    return keys[::math.prod(M.shape)]


@pytest.mark.parametrize("name", ["circle_flat", "torus_32x48"])
def test_node_tables_match_the_row_formatter(request, name, rng, tmp_path):
    M = request.getfixturevalue(name)
    size = math.prod(M.shape)
    fields = [
        special_field(M.shape, rng),
        rng.integers(-10**12, 10**12, size=M.shape),
        rng.random(M.shape) < 0.5,
        np.array([-0.0, math.nan, math.inf, 1e-45, *rng.standard_normal(size - 4)],
                 dtype=np.float32).reshape(M.shape),
    ]
    reps = [SimpleNamespace(t=t, m=m, defect=values)
            for t, m, values in zip(SPECIAL, scalars(rng), fields)]
    curvatures = [SimpleNamespace(m=m, values=values)
                  for m, values in zip(typed_columns(rng, 1, len(fields))[0], fields)]
    # the field stacks hold, bit for bit, every value of the per-node text
    # tables they replaced, and their key tables the key columns of its rows
    path = tmp_path / "fields.npy"
    reports.write_npy(str(path), (len(fields), *M.shape), fields)
    stack = np.load(path)
    field_keys = ((np.array([r.t]), r.m) for r in reps)
    for key_table, old_text, keys in [
        (reports.field_csv(field_keys), REFERENCE["field"](M, reps, "v"), 2),
        (reports.curvature_csv(curvatures), REFERENCE["curvature"](M, curvatures), 1),
    ]:
        old_keys, old_values = old_node_table(old_text, keys)
        assert np.array_equal(bits(stack).ravel(), bits([float(v) for v in old_values]))
        key_rows = text(key_table).splitlines()[2:]
        assert [tuple(row.split(",")) for row in key_rows] == old_keys[::size]
    snaps = [HeatState(M, t, special_field(M.shape, rng))
             for t in (0.1, 2, np.float64(1e-300), -0.0)]
    assert_same_text(reports.snapshots_csv(snaps), REFERENCE["snapshots"](snaps))
    assert_same_text(reports.snapshots_csv(snaps), snapshots_csv_per_row(snaps))
    with pytest.raises(ValueError, match="no snapshots"):
        reports.snapshots_csv([])


@pytest.mark.parametrize("name", ["circle_cos", "torus_32x48"])
def test_a_field_stack_is_what_np_save_writes_of_the_stacked_fields(request, name, rng, tmp_path):
    M = request.getfixturevalue(name)
    # rows of a stack, a field in Fortran order and a float32 field
    fields = [
        *special_field((3, *M.shape), rng),
        np.asfortranarray(special_field(M.shape, rng)),
        rng.standard_normal(M.shape).astype(np.float32),
    ]
    shape = (len(fields), *M.shape)
    paths = [tmp_path / "first.npy", tmp_path / "second.npy"]
    for path in paths:
        reports.write_npy(str(path), shape, iter(fields))
    np.save(tmp_path / "saved.npy", np.stack(fields))
    assert paths[0].read_bytes() == paths[1].read_bytes() == (tmp_path / "saved.npy").read_bytes()
    loaded = np.load(paths[0])
    assert loaded.dtype == np.dtype("<f8") and loaded.shape == shape
    assert bits(loaded).tobytes() == bits(np.stack(fields)).tobytes()


def test_report_tables_match_the_row_formatter(rng):
    # every column holds values of one type, Python and numpy scalars mixed
    integrated = [
        SimpleNamespace(x=(1,), y=(np.int64(2),), tau=x, T=2, m=m, K=K, distance=x, lhs=-x,
                        rhs=True, ok=ok)
        for x, m, K, ok in zip(SPECIAL, *typed_columns(rng, 3, len(SPECIAL)))
    ]
    keys = ("t", "dt", "error_estimate")
    manifest = [dict(zip(keys, row)) for row in zip(*typed_columns(rng, 3, 20))]
    for kind, build, rows in (
        ("integrated", reports.integrated_csv, integrated),
        ("manifest", reports.manifest_csv, manifest),
    ):
        assert_same_text(build(rows), REFERENCE[kind](rows))
        assert_same_text(build([]), REFERENCE[kind]([]))


def test_report_tables_in_blocks_of_rows_match_the_row_formatter(rng, monkeypatch):
    monkeypatch.setattr(reports, "_TABLE_ROWS", 3)  # every table splits, 20 rows end in 2
    test_report_tables_match_the_row_formatter(rng)


def test_an_array_column_is_formatted_as_the_row_formatter(rng):
    for column in (
        np.array(SPECIAL),
        np.array([-0.0, 1e-45, 0.1, 3.0, math.inf, math.nan], dtype=np.float32),
        np.array([0, -7, 2**62]),
        np.array([3, 0, 255], dtype=np.uint8),
        np.array([True, False, True]),
        np.array([]),
        special_field((2, 8), rng),  # flattened in C order
        *map(np.asarray, typed_columns(rng, 3, 20)),
    ):
        assert reports._column(column) == [reference_fmt(v) for v in column.ravel()]


@pytest.mark.parametrize("rows", [0, 1, 40])
def test_entropy_series_csv_matches_the_row_formatter(rows, rng):
    def series(m):
        names = ("times", *reports.SERIES_COLUMNS)
        columns = {c: special_field((rows,), rng) for c in names}
        columns["T3"] = np.arange(rows)  # integer column
        columns["residual"] = rng.random(rows) < 0.5  # boolean column
        return SimpleNamespace(m=m, **columns)

    tables = [series(m) for m in scalars(rng)[:3]]
    expected = reference_entropy_series(tables)
    assert_same_text(reports.entropy_series_csv(tables), expected)
    margins = typed_columns(rng, len(tables), rows)
    assert_same_text(
        reports.entropy_series_csv(tables, margins),
        reference_entropy_series(tables, margins),
    )


@pytest.mark.parametrize("table_rows", [None, 3])
def test_a_column_shared_across_m_blocks_is_written_as_each_block_formats_it(
    table_rows, rng, monkeypatch
):
    if table_rows is not None:
        monkeypatch.setattr(reports, "_TABLE_ROWS", table_rows)
    rows = 40
    t = special_field((rows,), rng)
    shared = {c: special_field((rows,), rng) for c in ("H", "dH_dt", "d2H_dt2")}

    def series(m, times):
        columns = {c: special_field((rows,), rng) for c in reports.SERIES_COLUMNS}
        columns.update(shared)
        columns["monotonicity_bound"] = columns["T4"]  # repeated within a block too
        return SimpleNamespace(m=m, times=times, **columns)

    # the times, an equal copy, the times with each zero's sign flipped and
    # their bits read as integers: the first two are one text, the others not
    flipped = np.where(t == 0.0, -t, t)
    tables = [series(2.0, t), series(3.0, t.copy()), series(4.0, flipped),
              series(5.0, t.view(np.int64))]
    margins = [np.full(rows, 0.5), np.full(rows, 0.5), np.zeros(rows), -np.zeros(rows)]
    assert_same_text(
        reports.entropy_series_csv(tables, margins), reference_entropy_series(tables, margins)
    )

    # the tables of defect and margin columns, whose blocks share their times
    M = SimpleNamespace(shape=(4, 5), dim_n=2, coordinates=lambda: np.indices((4, 5)))
    times = special_field((7,), rng).tolist()
    mKs = [(2.0, 0.5), (3.5, 0.0), (5.0, 1e-300)]
    fields = {mK: special_field((7, *M.shape), rng) for mK in mKs}
    fields[mKs[1]][2:] = 0.5  # rows of one value: the first node is the minimum
    tols = {mK: special_field((7,), rng)[::-1].tolist() for mK in mKs}

    def block(rows, times):
        return lambda m, K: (fields[m, K][rows], tols[m, K][rows])

    columns = _defect_columns("sup_bound", times, M.shape, mKs, block, keep=True)
    reps = [r for c in columns for r in c.reports()]
    assert_same_text(reports.harnack_csv(columns), REFERENCE["harnack"](reps))
    assert_same_text(reports.flow_margin_csv(columns), REFERENCE["flow_margin"](reps))
    key_rows = text(reports.field_csv((c.t, c.m) for c in columns)).splitlines()[2:]
    assert [tuple(row.split(",")) for row in key_rows] == field_key_rows(M, reps)


# ------------------------------------------------------- one file per check
# Each check writes one table whose blocks are its fields or series, told
# apart by their t and m key columns.  Read without the keys, each block of
# a series table is the text the row formatter gives the recomputed series;
# a field table is a binary stack of the recomputed fields, its keys a CSV.


def read_blocks(path, keys):
    """Header line and ``[(key texts, row texts without the keys), ...]`` of a
    table whose first ``keys`` columns are constant within each block."""
    lines = path.read_text().splitlines()
    blocks = []
    for line in lines[2:]:
        parts = line.split(",")
        key = tuple(parts[:keys])
        if not blocks or blocks[-1][0] != key:
            blocks.append((key, []))
        blocks[-1][1].append(",".join(parts[keys:]))
    return lines[1], blocks


def assert_stack(out, name, keys, expected):
    """The field stack ``name`` holds the ``(key, field)`` pairs of
    ``expected`` in order: its key table the keys as the row formatter
    writes them, its array each field bit for bit."""
    lines = (out / f"{name}_rows.csv").read_text().splitlines()
    assert lines[1] == ",".join(keys), name
    assert lines[2:] == [",".join(map(reference_fmt, key)) for key, _ in expected], name
    stack = np.load(out / f"{name}.npy")
    fields = np.stack([field for _, field in expected])
    assert stack.dtype == np.dtype("<f8") and stack.shape == fields.shape, name
    assert np.array_equal(bits(stack), bits(fields)), name


ONE_FILE_MODELS = {
    "circle": ({"model": "circle", "grid": 64}, [2.5, 3.0]),
    "torus": ({"model": "flat_torus_2d", "grid": [32, 32]}, [3.0, 4.0]),
}


@pytest.mark.parametrize("model", list(ONE_FILE_MODELS))
def test_each_check_writes_one_table_whose_blocks_are_its_fields(tmp_path, model):
    manifold, ms = ONE_FILE_MODELS[model]
    manifold = {**manifold, "potential": {"family": "cosine", "params": {"a": 0.3, "k": 1}}}
    times = [0.2, 0.3, 0.4]
    flow_spec = {"family": "constant_rate", "params": {"rate": -0.4}, "horizon": 0.4}
    K_flow = 1.0
    data = {
        "manifold": manifold,
        "solver": {"t0": 0.1, "times": times, "local_error": 1e-8},
        "flow": flow_spec,
        "checks": [
            {"name": "li_yau", "m": ms, "dump_defects": True},
            {"name": "hamilton", "m": ms, "dump_defects": True},
            {"name": "sup_bound", "m": ms, "dump_defects": True},
            {"name": "curvature", "m": ms},
            {"name": "entropy", "m": ms},
            {"name": "flow_margin", "m": ms, "K": K_flow},
            {"name": "flow_entropy", "m": ms, "K": K_flow},
        ],
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["all", "--config", str(path), "--out", str(out)]) == 0
    stacks = ["defect_li_yau", "defect_hamilton", "defect_sup_bound", "curvature",
              "flow_margin_field"]
    assert sorted(os.listdir(out)) == sorted([
        *(f"{name}{suffix}" for name in stacks for suffix in (".npy", "_rows.csv")),
        "harnack_li_yau.csv", "harnack_hamilton.csv", "harnack_sup_bound.csv",
        "entropy_series.csv", "flow_margin.csv", "flow_entropy_series.csv",
        "summary.json", "summary.txt", "timing.json",
    ])

    M = build_manifold(manifold)
    start = initial_delta(M, (0,) * M.dim_n, t0=0.1)
    flow = make_flow(M, flow_spec["family"], flow_spec["params"], flow_spec["horizon"])
    # the base and flow checks share one heat flow over both clocks' times
    snaps, flow_snaps = one_heat_flow(start, times, flow, local_error=1e-8)
    K = {m: ricci_bakry_emery(M, m).admissible_K for m in ms}
    A = max(float(s.u.max()) for s in snaps) * (1.0 + 1e-12)
    defects = {
        "li_yau": lambda s, m: li_yau_defect(s, m),
        "hamilton": lambda s, m: hamilton_harnack_defect(s, m, K[m]),
        "sup_bound": lambda s, m: sup_bound_defect(s, m, K[m], A),
    }
    for name, defect in defects.items():
        expected = [((s.t, m), defect(s, m).defect) for m in ms for s in snaps]
        assert_stack(out, f"defect_{name}", ["t", "m"], expected)

    expected = [((m,), ricci_bakry_emery(M, m).values) for m in ms]
    assert_stack(out, "curvature", ["m"], expected)

    header, blocks = read_blocks(out / "entropy_series.csv", 1)
    assert header == ",".join(["m", "t", *reports.SERIES_COLUMNS])
    assert blocks == [
        ((reference_fmt(m),), reference_lines(reference_series_rows(build_series(snaps, m, K[m]))))
        for m in ms
    ]

    grid_times = [float(t) for t in np.linspace(0.0, flow.horizon, 9)]
    worst = [
        min(
            margin_columns(flow, [(m, K_flow)], grid_times, keep=True)[0].reports(),
            key=lambda r: r.min_defect,
        )
        for m in ms
    ]
    assert_stack(out, "flow_margin_field", ["t", "m"], [((r.t, r.m), r.defect) for r in worst])

    expected = []
    for m in ms:
        series = build_series(flow_snaps, m, K_flow, flow=flow)
        margins = margin_columns(flow, [(m, K_flow)], times)[0].min_defect.tolist()
        rows = reference_series_rows(series, margins)
        expected.append(((reference_fmt(m),), reference_lines(rows)))
    header, blocks = read_blocks(out / "flow_entropy_series.csv", 1)
    assert header == ",".join(["m", "t", *reports.SERIES_COLUMNS, "flow_margin"])
    assert blocks == expected
