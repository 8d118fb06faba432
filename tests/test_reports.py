"""CSV exports and summary files."""

import json
import math
import os
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
    super_ricci_flow_margins,
)
from wittenlab import reports
from wittenlab.cli import main
from wittenlab.config import ConfigError

from references import (
    REFERENCE,
    one_heat_flow,
    reference_entropy_series,
    reference_fmt,
    reference_lines,
    reference_names,
    reference_node_rows,
    reference_series_rows,
    snapshots_csv_per_row,
)


def text(blocks):
    return "".join(blocks)


def test_curvature_csv_columns(circle_cos, tmp_path):
    cf = ricci_bakry_emery(circle_cos, 2.0)
    lines = text(reports.curvature_csv(circle_cos, [cf])).splitlines()
    assert lines[0].startswith("# wittenlab curvature v1:")
    assert lines[1] == "m,node_index,x,ric_mn_value"
    assert len(lines) == 2 + 256
    first = lines[2].split(",")
    assert first[:2] == ["2.0", "0"]
    assert float(first[3]) == cf.values[0]


def test_torus_field_csv_has_two_coords(torus_flat):
    rep = SimpleNamespace(t=0.5, m=3.0, defect=np.zeros(torus_flat.shape))
    lines = text(reports.field_csv(torus_flat, [rep, rep], "v")).splitlines()
    assert lines[1] == "t,m,node_index,x,y,v"
    assert len(lines) == 2 + 2 * 64 * 64


def test_snapshot_and_manifest_csv(circle_cos, tmp_path):
    s = initial_delta(circle_cos, 0, t0=0.05)
    manifest = []
    snaps = evolve(s, [0.1], manifest=manifest)
    snap_text = text(reports.snapshots_csv(snaps))
    assert snap_text.splitlines()[1] == "t,node_index,x,u"
    man_text = text(reports.manifest_csv(manifest))
    assert man_text.splitlines()[1] == "t,dt,error_estimate"
    assert len(man_text.splitlines()) == 2 + len(manifest)


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
    text = open(base + ".txt").read()
    assert "[PASS] alpha" in text
    data = json.loads(open(base + ".json").read())
    assert data["alpha"]["ok"] is True
    # overwrite is atomic and idempotent
    reports.write_summary(base, {"alpha": {"ok": False}})
    assert "[FAIL] alpha" in open(base + ".txt").read()
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

    with pytest.raises(ValueError, match="field shape"):
        reports.write_blocks(str(target), blocks())
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


@pytest.mark.parametrize("name", ["circle_flat", "torus_32x48"])
def test_node_tables_match_the_row_formatter(request, name, rng):
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
    assert_same_text(reports.field_csv(M, reps, "v"), REFERENCE["field"](M, reps, "v"))
    curvatures = [SimpleNamespace(m=m, values=values)
                  for m, values in zip(scalars(rng), fields)]
    assert_same_text(
        reports.curvature_csv(M, curvatures), REFERENCE["curvature"](M, curvatures)
    )
    snaps = [SimpleNamespace(manifold=M, t=t, u=special_field(M.shape, rng))
             for t in (0.1, 2, np.float64(1e-300), -0.0)]
    assert_same_text(reports.snapshots_csv(snaps), REFERENCE["snapshots"](M, snaps))
    assert_same_text(reports.snapshots_csv(snaps), snapshots_csv_per_row(snaps))
    with pytest.raises(ValueError, match="no snapshots"):
        reports.snapshots_csv([])


def test_report_tables_match_the_row_formatter(rng):
    def report(**extra):
        v = scalars(rng)
        return SimpleNamespace(t=v[0], m=v[1], K=v[2], tol=v[3], ok=v[4], **extra)

    harnack = [report(inequality="hamilton", min_defect=x, argmin_node=(3, np.int64(4)))
               for x in SPECIAL]
    integrated = [report(x=(1,), y=(np.int64(2),), tau=x, T=2, distance=x, lhs=-x,
                         rhs=True) for x in SPECIAL]
    margins = [report(min_defect=x) for x in SPECIAL]
    keys = ("t", "dt", "error_estimate")
    manifest = [dict(zip(keys, scalars(rng))) for _ in range(20)]
    for kind, build, rows in (
        ("harnack", reports.harnack_csv, harnack),
        ("integrated", reports.integrated_csv, integrated),
        ("flow_margin", reports.flow_margin_csv, margins),
        ("manifest", reports.manifest_csv, manifest),
    ):
        assert_same_text(build(rows), REFERENCE[kind](rows))
        assert_same_text(build([]), REFERENCE[kind]([]))


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
    margins = [scalars(rng)[:rows] for _ in tables]
    assert_same_text(
        reports.entropy_series_csv(tables, margins),
        reference_entropy_series(tables, margins),
    )


# ------------------------------------------------------- one file per check
# Each check writes one table whose blocks are its fields or series, told
# apart by their t and m key columns.  Read without the keys, each block is
# the text the row formatter gives the recomputed field or series.


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


def node_block(manifold, key, values):
    return tuple(map(reference_fmt, key)), reference_lines(reference_node_rows(manifold, values))


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
    assert sorted(os.listdir(out)) == sorted([
        "defect_li_yau.csv", "defect_hamilton.csv", "defect_sup_bound.csv",
        "harnack_li_yau.csv", "harnack_hamilton.csv", "harnack_sup_bound.csv",
        "curvature.csv", "entropy_series.csv",
        "flow_margin.csv", "flow_margin_field.csv", "flow_entropy_series.csv",
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
    node_cols = ["node_index", *reference_names(M)]
    for name, defect in defects.items():
        header, blocks = read_blocks(out / f"defect_{name}.csv", 2)
        assert header == ",".join(["t", "m", *node_cols, "defect"])
        assert blocks == [
            node_block(M, (s.t, m), defect(s, m).defect) for m in ms for s in snaps
        ], name

    header, blocks = read_blocks(out / "curvature.csv", 1)
    assert header == ",".join(["m", *node_cols, "ric_mn_value"])
    assert blocks == [node_block(M, (m,), ricci_bakry_emery(M, m).values) for m in ms]

    header, blocks = read_blocks(out / "entropy_series.csv", 1)
    assert header == ",".join(["m", "t", *reports.SERIES_COLUMNS])
    assert blocks == [
        ((reference_fmt(m),), reference_lines(reference_series_rows(build_series(snaps, m, K[m]))))
        for m in ms
    ]

    grid_times = [float(t) for t in np.linspace(0.0, flow.horizon, 9)]
    worst = [
        min(super_ricci_flow_margins(flow, m, K_flow, grid_times), key=lambda r: r.min_defect)
        for m in ms
    ]
    header, blocks = read_blocks(out / "flow_margin_field.csv", 2)
    assert header == ",".join(["t", "m", *node_cols, "margin"])
    assert blocks == [node_block(M, (r.t, r.m), r.defect) for r in worst]

    expected = []
    for m in ms:
        series = build_series(flow_snaps, m, K_flow, flow=flow)
        margins = [r.min_defect for r in super_ricci_flow_margins(flow, m, K_flow, times)]
        rows = reference_series_rows(series, margins)
        expected.append(((reference_fmt(m),), reference_lines(rows)))
    header, blocks = read_blocks(out / "flow_entropy_series.csv", 1)
    assert header == ",".join(["m", "t", *reports.SERIES_COLUMNS, "flow_margin"])
    assert blocks == expected
