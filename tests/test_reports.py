"""CSV exports and summary files."""

import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from wittenlab import build_series, evolve, initial_delta, ricci_bakry_emery
from wittenlab import reports
from wittenlab.config import ConfigError

from references import snapshots_csv_per_row


def test_curvature_csv_columns(circle_cos, tmp_path):
    cf = ricci_bakry_emery(circle_cos, 2.0)
    text = reports.curvature_csv(circle_cos, cf)
    lines = text.splitlines()
    assert lines[0].startswith("# wittenlab curvature v1:")
    assert lines[1] == "node_index,x,ric_mn_value"
    assert len(lines) == 2 + 256
    first = lines[2].split(",")
    assert first[0] == "0"
    assert float(first[2]) == cf.values[0]


def test_torus_field_csv_has_two_coords(torus_flat):
    values = np.zeros(torus_flat.shape)
    text = reports.field_csv(torus_flat, values, name="v")
    assert text.splitlines()[1] == "node_index,x,y,v"
    assert len(text.splitlines()) == 2 + 64 * 64


def test_snapshot_and_manifest_csv(circle_cos, tmp_path):
    s = initial_delta(circle_cos, 0, t0=0.05)
    manifest = []
    snaps = evolve(s, [0.1], manifest=manifest)
    snap_text = reports.snapshots_csv(snaps)
    assert snap_text.splitlines()[1] == "t,node_index,x,u"
    man_text = reports.manifest_csv(manifest)
    assert man_text.splitlines()[1] == "t,dt,error_estimate"
    assert len(man_text.splitlines()) == 2 + len(manifest)


def test_entropy_series_csv_with_margin(circle_cos):
    s = initial_delta(circle_cos, 0, t0=0.05)
    snaps = evolve(s, [0.1, 0.5])
    series = build_series(snaps, 3.0, 1.0)
    text = reports.entropy_series_csv(series, flow_margin=[0.0, 0.1])
    header = text.splitlines()[1].split(",")
    assert header[0] == "t"
    assert header[-1] == "flow_margin"
    assert len(text.splitlines()) == 2 + 2


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


# ------------------------------------------------------------------ oracle
# The per-value row formatter the builders replaced, kept as the reference
# for their text: every builder must return exactly what it returns.


def reference_fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def reference_table(kind, cols, rows):
    lines = [f"# wittenlab {kind} v1: " + ",".join(cols), ",".join(cols)]
    lines.extend(",".join(reference_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def reference_node_rows(manifold, values):
    coords = manifold.coordinates()
    for flat, idx in enumerate(np.ndindex(*manifold.shape)):
        yield (flat, *(coords[a][idx] for a in range(manifold.dim_n)), values[idx])


def reference_names(manifold):
    return ["x", "y"][: manifold.dim_n]


def reference_node(index):
    return "/".join(str(i) for i in index)


REFERENCE = {
    "field": lambda M, values, name: reference_table(
        "field",
        ["node_index", *reference_names(M), name],
        reference_node_rows(M, values),
    ),
    "curvature": lambda M, cf: reference_table(
        "curvature",
        ["node_index", *reference_names(M), "ric_mn_value"],
        reference_node_rows(M, cf.values),
    ),
    "snapshots": lambda M, snaps: reference_table(
        "snapshots",
        ["t", "node_index", *reference_names(M), "u"],
        ((s.t, *row) for s in snaps for row in reference_node_rows(M, s.u)),
    ),
    "harnack": lambda reps: reference_table(
        "harnack",
        ["inequality", "t", "m", "K", "min_defect", "argmin_node", "tol", "ok"],
        (
            (r.inequality, r.t, r.m, r.K, r.min_defect, reference_node(r.argmin_node),
             r.tol, r.ok)
            for r in reps
        ),
    ),
    "integrated": lambda reps: reference_table(
        "integrated-harnack",
        ["x", "y", "tau", "T", "m", "K", "distance", "lhs", "rhs", "ok"],
        (
            (reference_node(r.x), reference_node(r.y), r.tau, r.T, r.m, r.K,
             r.distance, r.lhs, r.rhs, r.ok)
            for r in reps
        ),
    ),
    "flow_margin": lambda reps: reference_table(
        "flow-margin",
        ["t", "m", "K", "min_margin", "ok"],
        ((r.t, r.m, r.K, r.min_defect, r.ok) for r in reps),
    ),
    "manifest": lambda rows: reference_table(
        "evolution-manifest",
        ["t", "dt", "error_estimate"],
        ((r[c] for c in ("t", "dt", "error_estimate")) for r in rows),
    ),
}


def reference_entropy_series(series, flow_margin=None):
    cols = ["t", *reports.SERIES_COLUMNS]
    columns = [series.times, *(getattr(series, c) for c in reports.SERIES_COLUMNS)]
    if flow_margin is not None:
        cols.append("flow_margin")
        columns.append(flow_margin)
    return reference_table("entropy-series", cols, zip(*columns))


def assert_same_text(got, expected):
    """Equal texts; on a mismatch, name the first differing line (pytest's
    own diff of two long texts takes minutes)."""
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
    for values in fields:
        expected = REFERENCE["field"](M, values, "v")
        assert_same_text(reports.field_csv(M, values, name="v"), expected)
    cf = SimpleNamespace(values=fields[0])
    assert_same_text(reports.curvature_csv(M, cf), REFERENCE["curvature"](M, cf))
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
    names = ("times", *reports.SERIES_COLUMNS)
    columns = {c: special_field((rows,), rng) for c in names}
    columns["T3"] = np.arange(rows)  # integer column
    columns["residual"] = rng.random(rows) < 0.5  # boolean column
    series = SimpleNamespace(**columns)
    expected = reference_entropy_series(series)
    assert_same_text(reports.entropy_series_csv(series), expected)
    margin = scalars(rng)[:rows]
    assert_same_text(
        reports.entropy_series_csv(series, flow_margin=margin),
        reference_entropy_series(series, flow_margin=margin),
    )
