"""CSV and summary exports.

Every CSV starts with a versioned comment line naming its columns, so
downstream plotting stays stable; files are written atomically (temp
file plus rename) and floats use shortest round-trip formatting, which
makes outputs byte-identical across runs of the same configuration.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

CSV_VERSION = "v1"

__all__ = [
    "atomic_write",
    "curvature_csv",
    "field_csv",
    "snapshots_csv",
    "harnack_csv",
    "integrated_csv",
    "entropy_series_csv",
    "flow_margin_csv",
    "manifest_csv",
    "write_summary",
]


def atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _table(kind, cols, rows):
    """Versioned comment line, column header and one line per row."""
    lines = [f"# wittenlab {kind} {CSV_VERSION}: " + ",".join(cols), ",".join(cols)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _node(index):
    return "/".join(str(i) for i in index)


def _node_rows(manifold, values):
    """(node_index, coordinates..., value) per grid node."""
    coords = manifold.coordinates()
    for flat, idx in enumerate(np.ndindex(*manifold.shape)):
        yield (flat, *(coords[a][idx] for a in range(manifold.dim_n)), values[idx])


def _coord_names(manifold):
    return ["x", "y"][: manifold.dim_n]


def curvature_csv(manifold, curvature):
    cols = ["node_index", *_coord_names(manifold), "ric_mn_value"]
    return _table("curvature", cols, _node_rows(manifold, curvature.values))


def field_csv(manifold, values, name="value"):
    cols = ["node_index", *_coord_names(manifold), name]
    return _table("field", cols, _node_rows(manifold, values))


def snapshots_csv(manifold, snapshots):
    cols = ["t", "node_index", *_coord_names(manifold), "u"]
    rows = ((s.t, *row) for s in snapshots for row in _node_rows(manifold, s.u))
    return _table("snapshots", cols, rows)


def harnack_csv(reports):
    cols = ["inequality", "t", "m", "K", "min_defect", "argmin_node", "tol", "ok"]
    rows = (
        (r.inequality, r.t, r.m, r.K, r.min_defect, _node(r.argmin_node), r.tol, r.ok)
        for r in reports
    )
    return _table("harnack", cols, rows)


def integrated_csv(reports):
    cols = ["x", "y", "tau", "T", "m", "K", "distance", "lhs", "rhs", "ok"]
    rows = (
        (_node(r.x), _node(r.y), r.tau, r.T, r.m, r.K, r.distance, r.lhs, r.rhs, r.ok)
        for r in reports
    )
    return _table("integrated-harnack", cols, rows)


# EntropySeries fields in column order, after the time column
SERIES_COLUMNS = (
    "H", "dH_dt", "d2H_dt2", "Phi", "H_mK", "W_mK", "dW_dt_numeric",
    "T1", "T2", "T3", "T4", "dW_dt_formula", "residual", "monotonicity_bound",
)


def entropy_series_csv(series, flow_margin=None):
    cols = ["t", *SERIES_COLUMNS]
    columns = [series.times, *(getattr(series, c) for c in SERIES_COLUMNS)]
    if flow_margin is not None:
        cols.append("flow_margin")
        columns.append(flow_margin)
    return _table("entropy-series", cols, zip(*columns))


def flow_margin_csv(reports):
    cols = ["t", "m", "K", "min_margin", "ok"]
    rows = ((r.t, r.m, r.K, r.min_value, r.ok) for r in reports)
    return _table("flow-margin", cols, rows)


def manifest_csv(rows):
    cols = ["t", "dt", "error_estimate"]
    return _table("evolution-manifest", cols, ((r[c] for c in cols) for r in rows))


def write_summary(path_base, summary):
    """Write a plain-text and a JSON summary of check outcomes.

    ``summary`` maps check names to dicts with at least ``ok`` and a few
    scalar diagnostics (worst defects, residuals, parameters).
    """
    lines = []
    for name in sorted(summary):
        entry = summary[name]
        status = "PASS" if entry.get("ok") else "FAIL"
        detail = ", ".join(
            f"{k}={_fmt(v)}" for k, v in sorted(entry.items()) if k != "ok"
        )
        lines.append(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    atomic_write(path_base + ".txt", "\n".join(lines) + "\n")
    atomic_write(
        path_base + ".json",
        json.dumps(summary, indent=2, sort_keys=True, default=float) + "\n",
    )
