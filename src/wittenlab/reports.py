"""CSV and summary exports.

Every CSV starts with a versioned comment line naming its columns, so
downstream plotting stays stable, and floats use shortest round-trip
formatting, which makes outputs byte-identical across runs of the same
configuration.  Each check writes one file per table, built as text
blocks (the header, then a block per field or series) that
:func:`write_blocks` writes one at a time to a temporary file renamed
over the target, so no table is ever joined in memory.

:func:`_keyed_csv` formats the per-node tables and the entropy series a
column at a time, each row led by its block's key columns (``t``,
``m``): a float column is one ``tolist`` and one ``repr`` per value, an
integer column one ``str`` per value, and the node index and coordinate
text of a grid is built once and reused by every table on that grid.
The text is the same, byte for byte, as formatting each value with
:func:`_fmt`, which still formats the small tables of mixed per-report
rows.

A failed write (an ``OSError`` from creating, writing or renaming a
file) raises :class:`wittenlab.config.ConfigError` naming the output
path.  A failed write, or a block that raises, leaves the target as it
was and no temporary file behind.  Files get mode 0o666 less the umask,
what ``open(path, "w")`` gives.
"""

from __future__ import annotations

import json
import math
import os
from functools import lru_cache
from itertools import repeat

import numpy as np

from .config import ConfigError
from .geometry import _grid_coordinates

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
    "write_blocks",
    "write_summary",
    "write_timing",
]


def atomic_write(path, text):
    """Write ``text`` to ``path``, as :func:`write_blocks` writes one block."""
    write_blocks(path, (text,))


def write_blocks(path, blocks):
    """Write the text ``blocks`` to ``path`` one at a time, through a
    temporary file and a rename.

    Raises :class:`wittenlab.config.ConfigError` when the file cannot be
    written."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = _create_temp(directory)
        with os.fdopen(fd, "w") as handle:
            handle.writelines(blocks)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        raise ConfigError(f"out: cannot write {path}: {exc.strerror or exc}") from None
    finally:
        if tmp is not None:
            os.unlink(tmp)


def _create_temp(directory):
    """``(fd, path)`` of a new file ``.tmp_*`` in ``directory``, open for
    writing, with mode 0o666 less the umask (``tempfile.mkstemp`` makes
    0o600, which the rename would keep)."""
    while True:
        tmp = os.path.join(directory, f".tmp_{os.urandom(8).hex()}")
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            continue


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _header(kind, cols):
    names = ",".join(cols)
    return f"# wittenlab {kind} {CSV_VERSION}: {names}\n{names}\n"


def _table(kind, cols, rows):
    """Versioned comment line, column header and one line per row."""
    yield _header(kind, cols)
    for row in rows:
        yield ",".join(map(_fmt, row)) + "\n"


def _keyed_csv(kind, keys, cols, blocks):
    """The header, then per ``(key, columns)`` of ``blocks`` a block with a
    row per entry of the text ``columns``, led by the values of ``key``."""
    yield _header(kind, [*keys, *cols])
    for key, columns in blocks:
        parts = [repeat("".join(_fmt(k) + "," for k in key))]
        for column in columns:
            parts += (column, repeat(","))
        parts[-1] = repeat("\n")
        yield "".join(map("".join, zip(*parts)))


def _column(values):
    """Each value of a column as text, exactly as :func:`_fmt` writes it."""
    if not isinstance(values, np.ndarray):
        return [_fmt(v) for v in values]
    kind = values.dtype.kind
    if kind == "f":
        return list(map(repr, values.astype(float, copy=False).ravel().tolist()))
    if kind in "iu":
        return list(map(str, values.ravel().tolist()))
    if kind == "b":
        return ["1" if v else "0" for v in values.ravel().tolist()]
    return [_fmt(v) for v in values.ravel()]


def _node(index):
    return "/".join(str(i) for i in index)


def _coord_names(manifold):
    return ["x", "y"][: manifold.dim_n]


@lru_cache(maxsize=16)
def _node_prefixes(grid_sizes, periods):
    """``"node_index,coordinates..."`` per node of the grid in C order."""
    columns = [_column(np.arange(math.prod(grid_sizes)))]
    columns.extend(_column(c) for c in _grid_coordinates(grid_sizes, periods))
    return tuple(map(",".join, zip(*columns)))


def _grid_column(manifold, values):
    values = np.asarray(values)
    if values.shape != manifold.shape:
        raise ValueError(
            f"field shape {values.shape} does not match grid {manifold.shape}"
        )
    return _column(values)


def _node_csv(kind, manifold, keys, name, fields):
    """Per ``(key, values)`` of ``fields`` a row (key..., node_index,
    coordinates..., value) per grid node."""
    cols = ["node_index", *_coord_names(manifold), name]
    prefixes = _node_prefixes(manifold.grid_sizes, manifold.circumferences)
    blocks = ((key, (prefixes, _grid_column(manifold, v))) for key, v in fields)
    yield from _keyed_csv(kind, keys, cols, blocks)


def curvature_csv(manifold, curvatures):
    """Each curvature field, keyed by its ``m``."""
    fields = (((cf.m,), cf.values) for cf in curvatures)
    return _node_csv("curvature", manifold, ["m"], "ric_mn_value", fields)


def field_csv(manifold, reports, name):
    """The ``defect`` field of each report as column ``name``, keyed by its
    ``t`` and ``m``."""
    fields = (((r.t, r.m), r.defect) for r in reports)
    return _node_csv("field", manifold, ["t", "m"], name, fields)


def snapshots_csv(snapshots):
    """The field ``u`` of each snapshot, keyed by its ``t``."""
    if not snapshots:
        raise ValueError("no snapshots given")
    fields = (((s.t,), s.u) for s in snapshots)
    return _node_csv("snapshots", snapshots[0].manifold, ["t"], "u", fields)


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


# EntropySeries columns, stored or derived, in order after the time column
SERIES_COLUMNS = (
    "H", "dH_dt", "d2H_dt2", "Phi", "H_mK", "W_mK", "dW_dt_numeric",
    "T1", "T2", "T3", "T4", "dW_dt_formula", "residual", "monotonicity_bound",
)


def entropy_series_csv(series, flow_margins=None):
    """A row per time of each series, keyed by its ``m``; ``flow_margins``,
    one sequence per series, adds the column ``flow_margin``."""
    cols = ["t", *SERIES_COLUMNS]
    tables = [[s.times, *(getattr(s, c) for c in SERIES_COLUMNS)] for s in series]
    if flow_margins is not None:
        cols.append("flow_margin")
        for columns, margin in zip(tables, flow_margins):
            columns.append(margin)
    blocks = (((s.m,), map(_column, columns)) for s, columns in zip(series, tables))
    return _keyed_csv("entropy-series", ["m"], cols, blocks)


def flow_margin_csv(reports):
    cols = ["t", "m", "K", "min_margin", "ok"]
    rows = ((r.t, r.m, r.K, r.min_defect, r.ok) for r in reports)
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


def write_timing(path, timing):
    """Write wall-clock timings as JSON.

    Timings differ from run to run, so they go to their own file, written
    by :func:`write_blocks` like the CSV tables and not by
    :func:`atomic_write`, whose calls and bytes the benchmark tracer counts
    as deterministic output.
    """
    write_blocks(path, (json.dumps(timing, indent=2, sort_keys=True) + "\n",))
