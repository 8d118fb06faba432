"""CSV, ``.npy`` and summary exports.

Every CSV starts with a versioned comment line naming its columns, so
downstream plotting stays stable, and floats use shortest round-trip
formatting, which makes outputs byte-identical across runs of the same
configuration.  Each check writes one file per table, built as blocks
(the header, then up to ``_TABLE_ROWS`` lines of one field, series or
``m`` at a time) that :func:`write_blocks` writes one at a time to a
temporary file renamed over the target, so no table is ever joined in
memory.

A per-node field table (the defect, curvature and flow-margin fields)
is binary: :func:`write_npy` streams ``<name>.npy``, a C-order ``<f8``
array of shape ``(rows, *grid)``, header first and then one field at a
time, the bytes ``np.save`` writes of the stacked fields.
:func:`field_csv` and :func:`curvature_csv` build its key table
``<name>_rows.csv`` (``t, m`` or ``m``), a row per array row.  Node
coordinates follow :func:`wittenlab.geometry._grid_coordinates` and are
not written.

Every table is built by one writer, :func:`_table`: the header, then
blocks of text columns, each column a text per row or one text that
every row of its block repeats (a block's key, such as the ``t`` of a
snapshot or the ``m`` of a series or of a check's columns), written a
block of ``_TABLE_ROWS`` lines at a time.  Each value column is a numeric
array, formatted whole by :func:`_column`: a float array is one
``tolist`` and one ``repr`` per value, an integer array one ``str`` per
value, a boolean array ``1`` or ``0`` per value; the tables built from
report records (integrated, manifest, curvature keys) pass each
attribute as one ``np.asarray`` column, and every such column holds
values of one type.  :func:`snapshots_csv` takes the run's stacked
snapshots (a list of states is stacked first) and writes a block per
row.  The node index and coordinate text of a grid is built once and
reused by every snapshot table on that grid.  The checks'
columnar results (:class:`wittenlab.harnack.DefectColumns`) are written
by :func:`harnack_csv`, :func:`flow_margin_csv` and :func:`field_csv`, a
block per ``m``.  Within one table, a numeric array column equal in
dtype, shape and bytes to one already formatted (the times and the
columns no ``m`` changes, repeated in every ``m`` block) reuses its
text.  The text is the same, byte for byte, as formatting each value
with :func:`_fmt`.

A failed write (an ``OSError`` from creating, writing or renaming a
file) raises :class:`wittenlab.config.ConfigError` naming the output
path.  A failed write, or a block that raises, leaves the target as it
was and no temporary file behind.  Files get mode 0o666 less the umask,
what ``open(path, "w")`` gives.
"""

from __future__ import annotations

import io
import json
import math
import operator
import os
from functools import lru_cache
from itertools import repeat

import numpy as np

from .config import ConfigError
from .geometry import _grid_coordinates
from .heatflow import _as_stack

CSV_VERSION = "v1"
_TABLE_ROWS = 4096  # lines per written block: a 64x64 grid's snapshot is one block

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
    "write_npy",
    "write_summary",
    "write_timing",
]


def atomic_write(path, text):
    """Write ``text`` to ``path``, as :func:`write_blocks` writes one block."""
    write_blocks(path, (text,))


def write_blocks(path, blocks):
    """Write the ``blocks``, text or bytes-like, to ``path`` one at a
    time, through a temporary file and a rename.  Text is written as its
    UTF-8 bytes (every CSV is ASCII).

    Raises :class:`wittenlab.config.ConfigError` when the file cannot be
    written."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = _create_temp(directory)
        with os.fdopen(fd, "wb") as handle:
            for block in blocks:
                handle.write(block.encode() if isinstance(block, str) else block)
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


def _table(kind, cols, blocks):
    """Versioned comment line, column header, then per block of ``blocks``
    (a text column per ``cols``: a list of a text per row, or one text for
    every row, at least one of them a list) a line per row, a block of
    lines per ``_TABLE_ROWS`` rows."""
    yield _header(kind, cols)
    for columns in blocks:
        rows = next(len(c) for c in columns if not isinstance(c, str))
        for start in range(0, rows, _TABLE_ROWS):
            part = slice(start, start + _TABLE_ROWS)
            yield _lines([c if isinstance(c, str) else c[part] for c in columns])


def _lines(columns):
    """A line per entry of the text ``columns`` (a list of a text per line,
    or one text for every line), comma-separated.  Each run of one-text
    columns and the commas around them is joined once, as one piece of
    every line."""
    parts, text = [], ""
    for column in columns:
        if isinstance(column, str):
            text += column + ","
        else:
            if text:
                parts.append(repeat(text))
            parts.append(column)
            text = ","
    parts.append(repeat(text[:-1] + "\n"))
    return "".join(map("".join, zip(*parts)))


def _column(values):
    """Each value of the numeric array ``values``, flattened, as text,
    exactly as :func:`_fmt` writes it, in one ``map``."""
    kind = values.dtype.kind
    if kind == "b":
        return ["1" if v else "0" for v in values.ravel().tolist()]
    if kind == "f":
        return list(map(repr, values.astype(float, copy=False).ravel().tolist()))
    return list(map(str, values.ravel().tolist()))


def _column_text():
    """A :func:`_column` for the columns of one table that formats an
    array once: a later array of the same dtype, shape and bytes, such as
    the times of every ``m`` block, reuses its text, which is the same
    text."""
    texts = {}

    def text(values):
        key = (values.dtype.str, values.shape, values.tobytes())
        if key not in texts:
            texts[key] = _column(values)
        return texts[key]

    return text


def _node_column(axes):
    """The node of each entry of ``axes``, an index sequence per grid
    axis, as text: its indices joined by ``/``."""
    return list(map("/".join, zip(*(_column(np.asarray(a)) for a in axes))))


def _coord_names(manifold):
    return ["x", "y"][: manifold.dim_n]


@lru_cache(maxsize=16)
def _node_prefixes(grid_sizes, periods):
    """``"node_index,coordinates..."`` per node of the grid in C order."""
    columns = [_column(np.arange(math.prod(grid_sizes)))]
    columns.extend(_column(c) for c in _grid_coordinates(grid_sizes, periods))
    return tuple(map(",".join, zip(*columns)))


def snapshots_csv(snapshots):
    """The field ``u`` of each row of the stack ``snapshots``, keyed by
    its ``t``: a row (t, node_index, coordinates..., u) per grid node.  A
    list of states is stacked first."""
    if not snapshots:
        raise ValueError("no snapshots given")
    stack = _as_stack(snapshots)
    manifold = stack.manifold
    cols = ["t", "node_index", *_coord_names(manifold), "u"]
    prefixes = _node_prefixes(manifold.grid_sizes, manifold.circumferences)
    blocks = ([_fmt(t), prefixes, _column(u)] for t, u in zip(stack.t, stack.u))
    return _table("snapshots", cols, blocks)


def write_npy(path, shape, fields):
    """Write the ``fields``, each an array of shape ``shape[1:]``, to
    ``path`` as one ``.npy`` array of shape ``shape``, dtype ``<f8``, in C
    order: the header, then each field's bytes, one field at a time.

    There must be exactly ``shape[0]`` fields; a field of another shape or
    count raises :class:`ValueError` and leaves ``path`` as it was."""
    shape = tuple(map(operator.index, shape))
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": "<f8", "fortran_order": False, "shape": shape}
    )

    def blocks():
        yield header.getvalue()
        count = 0
        for values in fields:
            values = np.asarray(values)
            if values.shape != shape[1:]:
                raise ValueError(f"field shape {values.shape} does not match grid {shape[1:]}")
            count += 1
            yield np.ascontiguousarray(values, dtype="<f8")
        if count != shape[0]:
            raise ValueError(f"{count} fields for a stack of {shape[0]}")

    write_blocks(path, blocks())


def curvature_csv(curvatures):
    """The key table of a stack of curvature fields: the ``m`` of each."""
    m = np.asarray([cf.m for cf in curvatures])
    yield from _table("curvature-rows", ["m"], [[_column(m)]])


def field_csv(blocks):
    """The key table of a stack of fields given as ``(t, m)`` blocks of
    rows: an array of the rows' times and their one ``m``."""
    text = _column_text()
    return _table("field-rows", ["t", "m"], ([text(t), _fmt(m)] for t, m in blocks))


def harnack_csv(columns):
    """A row per row of each :class:`wittenlab.harnack.DefectColumns` of
    ``columns``, a block per ``m``."""
    cols = ["inequality", "t", "m", "K", "min_defect", "argmin_node", "tol", "ok"]
    text = _column_text()
    blocks = (
        [c.inequality, text(c.t), _fmt(c.m), _fmt(c.K), text(c.min_defect),
         _node_column(c.argmin_nodes), text(c.tol), text(c.ok)]
        for c in columns
    )
    return _table("harnack", cols, blocks)


def integrated_csv(reports):
    """A row per :class:`wittenlab.harnack.IntegratedHarnackReport` of the
    sequence ``reports``."""
    cols = ["x", "y", "tau", "T", "m", "K", "distance", "lhs", "rhs", "ok"]
    nodes = [_node_column(zip(*(getattr(r, c) for r in reports))) for c in cols[:2]]
    values = [_column(np.asarray([getattr(r, c) for r in reports])) for c in cols[2:]]
    yield from _table("integrated-harnack", cols, [nodes + values])


# EntropySeries columns, stored or derived, in order after the time column
SERIES_COLUMNS = (
    "H", "dH_dt", "d2H_dt2", "Phi", "H_mK", "W_mK", "dW_dt_numeric",
    "T1", "T2", "T3", "T4", "dW_dt_formula", "residual", "monotonicity_bound",
)


def entropy_series_csv(series, flow_margins=None):
    """A row per time of each series, keyed by its ``m``; ``flow_margins``,
    one sequence per series, adds the column ``flow_margin``."""
    cols = ["m", "t", *SERIES_COLUMNS]
    tables = [[s.times, *(getattr(s, c) for c in SERIES_COLUMNS)] for s in series]
    if flow_margins is not None:
        cols.append("flow_margin")
        for columns, margin in zip(tables, flow_margins):
            columns.append(np.asarray(margin))
    text = _column_text()
    blocks = ([_fmt(s.m), *map(text, columns)] for s, columns in zip(series, tables))
    return _table("entropy-series", cols, blocks)


def flow_margin_csv(columns):
    """A row per row of each margin :class:`wittenlab.harnack.DefectColumns`
    of ``columns``, a block per ``m``."""
    cols = ["t", "m", "K", "min_margin", "ok"]
    text = _column_text()
    blocks = (
        [text(c.t), _fmt(c.m), _fmt(c.K), text(c.min_defect), text(c.ok)] for c in columns
    )
    return _table("flow-margin", cols, blocks)


def manifest_csv(rows):
    """A row per accepted step of the sequence ``rows``, a heat flow's
    manifest."""
    cols = ["t", "dt", "error_estimate"]
    columns = [_column(np.asarray([r[c] for r in rows])) for c in cols]
    yield from _table("evolution-manifest", cols, [columns])


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
