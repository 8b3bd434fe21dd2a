"""Matrix files and report serialization.

Matrices travel as Matrix Market files (dense array or coordinate, real
or complex) or as headerless CSV, which numpy's ``loadtxt`` parses:
float64, or complex128 when a cell is complex (``2+3j``, ``(2+3j)``,
``-4j``); ``inf`` and ``nan`` parse, Python's ``1+2J`` and ``1_000`` do
not, and ``#`` starts no comment. A dense real or complex general Matrix
Market file is read by scipy's compiled fast_matrix_market module alone
(``_read_fmm``), which reads ``1-2``, ``1.2.3`` and ``1e`` as their leading
number; the scipy.io package writes Matrix Market files and reads the
others, and every one on scipy < 1.12, which lacks that module.
Reports serialize to CSV (per-index rows followed by a scalar block) or
JSON, with floats at full round-trip precision; ``_layout`` describes each
report type once and both writers read that one description.
"""

from __future__ import annotations

import csv
import json
import sys
import warnings
from collections.abc import Sequence
from io import StringIO
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import core
from .analysis import ComparativeReport
from .bounds import BoundCertificate
from .engine import GsvSpectrum
from .errors import ParseError, ValidationError
from .rangefinder import BasisResult

_MM_MAGIC = "%%MatrixMarket"
_MM_GENERAL = {("matrix", "array", "real", "general"): np.float64,
               ("matrix", "array", "complex", "general"): np.complex128}
_DECIMAL = b"0123456789.eE+- \t\r\n"  # the bytes of a finite dense body


def read_matrix(path) -> np.ndarray:
    """Read a matrix from a Matrix Market or headerless CSV file.

    The format is sniffed from the first line; coordinate Matrix Market
    entries are densified and CSV cells read as the module docstring says.
    A dense real or complex general Matrix Market file, of any size, is
    read by ``_read_fmm``, so a dense pair loads no scipy package, and a
    value made of decimal bytes reads as its leading number (``1-2`` as 1);
    any other Matrix Market file, and every one on scipy < 1.12, by scipy.io.
    """
    path = Path(path)
    try:
        with open(path, "r") as fh:
            if not fh.readline().startswith(_MM_MAGIC):
                return _read_csv_matrix(path, fh)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: cannot decode: {exc}") from exc
    try:
        mat = _read_fmm(path)
        if mat is None:
            import scipy.io

            mat = scipy.io.mmread(path)
        if 0 in mat.shape:  # as an empty CSV file, on every reader
            raise ValueError(f"no entries in {mat.shape}")
    except Exception as exc:
        raise ParseError(f"{path}: invalid Matrix Market file: {exc}") from exc
    if not isinstance(mat, np.ndarray):
        mat = mat.toarray()
    mat = core.as_matrix(mat, str(path))
    mat += 0.0  # -0.0 to +0.0, as fast_matrix_market reads it and older scipy.io does not
    return mat


def _read_fmm(path: Path) -> np.ndarray | None:
    """``path``'s dense real or complex general matrix, read by scipy's
    compiled ``_fmm_core`` on its default thread count; None for another
    file, or on scipy < 1.12, which lacks that module. An array size line
    with a zero, on which it would crash, gives an empty array unread.
    ValueError on a NUL byte, on which it would crash, and on a line it
    takes the leading number of (``1d3`` as 1.0): a byte outside
    ``_DECIMAL`` fails a matrix read as finite."""
    fmm = core._extension("scipy.io._fast_matrix_market._fmm_core",
                          ("open_read_file", "read_body_array"))
    if fmm is None:
        return None
    stray = b""
    with open(path, "rb") as fh:
        fh.readline()
        while (line := fh.readline()) and (line.isspace() or line.lstrip().startswith(b"%")):
            pass  # to the size line
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            if b"\0" in chunk:
                raise ValueError("NUL byte in a value line")
            stray = stray or chunk.translate(None, _DECIMAL)[:1]
    cursor = fmm.open_read_file(str(path), 0)
    try:
        h = cursor.header
        if h.format == "array" and 0 in h.shape:
            return np.zeros(h.shape)  # fast_matrix_market divides by a zero row count
        dtype = _MM_GENERAL.get((h.object, h.format, h.field, h.symmetry))
        if dtype is None:
            return None
        mat = np.zeros(h.shape, dtype)
        fmm.read_body_array(cursor, mat)
    finally:
        cursor.close()
    if stray and np.isfinite(mat).all():
        raise ValueError(f"byte {stray!r} in a value line")
    return mat


def _read_csv_matrix(path: Path, fh) -> np.ndarray:
    first, last = [], [0, ""]  # the first data line; the last numpy read, with its number

    def data_lines():
        fh.seek(0)
        for lineno, line in enumerate(fh, start=1):
            if not line.isspace():
                if not first:
                    first.append(line)
                last[:] = lineno, line
                yield line

    mat = None
    for dtype in (np.float64, np.complex128):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows: an error below
                mat = np.loadtxt(data_lines(), dtype, delimiter=",", comments=None, ndmin=2)
            break
        except UnicodeDecodeError:
            raise
        except ValueError as exc:
            error = exc
            # numpy reads one line at a time and stops at the line it rejects;
            # a complex pass stops there too unless that line has a j or a "("
            if "j" not in last[1] and "(" not in last[1]:
                break
    if mat is None:
        raise _rejected_line(path, *last, first[0], dtype, error)
    if mat.shape[0] == 0:
        raise ParseError(f"{path}: no data rows")
    return core.as_matrix(mat, str(path))


def _rejected_line(path: Path, lineno: int, line: str, first: str, dtype, error) -> ParseError:
    """The error naming the physical line a ``dtype`` pass of numpy's
    parser stopped at, when that line fails alone or its width differs
    from the first data line's; otherwise numpy's own ``error``."""
    def width(text):
        return np.loadtxt([text], dtype, delimiter=",", comments=None).size

    try:
        found = width(line)
    except ValueError as exc:
        return ParseError(f"{path}:{lineno}: {exc}")
    expected = width(first)
    if found != expected:
        return ParseError(f"{path}:{lineno}: expected {expected} columns, found {found}")
    return ParseError(f"{path}: {error}")


def write_matrix(path, m) -> None:
    """Write a matrix as a dense Matrix Market file, each value in its
    shortest round-trip form (``%.16e`` on scipy < 1.12), so that
    read_matrix reads it back bitwise, except that -0.0 reads as +0.0."""
    import scipy.io

    a = core.as_matrix(m)
    field = "complex" if np.iscomplexobj(a) else "real"
    scipy.io.mmwrite(str(path), a, field=field)


def _num(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _jsonable(x):
    return x.item() if isinstance(x, np.generic) else x


class _Layout(NamedTuple):
    """How one report type is written by both writers.

    ``index`` is the CSV index column's name and first value; each of
    ``columns`` is (CSV header, JSON key, per-index values); ``scalars``
    are (key, value) pairs written to both formats, after the rows in CSV;
    ``json_only`` and ``csv_only`` follow them in their one format.
    """

    kind: str
    index: tuple[str, int]
    columns: Sequence[tuple[str, str, Sequence]]
    scalars: Sequence[tuple[str, object]]
    json_only: Sequence[tuple[str, object]] = ()
    csv_only: Sequence[tuple[str, object]] = ()


def _layout(report) -> _Layout:
    if isinstance(report, ComparativeReport):
        spec, meta = report.spectrum, report.meta
        return _Layout(
            "comparative_report",
            ("index", 1),
            [("alpha", "alphas", spec.alphas), ("beta", "betas", spec.betas),
             ("rho", "rho", report.rho), ("theta", "theta", report.theta),
             ("p1", "p1", report.p1), ("p2", "p2", report.p2)],
            [("d1", report.d1), ("d2", report.d2), ("r", spec.r), ("s", spec.s)],
            json_only=[("n", spec.n), ("meta", dict(meta))],
            csv_only=[("seed", meta.get("seed")), ("tol", meta.get("tol"))],
        )
    if isinstance(report, GsvSpectrum):
        return _Layout(
            "spectrum",
            ("index", 1),
            [("alpha", "alphas", report.alphas), ("beta", "betas", report.betas)],
            [("r", report.r), ("s", report.s)],
            json_only=[("n", report.n)],
        )
    if isinstance(report, BoundCertificate):
        return _Layout(
            "bound_certificate",
            ("index", 1),
            [("p1_bound", "p1_bounds", report.p1_bounds),
             ("p2_bound", "p2_bounds", report.p2_bounds)],
            [("eta", report.eta), ("e_script", report.e_script),
             ("theta_bound", report.theta_bound), ("d1_bound", report.d1_bound),
             ("d2_bound", report.d2_bound), ("vacuous", report.vacuous)],
        )
    if isinstance(report, BasisResult):
        return _Layout(
            "basis_result",
            ("iteration", 0),
            [("residual", "residual_history", report.residual_history)],
            [("columns", int(report.q.shape[1])), ("converged", report.converged),
             ("iterations", report.iterations)],
            json_only=[("block_widths", [int(w) for w in report.block_widths])],
        )
    raise ValidationError(f"cannot serialize report of type {type(report).__name__}")


def report_to_dict(report) -> dict:
    """Structured form of any report object, used by the JSON writer."""
    lay = _layout(report)
    out = {"kind": lay.kind}
    out.update((key, [float(v) for v in values]) for _, key, values in lay.columns)
    out.update((key, _jsonable(v)) for key, v in [*lay.scalars, *lay.json_only])
    return out


def _csv_rows(report) -> list[list]:
    lay = _layout(report)
    name, first = lay.index
    rows = [[name] + [header for header, _, _ in lay.columns]]
    per_index = zip(*(values for _, _, values in lay.columns))
    rows += [[first + i, *map(_num, row)] for i, row in enumerate(per_index)]
    rows += [[key, _num(v)] for key, v in [*lay.scalars, *lay.csv_only]]
    return rows


def write_report(report, path=None, fmt: str = "csv") -> None:
    """Serialize a report to ``path`` (or stdout when None) as csv or json.

    The whole text is built before ``path`` is opened, so a report that
    cannot be serialized leaves the file as it was.
    """
    if fmt not in ("csv", "json"):
        raise ValidationError(f"format must be 'csv' or 'json', got {fmt!r}")
    if fmt == "json":
        text = json.dumps(report_to_dict(report), indent=2) + "\n"
    else:
        buf = StringIO()
        csv.writer(buf, lineterminator="\n").writerows(_csv_rows(report))
        text = buf.getvalue()

    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)
