"""File formats: WAV ingestion, CSV tables, PGM images, periodization.

All CSV output is locale-independent: ',' separator, '.' decimal point, 17
significant digits, '\\n' line endings, no header.  Files are written
atomically (temp file + rename).

CSV tables are read in two stages.  The bulk stage matches every non-blank
line against the row grammar, converts all fields with one numpy call and
checks values and indices as arrays; it is the only stage that returns
values.  When one of its checks fails, a row loop reads the lines one by one
to name the first offending line and its fault, and raises.

PGM output is plain P2 (ASCII) with maxval 255 so golden files diff cleanly.
Shading follows the distribution-picture conventions: higher values are
darker; "midgrey-zero" maps zero to grey 128 with symmetric range +-max|v|,
"white-zero" maps zero to white with range [0, max v].
"""

from __future__ import annotations

import math
import os
import re
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .groups import INDEX_FIELD, VALUE_FIELD, FiniteGroup, UnitaryDual, build_cyclic
from .harmonic import Signal, require_single
from .tfplane import TFFunction
from .quantization import GroupOperator

if TYPE_CHECKING:  # imported where a ZSignal is built, so that table I/O does not load limits
    from .limits import ZSignal, ZTFGrid

__all__ = [
    "UnsupportedFormat",
    "TruncatedFile",
    "CsvFormatError",
    "ImageSpec",
    "read_wav_mono16",
    "read_csv_signal",
    "write_csv_signal",
    "read_tf_csv",
    "write_tf_csv",
    "read_operator_csv",
    "write_operator_csv",
    "write_grid_csv",
    "render_pgm",
    "periodize",
]


# Rows formatted and written at a time: the text of one chunk is held in
# memory, not the table's.
CSV_CHUNK_ROWS = 65536


class UnsupportedFormat(ValueError):
    """WAV file exists but is not PCM 16-bit mono."""


class TruncatedFile(ValueError):
    """File ends before the declared payload."""


class CsvFormatError(ValueError):
    """Malformed CSV row; message carries the line number."""


def atomic_write(path, chunks):
    """Write an iterable of byte strings to a temp file beside path, then
    rename it over path.

    The file gets mode 0o666 less the umask, as open() would create it.  Not
    in __all__, so perfbench/tracer.py counts its time in the writers.
    """
    d = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(d, f".gtfa-tmp-{os.urandom(8).hex()}")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# WAV
# ---------------------------------------------------------------------------


def read_wav_mono16(path) -> ZSignal:
    """Read a RIFF/WAVE file: PCM format 1, 16-bit, one channel.

    Samples are scaled to [-1, 1) by 1/32768; the sampling rate is kept as
    metadata on the returned signal.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12:
        raise TruncatedFile(f"{path}: too short for a RIFF header")
    if raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise UnsupportedFormat(f"{path}: not a RIFF/WAVE file")

    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(raw):
        cid, size = struct.unpack_from("<4sI", raw, pos)
        body = raw[pos + 8 : pos + 8 + size]
        if len(body) < size and cid in (b"fmt ", b"data"):
            raise TruncatedFile(f"{path}: chunk {cid!r} declares {size} bytes, "
                                f"file has {len(body)}")
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)

    if fmt is None or data is None:
        raise TruncatedFile(f"{path}: missing fmt/data chunk")
    if len(fmt) < 16:
        raise TruncatedFile(f"{path}: fmt chunk too short")
    audio_format, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if audio_format != 1:
        raise UnsupportedFormat(f"{path}: audio format {audio_format}, need PCM (1)")
    if channels != 1:
        raise UnsupportedFormat(f"{path}: {channels} channels, need mono")
    if bits != 16:
        raise UnsupportedFormat(f"{path}: {bits}-bit samples, need 16")
    if len(data) % 2:
        raise TruncatedFile(f"{path}: odd data chunk length {len(data)}")
    if not data:
        raise TruncatedFile(f"{path}: empty data chunk")
    samples = np.frombuffer(data, dtype="<i2").astype(float) / 32768.0
    from .limits import ZSignal
    return ZSignal(0, samples, sample_rate=int(rate))


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def _box_index(*shape: int) -> np.ndarray:
    """Index rows of every point of a box, in C order: the layout of signal
    `(n,)`, operator `(n, n)` and grid `(times, freq_bins)` tables."""
    return np.indices(shape).reshape(len(shape), -1).T


def _block_index(order: int, dual: UnitaryDual) -> np.ndarray:
    """Index rows `x,eta_index,row,col` of a per-irrep table, in the order
    irrep, element, row, column: the entries of each run (end - first, order,
    d, d) of the dual in C order."""
    k, t, r, c = np.concatenate([_box_index(end - first, order, d, d) + [first, 0, 0, 0]
                                 for first, end, d, _ in dual.runs]).T
    return np.stack((t, k, r, c), axis=1)


def _write_table(path, index: np.ndarray, values):
    """Write one row `*index,re,im` per index row, values to 17 significant
    digits, CSV_CHUNK_ROWS rows at a time."""
    values = np.asarray(values, dtype=complex).ravel()
    row = ",".join(["%d"] * index.shape[1] + ["%.17g", "%.17g"]) + "\n"

    def chunks():
        for i in range(0, len(values), CSV_CHUNK_ROWS):
            part = slice(i, i + CSV_CHUNK_ROWS)
            cols = zip(*index[part].T.tolist(), values[part].real.tolist(), values[part].imag.tolist())
            yield "".join(map(row.__mod__, cols)).encode()

    atomic_write(path, chunks())


# The index fields that the bulk stage reads as floats: at most 15 significant
# digits, which every float holds exactly.  A longer index is out of range of
# any table, and the row loop names its line.
_SHORT_INDEX = r"-?0*[0-9]{1,15}"


def _row_pattern(width: int, index_field: str) -> re.Pattern:
    """One row `*index,re,im` with `width` index fields."""
    return re.compile(",".join([f"(?:{index_field})"] * width + [f"(?:{VALUE_FIELD.pattern})"] * 2))


def _slots(index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The box that holds every index row, and an array over it whose entry at
    each index row is that row's position in `index`, -1 elsewhere."""
    box = index.max(axis=0) + 1
    slot = np.full(box, -1)
    slot[tuple(index.T)] = np.arange(len(index))
    return box, slot


def _read_table(path, index: np.ndarray) -> np.ndarray:
    """The values of a CSV table with rows `*index,re,im`, in the order of
    `index`'s rows.

    Index fields must be integers and values finite decimal numbers, in the
    forms `INDEX_FIELD` and `VALUE_FIELD`.  Rows may come in any order and blank
    lines are skipped, but every index row must come from exactly one line.
    This is the bulk stage (see the module docstring); when one of its checks
    fails, `_table_error` names the first offending line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = list(filter(str.strip, lines))
    if not rows:
        raise CsvFormatError(f"{path}: empty file, expected {len(index)} rows")
    width = index.shape[1]
    if len(rows) == len(index) and all(map(_row_pattern(width, _SHORT_INDEX).fullmatch, rows)):
        table = np.loadtxt(rows, delimiter=",", ndmin=2)
        key, values = table[:, :width], table[:, width:]
        box, slot = _slots(index)
        if np.isfinite(values).all() and ((key >= 0) & (key < box)).all():
            pos = slot[tuple(key.astype(np.intp).T)]
            filled = np.zeros(len(index), dtype=bool)
            filled[pos] = True
            if (pos >= 0).all() and filled.all():
                # A view of the (re, im) pairs: re + 1j*im would turn a -0.0
                # real part into +0.0.
                out = np.empty(len(index), dtype=complex)
                out[pos] = values.view(complex)[:, 0]
                return out
    raise _table_error(path, lines, index)


def _table_error(path, lines: list[str], index: np.ndarray) -> CsvFormatError:
    """The error for the first fault of a table that the bulk stage of
    `_read_table` refused, found by reading its lines one by one.

    A line-level fault (field count, number form, a non-finite value, a
    non-integer index) ends the loop, but the rows before it are still
    placed, so that an index error on an earlier line is the one reported.
    With neither fault, the only one left is a missing row.
    """
    width = index.shape[1]
    row = _row_pattern(width, INDEX_FIELD.pattern)
    keys, line_of = [], []
    lineno, error = 0, None
    try:
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            parts = line.split(",")
            strict = row.fullmatch(line)
            if not strict and len(parts) != width + 2:
                raise CsvFormatError(f"{path}: line {lineno}: {len(parts)} fields, expected {width + 2}")
            if not strict and not all(map(VALUE_FIELD.fullmatch, parts[-2:])):
                raise CsvFormatError(f"{path}: line {lineno}: malformed number")
            if not (math.isfinite(float(parts[-2])) and math.isfinite(float(parts[-1]))):
                raise CsvFormatError(f"{path}: line {lineno}: non-finite value")
            if not strict:  # the fields and values are sound, so an index is not
                raise CsvFormatError(f"{path}: line {lineno}: index {','.join(parts[:-2])} is not an integer")
            keys.append(tuple(map(int, parts[:-2])))
            line_of.append(lineno)
    except CsvFormatError as e:
        error = e

    box, slot = _slots(index)
    key = np.array(keys).reshape(len(keys), width)
    inside = ((key >= 0) & (key < box)).all(axis=1)
    pos = np.full(len(keys), -1)
    pos[inside] = slot[tuple(key[inside].astype(np.intp).T)]
    _, first, inverse = np.unique(pos, return_index=True, return_inverse=True)
    first = first[inverse]
    bad = np.flatnonzero((pos < 0) | (first != np.arange(len(pos))))
    if bad.size:
        j = bad[0]
        where = f"{path}: line {line_of[j]}: index {keys[j]}"
        if pos[j] < 0:
            return CsvFormatError(f"{where} out of range")
        return CsvFormatError(f"{where} repeats line {line_of[first[j]]}")
    if error is not None:
        return error
    filled = np.zeros(len(index), dtype=bool)
    filled[pos] = True
    return CsvFormatError(
        f"{path}: line {lineno}: {len(index) - len(keys)} of {len(index)} rows missing, "
        f"the first for index {tuple(index[np.argmin(filled)].tolist())}"
    )


def read_csv_signal(path, group: FiniteGroup) -> Signal:
    """Signal CSV: rows `index,re,im`, one per group element."""
    return Signal(group, _read_table(path, _box_index(group.order)))


def write_csv_signal(path, u: Signal):
    require_single(u)
    _write_table(path, _box_index(u.group.order), u.values)


def write_tf_csv(path, a: TFFunction):
    """Symbol / distribution CSV: rows `x,eta_index,row,col,re,im`."""
    index = _block_index(a.group.order, a.dual)
    _write_table(path, index, np.concatenate([run.ravel() for run in a.runs]))


def read_tf_csv(path, group: FiniteGroup) -> TFFunction:
    """Symbol / distribution CSV: one row `x,eta_index,row,col,re,im` per entry.

    `_block_index` rows come in run order, so each run (end - first, |G|, d, d)
    of the dual is a reshape of the values read."""
    n, dual = group.order, group.dual
    flat = _read_table(path, _block_index(n, dual))
    runs = [flat[n * row:n * (row + (end - first) * d * d)].reshape(end - first, n, d, d)
            for first, end, d, row in dual.runs]
    return TFFunction.from_runs(group, dual, runs)


def write_operator_csv(path, B: GroupOperator):
    """Operator CSV: rows `x,y,re,im` of the dense kernel matrix."""
    _write_table(path, _box_index(B.group.order, B.group.order), B.kernel)


def read_operator_csv(path, group: FiniteGroup) -> GroupOperator:
    """Operator CSV: one row `x,y,re,im` per kernel entry."""
    n = group.order
    return GroupOperator(group, _read_table(path, _box_index(n, n)).reshape(n, n))


def write_grid_csv(path, grid: ZTFGrid):
    """Z-side grid CSV: rows `x,theta_index,re,im`."""
    index = _box_index(len(grid.times), grid.freq_bins) + [grid.t_start, 0]
    _write_table(path, index, grid.values.T)


# ---------------------------------------------------------------------------
# PGM rendering
# ---------------------------------------------------------------------------


@dataclass
class ImageSpec:
    """Rendering parameters for grayscale distribution pictures.

    mode "midgrey-zero": pixel = rint(127.5 (1 - clamp(v/s, -1, 1))) with
    s = max|v| (all 128 when s = 0).  mode "white-zero": pixel =
    rint(255 (1 - clamp(v/m, 0, 1))) with m = max v (all 255 when m <= 0).
    Ties round half-to-even.  gamma != 1 applies v <- sign(v) |v|^gamma first;
    gamma must be finite and positive.
    """

    mode: str = "midgrey-zero"
    gamma: float = 1.0

    def __post_init__(self):
        if self.mode not in ("midgrey-zero", "white-zero"):
            raise ValueError(f"unknown image mode {self.mode!r}")
        if not (0.0 < self.gamma < math.inf):
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")


# The text of each pixel value, indexed by the value.
_PIXEL_TEXT = np.array([str(p) for p in range(256)], dtype=object)


def render_pgm(values, spec: ImageSpec, path):
    """Write a real matrix as a plain (P2) PGM, row 0 at the top.

    Callers put low frequencies in row 0 and time along the columns; output
    is byte-deterministic for identical inputs.  Values that are not finite
    after the gamma map are refused.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 2:
        raise ValueError("render_pgm needs a 2-d real matrix")
    if spec.gamma != 1.0:
        with np.errstate(over="ignore"):
            v = np.sign(v) * np.abs(v) ** spec.gamma
    if not np.isfinite(v).all():
        raise ValueError("image values must be finite after the gamma map")
    if spec.mode == "midgrey-zero":
        top, lo, gain = np.abs(v).max(initial=0.0), -1.0, 127.5
    else:
        top, lo, gain = v.max(initial=0.0), 0.0, 255.0
    with np.errstate(over="ignore"):
        ratio = np.clip(v / top, lo, 1.0) if top > 0.0 else np.zeros(v.shape)
    pix = np.rint(gain * (1.0 - ratio)).astype(int)
    h, w = pix.shape
    body = "\n".join([" ".join(_PIXEL_TEXT[row].tolist()) for row in pix])
    data = f"P2\n{w} {h}\n255\n{body}\n".encode()
    atomic_write(path, (data,))


def periodize(u: ZSignal, N: int) -> Signal:
    """Fold a finitely supported integer-side signal onto Z/NZ by summation."""
    if N < 1:
        raise ValueError("period must be >= 1")
    group, _ = build_cyclic(N)
    vals = np.zeros(N, dtype=complex)
    np.add.at(vals, (u.offset + np.arange(len(u))) % N, u.values)
    return Signal(group, vals)
