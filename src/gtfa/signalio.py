"""File formats: WAV ingestion, CSV tables, PGM images, periodization.

All CSV output is locale-independent: ',' separator, '.' decimal point, 17
significant digits, '\\n' line endings, no header.  Files are written
atomically (temp file + rename).

CSV tables are read in one pass.  Every non-blank line is matched against
the row grammar, the rows before the first faulty line are converted with one
numpy call, and their values and indices are checked as arrays.  A refused
table names its first fault from those same arrays, and only then works out
line numbers; a sound table is read with no per-line Python loop.

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


def _line_fault(line: str, width: int) -> str:
    """The fault of a line that is not a row of finite values: its field
    count, else a malformed number, else a non-finite value, else an index
    that is not an integer."""
    parts = line.split(",")
    if len(parts) != width + 2:
        return f"{len(parts)} fields, expected {width + 2}"
    if not all(map(VALUE_FIELD.fullmatch, parts[-2:])):
        return "malformed number"
    if not all(map(math.isfinite, map(float, parts[-2:]))):
        return "non-finite value"
    return f"index {','.join(parts[:-2])} is not an integer"


def _read_table(path, index: np.ndarray) -> np.ndarray:
    """The values of a CSV table with rows `*index,re,im`, in the order of
    `index`'s rows.

    Index fields must be integers and values finite decimal numbers, in the
    forms `INDEX_FIELD` and `VALUE_FIELD`.  Rows may come in any order and blank
    lines are skipped, but every index row must come from exactly one line.
    One pass (see the module docstring) converts and places the rows before
    the first faulty line: one off the row grammar or with a non-finite value.
    A refused table's error names an index out of range or repeated on one of
    those rows, else the faulty line's own fault, else the first missing row
    at the file's last line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = list(filter(str.strip, lines))
    if not rows:
        raise CsvFormatError(f"{path}: empty file, expected {len(index)} rows")
    width = index.shape[1]
    row = re.compile(",".join([f"(?:{INDEX_FIELD.pattern})"] * width + [f"(?:{VALUE_FIELD.pattern})"] * 2))
    bad = len(rows)
    if not all(map(row.fullmatch, rows)):
        bad = next(j for j, line in enumerate(rows) if not row.fullmatch(line))
    # loadtxt warns on no rows.  Index keys are floats: one of 16 or more
    # significant digits is out of range of any table however it rounds.
    table = np.loadtxt(rows[:bad], delimiter=",", ndmin=2) if bad else np.empty((0, width + 2))
    finite = np.isfinite(table[:, width:])
    bad = bad if finite.all() else int(finite.argmin()) // 2
    key, values = table[:bad, :width].T.copy(), table[:bad, width:]  # key[field, row]
    box = index.max(axis=0) + 1
    slot = np.full(box, -1)  # each index row's position in `index`, -1 in the box's holes
    slot[tuple(index.T)] = np.arange(len(index))
    inside = ((key >= 0) & (key < box[:, None])).all(axis=0)
    pos = np.full(len(inside), -1)
    pos[inside] = slot[tuple(key[:, inside].astype(np.intp))]
    count = np.bincount(pos + 1, minlength=len(index) + 1)  # count[0]: rows out of range
    if bad == len(rows) == len(index) and count[1:].all():  # so each index row once
        # A view of the (re, im) pairs: re + 1j*im would turn a -0.0 real
        # part into +0.0.
        out = np.empty(len(index), dtype=complex)
        out[pos] = values.view(complex)[:, 0]
        return out

    line_of = [n for n, line in enumerate(lines, start=1) if line.strip()]
    if count[0] or count[1:].max() > 1:
        _, first, inverse = np.unique(pos, return_index=True, return_inverse=True)
        first = first[inverse]
        j = np.flatnonzero((pos < 0) | (first != np.arange(len(pos))))[0]
        where = f"{path}: line {line_of[j]}: index {tuple(map(int, rows[j].split(',')[:width]))}"
        if pos[j] < 0:
            raise CsvFormatError(f"{where} out of range")
        raise CsvFormatError(f"{where} repeats line {line_of[first[j]]}")
    if bad < len(rows):
        raise CsvFormatError(f"{path}: line {line_of[bad]}: {_line_fault(rows[bad], width)}")
    raise CsvFormatError(
        f"{path}: line {len(lines)}: {len(index) - len(pos)} of {len(index)} rows missing, "
        f"the first for index {tuple(index[count[1:].argmin()].tolist())}"
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
    of the dual is a reshape of the values read: float64 when every imaginary
    field is 0 or -0, as `write_tf_csv` writes a real distribution, else complex."""
    n, dual = group.order, group.dual
    flat = _read_table(path, _block_index(n, dual))
    flat = flat if flat.imag.any() else flat.real.copy()
    runs = [flat[n * row:n * (row + (end - first) * d * d)].reshape(end - first, n, d, d)
            for first, end, d, row in dual.runs]
    return TFFunction(group, dual, runs)


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
