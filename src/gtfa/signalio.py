"""File formats: WAV ingestion, CSV tables, PGM images, periodization.

All CSV output is locale-independent: ',' separator, '.' decimal point, 17
significant digits, '\\n' line endings, no header unless a format explicitly
carries one.  Files are written atomically (temp file + rename).

PGM output is plain P2 (ASCII) with maxval 255 so golden files diff cleanly.
Shading follows the distribution-picture conventions: higher values are
darker; "midgrey-zero" maps zero to grey 128 with symmetric range +-max|v|,
"white-zero" maps zero to white with range [0, max v].
"""

from __future__ import annotations

import bisect
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup, build_cyclic
from .harmonic import Signal
from .limits import ZSignal, ZTFGrid
from .tfplane import TFFunction, AmbiguityFunction
from .transforms import CohenKernel
from .quantization import GroupOperator

__all__ = [
    "UnsupportedFormat",
    "TruncatedFile",
    "CsvFormatError",
    "ImageSpec",
    "read_wav_mono16",
    "read_csv_signal",
    "write_csv_signal",
    "write_csv_matrix",
    "read_tf_csv",
    "write_tf_csv",
    "read_operator_csv",
    "write_operator_csv",
    "write_kernel_csv",
    "read_kernel_csv",
    "write_grid_csv",
    "render_pgm",
    "periodize",
]


class UnsupportedFormat(ValueError):
    """WAV file exists but is not PCM 16-bit mono."""


class TruncatedFile(ValueError):
    """File ends before the declared payload."""


class CsvFormatError(ValueError):
    """Malformed CSV row; message carries the line number."""


def atomic_write(path, data: bytes):
    """Write data to a temp file beside path, then rename it over path.

    The file gets mode 0o666 less the umask, as open() would create it.  Not
    in __all__, so perfbench/tracer.py counts its time in the writers.
    """
    d = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(d, f".gtfa-tmp-{os.urandom(8).hex()}")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(v: float) -> str:
    return f"{v:.17g}"


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
    return ZSignal(0, samples, sample_rate=int(rate))


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def _read_table(path, n_fields, total, place, index_of, header=None) -> np.ndarray:
    """The values of a CSV table with rows `*index,re,im`, as a flat array of
    `total` entries.

    Index fields must be integers and values finite.  place(*index) is a
    row's entry, or None when the index is out of range (negative included);
    index_of(entry) inverts it.  Every entry must come from exactly one row.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = 0
    if header is not None:
        if not lines or lines[0].strip() != header:
            raise CsvFormatError(f"{path}: line 1: expected header {header!r}")
        start = 1
    vals = [0j] * total
    line_of = [0] * total
    lineno = start
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != n_fields:
            raise CsvFormatError(
                f"{path}: line {lineno}: {len(parts)} fields, expected {n_fields}"
            )
        try:
            re, im = float(parts[-2]), float(parts[-1])
        except ValueError:
            raise CsvFormatError(f"{path}: line {lineno}: malformed number")
        if not (math.isfinite(re) and math.isfinite(im)):
            raise CsvFormatError(f"{path}: line {lineno}: non-finite value")
        try:
            index = tuple(map(int, parts[:-2]))
        except ValueError:
            raise CsvFormatError(f"{path}: line {lineno}: index {','.join(parts[:-2])} is not an integer")
        i = place(*index)
        if i is None:
            raise CsvFormatError(f"{path}: line {lineno}: index {index} out of range")
        if line_of[i]:
            raise CsvFormatError(f"{path}: line {lineno}: index {index} repeats line {line_of[i]}")
        line_of[i] = lineno
        vals[i] = complex(re, im)
    missing = line_of.count(0)
    if missing:
        raise CsvFormatError(
            f"{path}: line {lineno}: {missing} of {total} rows missing, "
            f"the first for index {index_of(line_of.index(0))}"
        )
    return np.array(vals, dtype=complex)


def _read_blocks(path, group: FiniteGroup, element_first: bool, header=None) -> list[np.ndarray]:
    """Per-irrep blocks (|G|, d_k, d_k) from a table indexed `x,eta_index,row,col`
    (element_first) or `xi_index,y_index,row,col`.  Entries are placed in the
    order the table writers emit them: irrep, element, row, column."""
    n, dims = group.order, group.dual.dims.tolist()
    starts = np.concatenate([[0], np.cumsum(n * group.dual.dims ** 2)]).tolist()

    def place(a, b, r, c):
        k, t = (b, a) if element_first else (a, b)
        if 0 <= k < len(dims) and 0 <= t < n:
            d = dims[k]
            if 0 <= r < d and 0 <= c < d:
                return starts[k] + (t * d + r) * d + c
        return None

    def index_of(i):
        k = bisect.bisect_right(starts, i) - 1
        t, rc = divmod(i - starts[k], dims[k] ** 2)
        return ((t, k) if element_first else (k, t)) + divmod(rc, dims[k])

    flat = _read_table(path, 6, starts[-1], place, index_of, header)
    return [flat[a:b].reshape(n, d, d) for a, b, d in zip(starts, starts[1:], dims)]


def read_csv_signal(path, group: FiniteGroup) -> Signal:
    """Signal CSV: rows `index,re,im`, one per group element."""
    n = group.order
    vals = _read_table(path, 3, n, lambda i: i if 0 <= i < n else None, lambda i: (i,))
    return Signal(group, vals)


def write_csv_signal(path, u: Signal):
    lines = [
        f"{i},{_fmt(v.real)},{_fmt(v.imag)}" for i, v in enumerate(u.values)
    ]
    atomic_write(path, ("\n".join(lines) + "\n").encode())


def write_csv_matrix(path, table):
    """Generic numeric CSV: one row per table row, 17 significant digits."""
    lines = [",".join(_fmt(float(v)) for v in row) for row in np.atleast_2d(table)]
    atomic_write(path, ("\n".join(lines) + "\n").encode())


def write_tf_csv(path, a: TFFunction):
    """Symbol / distribution CSV: rows `x,eta_index,row,col,re,im`."""
    lines = []
    for k, b in enumerate(a.blocks):
        d = b.shape[1]
        for x in range(b.shape[0]):
            for r in range(d):
                for c in range(d):
                    v = b[x, r, c]
                    lines.append(f"{x},{k},{r},{c},{_fmt(v.real)},{_fmt(v.imag)}")
    atomic_write(path, ("\n".join(lines) + "\n").encode())


def read_tf_csv(path, group: FiniteGroup) -> TFFunction:
    """Symbol / distribution CSV: one row `x,eta_index,row,col,re,im` per entry."""
    return TFFunction(group, group.dual, _read_blocks(path, group, element_first=True))


def write_operator_csv(path, B: GroupOperator):
    """Operator CSV: rows `x,y,re,im` of the dense kernel matrix."""
    lines = []
    for x in range(B.group.order):
        for y in range(B.group.order):
            v = B.kernel[x, y]
            lines.append(f"{x},{y},{_fmt(v.real)},{_fmt(v.imag)}")
    atomic_write(path, ("\n".join(lines) + "\n").encode())


def read_operator_csv(path, group: FiniteGroup) -> GroupOperator:
    """Operator CSV: one row `x,y,re,im` per kernel entry."""
    n = group.order
    K = _read_table(path, 4, n * n, lambda x, y: x * n + y if 0 <= x < n and 0 <= y < n else None,
                    lambda i: divmod(i, n))
    return GroupOperator(group, K.reshape(n, n))


KERNEL_HEADER = "xi_index,y_index,row,col,re,im"


def write_kernel_csv(path, k: CohenKernel):
    lines = [KERNEL_HEADER]
    for kk, b in enumerate(k.phi.blocks):
        d = b.shape[1]
        for y in range(b.shape[0]):
            for r in range(d):
                for c in range(d):
                    v = b[y, r, c]
                    lines.append(f"{kk},{y},{r},{c},{_fmt(v.real)},{_fmt(v.imag)}")
    atomic_write(path, ("\n".join(lines) + "\n").encode())


def read_kernel_csv(path, group: FiniteGroup, name=None) -> CohenKernel:
    """Kernel CSV: the header, then one row `xi_index,y_index,row,col,re,im` per entry."""
    blocks = _read_blocks(path, group, element_first=False, header=KERNEL_HEADER)
    return CohenKernel(name or f"file:{path}", AmbiguityFunction(group, group.dual, blocks))


def write_grid_csv(path, grid: ZTFGrid):
    """Z-side grid CSV: rows `x,theta_index,re,im`."""
    lines = []
    for i, t in enumerate(grid.times):
        for kk in range(grid.freq_bins):
            v = grid.values[kk, i]
            lines.append(f"{t},{kk},{_fmt(v.real)},{_fmt(v.imag)}")
    atomic_write(path, ("\n".join(lines) + "\n").encode())


# ---------------------------------------------------------------------------
# PGM rendering
# ---------------------------------------------------------------------------


@dataclass
class ImageSpec:
    """Rendering parameters for grayscale distribution pictures.

    mode "midgrey-zero": pixel = rint(127.5 (1 - clamp(v/s, -1, 1))) with
    s = max|v| (all 128 when s = 0).  mode "white-zero": pixel =
    rint(255 (1 - clamp(v/m, 0, 1))) with m = max v (all 255 when m <= 0).
    Ties round half-to-even.  gamma != 1 applies v <- sign(v) |v|^gamma first.
    """

    mode: str = "midgrey-zero"
    width: int = 1
    height: int = 1
    gamma: float = 1.0

    def __post_init__(self):
        if self.mode not in ("midgrey-zero", "white-zero"):
            raise ValueError(f"unknown image mode {self.mode!r}")
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be >= 1")


def render_pgm(values, spec: ImageSpec, path):
    """Write a real matrix as a plain (P2) PGM, row 0 at the top.

    Callers put low frequencies in row 0 and time along the columns; output
    is byte-deterministic for identical inputs.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 2:
        raise ValueError("render_pgm needs a 2-d real matrix")
    if spec.gamma != 1.0:
        v = np.sign(v) * np.abs(v) ** spec.gamma
    if spec.mode == "midgrey-zero":
        s = np.abs(v).max(initial=0.0)
        if s == 0.0:
            pix = np.full(v.shape, 128, dtype=int)
        else:
            with np.errstate(over="ignore"):
                pix = np.rint(127.5 * (1.0 - np.clip(v / s, -1.0, 1.0))).astype(int)
    else:
        m = v.max(initial=0.0)
        if m <= 0.0:
            pix = np.full(v.shape, 255, dtype=int)
        else:
            with np.errstate(over="ignore"):
                pix = np.rint(255.0 * (1.0 - np.clip(v / m, 0.0, 1.0))).astype(int)
    h, w = pix.shape
    body = "\n".join(" ".join(str(p) for p in row) for row in pix)
    data = f"P2\n{w} {h}\n255\n{body}\n".encode()
    atomic_write(path, data)


def periodize(u: ZSignal, N: int) -> Signal:
    """Fold a finitely supported integer-side signal onto Z/NZ by summation."""
    if N < 1:
        raise ValueError("period must be >= 1")
    group, _ = build_cyclic(N)
    vals = np.zeros(N, dtype=complex)
    np.add.at(vals, (u.offset + np.arange(len(u))) % N, u.values)
    return Signal(group, vals)
