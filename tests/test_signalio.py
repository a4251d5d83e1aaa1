import os
import stat
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corrupt_table, corruptions
from oracles import read_table_row_loop
from gtfa import signalio
from gtfa.groups import build_cyclic, build_dihedral
from gtfa.harmonic import Signal, random_signal
from gtfa.limits import ZSignal, ZTFGrid
from gtfa.quantization import GroupOperator
from gtfa.signalio import (
    CsvFormatError,
    ImageSpec,
    TruncatedFile,
    UnsupportedFormat,
    periodize,
    read_csv_signal,
    read_operator_csv,
    read_tf_csv,
    read_wav_mono16,
    render_pgm,
    write_csv_signal,
    write_grid_csv,
    write_operator_csv,
    write_tf_csv,
)
from gtfa.tfplane import AmbiguityFunction, TFFunction
from gtfa.transforms import CohenKernel, born_jordan_cyclic_kernel, cohen_transform


def make_wav(samples, rate=4000, channels=1, bits=16, audio_format=1, truncate=0):
    x = np.asarray(samples)
    if bits == 16:
        payload = x.astype("<i2").tobytes() * channels
    else:
        payload = x.astype("<i4").tobytes()
    if channels == 2:
        inter = np.empty(2 * len(x), dtype="<i2")
        inter[0::2] = x
        inter[1::2] = x
        payload = inter.tobytes()
    hdr = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    hdr += b"fmt " + struct.pack("<IHHIIHH", 16, audio_format, channels, rate,
                                 rate * channels * bits // 8, channels * bits // 8, bits)
    hdr += b"data" + struct.pack("<I", len(payload))
    raw = hdr + payload
    return raw[: len(raw) - truncate] if truncate else raw


def test_wav_known_bytes(tmp_path):
    p = tmp_path / "eight.wav"
    vals = [0, 16384, -16384, 32767, -32768, 1, -1, 1000]
    p.write_bytes(make_wav(vals))
    z = read_wav_mono16(p)
    assert z.sample_rate == 4000
    expect = np.array(vals) / 32768.0
    assert np.abs(z.values - expect).max() == 0.0


def test_wav_stereo_rejected(tmp_path):
    p = tmp_path / "st.wav"
    p.write_bytes(make_wav([1, 2, 3], channels=2))
    with pytest.raises(UnsupportedFormat, match="channels"):
        read_wav_mono16(p)


def test_wav_float_format_rejected(tmp_path):
    p = tmp_path / "f.wav"
    p.write_bytes(make_wav([1, 2], audio_format=3))
    with pytest.raises(UnsupportedFormat, match="format"):
        read_wav_mono16(p)


def test_wav_truncated(tmp_path):
    p = tmp_path / "t.wav"
    p.write_bytes(make_wav(list(range(100)), truncate=7))
    with pytest.raises(TruncatedFile):
        read_wav_mono16(p)


def test_wav_paper_shape(tmp_path):
    p = tmp_path / "speech.wav"
    rng = np.random.default_rng(0)
    p.write_bytes(make_wav((rng.standard_normal(1000) * 8000).astype(int), rate=4000))
    z = read_wav_mono16(p)
    assert len(z) == 1000 and z.sample_rate == 4000


# ---------------------------------------------------------------------------


def test_signal_csv_roundtrip_bit_exact(tmp_path, rng):
    g, _ = build_cyclic(8)
    u = random_signal(g, rng)
    p = tmp_path / "u.csv"
    write_csv_signal(p, u)
    v = read_csv_signal(p, g)
    assert np.array_equal(u.values, v.values)
    write_csv_signal(tmp_path / "v.csv", v)
    assert (tmp_path / "u.csv").read_bytes() == (tmp_path / "v.csv").read_bytes()


def test_signal_csv_row_count(tmp_path):
    p = tmp_path / "short.csv"
    p.write_text("0,1,0\n1,2,0\n")
    with pytest.raises(CsvFormatError, match="rows"):
        read_csv_signal(p, build_cyclic(3)[0])


def test_signal_csv_scientific_notation(tmp_path):
    p = tmp_path / "sci.csv"
    p.write_text("0,1e-3,2E+1\n1,-3.5e2,0\n")
    u = read_csv_signal(p, build_cyclic(2)[0])
    assert u.values[0] == pytest.approx(1e-3 + 20j)
    assert u.values[1] == pytest.approx(-350.0)


def test_signal_csv_malformed_number(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0,1,0\n1,oops,0\n")
    with pytest.raises(CsvFormatError, match="line 2"):
        read_csv_signal(p, build_cyclic(2)[0])


def test_tf_csv_roundtrip(tmp_path, rng):
    g, _ = build_cyclic(5)
    u = random_signal(g, rng)
    D = cohen_transform(born_jordan_cyclic_kernel(5), u, u)
    p = tmp_path / "d.csv"
    write_tf_csv(p, D)
    back = read_tf_csv(p, g)
    assert max(np.abs(a - b).max() for a, b in zip(D.blocks, back.blocks)) == 0.0


def test_operator_csv_roundtrip(tmp_path, rng):
    g, _ = build_cyclic(4)
    B = GroupOperator(g, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    p = tmp_path / "op.csv"
    write_operator_csv(p, B)
    assert np.array_equal(read_operator_csv(p, g).kernel, B.kernel)


# The table kinds: the library's signal, tf and operator tables, and a kernel
# table, an irrep-major block layout `xi_index,y_index,row,col,re,im` that no
# command reads or writes.  Its test-side writer and reader below keep the
# table machinery tested on a block layout that leads with the irrep.
TABLES = ["signal", "tf", "operator", "kernel"]


def kernel_index(g, d):
    """Index rows `xi_index,y_index,row,col`: the tf rows with their first two
    fields swapped."""
    return signalio._block_index(g.order, d)[:, [1, 0, 2, 3]]


def write_kernel_table(path, k):
    signalio._write_table(path, kernel_index(k.group, k.dual), np.concatenate([run.ravel() for run in k.phi.runs]))


def read_kernel_table(path, g):
    n, d = g.order, g.dual
    flat = signalio._read_table(path, kernel_index(g, d))
    runs = [flat[n * row:n * (row + (end - first) * dim * dim)].reshape(end - first, n, dim, dim)
            for first, end, dim, row in d.runs]
    return CohenKernel(f"file:{path}", AmbiguityFunction.from_runs(g, d, runs))


def random_table(table, g, d, rng):
    """A random object of one table kind, with its writer and reader."""
    n = g.order

    def blocks():
        return [rng.standard_normal((n, k, k)) + 1j * rng.standard_normal((n, k, k)) for k in d.dims]

    if table == "signal":
        return random_signal(g, rng), write_csv_signal, read_csv_signal
    if table == "tf":
        return TFFunction(g, d, blocks()), write_tf_csv, read_tf_csv
    if table == "operator":
        K = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return GroupOperator(g, K), write_operator_csv, read_operator_csv
    return CohenKernel("random", AmbiguityFunction(g, d, blocks())), write_kernel_table, read_kernel_table


@pytest.mark.parametrize("table,case", [pytest.param(t, c, id=f"{t}-{c}") for t in TABLES for c in corruptions(t)])
@pytest.mark.parametrize("build", [lambda: build_cyclic(4), lambda: build_dihedral(3)],
                         ids=["cyclic:4", "dihedral:3"])
def test_readers_reject_corrupt_tables(tmp_path, rng, build, table, case):
    g, d = build()
    obj, write, read = random_table(table, g, d, rng)
    p = tmp_path / "t.csv"
    write(p, obj)
    read(p, g)
    text, line = corrupt_table(p.read_text(), case)
    p.write_text(text)
    with pytest.raises(CsvFormatError, match=f"line {line}:"):
        read(p, g)


@pytest.mark.parametrize("table", TABLES)
def test_readers_reject_empty_file(tmp_path, rng, table):
    """An empty file is an error of its own, not rows missing after a line 0."""
    g, d = build_dihedral(3)
    _, _, read = random_table(table, g, d, rng)
    p = tmp_path / "t.csv"
    p.write_text("")
    with pytest.raises(CsvFormatError) as err:
        read(p, g)
    assert str(err.value).startswith(f"{p}: empty file")


@pytest.mark.parametrize("table", TABLES)
def test_tables_roundtrip_in_any_row_order(tmp_path, rng, corpus_and_file_group, table):
    """Write, read, write again: the bytes are the same, also when the table
    read has its rows in reverse order."""
    g, d = corpus_and_file_group
    obj, write, read = random_table(table, g, d, rng)
    a, b, r = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "r.csv"
    write(a, obj)
    write(b, read(a, g))
    assert b.read_bytes() == a.read_bytes()
    r.write_text("\n".join(a.read_text().splitlines()[::-1]) + "\n")
    write(b, read(r, g))
    assert b.read_bytes() == a.read_bytes()


def _fmt(v):
    return f"{v:.17g}"


def _join(lines):
    return "\n".join(lines) + "\n"


def _block_rows(blocks, element_first):
    lines = []
    for k, b in enumerate(blocks):
        d = b.shape[1]
        for t in range(b.shape[0]):
            for r in range(d):
                for c in range(d):
                    v = b[t, r, c]
                    a, bb = (t, k) if element_first else (k, t)
                    lines.append(f"{a},{bb},{r},{c},{_fmt(v.real)},{_fmt(v.imag)}")
    return lines


# The table writers as nested loops, one row per f-string: the reference for
# the rows, their order and their digits.
LOOP_WRITERS = {
    "signal": lambda u: _join([f"{i},{_fmt(v.real)},{_fmt(v.imag)}" for i, v in enumerate(u.values)]),
    "tf": lambda a: _join(_block_rows(a.blocks, element_first=True)),
    "operator": lambda B: _join([f"{x},{y},{_fmt(B.kernel[x, y].real)},{_fmt(B.kernel[x, y].imag)}"
                                 for x in range(B.group.order) for y in range(B.group.order)]),
    "kernel": lambda k: _join(_block_rows(k.phi.blocks, element_first=False)),
}


@pytest.mark.parametrize("table", TABLES)
def test_table_writers_match_loops(tmp_path, rng, table):
    obj, write, _ = random_table(table, *build_dihedral(3), rng)
    write(tmp_path / "t.csv", obj)
    assert (tmp_path / "t.csv").read_bytes() == LOOP_WRITERS[table](obj).encode()


def test_grid_writer_matches_loops(tmp_path, rng):
    values = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    values[0, :5] = [-0.0, 5e-324, 1e300, 1 / 3, 2.0]
    grid = ZTFGrid(-3, 4, values)
    write_grid_csv(tmp_path / "g.csv", grid)
    lines = [f"{t},{k},{_fmt(grid.values[k, i].real)},{_fmt(grid.values[k, i].imag)}"
             for i, t in enumerate(grid.times) for k in range(grid.freq_bins)]
    assert (tmp_path / "g.csv").read_bytes() == _join(lines).encode()


def table_index(table, g, d):
    """The index rows of one table kind, as its reader passes them to
    `_read_table`."""
    n = g.order
    return {"signal": signalio._box_index(n),
            "operator": signalio._box_index(n, n),
            "tf": signalio._block_index(n, d),
            "kernel": kernel_index(g, d)}[table]


def read_outcome(read, path, index):
    """The values read, as their bit patterns, or the error message."""
    try:
        return read(path, index).view(np.int64).tolist()
    except CsvFormatError as e:
        return str(e)


# Decimal forms whose conversion is easy to get wrong: signed zero, subnormals,
# the extremes, underflow to zero, halfway cases and long mantissas.
SPECIAL_VALUES = ["-0", "0", "-0.0", "5e-324", "4.9406564584124654e-324", "2.2250738585072009e-308",
                  "1.7976931348623157e308", "1e-400", "-1e-400", "1E5", "7e+2", "0.1000000000000000055511151231257827",
                  "9007199254740993", "123456789012345678901234567890", "2.5e-16", "00012.50"]


def edge_text(case, rows, rng):
    """A table's text with one edge case applied to the lines its writer made.

    Cases that keep the table sound: row order, line endings, blank and
    whitespace-only lines, no final newline, index `-0` or zero-padded to more
    than 20 digits, a header with spaces (the table as written: no table kind
    has a header line any more) and unusual number forms.  Cases that
    break it: indices of 15, 16 and 20 digits, non-finite values, a missing row
    with blank lines after it, and two faults in either order."""
    rows = list(rows)
    if case == "shuffled":
        rows = [rows[i] for i in rng.permutation(len(rows))]
    elif case == "blank-lines":
        for _ in range(4):
            rows.insert(int(rng.integers(0, len(rows) + 1)), str(rng.choice(["", "  ", "\t", " \t "])))
    elif case == "minus-zero-index":
        rows = [",".join(["-0" if f == "0" else f for f in r.split(",")[:-2]] + r.split(",")[-2:]) for r in rows]
    elif case == "padded-index":
        rows = [",".join(["0" * 20 + f for f in r.split(",")[:-2]] + r.split(",")[-2:]) for r in rows]
    elif case == "special-values":
        rows = [",".join(r.split(",")[:-2] + list(rng.choice(SPECIAL_VALUES, 2))) for r in rows]
    elif case in ("fifteen-digit-index", "sixteen-digit-index", "twenty-digit-index"):
        digits = {"fifteen-digit-index": 15, "sixteen-digit-index": 16, "twenty-digit-index": 20}[case]
        j = int(rng.integers(len(rows)))
        rows[j] = ",".join(["1" + "0" * (digits - 1)] + rows[j].split(",")[1:])
    elif case in ("inf", "-inf", "nan"):
        j = int(rng.integers(len(rows)))
        rows[j] = ",".join(rows[j].split(",")[:-2] + ([case, "0"] if rng.integers(2) else ["0", case]))
    elif case == "missing-row-then-blanks":
        rows = rows[:-1] + ["", " "]
    elif case == "duplicate-then-nan":
        rows[1] = rows[0]
        rows[2] = ",".join(rows[2].split(",")[:-1] + ["nan"])
    elif case == "nan-then-duplicate":
        rows[0] = ",".join(rows[0].split(",")[:-1] + ["nan"])
        rows[2] = rows[1]
    if case == "blank-first-line":
        rows = [" "] + rows
    if case == "crlf":
        return "\r\n".join(rows) + "\r\n"
    if case == "no-final-newline":
        return "\n".join(rows)
    return "\n".join(rows) + "\n"


# The edge cases after which a table still reads: the bulk stage alone reads it.
SOUND_CASES = ["as-written", "shuffled", "crlf", "blank-lines", "no-final-newline", "minus-zero-index",
               "padded-index", "header-spaces", "special-values"]
EDGE_CASES = SOUND_CASES + ["fifteen-digit-index", "sixteen-digit-index", "twenty-digit-index", "inf", "-inf",
                            "nan", "missing-row-then-blanks", "duplicate-then-nan", "nan-then-duplicate",
                            "blank-first-line"]


@pytest.mark.parametrize("table,case", [pytest.param(t, c, id=f"{t}-{c}") for t in TABLES
                                        for c in EDGE_CASES + [f"corrupt:{k}" for k in corruptions(t)]])
def test_reader_matches_row_loop_oracle(tmp_path, rng, table, case):
    """On random tables of every kind, with an edge case or a corruption
    applied, the reader returns the oracle's values bit for bit, or raises
    the oracle's message."""
    for g, d in (build_cyclic(4), build_dihedral(3)):
        obj, write, _ = random_table(table, g, d, rng)
        p = tmp_path / "t.csv"
        write(p, obj)
        if case.startswith("corrupt:"):
            text, _ = corrupt_table(p.read_text(), case[len("corrupt:"):])
        else:
            text = edge_text(case, p.read_text().splitlines(), rng)
        p.write_bytes(text.encode())
        index = table_index(table, g, d)
        expect = read_outcome(read_table_row_loop, p, index)
        assert read_outcome(signalio._read_table, p, index) == expect
        if case in SOUND_CASES:
            assert not isinstance(expect, str), expect


@pytest.mark.parametrize("case", SOUND_CASES)
@pytest.mark.parametrize("table", TABLES)
def test_sound_tables_take_the_bulk_stage(tmp_path, rng, monkeypatch, table, case):
    """A table that reads needs no row loop, whatever its row order, line
    endings, blank lines or number forms."""
    def row_loop(*args):
        raise AssertionError("the row loop ran on a sound table")

    monkeypatch.setattr(signalio, "_table_error", row_loop)
    g, d = build_dihedral(3)
    obj, write, read = random_table(table, g, d, rng)
    p = tmp_path / "t.csv"
    write(p, obj)
    p.write_bytes(edge_text(case, p.read_text().splitlines(), rng).encode())
    read(p, g)


def test_reader_keeps_the_sign_of_zero(tmp_path):
    p = tmp_path / "z.csv"
    p.write_text("0,-0,0\n1,0,-0\n2,-0,-0\n")
    values = read_csv_signal(p, build_cyclic(3)[0]).values
    assert np.signbit(values.real).tolist() == [True, False, True]
    assert np.signbit(values.imag).tolist() == [False, True, True]


# ---------------------------------------------------------------------------


def test_pgm_all_zero_midgrey(tmp_path):
    p = tmp_path / "z.pgm"
    render_pgm(np.zeros((3, 4)), ImageSpec("midgrey-zero"), p)
    lines = p.read_text().splitlines()
    assert lines[0] == "P2" and lines[1] == "4 3" and lines[2] == "255"
    assert all(v == "128" for row in lines[3:] for v in row.split())


def test_pgm_white_zero_extremes(tmp_path):
    p = tmp_path / "w.pgm"
    render_pgm(np.array([[0.0, 7.5]]), ImageSpec("white-zero"), p)
    assert p.read_text().splitlines()[3] == "255 0"


def test_pgm_midgrey_symmetric_extremes(tmp_path):
    p = tmp_path / "s.pgm"
    render_pgm(np.array([[2.0, -2.0, 0.0]]), ImageSpec("midgrey-zero"), p)
    # higher values darker: +s -> 0, -s -> 255, 0 -> 128
    assert p.read_text().splitlines()[3] == "0 255 128"


def test_pgm_white_zero_nonpositive(tmp_path):
    p = tmp_path / "n.pgm"
    render_pgm(np.array([[-1.0, 0.0]]), ImageSpec("white-zero"), p)
    assert p.read_text().splitlines()[3] == "255 255"


def test_pgm_gamma(tmp_path):
    p1, p2 = tmp_path / "g1.pgm", tmp_path / "g2.pgm"
    v = np.array([[0.25, 1.0]])
    render_pgm(v, ImageSpec("white-zero", gamma=1.0), p1)
    render_pgm(v, ImageSpec("white-zero", gamma=0.5), p2)
    a = int(p1.read_text().splitlines()[3].split()[0])
    b = int(p2.read_text().splitlines()[3].split()[0])
    assert b < a  # gamma < 1 boosts small values (darker)


def test_pgm_deterministic_bytes(tmp_path, rng):
    v = rng.standard_normal((6, 5))
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    spec = ImageSpec("midgrey-zero")
    render_pgm(v, spec, p1)
    render_pgm(v, spec, p2)
    assert p1.read_bytes() == p2.read_bytes()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=4, max_size=4),
       st.sampled_from(["midgrey-zero", "white-zero"]))
def test_pgm_pixels_in_range(vals, mode):
    import os, tempfile
    v = np.array(vals).reshape(2, 2)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "x.pgm")
        render_pgm(v, ImageSpec(mode), path)
        body = open(path).read().split("\n", 3)[3]
        pix = [int(t) for t in body.split()]
        assert all(0 <= p <= 255 for p in pix)


@pytest.mark.parametrize("mode", ["midgrey-zero", "white-zero"])
@pytest.mark.parametrize("gamma", [1.0, 0.5, 2.0])
def test_pgm_text_matches_per_pixel_format(tmp_path, rng, mode, gamma):
    """The lookup-table text is the text of formatting each pixel with str()."""
    v = rng.standard_normal((17, 23))
    v[0, :4] = [0.0, -0.0, 1e-300, -1e-300]
    p = tmp_path / "a.pgm"
    render_pgm(v, ImageSpec(mode, gamma), p)
    w = np.sign(v) * np.abs(v) ** gamma
    if mode == "midgrey-zero":
        pix = np.rint(127.5 * (1.0 - np.clip(w / np.abs(w).max(), -1.0, 1.0))).astype(int)
    else:
        pix = np.rint(255.0 * (1.0 - np.clip(w / w.max(), 0.0, 1.0))).astype(int)
    body = "\n".join(" ".join(str(x) for x in row) for row in pix)
    assert p.read_bytes() == f"P2\n23 17\n255\n{body}\n".encode()


@pytest.mark.parametrize("gamma", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0, -0.5])
def test_image_spec_refuses_bad_gamma(gamma):
    with pytest.raises(ValueError, match="gamma"):
        ImageSpec("midgrey-zero", gamma)


@pytest.mark.parametrize("values", [[[1.0, np.nan]], [[np.inf, 0.0]], [[1e300, 1.0]]],
                         ids=["nan", "inf", "overflow-after-gamma"])
def test_pgm_refuses_values_not_finite(tmp_path, values):
    p = tmp_path / "x.pgm"
    with pytest.raises(ValueError, match="finite"):
        render_pgm(np.array(values), ImageSpec("midgrey-zero", gamma=2.0), p)
    assert not p.exists()


def test_image_spec_validation():
    with pytest.raises(ValueError, match="mode"):
        ImageSpec("sepia")


# ---------------------------------------------------------------------------


def test_periodize_plain_embedding():
    u = ZSignal(2, [1.0, 2.0, 3.0])
    s = periodize(u, 8)
    assert np.abs(s.values - [0, 0, 1, 2, 3, 0, 0, 0]).max() == 0


def test_periodize_folds():
    u = ZSignal(0, np.concatenate([np.ones(4), 2 * np.ones(4)]))
    s = periodize(u, 4)
    assert np.abs(s.values - 3.0).max() == 0


def test_periodize_negative_offset():
    u = ZSignal(-1, [5.0, 6.0])
    s = periodize(u, 4)
    assert np.abs(s.values - [6, 0, 0, 5]).max() == 0


def test_atomic_write_leaves_no_temp_files(tmp_path, rng):
    g, _ = build_cyclic(4)
    write_csv_signal(tmp_path / "u.csv", Signal(g, np.ones(4)))
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".gtfa-tmp-")]
    assert leftovers == []


def test_atomic_write_honours_umask(tmp_path):
    g, _ = build_cyclic(4)
    old = os.umask(0o027)
    try:
        write_csv_signal(tmp_path / "u.csv", Signal(g, np.ones(4)))
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "u.csv").st_mode) == 0o640


def test_write_tf_csv_holds_one_chunk_of_text(tmp_path, rng, monkeypatch):
    """The text of one chunk of rows is in memory at a time, not the table's,
    and the file is the same whatever the chunk size."""
    import tracemalloc

    g, _ = build_cyclic(128)
    D = cohen_transform(born_jordan_cyclic_kernel(128), *[random_signal(g, rng)] * 2)
    write_tf_csv(tmp_path / "whole.csv", D)  # 16384 rows, one chunk
    monkeypatch.setattr(signalio, "CSV_CHUNK_ROWS", 1000)
    tracemalloc.start()
    try:
        write_tf_csv(tmp_path / "chunked.csv", D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    assert peak < 2 << 20  # the whole table's text takes 4.7 MiB


def test_wav_empty_data_chunk(tmp_path):
    p = tmp_path / "empty.wav"
    p.write_bytes(make_wav([]))
    with pytest.raises(TruncatedFile, match="empty"):
        read_wav_mono16(p)
