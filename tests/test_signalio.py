import os
import stat
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORRUPTIONS, corrupt_table
from gtfa.groups import build_cyclic, build_dihedral
from gtfa.harmonic import Signal, random_signal
from gtfa.limits import ZSignal
from gtfa.quantization import GroupOperator
from gtfa.signalio import (
    CsvFormatError,
    ImageSpec,
    TruncatedFile,
    UnsupportedFormat,
    periodize,
    read_csv_signal,
    read_kernel_csv,
    read_operator_csv,
    read_tf_csv,
    read_wav_mono16,
    render_pgm,
    write_csv_signal,
    write_csv_matrix,
    write_kernel_csv,
    write_operator_csv,
    write_tf_csv,
)
from gtfa.transforms import born_jordan_cyclic_kernel, cohen_transform, kn_kernel


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


def test_kernel_csv_roundtrip_and_header(tmp_path):
    k = born_jordan_cyclic_kernel(6)
    p = tmp_path / "k.csv"
    write_kernel_csv(p, k)
    assert p.read_text().splitlines()[0] == "xi_index,y_index,row,col,re,im"
    back = read_kernel_csv(p, k.group)
    assert max(np.abs(a - b).max() for a, b in zip(k.phi.blocks, back.phi.blocks)) == 0.0


def test_kernel_csv_missing_header(tmp_path):
    p = tmp_path / "nohdr.csv"
    p.write_text("0,0,0,0,1,0\n")
    with pytest.raises(CsvFormatError, match="header"):
        read_kernel_csv(p, build_cyclic(2)[0])


@pytest.mark.parametrize("case", CORRUPTIONS)
@pytest.mark.parametrize("table", ["signal", "tf", "operator", "kernel"])
@pytest.mark.parametrize("build", [lambda: build_cyclic(4), lambda: build_dihedral(3)],
                         ids=["cyclic:4", "dihedral:3"])
def test_readers_reject_corrupt_tables(tmp_path, rng, build, table, case):
    g, d = build()
    u = random_signal(g, rng)
    kn = kn_kernel(d)
    write, read, header = {
        "signal": (lambda p: write_csv_signal(p, u), read_csv_signal, 0),
        "tf": (lambda p: write_tf_csv(p, cohen_transform(kn, u, u)), read_tf_csv, 0),
        "operator": (lambda p: write_operator_csv(p, GroupOperator(g, np.outer(u.values, u.values))),
                     read_operator_csv, 0),
        "kernel": (lambda p: write_kernel_csv(p, kn), read_kernel_csv, 1),
    }[table]
    p = tmp_path / "t.csv"
    write(p)
    read(p, g)
    text, line = corrupt_table(p.read_text(), case, header)
    p.write_text(text)
    with pytest.raises(CsvFormatError, match=f"line {line}:"):
        read(p, g)


def test_write_csv_matrix_format(tmp_path):
    p = tmp_path / "m.csv"
    write_csv_matrix(p, [[1.0, 0.5], [1 / 3, 2e-17]])
    text = p.read_text()
    assert text.endswith("\n") and "\r" not in text
    assert "0.33333333333333331" in text


# ---------------------------------------------------------------------------


def test_pgm_all_zero_midgrey(tmp_path):
    p = tmp_path / "z.pgm"
    render_pgm(np.zeros((3, 4)), ImageSpec("midgrey-zero", 4, 3), p)
    lines = p.read_text().splitlines()
    assert lines[0] == "P2" and lines[1] == "4 3" and lines[2] == "255"
    assert all(v == "128" for row in lines[3:] for v in row.split())


def test_pgm_white_zero_extremes(tmp_path):
    p = tmp_path / "w.pgm"
    render_pgm(np.array([[0.0, 7.5]]), ImageSpec("white-zero", 2, 1), p)
    assert p.read_text().splitlines()[3] == "255 0"


def test_pgm_midgrey_symmetric_extremes(tmp_path):
    p = tmp_path / "s.pgm"
    render_pgm(np.array([[2.0, -2.0, 0.0]]), ImageSpec("midgrey-zero", 3, 1), p)
    # higher values darker: +s -> 0, -s -> 255, 0 -> 128
    assert p.read_text().splitlines()[3] == "0 255 128"


def test_pgm_white_zero_nonpositive(tmp_path):
    p = tmp_path / "n.pgm"
    render_pgm(np.array([[-1.0, 0.0]]), ImageSpec("white-zero", 2, 1), p)
    assert p.read_text().splitlines()[3] == "255 255"


def test_pgm_gamma(tmp_path):
    p1, p2 = tmp_path / "g1.pgm", tmp_path / "g2.pgm"
    v = np.array([[0.25, 1.0]])
    render_pgm(v, ImageSpec("white-zero", 2, 1, gamma=1.0), p1)
    render_pgm(v, ImageSpec("white-zero", 2, 1, gamma=0.5), p2)
    a = int(p1.read_text().splitlines()[3].split()[0])
    b = int(p2.read_text().splitlines()[3].split()[0])
    assert b < a  # gamma < 1 boosts small values (darker)


def test_pgm_deterministic_bytes(tmp_path, rng):
    v = rng.standard_normal((6, 5))
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    spec = ImageSpec("midgrey-zero", 5, 6)
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
        render_pgm(v, ImageSpec(mode, 2, 2), path)
        body = open(path).read().split("\n", 3)[3]
        pix = [int(t) for t in body.split()]
        assert all(0 <= p <= 255 for p in pix)


def test_image_spec_validation():
    with pytest.raises(ValueError, match="mode"):
        ImageSpec("sepia", 1, 1)
    with pytest.raises(ValueError, match="dimensions"):
        ImageSpec("white-zero", 0, 1)


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


def test_wav_empty_data_chunk(tmp_path):
    p = tmp_path / "empty.wav"
    p.write_bytes(make_wav([]))
    with pytest.raises(TruncatedFile, match="empty"):
        read_wav_mono16(p)
