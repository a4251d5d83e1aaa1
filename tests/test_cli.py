import struct
from pathlib import Path

import numpy as np
import pytest

from conftest import CORRUPTIONS, corrupt_table
from gtfa.cli import main, parse_group, worker_count, ConfigError
from gtfa.groups import build_cyclic
from gtfa.harmonic import Signal, random_signal
from gtfa.quantization import identity_operator
from gtfa.signalio import (
    read_csv_signal,
    read_tf_csv,
    write_csv_signal,
    write_operator_csv,
    write_tf_csv,
)
from gtfa.tfplane import TFFunction
from gtfa.transforms import born_jordan_cyclic_kernel, cohen_transform

GOLDEN = Path(__file__).parent / "golden"


def write_signal(tmp_path, name, g, values):
    p = tmp_path / name
    write_csv_signal(p, Signal(g, values))
    return str(p)


def test_parse_group_specs():
    assert parse_group("cyclic:6").order == 6
    assert parse_group("dihedral:4").order == 8
    assert parse_group("product:cyclic:2xdihedral:3").order == 12
    assert parse_group("product:cyclic:2xcyclic:3").order == 6
    for bad in ("cyclic:0", "cyclic:x", "ring:4", "product:cyclic:2", "dihedral:1"):
        with pytest.raises(ConfigError):
            parse_group(bad)


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("GTFA_THREADS", "2")
    assert worker_count() == 2
    monkeypatch.setenv("GTFA_THREADS", "0")
    assert worker_count() >= 1
    monkeypatch.setenv("GTFA_THREADS", "many")
    with pytest.raises(ConfigError):
        worker_count()


def test_transform_writes_csv_and_pgm(tmp_path, rng):
    g, _ = build_cyclic(8)
    u = random_signal(g, rng)
    up = write_signal(tmp_path, "u.csv", g, u.values)
    out = str(tmp_path / "q.csv")
    rc = main(["transform", "--group", "cyclic:8", "--kernel", "born-jordan",
               "--in", up, "--out", out, "--pgm", "midgrey"])
    assert rc == 0
    D = read_tf_csv(out, g)
    expect = cohen_transform(born_jordan_cyclic_kernel(8), u, u)
    assert max(np.abs(a - b).max() for a, b in zip(D.blocks, expect.blocks)) < 1e-15
    assert (tmp_path / "q.pgm").exists()


def test_transform_second_signal(tmp_path, rng):
    g, _ = build_cyclic(6)
    u, v = random_signal(g, rng), random_signal(g, rng)
    up = write_signal(tmp_path, "u.csv", g, u.values)
    vp = write_signal(tmp_path, "v.csv", g, v.values)
    out = str(tmp_path / "d.csv")
    rc = main(["transform", "--group", "cyclic:6", "--kernel", "kn",
               "--in", up, "--second", vp, "--out", out])
    assert rc == 0
    D = read_tf_csv(out, g)
    from gtfa.transforms import rihaczek
    expect = rihaczek(u, v)
    assert max(np.abs(a - b).max() for a, b in zip(D.blocks, expect.blocks)) < 1e-12


def test_transform_golden_pgm(tmp_path):
    out = str(tmp_path / "q.csv")
    pgm = str(tmp_path / "q.pgm")
    rc = main(["transform", "--group", "cyclic:8", "--kernel", "born-jordan",
               "--in", str(GOLDEN / "bj8_input.csv"), "--out", out,
               "--pgm", "midgrey", "--pgm-out", pgm])
    assert rc == 0
    assert Path(pgm).read_bytes() == (GOLDEN / "bj8_midgrey.pgm").read_bytes()


def test_transform_bad_kernel_name(tmp_path, rng):
    g, _ = build_cyclic(4)
    up = write_signal(tmp_path, "u.csv", g, np.ones(4))
    rc = main(["transform", "--group", "cyclic:4", "--kernel", "wavelet",
               "--in", up, "--out", str(tmp_path / "o.csv")])
    assert rc == 2


def test_unknown_flag_is_usage_error(capsys):
    rc = main(["verify", "--group", "cyclic:4", "--kernel", "kn", "--frobnicate"])
    assert rc == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "transform" in out and "figures" in out


def test_verify_require_subsets(capsys):
    rc = main(["verify", "--group", "cyclic:5", "--kernel", "kn",
               "--require", "normalized,unitary,time-margins,freq-margins,inner"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PROPERTY normalized HOLDS" in out
    rc = main(["verify", "--group", "cyclic:5", "--kernel", "kn", "--require", "positive"])
    assert rc == 1


def test_verify_spectrogram_window_file(tmp_path, capsys):
    g, _ = build_cyclic(16)
    from gtfa.transforms import gaussian_window
    w = gaussian_window(g, 2.0)
    wp = write_signal(tmp_path, "w.csv", g, w.values)
    rc = main(["verify", "--group", "cyclic:16", "--kernel", f"spectrogram:{wp}",
               "--require", "positive,normalized"])
    assert rc == 0


def test_verify_csv_report(tmp_path):
    csvp = str(tmp_path / "rep.csv")
    rc = main(["verify", "--group", "cyclic:4", "--kernel", "kn", "--csv", csvp])
    assert rc == 0
    lines = Path(csvp).read_text().splitlines()
    assert lines[0] == "name,holds,max_violation,witnesses,cross_check"
    assert len(lines) == 10


def test_quantize_dequantize_roundtrip(tmp_path, rng):
    g, d = build_cyclic(7)
    table = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    a = TFFunction.from_scalar_table(g, d, table)
    ap = str(tmp_path / "a.csv")
    write_tf_csv(ap, a)
    op = str(tmp_path / "op.csv")
    rc = main(["quantize", "--group", "cyclic:7", "--kernel", "born-jordan",
               "--symbol", ap, "--out", op])
    assert rc == 0
    back = str(tmp_path / "back.csv")
    rc = main(["dequantize", "--group", "cyclic:7", "--kernel", "born-jordan",
               "--operator", op, "--out", back])
    assert rc == 0
    b = read_tf_csv(back, g)
    assert max(np.abs(x - y).max() for x, y in zip(a.blocks, b.blocks)) < 1e-8


def test_dequantize_composite_exit3(tmp_path, capsys):
    g, _ = build_cyclic(6)
    op = str(tmp_path / "id.csv")
    write_operator_csv(op, identity_operator(g))
    rc = main(["dequantize", "--group", "cyclic:6", "--kernel", "born-jordan",
               "--operator", op, "--out", str(tmp_path / "o.csv")])
    assert rc == 3
    assert "singular" in capsys.readouterr().err


@pytest.mark.parametrize("case", CORRUPTIONS)
@pytest.mark.parametrize("command", ["transform", "quantize", "dequantize"])
def test_corrupt_input_tables_exit2(tmp_path, rng, capsys, command, case):
    g, d = build_cyclic(4)
    u = random_signal(g, rng)
    p = tmp_path / "in.csv"
    if command == "transform":
        flag = "--in"
        write_csv_signal(p, u)
    elif command == "quantize":
        flag = "--symbol"
        write_tf_csv(p, cohen_transform(born_jordan_cyclic_kernel(4), u, u))
    else:
        flag = "--operator"
        write_operator_csv(p, identity_operator(g))
    text, line = corrupt_table(p.read_text(), case)
    p.write_text(text)
    rc = main([command, "--group", "cyclic:4", "--kernel", "kn", flag, str(p),
               "--out", str(tmp_path / "out.csv")])
    assert rc == 2
    assert f"line {line}:" in capsys.readouterr().err


def test_reconstruct_roundtrip(tmp_path, rng):
    g, _ = build_cyclic(16)
    u = Signal(g, rng.standard_normal(16) + 1j * rng.standard_normal(16)
               + 2 * np.exp(1j * rng.uniform(0, 2 * np.pi, 16)))
    Q = cohen_transform(born_jordan_cyclic_kernel(16), u, u)
    qp = str(tmp_path / "q.csv")
    write_tf_csv(qp, Q)
    rp = str(tmp_path / "rec.csv")
    rep = str(tmp_path / "rep.txt")
    rc = main(["reconstruct", "--group", "cyclic:16", "--in", qp, "--out", rp,
               "--report", rep])
    assert rc == 0
    rec = read_csv_signal(rp, g)
    ip = np.vdot(rec.values, u.values)
    lam = ip / abs(ip)
    assert np.sqrt((np.abs(u.values - lam * rec.values) ** 2).mean()) < 1e-7
    text = Path(rep).read_text()
    assert "islands 1" in text and "all_zero 0" in text


def test_reconstruct_all_zero(tmp_path, capsys):
    g, _ = build_cyclic(6)
    Q = cohen_transform(born_jordan_cyclic_kernel(6), Signal(g, np.zeros(6)),
                        Signal(g, np.zeros(6)))
    qp = str(tmp_path / "q.csv")
    write_tf_csv(qp, Q)
    rc = main(["reconstruct", "--group", "cyclic:6", "--in", qp,
               "--out", str(tmp_path / "r.csv")])
    assert rc == 0
    assert "all_zero 1" in capsys.readouterr().out


def test_reconstruct_corrupted_margins_exit3(tmp_path, rng, capsys):
    g, _ = build_cyclic(8)
    u = random_signal(g, rng)
    Q = cohen_transform(born_jordan_cyclic_kernel(8), u, u)
    bad = TFFunction(Q.group, Q.dual, [b - 2.0 for b in Q.blocks])
    qp = str(tmp_path / "q.csv")
    write_tf_csv(qp, bad)
    rc = main(["reconstruct", "--group", "cyclic:8", "--in", qp,
               "--out", str(tmp_path / "r.csv")])
    assert rc == 3
    assert "margin" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------


def chirp_wav(tmp_path, N=256, f0=10, f1=96, rate=4000):
    t = np.arange(N)
    phase = 2 * np.pi * (f0 * t + (f1 - f0) * t**2 / (2 * N)) / N
    x = (0.8 * np.cos(phase) * 32767).astype("<i2")
    data = x.tobytes()
    hdr = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    hdr += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, 2 * rate, 2, 16)
    hdr += b"data" + struct.pack("<I", len(data))
    p = tmp_path / "chirp.wav"
    p.write_bytes(hdr + data)
    return str(p)


def read_pgm(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "P2"
    w, h = map(int, lines[1].split())
    pix = np.array([[int(v) for v in row.split()] for row in lines[3 : 3 + h]])
    assert pix.shape == (h, w)
    return pix


def test_figures_pipeline(tmp_path):
    wav = chirp_wav(tmp_path)
    out1, out2 = tmp_path / "f1", tmp_path / "f2"
    assert main(["figures", "--wav", wav, "--outdir", str(out1)]) == 0
    assert main(["figures", "--wav", wav, "--outdir", str(out2)]) == 0
    names = ["waveform.csv", "born_jordan_z.pgm", "born_jordan_cyclic.pgm",
             "spectrogram.pgm"]
    for n in names:
        assert (out1 / n).read_bytes() == (out2 / n).read_bytes(), n

    # spectrogram ridge follows the chirp within one bin (away from the wrap)
    pix = read_pgm(out1 / "spectrogram.pgm")
    N = 256
    ridge = pix.argmin(axis=0)
    ridge = np.minimum(ridge, N - ridge)
    expect = 10 + (96 - 10) * np.arange(N) / N
    err = np.abs(ridge - expect)[48:208]
    assert err.max() <= 1.0


def test_figures_missing_wav(tmp_path):
    rc = main(["figures", "--wav", str(tmp_path / "none.wav"), "--outdir", str(tmp_path)])
    assert rc == 2


def test_figures_respects_thread_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("GTFA_THREADS", "1")
    wav = chirp_wav(tmp_path, N=64, f0=4, f1=20)
    assert main(["figures", "--wav", wav, "--outdir", str(tmp_path / "o")]) == 0


def test_custom_group_file_through_cli(tmp_path, rng):
    from conftest import group_file_text
    from gtfa.groups import build_dihedral

    g, d = build_dihedral(3)
    gf = tmp_path / "d3.grp"
    gf.write_text(group_file_text(g, d))
    spec = f"file:{gf}"
    loaded = parse_group(spec)
    assert loaded.order == 6
    up = write_signal(tmp_path, "u.csv", loaded, random_signal(loaded, rng).values)
    out = str(tmp_path / "q.csv")
    rc = main(["transform", "--group", spec, "--kernel", "kn", "--in", up, "--out", out])
    assert rc == 0
    rc = main(["verify", "--group", spec, "--kernel", "kn",
               "--require", "normalized,unitary,inner"])
    assert rc == 0


def test_group_file_invalid_through_cli(tmp_path):
    gf = tmp_path / "bad.grp"
    gf.write_text("group 2\nidentity 0\n0 1\n1 1\nirreps 1\ndim 1\n1 0\n1 0\n")
    rc = main(["verify", "--group", f"file:{gf}", "--kernel", "kn"])
    assert rc == 2


def test_figures_grid_csv(tmp_path):
    wav = chirp_wav(tmp_path, N=32, f0=2, f1=9)
    out = tmp_path / "g"
    assert main(["figures", "--wav", wav, "--outdir", str(out), "--grid-csv"]) == 0
    rows = (out / "born_jordan_z.csv").read_text().splitlines()
    assert len(rows) == 32 * 32
    assert all(len(r.split(",")) == 4 for r in rows[:5])


def test_verify_csv_deterministic(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["verify", "--group", "cyclic:6", "--kernel", "born-jordan", "--csv", a]) == 0
    assert main(["verify", "--group", "cyclic:6", "--kernel", "born-jordan", "--csv", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()
