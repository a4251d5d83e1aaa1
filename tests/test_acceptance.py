"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines with the measured worst-case values.
"""

import struct
import time
from pathlib import Path

import numpy as np
import pytest

from gtfa.cli import main
from gtfa.groups import build_cyclic, build_dihedral, build_product
from gtfa.harmonic import (
    Signal,
    fourier,
    haar_inner,
    inverse_fourier,
    norm,
    plancherel_inner,
    random_signal,
)
from gtfa.limits import ZSignal, cyclic_vs_z_comparison, phi_DZ, varphi_DZ
from gtfa.properties import (
    check_frequency_margins,
    check_normalized,
    check_onb_resolution,
    check_positive,
    check_symmetric,
    check_time_margins,
    check_unitary,
    check_inner_invariant,
)
from gtfa.quantization import SingularKernel, dequantize, null_symbol_witness, quantize
from gtfa.reconstruct import born_jordan_distribution, roundtrip_report
from gtfa.tfplane import tf_inner, tf_norm
from gtfa.transforms import (
    anti_kn_kernel,
    born_jordan_cyclic_kernel,
    cohen_transform,
    commutator_kernel,
    gaussian_window,
    kn_kernel,
    margin_fix_kernel,
    rihaczek,
    spectrogram_kernel,
    wigner_kernel_odd_cyclic,
)
from oracles import born_jordan_phi, cohen_transform_direct
from test_transforms import bj_position_pair

SEED = 0xACCE97


def corpus():
    gs = [build_cyclic(N) for N in (2, 3, 4, 8, 16, 32)]
    gs += [build_dihedral(3), build_dihedral(4)]
    gs += [build_product(build_cyclic(2), build_dihedral(3))]
    return gs


def report(crit, value, budget=None):
    extra = f" runtime={budget:.2f}s" if budget is not None else ""
    print(f"ACCEPTANCE {crit} PASS worst={value:.3g}{extra}")


def test_criterion_1_plancherel_and_inversion():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for g, d in corpus():
        for _ in range(100):
            u, v = random_signal(g, rng), random_signal(g, rng)
            worst = max(worst, abs(haar_inner(u, v) - plancherel_inner(fourier(u), fourier(v))))
            worst = max(worst, np.abs(inverse_fourier(fourier(u)).values - u.values).max())
    elapsed = time.monotonic() - t0
    assert worst <= 1e-10
    assert elapsed < 5.0
    report(1, worst, elapsed)


def test_criterion_2_rihaczek_isometry_and_moyal():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for g, d in corpus():
        for _ in range(100):
            u, v = random_signal(g, rng), random_signal(g, rng)
            worst = max(worst, abs(tf_norm(rihaczek(u, v)) - norm(u) * norm(v)))
        for _ in range(20):
            u, v, f, h = (random_signal(g, rng) for _ in range(4))
            moyal = tf_inner(rihaczek(u, v), rihaczek(f, h)) \
                - haar_inner(u, f) * np.conj(haar_inner(v, h))
            worst = max(worst, abs(moyal))
    assert worst <= 1e-10
    report(2, worst)


def library_for(g, d):
    ks = [kn_kernel(d), anti_kn_kernel(d), margin_fix_kernel(d),
          spectrogram_kernel(gaussian_window(g, max(g.order / 8.0, 1.0)))]
    if np.array_equal(g.cayley, build_cyclic(g.order)[0].cayley):
        ks.append(born_jordan_cyclic_kernel(g.order))
        f, gs = bj_position_pair(g.order)
        ks.append(commutator_kernel(f, gs))
        if g.order % 2 == 1:
            ks.append(wigner_kernel_odd_cyclic(g.order))
    return ks


def test_criterion_3_two_route_oracle():
    rng = np.random.default_rng(SEED)
    groups = [build_cyclic(5), build_cyclic(7), build_cyclic(8),
              build_dihedral(3), build_dihedral(4)]
    worst = 0.0
    for g, d in groups:
        for k in library_for(g, d):
            u, v = random_signal(g, rng), random_signal(g, rng)
            fast = cohen_transform(k, u, v)
            slow = cohen_transform_direct(k, u, v)
            diff = max(np.abs(a - b).max() for a, b in zip(fast.blocks, slow.blocks))
            worst = max(worst, diff)
    assert worst <= 1e-9
    report(3, worst)


def test_criterion_4_theorem_condition_matrix():
    def row(k):
        return {
            "normalized": check_normalized(k, verify=False).holds,
            "time-margins": check_time_margins(k, verify=False).holds,
            "freq-margins": check_frequency_margins(k, verify=False).holds,
            "symmetric": check_symmetric(k, verify=False).holds,
            "positive": check_positive(k, verify=False).holds,
            "unitary": check_unitary(k, verify=False).holds,
            "inner": check_inner_invariant(k, verify=False).holds,
        }

    failures = []

    def expect(label, got, want):
        for name, val in want.items():
            if got[name] != val:
                failures.append(f"{label}/{name}: got {got[name]}, want {val}")

    for _, d in (build_cyclic(8), build_dihedral(3)):
        expect("kn", row(kn_kernel(d)), {
            "normalized": True, "time-margins": True, "freq-margins": True,
            "symmetric": False, "positive": False, "unitary": True, "inner": True,
        })
        expect("anti-kn", row(anti_kn_kernel(d)), {
            "unitary": True, "freq-margins": True,
        })
    for N in list(range(2, 17)) + [64]:
        expect(f"born-jordan:{N}", row(born_jordan_cyclic_kernel(N)), {
            "normalized": True, "time-margins": True, "freq-margins": True,
            "symmetric": True, "unitary": False,
        })
    g16, _ = build_cyclic(16)
    spec = spectrogram_kernel(gaussian_window(g16, 2.0))
    expect("spectrogram", row(spec), {
        "normalized": True, "positive": True,
        "time-margins": False, "freq-margins": False,
    })
    expect("wigner-odd:5", row(wigner_kernel_odd_cyclic(5)), {
        "symmetric": True, "unitary": True,
        "time-margins": True, "freq-margins": True,
    })
    assert not failures, failures
    report(4, 0.0)


def test_criterion_5_born_jordan_bound():
    worst = 0.0
    prev = np.inf
    for N in range(2, 65):
        tab = born_jordan_cyclic_kernel(N).phi.scalar_table()
        got = np.abs(tab).max()
        expect = (2 * np.pi / N) / abs(1 - np.exp(2j * np.pi / N))
        worst = max(worst, abs(got - expect))
        assert abs(got - expect) <= 1e-12
        assert got <= np.pi / 2 + 1e-15
        assert got < prev
        prev = got
    assert prev > 1.0  # decreasing towards the limit 1, never below
    report(5, worst)


def test_criterion_6_quantization_dichotomy():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for N in (2, 3, 5, 7, 11, 13):
        g, d = build_cyclic(N)
        k = born_jordan_cyclic_kernel(N)
        from gtfa.quantization import GroupOperator
        B = GroupOperator(g, rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
        b = dequantize(k, B)
        worst = max(worst, float(np.abs(quantize(k, b).kernel - B.kernel).max()))
        assert null_symbol_witness(k) is None
    assert worst <= 1e-8
    wit_worst = 0.0
    for N in (4, 6, 8, 9, 12):
        g, d = build_cyclic(N)
        k = born_jordan_cyclic_kernel(N)
        from gtfa.quantization import identity_operator
        with pytest.raises(SingularKernel):
            dequantize(k, identity_operator(g))
        wit = null_symbol_witness(k)
        assert wit is not None
        assert max(np.abs(b).max() for b in wit.blocks) > 1e-6
        wit_worst = max(wit_worst, quantize(k, wit).op_norm())
    elapsed = time.monotonic() - t0
    assert wit_worst <= 1e-10
    assert elapsed < 10.0
    report(6, max(worst, wit_worst), elapsed)


def test_criterion_7_phase_retrieval():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for N in range(2, 33):
        g, _ = build_cyclic(N)
        for _ in range(200):
            vals = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            vals += 3.0 * np.exp(1j * rng.uniform(0, 2 * np.pi, N))  # zero-free
            rep = roundtrip_report(Signal(g, vals))
            worst = max(worst, rep.class_distance)
    # global-phase invariance
    g, _ = build_cyclic(17)
    u = random_signal(g, rng)
    Q1 = born_jordan_distribution(u)
    Q2 = born_jordan_distribution(Signal(g, np.exp(0.4j) * u.values))
    phase_inv = max(np.abs(a - b).max() for a, b in zip(Q1.blocks, Q2.blocks))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-7
    assert phase_inv <= 1e-12
    assert elapsed < 30.0
    report(7, worst, elapsed)


def test_criterion_8_limits_consistency():
    # sampled cyclic kernel vs integer-side kernel at N = 1024
    N = 1024
    worst_a = 0.0
    for xi in (0.0625, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.9375):
        for y in (-3, -2, -1, 1, 2, 3):
            worst_a = max(worst_a, abs(born_jordan_phi(N, round(xi * N), y) - phi_DZ(xi, y)))
    assert worst_a <= 0.01

    # sampled transform of the time-lag window reproduces the kernel
    worst_b = 0.0
    M = 64
    for y in (1, 2, 3, -4, 7):
        for k in range(M):
            xi = k / M
            direct = sum(varphi_DZ(x, y) * np.exp(-2j * np.pi * xi * x)
                         for x in range(-10, 11))
            worst_b = max(worst_b, abs(direct - phi_DZ(xi, y)))
    assert worst_b <= 1e-9

    # cyclic computation vs the nonperiodic distribution, central third
    rng = np.random.default_rng(SEED)
    worst_c = 0.0
    signals = [
        ZSignal(0, [1.0]),                                        # spike
        ZSignal(0, [1.0, 0.0, 0.0, 0.0, 1.0]),                    # spike pair
        ZSignal(0, np.exp(2j * np.pi * (0.05 * np.arange(8) + 0.02 * np.arange(8) ** 2))),
    ]
    for sig in signals:
        rep = cyclic_vs_z_comparison(sig, 3 * len(sig) + len(sig) % 2)
        worst_c = max(worst_c, rep.residual)
    assert worst_c <= 1e-6
    print(f"ACCEPTANCE 8 PASS kernel_limit={worst_a:.3g} "
          f"lag_transform={worst_b:.3g} cyclic_vs_z={worst_c:.3g}")


def test_criterion_9_onb_resolution():
    worst = 0.0
    for g, d in (build_cyclic(4), build_cyclic(5), build_dihedral(3)):
        rep = check_onb_resolution(kn_kernel(d))
        assert rep.holds and rep.max_violation <= 1e-8
        worst = max(worst, rep.max_violation)
    report(9, worst)


def _chirp_wav(path, N=256, f0=10, f1=96):
    t = np.arange(N)
    phase = 2 * np.pi * (f0 * t + (f1 - f0) * t**2 / (2 * N)) / N
    x = (0.8 * np.cos(phase) * 32767).astype("<i2")
    data = x.tobytes()
    hdr = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    hdr += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 4000, 8000, 2, 16)
    hdr += b"data" + struct.pack("<I", len(data))
    Path(path).write_bytes(hdr + data)


def test_criterion_10_figure_pipeline(tmp_path):
    wav = tmp_path / "chirp.wav"
    _chirp_wav(wav)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["figures", "--wav", str(wav), "--outdir", str(out1)]) == 0
    assert main(["figures", "--wav", str(wav), "--outdir", str(out2)]) == 0
    names = ["waveform.csv", "born_jordan_z.pgm", "born_jordan_cyclic.pgm",
             "spectrogram.pgm"]
    for n in names:
        assert (out1 / n).read_bytes() == (out2 / n).read_bytes(), n

    lines = (out1 / "spectrogram.pgm").read_text().splitlines()
    assert lines[0] == "P2"
    w, h = map(int, lines[1].split())
    pix = np.array([[int(v) for v in row.split()] for row in lines[3 : 3 + h]])
    N = 256
    ridge = pix.argmin(axis=0)
    ridge = np.minimum(ridge, N - ridge)
    expect = 10 + (96 - 10) * np.arange(N) / N
    err = np.abs(ridge - expect)[48:208]
    assert err.max() <= 1.0
    report(10, float(err.max()))
