import math

import numpy as np
import pytest

from conftest import fresh_python, group_file_text, near_equal_cyclic7
from oracles import phase_retrieve_loop, scalar_runs

from gtfa import reconstruct
from gtfa.groups import build_cyclic, build_dihedral, build_product, load_group_file, plancherel_trace
from gtfa.harmonic import Signal, constant_signal, random_signal
from gtfa.reconstruct import (
    MarginNegative,
    born_jordan_distribution,
    class_distance,
    magnitudes_from_margins,
    phase_retrieve,
    retrieval_report,
    roundtrip_report,
)
from gtfa.tfplane import TFFunction
from gtfa.transforms import born_jordan_cyclic_kernel, cohen_transform, kn_kernel


def zero_free(rng, N):
    g, _ = build_cyclic(N)
    vals = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    vals += 3.0 * np.exp(1j * rng.uniform(0, 2 * np.pi, N))  # push away from 0
    return Signal(g, vals)


def test_magnitudes_of_ones():
    g, _ = build_cyclic(4)
    Q = born_jordan_distribution(constant_signal(g))
    assert np.abs(magnitudes_from_margins(Q) - 1.0).max() < 1e-10


def test_magnitudes_random(rng):
    g, _ = build_cyclic(8)
    u = random_signal(g, rng)
    Q = born_jordan_distribution(u)
    assert np.abs(magnitudes_from_margins(Q) - np.abs(u.values) ** 2).max() < 1e-9
    # the plain sum of the scalar table is the Plancherel trace, bit for bit
    trace = plancherel_trace(Q.dual, Q.runs).sum(axis=0).real
    assert magnitudes_from_margins(Q).tobytes() == np.maximum(trace, 0.0).tobytes()


def test_magnitudes_corrupted_table(rng):
    g, _ = build_cyclic(7)
    Q = born_jordan_distribution(random_signal(g, rng))
    bad = [r.copy() for r in Q.runs]
    for r in bad:
        r[:, 3] -= 2.0
    with pytest.raises(MarginNegative):
        magnitudes_from_margins(TFFunction(Q.group, Q.dual, bad))


def test_phase_retrieve_frozen_example():
    g, _ = build_cyclic(4)
    u = Signal(g, [1, 1j, -1, 1])
    rec = phase_retrieve(born_jordan_distribution(u))
    assert class_distance(u, rec) < 1e-8


def test_phase_retrieve_with_zero_sample(rng):
    g, _ = build_cyclic(8)
    vals = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    vals[5] = 0.0
    rep = roundtrip_report(Signal(g, vals))
    assert rep.distribution_residual < 1e-7


def test_phase_retrieve_global_phase_invariance(rng):
    g, _ = build_cyclic(9)
    u = random_signal(g, rng)
    Q1 = born_jordan_distribution(u)
    Q2 = born_jordan_distribution(Signal(g, np.exp(1.234j) * u.values))
    diff = max(np.abs(a - b).max() for a, b in zip(Q1.blocks, Q2.blocks))
    assert diff < 1e-12
    r1, r2 = phase_retrieve(Q1), phase_retrieve(Q2)
    assert np.abs(r1.values - r2.values).max() < 1e-8


def test_roundtrip_small_sweep(rng):
    for N in range(2, 17):
        for _ in range(5):
            rep = roundtrip_report(zero_free(rng, N))
            assert rep.class_distance < 1e-7, N
            assert rep.islands == 1


def test_roundtrip_n1():
    g, _ = build_cyclic(1)
    rep = roundtrip_report(Signal(g, [2.0 - 1.0j]))
    assert rep.class_distance < 1e-12


def test_roundtrip_all_zero():
    g, _ = build_cyclic(6)
    rep = roundtrip_report(Signal(g, np.zeros(6)))
    assert rep.class_distance == 0.0
    assert rep.islands == 0
    assert np.abs(rep.recovered.values).max() == 0.0


def test_roundtrip_with_scattered_zeros(rng):
    # up to floor(N/4) zeros: distribution residual must still vanish even if
    # islands make the class distance meaningless
    N = 12
    g, _ = build_cyclic(N)
    vals = (rng.standard_normal(N) + 1j * rng.standard_normal(N)
            + 2 * np.exp(1j * rng.uniform(0, 2 * np.pi, N)))
    vals[[2, 7, 8]] = 0.0
    rep = roundtrip_report(Signal(g, vals))
    assert rep.distribution_residual < 1e-7
    assert rep.islands >= 2


@pytest.mark.parametrize("N", [61, 64, 113, 127, 384, 509, 512])
def test_roundtrip_criterion_7_bound_beyond_32(N):
    """Criterion 7's bound on zero-free draws at orders past its sweep: prime,
    power-of-two and composite orders, where errors once compounded."""
    rng = np.random.default_rng(N)
    worst = max(roundtrip_report(zero_free(rng, N)).class_distance for _ in range(5))
    assert worst <= 1e-7


def _sparse_signals(rng):
    """Two spikes at every separation at orders 12, 30 and 64, a few
    separations at 384 and 512, and signals with 3/4 zeros at 384 and 512."""
    def spikes(N, s):
        vals = np.zeros(N, dtype=complex)
        vals[[0, s]] = (1.0 + rng.uniform(size=2)) * np.exp(2j * np.pi * rng.uniform(size=2))
        return vals

    for N in (12, 30, 64):
        for s in range(1, N):
            yield N, spikes(N, s)
    for N in (384, 512):
        for s in (1, 3, 64, 127, 128, 192, N // 2):
            yield N, spikes(N, s)
        for _ in range(3):
            vals = zero_free(rng, N).values
            vals[rng.permutation(N)[:3 * N // 4]] = 0.0
            yield N, vals


def test_roundtrip_sparse_and_heavy_zero_signals(rng):
    """Zeros do not leave phases undetermined: every sample is tied to the pivot."""
    for N, vals in _sparse_signals(rng):
        g, _ = build_cyclic(N)
        rep = roundtrip_report(Signal(g, vals))
        assert rep.class_distance < 1e-7, (N, np.flatnonzero(vals))
        assert rep.distribution_residual < 1e-7, (N, np.flatnonzero(vals))


def test_each_report_builds_the_kernel_once(monkeypatch, rng):
    """retrieval_report and roundtrip_report pass one Born-Jordan kernel to
    the retrieval and the forward transforms; their results are unchanged."""
    g, _ = build_cyclic(24)
    u = random_signal(g, rng)
    Q = born_jordan_distribution(u)
    want = retrieval_report(Q), roundtrip_report(u)
    builds, build = [], reconstruct.born_jordan_cyclic_kernel

    def counted(N):
        builds.append(N)
        return build(N)

    monkeypatch.setattr(reconstruct, "born_jordan_cyclic_kernel", counted)
    got = retrieval_report(Q), roundtrip_report(u)
    assert builds == [24, 24]
    for a, b in zip(got, want):
        assert (a.class_distance, a.distribution_residual) == (b.class_distance, b.distribution_residual)
        assert a.recovered.values.tobytes() == b.recovered.values.tobytes()
    phase_retrieve(Q)
    assert builds == [24, 24]


def _parity_cases():
    """(values, tol_zero): zero-free draws at orders 1..64 and four larger
    orders, every sparse signal, a draw with a third of its samples just
    under tol_zero, and orders 2 and 4, whose lag N/2 has no negative sample."""
    rng = np.random.default_rng(20)
    for N in (*range(1, 65), 127, 384, 509, 512):
        yield pytest.param(zero_free(rng, N).values, 1e-9, id=f"zero-free-{N}")
    for i, (N, vals) in enumerate(_sparse_signals(rng)):
        yield pytest.param(vals, 1e-9, id=f"sparse-{N}-{i}")
    vals = zero_free(rng, 48).values
    vals[::3] *= np.sqrt(0.9e-6) / np.abs(vals[::3])  # |u|^2 just under tol_zero
    yield pytest.param(vals, 1e-6, id="under-tol-zero-48")
    yield pytest.param(np.array([2.0, -1j]), 1e-9, id="half-lag-2")
    yield pytest.param(np.array([1, 1j, -1, 1]), 1e-9, id="half-lag-4")


@pytest.mark.parametrize("vals,tol_zero", _parity_cases())
def test_phase_retrieve_matches_the_lag_by_lag_loop(vals, tol_zero):
    """Each lag's known sum from two strided slices and K's share for all lags
    at once give the same samples as gathering each lag's residues on its own."""
    N = len(vals)
    g, _ = build_cyclic(N)
    k = born_jordan_cyclic_kernel(N)
    Q = born_jordan_distribution(Signal(g, vals))
    got = phase_retrieve(Q, tol_zero).values
    want = phase_retrieve_loop(Q, k, tol_zero).values
    assert np.abs(got - want).max() <= 1e-12 * np.abs(vals).max()
    under = np.abs(vals) ** 2 < tol_zero
    assert (got[under] == 0).all() and (want[under] == 0).all()


def _lag_table_cases():
    """Zero-free draws at orders 1..64 and five larger orders, and every sparse signal."""
    rng = np.random.default_rng(22)
    for N in (*range(1, 65), 127, 384, 509, 512, 2048):
        yield pytest.param(zero_free(rng, N).values, id=f"zero-free-{N}")
    for i, (N, vals) in enumerate(_sparse_signals(rng)):
        yield pytest.param(vals, id=f"sparse-{N}-{i}")


@pytest.mark.parametrize("vals", _lag_table_cases())
def test_lag_table_is_exact_up_to_residue_constants(vals):
    """Over the rows 0..N/2 from the pivot, u(x) u(x-y)^* - K[x, y] is one
    constant per residue of x mod gcd(y, N) at every lag y <= N/2, and the
    constants sum to zero: what the recursion reads, with no oracle."""
    N, h = len(vals), len(vals) // 2
    g, _ = build_cyclic(N)
    z = int(np.abs(vals).argmax())
    K = reconstruct._lag_table(born_jordan_distribution(Signal(g, vals)), z, h)
    x = (np.arange(h + 1) + z) % N
    worst = 0.0
    for y in range(1, h + 1):
        d = vals[x] * vals[(x - y) % N].conj() - K[:, y]
        res = x % math.gcd(y, N)
        const = (np.bincount(res, d.real) + 1j * np.bincount(res, d.imag)) / np.bincount(res)
        worst = max(worst, np.abs(d - const[res]).max(), abs(const.sum()))
    assert worst <= 1e-11 * np.abs(vals).max() ** 2


def test_retrieval_report_at_2048_peaks_under_160_mib():
    """In a fresh process, the retrieval report at cyclic:2048 holds Q[rec]
    beside Q and the kernel, and subtracts Q from it in place: 128 MiB above
    Q (192 MiB while it held the kernel through the retrieval and made
    Q[rec] - Q as a third table)."""
    code = ("import tracemalloc, numpy as np; tracemalloc.start()\n"
            "from gtfa.groups import build_cyclic; from gtfa.harmonic import Signal\n"
            "from gtfa.reconstruct import born_jordan_distribution, retrieval_report\n"
            "g, _ = build_cyclic(2048); r = np.random.default_rng(0)\n"
            "Q = born_jordan_distribution(Signal(g, r.standard_normal(2048) + 3 * np.exp(2j * np.pi * r.uniform(size=2048))))\n"
            "tracemalloc.reset_peak(); base = tracemalloc.get_traced_memory()[0]; retrieval_report(Q)\n"
            "print(tracemalloc.get_traced_memory()[1] - base)")
    assert int(fresh_python(code)) <= 160 << 20


def phase_retrieve_peak_at_2048() -> int:
    """The `tracemalloc` peak above Q, in bytes, of retrieval from a
    cyclic:2048 distribution in a fresh process."""
    code = ("import tracemalloc, numpy as np; tracemalloc.start()\n"
            "from gtfa.groups import build_cyclic; from gtfa.harmonic import Signal\n"
            "from gtfa.reconstruct import born_jordan_distribution, phase_retrieve\n"
            "g, _ = build_cyclic(2048); r = np.random.default_rng(0)\n"
            "Q = born_jordan_distribution(Signal(g, r.standard_normal(2048) + 3 * np.exp(2j * np.pi * r.uniform(size=2048))))\n"
            "tracemalloc.reset_peak(); base = tracemalloc.get_traced_memory()[0]; phase_retrieve(Q)\n"
            "print(tracemalloc.get_traced_memory()[1] - base)")
    return int(fresh_python(code))


def test_phase_retrieve_at_2048_peaks_under_200_mib():
    """Retrieval from a cyclic:2048 distribution holds no kernel (320 MiB
    while it held the kernel, FQ and FQ / phi)."""
    assert phase_retrieve_peak_at_2048() <= 200 << 20


def test_phase_retrieve_at_2048_peaks_under_115_mib():
    """The lag table keeps a copy of rows 0..h of Q's inverse transform in
    eta, so the full inverse is freed before the chain sums: 112 MiB above Q
    (128 MiB while the slice held the whole inverse)."""
    assert phase_retrieve_peak_at_2048() <= 115 << 20


@pytest.mark.parametrize("make", [lambda: build_dihedral(4), lambda: build_product(build_cyclic(2), build_cyclic(4))],
                         ids=["dihedral-4", "c2xc4"])
def test_signals_stay_on_their_group(make, rng):
    """A signal of order 8 off cyclic:8 is refused, not read as one on cyclic:8."""
    u = random_signal(make()[0], rng)
    for call in (born_jordan_distribution, roundtrip_report):
        with pytest.raises(ValueError, match="group mismatch"):
            call(u)


def test_file_group_in_cyclic_order(tmp_path, rng):
    """A file: group in cyclic:8's labelling and character order keeps its
    signals, distributions and retrievals on itself."""
    path = tmp_path / "z8.grp"
    path.write_text(group_file_text(*build_cyclic(8)))
    g, _ = load_group_file(path)
    u = zero_free(rng, 8)
    Q = born_jordan_distribution(Signal(g, u.values))
    assert Q.group is g and Q.dual is g.dual
    assert np.abs(Q.scalar_table() - born_jordan_distribution(u).scalar_table()).max() <= 1e-12
    rep = roundtrip_report(Signal(g, u.values))
    assert rep.recovered.group is g and rep.class_distance <= 1e-12
    assert phase_retrieve(Q).group is g


def test_file_group_with_near_equal_characters(tmp_path, rng):
    """A cyclic:7 file with the characters to 15 significant digits lists
    cyclic:7's dual within ALG_TOL: its distributions and retrievals run on it."""
    _, g = near_equal_cyclic7(tmp_path)
    u = zero_free(rng, 7)
    Q = born_jordan_distribution(Signal(g, u.values))
    assert Q.group is g and np.abs(Q.scalar_table() - born_jordan_distribution(u).scalar_table()).max() <= 1e-12
    rec = phase_retrieve(Q)
    assert rec.group is g and class_distance(Signal(g, u.values), rec) <= 1e-12


def test_phase_retrieve_refuses_other_duals(tmp_path, rng):
    """A distribution on a product of cyclic groups, or on cyclic:5 through a
    file whose dual lists the characters in another order, is refused."""
    from test_cli import permuted_cyclic5

    g, d = build_product(build_cyclic(2), build_cyclic(4))
    u = zero_free(rng, 8)
    with pytest.raises(ValueError, match="dual mismatch"):
        phase_retrieve(cohen_transform(kn_kernel(d), Signal(g, u.values), Signal(g, u.values)))
    _, g = permuted_cyclic5(tmp_path)
    Q = born_jordan_distribution(zero_free(rng, 5)).scalar_table()
    with pytest.raises(ValueError, match="dual mismatch"):
        phase_retrieve(TFFunction(g, g.dual, scalar_runs(Q[[0, 3, 2, 1, 4]])))

@pytest.mark.parametrize("entry", [complex(0, np.nan), complex(np.inf, 0), np.nan],
                         ids=["nan-imag", "inf", "nan-real"])
def test_non_finite_distribution_is_refused(entry):
    """A NaN imaginary part leaves the margins finite, and an infinite entry
    makes the retrieval non-finite: both are refused, not retrieved, from a
    complex Q (u and a copy of u), and a NaN from a float64 Q (u and u)."""
    g, _ = build_cyclic(8)
    u = constant_signal(g)
    real = isinstance(entry, float)
    Q = cohen_transform(born_jordan_cyclic_kernel(8), u, u if real else Signal(g, u.values.copy()))
    assert Q.runs[0].dtype == (np.float64 if real else complex)
    Q.runs[0][3, 5] = entry
    for call in (phase_retrieve, retrieval_report):
        with pytest.raises(ValueError, match="distribution has non-finite entries"):
            call(Q)


@pytest.mark.parametrize("tol_zero", [np.nan, np.inf, -1.0])
def test_bad_tol_zero_is_refused(tol_zero):
    """A NaN tol_zero would zero nothing and an infinite one everything."""
    g, _ = build_cyclic(6)
    u = constant_signal(g)
    Q = born_jordan_distribution(u)
    for call in (phase_retrieve, retrieval_report):
        with pytest.raises(ValueError, match="tol_zero must be finite and >= 0"):
            call(Q, tol_zero)
    with pytest.raises(ValueError, match="tol_zero must be finite and >= 0"):
        roundtrip_report(u, tol_zero)
