import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtfa.limits import (
    ZSignal,
    _lag_blocks,
    cyclic_vs_z_comparison,
    phi_DT,
    phi_DZ,
    q_z_distribution,
    sampled_z_kernel,
    varphi_DZ,
)
from conftest import check_lag_form_against_phi
from oracles import born_jordan_phi, lag_rows_roll, q_z_distribution_dense, sampled_z_kernel_loop


def test_phi_DT_frozen_value():
    assert phi_DT(2, 0.25) == pytest.approx(0.5 * (1j - 1))


def test_phi_DT_branches():
    for xi in (-5, -1, 1, 3, 9):
        assert phi_DT(xi, 0.0) == pytest.approx(1.0)
    for y in (0.0, 0.3, 0.9):
        assert phi_DT(0, y) == 0.0


def test_phi_DZ_branches():
    assert phi_DZ(0.37, 0) == 0.0
    for y in (-4, -1, 1, 2, 9):
        assert phi_DZ(0.0, y) == pytest.approx(1.0)


def test_varphi_DZ_window():
    assert varphi_DZ(0, 3) == pytest.approx(1 / 3)
    assert varphi_DZ(-2, 3) == pytest.approx(1 / 3)
    assert varphi_DZ(5, 3) == 0.0
    assert varphi_DZ(1, -2) == pytest.approx(1 / 2)
    assert varphi_DZ(-1, -2) == 0.0
    assert varphi_DZ(0, 0) == 0.0


def _phi_DZ_quotient(xi, y):
    return (1 - cmath.exp(2j * cmath.pi * xi * y)) / (1 - cmath.exp(2j * cmath.pi * xi)) / y


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.001, max_value=0.999),
       st.integers(min_value=-12, max_value=12).filter(lambda y: y != 0))
def test_phi_DZ_geometric_equals_quotient(xi, y):
    den = abs(1 - cmath.exp(2j * cmath.pi * xi)) * abs(y)
    if den > 1e-6:
        assert abs(phi_DZ(xi, y) - _phi_DZ_quotient(xi, y)) <= 1e-10 / min(den, 1.0)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-40, max_value=40),
       st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_phi_DT_bounded_by_one(xi, y):
    assert abs(phi_DT(xi, y)) <= 1.0 + 1e-12


def test_varphi_transform_matches_phi():
    M = 64
    for y in (1, 2, 3, -4, 7):
        for k in range(M):
            xi = k / M
            direct = sum(
                varphi_DZ(x, y) * cmath.exp(-2j * cmath.pi * xi * x)
                for x in range(-10, 11)
            )
            assert abs(direct - phi_DZ(xi, y)) < 1e-9


def test_cyclic_kernel_limit_at_1024():
    # difference decays like pi |y| / N, so the 0.01 budget at N = 1024
    # covers the fixed small lags the limit statement is about
    N = 1024
    for xi in (0.0625, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.9375):
        for y in (-3, -2, -1, 1, 2, 3):
            got = born_jordan_phi(N, round(xi * N), y)
            assert abs(got - phi_DZ(xi, y)) <= 0.01


def test_qz_spike():
    grid = q_z_distribution(ZSignal(0, [1.0]), 8)
    assert grid.values.shape == (8, 1)
    assert np.abs(grid.values.real - 1.0).max() < 1e-12
    assert grid.imag_residue < 1e-12


def test_qz_without_axis_fix_has_zero_energy():
    grid = q_z_distribution(ZSignal(0, [1.0, 0.5]), 16, axis_fix=False)
    assert abs(grid.values.real.sum() / 16) < 1e-12


def test_qz_tone_ridge(rng):
    # windowed pure tone: the distribution must peak at the tone's bin
    n = 64
    bin_idx = 11
    vals = np.exp(2j * np.pi * bin_idx * np.arange(n) / n)
    grid = q_z_distribution(ZSignal(0, vals), n)
    ridge = grid.real_grid().argmax(axis=0)
    center = ridge[n // 4 : 3 * n // 4]
    assert np.abs(center - bin_idx).max() <= 1


def test_qz_energy(rng):
    u = ZSignal(-3, rng.standard_normal(9) + 1j * rng.standard_normal(9))
    M = 40  # >= 4 * support
    grid = q_z_distribution(u, M)
    assert abs(grid.values.real.sum() / M - u.energy()) < 1e-6
    assert grid.imag_residue < 1e-9


def test_qz_direct_sum_oracle(rng):
    u = ZSignal(-2, rng.standard_normal(5) + 1j * rng.standard_normal(5))
    M = 16
    grid = q_z_distribution(u, M, t_start=-8, t_count=20)

    def direct(x, th):
        tot = abs(u.at(x)) ** 2
        for y in range(-6, 7):
            if y == 0:
                continue
            s = sum(varphi_DZ(x - t, y) * u.at(t) * np.conj(u.at(t - y))
                    for t in range(-15, 15))
            tot += cmath.exp(-2j * cmath.pi * y * th) * s
        return tot

    worst = max(
        abs(grid.values[k, i] - direct(x, k / M))
        for i, x in enumerate(range(-8, 12))
        for k in range(M)
    )
    assert worst < 1e-10


@pytest.mark.parametrize("L,M,t_start,t_count,axis_fix", [
    (89, 89, None, None, True),    # M < 2L - 1: residues of lags on both sides of 0 meet
    (89, 89, None, None, False),
    (20, 39, None, None, True),    # M = 2L - 1: one lag per residue
    (20, 64, None, None, True),
    (7, 1, None, None, True),      # one frequency bin: every lag folds onto it
    (1, 5, None, None, True),      # no lag at all
    (1, 5, None, None, False),
    (12, 9, -20, 45, True),        # a window wider than the support, shifted
    (12, 9, 0, 3, False),          # a window inside the support
], ids=["L89-M89", "L89-M89-no-fix", "M=2L-1", "M>2L-1", "M1", "L1", "L1-no-fix", "wide-window",
        "inner-window"])
def test_qz_fold_matches_dense_oracle(rng, L, M, t_start, t_count, axis_fix):
    """The folded FFT equals the dense table of phases to 1e-12 relative."""
    u = ZSignal(-5, rng.standard_normal(L) + 1j * rng.standard_normal(L))
    got = q_z_distribution(u, M, t_start, t_count, axis_fix)
    want = q_z_distribution_dense(u, M, t_start, t_count, axis_fix)
    assert (got.t_start, got.freq_bins) == (want.t_start, want.freq_bins)
    assert got.values.shape == want.values.shape
    assert np.abs(got.values - want.values).max() <= 1e-12 * max(np.abs(want.values).max(), 1e-300)


@pytest.mark.parametrize("L,t_start,t_count", [
    (60, None, None),    # the support
    (60, -7, 40),        # a window starting before the support
    (60, 30, 50),        # starting inside it: the products before the window are not zero
    (60, 100, 10),       # past the support
    (60, 20, 0),         # an empty window
    (1, None, None),     # no lag at all
    (2048, None, None),
])
def test_lag_rows_match_the_rolled_products_bit_for_bit(rng, L, t_start, t_count):
    """Box sums of products formed, block by block, over the span the windows
    read give the lag sums of the whole rolled line, bit for bit, signed zeros
    included (an integer signal's products with zeros have imaginary parts -0 or +0)."""
    t_start, t_count = (5, L) if t_start is None else (t_start, t_count)
    for values in (rng.standard_normal(L) + 1j * rng.standard_normal(L), -1.0 - np.arange(L) % 3):
        u = ZSignal(5, values)
        got = [(y, row.copy()) for ys, rows in _lag_blocks(u, t_start, t_count) for y, row in zip(ys.tolist(), rows)]
        want = list(lag_rows_roll(u, t_start, t_count))
        assert [y for y, _ in got] == [y for y, _ in want]
        assert all(a.tobytes() == b.tobytes() for (_, a), (_, b) in zip(got, want))


def test_qz_refuses_a_negative_time_count():
    with pytest.raises(ValueError, match="t_count must be >= 0"):
        q_z_distribution(ZSignal(0, [1, 2, 3]), 4, t_count=-1)


@pytest.mark.parametrize("L,t_start,t_count", [
    (12, None, None),    # the support
    (12, -20, 45),       # wider than the support on both sides
    (12, -30, 10),       # before the support
    (12, 7, 10),         # past it
    (12, 0, 3),          # inside it
    (12, 9, 0),          # an empty window
])
def test_qz_axis_term_is_the_window_energy_bit_for_bit(rng, L, t_start, t_count):
    """The axis fix adds |u(x)|^2 at each time of the window, read from the
    samples as per-time lookups would, zero off the support."""
    u = ZSignal(-5, rng.standard_normal(L) + 1j * rng.standard_normal(L))
    got = q_z_distribution(u, 9, t_start, t_count)
    bare = q_z_distribution(u, 9, t_start, t_count, axis_fix=False)
    times = got.times.tolist()
    want = bare.values + (np.abs(np.array([u.at(t) for t in times], dtype=complex)) ** 2)[None, :]
    assert got.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("N", [*range(1, 65), 127, 128, 384])
def test_sampled_kernel_matches_the_entry_loop_bit_for_bit(N):
    got, want = sampled_z_kernel(N).phi.scalar_table(), sampled_z_kernel_loop(N).phi.scalar_table()
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("N", [*range(1, 65), 127, 128, 512, 2048])
def test_sampled_lag_form_matches_the_phi_route(N, rng):
    """The box sums against the product with the phi of `oracles.sampled_z_kernel_loop`."""
    check_lag_form_against_phi(sampled_z_kernel(N), sampled_z_kernel_loop(N).phi, rng)


def test_sampled_kernel_margins():
    k = sampled_z_kernel(12)
    tab = k.phi.scalar_table()
    assert np.abs(tab[0, :] - 1).max() < 1e-10  # frequency margins
    assert np.abs(tab[:, 0] - 1).max() < 1e-10  # time margins


@pytest.mark.parametrize("values,N", [
    ([1.0], 12),
    ([1.0, 0.0, 0.0, 1.0], 16),
    (np.exp(2j * np.pi * 0.23 * np.arange(6)) * np.hanning(6), 24),
])
def test_cyclic_vs_z_central_region(values, N):
    rep = cyclic_vs_z_comparison(ZSignal(0, np.asarray(values, dtype=complex)), N)
    assert rep.residual <= 1e-6


def test_cyclic_vs_z_requires_room():
    with pytest.raises(ValueError, match="at least"):
        cyclic_vs_z_comparison(ZSignal(0, np.ones(5)), 8)


def test_cyclic_vs_z_born_jordan_mode_reports_model_gap(rng):
    u = ZSignal(0, rng.standard_normal(4))
    small = cyclic_vs_z_comparison(u, 16, kernel="born-jordan").residual
    large = cyclic_vs_z_comparison(u, 128, kernel="born-jordan").residual
    assert large < small  # O(1/N) model difference shrinks with N
    assert small > 1e-6   # and is a genuine gap, not an implementation error
