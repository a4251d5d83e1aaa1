import numpy as np
import pytest

from conftest import max_block_diff
from gtfa.groups import build_cyclic, build_dihedral
from gtfa.harmonic import (
    Signal,
    constant_signal,
    delta_signal,
    fourier,
    haar_inner,
    norm,
    random_signal,
)
from gtfa.tfplane import symplectic_fourier, tf_norm
from gtfa.transforms import (
    add_kernels,
    ambiguity_transform,
    anti_kn_kernel,
    born_jordan_cyclic_kernel,
    born_jordan_phi,
    cohen_transform,
    cohen_transform_direct,
    commutator_kernel,
    commutator_kernel_closed_form,
    conjugate_kernel,
    gaussian_window,
    kn_kernel,
    margin_fix_kernel,
    rihaczek,
    spectrogram_kernel,
    stft,
    wigner_kernel_odd_cyclic,
    wigner_odd_cyclic,
)


def bj_position_pair(N):
    """The canonical position/momentum labelings behind the Born-Jordan kernel."""
    g, _ = build_cyclic(N)
    f = Signal(g, np.arange(N) / N)
    fhat = np.array([b[0, 0] for b in fourier(f).blocks])
    gsig = Signal(g, N * fhat[(-np.arange(N)) % N])
    return f, gsig


# ---------------------------------------------------------------------------
# Rihaczek and the ambiguity transform
# ---------------------------------------------------------------------------


def test_rihaczek_at_origin(rng):
    g, d = build_dihedral(3)
    u, v = random_signal(g, rng), random_signal(g, rng)
    R = rihaczek(u, v)
    expect = u.values[g.identity] * np.conj(fourier(v).blocks[d.trivial_index][0, 0])
    assert abs(R.blocks[d.trivial_index][g.identity][0, 0] - expect) < 1e-12


def test_rihaczek_isometry(group_and_dual, rng):
    g, _ = group_and_dual
    u, v = random_signal(g, rng), random_signal(g, rng)
    assert abs(tf_norm(rihaczek(u, v)) - norm(u) * norm(v)) < 1e-10


def test_rihaczek_of_ones():
    g, d = build_dihedral(3)
    one = constant_signal(g)
    R = rihaczek(one, one)
    for k, b in enumerate(R.blocks):
        expect = 1.0 if k == d.trivial_index else 0.0
        assert np.abs(b - expect * np.eye(b.shape[1])).max() < 1e-12


def test_ambiguity_at_origin(group_and_dual, rng):
    g, d = group_and_dual
    u, v = random_signal(g, rng), random_signal(g, rng)
    A = ambiguity_transform(u, v)
    assert abs(A.blocks[d.trivial_index][g.identity][0, 0] - haar_inner(u, v)) < 1e-10


def test_ambiguity_with_constant_second_argument(rng):
    g, d = build_dihedral(4)
    u = random_signal(g, rng)
    A = ambiguity_transform(u, constant_signal(g))
    uh = fourier(u)
    for ab, ub in zip(A.blocks, uh.blocks):
        assert np.abs(ab - ub[None, :, :]).max() < 1e-10  # constant in y


def test_ambiguity_two_routes(rng):
    g, _ = build_cyclic(6)
    u, v = random_signal(g, rng), random_signal(g, rng)
    assert max_block_diff(
        ambiguity_transform(u, v), symplectic_fourier(rihaczek(u, v))
    ) < 1e-10


# ---------------------------------------------------------------------------
# Cohen transforms
# ---------------------------------------------------------------------------


def library_kernels(g, d, rng):
    ks = [kn_kernel(d), anti_kn_kernel(d), margin_fix_kernel(d),
          spectrogram_kernel(gaussian_window(g, 2.0))]
    if np.array_equal(g.cayley, build_cyclic(g.order)[0].cayley):
        ks.append(born_jordan_cyclic_kernel(g.order))
        f, gs = bj_position_pair(g.order)
        ks.append(commutator_kernel(f, gs))
        if g.order % 2 == 1:
            ks.append(wigner_kernel_odd_cyclic(g.order))
    return ks


def test_cohen_kn_is_rihaczek(group_and_dual, rng):
    g, d = group_and_dual
    u, v = random_signal(g, rng), random_signal(g, rng)
    assert max_block_diff(cohen_transform(kn_kernel(d), u, v), rihaczek(u, v)) < 1e-12


def test_cohen_l2_bound(group_and_dual, rng):
    g, d = group_and_dual
    for k in library_kernels(g, d, rng):
        bound = k.linf_norm()
        for _ in range(5):
            u, v = random_signal(g, rng), random_signal(g, rng)
            assert tf_norm(cohen_transform(k, u, v)) <= bound * norm(u) * norm(v) + 1e-10


def test_cohen_time_shift_covariance(rng):
    g, d = build_cyclic(8)
    u = random_signal(g, rng)
    s = 3
    v = Signal(g, u.values[(np.arange(8) - s) % 8])  # v(x) = u(x - s)
    k = born_jordan_cyclic_kernel(8)
    Du = cohen_transform(k, u, u).scalar_table()  # [eta, x]
    Dv = cohen_transform(k, v, v).scalar_table()
    assert np.abs(Dv - np.roll(Du, s, axis=1)).max() < 1e-10


def test_two_route_oracle_all_kernels(group_and_dual, rng):
    g, d = group_and_dual
    u, v = random_signal(g, rng), random_signal(g, rng)
    for k in library_kernels(g, d, rng):
        direct = cohen_transform_direct(k, u, v)
        fast = cohen_transform(k, u, v)
        assert max_block_diff(fast, direct) < 1e-9, k.name


def test_margin_correct_kernel_on_dirac():
    # time-margin condition (a): D[delta_e](x, eta) = delta_e(x) I
    g, d = build_cyclic(6)
    k = born_jordan_cyclic_kernel(6)
    D = cohen_transform(k, delta_signal(g), delta_signal(g)).scalar_table()
    expect = np.zeros((6, 6))
    expect[:, g.identity] = 6.0
    assert np.abs(D - expect).max() < 1e-9


def test_margin_correct_kernel_on_constant():
    # frequency-margin condition (a): D[1](x, eta) = delta_eps(eta) I
    g, d = build_cyclic(6)
    k = born_jordan_cyclic_kernel(6)
    one = constant_signal(g)
    D = cohen_transform(k, one, one).scalar_table()
    expect = np.zeros((6, 6))
    expect[d.trivial_index, :] = 1.0
    assert np.abs(D - expect).max() < 1e-10


# ---------------------------------------------------------------------------
# Conjugation
# ---------------------------------------------------------------------------


def test_conjugate_of_kn_is_anti_kn():
    _, d = build_cyclic(6)
    assert max_block_diff(conjugate_kernel(kn_kernel(d)).phi, anti_kn_kernel(d).phi) < 1e-10


def test_anti_kn_character_value():
    _, d = build_cyclic(4)
    assert anti_kn_kernel(d).phi.blocks[1][1, 0, 0] == pytest.approx(1j)


def test_conjugate_involution(rng):
    g, d = build_dihedral(3)
    k = spectrogram_kernel(gaussian_window(g, 2.0))
    assert max_block_diff(conjugate_kernel(conjugate_kernel(k)).phi, k.phi) < 1e-12


def test_conjugate_transform_law(group_and_dual, rng):
    g, d = group_and_dual
    u, v = random_signal(g, rng), random_signal(g, rng)
    for k in library_kernels(g, d, rng)[:4]:
        Dc = cohen_transform(conjugate_kernel(k), u, v)
        Dvu = cohen_transform(k, v, u)
        flipped = [b.conj().transpose(0, 2, 1) for b in Dvu.blocks]
        assert max(np.abs(a - b).max() for a, b in zip(Dc.blocks, flipped)) < 1e-10


def test_conjugate_born_jordan_symmetry(rng):
    g, _ = build_cyclic(7)
    u, v = random_signal(g, rng), random_signal(g, rng)
    k = born_jordan_cyclic_kernel(7)
    # symmetric kernel: conjugate changes nothing, D(u,v) = D(v,u)^*
    assert max_block_diff(conjugate_kernel(k).phi, k.phi) < 1e-10
    D1 = cohen_transform(k, u, v).scalar_table()
    D2 = cohen_transform(k, v, u).scalar_table()
    assert np.abs(D1 - D2.conj()).max() < 1e-10


# ---------------------------------------------------------------------------
# Born-Jordan kernel
# ---------------------------------------------------------------------------


def test_bj_axes_are_one():
    tab = born_jordan_cyclic_kernel(9).phi.scalar_table()
    assert np.abs(tab[0, :] - 1).max() < 1e-15
    assert np.abs(tab[:, 0] - 1).max() < 1e-15


def test_bj_zero_divisor_zeros():
    tab = born_jordan_cyclic_kernel(4).phi.scalar_table()
    assert abs(tab[2, 2]) < 1e-15


def test_bj_bound_monotone_to_one():
    prev = np.inf
    for N in range(2, 65):
        tab = born_jordan_cyclic_kernel(N).phi.scalar_table()
        got = np.abs(tab).max()
        expect = (2 * np.pi / N) / abs(1 - np.exp(2j * np.pi / N))
        assert abs(got - expect) < 1e-12
        assert got <= np.pi / 2 + 1e-15
        assert got < prev
        prev = got
    assert prev > 1.0


def test_bj_phi_scalar_matches_table():
    N = 12
    tab = born_jordan_cyclic_kernel(N).phi.scalar_table()
    for xi in (0, 1, 5, 11):
        for y in (0, 2, 7):
            assert abs(tab[xi, y] - born_jordan_phi(N, xi, y)) < 1e-14


# ---------------------------------------------------------------------------
# Commutator kernel
# ---------------------------------------------------------------------------


def test_commutator_matches_bj_off_axes():
    N = 8
    f, gs = bj_position_pair(N)
    kc = commutator_kernel(f, gs)
    tab = kc.phi.scalar_table()
    bj = born_jordan_cyclic_kernel(N).phi.scalar_table()
    assert np.abs(tab[1:, 1:] - bj[1:, 1:]).max() < 1e-10
    assert np.abs(tab[0, :]).max() < 1e-12
    assert np.abs(tab[:, 0]).max() < 1e-12


def test_commutator_closed_form_crosscheck():
    f, gs = bj_position_pair(5)
    kc = commutator_kernel(f, gs)
    closed = commutator_kernel_closed_form(f, gs)
    assert max_block_diff(kc.phi, closed) < 1e-10


def test_position_labeling_fourier_value():
    g, _ = build_cyclic(4)
    f = Signal(g, np.arange(4) / 4)
    got = fourier(f).blocks[2][0, 0]
    # closed form (-1/N) / (1 - e^{-i 2 pi eta / N}) at eta = 2, N = 4
    expect = (-1 / 4) / (1 - np.exp(-1j * np.pi))
    assert got == pytest.approx(expect)
    assert got == pytest.approx(-0.125)


def test_commutator_constant_f_is_zero():
    g, _ = build_cyclic(6)
    f = Signal(g, np.ones(6) * 0.3)
    gs = Signal(g, np.exp(2j * np.pi * np.arange(6) / 6) + np.exp(-2j * np.pi * np.arange(6) / 6))
    k = commutator_kernel(f, gs)
    assert all(np.abs(b).max() < 1e-12 for b in k.phi.blocks)


def test_commutator_rejects_bad_input(rng):
    g, _ = build_dihedral(3)
    u = random_signal(g, rng)
    with pytest.raises(ValueError, match="cyclic"):
        commutator_kernel(Signal(g, np.ones(6)), u)
    gc, _ = build_cyclic(6)
    with pytest.raises(ValueError, match="real"):
        commutator_kernel(Signal(gc, 1j * np.ones(6)), Signal(gc, np.ones(6)))


# ---------------------------------------------------------------------------
# Margin fix and kernel addition
# ---------------------------------------------------------------------------


def test_margin_fix_closed_form(rng):
    g, d = build_cyclic(5)
    u, v = random_signal(g, rng), random_signal(g, rng)
    D = cohen_transform(margin_fix_kernel(d), u, v).scalar_table()  # [eta, x]
    uh = np.array([b[0, 0] for b in fourier(u).blocks])
    vh = np.array([b[0, 0] for b in fourier(v).blocks])
    expect = uh[:, None] * vh.conj()[:, None] + (
        (u.values * v.values.conj())[None, :] - haar_inner(u, v)
    ) / 5
    assert np.abs(D - expect).max() < 1e-10


def test_margin_fix_margins(rng):
    g, d = build_dihedral(3)
    u, v = random_signal(g, rng), random_signal(g, rng)
    D = cohen_transform(margin_fix_kernel(d), u, v)
    time_margin = sum(e.dim * np.einsum("xaa->x", b) for e, b in zip(d.irreps, D.blocks))
    assert np.abs(time_margin - u.values * v.values.conj()).max() < 1e-10
    uh, vh = fourier(u), fourier(v)
    for b, ub, vb in zip(D.blocks, uh.blocks, vh.blocks):
        assert np.abs(b.mean(axis=0) - ub @ vb.conj().T).max() < 1e-10


def test_add_kernels_reconstructs_bj():
    N = 10
    f, gs = bj_position_pair(N)
    kc = commutator_kernel(f, gs)
    mf = margin_fix_kernel(kc.dual)
    for policy in ("sum", "replace"):
        combined = add_kernels(kc, mf, policy)
        assert max_block_diff(combined.phi, born_jordan_cyclic_kernel(N).phi) < 1e-10


def test_add_kernels_zero_and_commutative():
    _, d = build_cyclic(6)
    k = born_jordan_cyclic_kernel(6)
    zero = add_kernels(k, k, "sum")
    assert max_block_diff(add_kernels(k, kn_kernel(d), "sum").phi,
                          add_kernels(kn_kernel(d), k, "sum").phi) < 1e-15
    assert np.abs(zero.phi.scalar_table() - 2 * k.phi.scalar_table()).max() < 1e-15


def test_add_kernels_bad_policy():
    _, d = build_cyclic(4)
    with pytest.raises(ValueError, match="on_overlap"):
        add_kernels(kn_kernel(d), kn_kernel(d), "merge")


# ---------------------------------------------------------------------------
# STFT and spectrograms
# ---------------------------------------------------------------------------


def test_stft_of_delta(rng):
    g, d = build_dihedral(3)
    w = gaussian_window(g, 2.0)
    G = stft(w, delta_signal(g))
    wt = w.values.conj()[g.inverse]
    for b, e in zip(G.blocks, d.irreps):
        assert np.abs(b - wt[:, None, None] * np.eye(e.dim)).max() < 1e-12


def test_stft_of_ones(rng):
    # G_w 1(x, eta) = (wbar)_hat(eta) eta(x)^*   [conjugate-free first factor]
    g, d = build_dihedral(3)
    w = Signal(g, random_signal(g, rng).values)
    G = stft(w, constant_signal(g))
    wbar_hat = fourier(Signal(g, w.values.conj()))
    for b, wb, e in zip(G.blocks, wbar_hat.blocks, d.irreps):
        expect = np.einsum("ab,xbc->xac", wb, e.star)
        assert np.abs(b - expect).max() < 1e-10


def test_stft_with_delta_window(rng):
    g, _ = build_cyclic(6)
    u = random_signal(g, rng)
    w = delta_signal(g)
    G = stft(w, u).scalar_table()  # [eta, x]
    # window = |G| at identity: G_w u(x, eta) = eta(x)^* u(x)
    ch = g.dual.table
    assert np.abs(G - ch.conj() * u.values[None, :]).max() < 1e-10


def test_spectrogram_normalization_and_warning(rng):
    g, _ = build_cyclic(16)
    w = gaussian_window(g, 2.0)
    k = spectrogram_kernel(w)
    assert abs(k.phi.scalar_table()[0, 0] - 1.0) < 1e-12
    with pytest.warns(UserWarning, match="unit-energy"):
        spectrogram_kernel(Signal(g, 2.0 * w.values))


def test_spectrogram_factorization(group_and_dual, rng):
    g, d = group_and_dual
    u, v = random_signal(g, rng), random_signal(g, rng)
    w = gaussian_window(g, 2.0)
    D = cohen_transform(spectrogram_kernel(w), u, v)
    Gu, Gv = stft(w, u), stft(w, v)
    for db, gu, gv in zip(D.blocks, Gu.blocks, Gv.blocks):
        assert np.abs(db - gu @ gv.conj().transpose(0, 2, 1)).max() < 1e-9


def test_spectrogram_positive_blocks(rng):
    g, d = build_dihedral(3)
    w = gaussian_window(g, 2.0)
    k = spectrogram_kernel(w)
    u = random_signal(g, rng)
    D = cohen_transform(k, u, u)
    for b in D.blocks:
        for x in range(g.order):
            lam = np.linalg.eigvalsh((b[x] + b[x].conj().T) / 2)
            assert lam.min() > -1e-9
            assert np.abs(b[x] - b[x].conj().T).max() < 1e-9


def test_spectrogram_of_delta(rng):
    g, _ = build_cyclic(8)
    w = gaussian_window(g, 2.0)
    D = cohen_transform(spectrogram_kernel(w), delta_signal(g), delta_signal(g))
    tab = D.scalar_table()
    expect = np.abs(w.values[g.inverse]) ** 2
    assert np.abs(tab - expect[None, :]).max() < 1e-10


# ---------------------------------------------------------------------------
# Wigner on odd cyclic groups
# ---------------------------------------------------------------------------


def test_wigner_kernel_value():
    k = wigner_kernel_odd_cyclic(5)
    assert k.phi.scalar_table()[1, 2] == pytest.approx(np.exp(2j * np.pi / 5))


def test_wigner_two_routes(rng):
    g, _ = build_cyclic(7)
    u, v = random_signal(g, rng), random_signal(g, rng)
    assert max_block_diff(
        cohen_transform(wigner_kernel_odd_cyclic(7), u, v), wigner_odd_cyclic(u, v)
    ) < 1e-10


def test_wigner_symmetry(rng):
    g, _ = build_cyclic(9)
    u, v = random_signal(g, rng), random_signal(g, rng)
    W1 = wigner_odd_cyclic(u, v).scalar_table()
    W2 = wigner_odd_cyclic(v, u).scalar_table()
    assert np.abs(W2.conj() - W1).max() < 1e-10


def test_wigner_unimodular_kernel():
    tab = wigner_kernel_odd_cyclic(5).phi.scalar_table()
    assert np.abs(np.abs(tab) - 1).max() < 1e-12


def test_wigner_rejects_even():
    with pytest.raises(ValueError, match="odd"):
        wigner_kernel_odd_cyclic(6)
    g, _ = build_cyclic(6)
    u = constant_signal(g)
    with pytest.raises(ValueError, match="odd"):
        wigner_odd_cyclic(u, u)
