import tracemalloc

import numpy as np
import pytest

from conftest import max_block_diff, reordered_cyclic4
from gtfa.groups import build_cyclic, build_dihedral, build_product
from gtfa.harmonic import Signal, haar_inner, random_signal
from gtfa.tfplane import (
    AmbiguityFunction,
    TFFunction,
    TimeLagKernel,
    ambiguity_to_timelag,
    amb_inner,
    inverse_symplectic_fourier,
    symplectic_fourier,
    tf_convolve,
    tf_inner,
    tf_norm,
    timelag_to_ambiguity,
)
from gtfa.transforms import (
    ambiguity_transform,
    born_jordan_cyclic_kernel,
    cohen_transform,
    gaussian_window,
    kn_kernel,
    rihaczek,
    spectrogram_kernel,
)


def random_tf(g, d, rng):
    return TFFunction(
        g, d,
        [rng.standard_normal((g.order, e.dim, e.dim))
         + 1j * rng.standard_normal((g.order, e.dim, e.dim)) for e in d.irreps],
    )


def constant_identity_tf(g, d):
    return TFFunction(
        g, d,
        [np.broadcast_to(np.eye(e.dim, dtype=complex), (g.order, e.dim, e.dim)).copy()
         for e in d.irreps],
    )


def test_symplectic_of_trivial_indicator():
    g, d = build_dihedral(3)
    blocks = [np.zeros((g.order, e.dim, e.dim), dtype=complex) for e in d.irreps]
    blocks[d.trivial_index][:] = 1.0  # a(x, eta) = delta_eps(eta)
    A = symplectic_fourier(TFFunction(g, d, blocks))
    for k, b in enumerate(A.blocks):
        expect = np.zeros_like(b)
        if k == d.trivial_index:
            expect[:] = 1.0
        assert np.abs(b - expect).max() < 1e-12


def test_symplectic_of_rihaczek_explicit_z5(rng):
    g, d = build_cyclic(5)
    u, v = random_signal(g, rng), random_signal(g, rng)
    A = symplectic_fourier(rihaczek(u, v))
    for xi in range(5):
        for y in range(5):
            expect = sum(
                np.exp(-2j * np.pi * x * xi / 5) * u.values[x] * np.conj(v.values[(x - y) % 5])
                for x in range(5)
            ) / 5
            assert abs(A.blocks[xi][y, 0, 0] - expect) < 1e-10


def test_symplectic_parseval(group_and_dual, rng):
    g, d = group_and_dual
    a = random_tf(g, d, rng)
    b = random_tf(g, d, rng)
    assert abs(amb_inner(symplectic_fourier(a), symplectic_fourier(b)) - tf_inner(a, b)) < 1e-10
    assert abs(tf_norm(a) ** 2 - tf_inner(a, a).real) < 1e-10


def test_symplectic_roundtrip(group_and_dual, rng):
    g, d = group_and_dual
    a = random_tf(g, d, rng)
    back = inverse_symplectic_fourier(symplectic_fourier(a))
    assert max_block_diff(back, a) < 1e-10


def test_tf_inner_positivity(rng):
    g, d = build_dihedral(3)
    a = random_tf(g, d, rng)
    assert tf_inner(a, a).real > 0
    zero = TFFunction(g, d, [np.zeros_like(b) for b in a.blocks])
    assert abs(tf_inner(zero, zero)) < 1e-12


def test_rihaczek_moyal_z7(rng):
    g, _ = build_cyclic(7)
    u, v, f, h = (random_signal(g, rng) for _ in range(4))
    lhs = tf_inner(rihaczek(u, v), rihaczek(f, h))
    assert abs(lhs - haar_inner(u, f) * np.conj(haar_inner(v, h))) < 1e-10


def test_tf_convolve_kn_identity(group_and_dual, rng):
    g, d = group_and_dual
    a = random_tf(g, d, rng)
    # psi_R = F^{-1}(I blocks); convolving with it is the identity
    ident = AmbiguityFunction(
        g, d,
        [np.broadcast_to(np.eye(e.dim, dtype=complex), (g.order, e.dim, e.dim)).copy()
         for e in d.irreps],
    )
    psi = inverse_symplectic_fourier(ident)
    assert max_block_diff(tf_convolve(a, psi), a) < 1e-10


def test_tf_convolve_with_constant_identity(rng):
    g, d = build_dihedral(3)
    a = random_tf(g, d, rng)
    lam = symplectic_fourier(a).blocks[d.trivial_index][g.identity][0, 0]
    out = tf_convolve(a, constant_identity_tf(g, d))
    for b, e in zip(out.blocks, d.irreps):
        assert np.abs(b - lam * np.eye(e.dim)).max() < 1e-10


def test_tf_convolve_commutative_scalar(rng):
    g, d = build_cyclic(5)
    a, b = random_tf(g, d, rng), random_tf(g, d, rng)
    assert max_block_diff(tf_convolve(a, b), tf_convolve(b, a)) < 1e-10


def test_tf_convolve_associative(rng):
    g, d = build_cyclic(5)
    a, b, c = (random_tf(g, d, rng) for _ in range(3))
    lhs = tf_convolve(tf_convolve(a, b), c)
    rhs = tf_convolve(a, tf_convolve(b, c))
    assert max_block_diff(lhs, rhs) < 1e-9


def test_tf_convolve_refuses_another_group_or_dual(tmp_path, rng):
    """cyclic:2 x cyclic:2 has the same run shapes as cyclic:4, and the
    file-loaded cyclic:4 an equal group with its characters reordered."""
    g, d = build_cyclic(4)
    a = random_tf(g, d, rng)
    with pytest.raises(ValueError, match="different groups"):
        tf_convolve(a, random_tf(*build_product(build_cyclic(2), build_cyclic(2)), rng))
    with pytest.raises(ValueError, match="different duals"):
        tf_convolve(a, random_tf(*reordered_cyclic4(tmp_path), rng))


def test_timelag_of_kn_kernel():
    g, d = build_dihedral(3)
    ident = AmbiguityFunction(
        g, d,
        [np.broadcast_to(np.eye(e.dim, dtype=complex), (g.order, e.dim, e.dim)).copy()
         for e in d.irreps],
    )
    lag = ambiguity_to_timelag(ident)
    expect = np.zeros((g.order, g.order))
    expect[g.identity, :] = g.order
    assert np.abs(lag.values - expect).max() < 1e-10


def test_timelag_of_spectrogram_kernel(rng):
    g, d = build_dihedral(3)
    w = gaussian_window(g, 2.0)
    lag = ambiguity_to_timelag(spectrogram_kernel(w).phi)
    wt = w.values.conj()[g.inverse]  # w~(x) = w(x^{-1})^*
    yx = g.cayley.T
    expect = wt[:, None] * np.conj(wt[yx])
    assert np.abs(lag.values - expect).max() < 1e-10


def test_timelag_roundtrip(group_and_dual, rng):
    g, d = group_and_dual
    u, v = random_signal(g, rng), random_signal(g, rng)
    phi = ambiguity_transform(u, v)
    back = timelag_to_ambiguity(ambiguity_to_timelag(phi), d)
    assert max_block_diff(back, phi) < 1e-10


def test_born_jordan_lag_to_ambiguity_closed_form():
    k = born_jordan_cyclic_kernel(6)
    back = timelag_to_ambiguity(k.timelag(), k.dual)
    assert max_block_diff(back, k.phi) < 1e-10


def test_timelag_zero():
    g, d = build_cyclic(4)
    zero = TimeLagKernel(g, np.zeros((4, 4)))
    amb = timelag_to_ambiguity(zero, d)
    assert all(np.abs(b).max() == 0 for b in amb.blocks)


def test_block_shape_validation(rng):
    import pytest

    g, d = build_dihedral(3)
    good = random_tf(g, d, rng)
    bad = [b.copy() for b in good.blocks]
    bad[0] = bad[0][:-1]
    with pytest.raises(ValueError, match="block shape"):
        TFFunction(g, d, bad)
    with pytest.raises(ValueError, match="blocks"):
        AmbiguityFunction(g, d, good.blocks[:-1])


def test_tf_norm_of_a_batch_copies_no_run(rng):
    """The pairing reads each run where it lies: a 16-pair batch of
    distributions at dihedral:8 (64 KiB in its 2x2 run) takes a few KiB, not
    the 99 KiB of two reshaped copies, and the norms match entry by entry."""
    g, d = build_dihedral(8)
    u = Signal(g, rng.standard_normal((16, g.order)) + 1j * rng.standard_normal((16, g.order)))
    D = cohen_transform(kn_kernel(d), u, u)
    want = [tf_norm(TFFunction.from_runs(g, d, [r[:, b] for r in D.runs])) for b in range(16)]
    tracemalloc.start()
    try:
        got = tf_norm(D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 << 10
    assert np.abs(got - want).max() <= 1e-12 * max(want)
