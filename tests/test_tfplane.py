import tracemalloc

import numpy as np
import pytest

from conftest import max_block_diff, reordered_cyclic4
from oracles import stack_blocks
from gtfa.groups import build_cyclic, build_dihedral, build_product
from gtfa.harmonic import FourierCoefficients, Signal, haar_inner, random_signal
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
    return TFFunction(g, d, stack_blocks(d, [rng.standard_normal((g.order, e.dim, e.dim))
                                             + 1j * rng.standard_normal((g.order, e.dim, e.dim)) for e in d.irreps]))


def constant_identity_tf(g, d):
    return TFFunction(g, d, stack_blocks(d, [
        np.broadcast_to(np.eye(e.dim, dtype=complex), (g.order, e.dim, e.dim)) for e in d.irreps]))


def test_symplectic_of_trivial_indicator():
    g, d = build_dihedral(3)
    blocks = [np.zeros((g.order, e.dim, e.dim), dtype=complex) for e in d.irreps]
    blocks[d.trivial_index][:] = 1.0  # a(x, eta) = delta_eps(eta)
    A = symplectic_fourier(TFFunction(g, d, stack_blocks(d, blocks)))
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
    zero = TFFunction(g, d, [np.zeros_like(r) for r in a.runs])
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
    ident = AmbiguityFunction(g, d, stack_blocks(d, [
        np.broadcast_to(np.eye(e.dim, dtype=complex), (g.order, e.dim, e.dim)) for e in d.irreps]))
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
    ident = AmbiguityFunction(g, d, stack_blocks(d, [
        np.broadcast_to(np.eye(e.dim, dtype=complex), (g.order, e.dim, e.dim)) for e in d.irreps]))
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
    g, d = build_dihedral(3)
    good = random_tf(g, d, rng)
    bad = [r.copy() for r in good.runs]
    bad[0] = bad[0][:, :-1]
    with pytest.raises(ValueError, match="run 0 of shape"):
        TFFunction(g, d, bad)
    with pytest.raises(ValueError, match="runs"):
        AmbiguityFunction(g, d, good.runs[:-1])


# The three containers, each built from (group, dual, runs).
CONTAINERS = {"coefficients": lambda g, d, runs: FourierCoefficients(d, runs),
              "tf": TFFunction, "ambiguity": AmbiguityFunction}

# Faulty runs, from good ones with one batch axis of length 2 on dihedral:3,
# whose runs hold two 1x1 and one 2x2 irrep.  A coefficient run has no plane
# axis: its "plane-length" case shortens the batch axis of the last run.
BAD_RUNS = {
    "run-count": lambda runs: runs[:-1],
    "irrep-count": lambda runs: [runs[0][:1], *runs[1:]],
    "plane-length": lambda runs: [*runs[:-1], runs[-1][..., :-1, :, :]],
    "block-dims": lambda runs: [*runs[:-1], runs[-1][..., :1, :1]],
    "batch-axes": lambda runs: [runs[0][:, :1], *runs[1:]],
}


def _runs(g, d, name, batch=(2,)):
    lead = () if name == "coefficients" else (g.order,)
    return [np.ones((e - f, *batch, *lead, n, n), dtype=complex) for f, e, n, _ in d.runs]


@pytest.mark.parametrize("case", BAD_RUNS)
@pytest.mark.parametrize("name", CONTAINERS)
def test_constructors_refuse_runs_unlike_the_dual(name, case):
    g, d = build_dihedral(3)
    make = CONTAINERS[name]
    make(g, d, _runs(g, d, name))
    with pytest.raises(ValueError, match="runs, the dual has|of shape"):
        make(g, d, BAD_RUNS[case](_runs(g, d, name)))


@pytest.mark.parametrize("name", CONTAINERS)
@pytest.mark.parametrize("build", [lambda: build_cyclic(5), lambda: build_cyclic(1), lambda: build_dihedral(4)],
                         ids=["cyclic:5", "cyclic:1", "dihedral:4"])
def test_constructors_refuse_per_irrep_blocks(name, build):
    """Blocks per irrep, as a list or stacked into one array, are refused where
    runs are expected, even where a dual has one irrep (cyclic:1) or all of them
    scalar (N blocks for one run)."""
    g, d = build()
    blocks = [b for run in _runs(g, d, name, batch=()) for b in run]
    for given in (blocks, np.array(blocks) if d.dims.max() == 1 else blocks[::-1]):
        with pytest.raises(ValueError, match="runs, the dual has|of shape"):
            CONTAINERS[name](g, d, given)


@pytest.mark.parametrize("name", CONTAINERS)
def test_constructors_keep_complex_runs(name):
    """Complex and float64 runs (a real D(u, u)) are kept as given, with no
    copy (a view stays a view); others are converted to complex."""
    g, d = build_dihedral(3)
    runs = _runs(g, d, name)
    runs[0] = runs[0][::-1]
    kept = CONTAINERS[name](g, d, runs).runs
    assert all(a is b for a, b in zip(kept, runs))
    real = [r.real for r in runs]
    assert all(a is b for a, b in zip(CONTAINERS[name](g, d, real).runs, real))
    for other in ([r.real.astype(np.float32) for r in runs], [r.real.tolist() for r in runs]):
        made = CONTAINERS[name](g, d, other).runs
        assert all(r.dtype == complex and np.array_equal(r, s.real) for r, s in zip(made, runs))


def test_tf_norm_of_a_batch_copies_no_run(rng):
    """The pairing reads each run where it lies: a 16-pair batch of
    distributions at dihedral:8 (64 KiB in its 2x2 run) takes a few KiB, not
    the 99 KiB of two reshaped copies, and the norms match entry by entry."""
    g, d = build_dihedral(8)
    u = Signal(g, rng.standard_normal((16, g.order)) + 1j * rng.standard_normal((16, g.order)))
    D = cohen_transform(kn_kernel(d), u, u)
    want = [tf_norm(TFFunction(g, d, [r[:, b] for r in D.runs])) for b in range(16)]
    tracemalloc.start()
    try:
        got = tf_norm(D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 << 10
    assert np.abs(got - want).max() <= 1e-12 * max(want)
