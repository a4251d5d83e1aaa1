import numpy as np
import pytest

from conftest import max_block_diff, reordered_cyclic4
from oracles import (distribution_from_localization, duality_residual, kn_operator_left_div, kn_symbol_right_div,
                     original_localization_left_div, stack_blocks)
from gtfa.groups import build_cyclic, build_dihedral, build_product
from gtfa.harmonic import convolve, fourier, haar_inner, random_signal
from gtfa.quantization import (
    GroupOperator,
    SingularKernel,
    dequantize,
    identity_operator,
    kn_operator,
    kn_symbol,
    null_symbol_witness,
    operator_trace,
    original_localization,
    quantize,
    tf_integral,
    trace_identity_check,
)
from gtfa.tfplane import TFFunction, TimeLagKernel, timelag_to_ambiguity, tf_inner
from gtfa.transforms import (
    CohenKernel,
    anti_kn_kernel,
    born_jordan_cyclic_kernel,
    cohen_transform,
    conjugate_kernel,
    gaussian_window,
    kn_kernel,
    margin_fix_kernel,
    spectrogram_kernel,
)


def random_tf(g, d, rng):
    return TFFunction(g, d, stack_blocks(d, [rng.standard_normal((g.order, e.dim, e.dim))
                                             + 1j * rng.standard_normal((g.order, e.dim, e.dim)) for e in d.irreps]))


def random_operator(g, rng):
    n = g.order
    return GroupOperator(g, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def identity_symbol(g, d):
    return TFFunction(g, d, stack_blocks(d, [
        np.broadcast_to(np.eye(e.dim, dtype=complex), (g.order, e.dim, e.dim)) for e in d.irreps]))


# ---------------------------------------------------------------------------
# Kohn-Nirenberg base case
# ---------------------------------------------------------------------------


def test_kn_identity_symbol(group_and_dual):
    g, d = group_and_dual
    B = kn_operator(identity_symbol(g, d))
    assert np.abs(B.kernel - identity_operator(g).kernel).max() < 1e-10


def test_kn_operator_bound(group_and_dual, rng):
    g, d = group_and_dual
    a = random_tf(g, d, rng)
    from gtfa.tfplane import tf_norm
    from gtfa.harmonic import norm
    for _ in range(5):
        v = random_signal(g, rng)
        out = kn_operator(a).apply(v)
        assert norm(out) <= tf_norm(a) * norm(v) + 1e-10


def test_anti_kn_operator_formula(rng):
    # a^{R*} v(x) = (1/|G|^2) sum_{y,eta} d tr(eta(y^{-1}x) a(y,eta)) v(y)
    g, d = build_dihedral(3)
    a = random_tf(g, d, rng)
    v = random_signal(g, rng)
    B = quantize(conjugate_kernel(kn_kernel(d)), a)
    n = g.order
    direct = np.zeros(n, dtype=complex)
    for x in range(n):
        for y in range(n):
            z = g.cayley[g.inverse[y], x]
            for eta, b in zip(d.irreps, a.blocks):
                direct[x] += eta.dim * np.trace(eta.matrices[z] @ b[y]) * v.values[y] / n
    assert np.abs(B.apply(v).values - direct).max() < 1e-9


def test_kn_symbol_of_identity(group_and_dual):
    g, d = group_and_dual
    a = kn_symbol(identity_operator(g))
    assert max_block_diff(a, identity_symbol(g, d)) < 1e-10


def test_kn_symbol_of_translation_roundtrip(rng):
    g, d = build_dihedral(3)
    s = 2
    K = np.zeros((g.order, g.order), dtype=complex)
    for x in range(g.order):
        K[x, g.cayley[g.inverse[s], x]] = g.order  # left translation by s
    B = GroupOperator(g, K)
    assert np.abs(kn_operator(kn_symbol(B)).kernel - B.kernel).max() < 1e-9


@pytest.mark.parametrize("gd", [build_dihedral(5), build_cyclic(89), build_cyclic(257)],
                         ids=lambda gd: gd[0].name)
def test_kn_symbol_bits_match_right_division_gather(gd, rng):
    g, _ = gd
    B = random_operator(g, rng)
    assert all(a.tobytes() == e.tobytes() for a, e in zip(kn_symbol(B).runs, kn_symbol_right_div(B).runs))


SCATTER_GROUPS = [build_cyclic(7), build_cyclic(89), build_cyclic(300), build_dihedral(5), build_dihedral(16),
                  build_product(build_cyclic(2), build_dihedral(8)), build_product(build_dihedral(3), build_cyclic(4))]


def random_kernel(g, d, rng):
    n = g.order
    return CohenKernel("random", timelag_to_ambiguity(TimeLagKernel(g, rng.standard_normal((n, n))
                                                                    + 1j * rng.standard_normal((n, n))), d))


def assert_scatters_match_left_division_gathers(g, d, rng):
    a = random_tf(g, d, rng)
    assert kn_operator(a).kernel.tobytes() == kn_operator_left_div(a).kernel.tobytes()
    for k in (random_kernel(g, d, rng), kn_kernel(d)):
        assert original_localization(k).kernel.tobytes() == original_localization_left_div(k).kernel.tobytes()


@pytest.mark.parametrize("gd", SCATTER_GROUPS, ids=lambda gd: gd[0].name)
def test_scatters_bits_match_left_division_gathers(gd, rng):
    """`kn_operator` and `original_localization` scatter through the lag
    index; the gathers through y^{-1} x they replace give the same bits."""
    assert_scatters_match_left_division_gathers(*gd, rng)


def test_scatters_bits_match_left_division_gathers_on_the_corpus(corpus_and_file_group, rng):
    assert_scatters_match_left_division_gathers(*corpus_and_file_group, rng)


def test_kn_roundtrips(corpus_and_file_group, rng):
    g, d = corpus_and_file_group
    B = random_operator(g, rng)
    a = kn_symbol(B)
    for eta, block in zip(d.irreps, a.blocks):
        for x in range(g.order):
            # eta(x)^* (B eta)(x), with (B eta)(x) = (1/|G|) sum_y K(x, y) eta(y)
            Beta = sum(B.kernel[x, y] * eta.matrices[y] for y in range(g.order)) / g.order
            assert np.abs(block[x] - eta.matrices[x].conj().T @ Beta).max() <= 1e-12
    assert np.abs(kn_operator(a).kernel - B.kernel).max() < 1e-9
    a = random_tf(g, d, rng)
    assert max_block_diff(kn_symbol(kn_operator(a)), a) < 1e-9


# ---------------------------------------------------------------------------
# D-quantization
# ---------------------------------------------------------------------------


def all_kernels(g, d):
    ks = [kn_kernel(d), anti_kn_kernel(d), margin_fix_kernel(d),
          spectrogram_kernel(gaussian_window(g, 2.0))]
    if np.array_equal(g.cayley, build_cyclic(g.order)[0].cayley):
        ks.append(born_jordan_cyclic_kernel(g.order))
    return ks


def test_duality_identity(group_and_dual, rng):
    g, d = group_and_dual
    for k in all_kernels(g, d):
        for _ in range(3):
            u, v = random_signal(g, rng), random_signal(g, rng)
            a = random_tf(g, d, rng)
            assert duality_residual(k, u, v, a) < 1e-9, k.name


def test_duality_identity_fifty_triples(rng):
    g, d = build_dihedral(3)
    for k in all_kernels(g, d):
        for _ in range(50):
            u, v = random_signal(g, rng), random_signal(g, rng)
            a = random_tf(g, d, rng)
            assert duality_residual(k, u, v, a) < 1e-9, k.name


def test_quantize_kn_kernel_is_kn_operator(group_and_dual, rng):
    g, d = group_and_dual
    a = random_tf(g, d, rng)
    assert np.abs(quantize(kn_kernel(d), a).kernel - kn_operator(a).kernel).max() < 1e-10


def test_time_like_symbol(rng):
    for (g, d), k in [(build_cyclic(5), born_jordan_cyclic_kernel(5)),
                      (build_dihedral(3), margin_fix_kernel(build_dihedral(3)[1]))]:
        fvals = rng.standard_normal(g.order)
        blocks = [np.einsum("x,ab->xab", fvals, np.eye(e.dim)) for e in d.irreps]
        a = TFFunction(g, d, stack_blocks(d, blocks))
        v = random_signal(g, rng)
        out = quantize(k, a).apply(v)
        assert np.abs(out.values - fvals * v.values).max() < 1e-9


def test_frequency_like_symbol(rng):
    g, d = build_cyclic(7)
    k = born_jordan_cyclic_kernel(7)
    gsig = random_signal(g, rng)
    ghat = fourier(gsig)
    blocks = [np.broadcast_to(b, (g.order, 1, 1)).copy() for b in ghat.blocks]
    a = TFFunction(g, d, stack_blocks(d, blocks))
    v = random_signal(g, rng)
    out = quantize(k, a).apply(v)
    assert np.abs(out.values - convolve(v, gsig).values).max() < 1e-9


def test_adjoint_law(group_and_dual, rng):
    g, d = group_and_dual
    a = random_tf(g, d, rng)
    astar = TFFunction(g, d, [r.conj().swapaxes(-1, -2) for r in a.runs])
    for k in all_kernels(g, d):
        lhs = quantize(k, a).adjoint()
        rhs = quantize(conjugate_kernel(k), astar)
        assert np.abs(lhs.kernel - rhs.kernel).max() < 1e-9, k.name


def test_hs_unitarity_for_unitary_kernels(group_and_dual, rng):
    g, d = group_and_dual
    a, b = random_tf(g, d, rng), random_tf(g, d, rng)
    for k in (kn_kernel(d), anti_kn_kernel(d)):
        lhs = quantize(k, a).hs_inner(quantize(k, b))
        assert abs(lhs - tf_inner(a, b)) < 1e-9


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


def test_identity_trace(group_and_dual):
    g, _ = group_and_dual
    assert operator_trace(identity_operator(g)) == pytest.approx(g.order)


def test_trace_identity_for_normalized_kernels(rng):
    g, d = build_cyclic(5)
    a = random_tf(g, d, rng)
    assert trace_identity_check(kn_kernel(d), a) < 1e-10
    assert trace_identity_check(margin_fix_kernel(d), a) < 1e-10
    assert trace_identity_check(born_jordan_cyclic_kernel(5), a) < 1e-10


def test_tf_integral_matches_quadrature(rng):
    g, d = build_dihedral(3)
    a = random_tf(g, d, rng)
    direct = sum(
        e.dim * np.trace(b[x]) for e, b in zip(d.irreps, a.blocks) for x in range(g.order)
    ) / g.order
    assert abs(tf_integral(a) - direct) < 1e-12


# ---------------------------------------------------------------------------
# Localization operators
# ---------------------------------------------------------------------------


def test_localization_kn(group_and_dual):
    g, d = group_and_dual
    K = original_localization(kn_kernel(d)).kernel
    expect = np.zeros((g.order, g.order))
    expect[g.identity, :] = g.order
    assert np.abs(K - expect).max() < 1e-10


def test_localization_anti_kn(group_and_dual):
    g, d = group_and_dual
    K = original_localization(anti_kn_kernel(d)).kernel
    expect = np.zeros((g.order, g.order))
    expect[:, g.identity] = g.order
    assert np.abs(K - expect).max() < 1e-10


def test_localization_spectrogram_projector(group_and_dual, rng):
    g, d = group_and_dual
    w = gaussian_window(g, 2.0)
    loc = original_localization(spectrogram_kernel(w))
    v = random_signal(g, rng)
    assert np.abs(loc.apply(v).values - haar_inner(v, w) * w.values).max() < 1e-10


def test_localization_evaluates_distribution_at_origin(group_and_dual, rng):
    g, d = group_and_dual
    u = random_signal(g, rng)
    for k in all_kernels(g, d):
        lhs = haar_inner(u, original_localization(k).apply(u))
        rhs = cohen_transform(k, u, u).blocks[d.trivial_index][g.identity][0, 0]
        assert abs(lhs - rhs) < 1e-9, k.name


def test_distribution_from_localization_two_routes(rng):
    cases = []
    g5, d5 = build_cyclic(5)
    cases.append((g5, kn_kernel(d5)))
    cases.append((g5, born_jordan_cyclic_kernel(5)))
    g3, d3 = build_dihedral(3)
    cases.append((g3, spectrogram_kernel(gaussian_window(g3, 2.0))))
    for g, k in cases:
        u, v = random_signal(g, rng), random_signal(g, rng)
        D1 = distribution_from_localization(original_localization(k), u, v)
        D2 = cohen_transform(k, u, v)
        assert max_block_diff(D1, D2) < 1e-9, k.name


def test_localization_roundtrip_through_lag_kernel(rng):
    # recover the kernel from K and transform with it
    g, d = build_dihedral(3)
    k = spectrogram_kernel(gaussian_window(g, 2.0))
    K = original_localization(k).kernel
    inv, cay = g.inverse, g.cayley
    # varphi(x, y) = K(x^{-1}, x^{-1} y^{-1})^*
    n = g.order
    lag = np.empty((n, n), dtype=complex)
    for x in range(n):
        for y in range(n):
            lag[x, y] = np.conj(K[inv[x], cay[inv[x], inv[y]]])
    recovered = CohenKernel("rec", timelag_to_ambiguity(TimeLagKernel(g, lag), d))
    assert max_block_diff(recovered.phi, k.phi) < 1e-10


# ---------------------------------------------------------------------------
# Invertibility dichotomy
# ---------------------------------------------------------------------------


def test_dequantize_prime_roundtrip(rng):
    for N in (5, 7):
        g, _ = build_cyclic(N)
        k = born_jordan_cyclic_kernel(N)
        B = random_operator(g, rng)
        b = dequantize(k, B)
        assert np.abs(quantize(k, b).kernel - B.kernel).max() < 1e-8


def test_dequantize_composite_raises_with_pairs():
    g, _ = build_cyclic(6)
    k = born_jordan_cyclic_kernel(6)
    with pytest.raises(SingularKernel) as exc:
        dequantize(k, identity_operator(g))
    assert sorted(exc.value.pairs) == [(2, 3), (3, 2), (3, 4), (4, 3)]


def test_dequantize_kn_always_succeeds(group_and_dual, rng):
    g, d = group_and_dual
    B = random_operator(g, rng)
    b = dequantize(kn_kernel(d), B)
    assert np.abs(quantize(kn_kernel(d), b).kernel - B.kernel).max() < 1e-8


def test_null_witness_composite():
    k = born_jordan_cyclic_kernel(4)
    wit = null_symbol_witness(k)
    assert wit is not None
    assert max(np.abs(b).max() for b in wit.blocks) > 1e-3
    assert quantize(k, wit).op_norm() < 1e-10


def test_null_witness_none_for_invertible():
    assert null_symbol_witness(born_jordan_cyclic_kernel(5)) is None
    assert null_symbol_witness(kn_kernel(build_cyclic(6)[1])) is None


def test_quantize_refuses_another_dual_of_an_equal_group(tmp_path, rng):
    g, d = build_cyclic(4)
    _, d2 = reordered_cyclic4(tmp_path)
    with pytest.raises(ValueError, match="different duals"):
        quantize(anti_kn_kernel(d2), random_tf(g, d, rng))


def test_dequantize_refuses_another_dual_of_an_equal_group(tmp_path, rng):
    g, _ = build_cyclic(4)
    _, d2 = reordered_cyclic4(tmp_path)
    with pytest.raises(ValueError, match="different duals"):
        dequantize(anti_kn_kernel(d2), random_operator(g, rng))


def test_operator_shape_validation():
    g, _ = build_cyclic(3)
    with pytest.raises(ValueError, match="kernel shape"):
        GroupOperator(g, np.zeros((3, 4)))
