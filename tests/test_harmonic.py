import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import convolve_right_div, stack_blocks, star
from gtfa.groups import build_cyclic, build_dihedral
from gtfa.harmonic import (
    Signal,
    constant_signal,
    convolve,
    delta_signal,
    fourier,
    haar_inner,
    inverse_fourier,
    nc_integral,
    plancherel_inner,
    random_signal,
)


def test_haar_inner_ones():
    g, _ = build_cyclic(6)
    one = constant_signal(g)
    assert haar_inner(one, one) == pytest.approx(1.0)


def test_haar_inner_delta():
    g, _ = build_cyclic(5)
    d = delta_signal(g)
    assert haar_inner(d, d) == pytest.approx(g.order)


def test_haar_inner_direct_sum_oracle(rng):
    g, _ = build_cyclic(8)
    u, v = random_signal(g, rng), random_signal(g, rng)
    direct = sum(u.values[x] * np.conj(v.values[x]) for x in range(8)) / 8
    assert abs(haar_inner(u, v) - direct) < 1e-12


def test_haar_inner_group_mismatch():
    u = constant_signal(build_cyclic(4)[0])
    v = constant_signal(build_cyclic(5)[0])
    with pytest.raises(ValueError, match="mismatch"):
        haar_inner(u, v)


def test_fourier_of_constant(group_and_dual):
    g, d = group_and_dual
    c = fourier(constant_signal(g))
    for k, b in enumerate(c.blocks):
        expect = 1.0 if k == d.trivial_index else 0.0
        assert np.abs(b - expect * np.eye(b.shape[0])).max() < 1e-12


def test_fourier_of_delta(group_and_dual):
    g, d = group_and_dual
    c = fourier(delta_signal(g))
    for b in c.blocks:
        assert np.abs(b - np.eye(b.shape[0])).max() < 1e-12


def test_fourier_of_character():
    g, _ = build_cyclic(4)
    u = Signal(g, np.exp(2j * np.pi * np.arange(4) / 4))
    c = fourier(u)
    vals = [b[0, 0] for b in c.blocks]
    assert vals[1] == pytest.approx(1)
    assert max(abs(v) for k, v in enumerate(vals) if k != 1) < 1e-12


def test_inverse_of_trivial_delta():
    g, d = build_cyclic(6)
    blocks = [np.zeros((1, 1), dtype=complex) for _ in d.irreps]
    blocks[d.trivial_index][0, 0] = 1.0
    u = inverse_fourier(type(fourier(constant_signal(g)))(d, stack_blocks(d, blocks)))
    assert np.abs(u.values - 1).max() < 1e-12


def test_inverse_of_identity_blocks_is_delta(group_and_dual):
    g, d = group_and_dual
    c = fourier(delta_signal(g))  # identity blocks
    u = inverse_fourier(c)
    expect = np.zeros(g.order)
    expect[g.identity] = g.order
    assert np.abs(u.values - expect).max() < 1e-10


def test_roundtrip_random(group_and_dual, rng):
    g, _ = group_and_dual
    u = random_signal(g, rng)
    assert np.abs(inverse_fourier(fourier(u)).values - u.values).max() < 1e-10


def test_nc_integral_examples(rng):
    g, _ = build_dihedral(4)
    assert nc_integral(fourier(constant_signal(g))) == pytest.approx(1.0)
    u = random_signal(g, rng)
    assert nc_integral(fourier(u)) == pytest.approx(u.values[g.identity], abs=1e-10)
    zero = fourier(Signal(g, np.zeros(g.order)))
    assert nc_integral(zero) == 0


def test_plancherel(group_and_dual, rng):
    g, _ = group_and_dual
    u, v = random_signal(g, rng), random_signal(g, rng)
    assert abs(haar_inner(u, v) - plancherel_inner(fourier(u), fourier(v))) < 1e-10


def test_convolution_identity(group_and_dual, rng):
    g, _ = group_and_dual
    u = random_signal(g, rng)
    assert np.abs(convolve(u, delta_signal(g)).values - u.values).max() < 1e-10


@pytest.mark.parametrize("gd", [build_dihedral(5), build_cyclic(89), build_dihedral(64), build_cyclic(512)],
                         ids=lambda gd: gd[0].name)
def test_convolve_bits_match_right_division_gather(gd, rng):
    g, _ = gd
    u, v = random_signal(g, rng), random_signal(g, rng)
    assert convolve(u, v).values.tobytes() == convolve_right_div(u, v).values.tobytes()


def test_convolution_with_ones(rng):
    g, _ = build_dihedral(3)
    v = random_signal(g, rng)
    got = convolve(constant_signal(g), v)
    lam = haar_inner(v, constant_signal(g))
    assert np.abs(got.values - lam).max() < 1e-12


def test_convolution_theorem_order_reversal(group_and_dual, rng):
    g, _ = group_and_dual
    u, v = random_signal(g, rng), random_signal(g, rng)
    lhs = fourier(convolve(u, v))
    uh, vh = fourier(u), fourier(v)
    for lb, ub, vb in zip(lhs.blocks, uh.blocks, vh.blocks):
        assert np.abs(lb - vb @ ub).max() < 1e-10  # v_hat u_hat, reversed


def test_translation_covariance(rng):
    g, d = build_dihedral(3)
    u = random_signal(g, rng)
    y = 4
    shifted = Signal(g, u.values[g.cayley[g.inverse[y]]])  # u(y^{-1} x)
    lhs = fourier(shifted)
    uh = fourier(u)
    for lb, ub, eta in zip(lhs.blocks, uh.blocks, d.irreps):
        assert np.abs(lb - ub @ star(eta)[y]).max() < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
                min_size=6, max_size=6),
       st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
                min_size=6, max_size=6))
def test_parseval_property(uv, vv):
    g, _ = build_dihedral(3)
    u, v = Signal(g, uv), Signal(g, vv)
    scale = max(np.abs(u.values).max(), np.abs(v.values).max(), 1.0)
    lhs = haar_inner(u, v)
    rhs = plancherel_inner(fourier(u), fourier(v))
    assert abs(lhs - rhs) <= 1e-10 * scale * scale


def test_signal_length_validation():
    g, _ = build_cyclic(4)
    with pytest.raises(ValueError, match="length"):
        Signal(g, np.ones(5))


def test_signal_is_one_or_a_batch():
    g, _ = build_cyclic(4)
    assert Signal(g, np.ones(4)).values.shape == (4,)
    assert Signal(g, np.ones((3, 4))).values.shape == (3, 4)
    for shape in [(4, 1), (3, 5), (2, 3, 4), ()]:
        with pytest.raises(ValueError):
            Signal(g, np.ones(shape))


def test_fourier_pair_carries_a_batch(group_and_dual, rng):
    g, _ = group_and_dual
    batch = Signal(g, rng.standard_normal((3, g.order)) + 1j * rng.standard_normal((3, g.order)))
    c = fourier(batch)
    assert c.runs[0].shape[:2] == (c.dual.runs[0][1] - c.dual.runs[0][0], 3)
    assert np.abs(inverse_fourier(c).values - batch.values).max() <= 1e-12


def _batch_refusers():
    """(name, call(batch, single, tmp_path)) for every public function that
    takes a Signal but computes on one signal at a time."""
    from gtfa.quantization import identity_operator
    from gtfa.reconstruct import born_jordan_distribution, class_distance, roundtrip_report
    from gtfa.signalio import write_csv_signal
    from gtfa.transforms import (ambiguity_transform, cohen_transform, commutator_kernel, kn_kernel,
                                 rihaczek, spectrogram_kernel, stft, wigner_odd_cyclic)
    return [
        ("convolve", lambda b, s, p: convolve(b, s)),
        ("convolve-second", lambda b, s, p: convolve(s, b)),
        ("rihaczek", lambda b, s, p: rihaczek(b, b)),
        ("stft", lambda b, s, p: stft(s, b)),
        ("stft-window", lambda b, s, p: stft(b, s)),
        ("spectrogram_kernel", lambda b, s, p: spectrogram_kernel(b)),
        ("commutator_kernel", lambda b, s, p: commutator_kernel(Signal(b.group, b.values.real), s)),
        ("wigner_odd_cyclic", lambda b, s, p: wigner_odd_cyclic(b, b)),
        ("GroupOperator.apply", lambda b, s, p: identity_operator(b.group).apply(b)),
        ("born_jordan_distribution", lambda b, s, p: born_jordan_distribution(b)),
        ("class_distance", lambda b, s, p: class_distance(b, b)),
        ("roundtrip_report", lambda b, s, p: roundtrip_report(b)),
        ("write_csv_signal", lambda b, s, p: write_csv_signal(p / "u.csv", b)),
        ("haar_inner-unequal-batches", lambda b, s, p: haar_inner(b, s)),
        ("ambiguity_transform-unequal-batches", lambda b, s, p: ambiguity_transform(b, s)),
        ("cohen_transform-unequal-batches", lambda b, s, p: cohen_transform(kn_kernel(s.dual), s, b)),
    ]


@pytest.mark.parametrize("name,call", _batch_refusers(), ids=[n for n, _ in _batch_refusers()])
def test_batched_signal_is_refused(name, call, rng, tmp_path):
    # a batch of |G| signals: (|G|, |G|) values that 1-D indexing would accept
    g, _ = build_cyclic(5)
    batch = Signal(g, rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    with pytest.raises(ValueError):
        call(batch, random_signal(g, rng), tmp_path)
    assert not (tmp_path / "u.csv").exists()


def _plancherel_sums():
    """(name, sum(u, v)) for every inner product and integral, on two signals
    or two batches of signals, through transforms that carry a batch."""
    from gtfa.harmonic import norm
    from gtfa.quantization import tf_integral
    from gtfa.tfplane import amb_inner, tf_inner, tf_norm
    from gtfa.transforms import ambiguity_transform, anti_kn_kernel, cohen_transform

    def D(u, v):
        return cohen_transform(anti_kn_kernel(u.dual), u, v)

    return [
        ("haar_inner", lambda u, v: haar_inner(u, v)),
        ("norm", lambda u, v: norm(u)),
        ("nc_integral", lambda u, v: nc_integral(fourier(u))),
        ("plancherel_inner", lambda u, v: plancherel_inner(fourier(u), fourier(v))),
        ("tf_inner", lambda u, v: tf_inner(D(u, v), D(v, u))),
        ("amb_inner", lambda u, v: amb_inner(ambiguity_transform(u, v), ambiguity_transform(v, u))),
        ("tf_norm", lambda u, v: tf_norm(D(u, v))),
        ("tf_integral", lambda u, v: tf_integral(D(u, v))),
    ]


@pytest.mark.parametrize("order", ["dihedral:4", "cyclic:128"])
@pytest.mark.parametrize("name,pairing", _plancherel_sums(), ids=[n for n, _ in _plancherel_sums()])
def test_plancherel_sums_carry_a_batch(name, pairing, order, rng):
    """A batch of 3 gives the 3 values of the single calls; a single call
    still gives one Python number."""
    g, _ = build_dihedral(4) if order == "dihedral:4" else build_cyclic(128)
    U, V = (Signal(g, rng.standard_normal((3, g.order)) + 1j * rng.standard_normal((3, g.order)))
            for _ in range(2))
    got = pairing(U, V)
    expect = [pairing(Signal(g, u), Signal(g, v)) for u, v in zip(U.values, V.values)]
    assert isinstance(got, np.ndarray) and got.shape == (3,)
    assert all(type(e) is type(expect[0]) and type(e) in (float, complex) for e in expect)
    assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()


@pytest.mark.parametrize("order", ["dihedral:4", "cyclic:128"])
def test_batch_refusers_and_mismatched_batches(order, rng):
    """class_distance and spectrogram_kernel take one signal; the sums refuse
    two batches of different shapes instead of broadcasting them."""
    from gtfa.reconstruct import class_distance
    from gtfa.tfplane import tf_inner
    from gtfa.transforms import cohen_transform, kn_kernel, spectrogram_kernel

    g, d = build_dihedral(4) if order == "dihedral:4" else build_cyclic(128)
    U = Signal(g, rng.standard_normal((3, g.order)) + 1j * rng.standard_normal((3, g.order)))
    u = random_signal(g, rng)
    k = kn_kernel(d)
    for call in [lambda: class_distance(U, U), lambda: spectrogram_kernel(U),
                 lambda: haar_inner(U, u), lambda: plancherel_inner(fourier(U), fourier(u)),
                 lambda: tf_inner(cohen_transform(k, U, U), cohen_transform(k, u, u))]:
        with pytest.raises(ValueError):
            call()
