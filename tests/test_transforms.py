import numpy as np
import pytest

from conftest import (check_lag_form_against_phi, fresh_python, group_file_text, max_block_diff, near_equal_cyclic7,
                      relabelled_dihedral6, reordered_cyclic4)
from oracles import (born_jordan_phi, born_jordan_table_where, cohen_transform_direct,
                     commutator_kernel_closed_form, right_div, rihaczek_per_run, scalar_runs, stack_irreps, star,
                     wigner_odd_cyclic_direct)
from gtfa import groups, transforms
from gtfa.groups import (FiniteGroup, Irrep, block_product, build_cyclic, build_dihedral, build_product,
                         load_group_file)
from gtfa.harmonic import (
    Signal,
    constant_signal,
    delta_signal,
    fourier,
    haar_inner,
    norm,
    random_signal,
)
from gtfa.limits import sampled_z_kernel
from gtfa.properties import check_symmetric
from gtfa.tfplane import AmbiguityFunction, inverse_symplectic_fourier, symplectic_fourier, tf_norm
from gtfa.transforms import (
    CohenKernel,
    add_kernels,
    ambiguity_transform,
    anti_kn_kernel,
    born_jordan_cyclic_kernel,
    cohen_transform,
    commutator_kernel,
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
    want = rihaczek_per_run(u, v)
    assert max_block_diff(cohen_transform(kn_kernel(d), u, v), want) < 1e-12
    assert max_block_diff(rihaczek(u, v), want) < 1e-12


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


def test_cohen_transform_refuses_another_dual_of_an_equal_group(tmp_path, rng):
    g, _ = build_cyclic(4)
    g2, d2 = reordered_cyclic4(tmp_path)
    assert g2 == g
    u = random_signal(g, rng)
    with pytest.raises(ValueError, match="different duals"):
        cohen_transform(anti_kn_kernel(d2), u, u)


def _check_batch_entries_match_single_calls(g, d, rng):
    """Each entry of a batched fourier, ambiguity_transform and cohen_transform
    (a random kernel) against the unbatched call, within 1e-13 relative."""
    def batch(b):
        return Signal(g, rng.standard_normal((b, g.order)) + 1j * rng.standard_normal((b, g.order)))

    def close(got, expect):
        return np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()

    k = CohenKernel("random", AmbiguityFunction(g, d, [
        rng.standard_normal(r.shape) + 1j * rng.standard_normal(r.shape)
        for r in kn_kernel(d).phi.runs]))
    U, V = batch(3), batch(3)
    uh = fourier(U).runs
    amb, dist = ambiguity_transform(U, V).runs, cohen_transform(k, U, V).runs
    for (first, end, _, _), a, t in zip(d.runs, amb, dist):
        assert a.shape[:3] == t.shape[:3] == (end - first, 3, g.order)
    for b in range(3):
        u, v = Signal(g, U.values[b]), Signal(g, V.values[b])
        assert all(close(r[:, b], e) for r, e in zip(uh, fourier(u).runs))
        assert all(close(r[:, b], e) for r, e in zip(amb, ambiguity_transform(u, v).runs))
        assert all(close(r[:, b], e) for r, e in zip(dist, cohen_transform(k, u, v).runs))


def test_batch_entries_match_single_calls(corpus_and_file_group, rng):
    _check_batch_entries_match_single_calls(*corpus_and_file_group, rng)


@pytest.mark.parametrize("gd", [build_cyclic(128), build_product(build_dihedral(3), build_dihedral(4))],
                         ids=["cyclic:128-fft", "dihedral:3xdihedral:4"])
def test_batch_entries_match_single_calls_fft_and_4d_irreps(gd, rng):
    g, d = gd
    assert groups._fft_shape(d) is not None or d.dims.max() == 4
    _check_batch_entries_match_single_calls(g, d, rng)


FFT_COHEN_GROUPS = [build_cyclic(128), build_cyclic(257), build_cyclic(512),
                    build_product(build_cyclic(8), build_cyclic(16)),
                    build_product(build_cyclic(16), build_cyclic(32))]


def lag_window_kernel(g, d) -> CohenKernel:
    """phi(xi, y) = c(y) with c random: the same row for every xi."""
    c = np.array([1, 1j]) @ np.random.default_rng(g.order).standard_normal((2, g.order))
    return CohenKernel("lag-window", AmbiguityFunction(g, d, scalar_runs(np.tile(c, (g.order, 1)))))


FFT_COHEN_KERNELS = {
    "born-jordan": lambda g, d: born_jordan_cyclic_kernel(g.order),
    "kn": lambda g, d: kn_kernel(d),
    "anti-kn": lambda g, d: anti_kn_kernel(d),
    "margin-fix": lambda g, d: margin_fix_kernel(d),
    "spectrogram": lambda g, d: spectrogram_kernel(gaussian_window(g, 4.0)),
    "lag-window": lag_window_kernel,
}


@pytest.mark.parametrize("gd,kernel", [
    (gd, name) for gd in FFT_COHEN_GROUPS for name in FFT_COHEN_KERNELS
    if name != "born-jordan" or len(gd[1].cyclic_factors) == 1
], ids=lambda p: p if isinstance(p, str) else p[0].name)
def test_cohen_fft_route_matches_three_stages(gd, kernel, monkeypatch, rng):
    """The one-buffer FFT route against the three stages on the naive sums
    (ambiguity transform, kernel product, inverse symplectic transform), for a
    single signal, a batch, and u != v, within 1e-12 of the largest entry."""
    g, d = gd
    assert groups._fft_shape(d) == d.cyclic_factors
    k = FFT_COHEN_KERNELS[kernel](g, d)

    def signal(*b):
        return Signal(g, rng.standard_normal((*b, g.order)) + 1j * rng.standard_normal((*b, g.order)))

    u, v, U, V = signal(), signal(), signal(3), signal(3)
    pairs = [(u, u), (u, v), (U, U), (U, V)]
    fast = [cohen_transform(k, a, b).runs for a, b in pairs]
    monkeypatch.setattr(groups, "FFT_MIN_ORDER", g.order + 1)
    for (a, b), (got,) in zip(pairs, fast):
        phi = k.phi.runs if a.values.ndim == 1 else [p[:, None] for p in k.phi.runs]
        amb = AmbiguityFunction(g, d, block_product(phi, ambiguity_transform(a, b).runs))
        (want,) = inverse_symplectic_fourier(amb).runs
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


LAG_FORM_KERNELS = {"kn": kn_kernel, "anti-kn": anti_kn_kernel, "margin-fix": margin_fix_kernel}
LAG_FORM_GROUPS = {
    "dihedral:5": lambda tmp: build_dihedral(5),
    "dihedral:8": lambda tmp: build_dihedral(8),
    "product:dihedral:3xdihedral:4": lambda tmp: build_product(build_dihedral(3), build_dihedral(4)),
    "product:cyclic:2xdihedral:8": lambda tmp: build_product(build_cyclic(2), build_dihedral(8)),
    "file:relabelled-dihedral:6": relabelled_dihedral6,
    "cyclic:12": lambda tmp: build_cyclic(12),
    **{gd[0].name: (lambda tmp, gd=gd: gd) for gd in FFT_COHEN_GROUPS},
}
# the Wigner kernel on odd cyclic groups only, on both sides of FFT_MIN_ORDER
ODD_CYCLIC_GROUPS = {f"cyclic:{n}": (lambda tmp, n=n: build_cyclic(n)) for n in (5, 127, 129, 257)}
LAG_FORM_CASES = [(group, kernel) for group in LAG_FORM_GROUPS for kernel in LAG_FORM_KERNELS]
LAG_FORM_CASES += [(group, "wigner-odd") for group in ODD_CYCLIC_GROUPS]


def wigner_odd_kernel(d):
    return wigner_kernel_odd_cyclic(d.group.order)


@pytest.mark.parametrize("group,kernel", LAG_FORM_CASES, ids=[f"{g}-{k}" for g, k in LAG_FORM_CASES])
def test_lag_forms_match_the_direct_sum(group, kernel, tmp_path, rng):
    """Each kernel's lag form against the direct time-lag sum, within 1e-12 of
    the largest entry: u = v, u != v and a batch of 3 whose entries are the
    pairs (u, u), (u, v), (u, u).  The group file's identity is not element 0."""
    g, d = {**LAG_FORM_GROUPS, **ODD_CYCLIC_GROUPS}[group](tmp_path)
    assert g.identity != 0 or not group.startswith("file:")
    k = {**LAG_FORM_KERNELS, "wigner-odd": wigner_odd_kernel}[kernel](d)
    assert k.lag is not None
    u, v = random_signal(g, rng), random_signal(g, rng)
    want = [cohen_transform_direct(k, u, u).runs, cohen_transform_direct(k, u, v).runs]
    batch = cohen_transform(k, Signal(g, np.stack([u.values] * 3)),
                            Signal(g, np.stack([u.values, v.values, u.values]))).runs
    got = [cohen_transform(k, u, u).runs, cohen_transform(k, u, v).runs, *([r[:, b] for r in batch] for b in range(3))]
    for runs, expect in zip(got, [*want, want[0], want[1], want[0]]):
        scale = max(np.abs(r).max() for r in expect)
        assert max(np.abs(a - b).max() for a, b in zip(runs, expect)) <= 1e-12 * scale


@pytest.mark.parametrize("gd", [build_cyclic(128), build_cyclic(129), build_product(build_cyclic(8), build_cyclic(16))],
                         ids=lambda gd: gd[0].name)
def test_lag_forms_skip_the_transforms_in_x(gd, monkeypatch, rng):
    """On the FFT route a kernel with a lag form (kn, anti-kn, margin-fix,
    Born-Jordan on a cyclic group and wigner-odd at odd order) makes one FFT,
    over y, for a signal and a batch alike: for a `hermitian` kernel and u = v
    the real inverse FFT, over the other factors, then the first.  Kernels
    without one make the FFT in x, the inverse in xi and the FFT in y: the
    lag window, constant in xi, and the same table with one entry perturbed."""
    g, d = gd
    window = lag_window_kernel(g, d)
    table = window.phi.scalar_table().copy()
    table[3, 5] += 1e-3
    perturbed = CohenKernel("perturbed", AmbiguityFunction(g, d, scalar_runs(table)))
    calls = []
    for name in ("fftn", "ifftn", "irfftn"):
        def counted(a, *args, _name=name, _fft=getattr(np.fft, name), **kwargs):
            calls.append((_name, tuple(kwargs["axes"])))
            return _fft(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    r = len(d.cyclic_factors)
    x_axes, y_axes = tuple(range(-r, 0)), tuple(range(r))
    u, U = random_signal(g, rng), Signal(g, rng.standard_normal((3, g.order)) + 0j)
    one, three = [("fftn", y_axes)], [("fftn", x_axes), ("ifftn", x_axes), ("fftn", y_axes)]
    real = [("irfftn", (*y_axes[1:], 0))]
    kernels = [(make(d), real if make is margin_fix_kernel else one) for make in LAG_FORM_KERNELS.values()]
    kernels += [(window, three), (perturbed, three)]
    kernels += [(wigner_odd_kernel(d), real)] if g.order % 2 else []
    kernels += [(born_jordan_cyclic_kernel(g.order), real)] if len(d.cyclic_factors) == 1 else []
    for k, want in kernels:
        for a in (u, U):
            calls.clear()
            cohen_transform(k, a, a)
            assert calls == want, k.name


@pytest.mark.parametrize("gd", [build_cyclic(512), build_product(build_cyclic(16), build_cyclic(32))],
                         ids=lambda gd: gd[0].name)
def test_kn_transform_on_the_fft_route_is_rihaczek(gd, rng):
    """The Kohn-Nirenberg kernel's lag form leaves the lag product as it is: its
    one FFT, over y, gives the Rihaczek distribution per run within 1e-13 of the largest entry."""
    g, d = gd
    u, v = random_signal(g, rng), random_signal(g, rng)
    for a, b in [(u, u), (u, v)]:
        got, want = cohen_transform(kn_kernel(d), a, b).scalar_table(), rihaczek_per_run(a, b).scalar_table()
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_cohen_fft_route_skips_the_ambiguity_transform(monkeypatch, rng):
    """From order 128 a cyclic dual never reaches the three-stage path, with or
    without a lag form; below, a kernel without one (spectrogram) takes it, for
    its kernel product, and kernels with one (kn, Born-Jordan) do not."""
    def refuse(*args):
        raise AssertionError("three-stage path taken")

    # built first: a spectrogram kernel is the ambiguity transform of its window
    spectrograms = {n: spectrogram_kernel(gaussian_window(build_cyclic(n)[0], 4.0)) for n in (127, 128, 512)}
    monkeypatch.setattr(transforms, "ambiguity_transform", refuse)
    monkeypatch.setattr(transforms, "block_product", refuse)
    for n in (128, 512):
        g, d = build_cyclic(n)
        u = random_signal(g, rng)
        for k in (kn_kernel(d), born_jordan_cyclic_kernel(n), spectrograms[n]):
            cohen_transform(k, u, u)
    g, d = build_cyclic(127)
    u = random_signal(g, rng)
    cohen_transform(kn_kernel(d), u, u)
    cohen_transform(born_jordan_cyclic_kernel(127), u, u)
    with pytest.raises(AssertionError, match="three-stage"):
        cohen_transform(spectrograms[127], u, u)


def test_cohen_fft_route_makes_no_group_table(monkeypatch, rng):
    """The FFT route reads the signals, the kernel and the cyclic factors
    only: neither the dual table nor the lag index of the group is made, nor
    the phi of a kernel with a lag form."""
    g, d = build_cyclic.__wrapped__(300)
    gp, dp = build_product(build_cyclic.__wrapped__(8), build_cyclic.__wrapped__(20))
    kernels = [(g, d, born_jordan_cyclic_kernel(300))]
    kernels += [(grp, dual, make(dual)) for grp, dual in [(g, d), (gp, dp)] for make in LAG_FORM_KERNELS.values()]
    monkeypatch.setattr(transforms, "build_cyclic", build_cyclic.__wrapped__)  # a dual of its own
    wigner = wigner_kernel_odd_cyclic(301)
    kernels.append((wigner.group, wigner.dual, wigner))
    for grp, dual, k in kernels:
        u = Signal(grp, rng.standard_normal((2, grp.order)) + 1j * rng.standard_normal((2, grp.order)))
        cohen_transform(k, u, u)
        cohen_transform(k, Signal(grp, u.values[0]), Signal(grp, u.values[1]))
        assert "table" not in vars(dual) and "lag_index" not in vars(grp)
        assert k.lag is None or "phi" not in vars(k)


def test_born_jordan_transform_at_2048_peaks_at_two_tables():
    """In a fresh process, building cyclic:2048, its Born-Jordan kernel and
    one transform stays within two 64 MiB tables plus small change, counted
    from the start of the process (257 MiB while the group held its N^2
    tables; the lag form now peaks at the output alone, about 66 MiB)."""
    code = ("import tracemalloc, numpy as np; tracemalloc.start()\n"
            "from gtfa.groups import build_cyclic; from gtfa.harmonic import Signal\n"
            "from gtfa.transforms import born_jordan_cyclic_kernel, cohen_transform\n"
            "g, d = build_cyclic(2048); k = born_jordan_cyclic_kernel(2048)\n"
            "u = Signal(g, np.random.default_rng(0).standard_normal(2048) + 0j); cohen_transform(k, u, u)\n"
            "print(tracemalloc.get_traced_memory()[1])")
    assert int(fresh_python(code)) <= 130 << 20


def test_lag_form_transforms_at_2048_peak_at_one_table():
    """In a fresh process, one cyclic:2048 transform with kn, anti-kn,
    margin-fix or Born-Jordan, and one cyclic:2049 transform with wigner-odd,
    peaks at its work array, 64 MiB, plus small change, and makes neither the
    kernel's phi nor the dual's table (with dense kernels kn peaked at 128 MiB,
    anti-kn at 192 MiB, wigner-odd at 130 MiB and Born-Jordan at 129.6 MiB)."""
    code = ("import tracemalloc, numpy as np; tracemalloc.start()\n"
            "from gtfa.groups import build_cyclic; from gtfa.harmonic import Signal\n"
            "from gtfa.transforms import anti_kn_kernel, born_jordan_cyclic_kernel, cohen_transform, kn_kernel, "
            "margin_fix_kernel, wigner_kernel_odd_cyclic\n"
            "d = build_cyclic(2048)[1]\n"
            "for k in (kn_kernel(d), anti_kn_kernel(d), margin_fix_kernel(d), born_jordan_cyclic_kernel(2048), "
            "wigner_kernel_odd_cyclic(2049)):\n"
            "    u = Signal(k.group, np.random.default_rng(0).standard_normal(k.group.order) + 0j)\n"
            "    tracemalloc.reset_peak(); cohen_transform(k, u, u)\n"
            "    print(k.name, tracemalloc.get_traced_memory()[1], 'phi' in vars(k), 'table' in vars(k.dual))")
    lines = fresh_python(code).splitlines()
    assert [line.split()[0] for line in lines] == ["kn", "anti-kn", "margin-fix", "born-jordan:2048", "wigner-odd:2049"]
    for line in lines:
        _, peak, phi, table = line.split()
        assert int(peak) <= 70 << 20 and phi == table == "False", line


def random_window(g) -> Signal:
    """A unit-energy complex window with no symmetry of its own."""
    w = np.array([1, 1j]) @ np.random.default_rng(g.order + 1).standard_normal((2, g.order))
    return Signal(g, w / norm(Signal(g, w)))


# the builders that set CohenKernel.hermitian, and the groups each is defined on
HERMITIAN_KERNELS = {
    "born-jordan": (lambda d: born_jordan_cyclic_kernel(d.group.order), "cyclic"),
    "sampled-z": (lambda d: sampled_z_kernel(d.group.order), "cyclic"),
    "margin-fix": (margin_fix_kernel, "any"),
    "wigner-odd": (wigner_odd_kernel, "odd"),
    "spectrogram-gaussian": (lambda d: spectrogram_kernel(gaussian_window(d.group, 2.0)), "any"),
    "spectrogram-random": (lambda d: spectrogram_kernel(random_window(d.group)), "any"),
}


def defined_on(where: str, d) -> bool:
    """Whether a kernel builder for `where` ("any", "cyclic" or "odd" cyclic) takes dual d."""
    cyclic = d.cyclic_factors is not None and len(d.cyclic_factors) == 1
    return where == "any" or cyclic and (where == "cyclic" or d.group.order % 2 == 1)


def hermitian_kernels(d):
    """The flagged library kernels defined on dual d, by name."""
    return {name: make(d) for name, (make, where) in HERMITIAN_KERNELS.items() if defined_on(where, d)}


SYMMETRY_GROUPS = [*(lambda n=n: build_cyclic(n) for n in [*range(2, 65), 128, 257]),
                   lambda: build_product(build_cyclic(2), build_cyclic(3)),
                   lambda: build_product(build_cyclic(4), build_cyclic(6)),
                   lambda: build_product(build_cyclic(8), build_cyclic(16))]


@pytest.mark.parametrize("make", SYMMETRY_GROUPS, ids=lambda make: make()[0].name)
def test_hermitian_flag_is_proven_by_check_symmetric(make):
    """Every kernel a builder flags `hermitian` passes the exhaustive symmetry
    check; kn, anti-kn, the commutator, sums, conjugates and kernels built from
    a table are not flagged, whatever their symmetry."""
    g, d = make()
    flagged = hermitian_kernels(d)
    assert flagged and all(k.hermitian for k in flagged.values())
    for name, k in flagged.items():
        assert check_symmetric(k, verify=False).holds, name


@pytest.mark.parametrize("make", SYMMETRY_GROUPS[:63:8] + SYMMETRY_GROUPS[-3:], ids=lambda make: make()[0].name)
def test_kernels_not_proven_symmetric_are_not_flagged(make):
    g, d = make()
    mf, spec = margin_fix_kernel(d), spectrogram_kernel(gaussian_window(g, 2.0))
    kernels = [kn_kernel(d), anti_kn_kernel(d), add_kernels(mf, spec), conjugate_kernel(mf),
               CohenKernel("table", mf.phi)]
    if len(d.cyclic_factors) == 1:
        kernels += [commutator_kernel(*bj_position_pair(g.order)), conjugate_kernel(born_jordan_cyclic_kernel(g.order))]
    assert not any(k.hermitian for k in kernels)


PREFIX_GROUPS = {"cyclic:12": build_cyclic(12), "cyclic:127": build_cyclic(127), "cyclic:128": build_cyclic(128),
                 "cyclic:257": build_cyclic(257), "cyclic:512": build_cyclic(512),
                 "product:cyclic:8xcyclic:16": build_product(build_cyclic(8), build_cyclic(16))}
# every library lag form: kn, anti-kn, margin-fix, born-jordan, sampled-z and wigner-odd
PREFIX_KERNELS = {**{name: (make, "any") for name, make in LAG_FORM_KERNELS.items()},
                  **{name: HERMITIAN_KERNELS[name] for name in ("born-jordan", "sampled-z", "wigner-odd")}}
PREFIX_CASES = [(group, name) for group, (g, d) in PREFIX_GROUPS.items()
                for name, (_, where) in PREFIX_KERNELS.items() if defined_on(where, d)]


@pytest.mark.parametrize("group,kernel", PREFIX_CASES, ids=[f"{g}-{k}" for g, k in PREFIX_CASES])
@pytest.mark.parametrize("batch", [(), (3,)], ids=["single", "batch"])
def test_lag_forms_act_on_a_prefix_of_lags(group, kernel, batch, rng):
    """lag(w[:h]) is lag(w)[:h] bit for bit: the real route's rows, whose first
    factor is 0..n_1/2, a single row, and all rows but the last."""
    g, d = PREFIX_GROUPS[group]
    k = PREFIX_KERNELS[kernel][0](d)
    n, n1 = g.order, d.cyclic_factors[0]
    w = rng.standard_normal((n, *batch, n)) + 1j * rng.standard_normal((n, *batch, n))
    full = k.lag(w.copy())
    for h in (n // n1 * (n1 // 2 + 1), 1, n - 1):
        assert k.lag(w[:h].copy()).tobytes() == full[:h].tobytes(), h


ROUTE_CASES = [(gd, name) for gd in FFT_COHEN_GROUPS for name in hermitian_kernels(gd[1])]


@pytest.mark.parametrize("gd,kernel", ROUTE_CASES, ids=lambda p: p if isinstance(p, str) else p[0].name)
def test_hermitian_kernels_give_a_real_distribution(gd, kernel, rng):
    """D(u, u) and a batch D(U, U) of a flagged kernel on the FFT route have
    float64, C-ordered runs, within 1e-12 of the largest entry of the complex
    route, taken by passing v as another Signal object."""
    g, d = gd
    k = hermitian_kernels(d)[kernel]
    for b in [(), (3,)]:
        u = Signal(g, rng.standard_normal((*b, g.order)) + 1j * rng.standard_normal((*b, g.order)))
        (got,), (want,) = cohen_transform(k, u, u).runs, cohen_transform(k, u, Signal(g, u.values)).runs
        assert got.dtype == np.float64 and got.flags.c_contiguous and want.dtype == complex
        assert got.shape == want.shape and np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_born_jordan_distribution_at_2048_is_one_real_table():
    """The Born-Jordan D(u, u) at cyclic:2048 holds one float64 table, 32 MiB."""
    g, _ = build_cyclic(2048)
    u = Signal(g, np.random.default_rng(0).standard_normal(2048) + 0j)
    D = cohen_transform(born_jordan_cyclic_kernel(2048), u, u)
    assert D.runs[0].nbytes <= 33 << 20


def test_cohen_fft_route_keeps_the_refusals(rng):
    g, d = build_cyclic(128)
    k = kn_kernel(d)
    u = random_signal(g, rng)
    batch = Signal(g, rng.standard_normal((2, 128)) + 0j)
    with pytest.raises(ValueError, match="signal batches of shapes"):
        cohen_transform(k, u, batch)
    other = random_signal(build_product(build_cyclic(8), build_cyclic(16))[0], rng)
    with pytest.raises(ValueError, match="group mismatch: signals"):
        cohen_transform(k, u, other)
    with pytest.raises(ValueError, match="group mismatch: kernel and signal"):
        cohen_transform(k, other, other)


@pytest.mark.parametrize("N", [8, 89, 300, 512])
def test_born_jordan_table_bits_match_where_construction(N):
    table = born_jordan_cyclic_kernel(N).phi.scalar_table()
    assert table.tobytes() == born_jordan_table_where(N).tobytes()


@pytest.mark.parametrize("N", [*range(1, 65), 127, 128, 512, 2048])
def test_born_jordan_lag_form_matches_the_phi_route(N, rng):
    """The box sums against the product with the closed-form table of
    `oracles.born_jordan_table_where` (at 2048 with the phi of another kernel
    object, which test_born_jordan_table_bits_match_where_construction holds to it)."""
    k = born_jordan_cyclic_kernel(N)
    table = born_jordan_table_where(N) if N <= 512 else born_jordan_cyclic_kernel(N).phi.scalar_table()
    check_lag_form_against_phi(k, AmbiguityFunction(k.group, k.dual, scalar_runs(table)), rng)


@pytest.mark.parametrize("N", [8, 89, 300, 512])
def test_born_jordan_table_is_stored_lag_major(N):
    """The table [xi, y] is the transpose of a C-ordered [y, xi] table, so the
    FFT route's phi^T reads memory in order."""
    assert born_jordan_cyclic_kernel(N).phi.scalar_table().T.flags.c_contiguous


@pytest.mark.parametrize("gd", [build_dihedral(5), build_cyclic(89), build_cyclic(257)],
                         ids=lambda gd: gd[0].name)
def test_ambiguity_transform_bits_match_right_division_gather(gd, rng):
    g, d = gd
    for b in [(), (3,)]:
        u = Signal(g, rng.standard_normal((*b, g.order)) + 1j * rng.standard_normal((*b, g.order)))
        v = Signal(g, rng.standard_normal((*b, g.order)) + 1j * rng.standard_normal((*b, g.order)))
        w = u.values[..., :, None] * v.values.conj()[..., right_div(g)]
        want = groups.group_fourier(d, w.swapaxes(0, -2))
        got = ambiguity_transform(u, v).runs
        assert all(a.tobytes() == e.tobytes() for a, e in zip(got, want))


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


@pytest.mark.parametrize("policy", ["sum", "replace"])
def test_add_kernels_refuses_another_dual_of_an_equal_group(tmp_path, policy):
    """dihedral:3 from a group file with the same Cayley table, its irreps
    listed with dimensions 2, 1, 1: the two kernels' runs do not line up."""
    g, d = build_dihedral(3)
    path = tmp_path / "d3.grp"
    irreps = [Irrep(d.irreps[k].dim, d.irreps[k].matrices) for k in (2, 0, 1)]
    path.write_text(group_file_text(FiniteGroup(g.order, g.cayley, g.identity, g.inverse), stack_irreps(irreps)))
    g2, d2 = load_group_file(path)
    assert g2 == g
    with pytest.raises(ValueError, match="different duals"):
        add_kernels(kn_kernel(d), anti_kn_kernel(d2), policy)


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
        expect = np.einsum("ab,xbc->xac", wb, star(e))
        assert np.abs(b - expect).max() < 1e-10


def test_stft_with_delta_window(rng):
    g, _ = build_cyclic(6)
    u = random_signal(g, rng)
    w = delta_signal(g)
    G = stft(w, u).scalar_table()  # [eta, x]
    # window = |G| at identity: G_w u(x, eta) = eta(x)^* u(x)
    ch = g.dual.table
    assert np.abs(G - ch.conj() * u.values[None, :]).max() < 1e-10


@pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan])
def test_gaussian_window_refuses_a_width_not_above_zero(sigma):
    """sigma = 0 divided by zero into a NaN window, NaN gave one silently and
    a negative width was read as its absolute value."""
    g, _ = build_cyclic(16)
    with pytest.raises(ValueError, match="sigma must be positive"):
        gaussian_window(g, sigma)


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


def test_wigner_kernel_phases_reduced_mod_n(monkeypatch):
    """phi(xi, y) = exp(i 2 pi (xi h(y) mod N) / N) bit for bit; the unreduced
    phase 2 pi xi h(y) / N is off by up to 2.6e-12 at N = 2047."""
    from gtfa import transforms

    N = 2047
    monkeypatch.setattr(transforms, "build_cyclic", build_cyclic.__wrapped__)  # keep 2047 out of the cache
    tab = wigner_kernel_odd_cyclic(N).phi.scalar_table()
    h = (N + 1) // 2 * np.arange(N) % N
    for xi in np.array_split(np.arange(N), 8):
        assert np.array_equal(tab[xi], np.exp(2j * np.pi * (np.outer(xi, h) % N) / N))


@pytest.mark.parametrize("N", [7, 129, 513])
def test_wigner_kernel_bits_match_dual_table_columns(N):
    """The lag-major table from the reduced phases is the dual's table read at
    the halving map, bit for bit, and phi^T is C-ordered."""
    tab = wigner_kernel_odd_cyclic(N).phi.scalar_table()
    want = build_cyclic(N)[1].table[:, (N + 1) // 2 * np.arange(N) % N]
    assert tab.tobytes() == want.tobytes() and tab.T.flags.c_contiguous


def test_wigner_kernel_makes_no_dual_table(monkeypatch, rng):
    """Building the kernel, one transform on the FFT route and reading the
    kernel's phi leave the dual's N^2 table unmade."""
    monkeypatch.setattr(transforms, "build_cyclic", build_cyclic.__wrapped__)  # a dual of its own
    k = wigner_kernel_odd_cyclic(385)
    u = random_signal(k.group, rng)
    cohen_transform(k, u, u)
    assert groups._fft_shape(k.dual) == (385,) and "table" not in vars(k.dual)
    assert k.phi.scalar_table().shape == (385, 385) and "table" not in vars(k.dual)


def test_wigner_two_routes(rng):
    """wigner_odd_cyclic and the Cohen transform of the Wigner kernel against
    the paper's direct sum, within 1e-12 of its largest entry, for u != v on
    the naive route (7) and the FFT route (129)."""
    for N in (7, 129):
        g, _ = build_cyclic(N)
        u, v = random_signal(g, rng), random_signal(g, rng)
        (want,) = wigner_odd_cyclic_direct(u, v).runs
        for D in (wigner_odd_cyclic(u, v), cohen_transform(wigner_kernel_odd_cyclic(N), u, v)):
            assert np.abs(D.runs[0] - want).max() <= 1e-12 * np.abs(want).max()


def test_wigner_refuses_a_permuted_dual(tmp_path, rng):
    """cyclic:7 through a group file: with the characters in cyclic:7's order
    the Wigner transform is the built group's, on the file's group; with
    characters 2 and 5 swapped the group is cyclic:7's, its dual is not, and
    the transform, being the Cohen transform of cyclic:7's kernel, is refused."""
    g, d = build_cyclic(7)
    u = random_signal(g, rng)

    def on_file(order):
        path = tmp_path / "z7.grp"
        path.write_text(group_file_text(g, stack_irreps([Irrep(1, d.irreps[k].matrices) for k in order])))
        return Signal(load_group_file(path)[0], u.values)

    same = on_file(range(7))
    W = wigner_odd_cyclic(same, same)
    assert W.group is same.group and W.runs[0].tobytes() == wigner_odd_cyclic(u, u).runs[0].tobytes()
    swapped = on_file((0, 1, 5, 3, 4, 2, 6))
    with pytest.raises(ValueError, match="dual mismatch: kernel and signal"):
        wigner_odd_cyclic(swapped, swapped)


def test_wigner_accepts_a_near_equal_file_dual(tmp_path, rng):
    """A cyclic:7 file with the characters to 15 significant digits lists
    cyclic:7's dual within ALG_TOL: the Wigner transform runs on its group."""
    _, g = near_equal_cyclic7(tmp_path)
    u = random_signal(build_cyclic(7)[0], rng)
    on_file = Signal(g, u.values)
    W, (want,) = wigner_odd_cyclic(on_file, on_file), wigner_odd_cyclic(u, u).runs
    assert W.group is g and np.abs(W.runs[0] - want).max() <= 1e-12 * np.abs(want).max()


def test_rihaczek_makes_no_dual_table(rng):
    """On the FFT route the Rihaczek distribution, the Cohen transform of the
    kn kernel, never makes the dual's table (64 MiB at cyclic:2048)."""
    g, d = build_cyclic.__wrapped__(2048)
    u = random_signal(g, rng)
    R = rihaczek(u, u)
    assert "table" not in vars(d) and R.runs[0].shape == (2048, 2048, 1, 1)


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
