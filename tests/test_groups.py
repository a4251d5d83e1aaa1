import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import oracles
from conftest import builtin_corpus, fresh_python, group_file_text, relabelled_dihedral6, reordered_cyclic4
from gtfa import groups
from gtfa.groups import (
    FiniteGroup,
    GroupTableError,
    build_cyclic,
    build_dihedral,
    block_product,
    build_product,
    group_fourier,
    group_inverse_fourier,
    is_cyclic,
    load_group_file,
    validate,
)
from gtfa.harmonic import Signal
from gtfa.transforms import cohen_transform, kn_kernel


def _char_key(dual):
    """Character table as a sortable, rounding-stable set of rows."""
    rows = []
    for eta in dual.irreps:
        rows.append(tuple((round(c.real, 9), round(c.imag, 9)) for c in oracles.characters(eta)))
    return sorted(rows)


def test_cyclic_one_element():
    g, d = build_cyclic(1)
    assert g.order == 1
    assert len(d.irreps) == 1 and d.irreps[0].dim == 1
    assert validate(g, d) == []


def test_cyclic_character_value():
    _, d = build_cyclic(4)
    # eta_2(3) = e^{i 3 pi} = -1
    assert d.irreps[2].matrices[3, 0, 0] == pytest.approx(-1)
    # Phases are taken mod N, so large orders keep full accuracy.  The
    # builders are called past their caches, so the large tables are freed.
    _, d = build_cyclic.__wrapped__(2048)
    k = np.arange(2048)
    assert np.all(d.table[np.outer(k, k) % 2048 == 0] == 1)
    _, d = build_dihedral.__wrapped__(512)
    i = np.arange(512)
    for h, eta in enumerate(d.irreps[4:], start=1):  # four 1-dim irreps, then h = 1, 2, ...
        assert eta.dim == 2
        w = np.exp(2j * np.pi * ((h * i) % 512) / 512)
        assert np.abs(eta.matrices[:512, 0, 0] - w).max() <= 1e-15
        assert np.abs(eta.matrices[:512, 1, 1] - w.conj()).max() <= 1e-15


@pytest.mark.parametrize("build,first", [(build_cyclic, 1), (build_dihedral, 3)])
def test_group_cache_evicts_the_oldest(build, first):
    """Past GROUP_CACHE_SIZE other groups, the oldest is rebuilt: a new pair,
    equal by value, so the old dual still matches the new one."""
    from gtfa.groups import require_same_dual, require_same_group

    assert groups.GROUP_CACHE_SIZE >= 64  # retrieval-sweep's 47 orders stay cached
    assert build.cache_info().maxsize == groups.GROUP_CACHE_SIZE
    watched = build(7)
    others = [n for n in range(first, first + groups.GROUP_CACHE_SIZE + 1) if n != 7]
    for n in others[:-1]:
        build(n)
    assert build(7) is watched  # still cached: the other orders just fill the cache
    for n in others:
        build(n)
    assert build.cache_info().currsize == groups.GROUP_CACHE_SIZE
    rebuilt = build(7)
    assert rebuilt is not watched
    require_same_group(watched[0], rebuilt[0])
    require_same_dual(watched[1], rebuilt[1])


def test_lag_index_is_the_transposed_right_division(corpus_and_file_group):
    g, _ = corpus_and_file_group
    L = g.lag_index
    assert L is g.lag_index and L.flags.c_contiguous
    assert np.array_equal(L, oracles.right_div(g).T)  # L[y, x] = x y^{-1}


def test_dropped_group_frees_its_lag_index():
    """The table is cached on its group: a group outside the builder caches
    takes its table with it when dropped."""
    g, d = build_product(build_cyclic(4), build_cyclic(8))
    ref = weakref.ref(g.lag_index)
    assert ref() is g.lag_index
    del g, d
    gc.collect()
    assert ref() is None


def test_cyclic_rejects_zero():
    with pytest.raises(ValueError):
        build_cyclic(0)


def test_dihedral_rejects_small():
    with pytest.raises(ValueError):
        build_dihedral(2)


def test_dihedral_dims():
    _, d3 = build_dihedral(3)
    assert sorted(d3.dims.tolist()) == [1, 1, 2]
    _, d4 = build_dihedral(4)
    assert sorted(d4.dims.tolist()) == [1, 1, 1, 1, 2]
    assert int(np.sum(d4.dims**2)) == 8


def test_dihedral_reflections_traceless():
    g, d = build_dihedral(3)
    two = next(eta for eta in d.irreps if eta.dim == 2)
    for x in range(3, 6):  # reflection indices
        assert abs(oracles.characters(two)[x]) < 1e-12


def test_product_klein():
    g, d = build_product(build_cyclic(2), build_cyclic(2))
    assert g.order == 4
    assert all(eta.dim == 1 for eta in d.irreps)
    assert validate(g, d) == []


def test_product_z2_d3():
    g, d = build_product(build_cyclic(2), build_dihedral(3))
    assert g.order == 12
    assert [eta.dim for eta in d.irreps] == [1, 1, 2, 1, 1, 2]
    assert validate(g, d) == []


def test_product_with_trivial_group():
    ga, da = build_cyclic(5)
    g, d = build_product((ga, da), build_cyclic(1))
    assert g.order == 5
    assert np.array_equal(g.cayley, ga.cayley)
    assert _char_key(da) == _char_key(d)


def test_all_builtins_validate(group_and_dual):
    g, d = group_and_dual
    assert validate(g, d) == []


def test_schur_orthogonality(group_and_dual):
    g, d = group_and_dual
    n = g.order
    for eta in d.irreps:
        m = eta.matrices  # (n, d, d)
        gram = np.einsum("xjk,xlm->jklm", m, m.conj()) / n
        expect = np.einsum("jl,km->jklm", np.eye(eta.dim), np.eye(eta.dim)) / eta.dim
        assert np.abs(gram - expect).max() < 1e-8


def test_contragredient_closure(group_and_dual):
    g, d = group_and_dual
    chars = np.stack([oracles.characters(eta) for eta in d.irreps])
    for eta in d.irreps:
        contra = np.trace(
            eta.matrices[g.inverse].transpose(0, 2, 1), axis1=1, axis2=2
        )
        dots = np.abs(chars.conj() @ contra / g.order)
        assert dots.max() > 1 - 1e-8  # matches some member with unit overlap


# ---------------------------------------------------------------------------
# Group Table Format
# ---------------------------------------------------------------------------


def _z3_file_text(n_irreps=3, corrupt=None):
    lines = ["# Z/3 with its three characters", "group 3", "identity 0"]
    lines += ["0 1 2", "1 2 0", "2 0 1", f"irreps {n_irreps}"]
    w = np.exp(2j * np.pi / 3)
    for k in range(n_irreps):
        lines.append("dim 1")
        for x in range(3):
            v = w ** (k * x)
            if corrupt == (k, x):
                v = 0.2 + 0.3j
            lines.append(f"{v.real:.17g} {v.imag:.17g}")
    return "\n".join(lines) + "\n"


def test_load_group_file_roundtrip(tmp_path):
    p = tmp_path / "z3.grp"
    p.write_text(_z3_file_text())
    g, d = load_group_file(p)
    gc, dc = build_cyclic(3)
    assert np.array_equal(g.cayley, gc.cayley)
    # same character tables up to irrep ordering
    assert _char_key(d) == _char_key(dc)


def test_load_group_file_non_unitary(tmp_path):
    p = tmp_path / "bad.grp"
    p.write_text(_z3_file_text(corrupt=(1, 1)))
    with pytest.raises(GroupTableError) as exc:
        load_group_file(p)
    assert "irrep 1" in str(exc.value)


def test_load_group_file_incomplete_dual(tmp_path):
    p = tmp_path / "short.grp"
    p.write_text(_z3_file_text(n_irreps=2))
    with pytest.raises(GroupTableError, match="completeness"):
        load_group_file(p)


def test_load_group_file_parse_error_lineno(tmp_path):
    text = _z3_file_text().splitlines()
    text[4] = "1 2"  # short Cayley row (line 5)
    p = tmp_path / "parse.grp"
    p.write_text("\n".join(text) + "\n")
    with pytest.raises(GroupTableError, match="line 5"):
        load_group_file(p)


def test_load_group_file_dihedral_roundtrip(tmp_path):
    g, d = build_dihedral(4)
    p = tmp_path / "d4.grp"
    p.write_text(group_file_text(g, d))
    g2, d2 = load_group_file(p)
    assert np.array_equal(g.cayley, g2.cayley)
    assert [e.dim for e in d2.irreps] == [e.dim for e in d.irreps]
    assert validate(g2, d2) == []


def test_load_group_file_bad_associativity(tmp_path):
    lines = ["group 2", "identity 0", "0 1", "1 1", "irreps 2",
             "dim 1", "1 0", "1 0", "dim 1", "1 0", "-1 0"]
    p = tmp_path / "assoc.grp"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(GroupTableError):
        load_group_file(p)


@pytest.mark.parametrize("N", [1, 2, 5, 8])
def test_group_file_cyclic_roundtrips(tmp_path, N):
    g, d = build_cyclic(N)
    p = tmp_path / f"z{N}.grp"
    p.write_text(group_file_text(g, d))
    g2, d2 = load_group_file(p)
    assert np.array_equal(g.cayley, g2.cayley)
    assert validate(g2, d2) == []


def test_equal_groups_hash_equal(tmp_path):
    p = tmp_path / "z3.grp"
    p.write_text(_z3_file_text())
    g1, _ = load_group_file(p)
    g2, _ = load_group_file(p)
    assert g1 is not g2
    assert g1 == g2 and hash(g1) == hash(g2)
    assert len({g1: 1, g2: 2}) == 1


@pytest.mark.parametrize("gd", builtin_corpus(), ids=lambda gd: gd[0].name)
def test_is_cyclic_means_the_cyclic_labeling(gd):
    g, _ = gd
    assert is_cyclic(g) == np.array_equal(g.cayley, build_cyclic(g.order)[0].cayley)
    assert is_cyclic(g) == g.name.startswith("cyclic:")


def test_is_cyclic_reads_one_column():
    """No |G|^2 table is built: at order 2048 one is 32 MiB."""
    import tracemalloc

    i = np.arange(2048)
    g = FiniteGroup(2048, (i[:, None] + i) % 2048, 0, -i % 2048)  # no dual to build
    tracemalloc.start()
    try:
        assert is_cyclic(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    shifted = FiniteGroup(g.order, (g.cayley + 1) % g.order, g.order - 1, (-2 - np.arange(g.order)) % g.order)
    assert not is_cyclic(shifted)  # the law x + y + 1 has identity N - 1


# ---------------------------------------------------------------------------
# The group-Fourier primitives against the naive per-irrep sums
# ---------------------------------------------------------------------------


def _check_primitives_against_naive_sums(g, d, rng):
    n = g.order
    for shape in [(n,), (n, 5), (n, 3, 5)]:
        w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = [b for run in group_fourier(d, w) for b in run]
        for eta, b in zip(d.irreps, got):
            # (1/|G|) sum_x w[x, ...] eta(x)^*
            expect = sum(np.asarray(w[x])[..., None, None] * eta.matrices[x].conj().T
                         for x in range(n)) / n
            assert b.shape == expect.shape
            assert np.abs(b - expect).max() <= 1e-12

        blocks = [rng.standard_normal(shape[1:] + (eta.dim, eta.dim))
                  + 1j * rng.standard_normal(shape[1:] + (eta.dim, eta.dim))
                  for eta in d.irreps]
        runs = oracles.stack_blocks(d, blocks)
        got = group_inverse_fourier(d, runs)
        # sum_k d_k tr(eta_k(x) B_k[...])
        expect = np.array([
            sum(eta.dim * np.trace(eta.matrices[x] @ b, axis1=-2, axis2=-1)
                for eta, b in zip(d.irreps, blocks))
            for x in range(n)
        ])
        assert got.shape == expect.shape
        assert np.abs(got - expect).max() <= 1e-12
        assert max(np.abs(a - b).max()
                   for a, b in zip(group_fourier(d, got), runs)) <= 1e-12


def test_primitives_match_naive_sums(group_and_dual, rng):
    _check_primitives_against_naive_sums(*group_and_dual, rng)


def test_primitives_match_naive_sums_on_unsorted_file_group(tmp_path, rng):
    g, d = relabelled_dihedral6(tmp_path)
    assert [e.dim for e in d.irreps] == [2, 1, 1, 2, 1, 1]
    assert not np.array_equal(g.cayley, build_dihedral(6)[0].cayley)
    assert [(first, end, dim) for first, end, dim, _ in d.runs] == \
        [(0, 1, 2), (1, 3, 1), (3, 4, 2), (4, 6, 1)]
    _check_primitives_against_naive_sums(g, d, rng)


# ---------------------------------------------------------------------------
# The FFT route of the Fourier pair against the table product, at every order
# ---------------------------------------------------------------------------

FFT_GROUPS = [gd for gd in builtin_corpus() if gd[0].name.startswith("cyclic:")]
FFT_GROUPS += [build_product(build_cyclic(4), build_cyclic(8)),
               build_product(build_cyclic(2), build_product(build_cyclic(3), build_cyclic(4))),
               build_cyclic(127), build_cyclic(128), build_cyclic(257),
               build_product(build_cyclic(16), build_cyclic(32))]


@pytest.mark.parametrize("route", ["naive", "fft"])
@pytest.mark.parametrize("gd", FFT_GROUPS, ids=lambda gd: gd[0].name)
def test_fourier_routes_match_table_product(gd, route, rng):
    """Both primitives on the built dual (the FFT route) and on the same
    characters built with no cyclic factors (the naive route), against the
    table product of the latter."""
    g, d = gd
    n = g.order
    assert int(np.prod(d.cyclic_factors)) == n
    _, naive = oracles.build_naive_cyclic(d.cyclic_factors)
    assert naive.cyclic_factors is None
    dual = d if route == "fft" else naive
    for shape in [(n,), (n, 5), (n, 3, 5)]:
        w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        expect = np.tensordot(naive.table.conj(), w, 1) / n
        (run,) = group_fourier(dual, w)
        assert run.shape == (*shape, 1, 1)
        assert np.abs(run[..., 0, 0] - expect).max() <= 1e-12 * np.abs(expect).max()
        expect = np.tensordot(naive.table.T, w, 1)
        got = group_inverse_fourier(dual, [w[..., None, None]])
        assert got.shape == shape
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


@pytest.mark.parametrize("build", [lambda n=n: build_cyclic.__wrapped__(n) for n in (1, 2, 7, 127)]
                         + [lambda: build_product(build_cyclic.__wrapped__(4), build_cyclic.__wrapped__(8))],
                         ids=["cyclic:1", "cyclic:2", "cyclic:7", "cyclic:127", "product:cyclic:4xcyclic:8"])
def test_cyclic_duals_take_the_fft_route_at_every_order(build, rng):
    """A dual with cyclic factors takes the FFT route whatever its order: the
    Fourier pair and a Cohen transform leave its table and the group's lag
    index unmade."""
    g, d = build()
    w = rng.standard_normal((g.order, 3)) + 1j * rng.standard_normal((g.order, 3))
    group_inverse_fourier(d, group_fourier(d, w))
    u = Signal(g, w[:, 0])
    cohen_transform(kn_kernel(d), u, u)
    assert "table" not in vars(d) and "lag_index" not in vars(g)


@pytest.mark.parametrize("gd", [build_cyclic(12), build_cyclic(128), build_product(build_cyclic(16), build_cyclic(8))],
                         ids=lambda gd: gd[0].name)
def test_scalar_inverse_fourier_reads_any_layout_of_its_run(gd, rng):
    """A scalar dual's one run goes to the product or the inverse DFT as its
    rows: a strided or a real run gives the bytes of its C-ordered complex copy."""
    g, d = gd
    w = rng.standard_normal((3, g.order)) + 1j * rng.standard_normal((3, g.order))
    for run in (w.T[..., None, None], w.real.T[..., None, None]):
        want = group_inverse_fourier(d, [np.ascontiguousarray(run, dtype=complex)])
        assert group_inverse_fourier(d, [run]).tobytes() == want.tobytes()


def test_scalar_inverse_fourier_at_2048_peaks_at_its_output():
    """In a fresh process, the inverse transform of a cyclic:2048 run holds
    its 64 MiB output alone (128 MiB while it staged a copy of its input)."""
    code = ("import tracemalloc, numpy as np; tracemalloc.start()\n"
            "from gtfa.groups import build_cyclic, group_inverse_fourier\n"
            "_, d = build_cyclic(2048); run = np.random.default_rng(0).standard_normal((2048, 2048, 1, 1)) * (1 + 1j)\n"
            "tracemalloc.reset_peak(); base = tracemalloc.get_traced_memory()[0]; group_inverse_fourier(d, [run])\n"
            "print(tracemalloc.get_traced_memory()[1] - base)")
    assert int(fresh_python(code)) <= 80 << 20


def test_duals_without_cyclic_factors_stay_naive(tmp_path):
    duals = [build_dihedral(3)[1], build_dihedral(64)[1],
             build_product(build_cyclic(2), build_dihedral(3))[1], reordered_cyclic4(tmp_path)[1]]
    assert all(d.cyclic_factors is None for d in duals)


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_block_product_matches_per_block_matmul(dim, rng):
    """The rank-1 sum against `@` block by block, on runs (m, B, |G|, d, d)
    and on a kernel run (m, 1, |G|, d, d) broadcast over the batch."""
    def randn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    right = randn(3, 4, 6, dim, dim)
    for left in (randn(3, 4, 6, dim, dim), randn(3, 1, 6, dim, dim)):
        (got,) = block_product([left], [right])
        expect = np.empty_like(right)
        for j, b, x in np.ndindex(*right.shape[:3]):
            expect[j, b, x] = left[j, min(b, left.shape[1] - 1), x] @ right[j, b, x]
        assert got.shape == right.shape
        assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()


# ---------------------------------------------------------------------------
# Table-first duals against the per-irrep construction (tests/oracles.py)
# ---------------------------------------------------------------------------


def _assert_same_pair(got, want):
    """Group and dual equal bit for bit: table, dims, runs, cyclic factors,
    trivial index, and every irrep's dim and matrices."""
    (g1, d1), (g2, d2) = got, want
    assert (g1.order, g1.identity, g1.name) == (g2.order, g2.identity, g2.name)
    assert np.array_equal(g1.cayley, g2.cayley) and np.array_equal(g1.inverse, g2.inverse)
    assert d1.table.dtype == d2.table.dtype and d1.table.shape == d2.table.shape
    assert d1.table.tobytes() == d2.table.tobytes()
    assert d1.dims.dtype == d2.dims.dtype and np.array_equal(d1.dims, d2.dims)
    assert d1.runs == d2.runs
    assert d1.cyclic_factors == d2.cyclic_factors and d1.trivial_index == d2.trivial_index
    assert len(d1.irreps) == len(d2.irreps) == len(d1)
    for a, b in zip(d1.irreps, d2.irreps):
        assert a.dim == b.dim
        assert a.matrices.shape == b.matrices.shape and a.matrices.tobytes() == b.matrices.tobytes()


@pytest.mark.parametrize("N", [*range(1, 65), 512])
def test_cyclic_table_matches_per_irrep_build(N):
    _assert_same_pair(build_cyclic.__wrapped__(N), oracles.build_cyclic_per_irrep(N))


@pytest.mark.parametrize("n", range(3, 17))
def test_dihedral_table_matches_per_irrep_build(n):
    _assert_same_pair(build_dihedral.__wrapped__(n), oracles.build_dihedral_per_irrep(n))


PRODUCT_FACTORS = [("cyclic", 4, "cyclic", 8), ("cyclic", 16, "cyclic", 32), ("cyclic", 1, "cyclic", 5),
                   ("cyclic", 2, "dihedral", 3), ("cyclic", 3, "dihedral", 4), ("dihedral", 5, "cyclic", 2),
                   ("dihedral", 3, "dihedral", 4), ("dihedral", 4, "dihedral", 6)]


@pytest.mark.parametrize("fa,na,fb,nb", PRODUCT_FACTORS)
def test_product_table_matches_per_irrep_build(fa, na, fb, nb):
    new = {"cyclic": build_cyclic, "dihedral": build_dihedral}
    old = {"cyclic": oracles.build_cyclic_per_irrep, "dihedral": oracles.build_dihedral_per_irrep}
    _assert_same_pair(build_product(new[fa](na), new[fb](nb)),
                      oracles.build_product_per_irrep(old[fa](na), old[fb](nb)))
    # three factors: a product dual as a factor
    inner = oracles.build_product_per_irrep(old[fa](na), old[fb](nb))
    _assert_same_pair(build_product(build_cyclic(2), build_product(new[fa](na), new[fb](nb))),
                      oracles.build_product_per_irrep(oracles.build_cyclic_per_irrep(2), inner))


FRESH = [lambda: build_cyclic.__wrapped__(61), lambda: build_cyclic.__wrapped__(512),
         lambda: build_product(build_cyclic.__wrapped__(16), build_cyclic.__wrapped__(32))]


@pytest.mark.parametrize("build", FRESH, ids=["cyclic:61", "cyclic:512", "product:cyclic:16xcyclic:32"])
def test_dual_table_is_made_on_first_read(build):
    """The cyclic and product builders pass a recipe: no table until it is
    read, then the eager construction's table, bit for bit, kept."""
    g, d = build()
    assert "table" not in vars(d)
    factors = [oracles.build_cyclic_per_irrep(n) for n in d.cyclic_factors]
    want = factors[0] if len(factors) == 1 else oracles.build_product_per_irrep(*factors)
    table = d.table
    assert d.table is table
    assert table.shape == want[1].table.shape and table.tobytes() == want[1].table.tobytes()


def test_cyclic_build_allocates_no_square_table():
    """cyclic:2048 holds O(N) arrays: its Cayley table is a window view of
    0..N-1 twice over, and its dual table is not made (64 MiB if it were)."""
    tracemalloc.start()
    try:
        g, d = build_cyclic.__wrapped__(2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert is_cyclic(g) and np.array_equal(g.cayley[5], (5 + np.arange(2048)) % 2048)


def test_require_same_dual_compares_factors_else_tables(tmp_path):
    """Duals with cyclic factors match by their factors, without reading a
    table; a file dual is compared by table and refused if permuted."""
    from gtfa.groups import require_same_dual

    a, b = build_cyclic.__wrapped__(256)[1], build_cyclic.__wrapped__(256)[1]
    require_same_dual(a, b)
    assert "table" not in vars(a) and "table" not in vars(b)
    p, q = build_product(build_cyclic(16), build_cyclic(32)), build_product(build_cyclic(32), build_cyclic(16))
    with pytest.raises(ValueError, match="dual mismatch"):
        require_same_dual(p[1], q[1])
    g4, d4 = reordered_cyclic4(tmp_path)
    with pytest.raises(ValueError, match="dual mismatch"):
        require_same_dual(build_cyclic(4)[1], d4)
    same = tmp_path / "z4.same.grp"
    same.write_text(group_file_text(*build_cyclic(4)))
    require_same_dual(build_cyclic(4)[1], load_group_file(same)[1])


def _quirky_z3_text():
    """Z/3 in forms the field grammar admits and no writer emits: comments,
    blank and indented lines, tabs, '1e0', '-0' and leading zeros."""
    w = np.exp(2j * np.pi / 3)
    lines = ["# header comment", "group 3  # order", "", "identity\t0", " 00 1 2", "1 2 -0", "2\t0 01",
             "irreps 3", "dim 1", "1e0 -0", "1 0", "1 0 # trailing comment", "dim 1"]
    lines += [f"{(w ** x).real:.17g} {(w ** x).imag:.17g}" for x in range(3)]
    lines += ["dim 1", "010e-1 0"]
    lines += [f"{(w ** (2 * x)).real:.17g} {(w ** (2 * x)).imag:.17g}" for x in (1, 2)]
    return "\n".join(lines) + "\n\n"


def _group_files(tmp_path):
    paths = []
    for gd in [build_cyclic(1), build_cyclic(5), build_cyclic(12), build_dihedral(4), build_dihedral(7),
               build_product(build_cyclic(2), build_dihedral(3))]:
        paths.append(tmp_path / f"{gd[0].name.replace(':', '_')}.grp")
        paths[-1].write_text(group_file_text(*gd))
    relabelled_dihedral6(tmp_path)
    paths.append(tmp_path / "d6.grp")  # relabelled, irreps reordered to dims 2,1,1,2,1,1
    ga, da = build_product(build_cyclic(2), build_dihedral(8))
    p = np.random.default_rng(3).permutation(ga.order)  # element x -> p[x]
    cayley = np.empty_like(ga.cayley)
    cayley[np.ix_(p, p)] = p[ga.cayley]
    inverse = np.empty_like(p)
    inverse[p] = p[ga.inverse]
    mats = [np.empty_like(eta.matrices) for eta in da.irreps]
    for m, eta in zip(mats, da.irreps):
        m[p] = eta.matrices
    relabelled = FiniteGroup(ga.order, cayley, int(p[ga.identity]), inverse)
    paths.append(tmp_path / "c2xd8.grp")
    paths[-1].write_text(group_file_text(relabelled, oracles.stack_irreps(
        [groups.Irrep(m.shape[1], m) for m in mats])))
    paths.append(tmp_path / "quirky.grp")
    paths[-1].write_text(_quirky_z3_text())
    return paths


def test_loaded_tables_match_line_loop(tmp_path):
    for path in _group_files(tmp_path):
        _assert_same_pair(load_group_file(path), oracles.load_group_file_line_loop(path))


def test_group_file_keeps_the_sign_of_zero(tmp_path):
    """'re im' pairs load as written, as in signal CSVs: `1 -0` and `-1 -0`
    keep a negative zero imaginary part, in the loader and the line loop, and
    a written built group (dihedral tables hold -0 entries) loads back bit for
    bit, so no other value of a table moves."""
    p = tmp_path / "z2.grp"
    p.write_text("group 2\nidentity 0\n0 1\n1 0\nirreps 2\ndim 1\n1 0\n1 -0\ndim 1\n1 0\n-1 -0\n")
    for load in (load_group_file, oracles.load_group_file_line_loop):
        table = load(p)[1].table
        assert table.tolist() == [[1, 1], [1, -1]]
        assert np.signbit(table.imag).tolist() == [[False, True], [False, True]]
    for gd in [build_cyclic(1), build_cyclic(12), build_dihedral(4), build_dihedral(7),
               build_product(build_cyclic(2), build_dihedral(3))]:
        p.write_text(group_file_text(*gd))
        assert load_group_file(p)[1].table.tobytes() == gd[1].table.tobytes(), gd[0].name


def _loader_faults():
    """Malformed group files, each refused with the same message by the
    loader's block checks and by the line loop."""
    ok = _z3_file_text().splitlines()

    def edit(i, new):  # the file with content line i replaced
        return "\n".join(ok[:i] + [new] + ok[i + 1:]) + "\n"

    return {
        "short cayley row": edit(4, "1 2"),
        "non-integer cayley entry": edit(4, "1 2 x"),
        "cayley entry out of range": edit(4, "1 2 3"),
        "negative group": "group 0\n",
        "bad identity line": edit(2, "identity zero"),
        "bad irreps line": edit(6, "irrep 3"),
        "zero dim": edit(7, "dim 0"),
        "bad dim keyword": edit(11, "dimension 1"),
        "pair count": edit(8, "1 0 0"),
        "malformed number": edit(9, "1 x"),
        "malformed before bad dim": "\n".join(ok[:9] + ["1 x", ok[10], "dim x"] + ok[12:]) + "\n",
        "trailing content": _z3_file_text() + "1 0\n",
        "no trivial irrep": _z3_file_text().replace("dim 1\n1 0\n1 0\n1 0\n", "dim 1\n1 0\n-1 0\n1 0\n"),
        "no inverse": "group 2\nidentity 0\n0 1\n1 1\nirreps 2\ndim 1\n1 0\n1 0\ndim 1\n1 0\n-1 0\n",
        "non-unitary": _z3_file_text(corrupt=(1, 1)),
        "incomplete dual": _z3_file_text(n_irreps=2),
        "bad associativity": edit(5, "2 1 0"),
        "plus-signed cayley entry": edit(3, "+0 1 2"),
        "underscored cayley entry": edit(4, "1 2 0_0"),
        "cayley entry beyond intp": edit(4, "1 2 99999999999999999999"),
        "underscored number": edit(9, "1_0e-1 0"),
        "plus-signed group": edit(1, "group +3"),
        "underscored dim": edit(7, "dim 1_0"),
        "no irreps": "\n".join(ok[:6] + ["irreps 0"]) + "\n",
    }


@pytest.mark.parametrize("case", _loader_faults())
def test_loader_messages_match_line_loop(tmp_path, case):
    p = tmp_path / "bad.grp"
    p.write_text(_loader_faults()[case])
    with pytest.raises(GroupTableError) as want:
        oracles.load_group_file_line_loop(p)
    with pytest.raises(GroupTableError) as got:
        load_group_file(p)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("text,message", [
    ("group 2\nidentity 0\n0 1\n1 0\nirreps 2\ndim 10000000\n1 0\n1 0\ndim 1\n1 0\n-1 0\n",
     "line 6: dim 10000000 exceeds the group"),
    ("group 3\nidentity 0\n0 1 2\n1 2 0\n2 0 1\nirreps 1\ndim 2\n" + "1 0 0 0\n0 0 1 0\n" * 3,
     "line 7: dim 2 exceeds the group: d^2 = 4 > order 3"),
    ("group 10000000\nidentity 0\n0 1\n1 0\nirreps 1\n", "line 1: group 10000000 needs 10000000 Cayley rows"),
    ("group 2\nidentity 5\n0 1\n1 0\nirreps 1\ndim 1\n1 0\n1 0\n",
     "line 2: identity 5 is not an element 0..1"),
    ("group 2\nidentity -1\n0 1\n1 0\nirreps 1\ndim 1\n1 0\n1 0\n", "line 2: identity -1 is not an element"),
    ("group 4\nidentity 0\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\nirreps 4\n"
     "dim 1\n1 0\n1 0\n1 0\n1 0\ndim 1\n1 0\n1 0\n",
     "line 13: dim 1 needs 4 lines of 're im' pairs, but only 2"),
])
def test_loader_refuses_sizes_before_allocating(tmp_path, text, message):
    """Sizes the file or the group cannot hold are refused with their line,
    before any array of that size exists (peak traced memory under 1 MB)."""
    import tracemalloc

    p = tmp_path / "big.grp"
    p.write_text(text)
    tracemalloc.start()
    try:
        with pytest.raises(GroupTableError) as exc:
            load_group_file(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value).startswith(message)
    assert peak < 1 << 20


def test_building_a_dual_makes_no_irrep_until_read(tmp_path, monkeypatch):
    made = []
    monkeypatch.setattr(groups.Irrep, "__post_init__", lambda self: made.append(self.dim))
    path = tmp_path / "d4.grp"
    path.write_text(group_file_text(*build_dihedral(4)))
    duals = [build_cyclic.__wrapped__(6)[1], build_dihedral.__wrapped__(5)[1],
             build_product(build_cyclic.__wrapped__(2), build_dihedral.__wrapped__(3))[1],
             load_group_file(path)[1]]
    assert made == []
    for d in duals:
        before = len(made)
        dims = [eta.dim for eta in d.irreps]
        assert made[before:] == dims and len(dims) == len(d)
        assert d.irreps is d.irreps and len(made) == before + len(d)  # made once
    assert made[-5:] == [1, 1, 1, 1, 2]


# ---------------------------------------------------------------------------
# validate against the per-irrep checks, on corrupted pairs
# ---------------------------------------------------------------------------


def _with_table(gd, table=None, trivial=None, cayley=None, dims=None):
    g, d = gd
    dual = groups.UnitaryDual(table=d.table if table is None else table,
                              dims=d.dims if dims is None else dims,
                              trivial_index=d.trivial_index if trivial is None else trivial)
    c = g.cayley if cayley is None else cayley
    return FiniteGroup(g.order, c, g.identity, g.inverse, dual), dual


def _corrupted_pairs():
    z3 = build_cyclic(3)
    t = z3[1].table.copy()
    t[1, 1] = 0.2 + 0.3j
    d6 = build_dihedral(6)
    blk = d6[1].table.copy()
    blk[4 + 4:4 + 8, 3] *= 1.5  # the second 2-dim irrep of the run, at element 3
    flip = build_dihedral(4)[1].table.copy()
    flip[4:] *= -1
    d8 = build_dihedral(8)
    swapped = d8[0].cayley.copy()
    swapped[[3, 5]] = swapped[[5, 3]]
    c4 = build_cyclic(4)
    two = oracles.stack_irreps([groups.Irrep(1, [[[1]], [[1]]]), groups.Irrep(1, [[[1]], [[-1]]])])
    return {
        "non-unitary": _with_table(z3, t),
        "incomplete dual": _with_table(z3, z3[1].table[:2], dims=[1, 1]),
        "bad associativity": (FiniteGroup(2, [[0, 1], [1, 1]], 0, [0, 1], two), two),
        "non-unitary block in a 2-dim run": _with_table(d6, blk),
        "wrong trivial index": _with_table(z3, trivial=1),
        "eta(e) != I": _with_table(build_dihedral(4), flip),
        "repeated irrep": _with_table(c4, c4[1].table[[0, 1, 2, 1]]),
        "swapped cayley rows": _with_table(d8, cayley=swapped),
        "wrong identity": (FiniteGroup(4, c4[0].cayley, 1, c4[0].inverse, c4[1]), c4[1]),
        "table for another order": _with_table(z3, np.ones((3, 4)), trivial=0),
    }


@pytest.mark.parametrize("case", _corrupted_pairs())
def test_validate_messages_match_per_irrep_checks(case):
    g, d = _corrupted_pairs()[case]
    errs = validate(g, d)
    assert errs and errs == oracles.validate_per_irrep(g, d)


def test_validate_matches_per_irrep_checks_on_corpus(group_and_dual):
    assert validate(*group_and_dual) == oracles.validate_per_irrep(*group_and_dual) == []


@pytest.mark.parametrize("case", ["bad associativity", "non-unitary", "non-unitary block in a 2-dim run",
                                  "swapped cayley rows"])
def test_validate_chunked_equals_unchunked(case, monkeypatch):
    g, d = _corrupted_pairs()[case]
    whole = validate(g, d)
    monkeypatch.setattr(groups, "VALIDATE_BYTES", 1)  # one element x per chunk
    assert validate(g, d) == whole
    assert groups._chunks(g.order, 17 * g.order ** 2) == [slice(x, x + 1) for x in range(g.order)]
