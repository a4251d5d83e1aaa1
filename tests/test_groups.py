import numpy as np
import pytest

from conftest import builtin_corpus, group_file_text, relabelled_dihedral6
from gtfa.groups import (
    GroupTableError,
    build_cyclic,
    build_dihedral,
    build_product,
    group_fourier,
    group_inverse_fourier,
    is_cyclic,
    load_group_file,
    validate,
)


def _char_key(dual):
    """Character table as a sortable, rounding-stable set of rows."""
    rows = []
    for eta in dual.irreps:
        rows.append(tuple((round(c.real, 9), round(c.imag, 9)) for c in eta.characters))
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
        assert abs(two.characters[x]) < 1e-12


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
    chars = np.stack([eta.characters for eta in d.irreps])
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


# ---------------------------------------------------------------------------
# The group-Fourier primitives against the naive per-irrep sums
# ---------------------------------------------------------------------------


def _check_primitives_against_naive_sums(g, d, rng):
    n = g.order
    for shape in [(n,), (n, 5)]:
        w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = group_fourier(d, w)
        for eta, b in zip(d.irreps, got):
            # (1/|G|) sum_x w[x, ...] eta(x)^*
            expect = sum(np.asarray(w[x])[..., None, None] * eta.matrices[x].conj().T
                         for x in range(n)) / n
            assert b.shape == expect.shape
            assert np.abs(b - expect).max() <= 1e-12

        blocks = [rng.standard_normal(shape[1:] + (eta.dim, eta.dim))
                  + 1j * rng.standard_normal(shape[1:] + (eta.dim, eta.dim))
                  for eta in d.irreps]
        got = group_inverse_fourier(d, blocks)
        # sum_k d_k tr(eta_k(x) B_k[...])
        expect = np.array([
            sum(eta.dim * np.trace(eta.matrices[x] @ b, axis1=-2, axis2=-1)
                for eta, b in zip(d.irreps, blocks))
            for x in range(n)
        ])
        assert got.shape == expect.shape
        assert np.abs(got - expect).max() <= 1e-12
        assert max(np.abs(a - b).max()
                   for a, b in zip(group_fourier(d, got), blocks)) <= 1e-12


def test_primitives_match_naive_sums(group_and_dual, rng):
    _check_primitives_against_naive_sums(*group_and_dual, rng)


def test_primitives_match_naive_sums_on_unsorted_file_group(tmp_path, rng):
    g, d = relabelled_dihedral6(tmp_path)
    assert [e.dim for e in d.irreps] == [2, 1, 1, 2, 1, 1]
    assert not np.array_equal(g.cayley, build_dihedral(6)[0].cayley)
    assert [(first, end, dim) for first, end, dim, _ in d.runs] == \
        [(0, 1, 2), (1, 3, 1), (3, 4, 2), (4, 6, 1)]
    _check_primitives_against_naive_sums(g, d, rng)
