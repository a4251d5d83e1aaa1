import numpy as np
import pytest

from gtfa.groups import FiniteGroup, Irrep, UnitaryDual, build_cyclic, build_dihedral, build_product, load_group_file


def builtin_corpus():
    """The standard small-group corpus used across the suite."""
    groups = [build_cyclic(N) for N in (2, 3, 4, 8, 16)]
    groups += [build_dihedral(3), build_dihedral(4)]
    groups += [build_product(build_cyclic(2), build_dihedral(3))]
    return groups


@pytest.fixture
def rng():
    return np.random.default_rng(0x5EED)


@pytest.fixture(params=builtin_corpus(), ids=lambda gd: gd[0].name)
def group_and_dual(request):
    return request.param


RELABELLED_D6 = "file:relabelled-dihedral:6"


@pytest.fixture(params=[*builtin_corpus(), RELABELLED_D6],
                ids=lambda gd: gd if isinstance(gd, str) else gd[0].name)
def corpus_and_file_group(request, tmp_path_factory):
    """The corpus plus the file-loaded, relabelled dihedral:6, whose dual
    interleaves irrep dimensions 2,1,1,2,1,1."""
    if request.param == RELABELLED_D6:
        return relabelled_dihedral6(tmp_path_factory.mktemp("d6"))
    return request.param


def max_block_diff(a, b):
    return max(np.abs(x - y).max() for x, y in zip(a.blocks, b.blocks))


def group_file_text(group, dual):
    """Serialize a group and dual to the Group Table Format (test oracle)."""
    lines = [f"group {group.order}", f"identity {group.identity}"]
    lines += [" ".join(str(v) for v in row) for row in group.cayley]
    lines.append(f"irreps {len(dual.irreps)}")
    for eta in dual.irreps:
        lines.append(f"dim {eta.dim}")
        for x in range(group.order):
            for r in range(eta.dim):
                lines.append(" ".join(
                    f"{eta.matrices[x, r, c].real:.17g} {eta.matrices[x, r, c].imag:.17g}"
                    for c in range(eta.dim)
                ))
    return "\n".join(lines) + "\n"


def relabelled_dihedral6(tmp_path):
    """dihedral:6 through a group file, with its elements relabelled and its
    irreps reordered so that dimensions run 2, 1, 1, 2, 1, 1."""
    g, d = build_dihedral(6)
    p = np.random.default_rng(6).permutation(g.order)  # old element x -> p[x]
    cayley = np.empty_like(g.cayley)
    cayley[np.ix_(p, p)] = p[g.cayley]
    inverse = np.empty_like(g.inverse)
    inverse[p] = p[g.inverse]
    irreps = []
    for k in (4, 0, 1, 5, 2, 3):
        mats = np.empty_like(d.irreps[k].matrices)
        mats[p] = d.irreps[k].matrices
        irreps.append(Irrep(d.irreps[k].dim, mats))
    relabelled = FiniteGroup(g.order, cayley, int(p[g.identity]), inverse)
    path = tmp_path / "d6.grp"
    path.write_text(group_file_text(relabelled, UnitaryDual(irreps)))
    return load_group_file(path)


def corrupt_table(text, case, header_lines=0):
    """A CSV table with one defect, and the line number its reader must report.

    The cases are the corruptions a row-by-row reader could silently accept:
    a negative or fractional index, a non-finite value, a missing row and a
    repeated row."""
    lines = text.splitlines()
    first = lines[header_lines].split(",")
    line = header_lines + 1
    if case == "negative-index":
        lines[header_lines] = ",".join(["-1"] + first[1:])
    elif case == "fractional-index":
        lines[header_lines] = ",".join(["1.7"] + first[1:])
    elif case == "non-finite":
        lines[header_lines] = ",".join(first[:-1] + ["nan"])
    elif case == "missing-row":
        lines.pop()
        line = len(lines)
    elif case == "duplicate-row":
        lines[header_lines + 1] = lines[header_lines]
        line += 1
    return "\n".join(lines) + "\n", line


CORRUPTIONS = ["negative-index", "fractional-index", "non-finite", "missing-row", "duplicate-row"]
