import os
import subprocess
import sys

import numpy as np
import pytest

import gtfa
from gtfa.groups import FiniteGroup, Irrep, build_cyclic, build_dihedral, build_product, load_group_file
from oracles import stack_irreps


def fresh_python(code: str) -> str:
    """Standard output of `python -c code` in a fresh process that imports
    this gtfa."""
    path = [os.path.dirname(os.path.dirname(gtfa.__file__))] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


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


def check_lag_form_against_phi(k, phi, rng):
    """`cohen_transform` through kernel k's lag form against the product with the
    ambiguity table phi (a kernel without a lag form), within 1e-12 of the largest
    entry: u = v, u != v and a batch of the two pairs; k makes no phi of its own."""
    from gtfa.harmonic import Signal, random_signal
    from gtfa.transforms import CohenKernel, cohen_transform

    assert k.lag is not None
    g, dense = k.group, CohenKernel("dense", phi)
    u, v = random_signal(g, rng), random_signal(g, rng)
    pairs = [(u, u), (u, v), (Signal(g, np.stack([u.values, u.values])), Signal(g, np.stack([u.values, v.values])))]
    for a, b in pairs:
        got = cohen_transform(k, a, b).runs[0]
        want = cohen_transform(dense, a, b).runs[0]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert "phi" not in vars(k)


def group_file_text(group, dual, digits=17):
    """Serialize a group and dual to the Group Table Format (test oracle), each
    number to `digits` significant digits."""
    lines = [f"group {group.order}", f"identity {group.identity}"]
    lines += [" ".join(str(v) for v in row) for row in group.cayley]
    lines.append(f"irreps {len(dual.irreps)}")
    for eta in dual.irreps:
        lines.append(f"dim {eta.dim}")
        for x in range(group.order):
            for r in range(eta.dim):
                lines.append(" ".join(
                    f"{eta.matrices[x, r, c].real:.{digits}g} {eta.matrices[x, r, c].imag:.{digits}g}"
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
    path.write_text(group_file_text(relabelled, stack_irreps(irreps)))
    return load_group_file(path)


def reordered_cyclic4(tmp_path):
    """cyclic:4 through a group file that lists its characters in the order
    0, 3, 2, 1: a group equal to the built one, with another dual."""
    g, d = build_cyclic(4)
    path = tmp_path / "z4.grp"
    path.write_text(group_file_text(g, stack_irreps([Irrep(1, d.irreps[k].matrices) for k in (0, 3, 2, 1)])))
    return load_group_file(path)


def near_equal_cyclic7(tmp_path):
    """cyclic:7 through a group file whose characters are written to 15
    significant digits: the labelling and character order of cyclic:7, and a
    dual table that differs from the built one in the last bits only."""
    path = tmp_path / "z7-15.grp"
    path.write_text(group_file_text(*build_cyclic(7), digits=15))
    g, d = load_group_file(path)
    err = np.abs(d.table - build_cyclic(7)[1].table).max()
    assert 0 < err <= 1e-15
    return f"file:{path}", g


def corrupt_table(text, case):
    """A CSV table with one defect, and the line number its reader must report.

    The cases are the corruptions a reader could silently accept or misplace:
    a negative, fractional or far out-of-range index, a non-finite value, an
    extra field, a missing row, a repeated row, a defect after a blank line
    (which still counts as a line), in tables with a `col` field, an index
    in a hole of the index box (`col = 1` where the irrep has dimension 1),
    and fields that Python's int() and float() read but no writer emits: an
    index `0_0`, `+0` or ` 0` for 0, and a value `1_0.5` for 10.5."""
    lines = text.splitlines()
    first = lines[0].split(",")
    line = 1
    if case == "negative-index":
        lines[0] = ",".join(["-1"] + first[1:])
    elif case == "fractional-index":
        lines[0] = ",".join(["1.7"] + first[1:])
    elif case == "large-index":
        lines[0] = ",".join(["1000000"] + first[1:])
    elif case == "non-finite":
        lines[0] = ",".join(first[:-1] + ["nan"])
    elif case == "extra-field":
        lines[0] = ",".join(first + ["0"])
    elif case == "missing-row":
        lines.pop()
        line = len(lines)
    elif case == "duplicate-row":
        lines[1] = lines[0]
        line += 1
    elif case == "after-blank-line":
        lines[0] = ",".join(["-1"] + first[1:])
        lines.insert(0, "")
        line += 1
    elif case == "index-hole":
        lines[0] = ",".join(first[:3] + ["1"] + first[4:])
    elif case == "underscore-index":
        lines[0] = ",".join([f"{first[0]}_0"] + first[1:])
    elif case == "plus-index":
        lines[0] = ",".join([f"+{first[0]}"] + first[1:])
    elif case == "space-index":
        lines[0] = ",".join([f" {first[0]}"] + first[1:])
    elif case == "underscore-value":
        lines[0] = ",".join(first[:-2] + ["1_0.5"] + first[-1:])
    return "\n".join(lines) + "\n", line


CORRUPTIONS = ["negative-index", "fractional-index", "non-finite", "missing-row", "duplicate-row",
               "large-index", "extra-field", "after-blank-line", "index-hole",
               "underscore-index", "plus-index", "space-index", "underscore-value"]


def corruptions(table):
    """The CORRUPTIONS that apply to a table kind: only the block tables (tf,
    and the kernel layout of tests/test_signalio.py) have the `col` field that
    "index-hole" sets."""
    return [c for c in CORRUPTIONS if c != "index-hole" or table in ("tf", "kernel")]
