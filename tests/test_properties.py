import numpy as np
import pytest

from gtfa.groups import build_cyclic, build_dihedral
from gtfa.properties import (
    check_frequency_margins,
    check_inner_invariant,
    check_l2_bound,
    check_normalized,
    check_onb_resolution,
    check_positive,
    check_symmetric,
    check_time_margins,
    check_unitary,
    report_csv,
    report_lines,
    run_all_checks,
)
from gtfa.transforms import (
    CohenKernel,
    anti_kn_kernel,
    born_jordan_cyclic_kernel,
    commutator_kernel,
    gaussian_window,
    kn_kernel,
    margin_fix_kernel,
    spectrogram_kernel,
    wigner_kernel_odd_cyclic,
)
from gtfa.tfplane import AmbiguityFunction
from test_transforms import bj_position_pair


def unit_gaussian_spectrogram(N=16, sigma=2.0):
    g, _ = build_cyclic(N)
    return spectrogram_kernel(gaussian_window(g, sigma))


def test_normalized_examples():
    assert check_normalized(kn_kernel(build_cyclic(8)[1])).holds
    assert check_normalized(born_jordan_cyclic_kernel(12)).holds
    f, gs = bj_position_pair(6)
    rep = check_normalized(commutator_kernel(f, gs))
    assert not rep.holds and rep.max_violation == pytest.approx(1.0)


def test_time_margin_examples():
    assert check_time_margins(kn_kernel(build_dihedral(3)[1])).holds
    assert not check_time_margins(unit_gaussian_spectrogram()).holds
    assert check_time_margins(born_jordan_cyclic_kernel(9)).holds


def test_frequency_margin_examples():
    assert check_frequency_margins(anti_kn_kernel(build_dihedral(4)[1])).holds
    assert check_frequency_margins(born_jordan_cyclic_kernel(9)).holds
    f, gs = bj_position_pair(6)
    assert not check_frequency_margins(commutator_kernel(f, gs)).holds


def test_symmetric_examples():
    assert not check_symmetric(kn_kernel(build_cyclic(5)[1])).holds
    assert check_symmetric(wigner_kernel_odd_cyclic(5)).holds
    assert check_symmetric(unit_gaussian_spectrogram()).holds
    assert check_symmetric(born_jordan_cyclic_kernel(8)).holds


def test_positive_examples():
    assert check_positive(unit_gaussian_spectrogram()).holds
    assert not check_positive(kn_kernel(build_cyclic(8)[1])).holds
    assert not check_positive(born_jordan_cyclic_kernel(8)).holds


def test_unitary_examples():
    assert check_unitary(kn_kernel(build_dihedral(3)[1])).holds
    assert check_unitary(anti_kn_kernel(build_dihedral(3)[1])).holds
    rep = check_unitary(born_jordan_cyclic_kernel(4))
    assert not rep.holds


def test_inner_examples():
    assert check_inner_invariant(kn_kernel(build_dihedral(3)[1])).holds
    # every kernel on a commutative group is inner
    assert check_inner_invariant(born_jordan_cyclic_kernel(6)).holds
    # perturbing one off-axis block on D3 breaks inner invariance
    g, d = build_dihedral(3)
    base = kn_kernel(d)
    blocks = [b.copy() for b in base.phi.blocks]
    two = next(i for i, e in enumerate(d.irreps) if e.dim == 2)
    blocks[two][1] += np.array([[0.5, 0.0], [0.0, 0.0]])  # y = 1 is a rotation
    bad = CohenKernel("perturbed", AmbiguityFunction(g, d, blocks))
    assert not check_inner_invariant(bad).holds


def _inner_by_element_loop(k):
    """(max violation, witnesses in (irrep, z, y) order) of inner invariance,
    one conjugating element z at a time."""
    g = k.group
    worst, wit = 0.0, []
    for kk, (xi, b) in enumerate(zip(k.dual.irreps, k.phi.blocks)):
        for z in range(g.order):
            lhs = b[g.cayley[g.cayley[z], g.inverse[z]]]  # phi(xi, z y z^{-1})
            rhs = xi.matrices[z] @ b @ xi.matrices[z].conj().T
            diff = np.abs(lhs - rhs).max(axis=(1, 2))
            worst = max(worst, float(diff.max()))
            wit += [(kk, int(y), z) for y in np.nonzero(diff > 1e-9)[0]]
    return worst, wit


def test_inner_invariant_matches_element_loop(corpus_and_file_group, rng):
    g, d = corpus_and_file_group
    kn = kn_kernel(d)
    perturbed = [b + 1e-3 * rng.standard_normal(b.shape) for b in kn.phi.blocks]
    for k in [kn, spectrogram_kernel(gaussian_window(g, 2.0)),
              CohenKernel("perturbed", AmbiguityFunction(g, d, perturbed))]:
        rep = check_inner_invariant(k, verify=False)
        worst, wit = _inner_by_element_loop(k)
        assert abs(rep.max_violation - worst) <= 1e-14
        assert rep.witness_count == len(wit)
        assert rep.witnesses == wit[:16]
        assert rep.holds == (worst <= 1e-9)


def test_l2_bound_examples():
    assert check_l2_bound(kn_kernel(build_cyclic(6)[1])).holds
    assert check_l2_bound(born_jordan_cyclic_kernel(6)).holds
    g, d = build_cyclic(4)
    zero = CohenKernel("zero", AmbiguityFunction.from_scalar_table(g, d, np.zeros((4, 4))))
    assert check_l2_bound(zero).holds


def test_l2_bound_is_equality_for_kn(rng):
    # the Kohn-Nirenberg bound is attained: ||R(u,v)|| = ||u|| ||v||
    from gtfa.harmonic import norm, random_signal
    from gtfa.tfplane import tf_norm
    from gtfa.transforms import rihaczek

    g, _ = build_dihedral(4)
    for _ in range(20):
        u, v = random_signal(g, rng), random_signal(g, rng)
        assert abs(tf_norm(rihaczek(u, v)) - norm(u) * norm(v)) <= 1e-10


def test_onb_resolution_examples():
    assert check_onb_resolution(kn_kernel(build_cyclic(4)[1])).holds
    assert check_onb_resolution(born_jordan_cyclic_kernel(5)).holds
    assert check_onb_resolution(margin_fix_kernel(build_dihedral(3)[1])).holds


LIBRARY = [
    lambda: kn_kernel(build_cyclic(8)[1]),
    lambda: anti_kn_kernel(build_cyclic(8)[1]),
    lambda: kn_kernel(build_dihedral(3)[1]),
    lambda: born_jordan_cyclic_kernel(6),
    lambda: born_jordan_cyclic_kernel(7),
    lambda: wigner_kernel_odd_cyclic(5),
    lambda: unit_gaussian_spectrogram(),
    lambda: margin_fix_kernel(build_dihedral(3)[1]),
    lambda: spectrogram_kernel(gaussian_window(build_dihedral(3)[0], 2.0)),
]


@pytest.mark.parametrize("make", LIBRARY)
def test_verdict_agrees_with_cross_check(make):
    """The finite kernel-side verdict must agree with the sampled evidence:
    a holding condition shows residual <= 1e-8; a grossly failing one
    (violation >= 1e-3) leaves a sampled trace >= 1e-6."""
    k = make()
    for rep in run_all_checks(k, verify=True):
        if rep.cross_check is None:
            continue
        if rep.holds:
            assert rep.cross_check <= 1e-8, (k.name, rep.name)
        elif rep.max_violation >= 1e-3:
            assert rep.cross_check >= 1e-6, (k.name, rep.name)


def test_reports_are_deterministic():
    k = unit_gaussian_spectrogram()
    first = report_lines(run_all_checks(k))
    second = report_lines(run_all_checks(k))
    assert first == second


def test_report_formats():
    k = kn_kernel(build_cyclic(5)[1])
    reps = run_all_checks(k, verify=False)
    lines = report_lines(reps).splitlines()
    assert all(ln.startswith("PROPERTY ") for ln in lines)
    assert any("HOLDS" in ln for ln in lines) and any("FAILS" in ln for ln in lines)
    csv = report_csv(reps)
    assert csv.splitlines()[0] == "name,holds,max_violation,witnesses,cross_check"
    assert len(csv.splitlines()) == len(reps) + 1


def test_witnesses_identify_offenders():
    rep = check_unitary(born_jordan_cyclic_kernel(4), verify=False)
    assert rep.witness_count > 0
    assert all(len(w) == 2 for w in rep.witnesses)
    # the zero-divisor block (2, 2) is among the worst offenders
    assert (2, 2) in rep.witnesses
