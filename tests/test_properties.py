import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import fresh_python
from oracles import SERIAL_CHECKS, check_l2_bound_serial, check_onb_resolution_basis_sum, scalar_runs, stack_blocks
from gtfa import groups, properties
from gtfa.groups import build_cyclic, build_dihedral, build_product
from gtfa.harmonic import random_signal
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
    bad = CohenKernel("perturbed", AmbiguityFunction(g, d, stack_blocks(d, blocks)))
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
              CohenKernel("perturbed", AmbiguityFunction(g, d, stack_blocks(d, perturbed)))]:
        rep = check_inner_invariant(k, verify=False)
        worst, wit = _inner_by_element_loop(k)
        assert abs(rep.max_violation - worst) <= 1e-14
        assert rep.witness_count == len(wit)
        assert rep.witnesses == wit[:16]
        assert rep.holds == (worst <= 1e-9)


@pytest.mark.parametrize("make", [lambda: build_dihedral(16), lambda: build_product(build_cyclic(2), build_dihedral(8)),
                                  lambda: build_dihedral(48)], ids=["dihedral-16", "c2xd8", "dihedral-48"])
def test_inner_invariant_in_blocks_of_z(make, monkeypatch, rng):
    """Every report field is the same with one z per block as with the
    default blocks: one block at order 32, several at order 96.  A perturbed
    kn kernel brings witnesses."""
    g, d = make()
    perturbed = [b + 1e-3 * rng.standard_normal(b.shape) for b in kn_kernel(d).phi.blocks]
    kernels = [kind(g, d) for kind in KINDS.values()]
    kernels.append(CohenKernel("perturbed", AmbiguityFunction(g, d, stack_blocks(d, perturbed))))
    want = [check_inner_invariant(k) for k in kernels]
    assert want[-1].witness_count > 0
    monkeypatch.setattr(groups, "VALIDATE_BYTES", 1)
    assert [check_inner_invariant(k) for k in kernels] == want


def test_inner_invariant_at_dihedral_128_peaks_in_blocks():
    """In a fresh process, the kn check at order 256 stays under 128 MiB
    (510 MiB while it held every z at once)."""
    code = ("import tracemalloc; tracemalloc.start()\n"
            "from gtfa.groups import build_dihedral; from gtfa.properties import check_inner_invariant\n"
            "from gtfa.transforms import kn_kernel\n"
            "k = kn_kernel(build_dihedral(128)[1]); tracemalloc.reset_peak(); base = tracemalloc.get_traced_memory()[0]\n"
            "assert check_inner_invariant(k).holds; print(tracemalloc.get_traced_memory()[1] - base)")
    assert int(fresh_python(code)) <= 128 << 20


def test_l2_bound_examples():
    assert check_l2_bound(kn_kernel(build_cyclic(6)[1])).holds
    assert check_l2_bound(born_jordan_cyclic_kernel(6)).holds
    g, d = build_cyclic(4)
    zero = CohenKernel("zero", AmbiguityFunction(g, d, scalar_runs(np.zeros((4, 4)))))
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


@pytest.mark.parametrize("budget, sizes", [
    (None, [16] * 6 + [4]),
    (1, [2] * 50),
    (3 * 16 * 32 ** 2, [2] * 50),
    (6 * 16 * 32 ** 2, [6] * 16 + [4]),
], ids=["default", "one-byte", "three-planes", "six-planes"])
def test_batches_are_even(budget, sizes, monkeypatch):
    """Batches of the 100 pairs at order 32 are even-sized and at least 2, so
    that Moyal partners (pairs 2i, 2i+1) share a batch: 16 with the default
    budget, 2 under budgets of fewer than four planes."""
    if budget is not None:
        monkeypatch.setattr(properties, "BATCH_BYTES", budget)
    batches = properties._batches(build_dihedral(16)[0], 100)
    assert [b.stop - b.start for b in batches] == sizes
    assert batches[0].start == 0 and batches[-1].stop == 100
    assert all(a.stop == b.start for a, b in zip(batches, batches[1:]))


@pytest.mark.parametrize("budget", [None, 1])
@pytest.mark.parametrize("make", [
    lambda: kn_kernel(build_dihedral(16)[1]),
    lambda: spectrogram_kernel(gaussian_window(build_dihedral(4)[0], 2.0)),
    lambda: margin_fix_kernel(build_product(build_cyclic(2), build_dihedral(3))[1]),
    lambda: born_jordan_cyclic_kernel(9),
])
def test_l2_bound_matches_serial_oracle(make, budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(properties, "BATCH_BYTES", budget)
    k = make()
    got, expect = check_l2_bound(k), check_l2_bound_serial(k)
    assert got.holds == expect.holds
    assert abs(got.max_violation - expect.max_violation) <= 1e-13


@pytest.mark.parametrize("count", [50, 20, 200])
def test_seeded_signals_are_the_serial_draws(count):
    """The one-draw batches of symmetric, positive (50), inner (20) and the
    sampled pass (200, pair i the signals 2i and 2i+1) are the serial
    random_signal draws from SEED, bit for bit."""
    g, _ = build_dihedral(16)
    serial = np.random.default_rng(properties.SEED)
    batch = properties._seeded_signals(g, count)
    assert batch.values.shape == (count, g.order)
    for values in batch.values:
        assert np.array_equal(values, random_signal(g, serial).values)


def test_run_all_checks_makes_one_draw(monkeypatch):
    """The sampled pass, symmetric and positive's 50 signals and inner's 20
    come from one seeded draw per run_all_checks call."""
    draws, draw = [], properties._seeded_signals
    monkeypatch.setattr(properties, "_seeded_signals", lambda g, count: draws.append(count) or draw(g, count))
    run_all_checks(margin_fix_kernel(build_dihedral(4)[1]))
    assert draws == [200]


KINDS = {
    "kn": lambda g, d: kn_kernel(d),
    "anti-kn": lambda g, d: anti_kn_kernel(d),
    "margin-fix": lambda g, d: margin_fix_kernel(d),
    "spectrogram": lambda g, d: spectrogram_kernel(gaussian_window(g, 2.0)),
}


def assert_checks_match_serial_oracles(k):
    """run_all_checks against one-signal-at-a-time oracles: the same verdicts,
    witnesses and kernel-side figures; the sampled and transform-side figures
    within 1e-13 relative."""
    reports = run_all_checks(k)
    assert [r.name for r in reports] == list(SERIAL_CHECKS)
    for got, expect in zip(reports, (oracle(k) for oracle in SERIAL_CHECKS.values())):
        assert (got.holds, got.witnesses, got.witness_count, got.tolerance) == \
            (expect.holds, expect.witnesses, expect.witness_count, expect.tolerance), got.name
        if got.name in ("l2-bound", "onb-resolution"):
            assert abs(got.max_violation - expect.max_violation) <= 1e-13 * max(1.0, expect.max_violation)
        else:
            assert got.max_violation == expect.max_violation, got.name
        assert (got.cross_check is None) == (expect.cross_check is None), got.name
        if got.cross_check is not None:
            assert abs(got.cross_check - expect.cross_check) <= 1e-13 * max(1.0, expect.cross_check), got.name


@pytest.mark.parametrize("kind", KINDS)
def test_checks_match_serial_oracles(corpus_and_file_group, kind):
    assert_checks_match_serial_oracles(KINDS[kind](*corpus_and_file_group))


@pytest.mark.parametrize("budget", [lambda n: 1, lambda n: 3 * 16 * n ** 2, lambda n: 6 * 16 * n ** 2],
                         ids=["one-pair", "three-pairs", "six-pairs"])
@pytest.mark.parametrize("kind", KINDS)
def test_checks_match_serial_oracles_under_small_budgets(corpus_and_file_group, kind, budget, monkeypatch):
    """The same under budgets of one byte and of three and six pairs' planes
    (the ids name the budget): batches of 2, 2 and 6 pairs, so that the last
    batch of the margin or Moyal pairs ends just at pair 20 or 40 or is cut
    short there."""
    g, d = corpus_and_file_group
    monkeypatch.setattr(properties, "BATCH_BYTES", budget(g.order))
    assert_checks_match_serial_oracles(KINDS[kind](g, d))


@pytest.mark.parametrize("n, calls", [(16, 7), (48, 50)], ids=["order-32", "order-96"])
def test_run_all_checks_transforms_each_pair_once(n, calls, monkeypatch):
    """l2-bound's 100 seeded pairs feed the margin and Moyal cross-checks too:
    7 batches of up to 16 pairs at order 32, two pairs per batch at order 96."""
    made = []
    transform = properties.cohen_transform
    monkeypatch.setattr(properties, "cohen_transform", lambda *a: made.append(None) or transform(*a))
    run_all_checks(kn_kernel(build_dihedral(n)[1]))
    assert len(made) == calls


@pytest.mark.parametrize("make", [
    lambda: kn_kernel(build_dihedral(16)[1]),
    lambda: spectrogram_kernel(gaussian_window(build_dihedral(4)[0], 2.0)),
    lambda: born_jordan_cyclic_kernel(8),
])
def test_shared_sample_is_scoped_to_one_call(make):
    """Each check alone gives its report from run_all_checks; a second call
    gives the same reports; nothing keeps the kernel alive after the call."""
    from gtfa.properties import CHECKS

    k = make()
    reports = run_all_checks(k)
    assert reports == [fn(k) for fn in CHECKS.values()]
    assert run_all_checks(k) == reports
    ref = weakref.ref(k)
    del k
    assert ref() is None


def test_concurrent_calls_keep_their_own_sample():
    """Calls on different kernels in more threads than cores, switching
    often, each give the reports of a call alone."""
    g, d = build_dihedral(4)
    kernels = [kn_kernel(d), spectrogram_kernel(gaussian_window(g, 2.0)),
               born_jordan_cyclic_kernel(8), anti_kn_kernel(d)]
    alone = [run_all_checks(k) for k in kernels]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(run_all_checks, k) for k in kernels * 3]
            assert [f.result(timeout=60) for f in futures] == alone * 3
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("build", [lambda: build_cyclic(5), lambda: build_dihedral(4),
                                   lambda: build_product(build_dihedral(3), build_dihedral(4))],
                         ids=["cyclic:5", "dihedral:4", "dihedral:3xdihedral:4"])
def test_onb_resolution_closed_form_matches_basis_sum(rng, build):
    """|G| |phi(eps, e) - 1| against the quantized basis sum, on a random
    kernel, which is not normalized."""
    g, d = build()
    k = CohenKernel("random", AmbiguityFunction(g, d, stack_blocks(d, [
        rng.standard_normal((g.order, n, n)) + 1j * rng.standard_normal((g.order, n, n)) for n in d.dims])))
    got, expect = check_onb_resolution(k), check_onb_resolution_basis_sum(k)
    assert expect.max_violation > 1.0 and got.holds == expect.holds
    assert abs(got.max_violation - expect.max_violation) <= 1e-13 * expect.max_violation


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
