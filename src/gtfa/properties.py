"""Executable checkers for the kernel-side theorem conditions.

Each theorem in this theory pairs a transform-side property (normalization,
margins, symmetry, positivity, unitarity, inner invariance, ...) with a
finite, exhaustively checkable condition on the kernel.  The kernel-side
condition is the authoritative verdict here; in verification mode each checker
also cross-validates one transform-side condition statistically on seeded
random signals and reports the residual.

All sampled cross-checks draw from a fresh generator seeded with 0xC0FFEE, so
reports are byte-identical across runs.  The checks that transform their
samples (normalized, the margins, unitary, l2-bound, onb-resolution) do so in
batches of signals, one `cohen_transform` per batch, cut so that a batched
plane array stays within BATCH_BYTES; the draws are those of serial
`random_signal` calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .groups import plancherel_trace, representation_runs
from .harmonic import Signal, fourier, haar_inner, norm, random_signal
from .quantization import identity_operator, kn_operator, original_localization
from .tfplane import TFFunction, tf_inner, tf_norm
from .transforms import CohenKernel, cohen_transform

__all__ = [
    "PropertyReport",
    "CHECKS",
    "check_normalized",
    "check_time_margins",
    "check_frequency_margins",
    "check_symmetric",
    "check_positive",
    "check_unitary",
    "check_inner_invariant",
    "check_l2_bound",
    "check_onb_resolution",
    "run_all_checks",
    "report_lines",
    "report_csv",
]

SEED = 0xC0FFEE
EXHAUSTIVE_TOL = 1e-9
STATISTICAL_TOL = 1e-8
ONB_TOL = 1e-8
MAX_STORED_WITNESSES = 16
# Bytes of one batched plane array, B |G|^2 complex entries: 16 signals at
# order 32.  Larger batches cost memory and gained no time at order 32.
BATCH_BYTES = 256 * 1024


@dataclass
class PropertyReport:
    name: str
    holds: bool
    max_violation: float
    witnesses: list[tuple] = field(default_factory=list)
    witness_count: int = 0
    cross_check: float | None = None
    tolerance: float = EXHAUSTIVE_TOL

    def line(self) -> str:
        verdict = "HOLDS" if self.holds else "FAILS"
        return (
            f"PROPERTY {self.name} {verdict} "
            f"max_violation={self.max_violation:.17g} witnesses={self.witness_count}"
        )


def _report(name, violations, hits, cross, tol=EXHAUSTIVE_TOL, witness=lambda *i: i) -> PropertyReport:
    """hits is a boolean table of the offending indices: all are counted, and
    the first MAX_STORED_WITNESSES in C order are stored as witness(*index)."""
    mv = float(violations)
    first = np.argwhere(hits)[:MAX_STORED_WITNESSES]
    return PropertyReport(
        name=name,
        holds=mv <= tol,
        max_violation=mv,
        witnesses=[witness(*(int(i) for i in idx)) for idx in first],
        witness_count=int(np.count_nonzero(hits)),
        cross_check=cross,
        tolerance=tol,
    )


def _batches(g, count) -> list[slice]:
    """Cut `count` signals on g into batches within BATCH_BYTES."""
    size = max(1, BATCH_BYTES // (16 * g.order ** 2))
    return [slice(i, min(i + size, count)) for i in range(0, count, size)]


def _sample_batches(g, count, k, rng):
    """`count` draws of k random signals, yielded as k batched Signals per batch.

    Entry i of signal j is what the (i k + j)-th serial `random_signal(g, rng)`
    call would return: per signal, its real part then its imaginary part."""
    for b in _batches(g, count):
        x = rng.standard_normal((b.stop - b.start, k, 2, g.order))
        yield [Signal(g, x[:, j, 0] + 1j * x[:, j, 1]) for j in range(k)]


def _entries(u: Signal) -> list[Signal]:
    return [Signal(u.group, x) for x in u.values]


def _entry(D: TFFunction, b: int) -> TFFunction:
    return TFFunction.from_runs(D.group, D.dual, [r[:, b] for r in D.runs])


# ---------------------------------------------------------------------------


def check_normalized(k: CohenKernel, verify: bool = True) -> PropertyReport:
    """Condition (d): phi(eps, e) = 1.  Cross-check: total integral of D(u,v)
    equals <u,v> on 20 random pairs."""
    g = k.group
    eps = k.dual.trivial_index
    v = abs(k.phi.blocks[eps][g.identity][0, 0] - 1.0)
    cross = None
    if verify:
        rng = np.random.default_rng(SEED)
        cross = 0.0
        for U, W in _sample_batches(g, 20, 2, rng):
            total = plancherel_trace(k.dual, cohen_transform(k, U, W).runs).sum(axis=(0, 2)) / g.order
            inner = [haar_inner(u, w) for u, w in zip(_entries(U), _entries(W))]
            cross = max(cross, np.abs(total - inner).max())
    return _report("normalized", v, v > EXHAUSTIVE_TOL, cross, witness=lambda: (eps, g.identity))


def check_time_margins(k: CohenKernel, verify: bool = True) -> PropertyReport:
    """Condition (d): phi(xi, e) = I for every xi."""
    e = k.group.identity
    per_block = np.concatenate([np.abs(run[:, e] - np.eye(run.shape[-1])).max(axis=(1, 2))
                                for run in k.phi.runs])
    cross = None
    if verify:
        rng = np.random.default_rng(SEED)
        cross = 0.0
        for U, W in _sample_batches(k.group, 20, 2, rng):
            margin = plancherel_trace(k.dual, cohen_transform(k, U, W).runs).sum(axis=0)
            cross = max(cross, np.abs(margin - U.values * W.values.conj()).max())
    return _report("time-margins", per_block.max(initial=0.0), per_block > EXHAUSTIVE_TOL, cross,
                   witness=lambda i: (i, e))


def check_frequency_margins(k: CohenKernel, verify: bool = True) -> PropertyReport:
    """Condition (d): phi(eps, y) = 1 for every y."""
    eps = k.dual.trivial_index
    row = np.abs(k.phi.blocks[eps][:, 0, 0] - 1.0)
    cross = None
    if verify:
        rng = np.random.default_rng(SEED)
        cross = 0.0
        for U, W in _sample_batches(k.group, 20, 2, rng):
            D = cohen_transform(k, U, W)
            uh, wh = fourier(U), fourier(W)
            for run, urun, wrun in zip(D.runs, uh.runs, wh.runs):
                margin = run.mean(axis=2)
                cross = max(cross, np.abs(margin - urun @ wrun.conj().swapaxes(-1, -2)).max())
    return _report("freq-margins", row.max(initial=0.0), row > EXHAUSTIVE_TOL, cross,
                   witness=lambda y: (eps, y))


def check_symmetric(k: CohenKernel, verify: bool = True) -> PropertyReport:
    """Condition (d): varphi(x, y)^* = varphi(y x, y^{-1}).
    Cross-check: D[u](e, eps) is real on 50 random signals."""
    g = k.group
    lag = k.timelag().values
    other = lag[g.cayley.T, g.inverse[None, :]]
    diff = np.abs(lag.conj() - other)
    cross = None
    if verify:
        rng = np.random.default_rng(SEED)
        loc = original_localization(k)
        cross = 0.0
        for _ in range(50):
            u = random_signal(g, rng)
            val = haar_inner(u, loc.apply(u))
            cross = max(cross, abs(val.imag))
    return _report("symmetric", diff.max(initial=0.0), diff > EXHAUSTIVE_TOL, cross)


def check_positive(k: CohenKernel, verify: bool = True) -> PropertyReport:
    """Positivity via the Gram matrix Gamma[x, y] = varphi(x^{-1}, y^{-1} x):
    D[u](e, eps) >= 0 for all u iff Gamma is positive semidefinite.
    Violation = Hermiticity defect + negative part of the smallest eigenvalue."""
    g = k.group
    lag = k.timelag().values
    inv, cay = g.inverse, g.cayley
    # Gamma[x, y] = varphi(x^{-1}, y^{-1} x)
    gamma = lag[inv[:, None], cay[inv, :].T]
    herm_defect = float(np.abs(gamma - gamma.conj().T).max())
    lam = np.linalg.eigvalsh((gamma + gamma.conj().T) / 2)
    neg = max(0.0, -float(lam.min()))
    cross = None
    if verify:
        rng = np.random.default_rng(SEED)
        loc = original_localization(k)
        cross = 0.0
        for _ in range(50):
            u = random_signal(g, rng)
            val = haar_inner(u, loc.apply(u))
            cross = max(cross, abs(val.imag) + max(0.0, -val.real))
    return _report("positive", herm_defect + neg, herm_defect > EXHAUSTIVE_TOL or neg > EXHAUSTIVE_TOL,
                   cross, witness=lambda: (int(np.argmin(lam)),))


def check_unitary(k: CohenKernel, verify: bool = True) -> PropertyReport:
    """Condition (d): every block phi(xi, y) is unitary.
    Cross-check: the Moyal identity on 20 random quadruples."""
    # table[k, y] = max |phi phi^* - I| over the entries of block (k, y)
    table = np.concatenate([
        np.abs(run @ run.conj().swapaxes(-1, -2) - np.eye(run.shape[-1])).max(axis=(-2, -1))
        for run in k.phi.runs
    ])
    cross = None
    if verify:
        rng = np.random.default_rng(SEED)
        cross = 0.0
        for U, V, F, H in _sample_batches(k.group, 20, 4, rng):
            D1, D2 = cohen_transform(k, U, V), cohen_transform(k, F, H)
            for b, (u, v, f, h) in enumerate(zip(*map(_entries, (U, V, F, H)))):
                lhs = tf_inner(_entry(D1, b), _entry(D2, b))
                rhs = haar_inner(u, f) * np.conj(haar_inner(v, h))
                cross = max(cross, abs(lhs - rhs))
    return _report("unitary", table.max(initial=0.0), table > EXHAUSTIVE_TOL, cross)


def check_inner_invariant(k: CohenKernel, verify: bool = True) -> PropertyReport:
    """Condition (d): phi(xi, z y z^{-1}) = xi(z) phi(xi, y) xi(z)^* for all z.
    Cross-check: D[u](e, eps) is invariant under inner automorphisms of u."""
    g = k.group
    n = g.order
    conj_idx = g.cayley[g.cayley, g.inverse[:, None]]  # conj_idx[z, y] = z y z^{-1}
    # per run, diff[j, z, y] = max |phi(xi, z y z^{-1}) - xi(z) phi(xi, y) xi(z)^*|
    # over the entries, with xi(z) phi xi(z)^* = (xi(z) (x) conj xi(z)) vec phi
    diffs = []
    for xi, phi in zip(representation_runs(k.dual), k.phi.runs):
        m, d = len(xi), xi.shape[-1]
        kron = np.einsum("jzac,jzbe->jabzce", xi, xi.conj()).reshape(m, d * d, n, d * d)
        vec = phi.reshape(m, n, d * d).swapaxes(1, 2)  # vec[j, (c, e), y]
        delta = kron @ vec[:, None]                     # delta[j, (a, b), z, y]
        delta -= vec[..., conj_idx]
        diffs.append(np.abs(delta).max(axis=1))
    diff = np.concatenate(diffs)
    cross = None
    if verify:
        rng = np.random.default_rng(SEED)
        loc = original_localization(k)
        cross = 0.0
        for _ in range(20):
            u = random_signal(g, rng)
            base = haar_inner(u, loc.apply(u))
            uz = u.values[conj_idx]  # uz[z] = u(z . z^{-1})
            vals = np.sum(uz * (uz @ loc.kernel.T / n).conj(), axis=1) / n
            cross = max(cross, np.abs(vals - base).max())
    return _report("inner", diff.max(initial=0.0), diff > EXHAUSTIVE_TOL, cross,
                   witness=lambda kk, z, y: (kk, y, z))


def check_l2_bound(k: CohenKernel, samples: int = 100) -> PropertyReport:
    """||D(u,v)|| <= ||phi||_Linf ||u|| ||v|| on `samples` random pairs."""
    bound_const = k.linf_norm()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for U, V in _sample_batches(k.group, samples, 2, rng):
        D = cohen_transform(k, U, V)
        for b, (u, v) in enumerate(zip(_entries(U), _entries(V))):
            worst = max(worst, tf_norm(_entry(D, b)) - bound_const * norm(u) * norm(v))
    return _report("l2-bound", max(worst, 0.0), False, None)


def check_onb_resolution(k: CohenKernel) -> PropertyReport:
    """For a normalized kernel, b = sum_alpha D[v_alpha] over an orthonormal
    basis of L^2(G) has Kohn-Nirenberg quantization b^R = identity."""
    g, dual = k.group, k.dual
    acc = [0] * len(dual.runs)
    # the basis sqrt(d_k) eta_k(.)[a, b]: the table's rows, scaled
    basis = np.sqrt(np.repeat(dual.dims, dual.dims ** 2))[:, None] * dual.table
    for b in _batches(g, g.order):
        V = Signal(g, basis[b])
        acc = [a + r.sum(axis=1) for a, r in zip(acc, cohen_transform(k, V, V).runs)]
    B = kn_operator(TFFunction.from_runs(g, dual, acc))
    diff = float(np.abs(B.kernel - identity_operator(g).kernel).max())
    return _report("onb-resolution", diff, False, None, tol=ONB_TOL)


CHECKS = {
    "normalized": check_normalized,
    "time-margins": check_time_margins,
    "freq-margins": check_frequency_margins,
    "symmetric": check_symmetric,
    "positive": check_positive,
    "unitary": check_unitary,
    "inner": check_inner_invariant,
    "l2-bound": lambda k, verify=True: check_l2_bound(k),
    "onb-resolution": lambda k, verify=True: check_onb_resolution(k),
}


def run_all_checks(k: CohenKernel, verify: bool = True) -> list[PropertyReport]:
    return [fn(k, verify=verify) for fn in CHECKS.values()]


def report_lines(reports) -> str:
    return "\n".join(r.line() for r in reports)


def report_csv(reports) -> str:
    rows = ["name,holds,max_violation,witnesses,cross_check"]
    for r in reports:
        cc = "" if r.cross_check is None else f"{r.cross_check:.17g}"
        rows.append(f"{r.name},{int(r.holds)},{r.max_violation:.17g},{r.witness_count},{cc}")
    return "\n".join(rows) + "\n"
