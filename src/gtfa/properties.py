"""Executable checkers for the kernel-side theorem conditions.

Each theorem in this theory pairs a transform-side property (normalization,
margins, symmetry, positivity, unitarity, inner invariance, ...) with a
finite, exhaustively checkable condition on the kernel.  The kernel-side
condition is the authoritative verdict here; in verification mode each checker
also cross-validates one transform-side condition statistically on seeded
random signals and reports the residual.

All sampled cross-checks take the first signals of one draw of 200 from a
fresh generator seeded with 0xC0FFEE, one draw per `run_all_checks` call, so
reports are byte-identical across runs; the draws are those of serial
`random_signal` calls.  Each cross-check takes its
signals as batches and pairs them with the batch-aware sums (`haar_inner`,
`norm`, `tf_inner`, `tf_norm`): a few array operations per batch, cut into
batches of even size so that one batched plane array stays within BATCH_BYTES
(a batch holds two planes where one takes more than half).  One sampled pass
transforms l2-bound's 100 pairs, pair i the signals 2i and 2i+1, each batch
once, and also yields the cross-checks of normalized and the two margins
(pairs 0-19) and of unitary (Moyal, pairs 2i and 2i+1, i < 20, which share a
batch): within one `run_all_checks` call these five checks share one pass
(with verify=False only l2-bound runs it), as symmetric, positive and inner
share the localization operator delta^D and symmetric and positive their 50
values D[u](e, eps).  onb-resolution needs no sample: by linearity,
the basis sum of its distributions is the constant phi(eps, e), so the check
reduces to a kernel-side figure.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

from .groups import _chunks, plancherel_trace, representation_runs
from .harmonic import Signal, fourier, haar_inner, norm
from .quantization import original_localization
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
        cross_check=None if cross is None else float(cross),
        tolerance=tol,
    )


def _batches(g, count) -> list[slice]:
    """Cut `count` signals (or pairs) on g into batches of even size, at
    least 2, within BATCH_BYTES wherever one plane array takes at most half."""
    size = max(2, BATCH_BYTES // (16 * g.order ** 2) // 2 * 2)
    return [slice(i, min(i + size, count)) for i in range(0, count, size)]


# While run_all_checks runs: (its kernel, {computation: result}).  A context
# variable, so that the share ends with the call and concurrent calls in
# other threads each see their own.
_SHARED: ContextVar = ContextVar("gtfa_properties_shared", default=None)


def _shared(k: CohenKernel, compute):
    """compute(k), computed once per run_all_checks call on k."""
    share = _SHARED.get()
    if share is None or share[0] is not k:
        return compute(k)
    if compute not in share[1]:
        share[1][compute] = compute(k)
    return share[1][compute]


def _entries(D, U, V, sl):
    """Entries sl of a batch pair, (D(u,v), u, v)."""
    return (TFFunction(D.group, D.dual, [run[:, sl] for run in D.runs]),
            Signal(U.group, U.values[sl]), Signal(V.group, V.values[sl]))


def _margins(D, U, V) -> list:
    """The largest |integral D(u,v) - <u,v>|, |time margin - u v^*|, |freq. margin - u_hat v_hat^*|."""
    margin = plancherel_trace(D.dual, D.runs).sum(axis=0)  # margin[b, x]
    return [np.abs(margin.mean(axis=-1) - haar_inner(U, V)).max(),
            np.abs(margin - U.values * V.values.conj()).max(),
            max(np.abs(run.mean(axis=2) - urun @ vrun.conj().swapaxes(-1, -2)).max()
                for run, urun, vrun in zip(D.runs, fourier(U).runs, fourier(V).runs))]


def _moyal(Da, u, v, Db, f, h) -> float:
    """The largest |<D(u,v), D(f,h)> - <u,f> <v,h>^*| over the batch."""
    return np.abs(tf_inner(Da, Db) - haar_inner(u, f) * np.conj(haar_inner(v, h))).max()


def _sampled_pass(k: CohenKernel) -> dict[str, float]:
    """Over l2-bound's 100 seeded pairs (u, v), pair i the signals 2i and 2i+1,
    each batch transformed once: the largest ||D(u,v)|| - ||phi||_Linf ||u|| ||v||,
    the margin residuals on pairs 0-19 and the Moyal residual on pairs 2i and
    2i+1, i < 20, which share a batch since batches are even."""
    g, bound, worst = k.group, k.linf_norm(), np.zeros(5)
    W = _shared(k, _draw)
    for b in _batches(g, 100):
        U, V = Signal(g, W[2 * b.start:2 * b.stop:2]), Signal(g, W[2 * b.start + 1:2 * b.stop:2])
        D = cohen_transform(k, U, V)
        new = [(tf_norm(D) - bound * norm(U) * norm(V)).max(), 0.0, 0.0, 0.0, 0.0]
        if b.start < 20:
            new[1:4] = _margins(*_entries(D, U, V, slice(20 - b.start)))
        if b.start < 40:
            hi = min(b.stop, 40) - b.start
            new[4] = _moyal(*_entries(D, U, V, slice(0, hi, 2)), *_entries(D, U, V, slice(1, hi, 2)))
        worst = np.maximum(worst, new)
        del D  # one batch of planes alive at a time
    return dict(zip(("l2-bound", "normalized", "time-margins", "freq-margins", "unitary"), worst.tolist()))


def _seeded_signals(g, count: int) -> Signal:
    """The first `count` serial `random_signal` draws from SEED, as a batch:
    per signal, its real part then its imaginary part."""
    x = np.random.default_rng(SEED).standard_normal((count, 2, g.order))
    return Signal(g, x[:, 0] + 1j * x[:, 1])


def _draw(k: CohenKernel) -> np.ndarray:
    """The sampled pass's 200 seeded signals; the origin values take the first 50, inner the first 20."""
    return _seeded_signals(k.group, 200).values


def _origin_values(k: CohenKernel) -> np.ndarray:
    """D[u](e, eps) = <u, delta^D u> for 50 seeded random signals u."""
    return _origin(_shared(k, original_localization).kernel, Signal(k.group, _shared(k, _draw)[:50]))


def _origin(K: np.ndarray, U: Signal) -> np.ndarray:
    """<u, A u> per signal of the batch U, A the operator of kernel matrix K."""
    return haar_inner(U, Signal(U.group, U.values @ K.T / U.group.order))


# ---------------------------------------------------------------------------


def check_normalized(k: CohenKernel, verify: bool = True) -> PropertyReport:
    """Condition (d): phi(eps, e) = 1.  Cross-check: total integral of D(u,v)
    equals <u,v> on 20 random pairs."""
    g = k.group
    eps = k.dual.trivial_index
    v = abs(k.phi.blocks[eps][g.identity][0, 0] - 1.0)
    cross = _shared(k, _sampled_pass)["normalized"] if verify else None
    return _report("normalized", v, v > EXHAUSTIVE_TOL, cross, witness=lambda: (eps, g.identity))


def check_time_margins(k: CohenKernel, verify: bool = True) -> PropertyReport:
    """Condition (d): phi(xi, e) = I for every xi."""
    e = k.group.identity
    per_block = np.concatenate([np.abs(run[:, e] - np.eye(run.shape[-1])).max(axis=(1, 2))
                                for run in k.phi.runs])
    cross = _shared(k, _sampled_pass)["time-margins"] if verify else None
    return _report("time-margins", per_block.max(initial=0.0), per_block > EXHAUSTIVE_TOL, cross,
                   witness=lambda i: (i, e))


def check_frequency_margins(k: CohenKernel, verify: bool = True) -> PropertyReport:
    """Condition (d): phi(eps, y) = 1 for every y."""
    eps = k.dual.trivial_index
    row = np.abs(k.phi.blocks[eps][:, 0, 0] - 1.0)
    cross = _shared(k, _sampled_pass)["freq-margins"] if verify else None
    return _report("freq-margins", row.max(initial=0.0), row > EXHAUSTIVE_TOL, cross,
                   witness=lambda y: (eps, y))


def check_symmetric(k: CohenKernel, verify: bool = True) -> PropertyReport:
    """Condition (d): varphi(x, y)^* = varphi(y x, y^{-1}).
    Cross-check: D[u](e, eps) is real on 50 random signals."""
    g = k.group
    lag = k.timelag().values
    other = lag[g.cayley.T, g.inverse[None, :]]
    diff = np.abs(lag.conj() - other)
    cross = np.abs(_shared(k, _origin_values).imag).max() if verify else None
    return _report("symmetric", diff.max(initial=0.0), diff > EXHAUSTIVE_TOL, cross)


def check_positive(k: CohenKernel, verify: bool = True) -> PropertyReport:
    """Positivity via the Gram matrix Gamma[x, y] = varphi(x^{-1}, y^{-1} x):
    D[u](e, eps) >= 0 for all u iff Gamma is positive semidefinite.
    Violation = Hermiticity defect + negative part of the smallest eigenvalue."""
    gamma = _shared(k, original_localization).kernel.conj()  # K(z, y) of delta^D is Gamma[z, y]^*
    herm_defect = float(np.abs(gamma - gamma.conj().T).max())
    lam = np.linalg.eigvalsh((gamma + gamma.conj().T) / 2)
    neg = max(0.0, -float(lam.min()))
    vals = _shared(k, _origin_values) if verify else None
    cross = (np.abs(vals.imag) + np.maximum(0.0, -vals.real)).max() if verify else None
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
    cross = _shared(k, _sampled_pass)["unitary"] if verify else None
    return _report("unitary", table.max(initial=0.0), table > EXHAUSTIVE_TOL, cross)


def check_inner_invariant(k: CohenKernel, verify: bool = True) -> PropertyReport:
    """Condition (d): phi(xi, z y z^{-1}) = xi(z) phi(xi, y) xi(z)^* for all z.
    Cross-check: D[u](e, eps) is invariant under inner automorphisms of u."""
    g = k.group
    n = g.order
    conj_idx = g.cayley[g.cayley, g.inverse[:, None]]  # conj_idx[z, y] = z y z^{-1}
    # diff[k, z, y] = max |phi(xi, z y z^{-1}) - xi(z) phi(xi, y) xi(z)^*| over the
    # entries, with xi(z) phi xi(z)^* = (xi(z) (x) conj xi(z)) vec phi, per run in
    # blocks of z whose delta takes at most VALIDATE_BYTES (one block up to order 64)
    diff = np.empty((len(k.dual), n, n))
    for (first, end, d, _), xi, phi in zip(k.dual.runs, representation_runs(k.dual), k.phi.runs):
        m = end - first
        kron = np.einsum("jzac,jzbe->jabzce", xi, xi.conj()).reshape(m, d * d, n, d * d)
        vec = phi.reshape(m, n, d * d).swapaxes(1, 2)  # vec[j, (c, e), y]
        for zs in _chunks(n, 16 * m * d * d * n):
            delta = kron[:, :, zs] @ vec[:, None]       # delta[j, (a, b), z, y]
            delta -= vec[..., conj_idx[zs]]
            np.abs(delta).max(axis=1, out=diff[first:end, zs])
    cross = None
    if verify:
        K = _shared(k, original_localization).kernel
        U = Signal(g, _shared(k, _draw)[:20])
        base = _origin(K, U)
        cross = 0.0
        for b in _batches(g, 20):
            # the signals u(z . z^{-1}), one batch entry per (u, z)
            uz = Signal(g, U.values[b, conj_idx].reshape(-1, n))
            vals = _origin(K, uz).reshape(b.stop - b.start, n)
            cross = max(cross, np.abs(vals - base[b, None]).max())
    return _report("inner", diff.max(initial=0.0), diff > EXHAUSTIVE_TOL, cross,
                   witness=lambda kk, z, y: (kk, y, z))


def check_l2_bound(k: CohenKernel) -> PropertyReport:
    """||D(u,v)|| <= ||phi||_Linf ||u|| ||v|| on 100 random pairs."""
    return _report("l2-bound", _shared(k, _sampled_pass)["l2-bound"], False, None)


def check_onb_resolution(k: CohenKernel) -> PropertyReport:
    """For a normalized kernel, b = sum_alpha D[v_alpha] over an orthonormal
    basis of L^2(G) has Kohn-Nirenberg quantization b^R = identity.

    By linearity b = F^{-1}(phi . sum_alpha FR(v_alpha, v_alpha)), and every
    orthonormal basis has sum_alpha v_alpha(x) v_alpha(x y^{-1})^* =
    |G| [y = e], so the ambiguity sum is |G| at (eps, e) and 0 elsewhere.
    Then b is the constant phi(eps, e), b^R = phi(eps, e) identity, and the
    largest entry of b^R - identity (kernel |G| I) is |G| |phi(eps, e) - 1|:
    the condition of check_normalized, scaled by |G|."""
    g = k.group
    diff = g.order * abs(k.phi.blocks[k.dual.trivial_index][g.identity][0, 0] - 1.0)
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
    """Every check of CHECKS on k, sharing the samples that checks have in common."""
    token = _SHARED.set((k, {}))
    try:
        return [fn(k, verify=verify) for fn in CHECKS.values()]
    finally:
        _SHARED.reset(token)


def report_lines(reports) -> str:
    return "\n".join(r.line() for r in reports)


def report_csv(reports) -> str:
    rows = ["name,holds,max_violation,witnesses,cross_check"]
    for r in reports:
        cc = "" if r.cross_check is None else f"{r.cross_check:.17g}"
        rows.append(f"{r.name},{int(r.holds)},{r.max_violation:.17g},{r.witness_count},{cc}")
    return "\n".join(rows) + "\n"
