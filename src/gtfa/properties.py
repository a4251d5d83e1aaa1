"""Executable checkers for the kernel-side theorem conditions.

Each theorem in this theory pairs a transform-side property (normalization,
margins, symmetry, positivity, unitarity, inner invariance, ...) with a
finite, exhaustively checkable condition on the kernel.  The kernel-side
condition is the authoritative verdict here; in verification mode each checker
also cross-validates one transform-side condition statistically on seeded
random signals and reports the residual.

All sampled cross-checks draw from a fresh generator seeded with 0xC0FFEE, so
reports are byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


def _report(name, violations, witness_idx, cross, tol=EXHAUSTIVE_TOL) -> PropertyReport:
    mv = float(violations)
    return PropertyReport(
        name=name,
        holds=mv <= tol,
        max_violation=mv,
        witnesses=witness_idx[:MAX_STORED_WITNESSES],
        witness_count=len(witness_idx),
        cross_check=cross,
        tolerance=tol,
    )


def _witnesses_from_table(table, tol):
    """Offending (block, y) index pairs for a per-(xi, y) violation table."""
    out = []
    for k, row in enumerate(table):
        for y in np.nonzero(row > tol)[0]:
            out.append((k, int(y)))
    return out


def _sample_pairs(kernel, count, rng):
    g = kernel.group
    for _ in range(count):
        yield random_signal(g, rng), random_signal(g, rng)


# ---------------------------------------------------------------------------


def check_normalized(k: CohenKernel, verify: bool = True) -> PropertyReport:
    """Condition (d): phi(eps, e) = 1.  Cross-check: total integral of D(u,v)
    equals <u,v> on 20 random pairs."""
    g = k.group
    eps = k.dual.trivial_index
    v = abs(k.phi.blocks[eps][g.identity][0, 0] - 1.0)
    wit = [(eps, g.identity)] if v > EXHAUSTIVE_TOL else []
    cross = None
    if verify:
        rng = np.random.default_rng(SEED)
        cross = 0.0
        for u, w in _sample_pairs(k, 20, rng):
            D = cohen_transform(k, u, w)
            total = sum(
                eta.dim * np.einsum("xaa->", b)
                for eta, b in zip(k.dual.irreps, D.blocks)
            ) / g.order
            cross = max(cross, abs(total - haar_inner(u, w)))
    return _report("normalized", v, wit, cross)


def check_time_margins(k: CohenKernel, verify: bool = True) -> PropertyReport:
    """Condition (d): phi(xi, e) = I for every xi."""
    g = k.group
    e = g.identity
    per_block = np.array(
        [np.abs(b[e] - np.eye(b.shape[1])).max() for b in k.phi.blocks]
    )
    wit = [(int(i), e) for i in np.nonzero(per_block > EXHAUSTIVE_TOL)[0]]
    cross = None
    if verify:
        rng = np.random.default_rng(SEED)
        cross = 0.0
        for u, w in _sample_pairs(k, 20, rng):
            D = cohen_transform(k, u, w)
            margin = sum(
                eta.dim * np.einsum("xaa->x", b)
                for eta, b in zip(k.dual.irreps, D.blocks)
            )
            cross = max(cross, np.abs(margin - u.values * w.values.conj()).max())
    return _report("time-margins", per_block.max(initial=0.0), wit, cross)


def check_frequency_margins(k: CohenKernel, verify: bool = True) -> PropertyReport:
    """Condition (d): phi(eps, y) = 1 for every y."""
    eps = k.dual.trivial_index
    row = np.abs(k.phi.blocks[eps][:, 0, 0] - 1.0)
    wit = [(eps, int(y)) for y in np.nonzero(row > EXHAUSTIVE_TOL)[0]]
    cross = None
    if verify:
        rng = np.random.default_rng(SEED)
        cross = 0.0
        for u, w in _sample_pairs(k, 20, rng):
            D = cohen_transform(k, u, w)
            uh, wh = fourier(u), fourier(w)
            for b, ub, wb in zip(D.blocks, uh.blocks, wh.blocks):
                margin = b.mean(axis=0)
                cross = max(cross, np.abs(margin - ub @ wb.conj().T).max())
    return _report("freq-margins", row.max(initial=0.0), wit, cross)


def check_symmetric(k: CohenKernel, verify: bool = True) -> PropertyReport:
    """Condition (d): varphi(x, y)^* = varphi(y x, y^{-1}).
    Cross-check: D[u](e, eps) is real on 50 random signals."""
    g = k.group
    lag = k.timelag().values
    other = lag[g.cayley.T, g.inverse[None, :]]
    diff = np.abs(lag.conj() - other)
    wit = [(int(x), int(y)) for x, y in np.argwhere(diff > EXHAUSTIVE_TOL)]
    cross = None
    if verify:
        rng = np.random.default_rng(SEED)
        loc = original_localization(k)
        cross = 0.0
        for _ in range(50):
            u = random_signal(g, rng)
            val = haar_inner(u, loc.apply(u))
            cross = max(cross, abs(val.imag))
    return _report("symmetric", diff.max(initial=0.0), wit, cross)


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
    lam_min = float(np.linalg.eigvalsh((gamma + gamma.conj().T) / 2).min())
    neg = max(0.0, -lam_min)
    wit = []
    if herm_defect > EXHAUSTIVE_TOL or neg > EXHAUSTIVE_TOL:
        wit = [(int(np.argmin(np.linalg.eigvalsh((gamma + gamma.conj().T) / 2))),)]
    cross = None
    if verify:
        rng = np.random.default_rng(SEED)
        loc = original_localization(k)
        cross = 0.0
        for _ in range(50):
            u = random_signal(g, rng)
            val = haar_inner(u, loc.apply(u))
            cross = max(cross, abs(val.imag) + max(0.0, -val.real))
    return _report("positive", herm_defect + neg, wit, cross)


def check_unitary(k: CohenKernel, verify: bool = True) -> PropertyReport:
    """Condition (d): every block phi(xi, y) is unitary.
    Cross-check: the Moyal identity on 20 random quadruples."""
    table = np.stack(
        [
            np.abs(b @ b.conj().transpose(0, 2, 1) - np.eye(b.shape[1])).max(axis=(1, 2))
            for b in k.phi.blocks
        ]
    )
    wit = _witnesses_from_table(table, EXHAUSTIVE_TOL)
    cross = None
    if verify:
        rng = np.random.default_rng(SEED)
        cross = 0.0
        for _ in range(20):
            u, v = next(_sample_pairs(k, 1, rng))
            f, h = next(_sample_pairs(k, 1, rng))
            lhs = tf_inner(cohen_transform(k, u, v), cohen_transform(k, f, h))
            rhs = haar_inner(u, f) * np.conj(haar_inner(v, h))
            cross = max(cross, abs(lhs - rhs))
    return _report("unitary", table.max(initial=0.0), wit, cross)


def check_inner_invariant(k: CohenKernel, verify: bool = True) -> PropertyReport:
    """Condition (d): phi(xi, z y z^{-1}) = xi(z) phi(xi, y) xi(z)^* for all z.
    Cross-check: D[u](e, eps) is invariant under inner automorphisms of u."""
    g = k.group
    cay, inv = g.cayley, g.inverse
    worst = 0.0
    wit = []
    for kk, (xi, b) in enumerate(zip(k.dual.irreps, k.phi.blocks)):
        for z in range(g.order):
            conj_idx = cay[cay[z], inv[z]]  # z y z^{-1}
            lhs = b[conj_idx]
            rhs = xi.matrices[z] @ b @ xi.matrices[z].conj().T
            diff = np.abs(lhs - rhs).max(axis=(1, 2))
            m = float(diff.max(initial=0.0))
            if m > worst:
                worst = m
            for y in np.nonzero(diff > EXHAUSTIVE_TOL)[0]:
                wit.append((kk, int(y), z))
    cross = None
    if verify:
        rng = np.random.default_rng(SEED)
        loc = original_localization(k)
        cross = 0.0
        for _ in range(20):
            u = random_signal(g, rng)
            base = haar_inner(u, loc.apply(u))
            for z in range(g.order):
                conj_idx = cay[cay[z], inv[z]]
                uz = Signal(g, u.values[conj_idx])
                cross = max(cross, abs(haar_inner(uz, loc.apply(uz)) - base))
    return _report("inner", worst, wit, cross)


def check_l2_bound(k: CohenKernel, samples: int = 100) -> PropertyReport:
    """||D(u,v)|| <= ||phi||_Linf ||u|| ||v|| on `samples` random pairs."""
    bound_const = k.linf_norm()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for u, v in _sample_pairs(k, samples, rng):
        excess = tf_norm(cohen_transform(k, u, v)) - bound_const * norm(u) * norm(v)
        worst = max(worst, excess)
    return _report("l2-bound", max(worst, 0.0), [], None)


def check_onb_resolution(k: CohenKernel) -> PropertyReport:
    """For a normalized kernel, b = sum_alpha D[v_alpha] over an orthonormal
    basis of L^2(G) has Kohn-Nirenberg quantization b^R = identity."""
    g, dual = k.group, k.dual
    n = g.order
    acc = [np.zeros((n, eta.dim, eta.dim), dtype=complex) for eta in dual.irreps]
    for eta in dual.irreps:
        scale = np.sqrt(eta.dim)
        for j in range(eta.dim):
            for kk in range(eta.dim):
                v = Signal(g, scale * eta.matrices[:, j, kk])
                D = cohen_transform(k, v, v)
                for a, b in zip(acc, D.blocks):
                    a += b
    B = kn_operator(TFFunction(g, dual, acc))
    diff = float(np.abs(B.kernel - identity_operator(g).kernel).max())
    return _report("onb-resolution", diff, [], None, tol=ONB_TOL)


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
