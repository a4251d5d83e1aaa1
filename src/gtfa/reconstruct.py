"""Phase retrieval from cyclic Born-Jordan distributions.

The distribution Q[u] of a signal u on Z/NZ determines the indistinguishable
class [u] = {lambda u : |lambda| = 1} for every N, even composite N where the
quantization itself is not invertible.  The constructive inverse used here:

1.  Time margins give the magnitudes |u(x)|^2.
2.  The ambiguity side FQ[u](xi, y), divided by the geometric-sum factor of
    the kernel, yields the partial autocorrelations
        E(x, y) = sum_{k=0}^{y-1} u(x+k) u(x+k-y)^*.
3.  Starting from a pivot z with u(z) != 0 (phase fixed to be real positive),
    u(z+j) and u(z-j) are recovered recursively for j = 1..floor(N/2): the
    unknown term of E(z+1, j) resp. E(z, j) supplies the phase, the margin
    supplies the magnitude.

Zeros are skipped; if zeros split the index circle into several arcs, the
relative phases between arcs are not determined by the recursion and one
consistent choice is returned (flagged via islands > 1 in the report).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import build_cyclic, plancherel_trace
from .harmonic import Signal, haar_inner, norm
from .tfplane import TFFunction, symplectic_fourier, tf_norm
from .transforms import born_jordan_cyclic_kernel, cohen_transform

__all__ = [
    "MarginNegative",
    "PartialAutocorrelation",
    "RoundtripReport",
    "born_jordan_distribution",
    "island_count",
    "magnitudes_from_margins",
    "partial_autocorrelations",
    "phase_retrieve",
    "roundtrip_report",
]

MARGIN_FLOOR = -1e-9


class MarginNegative(ValueError):
    """A time margin is substantially negative: not a valid Q[u] table."""


@dataclass
class PartialAutocorrelation:
    """Table E(x, y) = sum_{k<y} u(x+k) u(x+k-y)^*, for y = 1..N-1.

    Stored as an (N, N) array; column 0 is unused and kept at zero.
    """

    order: int
    table: np.ndarray


def born_jordan_distribution(u: Signal) -> TFFunction:
    """Q[u] on the signal's cyclic group."""
    k = born_jordan_cyclic_kernel(u.group.order)
    return cohen_transform(k, Signal(k.group, u.values), Signal(k.group, u.values))


def _margins(Q: TFFunction) -> np.ndarray:
    return plancherel_trace(Q.dual, Q.blocks).sum(axis=0)


def magnitudes_from_margins(Q: TFFunction) -> np.ndarray:
    """|u(x)|^2 from the time margins of Q[u]; tiny negatives are clamped."""
    m = _margins(Q).real
    if m.min() < MARGIN_FLOOR:
        raise MarginNegative(
            f"time margin at x={int(m.argmin())} is {m.min():.3g} < {MARGIN_FLOOR:g}"
        )
    return np.maximum(m, 0.0)


def partial_autocorrelations(Q: TFFunction) -> PartialAutocorrelation:
    """Extract E(x, y) from FQ[u] by dividing out the kernel's sum factor.

    For y != 0:  h_y(xi) = FQ(xi, y) * N (1 - e^{-i 2 pi y / N}) / (i 2 pi)
    for xi != 0, and h_y(0) = y * FQ(0, y); then E(., y) is the inverse DFT
    of h_y.  Any table is accepted; validity surfaces in round-trip residuals.
    """
    N = Q.group.order
    FQ = symplectic_fourier(Q).scalar_table()  # [xi, y]
    y = np.arange(N)
    h = FQ * (N * (1.0 - np.exp(-2j * np.pi * y / N)) / (2j * np.pi))[None, :]
    h[0, :] = y * FQ[0, :]
    E = Q.dual.table.T @ h  # E[x, y] = sum_xi e^{i 2 pi x xi / N} h_y(xi)
    E[:, 0] = 0.0
    return PartialAutocorrelation(N, E)


def phase_retrieve(Q: TFFunction, tol_zero: float = 1e-9) -> Signal:
    """Recover a representative of [u] from Q[u].

    The returned signal is real and positive at the pivot (the index of
    largest magnitude); positions whose margin falls below tol_zero are set
    to zero and skipped by the recursion.
    """
    group = Q.group
    N = group.order
    mags2 = magnitudes_from_margins(Q)
    mag = np.sqrt(np.where(mags2 < tol_zero, 0.0, mags2))
    if not mag.any():
        return Signal(group, np.zeros(N))

    z = int(mag.argmax())
    u = np.zeros(N, dtype=complex)
    u[z] = mag[z]
    if N == 1:
        return Signal(group, u)

    E = partial_autocorrelations(Q).table

    def assign(idx, residual, conj_side):
        if mag[idx] == 0.0:
            return
        val = np.conj(residual / u[z]) if conj_side else residual / np.conj(u[z])
        a = abs(val)
        u[idx] = mag[idx] * (val / a) if a > 0 else mag[idx]

    for j in range(1, N // 2 + 1):
        ip, im = (z + j) % N, (z - j) % N
        # E(z+1, j): unknown term u(z+j) u(z)^* at k = j-1
        ks = np.arange(j - 1)
        known_p = np.sum(u[(z + 1 + ks) % N] * np.conj(u[(z + 1 + ks - j) % N]))
        assign(ip, E[(z + 1) % N, j] - known_p, conj_side=False)
        if im == ip:
            break
        # E(z, j): unknown term u(z) u(z-j)^* at k = 0
        ks = np.arange(1, j)
        known_m = np.sum(u[(z + ks) % N] * np.conj(u[(z + ks - j) % N]))
        assign(im, E[z, j] - known_m, conj_side=True)
    return Signal(group, u)


def island_count(mask: np.ndarray) -> int:
    """Number of maximal arcs of True values on the index circle."""
    if mask.all():
        return 1
    if not mask.any():
        return 0
    changes = np.count_nonzero(mask != np.roll(mask, 1))
    return changes // 2


@dataclass
class RoundtripReport:
    order: int
    class_distance: float
    distribution_residual: float
    islands: int
    pivot_magnitude: float
    recovered: Signal


def class_distance(u: Signal, v: Signal) -> float:
    """min over |lambda| = 1 of ||u - lambda v|| in the Haar L2 norm."""
    ip = haar_inner(u, v)
    lam = ip / abs(ip) if abs(ip) > 0 else 1.0
    return norm(Signal(u.group, u.values - lam * v.values))


def roundtrip_report(u: Signal, tol_zero: float = 1e-9) -> RoundtripReport:
    """Forward transform, retrieve, and measure how well [u] was recovered."""
    cyc, _ = build_cyclic(u.group.order)
    u = Signal(cyc, u.values)
    Q = born_jordan_distribution(u)
    rec = phase_retrieve(Q, tol_zero=tol_zero)
    Qrec = born_jordan_distribution(rec)
    diff = TFFunction(
        Q.group, Q.dual, [a - b for a, b in zip(Qrec.blocks, Q.blocks)]
    )
    mask = np.abs(rec.values) > 0
    return RoundtripReport(
        order=u.group.order,
        class_distance=class_distance(u, rec),
        distribution_residual=tf_norm(diff),
        islands=island_count(mask),
        pivot_magnitude=float(np.abs(rec.values).max()),
        recovered=rec,
    )
