"""Phase retrieval from cyclic Born-Jordan distributions.

The distribution Q[u] of a signal u on Z/NZ determines the indistinguishable
class [u] = {lambda u : |lambda| = 1} for every N, even composite N where the
quantization itself is not invertible.  The constructive inverse used here:

1.  Time margins give the magnitudes |u(x)|^2.
2.  Born-Jordan's time-lag kernel is a box: for y != 0, Q's inverse
    transform in eta is t[y, x] = c(y) sum_{s<y} w[y, x+s] + const(y), with
    w[y, x] = u(x) u(x-y)^* and c(y) = 2 pi i / (N (1 - e^{-2 pi i y/N})).
    So (t[y, x+1] - t[y, x]) / c(y) = w[y, x+y] - w[y, x], whose running sums
    along the chains x, x+y, x+2y, ... give w[y] up to one constant per
    residue of x mod g, g = gcd(y, N).  Shifted to the mean of t[y], which is
    that of w[y], they are the lag table K[x, y]: u(x) u(x-y)^* - K[x, y]
    depends only on x mod g, and sums to zero over the g residues.
3.  From a pivot z with u(z) != 0, its phase fixed real positive, the
    products u(z+j) u(z)^* and u(z) u(z-j)^* for j = 1..floor(N/2) are
    K[z+j, j] and K[z, j] plus that difference at residue z mod g: -g/j
    times its sum over 0 < t < j with g not dividing t (all t < j, less the
    multiples of g), which cover every other residue j/g times.  The known
    products u(z+t) u(z+t-j)^* enter it as two strided slices per lag; K's
    share is computed for all lags at once.  Each product gives a phase,
    the margin the magnitude.

Every sample is tied to the pivot itself, so zeros of u leave no phase
undetermined: the recursion fixes [u] whenever the pivot is nonzero.  The
report's `islands`, the number of arcs of nonzero samples, is information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .groups import build_cyclic, group_inverse_fourier, require_same_dual
from .harmonic import Signal, haar_inner, norm, require_single
from .tfplane import TFFunction, tf_norm
from .transforms import CohenKernel, _born_jordan_box, born_jordan_cyclic_kernel, cohen_transform

__all__ = ["MarginNegative", "RoundtripReport", "born_jordan_distribution", "island_count", "magnitudes_from_margins",
           "phase_retrieve", "retrieval_report", "roundtrip_report"]

MARGIN_FLOOR = -1e-9


class MarginNegative(ValueError):
    """A time margin is substantially negative: not a valid Q[u] table."""


def born_jordan_distribution(u: Signal) -> TFFunction:
    """Q[u] on the signal's cyclic group."""
    require_single(u)
    return cohen_transform(born_jordan_cyclic_kernel(u.group.order), u, u)


def magnitudes_from_margins(Q: TFFunction) -> np.ndarray:
    """|u(x)|^2 from the time margins of Q[u] on an all-scalar (cyclic) dual;
    tiny negatives are clamped."""
    m = Q.scalar_table().sum(axis=0).real
    if m.min() < MARGIN_FLOOR:
        raise MarginNegative(
            f"time margin at x={int(m.argmin())} is {m.min():.3g} < {MARGIN_FLOOR:g}"
        )
    return np.maximum(m, 0.0)


def _lag_table(Q: TFFunction, z: int, h: int) -> np.ndarray:
    """K[t, y] = K(z + t, y) for t, y = 0..h (step 2 of the module docstring),
    from Q alone: no kernel and no symplectic transform."""
    N = Q.group.order
    require_same_dual(Q.dual, build_cyclic(N)[1], f"distribution and cyclic:{N}")
    t = group_inverse_fourier(Q.dual, Q.runs)[:h + 1].copy()  # t[y, x]; a copy frees the rest
    lags, j = np.arange(h + 1), np.arange(N)
    D = t[:, (j + 1) % N] - t
    D *= _born_jordan_box(N)[:h + 1, None]  # / c(y), and 0 at lag 0
    total = t.sum(axis=1)
    del t
    # entry j of lag y's row is x = j y + j // m mod N, m = N / gcd(y, N): the
    # chains through each residue by steps of y, one after the other
    x = (np.multiply.outer(lags, j) + j // (N // np.gcd(lags, N))[:, None]) % N
    row = N * lags[:, None]  # x + row indexes the flat D
    S = D.ravel()[x + row].cumsum(axis=1)  # w[y, x+y] less a constant per chain
    D.ravel()[(x + lags[:, None]) % N + row] = S  # D[y, x] = w[y, x] less that constant
    D += ((total - S.sum(axis=1)) / N)[:, None]
    return D[:, (np.arange(h + 1) + z) % N].T


def phase_retrieve(Q: TFFunction, tol_zero: float = 1e-9) -> Signal:
    """Recover a representative of [u] from Q[u].

    The returned signal is real and positive at the pivot (the index of
    largest magnitude); positions whose margin falls below tol_zero are set
    to zero.  A tol_zero that is not finite and >= 0 raises ValueError, and
    so do a non-finite entry of Q and a dual other than cyclic:N's.
    """
    if not 0 <= tol_zero < math.inf:
        raise ValueError(f"tol_zero must be finite and >= 0, not {tol_zero!r}")
    if not all(np.isfinite(run).all() for run in Q.runs):  # a NaN imaginary part leaves the margins finite
        raise ValueError("distribution has non-finite entries")
    group = Q.group
    N = group.order
    mag = magnitudes_from_margins(Q)  # |u|^2, then |u|
    mag = np.sqrt(np.where(mag < tol_zero, 0.0, mag))
    if not mag.any():
        return Signal(group, np.zeros(N))

    # v[t] = u(z + t) and K[t, y] = K(z + t, y), z the pivot, for t, y <= h
    z, h = int(mag.argmax()), N // 2
    rows = (np.arange(N) + z) % N
    K = _lag_table(Q, z, h)
    mag = mag[rows].tolist()
    v = np.zeros(N, dtype=complex)
    v[0] = mag[0]

    def assign(t, product):  # v[t] from v[t] v[0]^* = product, v[0] real
        a = abs(product)
        v[t] = mag[t] * (product / a) if a > 0 else mag[t]

    lags = np.arange(1, h + 1)
    gcds = np.gcd(lags, N)
    t = np.arange(h)[:, None]
    # K's share of each lag's known sum: K[t, j] over 0 < t < j with g not dividing t
    known = np.sum(K[:h, 1:], axis=0, where=(t < lags) & (t % gcds != 0))
    for j, g, kjj, k0j, kj in zip(lags.tolist(), gcds.tolist(), K.diagonal()[1:].tolist(),
                                  K[0, 1:].tolist(), known.tolist()):
        # v[t] v[t-j]^* over all 0 < t < j, less the multiples of g
        s = complex(np.vdot(v[N - j + 1:], v[1:j]) - np.vdot(v[N - j + g::g], v[g:j:g]))
        # v[t] v[t-j]^* - K[t, j] at t = 0 mod g, from its zero sum over the residues
        d = -(g / j) * (s - kj)
        assign(j, kjj + d)  # v[j] v[0]^*
        if 2 * j < N:
            assign(N - j, (k0j + d).conjugate())  # (v[0] v[-j]^*)^*
    return Signal(group, v[(np.arange(N) - z) % N])


def island_count(mask: np.ndarray) -> int:
    """Number of maximal arcs of True values on the index circle."""
    if mask.all():
        return 1
    return np.count_nonzero(mask != np.roll(mask, 1)) // 2


@dataclass
class RoundtripReport:
    order: int
    class_distance: float | None  # None when the signal behind Q is unknown
    distribution_residual: float
    islands: int
    pivot_magnitude: float
    recovered: Signal


def class_distance(u: Signal, v: Signal) -> float:
    """min over |lambda| = 1 of ||u - lambda v|| in the Haar L2 norm."""
    require_single(u, v)
    ip = haar_inner(u, v)
    lam = ip / abs(ip) if abs(ip) > 0 else 1.0
    return norm(Signal(u.group, u.values - lam * v.values))


def retrieval_report(Q: TFFunction, tol_zero: float = 1e-9) -> RoundtripReport:
    """Retrieve [u] from a distribution table Q and measure the result
    against Q itself: the residual ||Q[rec] - Q||, the islands and the pivot."""
    rec = phase_retrieve(Q, tol_zero)  # before the kernel, which it does not need
    return _retrieval_report(Q, rec, born_jordan_cyclic_kernel(Q.group.order))


def _retrieval_report(Q: TFFunction, rec: Signal, k: CohenKernel) -> RoundtripReport:
    diff = cohen_transform(k, rec, rec)
    for a, b in zip(diff.runs, Q.runs):
        a -= b  # Q[rec] - Q in Q[rec]'s own table
    return RoundtripReport(
        order=Q.group.order,
        class_distance=None,
        distribution_residual=tf_norm(diff),
        islands=island_count(np.abs(rec.values) > 0),
        pivot_magnitude=float(np.abs(rec.values).max()),
        recovered=rec,
    )


def roundtrip_report(u: Signal, tol_zero: float = 1e-9) -> RoundtripReport:
    """Forward transform, retrieve, and measure how well [u] was recovered."""
    require_single(u)
    k = born_jordan_cyclic_kernel(u.group.order)
    Q = cohen_transform(k, u, u)
    rep = _retrieval_report(Q, phase_retrieve(Q, tol_zero), k)
    return replace(rep, class_distance=class_distance(u, rep.recovered))
