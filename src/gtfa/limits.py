"""Large-N limits of the cyclic Born-Jordan transform.

As N grows, the cyclic kernel tends to two limiting kernels: one on the
circle group (frequency variable an integer, lag variable a point of the
circle) and one on the integers (frequency in [0,1), integer lag).  Both are
evaluated through their finite geometric-sum forms, never through the
0/0-prone quotient.

The integer-side transform is what the nonperiodic distribution pictures use:
for a finitely supported signal u on Z, with counting measure,

    Q_Z[u](x, theta) = sum_{y != 0} e^{-i 2 pi y theta}
                         sum_t varphi_Z(x - t, y) u(t) u(t - y)^*
                       [ + |u(x)|^2  with the margin axis fix ],

where varphi_Z(x, y) = 1/|y| on the one-sided window -y < x <= 0 (y > 0)
resp. 0 < x <= -y (y < 0), and zero otherwise.  The kernel's y = 0 axis is
zero; the optional axis fix adds the frequency-flat term |u(x)|^2, the
integer-side analogue of the margin-repair kernel, so that margins and total
energy come out right.  It is on by default.  On an M-bin frequency grid the
phase depends on y only through y mod M, so the sum over lags is a fold onto
the M residues and one length-M FFT per time.  The rows of window sums come,
a few lags at a time, from the box sums the cyclic Born-Jordan and sampled
kernels use for their lag forms (`transforms._box_sums`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import build_cyclic
from .harmonic import Signal
from .tfplane import TimeLagKernel, timelag_to_ambiguity
from .transforms import CohenKernel, _box_sums, _symmetric, born_jordan_cyclic_kernel, cohen_transform

# lags per block of the nonperiodic sums: their products and cumulative sums take about what one
# lag's temporaries took alone, so q_z_distribution still peaks at its grid, and stay in cache
LAG_BLOCK = 3

__all__ = ["ZSignal", "ZTFGrid", "ComparisonReport", "phi_DT", "phi_DZ", "varphi_DZ", "q_z_distribution",
           "sampled_z_kernel", "cyclic_vs_z_comparison"]


@dataclass
class ZSignal:
    """Finitely supported signal on the integers: values[i] = u(offset + i)."""

    offset: int
    values: np.ndarray
    sample_rate: int | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex).reshape(-1)
        if len(self.values) == 0:
            raise ValueError("ZSignal needs at least one sample")

    def __len__(self) -> int:
        return len(self.values)

    def at(self, t: int) -> complex:
        i = t - self.offset
        return self.values[i] if 0 <= i < len(self.values) else 0.0

    def energy(self) -> float:
        """Counting-measure energy sum |u(t)|^2."""
        return float(np.sum(np.abs(self.values) ** 2))


@dataclass
class ZTFGrid:
    """Time-frequency grid for integer-side distributions.

    values[k, i] is the distribution at time t_start + i and frequency k / M;
    row 0 is the lowest frequency.  Values of a symmetric kernel are real up
    to rounding; the residual imaginary part is kept for reporting.
    """

    t_start: int
    freq_bins: int
    values: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return self.t_start + np.arange(self.values.shape[1])

    @property
    def imag_residue(self) -> float:
        return float(np.abs(self.values.imag).max(initial=0.0))

    def real_grid(self) -> np.ndarray:
        return np.ascontiguousarray(self.values.real)


# ---------------------------------------------------------------------------
# Limit kernels, geometric-sum evaluation
# ---------------------------------------------------------------------------


def phi_DT(xi: int, y: float) -> complex:
    """Circle-group limit kernel; xi integer frequency lag, y a point of T.

    Evaluated as (1/|xi|) sum of |xi| unimodular terms, so |phi| <= 1 and the
    value at y = 0 is exactly 1 for xi != 0; zero when xi = 0.
    """
    if xi == 0:
        return 0.0
    y = y % 1.0
    if xi > 0:
        ks = np.arange(1, xi + 1)
        return complex(np.exp(2j * np.pi * y * ks).sum() / xi)
    ks = np.arange(0, -xi)
    return complex(np.exp(-2j * np.pi * y * ks).sum() / (-xi))


def phi_DZ(xi: float, y: int) -> complex:
    """Integer-side limit kernel; xi in [0, 1), y an integer lag.

    (1/|y|) times a geometric sum of |y| unimodular terms; zero on y = 0,
    exactly 1 at xi = 0 for y != 0.
    """
    if y == 0:
        return 0.0
    xi = xi % 1.0
    if y > 0:
        ks = np.arange(0, y)
    else:
        ks = np.arange(y, 0)
    return complex(np.exp(2j * np.pi * xi * ks).sum() / abs(y))


def varphi_DZ(x: int, y: int) -> float:
    """Integer-side time-lag kernel: 1/|y| on -y < x <= 0 or 0 < x <= -y."""
    if y == 0:
        return 0.0
    if (-y < x <= 0) or (0 < x <= -y):
        return 1.0 / abs(y)
    return 0.0


# ---------------------------------------------------------------------------
# The nonperiodic distribution
# ---------------------------------------------------------------------------


def _lag_blocks(u: ZSignal, t_start: int, t_count: int):
    """The lags y != 0 of u, from -(L - 1) to L - 1, in blocks of one sign, each with its
    rows of lag sums h_y[i] = sum_t varphi_Z(x_i - t, y) u(t) u(t - y)^*,  x_i = t_start + i.

    For y > 0 the window is t = x .. x + y - 1, for y < 0 it is t = x - |y| .. x - 1: box sums
    of length and divisor |y|.  A block's products u(t) u(t-y)^* are formed over the span its
    windows read, from an exact +0 one before the support at the latest, in one buffer: the
    rows yielded are a view that the next block overwrites."""
    L = len(u)
    lo = min(t_start, u.offset) - L  # padding keeps windows and shifts in bounds
    hi = max(t_start + t_count, u.offset + L) + L
    full = np.zeros(hi - lo, dtype=complex)
    full[u.offset - lo : u.offset - lo + L] = u.values
    first = min(t_start, u.offset - 1) - lo
    buf = np.empty(LAG_BLOCK * (t_count + L + abs(t_start - u.offset) + 1), dtype=complex)
    for a, b in ((1 - L, 0), (1, L)):
        for y0 in range(a, b, LAG_BLOCK):
            ys = np.arange(y0, min(y0 + LAG_BLOCK, b))
            s = first + min(ys[0], 0)  # the block's largest |y| < 0 shifts its span back
            n = t_start - lo + t_count - 1 + max(ys[-1], 0) - s
            rows = buf[:len(ys) * n].reshape(len(ys), n)  # rows[j, t - s] = u(t) u(t - ys[j])^*, u first
            np.conj(np.ndarray(rows.shape, complex, full, (s - y0) * full.itemsize, (-full.itemsize, full.itemsize)),
                    out=rows)
            np.multiply(full[s:s + n], rows, out=rows)
            m = np.abs(ys)
            sums = _box_sums(rows, t_start - lo - s - np.maximum(-ys, 0), m, count=t_count)[:, :t_count]
            yield ys, np.divide(sums, m[:, None].astype(complex), out=sums)  # complex: no cast in the loop


def q_z_distribution(
    u: ZSignal,
    M: int,
    t_start: int | None = None,
    t_count: int | None = None,
    axis_fix: bool = True,
) -> ZTFGrid:
    """Nonperiodic Born-Jordan distribution of u on an M-bin frequency grid.

    Each lag's row of window sums is added onto the row of its residue mod M,
    in one (M, t_count) array, and one length-M FFT per time takes the sum
    over lags.

    The default time window is the support of u, which carries all of the
    margin mass: summing the grid over frequencies (weight 1/M) returns
    |u(x)|^2 exactly whenever M exceeds the largest contributing lag.
    """
    if M < 1:
        raise ValueError("frequency grid size must be >= 1")
    if t_start is None:
        t_start = u.offset
    if t_count is None:
        t_count = len(u)
    if t_count < 0:
        raise ValueError(f"t_count must be >= 0, not {t_count}")
    folded = np.zeros((M, t_count), dtype=complex)  # folded[r] = sum of h_y over y = r mod M
    for ys, rows in _lag_blocks(u, t_start, t_count):
        while len(ys):  # residues r, r + 1, ... up to M - 1 at a time, as slices
            r, k = ys[0] % M, min(len(ys), M - ys[0] % M)
            folded[r:r + k] += rows[:k]
            ys, rows = ys[k:], rows[k:]
    vals = np.fft.fft(folded, axis=0, out=folded)  # vals[k, i]
    if axis_fix:  # |u(x)|^2 at the window's times, zero off the support
        lo, hi = np.clip([u.offset - t_start, u.offset + len(u) - t_start], 0, t_count)
        energy = np.zeros(t_count)
        energy[lo:hi] = np.abs(u.values[lo + t_start - u.offset:hi + t_start - u.offset]) ** 2
        vals += energy
    return ZTFGrid(t_start, M, vals)


# ---------------------------------------------------------------------------
# Cyclic comparison
# ---------------------------------------------------------------------------


def sampled_z_kernel(N: int) -> CohenKernel:
    """The integer-side Born-Jordan kernel carried onto Z/NZ.

    Time-lag entries are N * varphi_Z at minimal residues (the factor N
    converts counting measure to the probability Haar weight).  For even N
    the boundary lag class N/2 has two minimal lifts; both are taken at half
    weight, and both lifts of the boundary time class are summed, so the
    margins of the sampled kernel stay exact.  The axis fix plants the
    margin-repairing delta at (0, 0).

    Lags shorter than N/2 are untouched by the lift bookkeeping, so cyclic
    transforms with this kernel reproduce `q_z_distribution` exactly for
    signals supported on less than a third of the period.

    Its lag form keeps row 0 (the delta) and sums each window at weight 1/|y|
    (`_box_sums`); its phi, made on first read, is the transform of the lag
    form's action on N delta_0 in every row, the time-lag table.
    """
    group, dual = build_cyclic(N)

    def lag(w):
        p, q = (N + 1) // 2, N // 2 + 1
        near, far, one = np.arange(1, p), np.arange(q, N), np.array([N])
        _box_sums(w[1:p], 0 * near, near, 1 / near)  # 0 < y < N/2: [x, x + y)
        _box_sums(w[q:], far, N - far, 1 / (N - far))  # their negatives y - N: [x - |y - N|, x)
        _box_sums(w[p:q], 0 * one, one, 1 / one)  # N/2 for even N, both windows at half weight: the circle at 1/N
        return w

    def phi():  # the time-lag table [x, y] is the lag form's action on N delta_0 in every row
        return timelag_to_ambiguity(TimeLagKernel(group, lag(np.eye(1, N, dtype=complex).repeat(N, 0) * N).T), dual)
    return _symmetric(CohenKernel(f"sampled-z:{N}", phi, lag, dual))


@dataclass
class ComparisonReport:
    order: int
    residual: float
    compared_cells: int
    kernel: str


def cyclic_vs_z_comparison(u: ZSignal, N: int, kernel: str = "sampled") -> ComparisonReport:
    """Compare the nonperiodic distribution with a cyclic computation on Z/N.

    The signal is embedded at offset N//3 (N >= 3 * support) and the cyclic
    transform is evaluated on the same grid; the residual is the maximum
    absolute difference over the central third of the period, away from the
    wrap-around boundary.

    kernel="sampled" runs the cyclic side with the periodized integer kernel
    (`sampled_z_kernel`); the two routes then compute identical sums and the
    residual is at rounding level.  kernel="born-jordan" uses the genuine
    cyclic Born-Jordan kernel, which differs from the integer kernel at order
    O(1/N); the residual it reports is that model difference, not an error.
    """
    L = len(u)
    if N < 3 * L:
        raise ValueError(f"period N = {N} must be at least 3 * support = {3 * L}")
    group, _ = build_cyclic(N)
    ofs = N // 3
    emb = np.zeros(N, dtype=complex)
    emb[ofs : ofs + L] = u.values
    sig = Signal(group, emb)
    if kernel == "sampled":
        k = sampled_z_kernel(N)
    elif kernel == "born-jordan":
        k = born_jordan_cyclic_kernel(N)
    else:
        raise ValueError(f"unknown comparison kernel {kernel!r}")
    D = cohen_transform(k, sig, sig)
    cyc = N * D.scalar_table()  # [eta, x], counting-measure scale

    zu = ZSignal(ofs, u.values)
    lo, hi = N // 3, 2 * N // 3
    grid = q_z_distribution(zu, N, t_start=lo, t_count=hi - lo)
    resid = float(np.abs(cyc[:, lo:hi] - grid.values).max())
    return ComparisonReport(N, resid, grid.values.size, kernel)
