"""Cohen-class time-frequency transforms and the kernel library.

Every transform D is determined by its ambiguity kernel phi:

    D(u, v) = F^{-1}( phi . FR(u, v) ),

where FR(u, v) is the ambiguity transform of the Rihaczek (Kohn-Nirenberg)
base transform and the product is the pointwise matrix product with the
kernel on the left.  `cohen_transform` works in the time-lag domain: the lag
product w[y, x] = u(x) v(x y^{-1})^*, the kernel's action on it, then one
transform in y.  A kernel with a lag form (kn, anti-kn, margin-fix, wigner-odd,
born-jordan, and `limits.sampled_z_kernel`) acts on w directly: a shift, a mean
or box sums of w along x (`_box_sums`); any other (spectrogram, commutator and
kernels built from a table) takes phi between the transform in x and its
inverse in xi, the three stages' middle.  On the FFT route D(u, u), u the same object as v,
of a kernel proven symmetric (`CohenKernel.hermitian`) is real: float64 runs from the lags
0..n_1/2 and one real inverse FFT.  Every other D is complex.  The library provides:

* kn / anti-kn          phi = I  /  phi(xi, y) = xi(y)
* born-jordan (Z/N)     the commutator kernel with the margin fix on the axes
* commutator            i 2 pi [A, B] for position/momentum labelings f, g
* margin-fix            I on the axes xi = trivial or y = e, zero elsewhere
* spectrogram           phi = FR(w, w)^* for a window w
* wigner-odd (Z/N, odd) phi(xi, y) = xi(y^{1/2}) via the modular halving map
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .groups import (FiniteGroup, UnitaryDual, block_product, build_cyclic, cyclic_exponents, group_fourier,
                     group_inverse_fourier, is_cyclic, representation_runs, require_same_dual, require_same_group)
from .harmonic import Signal, fourier, norm, require_pairable, require_single
from .tfplane import AmbiguityFunction, TFFunction, TimeLagKernel, ambiguity_to_timelag, timelag_to_ambiguity

__all__ = ["CohenKernel", "rihaczek", "ambiguity_transform", "cohen_transform", "conjugate_kernel", "kn_kernel",
           "anti_kn_kernel", "born_jordan_cyclic_kernel", "commutator_kernel", "margin_fix_kernel", "add_kernels",
           "stft", "spectrogram_kernel", "wigner_kernel_odd_cyclic", "wigner_odd_cyclic", "gaussian_window"]

BOX_BYTES = 1 << 19  # the box sums' buffer: the cumulative sums of one block of lag rows


class CohenKernel:
    """An ambiguity (Doppler-lag) kernel naming a Cohen-class transform.

    `phi` is the kernel's AmbiguityFunction, or, with `dual` given, a function
    making it when first read, as `UnitaryDual.table` is made.  `lag`, if given,
    is its lag form: t = lag(w), the kernel's action on the lag product
    w[y, ..., x] (see `cohen_transform`), written into w where it can be; the
    library's (kn, anti-kn, margin-fix, wigner-odd, born-jordan and sampled-z)
    make their phi when read.
    """

    hermitian = False  # D(u, u) is real: set by builders whose kernels pass an exhaustive check_symmetric

    def __init__(self, name: str, phi, lag=None, dual: UnitaryDual | None = None):
        self.name, self.lag = name, lag
        if dual is None:
            self.phi, self.group, self.dual = phi, phi.group, phi.dual
        else:
            self._phi, self.group, self.dual = phi, dual.group, dual

    @functools.cached_property
    def phi(self) -> AmbiguityFunction:
        return self._phi()

    @functools.cached_property
    def timelag(self) -> TimeLagKernel:
        """The scalar time-lag form of this kernel, made on first read."""
        return ambiguity_to_timelag(self.phi)

    def linf_norm(self) -> float:
        """max over (xi, y) of the spectral norm of phi(xi, y)."""
        return max(float(np.abs(run).max() if run.shape[-1] == 1
                         else np.linalg.svd(run, compute_uv=False).max())
                   for run in self.phi.runs)


# ---------------------------------------------------------------------------
# Base transforms
# ---------------------------------------------------------------------------


def rihaczek(u: Signal, v: Signal) -> TFFunction:
    """R(u,v)(x, eta) = u(x) eta(x)^* v_hat(eta)^*: the Cohen transform of `kn_kernel`,
    whose lag form leaves the lag product u(x) v(x y^{-1})^* as it is."""
    require_same_group(u.group, v.group, "signals")
    require_single(u, v)
    return cohen_transform(kn_kernel(u.group.dual), u, v)


def ambiguity_transform(u: Signal, v: Signal) -> AmbiguityFunction:
    """Cross-ambiguity function of two signals.

    FR(u,v)(xi, y) = (1/|G|) sum_x xi(x)^* u(x) v(x y^{-1})^*, i.e. the
    matrix-valued Fourier transform in x of the lag product u(x) v(x y^{-1})^*.
    Equals the symplectic Fourier transform of rihaczek(u, v); its value at
    the origin (trivial irrep, identity lag) is <u, v>.  For batches u, v of
    B signals each, the runs are (end - first, B, |G|, d, d), entry b being
    FR(u[b], v[b]).
    """
    require_pairable(u, v)
    group, dual = u.group, u.group.dual
    # transformed in x, which goes first: the batch axis lands between x and y
    return AmbiguityFunction(group, dual, group_fourier(dual, _lag_product(None, u, v).T))


def cohen_transform(k: CohenKernel, u: Signal, v: Signal) -> TFFunction:
    """Time-frequency distribution D(u, v) = F^{-1}(phi . FR(u, v)).

    Parameters
    ----------
    k : CohenKernel
        Ambiguity kernel; multiplies FR(u, v) blockwise on the left.
    u, v : Signal
        Signals on the kernel's group (use v = u for the distribution of u),
        or two batches of B signals each.

    Returns
    -------
    TFFunction
        Matrix-valued distribution over the time-frequency plane.  Bounded by
        ||phi||_Linf ||u|| ||v|| in the plane's L2 norm.  For batches its
        runs are (end - first, B, |G|, d, d), entry b being D(u[b], v[b]).
        Its runs are float64 for D(u, u) of a `hermitian` kernel on the FFT
        route (u the same object as v), and complex otherwise.

    One path on every dual: the lag product w[y, ..., x] = u(x) v(x y^{-1})^*
    (the batch axis, if any, between y and x), then the kernel's lag form
    (`CohenKernel.lag`) if it has one, else the product with phi between the
    transform in x and its inverse in xi, then the transform in y:
    `group_fourier`, or on a dual with cyclic factors (`UnitaryDual.cyclic_factors`),
    at every order, an in-place FFT of w, whose only strided transform it is.  A real D(u, u) has Hermitian lag rows,
    t[y^{-1}] = t[y]^*: only the prefix of w with y_1 <= n_1/2 is made, and one real inverse FFT.
    """
    require_same_group(k.group, u.group, "kernel and signal")
    require_same_dual(k.dual, u.group.dual, "kernel and signal")
    require_pairable(u, v)
    group, dual, shape = u.group, u.group.dual, u.group.dual.cyclic_factors
    rows = shape[0] // 2 + 1 if shape and u is v and k.hermitian else None
    w = _lag_product(shape, u, v, rows)
    t = k.lag(w) if k.lag else _phi_product(k.phi, dual, shape, w)
    if shape is None:
        return TFFunction(group, dual, group_fourier(dual, t))
    t = np.ascontiguousarray(t)  # in case a lag form returns t in another order than w
    first = t.reshape(-1, *shape[1:], *t.shape[1:])
    # D[eta, ..., x]; with rows, (1/n) sum_y t[y]^* eta(y), real: the conjugate's irfftn ("backward" scale)
    D = (np.fft.irfftn(np.conjugate(first, out=first), s=(*shape[1:], shape[0]), axes=(*range(1, len(shape)), 0))
         if rows else np.fft.fftn(first, s=shape, axes=range(len(shape)), norm="forward", out=first))
    return TFFunction(group, dual, [D.reshape(-1, *t.shape[1:])[..., None, None]])


def _lag_product(shape: tuple[int, ...] | None, u: Signal, v: Signal, rows: int | None = None) -> np.ndarray:
    """w[y, ..., x] = u(x) v(x y^{-1})^*: on the naive route a view of the x-major
    product that `ambiguity_transform` transforms; on the FFT route (factor orders
    `shape`) C-ordered, read through a window view of v, not an index table: with
    `rows` given, only the lags whose first factor is below it."""
    if shape is None:
        w = u.values[..., :, None] * v.values.conj().take(u.group.lag_index.T, axis=-1)  # w[..., x, y]
        return w.transpose(-1, *range(w.ndim - 1))
    n, lead, r = u.values.shape[-1], u.values.shape[:-1], len(shape)
    # v^* doubled along each factor axis; view[y, ..., x] reads it at x_j - y_j + n_j, in 1..2 n_j - 1
    vc = np.tile(v.values.conj().reshape(*lead, *shape), (2,) * r)
    step = vc.strides[-r:]
    view = np.ndarray((*shape, *lead, *shape), complex, vc, sum(m * s for m, s in zip(shape, step)),
                      (*(-s for s in step), *vc.strides))
    return np.multiply(view[:rows], u.values.reshape(*lead, *shape), order="C").reshape(-1, *lead, n)


def _phi_product(phi: AmbiguityFunction, dual: UnitaryDual, shape, w: np.ndarray) -> np.ndarray:
    """t[y, ..., x] = F^{-1}_xi (phi . F_x w), for a kernel without a lag form.  On the
    FFT route in place on w along its last, contiguous axes, phi[xi, y] read as phi^T,
    which the cyclic kernels store C-ordered, in the rows that w holds."""
    if shape is None:
        runs = phi.runs if w.ndim == 2 else [p[:, None] for p in phi.runs]  # a batch axis to broadcast over
        return group_inverse_fourier(dual, block_product(runs, group_fourier(dual, w.T))).T
    last, axes = w.reshape(*w.shape[:-1], *shape), range(-len(shape), 0)
    np.fft.fftn(last, s=shape, axes=axes, norm="forward", out=last)  # FR(u, v)[xi, y]
    w *= phi.scalar_table().T[:len(w), None] if w.ndim == 3 else phi.scalar_table().T[:len(w)]
    np.fft.ifftn(last, s=shape, axes=axes, norm="forward", out=last)  # t[x, y]
    return w


# ---------------------------------------------------------------------------
# Kernel library
# ---------------------------------------------------------------------------


def _symmetric(k: CohenKernel) -> CohenKernel:
    """k flagged `hermitian`, by a builder whose kernels pass an exhaustive `check_symmetric`."""
    k.hermitian = True
    return k


def kn_kernel(dual: UnitaryDual) -> CohenKernel:
    """Kohn-Nirenberg / Rihaczek kernel: phi(xi, y) = I everywhere.  Its lag form leaves w as it is."""
    return CohenKernel("kn", lambda: AmbiguityFunction(dual.group, dual, [
        np.broadcast_to(np.eye(d, dtype=complex), (end - first, dual.group.order, d, d)).copy()
        for first, end, d, _ in dual.runs]), lambda w: w, dual)


def _shift_lag(group: FiniteGroup, shifts):
    """The lag form of a kernel phi(xi, y) = xi(s(y)), s(y) = shifts[y]: as xi(x) xi(s) = xi(x s),
    it is the gather t[y, x] = w[y, x s(y)], lag by lag in place, over the lags that w holds."""
    columns = group.cayley.T  # columns[s, x] = x s

    def lag(w):
        for y, s in enumerate(shifts[:len(w)]):
            w[y] = w[y][..., columns[s]]
        return w
    return lag


def anti_kn_kernel(dual: UnitaryDual) -> CohenKernel:
    """Anti-Kohn-Nirenberg kernel: phi(xi, y) = xi(y).  Its lag form is the
    shift t[y, x] = w[y, x y] (`_shift_lag` with s(y) = y)."""
    group = dual.group
    return CohenKernel("anti-kn", lambda: AmbiguityFunction(
        group, dual, [xi.copy() for xi in representation_runs(dual)]), _shift_lag(group, range(group.order)), dual)


def margin_fix_kernel(dual: UnitaryDual) -> CohenKernel:
    """The minimal kernel with correct margins: I on the axes, 0 elsewhere.

    The resulting transform is
    D(u,v)(x,eta) = u_hat(eta) v_hat(eta)^* + (u(x) v(x)^* - <u,v>) I / |G|.
    Its lag form keeps w on the identity lag and puts on every other lag y
    the mean of w[y, .], the lag's transform at the trivial irrep.
    """
    group, e = dual.group, dual.group.identity

    def phi():
        runs = [np.zeros((end - first, group.order, d, d), dtype=complex) for first, end, d, _ in dual.runs]
        for run in runs:
            run[:, e] = np.eye(run.shape[-1])
        phi = AmbiguityFunction(group, dual, runs)
        phi.blocks[dual.trivial_index][:] = 1.0
        return phi

    def lag(w):
        mean = w.mean(axis=-1, keepdims=True)
        w[:e], w[e + 1:] = mean[:e], mean[e + 1:]
        return w
    return _symmetric(CohenKernel("margin-fix", phi, lag, dual))


def _box_sums(w: np.ndarray, start, length, weight=None, total=None, count: int | None = None) -> np.ndarray:
    """Box sums along the last axis of lag rows w[y, ..., x], written into w[..., :count]:
    t[y, ..., i] = weight[y] sum_{s < length[y]} w[y, ..., (i + start[y] + s) mod n] + total[y] sum_x w[y, ..., x],
    weight 1 and total 0 when not given.  Each window is the difference of two entries of its row's cumulative
    sum, continued into the next period as far as windows read (0 <= start, windows end before 2n).  start and
    length are affine in the lag, so a block of lags reads each end as one strided view of one reused buffer
    of about BOX_BYTES.  The per-lag arguments may run past the rows of w, a prefix of their lags."""
    n, lead, count = w.shape[-1], w.shape[1:-1], w.shape[-1] if count is None else count
    lo, hi = np.asarray(start)[:len(w)], np.add(start, length)[:len(w)]
    width = n + 1 + max(int(hi.max(initial=0)) + count - 1 - n, 0)
    step = max(1, BOX_BYTES // (16 * width * math.prod(lead)))
    buf, col = np.zeros((min(step, len(w)), *lead, width), dtype=complex), (-1,) + (1,) * (w.ndim - 1)
    for s in range(0, len(w), step):
        rows, t = w[s:s + step], w[s:s + step, ..., :count]
        c, ext = buf[:len(rows)], max(int(hi[s:s + step].max()) + count - 1 - n, 0)
        rows.cumsum(axis=-1, out=c[..., 1:n + 1])
        np.add(c[..., n:n + 1], c[..., 1:1 + ext], out=c[..., n + 1:n + 1 + ext])  # the next period
        # row j reads c[j, ..., k[s + j] + i]: k is affine, so each end is one strided view of buf
        a, b = (np.ndarray(t.shape, complex, buf, k[s] * buf.itemsize, (
            buf.strides[0] + (k[s + (len(t) > 1)] - k[s]) * buf.itemsize, *buf.strides[1:])) for k in (hi, lo))
        np.subtract(a, b, out=t)
        if weight is not None:
            t *= weight[s:s + len(t)].reshape(col)
        if total is not None:
            t += total[s:s + len(t)].reshape(col) * c[..., n:n + 1]
    return w


def _born_jordan_box(N: int) -> np.ndarray:
    """1 / c(y) = N (1 - e^{-i 2 pi y / N}) / (2 pi i) on Z/NZ, 0 at y = 0: Born-Jordan's box sums are divided by it."""
    return N / (2j * np.pi) * (1 - np.exp(-2j * np.pi * np.arange(N) / N))


def born_jordan_cyclic_kernel(N: int) -> CohenKernel:
    """Born-Jordan kernel on Z/NZ: commutator kernel plus margin fix.  Its lag form keeps row 0
    and is a box for y != 0: t[y, x] = c(y) sum_{s < y} w[y, x + s] + (1 - c(y) y) mean_x w[y, .],
    c(y) = 1 / `_born_jordan_box`.  Its phi is made only when read, stored lag-major: the transpose
    of a C-ordered table [y, xi] filled in blocks of rows, so phi^T reads in memory order."""
    group, dual = build_cyclic(N)

    def phi():
        # 2 pi i (1 - chi_xi(y)) / (N (1 - chi_xi(1)) (1 - chi_y(1)^*)) off the axes, in blocks of 2^16 entries
        # from the reduced phases; divided by the product of the factors (one after the other rounds otherwise)
        a = 1.0 - np.exp(2j * np.pi * np.arange(N) / N)
        num, b = np.multiply(2j * np.pi / N, a), a.conj()
        a[0] = b[0] = 1.0  # zero on the axes, set below
        table = np.empty((N, N), dtype=complex)  # [y, xi]
        for s in range(0, N, step := -(-(1 << 16) // N)):
            rows = table[s:s + step]
            num.take(cyclic_exponents(N, slice(s, s + step)), out=rows, mode="clip")  # in range; "raise" buffers
            np.divide(rows, a * b[s:s + step, None], out=rows)
        table[0, :] = 1.0
        table[:, 0] = 1.0
        return AmbiguityFunction(group, dual, [table.T[..., None, None]])

    def lag(w):
        y, c = np.arange(1, N), 1 / _born_jordan_box(N)[1:]
        _box_sums(w[1:], 0 * y, y, c, (1 - c * y) / N)
        return w
    return _symmetric(CohenKernel(f"born-jordan:{N}", phi, lag, dual))


def commutator_kernel(f: Signal, g: Signal) -> CohenKernel:
    """Kernel of the uncertainty observable -i 2 pi [A, B] on a cyclic group.

    A is multiplication by the real position labeling f, B is convolution by g
    (momentum labeling).  The operator kernel is
    K(x, y) = i 2 pi (f(y) - f(x)) g(x - y), and the time-lag kernel is
    varphi(x, y) = K(-x, -x-y)^*.  Margins of the resulting transform vanish;
    add `margin_fix_kernel` to repair them.
    """
    group = f.group
    require_same_group(group, g.group, "labelings")
    require_single(f, g)
    if not is_cyclic(group):
        raise ValueError("commutator_kernel requires a cyclic group")
    if np.abs(f.values.imag).max() > 1e-12:
        raise ValueError("position labeling f must be real-valued")
    ghat = fourier(g).runs[0][:, 0, 0]
    if np.abs(ghat.imag).max() > 1e-9:
        warnings.warn("momentum labeling has a non-real Fourier transform; "
                      "the commutator observable is not self-adjoint")
    N = group.order
    x = np.arange(N)
    fv = f.values.real
    # varphi(x, y) = i 2 pi (f(-x) - f(-x-y)) g(y)^*
    lag = 2j * np.pi * (fv[(-x[:, None]) % N] - fv[(-x[:, None] - x[None, :]) % N]) \
        * g.values.conj()[None, :]
    phi = timelag_to_ambiguity(TimeLagKernel(group, lag))
    return CohenKernel("commutator", phi)


def add_kernels(k1: CohenKernel, k2: CohenKernel, on_overlap: str = "sum") -> CohenKernel:
    """Entrywise sum of two kernels on the same group.

    on_overlap controls the axis entries (xi trivial or y identity):
    "sum" adds everywhere; "replace" takes k2's entries on the axes (used when
    k2 is a margin fix and k1 vanishes there, refusing silent double counts).
    """
    if on_overlap not in ("sum", "replace"):
        raise ValueError(f"on_overlap must be 'sum' or 'replace', got {on_overlap!r}")
    require_same_group(k1.group, k2.group, "kernels")
    require_same_dual(k1.dual, k2.dual, "kernels")
    group, dual = k1.group, k1.dual
    if on_overlap == "sum":
        runs = [r1 + r2 for r1, r2 in zip(k1.phi.runs, k2.phi.runs)]
    else:
        runs = [r1.copy() for r1 in k1.phi.runs]
        for r, r2 in zip(runs, k2.phi.runs):
            r[:, group.identity] = r2[:, group.identity]
    phi = AmbiguityFunction(group, dual, runs)
    if on_overlap == "replace":
        phi.blocks[dual.trivial_index][:] = k2.phi.blocks[dual.trivial_index]
    return CohenKernel(f"{k1.name}+{k2.name}", phi)


def conjugate_kernel(k: CohenKernel) -> CohenKernel:
    """Kernel of the conjugate transform D^*(u,v) = D(v,u)^*:

    varphi_{D^*}(x, y) = varphi_D(y x, y^{-1})^*.
    """
    group = k.group
    lag = k.timelag.values
    cay, inv = group.cayley, group.inverse
    yx = cay.T  # yx[x, y] = y * x
    new = np.conj(lag[yx, inv[None, :]])  # new[x, y] = lag(y x, y^{-1})^*
    phi = timelag_to_ambiguity(TimeLagKernel(group, new), k.dual)
    undo = k.name.startswith("conj(") and k.name.endswith(")")
    return CohenKernel(k.name[5:-1] if undo else f"conj({k.name})", phi)


# ---------------------------------------------------------------------------
# STFT, spectrograms, Wigner
# ---------------------------------------------------------------------------


def stft(w: Signal, u: Signal) -> TFFunction:
    """Short-time Fourier transform with window w:

    G_w u(x, eta) = (1/|G|) sum_y eta(y)^* u(y) w(x^{-1} y)^*.
    """
    require_same_group(w.group, u.group, "window and signal")
    require_single(w, u)
    group, dual = u.group, u.group.dual
    # W2[y, x] = u(y) w(x^{-1} y)^*
    W2 = u.values[:, None] * w.values.conj()[group.cayley[group.inverse]].T
    return TFFunction(group, dual, group_fourier(dual, W2))


def spectrogram_kernel(w: Signal) -> CohenKernel:
    """Kernel with phi(xi, y) = FR(w, w)(xi, y)^*; its distribution factors as
    D(u,v)(x,eta) = G_w u(x,eta) G_w v(x,eta)^* and is positive for v = u.
    """
    require_single(w)
    if abs(norm(w) - 1.0) > 1e-8:
        warnings.warn(f"spectrogram window is not unit-energy (||w|| = {norm(w):.6g}); "
                      "the transform will not be normalized")
    runs = [r.conj().swapaxes(-1, -2) for r in ambiguity_transform(w, w).runs]
    return _symmetric(CohenKernel("spectrogram", AmbiguityFunction(w.group, w.group.dual, runs)))


def wigner_kernel_odd_cyclic(N: int) -> CohenKernel:
    """Wigner kernel phi(xi, y) = xi(h(y)), h(y) = (N + 1) / 2 * y mod N the halving
    map of odd N.  As 2 h(y) = y, its lag form is the shift t[y, x] = w[y, x + h(y)]
    = u(x + h(y)) v(x - h(y))^* (`_shift_lag` with s = h).  Its phi, made on first
    read, is exp(i 2 pi (xi h(y) mod N) / N) from the reduced phases without the
    dual's table, stored lag-major as the transpose of a C-ordered table [y, xi]."""
    if N % 2 == 0:
        raise ValueError(f"the halving map y -> y/2 needs odd order, got N = {N}")
    (group, dual), h = build_cyclic(N), ((N + 1) // 2 * np.arange(N)) % N
    return _symmetric(CohenKernel(f"wigner-odd:{N}", lambda: AmbiguityFunction(group, dual, [
        np.exp(2j * np.pi * np.arange(N) / N)[cyclic_exponents(N, h)].T[..., None, None]]), _shift_lag(group, h), dual))


def wigner_odd_cyclic(u: Signal, v: Signal) -> TFFunction:
    """Natural Wigner transform on an odd cyclic group:

    W(u,v)(x, eta) = (1/N) sum_y e^{-i 2 pi y eta / N} u(x + h(y)) v(x - h(y))^*,

    the Cohen transform of `wigner_kernel_odd_cyclic(N)`: the dual must be cyclic:N's.
    """
    require_same_group(u.group, v.group, "signals")
    require_single(u, v)
    if not is_cyclic(u.group):
        raise ValueError("wigner_odd_cyclic requires a cyclic group")
    return cohen_transform(wigner_kernel_odd_cyclic(u.group.order), u, v)


def gaussian_window(group: FiniteGroup, sigma: float) -> Signal:
    """Unit-energy discrete Gaussian w(x) ~ e^{-pi (x/sigma)^2}, centered at 0.

    Distances are measured on the index circle (minimal residue), so the
    window is symmetric around the identity of a cyclic group.  A sigma that
    is not > 0 (zero, negative or NaN) raises ValueError.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, not {sigma!r}")
    n = group.order
    x = np.arange(n)
    d = np.minimum(x, n - x).astype(float)
    w = np.exp(-np.pi * (d / sigma) ** 2)
    w = w / np.sqrt(np.sum(np.abs(w) ** 2) / n)
    return Signal(group, w)
