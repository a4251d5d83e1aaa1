"""Cohen-class time-frequency transforms and the kernel library.

Every transform D is determined by its ambiguity kernel phi:

    D(u, v) = F^{-1}( phi . FR(u, v) ),

where FR(u, v) is the ambiguity transform of the Rihaczek (Kohn-Nirenberg)
base transform and the product is the pointwise matrix product with the
kernel on the left.  The library provides:

* kn / anti-kn          phi = I  /  phi(xi, y) = xi(y)
* born-jordan (Z/N)     the commutator kernel with the margin fix on the axes
* commutator            i 2 pi [A, B] for position/momentum labelings f, g
* margin-fix            I on the axes xi = trivial or y = e, zero elsewhere
* spectrogram           phi = FR(w, w)^* for a window w
* wigner-odd (Z/N, odd) phi(xi, y) = xi(y^{1/2}) via the modular halving map
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .groups import (FiniteGroup, UnitaryDual, block_adjoint, block_product, build_cyclic, group_fourier,
                     is_cyclic, representation_runs, require_same_group, split_runs, stack_runs)
from .harmonic import Signal, fourier, norm
from .tfplane import (
    AmbiguityFunction,
    TFFunction,
    TimeLagKernel,
    ambiguity_to_timelag,
    inverse_symplectic_fourier,
    timelag_to_ambiguity,
)

__all__ = [
    "CohenKernel",
    "rihaczek",
    "ambiguity_transform",
    "cohen_transform",
    "cohen_transform_direct",
    "conjugate_kernel",
    "kn_kernel",
    "anti_kn_kernel",
    "born_jordan_phi",
    "born_jordan_cyclic_kernel",
    "commutator_kernel",
    "commutator_kernel_closed_form",
    "margin_fix_kernel",
    "add_kernels",
    "stft",
    "spectrogram_kernel",
    "wigner_kernel_odd_cyclic",
    "wigner_odd_cyclic",
    "gaussian_window",
]


@dataclass
class CohenKernel:
    """An ambiguity (Doppler-lag) kernel naming a Cohen-class transform."""

    name: str
    phi: AmbiguityFunction
    _timelag: TimeLagKernel | None = field(default=None, repr=False)

    @property
    def group(self) -> FiniteGroup:
        return self.phi.group

    @property
    def dual(self) -> UnitaryDual:
        return self.phi.dual

    def timelag(self) -> TimeLagKernel:
        """The scalar time-lag form of this kernel (cached)."""
        if self._timelag is None:
            self._timelag = ambiguity_to_timelag(self.phi)
        return self._timelag

    def linf_norm(self) -> float:
        """max over (xi, y) of the spectral norm of phi(xi, y)."""
        return max(float(np.abs(run).max() if run.shape[-1] == 1
                         else np.linalg.svd(run, compute_uv=False).max())
                   for run in stack_runs(self.dual, self.phi.blocks))


# ---------------------------------------------------------------------------
# Base transforms
# ---------------------------------------------------------------------------


def rihaczek(u: Signal, v: Signal) -> TFFunction:
    """R(u,v)(x, eta) = u(x) eta(x)^* v_hat(eta)^*."""
    require_same_group(u.group, v.group, "signals")
    group, dual = u.group, u.group.dual
    runs = zip(representation_runs(dual), stack_runs(dual, block_adjoint(fourier(v).blocks)))
    # per run: u(x) eta(x)^* v_hat(eta)^*, the irreps of the run on the first axis
    blocks = split_runs([u.values[:, None, None] * (eta.conj().swapaxes(-1, -2) @ vstar[:, None])
                         for eta, vstar in runs])
    return TFFunction(group, dual, blocks)


def ambiguity_transform(u: Signal, v: Signal) -> AmbiguityFunction:
    """Cross-ambiguity function of two signals.

    FR(u,v)(xi, y) = (1/|G|) sum_x xi(x)^* u(x) v(x y^{-1})^*, i.e. the
    matrix-valued Fourier transform in x of the lag product u(x) v(x y^{-1})^*.
    Equals the symplectic Fourier transform of rihaczek(u, v); its value at
    the origin (trivial irrep, identity lag) is <u, v>.
    """
    require_same_group(u.group, v.group, "signals")
    group, dual = u.group, u.group.dual
    w = u.values[:, None] * v.values[group.right_div].conj()  # w[x, y]
    return AmbiguityFunction(group, dual, group_fourier(dual, w))


def cohen_transform(k: CohenKernel, u: Signal, v: Signal) -> TFFunction:
    """Time-frequency distribution D(u, v) = F^{-1}(phi . FR(u, v)).

    Parameters
    ----------
    k : CohenKernel
        Ambiguity kernel; multiplies FR(u, v) blockwise on the left.
    u, v : Signal
        Signals on the kernel's group (use v = u for the distribution of u).

    Returns
    -------
    TFFunction
        Matrix-valued distribution over the time-frequency plane.  Bounded by
        ||phi||_Linf ||u|| ||v|| in the plane's L2 norm.
    """
    require_same_group(k.group, u.group, "kernel and signal")
    group, dual = u.group, u.group.dual
    blocks = block_product(dual, k.phi.blocks, ambiguity_transform(u, v).blocks)
    return inverse_symplectic_fourier(AmbiguityFunction(group, dual, blocks))


def cohen_transform_direct(k: CohenKernel, u: Signal, v: Signal) -> TFFunction:
    """Brute-force oracle for `cohen_transform` via the time-lag kernel:

    D(u,v)(x, eta) = (1/|G|^2) sum_y eta(y)^*
                       sum_z varphi(z^{-1} x, y) u(z) v(z y^{-1})^*.
    """
    require_same_group(k.group, u.group, "kernel and signal")
    group, dual = u.group, u.group.dual
    n = group.order
    lag = k.timelag().values
    inv = group.inverse
    cay = group.cayley
    # P[y, x] = sum_z varphi(z^{-1} x, y) u(z) v(z y^{-1})^*
    P = np.zeros((n, n), dtype=complex)
    vconj = v.values.conj()
    for y in range(n):
        wy = u.values * vconj[cay[:, inv[y]]]         # w_y[z]
        Vy = lag[cay[inv, :], y]                      # Vy[z, x] = varphi(z^{-1}x, y)
        P[y] = wy @ Vy
    blocks = [
        np.einsum("yx,yab->xab", P, eta.star) / (n * n) for eta in dual.irreps
    ]
    return TFFunction(group, dual, blocks)


# ---------------------------------------------------------------------------
# Kernel library
# ---------------------------------------------------------------------------


def _scalar_kernel(group, dual, table, name) -> CohenKernel:
    return CohenKernel(name, AmbiguityFunction.from_scalar_table(group, dual, table))


def kn_kernel(dual: UnitaryDual) -> CohenKernel:
    """Kohn-Nirenberg / Rihaczek kernel: phi(xi, y) = I everywhere."""
    group = dual.group
    n = group.order
    blocks = [np.broadcast_to(np.eye(xi.dim, dtype=complex), (n, xi.dim, xi.dim)).copy()
              for xi in dual.irreps]
    return CohenKernel("kn", AmbiguityFunction(group, dual, blocks))


def anti_kn_kernel(dual: UnitaryDual) -> CohenKernel:
    """Anti-Kohn-Nirenberg kernel: phi(xi, y) = xi(y)."""
    group = dual.group
    blocks = [xi.matrices.copy() for xi in dual.irreps]
    return CohenKernel("anti-kn", AmbiguityFunction(group, dual, blocks))


def margin_fix_kernel(dual: UnitaryDual) -> CohenKernel:
    """The minimal kernel with correct margins: I on the axes, 0 elsewhere.

    The resulting transform is
    D(u,v)(x,eta) = u_hat(eta) v_hat(eta)^* + (u(x) v(x)^* - <u,v>) I / |G|.
    """
    group = dual.group
    n = group.order
    e = group.identity
    blocks = []
    for k, xi in enumerate(dual.irreps):
        b = np.zeros((n, xi.dim, xi.dim), dtype=complex)
        b[e] = np.eye(xi.dim)
        if k == dual.trivial_index:
            b[:] = np.eye(xi.dim)
        blocks.append(b)
    return CohenKernel("margin-fix", AmbiguityFunction(group, dual, blocks))


def born_jordan_phi(N: int, xi: int, y: int) -> complex:
    """Closed-form Born-Jordan ambiguity kernel value on Z/NZ.

    1 on the axes; off the axes
    (i 2 pi / N) (1 - e^{i 2 pi xi y / N})
        / ((1 - e^{i 2 pi xi / N}) (1 - e^{-i 2 pi y / N})).
    Zero exactly when xi and y are zero divisors mod N with xi*y = 0 mod N.
    """
    xi %= N
    y %= N
    if xi == 0 or y == 0:
        return 1.0 + 0.0j
    num = 1.0 - np.exp(2j * np.pi * ((xi * y) % N) / N)
    den = (1.0 - np.exp(2j * np.pi * xi / N)) * (1.0 - np.exp(-2j * np.pi * y / N))
    return complex(2j * np.pi / N * num / den)


def born_jordan_cyclic_kernel(N: int) -> CohenKernel:
    """Born-Jordan kernel on Z/NZ: commutator kernel plus margin fix."""
    group, dual = build_cyclic(N)
    idx = np.arange(N)
    xiy = (idx[:, None] * idx[None, :]) % N
    with np.errstate(divide="ignore", invalid="ignore"):
        num = 1.0 - np.exp(2j * np.pi * xiy / N)
        den = np.outer(1.0 - np.exp(2j * np.pi * idx / N),
                       1.0 - np.exp(-2j * np.pi * idx / N))
        table = np.where(den != 0, 2j * np.pi / N * num / np.where(den == 0, 1, den), 0)
    table[0, :] = 1.0
    table[:, 0] = 1.0
    return _scalar_kernel(group, dual, table, f"born-jordan:{N}")


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
    if not is_cyclic(group):
        raise ValueError("commutator_kernel requires a cyclic group")
    if np.abs(f.values.imag).max() > 1e-12:
        raise ValueError("position labeling f must be real-valued")
    ghat = np.array([b[0, 0] for b in fourier(g).blocks])
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


def commutator_kernel_closed_form(f: Signal, g: Signal) -> AmbiguityFunction:
    """Cross-check form phi(xi, y) = i 2 pi f_hat(-xi) (1 - e^{i 2 pi xi y/N}) g(y)^*."""
    group = f.group
    N = group.order
    fhat = np.array([b[0, 0] for b in fourier(f).blocks])
    idx = np.arange(N)
    table = (2j * np.pi) * fhat[(-idx) % N][:, None] \
        * (1.0 - np.exp(2j * np.pi * ((idx[:, None] * idx[None, :]) % N) / N)) \
        * g.values.conj()[None, :]
    return AmbiguityFunction.from_scalar_table(group, group.dual, table)


def add_kernels(k1: CohenKernel, k2: CohenKernel, on_overlap: str = "sum") -> CohenKernel:
    """Entrywise sum of two kernels on the same group.

    on_overlap controls the axis entries (xi trivial or y identity):
    "sum" adds everywhere; "replace" takes k2's entries on the axes (used when
    k2 is a margin fix and k1 vanishes there, refusing silent double counts).
    """
    if on_overlap not in ("sum", "replace"):
        raise ValueError(f"on_overlap must be 'sum' or 'replace', got {on_overlap!r}")
    require_same_group(k1.group, k2.group, "kernels")
    group, dual = k1.group, k1.dual
    e = group.identity
    blocks = []
    for k, (b1, b2) in enumerate(zip(k1.phi.blocks, k2.phi.blocks)):
        b = b1 + b2
        if on_overlap == "replace":
            b = b1.copy()
            b[e] = b2[e]
            if k == dual.trivial_index:
                b = b2.copy()
        blocks.append(b)
    name = f"{k1.name}+{k2.name}"
    return CohenKernel(name, AmbiguityFunction(group, dual, blocks))


def conjugate_kernel(k: CohenKernel) -> CohenKernel:
    """Kernel of the conjugate transform D^*(u,v) = D(v,u)^*:

    varphi_{D^*}(x, y) = varphi_D(y x, y^{-1})^*.
    """
    group = k.group
    lag = k.timelag().values
    cay, inv = group.cayley, group.inverse
    yx = cay.T  # yx[x, y] = y * x
    new = np.conj(lag[yx, inv[None, :]])  # new[x, y] = lag(y x, y^{-1})^*
    phi = timelag_to_ambiguity(TimeLagKernel(group, new), k.dual)
    if k.name.startswith("conj(") and k.name.endswith(")"):
        name = k.name[5:-1]
    else:
        name = f"conj({k.name})"
    return CohenKernel(name, phi)


# ---------------------------------------------------------------------------
# STFT, spectrograms, Wigner
# ---------------------------------------------------------------------------


def stft(w: Signal, u: Signal) -> TFFunction:
    """Short-time Fourier transform with window w:

    G_w u(x, eta) = (1/|G|) sum_y eta(y)^* u(y) w(x^{-1} y)^*.
    """
    require_same_group(w.group, u.group, "window and signal")
    group, dual = u.group, u.group.dual
    # W2[y, x] = u(y) w(x^{-1} y)^*
    W2 = u.values[:, None] * w.values.conj()[group.cayley[group.inverse]].T
    return TFFunction(group, dual, group_fourier(dual, W2))


def spectrogram_kernel(w: Signal) -> CohenKernel:
    """Kernel with phi(xi, y) = FR(w, w)(xi, y)^*; its distribution factors as
    D(u,v)(x,eta) = G_w u(x,eta) G_w v(x,eta)^* and is positive for v = u.
    """
    if abs(norm(w) - 1.0) > 1e-8:
        warnings.warn(f"spectrogram window is not unit-energy (||w|| = {norm(w):.6g}); "
                      "the transform will not be normalized")
    blocks = block_adjoint(ambiguity_transform(w, w).blocks)
    return CohenKernel("spectrogram", AmbiguityFunction(w.group, w.group.dual, blocks))


def _halving_map(N: int) -> np.ndarray:
    if N % 2 == 0:
        raise ValueError(f"the halving map y -> y/2 needs odd order, got N = {N}")
    return (((N + 1) // 2) * np.arange(N)) % N


def wigner_kernel_odd_cyclic(N: int) -> CohenKernel:
    """Wigner kernel phi(xi, y) = exp(i 2 pi xi h(y) / N), h the halving map."""
    group, dual = build_cyclic(N)
    h = _halving_map(N)
    idx = np.arange(N)
    table = np.exp(2j * np.pi * np.outer(idx, h) / N)
    return _scalar_kernel(group, dual, table, f"wigner-odd:{N}")


def wigner_odd_cyclic(u: Signal, v: Signal) -> TFFunction:
    """Natural Wigner transform on an odd cyclic group:

    W(u,v)(x, eta) = (1/N) sum_y e^{-i 2 pi y eta / N} u(x + h(y)) v(x - h(y))^*.
    """
    require_same_group(u.group, v.group, "signals")
    group = u.group
    if not is_cyclic(group):
        raise ValueError("wigner_odd_cyclic requires a cyclic group")
    N = group.order
    h = _halving_map(N)
    x = np.arange(N)
    # core[y, x] = u(x + h(y)) v(x - h(y))^*
    core = u.values[(x[None, :] + h[:, None]) % N] * \
        v.values.conj()[(x[None, :] - h[:, None]) % N]
    return TFFunction(group, group.dual, group_fourier(group.dual, core))


def gaussian_window(group: FiniteGroup, sigma: float) -> Signal:
    """Unit-energy discrete Gaussian w(x) ~ e^{-pi (x/sigma)^2}, centered at 0.

    Distances are measured on the index circle (minimal residue), so the
    window is symmetric around the identity of a cyclic group.
    """
    n = group.order
    x = np.arange(n)
    d = np.minimum(x, n - x).astype(float)
    w = np.exp(-np.pi * (d / sigma) ** 2)
    w = w / np.sqrt(np.sum(np.abs(w) ** 2) / n)
    return Signal(group, w)
