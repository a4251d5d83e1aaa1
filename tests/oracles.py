"""Reference computations that tests compare the library against.

Direct sums of the defining formulas and closed forms, with no Fourier
shortcut.  No library code uses them, so they live beside the tests.
"""

import numpy as np

from gtfa.groups import require_same_group
from gtfa.harmonic import Signal, fourier, haar_inner, norm, random_signal
from gtfa.properties import EXHAUSTIVE_TOL, SEED, PropertyReport
from gtfa.quantization import GroupOperator, quantize
from gtfa.tfplane import AmbiguityFunction, TFFunction, tf_inner, tf_norm
from gtfa.transforms import CohenKernel, cohen_transform


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


def distribution_from_localization(K: GroupOperator, u: Signal, v: Signal) -> TFFunction:
    """Rebuild D(u, v) from the localization kernel:

    D(u,v)(x, eta) = (1/|G|^2) sum_{z,y} u(xz) eta(z)^* K(z,y)^* eta(y) v(xy)^*.
    """
    require_same_group(K.group, u.group, "operator and signal")
    group, dual = u.group, u.group.dual
    n = group.order
    cay = group.cayley
    Kc = K.kernel.conj()
    # czy[z, y] = z^{-1} y
    czy = cay[group.inverse, :]
    blocks = []
    for eta in dual.irreps:
        mczy = eta.matrices[czy]  # (z, y, a, b) = eta(z^{-1} y)
        out = np.zeros((n, eta.dim, eta.dim), dtype=complex)
        for x in range(n):
            Ux = u.values[cay[x]]
            Vx = v.values.conj()[cay[x]]
            M = (Ux[:, None] * Vx[None, :]) * Kc
            out[x] = np.einsum("zy,zyab->ab", M, mczy)
        blocks.append(out / n**2)
    return TFFunction(group, dual, blocks)


def duality_residual(k: CohenKernel, u: Signal, v: Signal, a: TFFunction) -> float:
    """|<u, a^D v> - <D(u,v), a>|, the defining identity of quantization."""
    lhs = haar_inner(u, quantize(k, a).apply(v))
    rhs = tf_inner(cohen_transform(k, u, v), a)
    return abs(lhs - rhs)


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


def check_l2_bound_serial(k: CohenKernel, samples: int = 100) -> PropertyReport:
    """`properties.check_l2_bound` one pair at a time: ||D(u,v)|| against
    ||phi||_Linf ||u|| ||v|| on `samples` pairs of serial `random_signal` draws."""
    bound_const = k.linf_norm()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(samples):
        u, v = random_signal(k.group, rng), random_signal(k.group, rng)
        worst = max(worst, tf_norm(cohen_transform(k, u, v)) - bound_const * norm(u) * norm(v))
    mv = max(worst, 0.0)
    return PropertyReport("l2-bound", mv <= EXHAUSTIVE_TOL, mv)
