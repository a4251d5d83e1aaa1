"""Pseudo-differential operators: D-quantization, symbols, localizations.

A GroupOperator stores the dense |G| x |G| kernel matrix K with Haar-weighted
action (Av)(x) = (1/|G|) sum_y K(x, y) v(y).  With this convention the
identity operator has kernel |G| I, composition is a matrix product with a
1/|G| weight folded in, and <u, Av> pairings use the probability Haar measure
with no special cases.

The D-quantization of a symbol a is defined by <u, a^D v> = <D(u,v), a>; it is
computed by reduction to the Kohn-Nirenberg case:  a^D = b^R  where
Fb(xi, y) = phi_D(xi, y)^* Fa(xi, y).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup, group_inverse_fourier, require_same_group
from .harmonic import Signal
from .tfplane import (
    AmbiguityFunction,
    TFFunction,
    inverse_symplectic_fourier,
    symplectic_fourier,
    tf_inner,
)
from .transforms import CohenKernel, cohen_transform

__all__ = [
    "GroupOperator",
    "SingularKernel",
    "identity_operator",
    "quantize",
    "kn_operator",
    "kn_symbol",
    "dequantize",
    "null_symbol_witness",
    "operator_trace",
    "trace_identity_check",
    "original_localization",
    "distribution_from_localization",
]

# Blocks whose condition number exceeds this are treated as singular rather
# than inverted into garbage.
COND_LIMIT = 1e12


class SingularKernel(ValueError):
    """An ambiguity kernel has non-invertible blocks; lists the (xi, y) pairs."""

    def __init__(self, pairs):
        self.pairs = list(pairs)
        shown = ", ".join(f"(xi={k}, y={y})" for k, y in self.pairs[:8])
        more = "" if len(self.pairs) <= 8 else f" and {len(self.pairs) - 8} more"
        super().__init__(
            f"ambiguity kernel is singular at {len(self.pairs)} block(s): {shown}{more}"
        )


@dataclass
class GroupOperator:
    """Linear operator on signals, as a dense kernel matrix."""

    group: FiniteGroup
    kernel: np.ndarray

    def __post_init__(self):
        self.kernel = np.asarray(self.kernel, dtype=complex)
        n = self.group.order
        if self.kernel.shape != (n, n):
            raise ValueError(f"operator kernel shape {self.kernel.shape} != ({n},{n})")

    def apply(self, v: Signal) -> Signal:
        require_same_group(self.group, v.group, "operator and signal")
        return Signal(self.group, self.kernel @ v.values / self.group.order)

    def adjoint(self) -> "GroupOperator":
        return GroupOperator(self.group, self.kernel.conj().T)

    def compose(self, other: "GroupOperator") -> "GroupOperator":
        require_same_group(self.group, other.group, "operators")
        return GroupOperator(self.group, self.kernel @ other.kernel / self.group.order)

    def hs_inner(self, other: "GroupOperator") -> complex:
        """Hilbert-Schmidt pairing (1/|G|^2) sum_{x,y} K1(x,y) K2(x,y)^*."""
        return complex(
            np.vdot(other.kernel, self.kernel) / self.group.order**2
        )

    def op_norm(self) -> float:
        """L^2(G) operator norm; with the Haar-weighted action and inner
        product this equals sigma_max(K) / |G|."""
        return float(np.linalg.svd(self.kernel, compute_uv=False).max() / self.group.order)


def identity_operator(group: FiniteGroup) -> GroupOperator:
    return GroupOperator(group, group.order * np.eye(group.order, dtype=complex))


# ---------------------------------------------------------------------------
# Kohn-Nirenberg quantization (the invertible base case)
# ---------------------------------------------------------------------------


def kn_operator(a: TFFunction) -> GroupOperator:
    """(a^R v)(x) = sum_eta d_eta tr(eta(x) a(x, eta) v_hat(eta)).

    The kernel matrix is K(x, y) = sum_eta d_eta tr(eta(y^{-1} x) a(x, eta)).
    """
    group = a.group
    # s[z, x] = sum_eta d_eta tr(eta(z) a(x, eta)), so K(x, y) = s(y^{-1} x, x)
    s = group_inverse_fourier(a.dual, a.blocks)
    idx = group.cayley[group.inverse, :].T  # idx[x, y] = y^{-1} x
    return GroupOperator(group, s[idx, np.arange(group.order)[:, None]])


def kn_symbol(B: GroupOperator) -> TFFunction:
    """a(x, eta) = eta(x)^* (B eta)(x), applying B to matrix-element signals."""
    group = B.group
    dual = group.dual
    n = group.order
    blocks = []
    for eta in dual.irreps:
        Beta = np.einsum("xy,yab->xab", B.kernel, eta.matrices) / n
        blocks.append(eta.star @ Beta)
    return TFFunction(group, dual, blocks)


# ---------------------------------------------------------------------------
# General D-quantization
# ---------------------------------------------------------------------------


def _kernel_times(phi: AmbiguityFunction, A: AmbiguityFunction, star: bool):
    out = []
    for pb, ab in zip(phi.blocks, A.blocks):
        p = pb.conj().transpose(0, 2, 1) if star else pb
        out.append(p @ ab)
    return AmbiguityFunction(A.group, A.dual, out)


def quantize(k: CohenKernel, a: TFFunction) -> GroupOperator:
    """a^D = b^R with Fb = phi^* Fa; satisfies <u, a^D v> = <D(u,v), a>."""
    require_same_group(k.group, a.group, "kernel and symbol")
    Fa = symplectic_fourier(a)
    b = inverse_symplectic_fourier(_kernel_times(k.phi, Fa, star=True))
    return kn_operator(b)


def _singular_blocks(k: CohenKernel):
    """(xi_index, y, smallest_sv, null_vectors) for each singular phi block."""
    scale = max(k.linf_norm(), 1.0)
    found = []
    for kk, pb in enumerate(k.phi.blocks):
        d = pb.shape[1]
        if d == 1:
            small = np.abs(pb[:, 0, 0])
            for y in np.nonzero(small <= scale / COND_LIMIT)[0]:
                found.append((kk, int(y), float(small[y]), np.ones((1, 1), dtype=complex)))
        else:
            for y in range(pb.shape[0]):
                u_, s, vh = np.linalg.svd(pb[y])
                bad = s <= scale / COND_LIMIT
                if bad.any():
                    found.append((kk, y, float(s.min()), vh[bad].conj().T))
    return found


def dequantize(k: CohenKernel, B: GroupOperator) -> TFFunction:
    """Invert the D-quantization: find b with quantize(k, b) = B.

    Raises SingularKernel listing every (xi, y) where phi is not invertible
    (for the cyclic Born-Jordan kernel these are exactly the zero-divisor
    pairs of a composite modulus).
    """
    require_same_group(k.group, B.group, "kernel and operator")
    bad = _singular_blocks(k)
    if bad:
        raise SingularKernel([(kk, y) for kk, y, _, _ in bad])
    a = kn_symbol(B)
    Fa = symplectic_fourier(a)
    blocks = []
    for pb, ab in zip(k.phi.blocks, Fa.blocks):
        if pb.shape[1] == 1:
            blocks.append(ab / pb.conj())
        else:
            blocks.append(np.linalg.solve(pb.conj().transpose(0, 2, 1), ab))
    return inverse_symplectic_fourier(AmbiguityFunction(k.group, k.dual, blocks))


def null_symbol_witness(k: CohenKernel) -> TFFunction | None:
    """A nonzero symbol b with quantize(k, b) = 0, if phi has singular blocks.

    Fb is supported on the singular blocks only, pointing along their null
    spaces; returns None when every block is invertible.
    """
    bad = _singular_blocks(k)
    if not bad:
        return None
    group, dual = k.group, k.dual
    n = group.order
    blocks = [np.zeros((n, xi.dim, xi.dim), dtype=complex) for xi in dual.irreps]
    for kk, y, _, nullvecs in bad:
        d = blocks[kk].shape[1]
        blocks[kk][y] = nullvecs[:, :1] @ np.ones((1, d), dtype=complex)
    return inverse_symplectic_fourier(AmbiguityFunction(group, dual, blocks))


# ---------------------------------------------------------------------------
# Traces and localizations
# ---------------------------------------------------------------------------


def operator_trace(B: GroupOperator) -> complex:
    """tr B = (1/|G|) sum_x K(x, x)  (so the identity operator has trace |G|)."""
    return complex(np.trace(B.kernel) / B.group.order)


def tf_integral(a: TFFunction) -> complex:
    """Double integral of a symbol over the time-frequency plane."""
    acc = sum(
        eta.dim * np.einsum("xaa->", b) for eta, b in zip(a.dual.irreps, a.blocks)
    )
    return complex(acc / a.group.order)


def trace_identity_check(k: CohenKernel, a: TFFunction) -> float:
    """Residual |tr(a^D) - integral(a)|; zero for normalized kernels."""
    return abs(operator_trace(quantize(k, a)) - tf_integral(a))


def original_localization(k: CohenKernel) -> GroupOperator:
    """The operator delta^D quantizing the Dirac-Kronecker delta at (e, eps):

    K(z, y) = varphi_D(z^{-1}, y^{-1} z)^*,  and <u, delta^D u> = D[u](e, eps).
    """
    group = k.group
    lag = k.timelag().values
    inv, cay = group.inverse, group.cayley
    # K[z, y] = conj(lag[z^{-1}, y^{-1} z]);  cay[inv, :].T has [z, y] = y^{-1} z
    K = np.conj(lag[inv[:, None], cay[inv, :].T])
    return GroupOperator(group, K)


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
    from .harmonic import haar_inner

    lhs = haar_inner(u, quantize(k, a).apply(v))
    rhs = tf_inner(cohen_transform(k, u, v), a)
    return abs(lhs - rhs)
