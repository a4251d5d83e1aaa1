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

from .groups import (FiniteGroup, block_adjoint, block_product, group_fourier, group_inverse_fourier,
                     plancherel_trace, require_same_group, split_runs, stack_runs)
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
    """a(x, eta) = eta(x)^* (B eta)(x), applying B to matrix-element signals.

    Inverts `kn_operator`: a(x, eta) = (1/|G|) sum_w K(x, x w^{-1}) eta(w)^*.
    """
    group = B.group
    # s[w, x] = K(x, x w^{-1}), then the transform in w
    s = B.kernel[np.arange(group.order), group.right_div.T]
    return TFFunction(group, group.dual, group_fourier(group.dual, s))


# ---------------------------------------------------------------------------
# General D-quantization
# ---------------------------------------------------------------------------


def quantize(k: CohenKernel, a: TFFunction) -> GroupOperator:
    """a^D = b^R with Fb = phi^* Fa; satisfies <u, a^D v> = <D(u,v), a>."""
    require_same_group(k.group, a.group, "kernel and symbol")
    Fb = block_product(a.dual, block_adjoint(k.phi.blocks), symplectic_fourier(a).blocks)
    return kn_operator(inverse_symplectic_fourier(AmbiguityFunction(a.group, a.dual, Fb)))


def _singular_blocks(k: CohenKernel):
    """(xi_index, y, smallest_sv, null_vectors) for each singular phi block."""
    scale = max(k.linf_norm(), 1.0)
    found, first = [], 0
    for run in stack_runs(k.dual, k.phi.blocks):
        if run.shape[-1] == 1:
            s, vh = np.abs(run[..., 0]), np.broadcast_to(np.ones(1, dtype=complex), run.shape)
        else:
            _, s, vh = np.linalg.svd(run)
        bad = s <= scale / COND_LIMIT
        for j, y in np.argwhere(bad.any(axis=-1)):
            found.append((first + int(j), int(y), float(s[j, y].min()), vh[j, y][bad[j, y]].conj().T))
        first += len(run)
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
    Fa = symplectic_fourier(kn_symbol(B))
    # per run: Fb = (phi^*)^{-1} Fa, a division for scalar irreps
    blocks = split_runs([fa / p.conj() if p.shape[-1] == 1
                         else np.linalg.solve(p.conj().swapaxes(-1, -2), fa)
                         for p, fa in zip(stack_runs(k.dual, k.phi.blocks), stack_runs(k.dual, Fa.blocks))])
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
    return complex(plancherel_trace(a.dual, a.blocks).sum() / a.group.order)


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
