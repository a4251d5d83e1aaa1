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

from .groups import (FiniteGroup, as_value, block_product, group_fourier, group_inverse_fourier,
                     plancherel_trace, require_same_dual, require_same_group)
from .harmonic import Signal, require_single
from .tfplane import (
    AmbiguityFunction,
    TFFunction,
    inverse_symplectic_fourier,
    symplectic_fourier,
)
from .transforms import CohenKernel

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
        require_single(v)
        return Signal(self.group, self.kernel @ v.values / self.group.order)

    def adjoint(self) -> "GroupOperator":
        return GroupOperator(self.group, self.kernel.conj().T)

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
    group, n = a.group, a.group.order
    # K(x, x w^{-1}) = s[w, x] = sum_eta d_eta tr(eta(w) a(x, eta)): `kn_symbol`'s gather, inverted
    K = np.empty((n, n), dtype=complex)
    K[np.arange(n), group.lag_index] = group_inverse_fourier(a.dual, a.runs)
    return GroupOperator(group, K)


def kn_symbol(B: GroupOperator) -> TFFunction:
    """a(x, eta) = eta(x)^* (B eta)(x), applying B to matrix-element signals.

    Inverts `kn_operator`: a(x, eta) = (1/|G|) sum_w K(x, x w^{-1}) eta(w)^*.
    """
    group = B.group
    # s[w, x] = K(x, x w^{-1}), then the transform in w
    s = B.kernel[np.arange(group.order), group.lag_index]
    return TFFunction(group, group.dual, group_fourier(group.dual, s))


# ---------------------------------------------------------------------------
# General D-quantization
# ---------------------------------------------------------------------------


def quantize(k: CohenKernel, a: TFFunction) -> GroupOperator:
    """a^D = b^R with Fb = phi^* Fa; satisfies <u, a^D v> = <D(u,v), a>."""
    require_same_group(k.group, a.group, "kernel and symbol")
    require_same_dual(k.dual, a.dual, "kernel and symbol")
    Fb = block_product([p.conj().swapaxes(-1, -2) for p in k.phi.runs], symplectic_fourier(a).runs)
    return kn_operator(inverse_symplectic_fourier(AmbiguityFunction(a.group, a.dual, Fb)))


def _singular_blocks(k: CohenKernel):
    """(xi_index, y, smallest_sv, null_vectors) for each singular phi block."""
    scale = max(k.linf_norm(), 1.0)
    found, first = [], 0
    for run in k.phi.runs:
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
    require_same_dual(k.dual, B.group.dual, "kernel and operator")
    bad = _singular_blocks(k)
    if bad:
        raise SingularKernel([(kk, y) for kk, y, _, _ in bad])
    Fa = symplectic_fourier(kn_symbol(B))
    # per run: Fb = (phi^*)^{-1} Fa, a division for scalar irreps
    runs = [fa / p.conj() if p.shape[-1] == 1 else np.linalg.solve(p.conj().swapaxes(-1, -2), fa)
            for p, fa in zip(k.phi.runs, Fa.runs)]
    return inverse_symplectic_fourier(AmbiguityFunction(k.group, k.dual, runs))


def null_symbol_witness(k: CohenKernel) -> TFFunction | None:
    """A nonzero symbol b with quantize(k, b) = 0, if phi has singular blocks.

    Fb is supported on the singular blocks only, pointing along their null
    spaces; returns None when every block is invertible.
    """
    bad = _singular_blocks(k)
    if not bad:
        return None
    Fb = AmbiguityFunction(k.group, k.dual, [np.zeros(p.shape, dtype=complex) for p in k.phi.runs])
    blocks = Fb.blocks
    for kk, y, _, nullvecs in bad:
        d = blocks[kk].shape[1]
        blocks[kk][y] = nullvecs[:, :1] @ np.ones((1, d), dtype=complex)
    return inverse_symplectic_fourier(Fb)


# ---------------------------------------------------------------------------
# Traces and localizations
# ---------------------------------------------------------------------------


def operator_trace(B: GroupOperator) -> complex:
    """tr B = (1/|G|) sum_x K(x, x)  (so the identity operator has trace |G|)."""
    return complex(np.trace(B.kernel) / B.group.order)


def tf_integral(a: TFFunction) -> complex | np.ndarray:
    """Double integral of a symbol over the time-frequency plane, per batch entry."""
    return as_value(plancherel_trace(a.dual, a.runs).sum(axis=(0, -1)) / a.group.order)


def trace_identity_check(k: CohenKernel, a: TFFunction) -> float:
    """Residual |tr(a^D) - integral(a)|; zero for normalized kernels."""
    return abs(operator_trace(quantize(k, a)) - tf_integral(a))


def original_localization(k: CohenKernel) -> GroupOperator:
    """The operator delta^D quantizing the Dirac-Kronecker delta at (e, eps):

    K(z, y) = varphi_D(z^{-1}, y^{-1} z)^*,  and <u, delta^D u> = D[u](e, eps).
    """
    group, n = k.group, k.group.order
    # K(z, z w^{-1}) = conj(lag(z^{-1}, w)), scattered through the lag index
    K = np.empty((n, n), dtype=complex)
    K[np.arange(n), group.lag_index] = k.timelag.values[group.inverse].T.conj()
    return GroupOperator(group, K)
