"""The time-frequency plane G x G^ and the ambiguity plane G^ x G.

A TFFunction assigns a d_eta x d_eta matrix to each (x, eta); an
AmbiguityFunction assigns a d_xi x d_xi matrix to each (xi, y), where y is the
lag variable and xi the Doppler variable.  The symplectic Fourier transform F
maps one plane to the other:

    Fa(xi, y) = (1/|G|) sum_x xi(x)^* s(x, y),
    s(x, y)   = sum_eta d_eta tr(eta(y) a(x, eta)).

The inner noncommutative integral is evaluated first, then the matrix-valued
transform in x; the two nesting orders agree, but one is pinned here for
reproducibility.  The time-lag kernel is the scalar table obtained by
inverse-transforming an ambiguity function in its first variable.

Blocks are stored per irrep as arrays of shape (|G|, d, d): TFFunction block
lists are indexed [eta][x], AmbiguityFunction block lists [xi][y].  Each
transform and conversion here is one or two dense products with the dual's
stacked representation table (`groups.group_fourier` and its inverse), the
same for scalar and matrix irreps; there is no FFT path.  The pointwise
product of `tf_convolve` and the pairing of `tf_inner`/`amb_inner` are
`groups.block_product` and `groups.plancherel_pairing`: one array operation
per run of equal-dimension irreps, not one per irrep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import (FiniteGroup, UnitaryDual, block_product, group_fourier, group_inverse_fourier,
                     plancherel_pairing)

__all__ = [
    "TFFunction",
    "AmbiguityFunction",
    "TimeLagKernel",
    "symplectic_fourier",
    "inverse_symplectic_fourier",
    "tf_inner",
    "amb_inner",
    "tf_norm",
    "tf_convolve",
    "ambiguity_to_timelag",
    "timelag_to_ambiguity",
]


def _check_blocks(blocks, dual, n):
    blocks = [np.asarray(b, dtype=complex) for b in blocks]
    if len(blocks) != len(dual.irreps):
        raise ValueError(f"{len(blocks)} blocks for {len(dual.irreps)} irreps")
    for b, eta in zip(blocks, dual.irreps):
        if b.shape != (n, eta.dim, eta.dim):
            raise ValueError(
                f"block shape {b.shape} != ({n},{eta.dim},{eta.dim})"
            )
    return blocks


@dataclass
class TFFunction:
    """Matrix-valued function on the time-frequency plane G x G^."""

    group: FiniteGroup
    dual: UnitaryDual
    blocks: list[np.ndarray]  # blocks[k][x] = a(x, eta_k)

    def __post_init__(self):
        self.blocks = _check_blocks(self.blocks, self.dual, self.group.order)

    def scalar_table(self) -> np.ndarray:
        """(n_irreps, |G|) table for all-scalar duals: table[k, x] = a(x, eta_k)."""
        return np.stack([b[:, 0, 0] for b in self.blocks])

    @classmethod
    def from_scalar_table(cls, group, dual, table) -> "TFFunction":
        return cls(group, dual, [row[:, None, None] for row in np.asarray(table, dtype=complex)])


@dataclass
class AmbiguityFunction:
    """Matrix-valued function on the ambiguity plane G^ x G."""

    group: FiniteGroup
    dual: UnitaryDual
    blocks: list[np.ndarray]  # blocks[k][y] = A(xi_k, y)

    def __post_init__(self):
        self.blocks = _check_blocks(self.blocks, self.dual, self.group.order)

    def scalar_table(self) -> np.ndarray:
        return np.stack([b[:, 0, 0] for b in self.blocks])

    @classmethod
    def from_scalar_table(cls, group, dual, table) -> "AmbiguityFunction":
        return cls(group, dual, [row[:, None, None] for row in np.asarray(table, dtype=complex)])


@dataclass
class TimeLagKernel:
    """Scalar kernel on G x G; values[x, y] with x time and y lag."""

    group: FiniteGroup
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        n = self.group.order
        if self.values.shape != (n, n):
            raise ValueError(f"time-lag table shape {self.values.shape} != ({n},{n})")


# ---------------------------------------------------------------------------
# The symplectic Fourier transform and its inverse
# ---------------------------------------------------------------------------


def symplectic_fourier(a: TFFunction) -> AmbiguityFunction:
    # s[x, y] = sum_eta d_eta tr(eta(y) a(x, eta)), then the transform in x
    s = group_inverse_fourier(a.dual, a.blocks).T
    return AmbiguityFunction(a.group, a.dual, group_fourier(a.dual, s))


def inverse_symplectic_fourier(A: AmbiguityFunction) -> TFFunction:
    # t[x, y] = sum_xi d_xi tr(xi(x) A(xi, y)), then the transform in y
    t = group_inverse_fourier(A.dual, A.blocks)
    return TFFunction(A.group, A.dual, group_fourier(A.dual, t.T))


# ---------------------------------------------------------------------------
# Inner products and TF-plane convolution
# ---------------------------------------------------------------------------


def tf_inner(b: TFFunction, a: TFFunction) -> complex:
    """<b,a> = (1/|G|) sum_x sum_eta d_eta tr(b(x,eta) a(x,eta)^*)."""
    return plancherel_pairing(b.dual, b.blocks, a.blocks) / b.group.order


def amb_inner(b: AmbiguityFunction, a: AmbiguityFunction) -> complex:
    return plancherel_pairing(b.dual, b.blocks, a.blocks) / b.group.order


def tf_norm(a: TFFunction) -> float:
    return float(np.sqrt(max(tf_inner(a, a).real, 0.0)))


def tf_convolve(a: TFFunction, b: TFFunction) -> TFFunction:
    """a * b = F^{-1}((Fb)(Fa)), with the pointwise matrix product in that order."""
    Fa = symplectic_fourier(a)
    Fb = symplectic_fourier(b)
    prod = block_product(a.dual, Fb.blocks, Fa.blocks)
    return inverse_symplectic_fourier(AmbiguityFunction(a.group, a.dual, prod))


# ---------------------------------------------------------------------------
# Ambiguity <-> time-lag conversions
# ---------------------------------------------------------------------------


def ambiguity_to_timelag(phi: AmbiguityFunction) -> TimeLagKernel:
    """varphi(x, y) = sum_xi d_xi tr(xi(x) phi(xi, y))."""
    return TimeLagKernel(phi.group, group_inverse_fourier(phi.dual, phi.blocks))


def timelag_to_ambiguity(k: TimeLagKernel, dual: UnitaryDual | None = None) -> AmbiguityFunction:
    """phi(xi, y) = (1/|G|) sum_x xi(x)^* varphi(x, y)."""
    group = k.group
    dual = group.dual if dual is None else dual
    return AmbiguityFunction(group, dual, group_fourier(dual, k.values))
