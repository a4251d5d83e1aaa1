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

Both are stored as one array (end - first, |G|, d, d) per run of consecutive
equal-dimension irreps (`UnitaryDual.runs`): TFFunction runs are indexed
[eta][x], AmbiguityFunction runs [xi][y], and `blocks` views them per irrep.
On an all-scalar dual the whole plane is one (|G|, |G|, 1, 1) array, and
`scalar_table` is its reshape.  Each transform and conversion here is one or
two dense products with the dual's stacked representation table
(`groups.group_fourier` and its inverse), the same for scalar and matrix
irreps, or on a built-in cyclic dual or product of cyclic duals of order
>= groups.FFT_MIN_ORDER (128) the FFT route of that pair; dihedral and
file-loaded duals stay on the naive sum.  The pointwise product of
`tf_convolve` and the pairing of `tf_inner`/`amb_inner` are
`groups.block_product` and `groups.plancherel_pairing`: one array operation
per run, not one per irrep.

`transforms.cohen_transform` computes the same sums on the lag product
u(x) v(x y^{-1})^* itself, with the Fourier pair or in-place FFTs.

A batch of B plane functions, as `transforms.cohen_transform` returns for a
batch of signals, has runs (end - first, B, |G|, d, d): the batch axis sits
between the run axis and the plane axis.  The symplectic pair carries it
through, and `tf_inner`, `amb_inner` and `tf_norm` pair two batches entry by
entry: one value per entry, where two single functions give one number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import (FiniteGroup, UnitaryDual, as_value, block_product, group_fourier,
                     group_inverse_fourier, plancherel_pairing, require_same_dual, require_same_group,
                     stack_blocks)

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


class _PlaneFunction:
    """One matrix per point of a plane, stored as `runs`: one array
    (end - first, |G|, d, d) per run of the dual."""

    def __init__(self, group: FiniteGroup, dual: UnitaryDual, blocks):
        self.group, self.dual = group, dual
        self.runs = stack_blocks(dual, blocks, (group.order,))

    @classmethod
    def from_runs(cls, group: FiniteGroup, dual: UnitaryDual, runs):
        """Wrap per-run arrays as they are, unchecked."""
        f = cls.__new__(cls)
        f.group, f.dual, f.runs = group, dual, runs
        return f

    @property
    def blocks(self) -> list[np.ndarray]:
        """The (|G|, d, d) block of each irrep in dual order, as a view into the runs."""
        return [b for run in self.runs for b in run]

    def scalar_table(self) -> np.ndarray:
        """(n_irreps, |G|) view for all-scalar duals: table[k, x] = blocks[k][x, 0, 0]."""
        _require_scalar(self.dual)
        return self.runs[0][..., 0, 0]

    @classmethod
    def from_scalar_table(cls, group: FiniteGroup, dual: UnitaryDual, table):
        _require_scalar(dual)
        table = np.asarray(table, dtype=complex).reshape(len(dual), group.order, 1, 1)
        return cls.from_runs(group, dual, [table])


def _require_scalar(dual: UnitaryDual):
    if dual.dims.max() != 1:
        raise ValueError("a scalar table needs an all-scalar dual")


class TFFunction(_PlaneFunction):
    """Matrix-valued function on the time-frequency plane G x G^:
    blocks[k][x] = a(x, eta_k)."""


class AmbiguityFunction(_PlaneFunction):
    """Matrix-valued function on the ambiguity plane G^ x G:
    blocks[k][y] = A(xi_k, y)."""


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
    s = group_inverse_fourier(a.dual, a.runs).T
    return AmbiguityFunction.from_runs(a.group, a.dual, group_fourier(a.dual, s))


def inverse_symplectic_fourier(A: AmbiguityFunction) -> TFFunction:
    # t[x, y] = sum_xi d_xi tr(xi(x) A(xi, y)), then the transform in y
    t = group_inverse_fourier(A.dual, A.runs)
    return TFFunction.from_runs(A.group, A.dual, group_fourier(A.dual, t.T))


# ---------------------------------------------------------------------------
# Inner products and TF-plane convolution
# ---------------------------------------------------------------------------


def tf_inner(b: TFFunction, a: TFFunction) -> complex | np.ndarray:
    """<b,a> = (1/|G|) sum_x sum_eta d_eta tr(b(x,eta) a(x,eta)^*), per batch entry."""
    return plancherel_pairing(b.dual, b.runs, a.runs, b.runs[0].ndim - 4) / b.group.order


def amb_inner(b: AmbiguityFunction, a: AmbiguityFunction) -> complex | np.ndarray:
    return plancherel_pairing(b.dual, b.runs, a.runs, b.runs[0].ndim - 4) / b.group.order


def tf_norm(a: TFFunction) -> float | np.ndarray:
    return as_value(np.sqrt(np.maximum(np.real(tf_inner(a, a)), 0.0)))


def tf_convolve(a: TFFunction, b: TFFunction) -> TFFunction:
    """a * b = F^{-1}((Fb)(Fa)), with the pointwise matrix product in that order."""
    require_same_group(a.group, b.group, "TF functions")
    require_same_dual(a.dual, b.dual, "TF functions")
    Fa = symplectic_fourier(a)
    Fb = symplectic_fourier(b)
    prod = block_product(Fb.runs, Fa.runs)
    return inverse_symplectic_fourier(AmbiguityFunction.from_runs(a.group, a.dual, prod))


# ---------------------------------------------------------------------------
# Ambiguity <-> time-lag conversions
# ---------------------------------------------------------------------------


def ambiguity_to_timelag(phi: AmbiguityFunction) -> TimeLagKernel:
    """varphi(x, y) = sum_xi d_xi tr(xi(x) phi(xi, y))."""
    return TimeLagKernel(phi.group, group_inverse_fourier(phi.dual, phi.runs))


def timelag_to_ambiguity(k: TimeLagKernel, dual: UnitaryDual | None = None) -> AmbiguityFunction:
    """phi(xi, y) = (1/|G|) sum_x xi(x)^* varphi(x, y)."""
    group = k.group
    dual = group.dual if dual is None else dual
    return AmbiguityFunction.from_runs(group, dual, group_fourier(dual, k.values))
