"""Signals on a finite group and the matrix-valued Fourier transform.

Conventions (fixed throughout the package):

* Haar measure is the uniform probability measure: integrals over the group
  are (1/|G|) sums.  The Dirac delta therefore takes the value |G| at the
  identity so that its Haar integral is 1.
* The Plancherel side weights each irrep by its dimension: the
  "noncommutative integral" of a matrix-valued c is  sum_eta d_eta tr c(eta).
* All transforms are the naive O(|G|^2) sums.  For every dual, scalar or
  not, each is one dense matrix product with the dual's stacked
  representation table (`groups.group_fourier` and its inverse); there is
  deliberately no FFT path.  The Plancherel-weighted sums (`nc_integral`,
  `plancherel_inner`) are `groups.plancherel_trace` and
  `groups.plancherel_pairing`, which work per run of equal-dimension irreps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import (FiniteGroup, UnitaryDual, group_fourier, group_inverse_fourier,
                     plancherel_pairing, plancherel_trace, require_same_group)

__all__ = [
    "Signal",
    "FourierCoefficients",
    "haar_inner",
    "norm",
    "fourier",
    "inverse_fourier",
    "nc_integral",
    "plancherel_inner",
    "convolve",
    "delta_signal",
    "constant_signal",
    "random_signal",
]


@dataclass
class Signal:
    """A complex-valued function on a finite group."""

    group: FiniteGroup
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex).reshape(-1)
        if len(self.values) != self.group.order:
            raise ValueError(
                f"signal length {len(self.values)} != group order {self.group.order}"
            )

    @property
    def dual(self) -> UnitaryDual:
        return self.group.dual


@dataclass
class FourierCoefficients:
    """Matrix-valued Fourier coefficients: one d_eta x d_eta block per irrep."""

    dual: UnitaryDual
    blocks: list[np.ndarray]

    def __post_init__(self):
        self.blocks = [np.asarray(b, dtype=complex) for b in self.blocks]
        for b, eta in zip(self.blocks, self.dual.irreps):
            if b.shape != (eta.dim, eta.dim):
                raise ValueError(f"block shape {b.shape} != ({eta.dim},{eta.dim})")


def haar_inner(u: Signal, v: Signal) -> complex:
    """<u,v> = (1/|G|) sum_x u(x) v(x)^*."""
    require_same_group(u.group, v.group, "signals")
    return complex(np.vdot(v.values, u.values) / u.group.order)


def norm(u: Signal) -> float:
    return float(np.sqrt(max(haar_inner(u, u).real, 0.0)))


def fourier(u: Signal) -> FourierCoefficients:
    """u_hat(eta) = (1/|G|) sum_x u(x) eta(x)^*."""
    dual = u.group.dual
    return FourierCoefficients(dual, group_fourier(dual, u.values))


def inverse_fourier(c: FourierCoefficients) -> Signal:
    """u(x) = sum_eta d_eta tr(eta(x) c(eta)); inverts `fourier` exactly."""
    return Signal(c.dual.group, group_inverse_fourier(c.dual, c.blocks))


def nc_integral(c: FourierCoefficients) -> complex:
    """Noncommutative integral  sum_eta d_eta tr c(eta);  equals u(e) for c = u_hat."""
    return complex(plancherel_trace(c.dual, c.blocks).sum())


def plancherel_inner(c: FourierCoefficients, d: FourierCoefficients) -> complex:
    """<c,d> = sum_eta d_eta tr(c(eta) d(eta)^*);  equals <u,v> for c,d = u_hat,v_hat."""
    return plancherel_pairing(c.dual, c.blocks, d.blocks)


def convolve(u: Signal, v: Signal) -> Signal:
    """u*v(x) = (1/|G|) sum_y u(x y^{-1}) v(y).

    On the Fourier side (u*v)_hat(eta) = v_hat(eta) u_hat(eta) -- note the
    reversed order, which matters on noncommutative groups.
    """
    require_same_group(u.group, v.group, "signals")
    g = u.group
    return Signal(g, u.values[g.right_div] @ v.values / g.order)


def delta_signal(group: FiniteGroup) -> Signal:
    """Dirac delta at the identity, normalized to unit Haar integral."""
    vals = np.zeros(group.order, dtype=complex)
    vals[group.identity] = group.order
    return Signal(group, vals)


def constant_signal(group: FiniteGroup) -> Signal:
    return Signal(group, np.ones(group.order, dtype=complex))


def random_signal(group: FiniteGroup, rng: np.random.Generator) -> Signal:
    """Standard complex Gaussian signal; the test corpus generator."""
    vals = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
    return Signal(group, vals)
