"""Signals on a finite group and the matrix-valued Fourier transform.

Conventions (fixed throughout the package):

* Haar measure is the uniform probability measure: integrals over the group
  are (1/|G|) sums.  The Dirac delta therefore takes the value |G| at the
  identity so that its Haar integral is 1.
* The Plancherel side weights each irrep by its dimension: the
  "noncommutative integral" of a matrix-valued c is  sum_eta d_eta tr c(eta).
* All transforms are defined as the naive O(|G|^2) sums.  For every dual,
  scalar or not, each is one dense matrix product with the dual's stacked
  representation table (`groups.group_fourier` and its inverse).  A
  built-in cyclic dual or product of cyclic duals takes an FFT route for the
  same sums once |G| >= groups.FFT_MIN_ORDER (128); dihedral and
  file-loaded duals stay on the naive sum, which is the FFT route's oracle.
  The Plancherel-weighted sums (`nc_integral`, `plancherel_inner`) are
  `groups.plancherel_trace` and `groups.plancherel_pairing`.
* `convolve`, the ambiguity and Cohen transforms and `kn_symbol` gather
  translates through one index table per group, `FiniteGroup.lag_index`.
* Fourier coefficients are stored as one array (end - first, d, d) per run
  of equal-dimension irreps (`UnitaryDual.runs`); `blocks` views them per
  irrep.
* A Signal holds one signal, values (|G|,), or a batch of B signals on the
  same group, values (B, |G|).  `fourier` carries the batch through as runs
  (end - first, B, d, d) and `inverse_fourier` back; so do
  `transforms.ambiguity_transform` and `transforms.cohen_transform`, as plane
  runs (end - first, B, |G|, d, d).  The inner products and integrals
  (`haar_inner`, `norm`, `nc_integral`, `plancherel_inner`, and those of
  `tfplane` and `quantization`) pair a batch entry by entry, giving one value
  per entry where a single input gives one number.  Every other function
  taking a Signal refuses a batch (`require_single`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import (FiniteGroup, UnitaryDual, as_value, group_fourier, group_inverse_fourier,
                     plancherel_pairing, plancherel_trace, require_same_group, stack_blocks)

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
    """A complex-valued function on a finite group, values (|G|,), or a batch
    of B of them, values (B, |G|)."""

    group: FiniteGroup
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim not in (1, 2):
            raise ValueError(f"signal shape {self.values.shape} is neither (|G|,) nor (B, |G|)")
        if self.values.shape[-1] != self.group.order:
            raise ValueError(
                f"signal length {self.values.shape[-1]} != group order {self.group.order}"
            )

    @property
    def dual(self) -> UnitaryDual:
        return self.group.dual


def require_single(*signals: Signal):
    """Refuse a batch where a function computes on one signal at a time."""
    for u in signals:
        if u.values.ndim != 1:
            raise ValueError(f"expected one signal, got a batch of shape {u.values.shape}")


def require_pairable(u: Signal, v: Signal):
    """Two signals, or two batches of one shape, on one group."""
    require_same_group(u.group, v.group, "signals")
    if u.values.shape != v.values.shape:
        raise ValueError(f"signal batches of shapes {u.values.shape} and {v.values.shape}")


class FourierCoefficients:
    """Matrix-valued Fourier coefficients: one d_eta x d_eta block per irrep.

    Stored as `runs`, one array (end - first, d, d) per run of the dual, or
    (end - first, B, d, d) for a batch of signals.
    """

    def __init__(self, dual: UnitaryDual, blocks):
        self.dual = dual
        self.runs = stack_blocks(dual, blocks, ())

    @classmethod
    def from_runs(cls, dual: UnitaryDual, runs) -> "FourierCoefficients":
        """Wrap per-run arrays as they are, unchecked."""
        c = cls.__new__(cls)
        c.dual, c.runs = dual, runs
        return c

    @property
    def blocks(self) -> list[np.ndarray]:
        """The block of each irrep in dual order, as a view into the runs."""
        return [b for run in self.runs for b in run]


def haar_inner(u: Signal, v: Signal) -> complex | np.ndarray:
    """<u,v> = (1/|G|) sum_x u(x) v(x)^*, per entry of two batches."""
    require_pairable(u, v)
    return as_value(np.vecdot(v.values, u.values) / u.group.order)


def norm(u: Signal) -> float | np.ndarray:
    return as_value(np.sqrt(np.maximum(np.real(haar_inner(u, u)), 0.0)))


def fourier(u: Signal) -> FourierCoefficients:
    """u_hat(eta) = (1/|G|) sum_x u(x) eta(x)^*, per signal of a batch."""
    dual = u.group.dual
    return FourierCoefficients.from_runs(dual, group_fourier(dual, u.values.T))


def inverse_fourier(c: FourierCoefficients) -> Signal:
    """u(x) = sum_eta d_eta tr(eta(x) c(eta)); inverts `fourier` exactly."""
    return Signal(c.dual.group, group_inverse_fourier(c.dual, c.runs).T)


def nc_integral(c: FourierCoefficients) -> complex | np.ndarray:
    """Noncommutative integral  sum_eta d_eta tr c(eta);  equals u(e) for c = u_hat."""
    return as_value(plancherel_trace(c.dual, c.runs).sum(axis=0))


def plancherel_inner(c: FourierCoefficients, d: FourierCoefficients) -> complex | np.ndarray:
    """<c,d> = sum_eta d_eta tr(c(eta) d(eta)^*);  equals <u,v> for c,d = u_hat,v_hat."""
    return plancherel_pairing(c.dual, c.runs, d.runs, c.runs[0].ndim - 3)


def convolve(u: Signal, v: Signal) -> Signal:
    """u*v(x) = (1/|G|) sum_y u(x y^{-1}) v(y).

    On the Fourier side (u*v)_hat(eta) = v_hat(eta) u_hat(eta) -- note the
    reversed order, which matters on noncommutative groups.
    """
    require_same_group(u.group, v.group, "signals")
    require_single(u, v)
    g = u.group
    return Signal(g, u.values.take(g.lag_index.T) @ v.values / g.order)  # u(x y^{-1}) at [x, y]


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
