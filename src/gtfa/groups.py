"""Finite groups and their unitary duals.

A group is stored as a dense Cayley table on element indices 0..|G|-1; the
table is the single source of truth for the group law.  Each group built here
carries its complete unitary dual: an ordered list of inequivalent irreducible
unitary matrix representations, stored as one table (`UnitaryDual.table`),
made on first read for the cyclic and product builders; what a dual holds
is fixed when it is made.  Its per-irrep `Irrep` views, (dim, matrices)
each, are made only when `UnitaryDual.irreps` is first read.

Dual ordering is canonical and load-bearing for file outputs: cyclic duals are
ordered by character exponent, dihedral duals list the 1-dimensional irreps
first, product duals are lexicographic in the factors.

A function on the dual, possibly over further leading axes (the elements of
a plane, the lags), is stored as one array per run of consecutive irreps of
equal dimension (`UnitaryDual.runs`): run i has shape (end - first, ..., d, d),
and its j-th entry is the block of irrep first + j.  An all-scalar dual has
one run, so a function on G x G^ is a single (|G|, |G|, 1, 1) array.  A batch
of B such functions puts its axis right after the run axis: a batch of plane
functions has runs (end - first, B, |G|, d, d).  The helpers below take any
middle axes, so the batch passes through them; `plancherel_pairing` is told
how many of them are batch axes, which it keeps.  This module alone knows
how the runs lie in the stacked table and how they are weighted: the Fourier
pair (`group_fourier`, `group_inverse_fourier`), the pointwise product
(`block_product`) and the Plancherel sums (`plancherel_trace`,
`plancherel_pairing`) take and return runs, and `DualFunction` checks
the runs of a function given to it against the dual.

The Fourier pair is defined by the naive O(|G|^2) sum, one dense product with
the stacked table.  A dual whose builder made it the standard character table
of cyclic factors (`UnitaryDual.cyclic_factors`: `build_cyclic` and products
of such duals) takes an FFT route instead once |G| >= FFT_MIN_ORDER: the same
sums as an n-dimensional DFT over the factor axes, in O(|G| log |G|) per
column, with no |G| x |G| table (`cyclic:N` holds a window view as its Cayley
table).  Dihedral duals, products with a dihedral factor and file-loaded
duals always take the naive sum, which stays the oracle of the FFT route.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FiniteGroup",
    "Irrep",
    "UnitaryDual",
    "GroupTableError",
    "build_cyclic",
    "build_dihedral",
    "build_product",
    "is_cyclic",
    "load_group_file",
    "validate",
]
# The Fourier pair and the per-run helpers (DualFunction to plancherel_pairing)
# are public but left out of __all__: perfbench/tracer.py times each __all__
# name by self time, so listing them would move the transform work out of the
# harmonic/tfplane/transforms layers.

# Algebraic identities of built-ins hold to ALG_TOL; orthogonality sums that
# accumulate over |G| terms only to STAT_TOL.
ALG_TOL = 1e-10
STAT_TOL = 1e-8

# Order from which a dual with cyclic factors takes the FFT route.  Below it,
# numpy's per-call FFT overhead costs more than the dense product it replaces:
# a whole cohen_transform took 0.92x the naive time at cyclic:64, 1.14x at
# cyclic:127 and 2.23x at cyclic:4 x cyclic:8, against 0.57x at cyclic:128
# and 0.30x at cyclic:512 (one BLAS thread).
FFT_MIN_ORDER = 128

# Groups each cached builder keeps, least recently used first out.  A group
# and its dual refer to each other, so an evicted pair is freed by the cyclic
# garbage collector; a rebuilt dual is equal to the evicted one by value.
GROUP_CACHE_SIZE = 64


class GroupTableError(ValueError):
    """Raised when a group table file is malformed or violates an invariant."""


@dataclass
class Irrep:
    """One irreducible unitary representation, a view of a dual's table:
    matrices has shape (|G|, dim, dim), and matrices[x] = eta(x) views its rows."""

    dim: int
    matrices: np.ndarray

    def __post_init__(self):
        self.matrices = np.asarray(self.matrices, dtype=complex)


class UnitaryDual:
    """Complete list of inequivalent irreps of a group; the frequency domain.

    A dual is one table, table[(k, a, b), x] = eta_k(x)[a, b]: rows run
    through the irreps in dual order, each irrep's entries row-major.  A
    complete dual has a square table (sum d_k^2 = |G|); an all-scalar dual's
    table is its character table.  `table` is the array, or a function making
    it when it is first read; `dims` gives d_k per irrep, from which `runs`
    follow.  `irreps`, Irrep views of the table, are made when first read.

    `cyclic_factors` is given only by the builders that know the table is
    the standard character table of Z/n_1 x ... x Z/n_r, elements and irreps
    both in C order over (n_1, ..., n_r); it selects the FFT route of the
    Fourier pair.  None (the default) keeps the naive sum.
    """

    def __init__(self, table, dims, trivial_index: int = 0, cyclic_factors: tuple[int, ...] | None = None):
        self._table = table
        self.dims = np.asarray(dims, dtype=int)
        self.runs = _runs(self.dims)
        self.trivial_index = trivial_index
        self.cyclic_factors = cyclic_factors
        self.group: "FiniteGroup | None" = None  # backref, set by builders

    @functools.cached_property
    def table(self) -> np.ndarray:
        return self._table() if callable(self._table) else self._table

    @functools.cached_property
    def irreps(self) -> list[Irrep]:
        views = (m for run in representation_runs(self) for m in run)
        return [Irrep(d, m) for d, m in zip(self.dims.tolist(), views)]

    def __len__(self) -> int:
        return len(self.dims)


def _runs(dims: np.ndarray) -> list[tuple[int, int, int, int]]:
    """(first irrep, end irrep, dim, first table row) of each maximal run of
    consecutive irreps of equal dimension, in dual order."""
    first = [0, *((dims[1:] != dims[:-1]).nonzero()[0] + 1).tolist()]
    row = [0, *(dims * dims).cumsum().tolist()]
    return [(f, e, int(dims[f]), row[f]) for f, e in zip(first, first[1:] + [len(dims)])]


# ---------------------------------------------------------------------------
# Per-run arithmetic on the dual
# ---------------------------------------------------------------------------


def _table_runs(dual: UnitaryDual, s: np.ndarray) -> list[np.ndarray]:
    """Per run, the view v[j, ..., a, b] = s[(first + j, b, a), ...] of an
    array whose rows follow the stacked table's (k, a, b) rows."""
    rest = s.shape[1:]
    views = []
    for first, end, d, row in dual.runs:
        run = s[row:row + (end - first) * d * d].reshape(end - first, d, d, *rest)
        views.append(run.transpose(0, *range(3, run.ndim), 2, 1))
    return views


def representation_runs(dual: UnitaryDual) -> list[np.ndarray]:
    """eta_k(x) per run, as arrays (end - first, |G|, d, d) viewing the table."""
    return [v.swapaxes(-1, -2) for v in _table_runs(dual, dual.table)]


class DualFunction:
    """A function on the dual, over the further axes `lead` ((|G|,) on a plane),
    as its runs: run i of shape (end - first, *batch, *lead, d, d), the batch
    axes the same in every run.  Each run is checked against `dual.runs` and kept with no copy,
    float64 as it is (a real D(u, u)), else as np.asarray(run, complex); `blocks` views them."""

    def __init__(self, dual: UnitaryDual, runs, lead: tuple = ()):
        runs = [run if getattr(run, "dtype", None) == np.float64 else np.asarray(run, dtype=complex) for run in runs]
        if len(runs) != len(dual.runs):
            raise ValueError(f"got {len(runs)} runs, the dual has {len(dual.runs)}")
        batch = runs[0].shape[1:runs[0].ndim - len(lead) - 2]
        for i, ((first, end, d, _), run) in enumerate(zip(dual.runs, runs)):
            if run.shape != (want := (end - first, *batch, *lead, d, d)):
                raise ValueError(f"run {i} of shape {run.shape}, expected {want}")
        self.dual, self.runs = dual, runs

    @property
    def blocks(self) -> list[np.ndarray]:
        """The block of each irrep in dual order, as a view into the runs."""
        return [b for run in self.runs for b in run]


def block_product(left, right) -> list[np.ndarray]:
    """The pointwise product left[k] @ right[k] on the dual, one product per run.

    Each run's product is the sum of d broadcast rank-1 products
    left[..., :, j] right[..., j, :], an elementwise product for d = 1: on
    1x1 and 2x2 blocks numpy's batched `@` costs about three times as much,
    and at d = 4 the two are equal.  Leading axes broadcast as usual.
    """
    out = []
    for l, r in zip(left, right):
        p = l[..., :, :1] * r[..., :1, :]
        for j in range(1, l.shape[-1]):
            p += l[..., :, j:j + 1] * r[..., j:j + 1, :]
        out.append(p)
    return out


def plancherel_trace(dual: UnitaryDual, runs) -> np.ndarray:
    """t[k, ...] = d_k tr(block_k[..., :, :]), the irreps in dual order.

    Summed over k, this is the noncommutative integral sum_k d_k tr(.).
    """
    return np.concatenate([d * np.einsum("k...aa->k...", run)
                           for (_, _, d, _), run in zip(dual.runs, runs)])


def plancherel_pairing(dual: UnitaryDual, b, a, batch: int = 0):
    """sum_k d_k <b_k, a_k>, each pairing b conj(a) where it lies, summed over
    every axis but the `batch` axes right after the run axis, which are kept:
    a complex for batch = 0, else an array with one value per batch entry."""
    total = 0
    for (_, _, d, _), rb, ra in zip(dual.runs, b, a):
        if rb.shape != ra.shape:
            raise ValueError(f"cannot pair runs of shapes {rb.shape} and {ra.shape}")
        pair = np.vecdot(ra, rb, axis=1 + batch)
        total = total + d * pair.sum(axis=(0, *range(1 + batch, pair.ndim)))
    return as_value(total)


def as_value(x):
    """A 0-d result as a Python number; a batch's array as it is."""
    return x.item() if np.ndim(x) == 0 else x


def _fft_shape(dual: UnitaryDual) -> tuple[int, ...] | None:
    """The cyclic factor orders when the Fourier pair takes the FFT route."""
    if dual.cyclic_factors is not None and len(dual.dims) >= FFT_MIN_ORDER:
        return dual.cyclic_factors
    return None


def group_fourier(dual: UnitaryDual, w: np.ndarray) -> list[np.ndarray]:
    """block_k[..., :, :] = (1/|G|) sum_x w[x, ...] eta_k(x)^*, as runs.

    w has shape (|G|, *rest); run i has shape (end - first, *rest, d, d).
    One dense product with the stacked table, whose rows the runs view, or on
    the FFT route one forward DFT over the cyclic factor axes, as
    chi_k(x)^* = prod_j exp(-2 pi i k_j x_j / n_j).
    """
    shape = _fft_shape(dual)
    if shape is None:
        s = dual.table.conj() @ w.reshape(len(w), -1)
        s *= 1 / len(w)  # what `s / len(w)` computes, without numpy's complex division
        s = s.reshape(w.shape)
    else:
        s = np.fft.fftn(w.reshape(*shape, *w.shape[1:]), axes=range(len(shape)), norm="forward")
        s = s.reshape(w.shape)
    return _table_runs(dual, s)


def group_inverse_fourier(dual: UnitaryDual, runs) -> np.ndarray:
    """t[x, ...] = sum_k d_k tr(eta_k(x) block_k[..., :, :]).

    Inverts `group_fourier`.  One dense product of the transposed stacked
    table with the runs laid out as rows (k, a, b) -> d_k block_k[..., b, a],
    or on the FFT route one unscaled inverse DFT of those rows.  A dual of
    characters alone, as on the FFT route, has one run: its entries are the rows.
    """
    shape = _fft_shape(dual)
    if dual.runs[0][1:3] == (len(dual), 1):  # one run, of dimension 1
        v = np.ascontiguousarray(runs[0][..., 0, 0], dtype=complex)
    else:
        v = np.empty((len(dual.table), *runs[0].shape[1:-2]), dtype=complex)
        for (_, _, d, _), run, rows in zip(dual.runs, runs, _table_runs(dual, v)):
            np.multiply(run, d, out=rows)
    if shape is None:
        return (dual.table.T @ v.reshape(len(v), -1)).reshape(v.shape)
    t = np.fft.ifftn(v.reshape(*shape, *v.shape[1:]), axes=range(len(shape)), norm="forward")
    return t.reshape(v.shape)


@dataclass
class FiniteGroup:
    """A finite group: Cayley table, identity, inverses, and its dual.

    Treated as immutable after construction; safe to share across threads.
    """

    order: int
    cayley: np.ndarray
    identity: int
    inverse: np.ndarray
    dual: UnitaryDual | None = None
    name: str = "group"

    def __post_init__(self):
        self.cayley = np.asarray(self.cayley, dtype=np.intp)  # keeps build_cyclic's window view
        self.inverse = np.ascontiguousarray(self.inverse, dtype=np.intp)

    @functools.cached_property
    def lag_index(self) -> np.ndarray:
        """Index table L[y, x] = x * y^{-1}, lag-major and C-contiguous."""
        return self.cayley.T[self.inverse]

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, FiniteGroup)
            and self.order == other.order
            and np.array_equal(self.cayley, other.cayley)
        )

    def __hash__(self):
        return hash(self.order)  # equal groups share an order, as __eq__ requires


def is_cyclic(group: FiniteGroup) -> bool:
    """True when the group law is addition mod |G|, the labeling of cyclic:N.

    Reads one column: x * 1 = x + 1 for every x makes 0 the identity and
    x = 1^x, so by associativity x * y = x + y.
    It costs O(|G|) time and memory: no |G| x |G| table is made.
    """
    N = group.order
    return np.array_equal(group.cayley[:, 1 % N], (np.arange(N) + 1) % N)


def require_same_group(a: FiniteGroup, b: FiniteGroup, what: str = "operands"):
    if a != b:
        raise ValueError(f"group mismatch: {what} live on different groups")


def require_same_dual(a: UnitaryDual, b: UnitaryDual, what: str = "operands"):
    """Runs of two functions line up only when their duals list the same irreps
    in the same order, the tables equal within ALG_TOL (a group file's digits);
    an equal group may carry another dual (a group file)."""
    same = (a.cyclic_factors == b.cyclic_factors if a.cyclic_factors and b.cyclic_factors  # standard tables
            else a is b or (a.table.shape == b.table.shape and np.abs(a.table - b.table).max() <= ALG_TOL))
    if not same:
        raise ValueError(f"dual mismatch: {what} live on different duals")


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def cyclic_exponents(N: int, rows: slice | np.ndarray = slice(None)) -> np.ndarray:
    """k x mod N for the k in `rows` (a slice or indices) and every x: chi_k(x) = exp(2 pi i (k x mod N) / N),
    the phase reduced before the exponential (unreduced, it loses 1e-12 of accuracy at N = 2048)."""
    kx = np.arange(N, dtype=np.int32 if N < 46341 else np.intp)  # k x < 2^31
    return np.remainder(e := kx[rows, None] * kx, N, out=e)


@functools.lru_cache(maxsize=GROUP_CACHE_SIZE)
def build_cyclic(N: int) -> tuple[FiniteGroup, UnitaryDual]:
    """Cyclic group Z/NZ with the N characters x -> exp(i 2 pi k x / N).

    Cached (the last GROUP_CACHE_SIZE orders): repeated calls return the same
    (group, dual) pair.  Kernels and signals built for the same N are
    interoperable either way, as groups and duals compare by value.
    """
    if N < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {N}")
    idx = np.arange(N)
    # row x of the Cayley table, (x + y) mod N, is a window of 0..N-1 twice over
    cayley = np.ndarray((N, N), idx.dtype, np.concatenate((idx, idx[:-1])), strides=(idx.itemsize,) * 2)
    inverse = (-idx) % N
    dual = UnitaryDual(lambda: np.exp(2j * np.pi * idx / N)[cyclic_exponents(N)], np.ones(N, dtype=int),
                       cyclic_factors=(N,))
    group = FiniteGroup(N, cayley, 0, inverse, dual, name=f"cyclic:{N}")
    dual.group = group
    return group, dual


@functools.lru_cache(maxsize=GROUP_CACHE_SIZE)
def build_dihedral(n: int) -> tuple[FiniteGroup, UnitaryDual]:
    """Dihedral group of order 2n, n >= 3.

    Elements 0..n-1 are rotations r^i, elements n..2n-1 are reflections s r^i,
    with the relations s r s = r^{-1} and s^2 = e.
    """
    if n < 3:
        raise ValueError(f"dihedral parameter must be >= 3, got {n}")
    order = 2 * n
    i = np.arange(n)
    add, sub = (i[:, None] + i) % n, (i - i[:, None]) % n
    # r^i . r^j = r^{i+j}, r^i . s r^j = s r^{j-i}, s r^i . r^j = s r^{i+j}, s r^i . s r^j = r^{j-i}
    cayley = np.block([[add, n + sub], [n + add, sub]])
    inverse = np.concatenate([(-i) % n, n + i])

    n_one = 2 if n % 2 else 4
    n_two = (n - 1) // 2 if n % 2 else n // 2 - 1
    table = np.zeros((n_one + 4 * n_two, order), dtype=complex)
    table[0] = 1                                              # trivial
    table[1, :n], table[1, n:] = 1, -1                        # sign of reflection
    if n_one == 4:
        alt = (-1.0) ** i
        table[2:4, :n], table[2:4, n:] = alt, [alt, -alt]
    w = np.exp(2j * np.pi * i / n)[np.outer(np.arange(1, n_two + 1), i) % n]
    two = table[n_one:].reshape(n_two, 2, 2, order)           # rows (h, a, b)
    two[:, 0, 0, :n], two[:, 1, 1, :n] = w, w.conj()
    two[:, 0, 1, n:], two[:, 1, 0, n:] = w.conj(), w

    dual = UnitaryDual(table, np.repeat([1, 2], [n_one, n_two]))
    group = FiniteGroup(order, cayley, 0, inverse, dual, name=f"dihedral:{n}")
    dual.group = group
    return group, dual


def build_product(
    a: tuple[FiniteGroup, UnitaryDual], b: tuple[FiniteGroup, UnitaryDual]
) -> tuple[FiniteGroup, UnitaryDual]:
    """Direct product A x B; irreps are the Kronecker products xi (x) eta."""
    ga, da = a
    gb, db = b
    na, nb = ga.order, gb.order
    order = na * nb
    # element (x_a, x_b) gets index x_a * nb + x_b
    cayley = (ga.cayley[:, None, :, None] * nb + gb.cayley[None, :, None, :]).reshape(order, order)
    inverse = (ga.inverse[:, None] * nb + gb.inverse).ravel()
    identity = ga.identity * nb + gb.identity

    def recipe():
        # irrep (ka, kb) is ka * len(db) + kb: xi_ka fills d_ka^2 rows per row of
        # db.table.  One einsum per pair of runs; np.kron differs in the last bit.
        rows_b = len(db.table)
        table = np.empty((len(da.table) * rows_b, order), dtype=complex)
        runs_b = list(zip(db.runs, representation_runs(db)))
        for (fa, ea, dA, ra), A in zip(da.runs, representation_runs(da)):
            rows = table[ra * rows_b:(ra + (ea - fa) * dA * dA) * rows_b].reshape(ea - fa, -1, order)
            A = np.repeat(A, nb, axis=1)  # A[:, x_a] at element (x_a, x_b)
            for (fb, eb, dB, rb), B in runs_b:
                prod = np.einsum("jxab,kxcd->jkxacbd", A, np.tile(B, (1, na, 1, 1)), order="C")
                out = rows[:, dA * dA * rb:dA * dA * (rb + (eb - fb) * dB * dB)]
                out.reshape(ea - fa, eb - fb, dA, dB, dA, dB, order)[...] = np.moveaxis(prod, 2, -1)
        return table
    # element and irrep indices are both x_a * nb + x_b: C order over the factors
    ca, cb = da.cyclic_factors, db.cyclic_factors
    dual = UnitaryDual(recipe, np.outer(da.dims, db.dims).ravel(), da.trivial_index * len(db) + db.trivial_index,
                       None if ca is None or cb is None else ca + cb)
    group = FiniteGroup(order, cayley, int(identity), inverse, dual,
                        name=f"product:{ga.name}x{gb.name}")
    dual.group = group
    return group, dual


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

# Bytes of temporaries one step of `validate` may hold: its associativity and
# homomorphism checks run over chunks of x, at least one x (80 |G|^2 bytes at
# most) each, instead of |G|^3 entries at once (2 GiB at order 512).  Small
# chunks stay in cache: on dihedral:64 it took 55 ms at 4 MiB, 110 at 64 MiB.
VALIDATE_BYTES = 1 << 22


def _chunks(n: int, per_x: int) -> list[slice]:
    """Consecutive slices of 0..n-1, each of VALIDATE_BYTES // per_x elements, at least one."""
    step = max(1, VALIDATE_BYTES // per_x)
    return [slice(x, x + step) for x in range(0, n, step)]


def validate(group: FiniteGroup, dual: UnitaryDual) -> list[str]:
    """Check every structural invariant; return a list of violation messages.

    An empty list means the pair is a valid finite group with a complete
    unitary dual.  All violated invariants are reported, not just the first.
    Each representation check runs once per run of equal-dimension irreps.
    """
    errs: list[str] = []
    n = group.order
    c = group.cayley

    if c.shape != (n, n):
        return [f"cayley table shape {c.shape} does not match order {n}"]
    if c.min() < 0 or c.max() >= n:
        return ["cayley table contains out-of-range element indices"]

    e = group.identity
    if not (np.array_equal(c[e], np.arange(n)) and np.array_equal(c[:, e], np.arange(n))):
        errs.append(f"identity axiom fails for claimed identity {e}")
    bad_inv = np.nonzero(c[np.arange(n), group.inverse] != e)[0]
    if bad_inv.size:
        errs.append(f"inverse axiom fails at elements {bad_inv.tolist()}")
    # associativity: c[c[x,y],z] == c[x,c[y,z]] for all triples, on narrowed entries
    narrow = c.astype(np.int16 if n <= 1 << 15 else np.int32)
    bad, where = 0, None
    for s in _chunks(n, (2 * narrow.itemsize + 1) * n * n):
        fails = np.take(narrow, c[s], axis=0) != np.take(narrow[s], c, axis=1)  # (xy)z != x(yz), x in s
        count = np.count_nonzero(fails)
        if count and where is None:
            x, y, z = np.unravel_index(fails.argmax(), fails.shape)
            where = f"({x + s.start},{y},{z})"
        bad += count
    if bad:
        errs.append(f"associativity fails at {where} and {bad - 1} more triples")

    chars = np.concatenate([np.trace(M, axis1=2, axis2=3) for M in representation_runs(dual)])
    if dual.table.shape[1] != n:
        errs += [f"irrep {k}: matrix table shape ({dual.table.shape[1]}, {d}, {d}) invalid"
                 for k, d in enumerate(dual.dims.tolist())]
    else:  # each check once per run; the messages irrep by irrep
        uerr, worst, herr, eerr = np.zeros((4, len(dual)))
        for (first, end, d, _), M in zip(dual.runs, representation_runs(dual)):
            m = end - first
            dev = np.abs(M @ M.conj().swapaxes(-1, -2) - np.eye(d)).reshape(m, n, -1).max(axis=2)
            uerr[first:end], worst[first:end] = dev.max(axis=1), dev.argmax(axis=1)
            for s in _chunks(n, 80 * m * d * d * n):
                (prod,) = block_product([M[:, s, None]], [M[:, None]])  # eta(x) eta(y)
                dev = np.abs(np.take(M, c[s], axis=1) - prod).reshape(m, -1).max(axis=1)
                herr[first:end] = np.maximum(herr[first:end], dev)
            eerr[first:end] = np.abs(M[:, e] - np.eye(d)).reshape(m, -1).max(axis=1)
        irr = np.abs(np.mean(np.abs(chars) ** 2, axis=1) - 1.0)
        checks = [(uerr > ALG_TOL, "non-unitary at element {w:.0f} (err {u:.3g})"),
                  (herr > ALG_TOL, "homomorphism violated (err {h:.3g})"),
                  (eerr > ALG_TOL, "eta(e) != I"),
                  (irr > STAT_TOL, "not irreducible (character norm err {i:.3g})")]
        errs += [f"irrep {k}: " + msg.format(w=worst[k], u=uerr[k], h=herr[k], i=irr[k])
                 for k in np.flatnonzero(np.any([hit for hit, _ in checks], axis=0))
                 for hit, msg in checks if hit[k]]

    if int(np.sum(dual.dims**2)) != n:
        errs.append(f"Peter-Weyl completeness fails: sum d^2 = {int(np.sum(dual.dims ** 2))} != {n}")
    gram = chars @ chars.conj().T / n
    off = gram - np.diag(np.diag(gram))
    pairs = np.argwhere(np.abs(off) > STAT_TOL)
    for j, k in pairs[pairs[:, 0] < pairs[:, 1]]:
        errs.append(f"irreps {j} and {k} are equivalent (character overlap)")

    t = dual.trivial_index
    k = range(len(dual))[t]
    row = int(np.sum(dual.dims[:k] ** 2))
    if not (dual.dims[k] == 1 and np.abs(dual.table[row] - 1).max() <= ALG_TOL):
        errs.append(f"trivial_index {t} does not point at the all-ones irrep")
    return errs


# ---------------------------------------------------------------------------
# Group Table Format
# ---------------------------------------------------------------------------
#
#   group <order>
#   identity <index>
#   <order> lines of <order> space-separated integers (Cayley table)
#   irreps <count>
#   then per irrep: "dim <d>" followed by <order> blocks of d lines,
#   each line holding d "re im" pairs.  '#' starts a comment.
#
# Integers take the form INDEX_FIELD and numbers VALUE_FIELD, the field
# grammar of the CSV tables (signalio) and of the CLI's group specs too.
# `load_group_file` reads the Cayley rows, then each irrep's pairs, as one
# block of lines (`_Cursor.block`), which it walks line by line only to name
# the first faulty line.  A group order or dim the rest of the file cannot
# hold, or d^2 > order, is refused before its block is read.

# Integers as `%d` writes them, and decimal numbers in plain or scientific
# notation (which `%.17g` writes): Python's int() and float() would also take
# "+1", " 2" and "1_0", which no writer emits.  The optional parts of a number
# are written `(?:...|)` rather than `(?:...)?`: the same forms, which the
# regex engine matches about a quarter faster (CSV rows, CPython 3.11).
INDEX_FIELD = re.compile(r"-?[0-9]+")
VALUE_FIELD = re.compile(r"-?[0-9]+(?:\.[0-9]+|)(?:[eE][+-]?[0-9]+|)|-?inf|nan")


class _Cursor:
    """A group file's content lines, stripped, their line numbers, a position."""

    def __init__(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            lines = list(map(str.strip, re.sub("#.*", "", fh.read()).split("\n")))
        self.linenos = (np.flatnonzero(np.fromiter(map(bool, lines), bool, len(lines))) + 1).tolist()
        self.lines, self.pos = list(filter(None, lines)), 0

    def left(self) -> int:
        return len(self.lines) - self.pos

    def keyword(self, key: str) -> tuple[int, int]:
        """The line number and integer value of a `<key> <value>` line."""
        if self.pos >= len(self.lines):
            raise GroupTableError(f"line {self.linenos[-1] if self.lines else 0}: unexpected end of file, "
                                  f"expected '{key} <value>'")
        lineno, line = self.linenos[self.pos], self.lines[self.pos]
        self.pos += 1
        parts = line.split()
        if len(parts) != 2 or parts[0] != key:
            raise GroupTableError(f"line {lineno}: expected '{key} <value>', got {line!r}")
        if not INDEX_FIELD.fullmatch(parts[1]):
            raise GroupTableError(f"line {lineno}: {key} value {parts[1]!r} is not an integer")
        return lineno, int(parts[1])

    def block(self, n: int, width: int, field: re.Pattern, count: str, form: str) -> np.ndarray:
        """The next n lines as an (n, width) float array, when each holds
        `width` whitespace-separated fields of the form `field`.  Else the
        error of the first line i that does not: `count` if it has another
        number of fields, else `form`, each formatted with i and that number n."""
        lines = self.lines[self.pos:self.pos + n]
        line = re.compile(rf"(?:{field.pattern})(?:\s+(?:{field.pattern})){{{width - 1}}}")
        if not all(map(line.fullmatch, lines)):
            for i, parts in enumerate(map(str.split, lines)):
                if len(parts) != width or not all(map(field.fullmatch, parts)):
                    message = (count if len(parts) != width else form).format(i=i, n=len(parts))
                    raise GroupTableError(f"line {self.linenos[self.pos + i]}: {message}")
        self.pos += n
        return np.loadtxt(lines, ndmin=2)


def _dim(cur: _Cursor, k: int, order: int) -> int:
    """Read irrep k's `dim` line; refuse a dim its group or the file cannot hold."""
    lineno, d = cur.keyword("dim")
    if d < 1:
        raise GroupTableError(f"irrep {k}: dimension must be positive")
    if d * d > order:
        raise GroupTableError(f"line {lineno}: dim {d} exceeds the group: d^2 = {d * d} > order {order}")
    if order * d > cur.left():
        raise GroupTableError(f"line {lineno}: dim {d} needs {order * d} lines of 're im' pairs, "
                              f"but only {cur.left()} content lines follow")
    return d


def load_group_file(path) -> tuple[FiniteGroup, UnitaryDual]:
    """Load a custom group and dual from the Group Table Format.

    Every FiniteGroup and UnitaryDual invariant is verified after parsing;
    on failure, the error message lists all violations.
    """
    cur = _Cursor(path)
    lineno, order = cur.keyword("group")
    if order < 1:
        raise GroupTableError("group order must be positive")
    if order >= cur.left():
        raise GroupTableError(f"line {lineno}: group {order} needs {order} Cayley rows, "
                              f"but only {cur.left() - 1} content lines follow the identity")
    lineno, identity = cur.keyword("identity")
    if not 0 <= identity < order:
        raise GroupTableError(f"line {lineno}: identity {identity} is not an element 0..{order - 1}")

    cayley = cur.block(order, order, INDEX_FIELD, f"Cayley row {{i}} has {{n}} entries, expected {order}",
                       "non-integer entry in Cayley row {i}")
    if cayley.min() < 0 or cayley.max() >= order:  # read as floats, so no entry overflows
        raise GroupTableError("Cayley table entry out of range")
    cayley = cayley.astype(np.intp)

    dims, tables = [], []
    for k in range(cur.keyword("irreps")[1]):
        d = _dim(cur, k, order)
        pairs = cur.block(order * d, 2 * d, VALUE_FIELD, f"expected {d} 're im' pairs, got {{n}} numbers",
                          "malformed number")
        dims.append(d)
        tables.append(pairs.view(complex).reshape(order, d * d).T)  # rows (a, b), columns x
    if cur.pos != len(cur.lines):
        raise GroupTableError(f"line {cur.linenos[cur.pos]}: trailing content after last irrep")
    trivial = next((k for k, t in enumerate(tables) if len(t) == 1 and np.abs(t - 1).max() <= ALG_TOL), None)
    if trivial is None:
        raise GroupTableError("dual contains no trivial (all-ones) irrep")
    hits = cayley == identity
    if not hits.any(axis=1).all():
        raise GroupTableError("some element has no inverse under the claimed identity")

    table = np.ascontiguousarray(np.concatenate(tables))  # concatenated transposes come out in F order
    dual = UnitaryDual(table, dims, trivial)
    group = FiniteGroup(order, cayley, identity, hits.argmax(axis=1), dual, name=f"file:{path}")
    dual.group = group
    errs = validate(group, dual)
    if errs:
        raise GroupTableError("invalid group table:\n  " + "\n  ".join(errs))
    return group, dual
