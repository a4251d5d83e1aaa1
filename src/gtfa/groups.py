"""Finite groups and their unitary duals.

A group is stored as a dense Cayley table on element indices 0..|G|-1; the
table is the single source of truth for the group law.  Each group built here
carries its complete unitary dual: an ordered list of inequivalent irreducible
unitary matrix representations, stored densely (one d x d matrix per element).

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
`plancherel_pairing`) take and return runs, and `stack_blocks` checks
per-irrep blocks given from outside and stacks them.

The Fourier pair is defined by the naive O(|G|^2) sum, one dense product with
the stacked table.  A dual whose builder made it the standard character table
of cyclic factors (`UnitaryDual.cyclic_factors`: `build_cyclic` and products
of such duals) takes an FFT route instead once |G| >= FFT_MIN_ORDER: the same
sums as an n-dimensional DFT over the factor axes, in O(|G| log |G|) per
column.  Dihedral duals, products with a dihedral factor and file-loaded
duals always take the naive sum, which stays the oracle of the FFT route.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

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
# The Fourier pair and the per-run helpers (stack_blocks to plancherel_pairing)
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
    """One irreducible unitary representation, tabulated per element.

    matrices has shape (|G|, dim, dim); matrices[x] is eta(x).  Once the irrep
    belongs to a UnitaryDual, matrices is a view into the dual's table.
    """

    dim: int
    matrices: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.matrices = np.ascontiguousarray(self.matrices, dtype=complex)

    @property
    def star(self) -> np.ndarray:
        """eta(x)^* per element, computed from `matrices` on each access."""
        return self.matrices.conj().transpose(0, 2, 1)

    @property
    def characters(self) -> np.ndarray:
        return np.trace(self.matrices, axis1=1, axis2=2)


@dataclass
class UnitaryDual:
    """Complete list of inequivalent irreps of a group; the frequency domain.

    The representations are stored once, in the stacked table
    table[(k, a, b), x] = eta_k(x)[a, b]: rows run through the irreps in dual
    order, each irrep's entries row-major.  A complete dual has a square
    table (sum d_k^2 = |G|); an all-scalar dual's table is its character
    table.  Each irrep's `matrices` is rebound to a view of its rows.

    `cyclic_factors` is set only by the builders that know the table is the
    standard character table of Z/n_1 x ... x Z/n_r, elements and irreps
    both in C order over (n_1, ..., n_r); it selects the FFT route of the
    Fourier pair.  None (the default) keeps the naive sum.
    """

    irreps: list[Irrep]
    trivial_index: int = 0

    def __post_init__(self):
        self.dims = np.array([eta.dim for eta in self.irreps])
        n = self.irreps[0].matrices.shape[0]
        self.table = np.concatenate([eta.matrices.reshape(n, -1).T for eta in self.irreps])
        # runs[i] = (first irrep, end irrep, dim, first table row) of the i-th
        # maximal run of consecutive irreps of equal dimension
        runs, row = [], 0
        for k, d in enumerate(self.dims.tolist()):
            if runs and runs[-1][2] == d:
                runs[-1][1] = k + 1
            else:
                runs.append([k, k + 1, d, row])
            row += d * d
        self.runs = [tuple(r) for r in runs]
        for eta, m in zip(self.irreps, (m for run in representation_runs(self) for m in run)):
            eta.matrices = m
        self.group: "FiniteGroup | None" = None  # backref, set by builders
        self.cyclic_factors: tuple[int, ...] | None = None  # set by builders

    def __len__(self) -> int:
        return len(self.irreps)


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


def stack_blocks(dual: UnitaryDual, blocks, lead: tuple) -> list[np.ndarray]:
    """Per-irrep blocks of shape lead + (d_k, d_k), checked and stacked into
    one array per run.  Producers inside the package build runs directly."""
    blocks = list(blocks)
    if len(blocks) != len(dual.irreps):
        raise ValueError(f"{len(blocks)} blocks for {len(dual.irreps)} irreps")
    runs = []
    for first, end, d, _ in dual.runs:
        want = (*lead, d, d)
        bad = [np.shape(b) for b in blocks[first:end] if np.shape(b) != want]
        if bad:
            raise ValueError(f"block shape {bad[0]} != ({','.join(map(str, want))})")
        runs.append(np.array(blocks[first:end], dtype=complex))
    return runs


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
    """sum_k d_k <b_k, a_k>, each pairing summing b conj(a) over every axis
    but the `batch` axes right after the run axis, which are kept: a complex
    for batch = 0, else an array with one value per batch entry."""
    total = 0
    for (_, _, d, _), rb, ra in zip(dual.runs, b, a):
        if rb.shape != ra.shape:
            raise ValueError(f"cannot pair runs of shapes {rb.shape} and {ra.shape}")
        shape = (*rb.shape[:1 + batch], -1)
        total = total + d * np.vecdot(ra.reshape(shape), rb.reshape(shape)).sum(axis=0)
    return as_value(total)


def as_value(x):
    """A 0-d result as a Python number; a batch's array as it is."""
    return x.item() if np.ndim(x) == 0 else x


def _fft_shape(dual: UnitaryDual) -> tuple[int, ...] | None:
    """The cyclic factor orders when the Fourier pair takes the FFT route."""
    if dual.cyclic_factors is not None and len(dual.table) >= FFT_MIN_ORDER:
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
    or on the FFT route one unscaled inverse DFT of those rows.
    """
    v = np.empty((len(dual.table), *runs[0].shape[1:-2]), dtype=complex)
    for (_, _, d, _), run, rows in zip(dual.runs, runs, _table_runs(dual, v)):
        np.multiply(run, d, out=rows)
    shape = _fft_shape(dual)
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
    # cache for the (x, y) -> x * y^{-1} index table used by convolutions
    _right_div: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.cayley = np.ascontiguousarray(self.cayley, dtype=np.intp)
        self.inverse = np.ascontiguousarray(self.inverse, dtype=np.intp)

    def mul(self, x: int, y: int) -> int:
        return int(self.cayley[x, y])

    def inv(self, x: int) -> int:
        return int(self.inverse[x])

    @property
    def right_div(self) -> np.ndarray:
        """Index table rd[x, y] = x * y^{-1}."""
        if self._right_div is None:
            self._right_div = np.ascontiguousarray(self.cayley[:, self.inverse])
        return self._right_div

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, FiniteGroup)
            and self.order == other.order
            and np.array_equal(self.cayley, other.cayley)
        )

    def __hash__(self):
        return hash(self.order)  # equal groups share an order, as __eq__ requires


def is_cyclic(group: FiniteGroup) -> bool:
    """True when the group law is addition mod |G|, the labeling of cyclic:N."""
    i = np.arange(group.order)
    return np.array_equal(group.cayley, (i[:, None] + i[None, :]) % group.order)


def require_same_group(a: FiniteGroup, b: FiniteGroup, what: str = "operands"):
    if a != b:
        raise ValueError(f"group mismatch: {what} live on different groups")


def require_same_dual(a: UnitaryDual, b: UnitaryDual, what: str = "operands"):
    """Runs of two functions line up only when their duals list the same irreps
    in the same order; an equal group may carry another dual (a group file)."""
    if a is not b and not (a.table.shape == b.table.shape and np.array_equal(a.table, b.table)):
        raise ValueError(f"dual mismatch: {what} live on different duals")


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


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
    cayley = (idx[:, None] + idx[None, :]) % N
    inverse = (-idx) % N
    # chi_k(x) is the (k x mod N)-th root of unity: an unreduced phase
    # 2 pi k x / N loses up to 1e-12 of accuracy at N = 2048.
    phases = np.exp(2j * np.pi * idx / N)[np.outer(idx, idx) % N]
    irreps = [
        Irrep(1, phases[k].reshape(N, 1, 1), label=f"chi{k}") for k in range(N)
    ]
    dual = UnitaryDual(irreps, trivial_index=0)
    dual.cyclic_factors = (N,)
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
    cayley = np.zeros((order, order), dtype=np.intp)
    i = np.arange(n)
    cayley[:n, :n] = (i[:, None] + i[None, :]) % n
    cayley[:n, n:] = n + (i[None, :] - i[:, None]) % n        # r^i . s r^j = s r^{j-i}
    cayley[n:, :n] = n + (i[:, None] + i[None, :]) % n        # s r^i . r^j = s r^{i+j}
    cayley[n:, n:] = (i[None, :] - i[:, None]) % n            # s r^i . s r^j = r^{j-i}
    inverse = np.concatenate([(-i) % n, n + i])

    irreps: list[Irrep] = []
    ones = np.ones(n)
    alt = (-1.0) ** i
    one_dim_tables = [np.concatenate([ones, ones]),            # trivial
                      np.concatenate([ones, -ones])]           # sign of reflection
    if n % 2 == 0:
        one_dim_tables += [np.concatenate([alt, alt]),
                           np.concatenate([alt, -alt])]
    for k, tab in enumerate(one_dim_tables):
        irreps.append(Irrep(1, tab.astype(complex).reshape(order, 1, 1),
                            label=f"one{k}"))

    roots = np.exp(2j * np.pi * i / n)
    n_two = (n - 1) // 2 if n % 2 == 1 else n // 2 - 1
    for h in range(1, n_two + 1):
        mats = np.zeros((order, 2, 2), dtype=complex)
        w = roots[(h * i) % n]
        mats[:n, 0, 0] = w
        mats[:n, 1, 1] = w.conj()
        mats[n:, 0, 1] = w.conj()
        mats[n:, 1, 0] = w
        irreps.append(Irrep(2, mats, label=f"two{h}"))

    dual = UnitaryDual(irreps, trivial_index=0)
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
    ia = np.arange(order) // nb
    ib = np.arange(order) % nb
    cayley = ga.cayley[np.ix_(ia, ia)] * nb + gb.cayley[np.ix_(ib, ib)]
    inverse = ga.inverse[ia] * nb + gb.inverse[ib]
    identity = ga.identity * nb + gb.identity

    # kron[ka, kb] = xi_ka (x) eta_kb, one einsum per pair of runs
    kron = {}
    for (fa, _, _, _), A in zip(da.runs, representation_runs(da)):
        for (fb, _, _, _), B in zip(db.runs, representation_runs(db)):
            d = A.shape[-1] * B.shape[-1]
            prod = np.einsum("jxab,kxcd->jkxacbd", A[:, ia], B[:, ib], order="C")
            prod = prod.reshape(len(A), len(B), order, d, d)  # a view: each product is contiguous
            kron.update(((fa + j, fb + k), m) for j, row in enumerate(prod) for k, m in enumerate(row))
    irreps = [Irrep(xi.dim * eta.dim, kron[ka, kb], label=f"{xi.label}x{eta.label}")
              for ka, xi in enumerate(da.irreps) for kb, eta in enumerate(db.irreps)]
    trivial = da.trivial_index * len(db.irreps) + db.trivial_index
    dual = UnitaryDual(irreps, trivial_index=trivial)
    if da.cyclic_factors is not None and db.cyclic_factors is not None:
        # element and irrep indices are both x_a * nb + x_b: C order over the factors
        dual.cyclic_factors = da.cyclic_factors + db.cyclic_factors
    group = FiniteGroup(order, cayley, int(identity), inverse, dual,
                        name=f"product:{ga.name}x{gb.name}")
    dual.group = group
    return group, dual


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate(group: FiniteGroup, dual: UnitaryDual) -> list[str]:
    """Check every structural invariant; return a list of violation messages.

    An empty list means the pair is a valid finite group with a complete
    unitary dual.  All violated invariants are reported, not just the first.
    """
    errs: list[str] = []
    n = group.order
    c = group.cayley

    if c.shape != (n, n):
        return [f"cayley table shape {c.shape} does not match order {n}"]
    if c.min() < 0 or c.max() >= n:
        errs.append("cayley table contains out-of-range element indices")
        return errs

    e = group.identity
    if not (np.array_equal(c[e], np.arange(n)) and np.array_equal(c[:, e], np.arange(n))):
        errs.append(f"identity axiom fails for claimed identity {e}")
    bad_inv = np.nonzero(c[np.arange(n), group.inverse] != e)[0]
    if bad_inv.size:
        errs.append(f"inverse axiom fails at elements {bad_inv.tolist()}")
    # associativity: c[c[x,y],z] == c[x,c[y,z]] for all triples
    lhs = c[c, :]     # lhs[x,y,z] = (xy)z
    rhs = c[:, c]     # rhs[x,y,z] = x(yz)
    bad = np.argwhere(lhs != rhs)
    if bad.size:
        x, y, z = bad[0]
        errs.append(
            f"associativity fails at ({x},{y},{z}) and {len(bad) - 1} more triples"
        )

    for k, eta in enumerate(dual.irreps):
        m = eta.matrices
        if m.shape != (n, eta.dim, eta.dim):
            errs.append(f"irrep {k}: matrix table shape {m.shape} invalid")
            continue
        uerr = np.abs(m @ eta.star - np.eye(eta.dim)).max()
        if uerr > ALG_TOL:
            worst = int(np.abs(m @ eta.star - np.eye(eta.dim)).reshape(n, -1).max(1).argmax())
            errs.append(f"irrep {k}: non-unitary at element {worst} (err {uerr:.3g})")
        herr = np.abs(m[c.reshape(-1)].reshape(n, n, eta.dim, eta.dim)
                      - np.einsum("xab,ybc->xyac", m, m)).max()
        if herr > ALG_TOL:
            errs.append(f"irrep {k}: homomorphism violated (err {herr:.3g})")
        if np.abs(m[e] - np.eye(eta.dim)).max() > ALG_TOL:
            errs.append(f"irrep {k}: eta(e) != I")
        irr = abs(np.mean(np.abs(eta.characters) ** 2) - 1.0)
        if irr > STAT_TOL:
            errs.append(f"irrep {k}: not irreducible (character norm err {irr:.3g})")

    if int(np.sum(dual.dims**2)) != n:
        errs.append(
            f"Peter-Weyl completeness fails: sum d^2 = {int(np.sum(dual.dims ** 2))} != {n}"
        )
    chars = np.stack([eta.characters for eta in dual.irreps])
    gram = chars @ chars.conj().T / n
    off = gram - np.diag(np.diag(gram))
    pairs = np.argwhere(np.abs(off) > STAT_TOL)
    for j, k in pairs[pairs[:, 0] < pairs[:, 1]]:
        errs.append(f"irreps {j} and {k} are equivalent (character overlap)")

    t = dual.trivial_index
    if not (dual.irreps[t].dim == 1 and np.abs(dual.irreps[t].matrices - 1).max() <= ALG_TOL):
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


def _content_lines(path) -> list[tuple[int, str]]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                out.append((lineno, line))
    return out


class _Cursor:
    def __init__(self, lines):
        self.lines = lines
        self.pos = 0

    def next(self, what: str) -> tuple[int, str]:
        if self.pos >= len(self.lines):
            last = self.lines[-1][0] if self.lines else 0
            raise GroupTableError(f"line {last}: unexpected end of file, expected {what}")
        item = self.lines[self.pos]
        self.pos += 1
        return item

    def keyword(self, key: str) -> int:
        lineno, line = self.next(f"'{key} <value>'")
        parts = line.split()
        if len(parts) != 2 or parts[0] != key:
            raise GroupTableError(f"line {lineno}: expected '{key} <value>', got {line!r}")
        try:
            return int(parts[1])
        except ValueError:
            raise GroupTableError(f"line {lineno}: {key} value {parts[1]!r} is not an integer")


def load_group_file(path) -> tuple[FiniteGroup, UnitaryDual]:
    """Load a custom group and dual from the Group Table Format.

    Every FiniteGroup/Irrep/UnitaryDual invariant is verified after parsing;
    on failure, the error message lists all violations.
    """
    cur = _Cursor(_content_lines(path))
    order = cur.keyword("group")
    if order < 1:
        raise GroupTableError("group order must be positive")
    identity = cur.keyword("identity")

    cayley = np.zeros((order, order), dtype=np.intp)
    for r in range(order):
        lineno, line = cur.next(f"Cayley table row {r}")
        parts = line.split()
        if len(parts) != order:
            raise GroupTableError(
                f"line {lineno}: Cayley row {r} has {len(parts)} entries, expected {order}"
            )
        try:
            cayley[r] = [int(p) for p in parts]
        except ValueError:
            raise GroupTableError(f"line {lineno}: non-integer entry in Cayley row {r}")
    if cayley.min() < 0 or cayley.max() >= order:
        raise GroupTableError("Cayley table entry out of range")

    n_irreps = cur.keyword("irreps")
    irreps = []
    for k in range(n_irreps):
        d = cur.keyword("dim")
        if d < 1:
            raise GroupTableError(f"irrep {k}: dimension must be positive")
        mats = np.zeros((order, d, d), dtype=complex)
        for x in range(order):
            for row in range(d):
                lineno, line = cur.next(f"irrep {k}, element {x}, row {row}")
                parts = line.split()
                if len(parts) != 2 * d:
                    raise GroupTableError(
                        f"line {lineno}: expected {d} 're im' pairs, got {len(parts)} numbers"
                    )
                try:
                    vals = [float(p) for p in parts]
                except ValueError:
                    raise GroupTableError(f"line {lineno}: malformed number")
                mats[x, row] = np.array(vals[0::2]) + 1j * np.array(vals[1::2])
        irreps.append(Irrep(d, mats, label=f"irrep{k}"))
    if cur.pos != len(cur.lines):
        lineno, _ = cur.lines[cur.pos]
        raise GroupTableError(f"line {lineno}: trailing content after last irrep")

    trivial = next(
        (k for k, eta in enumerate(irreps)
         if eta.dim == 1 and np.abs(eta.matrices - 1).max() <= ALG_TOL),
        -1,
    )
    if trivial < 0:
        raise GroupTableError("dual contains no trivial (all-ones) irrep")

    try:
        inverse = np.array([int(np.nonzero(cayley[x] == identity)[0][0]) for x in range(order)])
    except IndexError:
        raise GroupTableError("some element has no inverse under the claimed identity")
    dual = UnitaryDual(irreps, trivial_index=trivial)
    group = FiniteGroup(order, cayley, identity, inverse, dual, name=f"file:{path}")
    dual.group = group

    errs = validate(group, dual)
    if errs:
        raise GroupTableError("invalid group table:\n  " + "\n  ".join(errs))
    return group, dual
