"""Finite groups and their unitary duals.

A group is stored as a dense Cayley table on element indices 0..|G|-1; the
table is the single source of truth for the group law.  Each group built here
carries its complete unitary dual: an ordered list of inequivalent irreducible
unitary matrix representations, stored densely (one d x d matrix per element).

Dual ordering is canonical and load-bearing for file outputs: cyclic duals are
ordered by character exponent, dihedral duals list the 1-dimensional irreps
first, product duals are lexicographic in the factors.

A quantity on the dual is a list of blocks, blocks[k] of shape (..., d_k, d_k).
This module alone knows how they lie in the stacked table and how they are
weighted: the Fourier pair (`group_fourier`, `group_inverse_fourier`), the
pointwise product (`block_product`) and the Plancherel sums (`plancherel_trace`,
`plancherel_pairing`) each handle one array (end - first, ..., d, d) per run of
equal-dimension irreps (`UnitaryDual.runs`), built by `stack_runs` and cut back
into per-irrep views by `split_runs`.
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
# The Fourier pair and the per-run helpers (stack_runs to plancherel_pairing)
# are public but left out of __all__: perfbench/tracer.py times each __all__
# name by self time, so listing them would move the transform work out of the
# harmonic/tfplane/transforms layers.

# Algebraic identities of built-ins hold to ALG_TOL; orthogonality sums that
# accumulate over |G| terms only to STAT_TOL.
ALG_TOL = 1e-10
STAT_TOL = 1e-8


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
        for eta, m in zip(self.irreps, split_runs(representation_runs(self))):
            eta.matrices = m
        self.group: "FiniteGroup | None" = None  # backref, set by builders

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


def stack_runs(dual: UnitaryDual, blocks) -> list[np.ndarray]:
    """The blocks of each run stacked on a new first axis: (end - first, ..., d, d)."""
    return [np.stack(blocks[first:end]) for first, end, _, _ in dual.runs]


def split_runs(runs) -> list[np.ndarray]:
    """The per-irrep blocks of per-run arrays, as views; inverts `stack_runs`."""
    return [b for run in runs for b in run]


def block_adjoint(blocks) -> list[np.ndarray]:
    """The conjugate transpose of every block over its last two axes."""
    return [np.conj(b).swapaxes(-1, -2) for b in blocks]


def block_product(dual: UnitaryDual, left, right) -> list[np.ndarray]:
    """The pointwise product left[k] @ right[k] on the dual, one product per run."""
    return split_runs([l @ r for l, r in zip(stack_runs(dual, left), stack_runs(dual, right))])


def plancherel_trace(dual: UnitaryDual, blocks) -> np.ndarray:
    """t[k, ...] = d_k tr(blocks[k][..., :, :]), the irreps in dual order.

    Summed over k, this is the noncommutative integral sum_k d_k tr(.).
    """
    return np.concatenate([d * np.einsum("k...aa->k...", run)
                           for (_, _, d, _), run in zip(dual.runs, stack_runs(dual, blocks))])


def plancherel_pairing(dual: UnitaryDual, b, a) -> complex:
    """sum_k d_k <b[k], a[k]>, each pairing summing b conj(a) over every axis."""
    return complex(sum(d * np.vdot(ra, rb) for (_, _, d, _), rb, ra
                       in zip(dual.runs, stack_runs(dual, b), stack_runs(dual, a))))


def group_fourier(dual: UnitaryDual, w: np.ndarray) -> list[np.ndarray]:
    """blocks[k][..., :, :] = (1/|G|) sum_x w[x, ...] eta_k(x)^*.

    w has shape (|G|,) or (|G|, m); each block has shape w.shape[1:] + (d_k, d_k).
    One dense product with the stacked table, split into per-irrep views.
    """
    return split_runs(_table_runs(dual, dual.table.conj() @ w / w.shape[0]))


def group_inverse_fourier(dual: UnitaryDual, blocks) -> np.ndarray:
    """t[x, ...] = sum_k d_k tr(eta_k(x) blocks[k][..., :, :]).

    Inverts `group_fourier`.  One dense product of the transposed stacked
    table with the blocks stacked as rows (k, a, b) -> d_k blocks[k][..., b, a].
    """
    rest = np.shape(blocks[0])[:-2]
    v = np.empty((len(dual.table), *rest), dtype=complex)
    for (first, end, d, _), run in zip(dual.runs, _table_runs(dual, v)):
        np.stack(blocks[first:end], out=run)
        run *= d
    return dual.table.T @ v


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


def same_group(a: FiniteGroup, b: FiniteGroup) -> bool:
    return a == b


def require_same_group(a: FiniteGroup, b: FiniteGroup, what: str = "operands"):
    if not same_group(a, b):
        raise ValueError(f"group mismatch: {what} live on different groups")


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_cyclic(N: int) -> tuple[FiniteGroup, UnitaryDual]:
    """Cyclic group Z/NZ with the N characters x -> exp(i 2 pi k x / N).

    Cached: repeated calls return the same (group, dual) pair, so kernels and
    signals built independently for the same N are interoperable.
    """
    if N < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {N}")
    idx = np.arange(N)
    cayley = (idx[:, None] + idx[None, :]) % N
    inverse = (-idx) % N
    phases = np.exp(2j * np.pi * np.outer(idx, idx) / N)
    irreps = [
        Irrep(1, phases[k].reshape(N, 1, 1), label=f"chi{k}") for k in range(N)
    ]
    dual = UnitaryDual(irreps, trivial_index=0)
    group = FiniteGroup(N, cayley, 0, inverse, dual, name=f"cyclic:{N}")
    dual.group = group
    return group, dual


@functools.lru_cache(maxsize=None)
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

    omega = np.exp(2j * np.pi / n)
    n_two = (n - 1) // 2 if n % 2 == 1 else n // 2 - 1
    for h in range(1, n_two + 1):
        mats = np.zeros((order, 2, 2), dtype=complex)
        w = omega ** (h * i)
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

    irreps = []
    for ka, xi in enumerate(da.irreps):
        for kb, eta in enumerate(db.irreps):
            d = xi.dim * eta.dim
            mats = np.einsum(
                "xab,xcd->xacbd", xi.matrices[ia], eta.matrices[ib]
            ).reshape(order, d, d)
            irreps.append(Irrep(d, mats, label=f"{xi.label}x{eta.label}"))
    trivial = da.trivial_index * len(db.irreps) + db.trivial_index
    dual = UnitaryDual(irreps, trivial_index=trivial)
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
