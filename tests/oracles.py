"""Reference computations that tests compare the library against.

Direct sums of the defining formulas (the Cohen and odd Wigner transforms)
and closed forms (the Rihaczek distribution per run), with no Fourier
shortcut, per-irrep blocks stacked into the runs that `FourierCoefficients`,
`TFFunction` and `AmbiguityFunction` take (`stack_blocks`), phase retrieval
on the Born-Jordan kernel's phi division with one index array per lag, a
row-by-row CSV table reader, the sampled integer kernel entry by entry,
and groups built, loaded and validated one irrep and one line at a time,
their duals stacked from given Irreps (`stack_irreps`).
No library code uses them, so they live beside the tests.
"""

import math
import re
from dataclasses import replace

import numpy as np

from gtfa import properties
from gtfa import groups
from gtfa.groups import (INDEX_FIELD, VALUE_FIELD, FiniteGroup, GroupTableError, Irrep, UnitaryDual, build_cyclic,
                         representation_runs, require_same_dual, require_same_group)
from gtfa.harmonic import Signal, fourier, haar_inner, norm, random_signal
from gtfa.limits import ZSignal, ZTFGrid, varphi_DZ
from gtfa.properties import EXHAUSTIVE_TOL, ONB_TOL, SEED, PropertyReport
from gtfa.signalio import CsvFormatError
from gtfa.quantization import (GroupOperator, identity_operator, kn_operator, original_localization,
                               quantize, tf_integral)
from gtfa.reconstruct import magnitudes_from_margins
from gtfa.tfplane import (AmbiguityFunction, TFFunction, TimeLagKernel, symplectic_fourier, tf_inner, tf_norm,
                          timelag_to_ambiguity)
from gtfa.transforms import CohenKernel, cohen_transform


def cohen_transform_direct(k: CohenKernel, u: Signal, v: Signal) -> TFFunction:
    """Brute-force oracle for `cohen_transform` via the time-lag kernel:

    D(u,v)(x, eta) = (1/|G|^2) sum_y eta(y)^*
                       sum_z varphi(z^{-1} x, y) u(z) v(z y^{-1})^*.
    """
    require_same_group(k.group, u.group, "kernel and signal")
    group, dual = u.group, u.group.dual
    n = group.order
    lag = k.timelag().values
    inv = group.inverse
    cay = group.cayley
    # P[y, x] = sum_z varphi(z^{-1} x, y) u(z) v(z y^{-1})^*
    P = np.zeros((n, n), dtype=complex)
    vconj = v.values.conj()
    zx = cay[inv, :]                                  # zx[z, x] = z^{-1} x
    for y in range(n):
        wy = u.values * vconj[cay[:, inv[y]]]         # w_y[z]
        Vy = lag[:, y].take(zx)                       # Vy[z, x] = varphi(z^{-1}x, y)
        P[y] = wy @ Vy
    blocks = [
        np.tensordot(P, star(eta), axes=(0, 0)) / (n * n) for eta in dual.irreps  # sum over y
    ]
    return TFFunction(group, dual, stack_blocks(dual, blocks))


def stack_blocks(dual: UnitaryDual, blocks) -> list[np.ndarray]:
    """Per-irrep blocks, in dual order, stacked into one array per run of the dual."""
    blocks = list(blocks)
    return [np.array(blocks[f:e], dtype=complex) for f, e, *_ in dual.runs]


def scalar_runs(table) -> list[np.ndarray]:
    """The one run (n_irreps, |G|, 1, 1) of an all-scalar dual's (n_irreps, |G|) table."""
    return [np.asarray(table, dtype=complex)[..., None, None]]


def rihaczek_per_run(u: Signal, v: Signal) -> TFFunction:
    """Reference for `transforms.rihaczek`: R(u,v)(x, eta) = u(x) eta(x)^* v_hat(eta)^*,
    one product per run of the dual, the irreps of the run on the first axis."""
    group, dual = u.group, u.group.dual
    runs = [u.values[:, None, None] * (eta.conj().swapaxes(-1, -2) @ vhat.conj().swapaxes(-1, -2)[:, None])
            for eta, vhat in zip(representation_runs(dual), fourier(v).runs)]
    return TFFunction(group, dual, runs)


def wigner_odd_cyclic_direct(u: Signal, v: Signal) -> TFFunction:
    """The paper's Wigner sum on an odd cyclic group, h the halving map y -> y/2:

    W(u,v)(x, eta) = (1/N) sum_y eta(y)^* u(x + h(y)) v(x - h(y))^*.
    """
    group, dual, N = u.group, u.group.dual, u.group.order
    h, x = (N + 1) // 2 * np.arange(N) % N, np.arange(N)
    core = u.values[(x + h[:, None]) % N] * v.values.conj()[(x - h[:, None]) % N]  # core[y, x]
    return TFFunction(group, dual, stack_blocks(dual, [np.tensordot(core, star(eta), axes=(0, 0)) / N
                                                       for eta in dual.irreps]))


def commutator_kernel_closed_form(f: Signal, g: Signal) -> AmbiguityFunction:
    """Cross-check form phi(xi, y) = i 2 pi f_hat(-xi) (1 - e^{i 2 pi xi y/N}) g(y)^*."""
    group = f.group
    N = group.order
    fhat = np.array([b[0, 0] for b in fourier(f).blocks])
    idx = np.arange(N)
    table = (2j * np.pi) * fhat[(-idx) % N][:, None] \
        * (1.0 - np.exp(2j * np.pi * ((idx[:, None] * idx[None, :]) % N) / N)) \
        * g.values.conj()[None, :]
    return AmbiguityFunction(group, group.dual, scalar_runs(table))


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
    return TFFunction(group, dual, stack_blocks(dual, blocks))


def duality_residual(k: CohenKernel, u: Signal, v: Signal, a: TFFunction) -> float:
    """|<u, a^D v> - <D(u,v), a>|, the defining identity of quantization."""
    lhs = haar_inner(u, quantize(k, a).apply(v))
    rhs = tf_inner(cohen_transform(k, u, v), a)
    return abs(lhs - rhs)


def born_jordan_phi(N: int, xi: int, y: int) -> complex:
    """Closed-form Born-Jordan ambiguity kernel value on Z/NZ.

    1 on the axes; off the axes
    (i 2 pi / N) (1 - e^{i 2 pi xi y / N})
        / ((1 - e^{i 2 pi xi / N}) (1 - e^{-i 2 pi y / N})).
    Zero exactly when xi and y are zero divisors mod N with xi*y = 0 mod N.
    """
    xi %= N
    y %= N
    if xi == 0 or y == 0:
        return 1.0 + 0.0j
    num = 1.0 - np.exp(2j * np.pi * ((xi * y) % N) / N)
    den = (1.0 - np.exp(2j * np.pi * xi / N)) * (1.0 - np.exp(-2j * np.pi * y / N))
    return complex(2j * np.pi / N * num / den)


def born_jordan_table_where(N: int) -> np.ndarray:
    """`born_jordan_cyclic_kernel`'s table as first built: a fresh array per
    step, the axes masked by `np.where` before they are set to 1."""
    idx = np.arange(N)
    roots = np.exp(2j * np.pi * idx / N)
    with np.errstate(divide="ignore", invalid="ignore"):
        num = 1.0 - roots[(idx[:, None] * idx[None, :]) % N]
        den = np.outer(1.0 - roots, 1.0 - np.exp(-2j * np.pi * idx / N))
        table = np.where(den != 0, 2j * np.pi / N * num / np.where(den == 0, 1, den), 0)
    table[0, :] = 1.0
    table[:, 0] = 1.0
    return table


# ---------------------------------------------------------------------------
# Gathers through rd[x, y] = x y^{-1}, the transpose of `FiniteGroup.lag_index`,
# and through ld[x, y] = y^{-1} x, in place of its scatters
# ---------------------------------------------------------------------------


def right_div(group: FiniteGroup) -> np.ndarray:
    """rd[x, y] = x * y^{-1}, C-contiguous."""
    return np.ascontiguousarray(group.cayley[:, group.inverse])


def convolve_right_div(u: Signal, v: Signal) -> Signal:
    """`harmonic.convolve` as one product with the gathered u(x y^{-1}) at [x, y]."""
    g = u.group
    return Signal(g, u.values[right_div(g)] @ v.values / g.order)


def kn_symbol_right_div(B: GroupOperator) -> TFFunction:
    """`quantization.kn_symbol` gathering s[w, x] = K(x, x w^{-1}) through rd^T."""
    group = B.group
    s = B.kernel[np.arange(group.order), right_div(group).T]
    return TFFunction(group, group.dual, groups.group_fourier(group.dual, s))


def left_div(group: FiniteGroup) -> np.ndarray:
    """ld[x, y] = y^{-1} * x."""
    return group.cayley[group.inverse, :].T


def kn_operator_left_div(a: TFFunction) -> GroupOperator:
    """`quantization.kn_operator` gathering K(x, y) = s(y^{-1} x, x) through ld."""
    group = a.group
    s = groups.group_inverse_fourier(a.dual, a.runs)
    return GroupOperator(group, s[left_div(group), np.arange(group.order)[:, None]])


def original_localization_left_div(k: CohenKernel) -> GroupOperator:
    """`quantization.original_localization` gathering K(z, y) =
    conj(lag(z^{-1}, y^{-1} z)) through ld."""
    group = k.group
    return GroupOperator(group, np.conj(k.timelag().values[group.inverse[:, None], left_div(group)]))


def check_l2_bound_serial(k: CohenKernel, samples: int = 100) -> PropertyReport:
    """`properties.check_l2_bound` one pair at a time: ||D(u,v)|| against
    ||phi||_Linf ||u|| ||v|| on `samples` pairs of serial `random_signal` draws."""
    bound_const = k.linf_norm()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(samples):
        u, v = random_signal(k.group, rng), random_signal(k.group, rng)
        worst = max(worst, tf_norm(cohen_transform(k, u, v)) - bound_const * norm(u) * norm(v))
    mv = max(worst, 0.0)
    return PropertyReport("l2-bound", mv <= EXHAUSTIVE_TOL, mv)


# ---------------------------------------------------------------------------
# Serial forms of the sampled cross-checks of `properties`: one signal (pair,
# quadruple) at a time, from serial `random_signal` draws.  The kernel-side
# figures are the library's, with the cross-check replaced.


def _pairs(k, count, rng):
    for _ in range(count):
        yield random_signal(k.group, rng), random_signal(k.group, rng)


def check_normalized_serial(k: CohenKernel) -> PropertyReport:
    """|integral D(u,w) - <u,w>| on 20 pairs."""
    cross = max(abs(tf_integral(cohen_transform(k, u, w)) - haar_inner(u, w))
                for u, w in _pairs(k, 20, np.random.default_rng(SEED)))
    return replace(properties.check_normalized(k, verify=False), cross_check=cross)


def check_time_margins_serial(k: CohenKernel) -> PropertyReport:
    """|sum_eta d_eta tr D(u,w)(x, eta) - u(x) w(x)^*| on 20 pairs."""
    cross = 0.0
    for u, w in _pairs(k, 20, np.random.default_rng(SEED)):
        D = cohen_transform(k, u, w)
        margin = sum(d * np.trace(b, axis1=1, axis2=2) for d, b in zip(k.dual.dims, D.blocks))
        cross = max(cross, np.abs(margin - u.values * w.values.conj()).max())
    return replace(properties.check_time_margins(k, verify=False), cross_check=cross)


def check_frequency_margins_serial(k: CohenKernel) -> PropertyReport:
    """|(1/|G|) sum_x D(u,w)(x, eta) - u_hat(eta) w_hat(eta)^*| on 20 pairs."""
    cross = 0.0
    for u, w in _pairs(k, 20, np.random.default_rng(SEED)):
        D = cohen_transform(k, u, w)
        for b, ub, wb in zip(D.blocks, fourier(u).blocks, fourier(w).blocks):
            cross = max(cross, np.abs(b.mean(axis=0) - ub @ wb.conj().T).max())
    return replace(properties.check_frequency_margins(k, verify=False), cross_check=cross)


def check_unitary_serial(k: CohenKernel) -> PropertyReport:
    """The Moyal identity <D(u,v), D(f,h)> = <u,f> <v,h>^* on 20 quadruples."""
    rng = np.random.default_rng(SEED)
    cross = 0.0
    for _ in range(20):
        (u, v), (f, h) = _pairs(k, 2, rng)
        lhs = tf_inner(cohen_transform(k, u, v), cohen_transform(k, f, h))
        cross = max(cross, abs(lhs - haar_inner(u, f) * np.conj(haar_inner(v, h))))
    return replace(properties.check_unitary(k, verify=False), cross_check=cross)


def _origin_values_serial(k, count):
    """D[u](e, eps) = <u, delta^D u> on `count` serial draws u."""
    rng = np.random.default_rng(SEED)
    loc = original_localization(k)
    return [haar_inner(u, loc.apply(u)) for u in (random_signal(k.group, rng) for _ in range(count))]


def check_symmetric_serial(k: CohenKernel) -> PropertyReport:
    cross = max(abs(val.imag) for val in _origin_values_serial(k, 50))
    return replace(properties.check_symmetric(k, verify=False), cross_check=cross)


def check_positive_serial(k: CohenKernel) -> PropertyReport:
    cross = max(abs(val.imag) + max(0.0, -val.real) for val in _origin_values_serial(k, 50))
    return replace(properties.check_positive(k, verify=False), cross_check=cross)


def check_inner_invariant_serial(k: CohenKernel) -> PropertyReport:
    """|D[u o c_z](e, eps) - D[u](e, eps)| for every inner automorphism c_z,
    on 20 signals, one conjugate signal at a time."""
    g = k.group
    rng = np.random.default_rng(SEED)
    loc = original_localization(k)
    cross = 0.0
    for _ in range(20):
        u = random_signal(g, rng)
        base = haar_inner(u, loc.apply(u))
        for z in range(g.order):
            uz = Signal(g, u.values[g.cayley[g.cayley[z], g.inverse[z]]])  # u(z y z^{-1})
            cross = max(cross, abs(haar_inner(uz, loc.apply(uz)) - base))
    return replace(properties.check_inner_invariant(k, verify=False), cross_check=cross)


def check_onb_resolution_basis_sum(k: CohenKernel) -> PropertyReport:
    """The Kohn-Nirenberg quantization of sum_alpha D[v_alpha] against the
    identity, summed over the basis sqrt(d_k) eta_k(.)[a, b]."""
    g, dual = k.group, k.dual
    acc = [0] * len(dual.runs)
    for row in np.sqrt(np.repeat(dual.dims, dual.dims ** 2))[:, None] * dual.table:
        v = Signal(g, row)
        acc = [a + b for a, b in zip(acc, cohen_transform(k, v, v).runs)]
    B = kn_operator(TFFunction(g, dual, acc))
    mv = float(np.abs(B.kernel - identity_operator(g).kernel).max())
    return PropertyReport("onb-resolution", mv <= ONB_TOL, mv, tolerance=ONB_TOL)


SERIAL_CHECKS = {
    "normalized": check_normalized_serial,
    "time-margins": check_time_margins_serial,
    "freq-margins": check_frequency_margins_serial,
    "symmetric": check_symmetric_serial,
    "positive": check_positive_serial,
    "unitary": check_unitary_serial,
    "inner": check_inner_invariant_serial,
    "l2-bound": check_l2_bound_serial,
    "onb-resolution": check_onb_resolution_basis_sum,
}


def q_z_distribution_dense(u: ZSignal, M: int, t_start: int | None = None, t_count: int | None = None,
                           axis_fix: bool = True) -> ZTFGrid:
    """Reference for `limits.q_z_distribution`: the sum over lags as a dense
    (2L - 2) x M table of phases e^{-i 2 pi y k / M}, one column of lag sums
    per lag, and one matrix product."""
    if t_start is None:
        t_start = u.offset
    if t_count is None:
        t_count = len(u)
    lags = list(lag_rows_roll(u, t_start, t_count))
    ys = np.array([y for y, _ in lags], dtype=int)
    h = np.array([row for _, row in lags], dtype=complex).reshape(len(lags), t_count).T
    vals = (h @ np.exp(-2j * np.pi * np.outer(ys, np.arange(M)) / M)).T
    if axis_fix:
        vals += (np.abs([u.at(t) for t in range(t_start, t_start + t_count)]) ** 2)[None, :]
    return ZTFGrid(t_start, M, vals)


def sampled_z_kernel_loop(N: int) -> CohenKernel:
    """Reference for `limits.sampled_z_kernel`: the time-lag table entry by
    entry, N times the sum of varphi_DZ over the lifts of each residue pair."""
    group, dual = build_cyclic(N)
    rep = ((np.arange(N) + N // 2) % N) - N // 2
    lag = np.zeros((N, N))
    for iy, ry in enumerate(rep):
        lifts_y = [(int(ry), 1.0)]
        if N % 2 == 0 and ry == -(N // 2):
            lifts_y = [(-(N // 2), 0.5), (N // 2, 0.5)]
        for ix, rx in enumerate(rep):
            lifts_x = [int(rx)]
            if N % 2 == 0 and rx == -(N // 2):
                lifts_x.append(N // 2)
            lag[ix, iy] = N * sum(
                wy * varphi_DZ(x, y) for y, wy in lifts_y for x in lifts_x
            )
    lag[0, 0] += N
    phi = timelag_to_ambiguity(TimeLagKernel(group, lag.astype(complex)), dual)
    return CohenKernel(f"sampled-z:{N}", phi)


def lag_rows_roll(u: ZSignal, t_start: int, t_count: int):
    """Reference for the nonperiodic lag sums of `limits.q_z_distribution`: per lag y != 0,
    from -(L - 1) to L - 1, the products u(t) u(t-y)^* rolled, multiplied and cumulatively
    summed over the whole padded line, and each window's sum divided by |y|."""
    L = len(u)
    lo = min(t_start, u.offset) - 2 * L
    hi = max(t_start + t_count, u.offset + L) + 2 * L
    full = np.zeros(hi - lo, dtype=complex)
    full[u.offset - lo : u.offset - lo + L] = u.values
    xs = np.arange(t_start, t_start + t_count) - lo
    for y in (*range(-(L - 1), 0), *range(1, L)):
        c = np.concatenate([[0.0], np.cumsum(full * np.conj(np.roll(full, y)))])
        m = abs(y)
        a = xs if y > 0 else xs - m
        yield y, (c[a + m] - c[a]) / m


def lag_table_phi(Q: TFFunction, k: CohenKernel) -> np.ndarray:
    """K[x, y] = sum over xi with phi(xi, y) != 0 of chi_xi(x) FQ(xi, y) / phi(xi, y),
    phi the Born-Jordan kernel k: the lag products u(x) u(x-y)^* up to a
    function of x mod gcd(y, N) that sums to zero over the residues."""
    require_same_dual(k.dual, Q.dual, "kernel and distribution")
    phi = k.phi.scalar_table()
    FQ = symplectic_fourier(Q).scalar_table()  # [xi, y]
    H = np.divide(FQ, phi, out=np.zeros_like(FQ), where=phi != 0)
    return groups.group_inverse_fourier(Q.dual, [H[:, :, None, None]])


def phase_retrieve_loop(Q: TFFunction, k: CohenKernel, tol_zero: float) -> Signal:
    """Reference for `reconstruct.phase_retrieve`: the recursion out from the
    pivot on the lag table of `lag_table_phi`, with each lag's known sum
    gathered through an index array of its residues and reduced on its own."""
    group = Q.group
    N = group.order
    mags2 = magnitudes_from_margins(Q)
    mag = np.sqrt(np.where(mags2 < tol_zero, 0.0, mags2))
    if not mag.any():
        return Signal(group, np.zeros(N))

    # v[t] = u(z + t) and K[t, y] = K(z + t, y), z the pivot
    z = int(mag.argmax())
    mag = np.roll(mag, -z)
    K = np.roll(lag_table_phi(Q, k), -z, axis=0)
    v = np.zeros(N, dtype=complex)
    v[0] = mag[0]

    def assign(t, product):  # v[t] from v[t] v[0]^* = product, v[0] real
        a = abs(product)
        v[t] = mag[t] * (product / a) if a > 0 else mag[t]

    for j in range(1, N // 2 + 1):
        g = math.gcd(j, N)
        t = np.arange(1, j)
        t = t[t % g != 0]
        # v[t] v[t-j]^* - K[t, j] at t = 0 mod g, from its zero sum over the residues
        d = -(g / j) * np.sum(v[t] * np.conj(v[t - j]) - K[t, j])
        assign(j, K[j, j] + d)  # v[j] v[0]^*
        if 2 * j < N:
            assign(-j, np.conj(K[0, j] + d))  # (v[0] v[-j]^*)^*
    return Signal(group, np.roll(v, z))


def read_table_row_loop(path, index: np.ndarray) -> np.ndarray:
    """Reference for `signalio._read_table`: the table read one line at a
    time, each line matched, split and converted with float() on its own.

    Same grammar, same values and the same error for the first offending
    line as the library reader.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not any(line.strip() for line in lines):
        raise CsvFormatError(f"{path}: empty file, expected {len(index)} rows")
    width = index.shape[1]
    row = re.compile(",".join([f"(?:{INDEX_FIELD.pattern})"] * width + [f"(?:{VALUE_FIELD.pattern})"] * 2))
    keys, vals, line_of = [], [], []
    lineno, error = 0, None
    try:
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            parts = line.split(",")
            strict = row.fullmatch(line)
            if not strict and len(parts) != width + 2:
                raise CsvFormatError(f"{path}: line {lineno}: {len(parts)} fields, expected {width + 2}")
            if not strict and not all(map(VALUE_FIELD.fullmatch, parts[-2:])):
                raise CsvFormatError(f"{path}: line {lineno}: malformed number")
            real, imag = float(parts[-2]), float(parts[-1])
            if not (math.isfinite(real) and math.isfinite(imag)):
                raise CsvFormatError(f"{path}: line {lineno}: non-finite value")
            if not strict:
                raise CsvFormatError(f"{path}: line {lineno}: index {','.join(parts[:-2])} is not an integer")
            keys.append(tuple(map(int, parts[:-2])))
            vals += (real, imag)
            line_of.append(lineno)
    except CsvFormatError as e:
        error = e

    box = index.max(axis=0) + 1
    slot = np.full(box, -1)
    slot[tuple(index.T)] = np.arange(len(index))
    key = np.array(keys).reshape(len(keys), width)
    inside = ((key >= 0) & (key < box)).all(axis=1)
    pos = np.full(len(keys), -1)
    pos[inside] = slot[tuple(key[inside].astype(np.intp).T)]
    _, first, inverse = np.unique(pos, return_index=True, return_inverse=True)
    first = first[inverse]
    bad = np.flatnonzero((pos < 0) | (first != np.arange(len(pos))))
    if bad.size:
        j = bad[0]
        where = f"{path}: line {line_of[j]}: index {keys[j]}"
        if pos[j] < 0:
            raise CsvFormatError(f"{where} out of range")
        raise CsvFormatError(f"{where} repeats line {line_of[first[j]]}")
    if error is not None:
        raise error
    missing = len(index) - len(keys)
    if missing:
        filled = np.zeros(len(index), dtype=bool)
        filled[pos] = True
        raise CsvFormatError(
            f"{path}: line {lineno}: {missing} of {len(index)} rows missing, "
            f"the first for index {tuple(index[np.argmin(filled)].tolist())}"
        )
    out = np.empty(len(index), dtype=complex)
    out[pos] = np.array(vals).view(complex)
    return out


# ---------------------------------------------------------------------------
# Groups built, loaded and validated one irrep and one line at a time
# ---------------------------------------------------------------------------


def stack_irreps(irreps, trivial_index: int = 0, cyclic_factors=None) -> UnitaryDual:
    """The dual whose table stacks the given Irreps in order: rows (k, a, b),
    the entries of eta_k(x)[a, b], columns x."""
    n = len(irreps[0].matrices)
    table = np.concatenate([eta.matrices.reshape(n, -1).T for eta in irreps])
    return UnitaryDual(table, [eta.dim for eta in irreps], trivial_index, cyclic_factors)


def star(eta: Irrep) -> np.ndarray:
    """eta(x)^* per element."""
    return eta.matrices.conj().transpose(0, 2, 1)


def characters(eta: Irrep) -> np.ndarray:
    """tr eta(x) per element."""
    return np.trace(eta.matrices, axis1=1, axis2=2)


def build_cyclic_per_irrep(N: int):
    """Reference for `build_cyclic`: one Irrep per character, then stacked."""
    idx = np.arange(N)
    cayley = (idx[:, None] + idx[None, :]) % N
    inverse = (-idx) % N
    phases = np.exp(2j * np.pi * idx / N)[np.outer(idx, idx) % N]
    dual = stack_irreps([Irrep(1, phases[k].reshape(N, 1, 1)) for k in range(N)], cyclic_factors=(N,))
    group = FiniteGroup(N, cayley, 0, inverse, dual, name=f"cyclic:{N}")
    dual.group = group
    return group, dual


def build_dihedral_per_irrep(n: int):
    """Reference for `build_dihedral`: one Irrep per representation, then stacked."""
    order = 2 * n
    cayley = np.zeros((order, order), dtype=np.intp)
    i = np.arange(n)
    cayley[:n, :n] = (i[:, None] + i[None, :]) % n
    cayley[:n, n:] = n + (i[None, :] - i[:, None]) % n
    cayley[n:, :n] = n + (i[:, None] + i[None, :]) % n
    cayley[n:, n:] = (i[None, :] - i[:, None]) % n
    inverse = np.concatenate([(-i) % n, n + i])

    irreps = []
    ones = np.ones(n)
    alt = (-1.0) ** i
    one_dim_tables = [np.concatenate([ones, ones]), np.concatenate([ones, -ones])]
    if n % 2 == 0:
        one_dim_tables += [np.concatenate([alt, alt]), np.concatenate([alt, -alt])]
    for tab in one_dim_tables:
        irreps.append(Irrep(1, tab.astype(complex).reshape(order, 1, 1)))
    roots = np.exp(2j * np.pi * i / n)
    n_two = (n - 1) // 2 if n % 2 == 1 else n // 2 - 1
    for h in range(1, n_two + 1):
        mats = np.zeros((order, 2, 2), dtype=complex)
        w = roots[(h * i) % n]
        mats[:n, 0, 0] = w
        mats[:n, 1, 1] = w.conj()
        mats[n:, 0, 1] = w.conj()
        mats[n:, 1, 0] = w
        irreps.append(Irrep(2, mats))
    dual = stack_irreps(irreps)
    group = FiniteGroup(order, cayley, 0, inverse, dual, name=f"dihedral:{n}")
    dual.group = group
    return group, dual


def build_product_per_irrep(a, b):
    """Reference for `build_product`: one Irrep per Kronecker product, then stacked."""
    ga, da = a
    gb, db = b
    na, nb = ga.order, gb.order
    order = na * nb
    ia = np.arange(order) // nb
    ib = np.arange(order) % nb
    cayley = ga.cayley[np.ix_(ia, ia)] * nb + gb.cayley[np.ix_(ib, ib)]
    inverse = ga.inverse[ia] * nb + gb.inverse[ib]
    identity = ga.identity * nb + gb.identity
    kron = {}
    for (fa, _, _, _), A in zip(da.runs, representation_runs(da)):
        for (fb, _, _, _), B in zip(db.runs, representation_runs(db)):
            d = A.shape[-1] * B.shape[-1]
            prod = np.einsum("jxab,kxcd->jkxacbd", A[:, ia], B[:, ib], order="C")
            prod = prod.reshape(len(A), len(B), order, d, d)
            kron.update(((fa + j, fb + k), m) for j, row in enumerate(prod) for k, m in enumerate(row))
    irreps = [Irrep(xi.dim * eta.dim, kron[ka, kb])
              for ka, xi in enumerate(da.irreps) for kb, eta in enumerate(db.irreps)]
    factors = (da.cyclic_factors + db.cyclic_factors
               if da.cyclic_factors is not None and db.cyclic_factors is not None else None)
    dual = stack_irreps(irreps, da.trivial_index * len(db.irreps) + db.trivial_index, factors)
    group = FiniteGroup(order, cayley, int(identity), inverse, dual, name=f"product:{ga.name}x{gb.name}")
    dual.group = group
    return group, dual


def validate_per_irrep(group: FiniteGroup, dual: UnitaryDual) -> list[str]:
    """Reference for `groups.validate`: every check irrep by irrep, the
    associativity check on two whole |G|^3 index arrays."""
    errs = []
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
    bad = np.argwhere(c[c, :] != c[:, c])
    if bad.size:
        x, y, z = bad[0]
        errs.append(f"associativity fails at ({x},{y},{z}) and {len(bad) - 1} more triples")
    for k, eta in enumerate(dual.irreps):
        m = eta.matrices
        if m.shape != (n, eta.dim, eta.dim):
            errs.append(f"irrep {k}: matrix table shape {m.shape} invalid")
            continue
        uerr = np.abs(m @ star(eta) - np.eye(eta.dim)).max()
        if uerr > groups.ALG_TOL:
            worst = int(np.abs(m @ star(eta) - np.eye(eta.dim)).reshape(n, -1).max(1).argmax())
            errs.append(f"irrep {k}: non-unitary at element {worst} (err {uerr:.3g})")
        herr = np.abs(m[c.reshape(-1)].reshape(n, n, eta.dim, eta.dim)
                      - np.einsum("xab,ybc->xyac", m, m)).max()
        if herr > groups.ALG_TOL:
            errs.append(f"irrep {k}: homomorphism violated (err {herr:.3g})")
        if np.abs(m[e] - np.eye(eta.dim)).max() > groups.ALG_TOL:
            errs.append(f"irrep {k}: eta(e) != I")
        irr = abs(np.mean(np.abs(characters(eta)) ** 2) - 1.0)
        if irr > groups.STAT_TOL:
            errs.append(f"irrep {k}: not irreducible (character norm err {irr:.3g})")
    if int(np.sum(dual.dims**2)) != n:
        errs.append(f"Peter-Weyl completeness fails: sum d^2 = {int(np.sum(dual.dims ** 2))} != {n}")
    chars = np.stack([characters(eta) for eta in dual.irreps])
    gram = chars @ chars.conj().T / n
    off = gram - np.diag(np.diag(gram))
    pairs = np.argwhere(np.abs(off) > groups.STAT_TOL)
    for j, k in pairs[pairs[:, 0] < pairs[:, 1]]:
        errs.append(f"irreps {j} and {k} are equivalent (character overlap)")
    t = dual.trivial_index
    if not (dual.irreps[t].dim == 1 and np.abs(dual.irreps[t].matrices - 1).max() <= groups.ALG_TOL):
        errs.append(f"trivial_index {t} does not point at the all-ones irrep")
    return errs


def load_group_file_line_loop(path):
    """Reference for `load_group_file`: the file read one line at a time,
    each field matched against `INDEX_FIELD` or `VALUE_FIELD` and converted
    with int() or float() on its own, each irrep allocated from its `dim`
    line, then `validate_per_irrep`.
    Files whose sizes the library refuses up front may exhaust memory here."""
    lines = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                lines.append((lineno, line))
    pos = 0

    def next_line(what):
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1][0] if lines else 0
            raise GroupTableError(f"line {last}: unexpected end of file, expected {what}")
        pos += 1
        return lines[pos - 1]

    def keyword(key):
        lineno, line = next_line(f"'{key} <value>'")
        parts = line.split()
        if len(parts) != 2 or parts[0] != key:
            raise GroupTableError(f"line {lineno}: expected '{key} <value>', got {line!r}")
        if not INDEX_FIELD.fullmatch(parts[1]):
            raise GroupTableError(f"line {lineno}: {key} value {parts[1]!r} is not an integer")
        return int(parts[1])

    order = keyword("group")
    if order < 1:
        raise GroupTableError("group order must be positive")
    identity = keyword("identity")
    rows = []
    for r in range(order):
        lineno, line = next_line(f"Cayley table row {r}")
        parts = line.split()
        if len(parts) != order:
            raise GroupTableError(f"line {lineno}: Cayley row {r} has {len(parts)} entries, expected {order}")
        if not all(INDEX_FIELD.fullmatch(p) for p in parts):
            raise GroupTableError(f"line {lineno}: non-integer entry in Cayley row {r}")
        rows.append([int(p) for p in parts])
    if not all(0 <= v < order for row in rows for v in row):
        raise GroupTableError("Cayley table entry out of range")
    cayley = np.array(rows, dtype=np.intp)
    n_irreps = keyword("irreps")
    irreps = []
    for k in range(n_irreps):
        d = keyword("dim")
        if d < 1:
            raise GroupTableError(f"irrep {k}: dimension must be positive")
        mats = np.zeros((order, d, d), dtype=complex)
        for x in range(order):
            for row in range(d):
                lineno, line = next_line(f"irrep {k}, element {x}, row {row}")
                parts = line.split()
                if len(parts) != 2 * d:
                    raise GroupTableError(
                        f"line {lineno}: expected {d} 're im' pairs, got {len(parts)} numbers")
                if not all(VALUE_FIELD.fullmatch(p) for p in parts):
                    raise GroupTableError(f"line {lineno}: malformed number")
                vals = [float(p) for p in parts]
                mats[x, row] = np.array(vals).view(complex)
        irreps.append(Irrep(d, mats))
    if pos != len(lines):
        raise GroupTableError(f"line {lines[pos][0]}: trailing content after last irrep")
    trivial = next((k for k, eta in enumerate(irreps)
                    if eta.dim == 1 and np.abs(eta.matrices - 1).max() <= groups.ALG_TOL), -1)
    if trivial < 0:
        raise GroupTableError("dual contains no trivial (all-ones) irrep")
    try:
        inverse = np.array([int(np.nonzero(cayley[x] == identity)[0][0]) for x in range(order)])
    except IndexError:
        raise GroupTableError("some element has no inverse under the claimed identity")
    dual = stack_irreps(irreps, trivial)
    group = FiniteGroup(order, cayley, identity, inverse, dual, name=f"file:{path}")
    dual.group = group
    errs = validate_per_irrep(group, dual)
    if errs:
        raise GroupTableError("invalid group table:\n  " + "\n  ".join(errs))
    return group, dual
