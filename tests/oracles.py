"""Reference computations that tests compare the library against.

Direct sums of the defining formulas and closed forms, with no Fourier
shortcut, and a row-by-row CSV table reader.  No library code uses them, so
they live beside the tests.
"""

import math
import re
from dataclasses import replace

import numpy as np

from gtfa import properties
from gtfa.groups import require_same_group
from gtfa.harmonic import Signal, fourier, haar_inner, norm, random_signal
from gtfa.properties import EXHAUSTIVE_TOL, ONB_TOL, SEED, PropertyReport
from gtfa.signalio import _INDEX_FIELD, _VALUE_FIELD, CsvFormatError
from gtfa.quantization import (GroupOperator, identity_operator, kn_operator, original_localization,
                               quantize, tf_integral)
from gtfa.tfplane import AmbiguityFunction, TFFunction, tf_inner, tf_norm
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
    for y in range(n):
        wy = u.values * vconj[cay[:, inv[y]]]         # w_y[z]
        Vy = lag[cay[inv, :], y]                      # Vy[z, x] = varphi(z^{-1}x, y)
        P[y] = wy @ Vy
    blocks = [
        np.einsum("yx,yab->xab", P, eta.star) / (n * n) for eta in dual.irreps
    ]
    return TFFunction(group, dual, blocks)


def commutator_kernel_closed_form(f: Signal, g: Signal) -> AmbiguityFunction:
    """Cross-check form phi(xi, y) = i 2 pi f_hat(-xi) (1 - e^{i 2 pi xi y/N}) g(y)^*."""
    group = f.group
    N = group.order
    fhat = np.array([b[0, 0] for b in fourier(f).blocks])
    idx = np.arange(N)
    table = (2j * np.pi) * fhat[(-idx) % N][:, None] \
        * (1.0 - np.exp(2j * np.pi * ((idx[:, None] * idx[None, :]) % N) / N)) \
        * g.values.conj()[None, :]
    return AmbiguityFunction.from_scalar_table(group, group.dual, table)


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
    B = kn_operator(TFFunction.from_runs(g, dual, acc))
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


def read_table_row_loop(path, index: np.ndarray, header=None) -> np.ndarray:
    """Reference for `signalio._read_table`: the table read one line at a
    time, each line matched, split and converted with float() on its own.

    Same grammar, same values and the same error for the first offending
    line as the library reader.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not any(line.strip() for line in lines):
        raise CsvFormatError(f"{path}: empty file, expected {len(index)} rows")
    start = 0
    if header is not None:
        if not lines or lines[0].strip() != header:
            raise CsvFormatError(f"{path}: line 1: expected header {header!r}")
        start = 1
    width = index.shape[1]
    row = re.compile(",".join([f"(?:{_INDEX_FIELD.pattern})"] * width + [f"(?:{_VALUE_FIELD.pattern})"] * 2))
    keys, vals, line_of = [], [], []
    lineno, error = start, None
    try:
        for lineno, line in enumerate(lines[start:], start=start + 1):
            if not line.strip():
                continue
            parts = line.split(",")
            strict = row.fullmatch(line)
            if not strict and len(parts) != width + 2:
                raise CsvFormatError(f"{path}: line {lineno}: {len(parts)} fields, expected {width + 2}")
            if not strict and not all(map(_VALUE_FIELD.fullmatch, parts[-2:])):
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
