"""The four benchmark workloads, their seeded inputs and their output checks.

A workload sets itself up with calls into gtfa (`setup`), then offers rounds
of operations (`round`).  Every operation is a pair (run, check): `run` is the
timed call into the program, `check` verifies its output afterwards against a
computation made apart from the program (numpy.fft, the benchmark's own file
parsers) or against a property the method must have, and raises CheckFailed.

Calls into gtfa go through module attributes (`transforms.cohen_transform`),
so the wrappers that tracer.install() puts there see them.
"""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys
import time

import numpy as np

from gtfa import groups, harmonic, properties, reconstruct, transforms

HERE = os.path.dirname(os.path.abspath(__file__))


class CheckFailed(AssertionError):
    """An operation's output is wrong."""


def _require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def reset_group_caches():
    """Empty the cached group builders, so that set-up builds from scratch."""
    for fn in (groups.build_cyclic, groups.build_dihedral):
        while not hasattr(fn, "cache_clear"):
            fn = fn.__wrapped__
        fn.cache_clear()


def zero_free(rng: np.random.Generator, n: int) -> np.ndarray:
    """A signal of criterion 7's class: complex Gaussian plus a modulus-3 term."""
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return vals + 3.0 * np.exp(1j * rng.uniform(0, 2 * np.pi, n))


def check_margins(table: np.ndarray, u: np.ndarray, uhat: np.ndarray, what: str):
    """Time margins sum_k D(x, eta_k) = |u(x)|^2; frequency margins
    (1/|G|) sum_x D(x, eta_k) = |u_hat(eta_k)|^2, with u_hat computed by numpy.fft."""
    scale = max(1.0, float(np.abs(u).max() ** 2))
    t_err = np.abs(table.sum(axis=0) - np.abs(u) ** 2).max()
    f_err = np.abs(table.mean(axis=1) - np.abs(uhat) ** 2).max()
    _require(t_err <= 1e-9 * scale, f"{what}: time margin off by {t_err:.3g}")
    _require(f_err <= 1e-9 * scale, f"{what}: frequency margin off by {f_err:.3g}")


class Workload:
    name = ""
    in_process = True
    tail = 0.75          # cpu_tail_s is this percentile of CPU time per op
    setup_repeats = 25   # setup_s is the median over this many set-ups
    built: tuple = ()    # attributes that setup() assigns

    def __init__(self, traced: bool = False):
        self.traced = traced

    def min_ops(self) -> int:
        """Ops needed for at least ten samples beyond the tail percentile."""
        return int(np.ceil(10 / (1 - self.tail) - 1e-9))

    def reset(self):
        """Free what the last set-up built and empty the group caches, so
        that set-up builds from scratch and does not hold two copies."""
        for name in self.built:
            self.__dict__.pop(name, None)
        reset_group_caches()

    def prepare(self, rng: np.random.Generator, workdir: str):
        """Make the inputs that the benchmark itself writes (untimed)."""

    def setup(self, rng: np.random.Generator, workdir: str):
        """Build what the ops reuse, by calls into gtfa (timed as setup_s)."""
        raise NotImplementedError

    def round(self, r: int) -> list:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class DenseCyclic(Workload):
    """Distributions at order 512: Born-Jordan on cyclic:512 alternating with
    Kohn-Nirenberg on product:cyclic:16xcyclic:32."""

    name = "dense-cyclic"
    tail = 0.9
    N, NA, NB = 512, 16, 32
    POOL = 8
    built = ("bj", "kn", "inputs")

    def setup(self, rng, workdir):
        g, _ = groups.build_cyclic(self.N)
        self.bj = transforms.born_jordan_cyclic_kernel(self.N)
        gp, dp = groups.build_product(groups.build_cyclic(self.NA), groups.build_cyclic(self.NB))
        self.kn = transforms.kn_kernel(dp)
        self.inputs = []
        for _ in range(self.POOL):
            vals = rng.standard_normal(self.N) + 1j * rng.standard_normal(self.N)
            self.inputs.append((vals, harmonic.Signal(g, vals), harmonic.Signal(gp, vals)))

    def round(self, r):
        vals, u, up = self.inputs[r % self.POOL]
        n = self.N

        def check_bj(D):
            table = D.scalar_table()
            check_margins(table, vals, np.fft.fft(vals) / n, "born-jordan cyclic:512")
            imag = np.abs(table.imag).max()
            _require(imag <= 1e-9 * np.abs(table).max(), f"born-jordan is not real ({imag:.3g})")

        def check_kn(D):
            uhat = np.fft.fft2(vals.reshape(self.NA, self.NB)).ravel() / n
            check_margins(D.scalar_table(), vals, uhat, "kn product:cyclic:16xcyclic:32")

        return [(lambda: transforms.cohen_transform(self.bj, u, u), check_bj),
                (lambda: transforms.cohen_transform(self.kn, up, up), check_kn)]


# ---------------------------------------------------------------------------


# Verdicts the theorems fix for each kernel (the table criterion 4 checks,
# extended by the l2 bound, which always holds, and the ONB resolution, which
# holds for every normalized kernel).  Entries the theory leaves open for a
# given window (spectrogram unitarity and inner invariance) are not checked.
EXPECTED_VERDICTS = {
    "kn": dict(normalized=True, **{"time-margins": True, "freq-margins": True},
               symmetric=False, positive=False, unitary=True, inner=True),
    "anti-kn": dict(normalized=True, **{"time-margins": True, "freq-margins": True},
                    symmetric=False, positive=False, unitary=True, inner=True),
    "margin-fix": dict(normalized=True, **{"time-margins": True, "freq-margins": True},
                       symmetric=True, positive=False, unitary=False, inner=True),
    "spectrogram": dict(normalized=True, positive=True, symmetric=True,
                        **{"time-margins": False, "freq-margins": False}),
}
for _v in EXPECTED_VERDICTS.values():
    _v.update({"l2-bound": True, "onb-resolution": True})


def write_group_file(path: str, group, dual, perm: np.ndarray):
    """Write a group in the Group Table Format, element x relabelled perm[x]."""
    n = group.order
    cayley = np.empty((n, n), dtype=int)
    cayley[perm[:, None], perm[None, :]] = perm[group.cayley]
    lines = [f"group {n}", f"identity {perm[group.identity]}"]
    lines += [" ".join(map(str, row)) for row in cayley]
    lines.append(f"irreps {len(dual.irreps)}")
    for eta in dual.irreps:
        mats = np.empty_like(eta.matrices)
        mats[perm] = eta.matrices
        lines.append(f"dim {eta.dim}")
        for m in mats:
            for row in m:
                lines.append(" ".join(f"{v.real:.17g} {v.imag:.17g}" for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class VerifyNonabelian(Workload):
    """Full verification reports on two non-abelian groups of order 32."""

    name = "verify-nonabelian"
    tail = 0.8
    built = ("kernels",)

    def setup(self, rng, workdir):
        gd, dd = groups.build_dihedral(16)
        ga, da = groups.build_product(groups.build_cyclic(2), groups.build_dihedral(8))
        path = os.path.join(workdir, "c2xd8.group")
        write_group_file(path, ga, da, rng.permutation(ga.order))
        gf, df = groups.load_group_file(path)
        sigma = float(rng.uniform(2.0, 4.0))
        self.kernels = []
        for g, d in ((gd, dd), (gf, df)):
            self.kernels += [transforms.kn_kernel(d), transforms.anti_kn_kernel(d),
                             transforms.margin_fix_kernel(d),
                             transforms.spectrogram_kernel(transforms.gaussian_window(g, sigma))]

    def round(self, r):
        ops = []
        for k in self.kernels:
            want = EXPECTED_VERDICTS[k.name]

            def check(reports, want=want, name=k.name):
                by_name = {rep.name: rep for rep in reports}
                _require(set(by_name) == set(properties.CHECKS), f"{name}: checks missing")
                for prop, holds in want.items():
                    _require(by_name[prop].holds == holds,
                             f"{name}/{prop}: verdict {by_name[prop].holds}, theory says {holds}")
                for rep in reports:
                    if rep.holds and rep.cross_check is not None:
                        _require(rep.cross_check <= properties.STATISTICAL_TOL,
                                 f"{name}/{rep.name}: cross-check residual {rep.cross_check:.3g}")

            ops.append((lambda k=k: properties.run_all_checks(k, verify=True), check))
        return ops


# ---------------------------------------------------------------------------


class RetrievalSweep(Workload):
    """Born-Jordan distribution then phase retrieval, cyclic orders 2..48."""

    name = "retrieval-sweep"
    tail = 0.95
    ORDERS = range(2, 49)
    POOL = 4
    built = ("inputs",)

    def setup(self, rng, workdir):
        self.inputs = {}
        for n in self.ORDERS:
            g, _ = groups.build_cyclic(n)
            self.inputs[n] = [(vals, harmonic.Signal(g, vals))
                              for vals in (zero_free(rng, n) for _ in range(self.POOL))]

    def round(self, r):
        ops = []
        for n in self.ORDERS:
            vals, u = self.inputs[n][r % self.POOL]

            def check(rec, vals=vals, n=n):
                v = rec.values
                ip = np.vdot(v, vals)
                lam = ip / abs(ip) if abs(ip) > 0 else 1.0
                dist = np.linalg.norm(vals - lam * v) / np.sqrt(n)
                _require(dist <= 1e-7, f"cyclic:{n}: class distance {dist:.3g}")

            ops.append((lambda u=u: reconstruct.phase_retrieve(
                reconstruct.born_jordan_distribution(u)), check))
        return ops


# ---------------------------------------------------------------------------


def write_wav(path: str, samples: np.ndarray, rate: int = 8000):
    data = samples.astype("<i2").tobytes()
    hdr = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    hdr += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, 2 * rate, 2, 16)
    hdr += b"data" + struct.pack("<I", len(data))
    with open(path, "wb") as fh:
        fh.write(hdr + data)


def read_pgm(path: str, width: int, height: int) -> np.ndarray:
    """Parse a plain PGM and check its header, dimensions and pixel range."""
    with open(path, encoding="ascii") as fh:
        tokens = fh.read().split()
    _require(tokens[:1] == ["P2"], f"{path}: not a plain PGM")
    w, h, maxval = (int(t) for t in tokens[1:4])
    _require((w, h) == (width, height), f"{path}: {w}x{h}, expected {width}x{height}")
    _require(maxval == 255, f"{path}: maxval {maxval}")
    _require(len(tokens) == 4 + w * h, f"{path}: {len(tokens) - 4} pixels for {w}x{h}")
    pix = np.array(tokens[4:], dtype=int).reshape(h, w)
    _require(pix.min() >= 0 and pix.max() <= 255, f"{path}: pixel out of 0..255")
    return pix


def read_csv(path: str, fields: int) -> np.ndarray:
    table = np.loadtxt(path, delimiter=",", ndmin=2)
    _require(table.shape[1] == fields, f"{path}: {table.shape[1]} fields, expected {fields}")
    return table


def read_tf_table(path: str, n: int) -> np.ndarray:
    """Scalar-dual distribution CSV (x, k, 0, 0, re, im) as a [k, x] table."""
    rows = read_csv(path, 6)
    _require(len(rows) == n * n, f"{path}: {len(rows)} rows, expected {n * n}")
    table = np.zeros((n, n), dtype=complex)
    table[rows[:, 1].astype(int), rows[:, 0].astype(int)] = rows[:, 4] + 1j * rows[:, 5]
    return table


class CliFiles(Workload):
    """A user's chain of `gtfa` processes on files, at prime order 89; one op
    is one process, one round is the chain."""

    name = "cli-files"
    in_process = False
    tail = 0.75
    setup_repeats = 9
    N = 89
    POOL = 4

    def __init__(self, traced: bool = False):
        super().__init__(traced)
        self.spans: list = []     # per traced process: (wall s, spans, cache calls, cache hits)

    def gtfa(self, *argv) -> int:
        """Run one gtfa process; return its exit code."""
        if self.traced:
            spans_path = os.path.join(self.workdir, "spans.json")
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), spans_path, *argv]
        else:
            cmd = [sys.executable, "-m", "gtfa.cli", *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.workdir, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        wall = time.perf_counter() - t0
        if self.traced and proc.returncode == 0:
            with open(spans_path, encoding="utf-8") as fh:
                rec = json.load(fh)
            self.spans.append((wall, rec["spans"], rec["cache_calls"], rec["cache_hits"]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        return proc.returncode

    def prepare(self, rng, workdir):
        """Seeded chirp WAVs and zero-free signal CSVs."""
        self.workdir = workdir
        self.inputs = []
        n = self.N
        t = np.arange(n)
        for i in range(self.POOL):
            f0, f1 = rng.uniform(4, 10), rng.uniform(28, 38)
            phase = 2 * np.pi * (f0 * t + (f1 - f0) * t**2 / (2 * n)) / n
            samples = (0.8 * np.cos(phase) * 32767).astype("<i2")
            wav = f"chirp{i}.wav"
            write_wav(os.path.join(workdir, wav), samples)
            vals = zero_free(rng, n)
            sig = f"u{i}.csv"
            with open(os.path.join(workdir, sig), "w", encoding="utf-8") as fh:
                fh.writelines(f"{x},{v.real:.17g},{v.imag:.17g}\n" for x, v in enumerate(vals))
            self.inputs.append((wav, samples, f0, f1, sig, vals))

    def setup(self, rng, workdir):
        """One cold `gtfa` start."""
        _require(self.gtfa("--help") == 0, "gtfa --help failed")

    def round(self, r):
        """The chain, one op per gtfa process; each op's check reads the
        files that process wrote."""
        wav, samples, f0, f1, sig, vals = self.inputs[r % self.POOL]
        n = self.N
        bj = ("--group", f"cyclic:{n}", "--kernel", "born-jordan")
        out = lambda name: os.path.join(self.workdir, name)

        def exit_ok(code):
            _require(code == 0, f"gtfa exit code {code}")

        def check_figures(code):
            exit_ok(code)
            wave = read_csv(out("figs/waveform.csv"), 3)
            _require(np.array_equal(wave[:, 0], np.arange(n)) and
                     np.array_equal(wave[:, 1], samples / 32768.0), "waveform.csv differs from WAV")
            read_pgm(out("figs/born_jordan_z.pgm"), n, n)
            read_pgm(out("figs/born_jordan_cyclic.pgm"), n, n)
            # criterion 10's property: the ridge follows the instantaneous frequency
            spec = read_pgm(out("figs/spectrogram.pgm"), n, n)
            ridge = spec.argmin(axis=0)
            ridge = np.minimum(ridge, n - ridge)
            expect = f0 + (f1 - f0) * np.arange(n) / n
            mid = slice(3 * n // 16, 13 * n // 16)
            err = np.abs(ridge - expect)[mid].max()
            _require(err <= 1.0, f"spectrogram ridge off by {err:.3g} bins")

        def check_transform(code):
            exit_ok(code)
            a = read_tf_table(out("q.csv"), n)
            check_margins(a, vals, np.fft.fft(vals) / n, "transform born-jordan")
            # midgrey picture of Re D: 127.5 (1 - v / max|v|), rounded
            v = a.real
            pix = read_pgm(out("q.pgm"), n, n)
            want = np.rint(127.5 * (1.0 - v / np.abs(v).max()))
            _require(np.abs(pix - want).max() <= 1, "transform PGM does not match the CSV")

        def check_quantize(code):
            # a real symbol quantized with a symmetric kernel is self-adjoint
            exit_ok(code)
            rows = read_csv(out("op.csv"), 4)
            _require(len(rows) == n * n, f"op.csv: {len(rows)} rows, expected {n * n}")
            K = np.zeros((n, n), dtype=complex)
            K[rows[:, 0].astype(int), rows[:, 1].astype(int)] = rows[:, 2] + 1j * rows[:, 3]
            err = np.abs(K - K.conj().T).max()
            _require(err <= 1e-9 * np.abs(K).max(), f"quantized operator not self-adjoint ({err:.3g})")

        def check_dequantize(code):
            exit_ok(code)
            a = read_tf_table(out("q.csv"), n)
            b = read_tf_table(out("b.csv"), n)
            err = np.abs(b - a).max()
            _require(err <= 1e-9 * np.abs(a).max(),
                     f"dequantize(quantize(a)) differs from a by {err:.3g}")

        return [
            (lambda: self.gtfa("figures", "--wav", wav, "--outdir", "figs"), check_figures),
            (lambda: self.gtfa("transform", *bj, "--in", sig, "--out", "q.csv", "--pgm", "midgrey"),
             check_transform),
            (lambda: self.gtfa("quantize", *bj, "--symbol", "q.csv", "--out", "op.csv"),
             check_quantize),
            (lambda: self.gtfa("dequantize", *bj, "--operator", "op.csv", "--out", "b.csv"),
             check_dequantize),
        ]


WORKLOADS = {cls.name: cls for cls in (CliFiles, DenseCyclic, VerifyNonabelian, RetrievalSweep)}
