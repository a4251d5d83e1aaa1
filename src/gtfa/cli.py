"""Command-line interface wiring the modules into reproducible pipelines.

Exit codes: 0 success, 1 a required property fails, 2 configuration/usage
error, 3 numeric error (singular kernel, invalid distribution table).

Group specs:   cyclic:N | dihedral:n | product:<spec>x<spec> | file:<path>
Kernel specs:  kn | anti-kn | born-jordan | wigner-odd | margin-fix
               | spectrogram:<windowfile> | commutator:<f-file>:<g-file>

GTFA_THREADS sizes the thread pool of `figures` (0 or unset = automatic);
it does not limit BLAS or any other parallelism.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import signalio
from .groups import (FiniteGroup, GroupTableError, build_cyclic, build_dihedral, build_product,
                     is_cyclic, load_group_file, plancherel_trace)
from .harmonic import Signal
from .limits import q_z_distribution
from .properties import CHECKS, run_all_checks, report_csv, report_lines
from .quantization import SingularKernel, dequantize, quantize
from .reconstruct import MarginNegative, born_jordan_distribution, island_count, phase_retrieve
from .signalio import ImageSpec, render_pgm
from .tfplane import TFFunction, tf_norm
from .transforms import (
    CohenKernel,
    anti_kn_kernel,
    born_jordan_cyclic_kernel,
    cohen_transform,
    commutator_kernel,
    gaussian_window,
    kn_kernel,
    margin_fix_kernel,
    spectrogram_kernel,
    stft,
    wigner_kernel_odd_cyclic,
)

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


def worker_count() -> int:
    """Size of the `figures` thread pool from GTFA_THREADS (0 or unset picks
    automatically)."""
    raw = os.environ.get("GTFA_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"GTFA_THREADS={raw!r} is not an integer")
    if n < 0:
        raise ConfigError("GTFA_THREADS must be >= 0")
    return n if n > 0 else min(4, os.cpu_count() or 1)


def parse_group(spec: str) -> FiniteGroup:
    if spec.startswith("cyclic:"):
        try:
            return build_cyclic(int(spec[7:]))[0]
        except ValueError as e:
            raise ConfigError(f"bad group spec {spec!r}: {e}")
    if spec.startswith("dihedral:"):
        try:
            return build_dihedral(int(spec[9:]))[0]
        except ValueError as e:
            raise ConfigError(f"bad group spec {spec!r}: {e}")
    if spec.startswith("product:"):
        body = spec[8:]
        # split at an 'x' where both halves parse as group specs
        for i, ch in enumerate(body):
            if ch != "x":
                continue
            left, right = body[:i], body[i + 1 :]
            try:
                ga = parse_group(left)
                gb = parse_group(right)
            except ConfigError:
                continue
            return build_product((ga, ga.dual), (gb, gb.dual))[0]
        raise ConfigError(f"bad product spec {spec!r}")
    if spec.startswith("file:"):
        path = spec[5:]
        try:
            return load_group_file(path)[0]
        except FileNotFoundError:
            raise ConfigError(f"group file not found: {path}")
        except GroupTableError as e:
            raise ConfigError(str(e))
    raise ConfigError(f"unknown group spec {spec!r}")


def parse_kernel(spec: str, group: FiniteGroup) -> CohenKernel:
    if spec == "kn":
        return kn_kernel(group.dual)
    if spec == "anti-kn":
        return anti_kn_kernel(group.dual)
    if spec == "margin-fix":
        return margin_fix_kernel(group.dual)
    if spec == "born-jordan":
        if not is_cyclic(group):
            raise ConfigError("born-jordan kernel needs a cyclic group")
        return born_jordan_cyclic_kernel(group.order)
    if spec == "wigner-odd":
        if not is_cyclic(group) or group.order % 2 == 0:
            raise ConfigError("wigner-odd kernel needs an odd-order cyclic group")
        return wigner_kernel_odd_cyclic(group.order)
    if spec.startswith("spectrogram:"):
        w = _read_signal(spec[len("spectrogram:"):], group)
        return spectrogram_kernel(w)
    if spec.startswith("commutator:"):
        rest = spec[len("commutator:"):]
        if ":" not in rest:
            raise ConfigError("commutator kernel spec is commutator:<f-file>:<g-file>")
        f_path, g_path = rest.split(":", 1)
        try:
            return commutator_kernel(_read_signal(f_path, group), _read_signal(g_path, group))
        except ValueError as e:
            raise ConfigError(str(e))
    raise ConfigError(f"unknown kernel spec {spec!r}")


def _read_signal(path, group) -> Signal:
    try:
        return signalio.read_csv_signal(path, group)
    except FileNotFoundError:
        raise ConfigError(f"signal file not found: {path}")
    except signalio.CsvFormatError as e:
        raise ConfigError(str(e))


def _tf_to_matrix(a: TFFunction) -> np.ndarray:
    """Real picture matrix: rows are frequencies (low at top), columns time.

    Entry (k, x) is Re(d_eta tr a(x, eta_k)); for scalar duals just Re a.
    """
    return plancherel_trace(a.dual, a.blocks).real


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_transform(args) -> int:
    group = parse_group(args.group)
    kernel = parse_kernel(args.kernel, group)
    u = _read_signal(args.infile, group)
    v = _read_signal(args.second, group) if args.second else u
    D = cohen_transform(kernel, u, v)
    signalio.write_tf_csv(args.out, D)
    if args.pgm:
        mode = {"midgrey": "midgrey-zero", "white": "white-zero"}[args.pgm]
        mat = _tf_to_matrix(D)
        spec = ImageSpec(mode, mat.shape[1], mat.shape[0], gamma=args.gamma)
        render_pgm(mat, spec, args.pgm_out or _with_suffix(args.out, ".pgm"))
    return EXIT_OK


def _with_suffix(path, suffix):
    root, _ = os.path.splitext(path)
    return root + suffix


def cmd_verify(args) -> int:
    group = parse_group(args.group)
    kernel = parse_kernel(args.kernel, group)
    reports = run_all_checks(kernel, verify=not args.no_cross)
    print(report_lines(reports))
    if args.csv:
        signalio.atomic_write(args.csv, report_csv(reports).encode())
    if args.require:
        wanted = [r.strip() for r in args.require.split(",") if r.strip()]
        unknown = [w for w in wanted if w not in CHECKS]
        if unknown:
            raise ConfigError(f"unknown properties in --require: {', '.join(unknown)}")
        by_name = {r.name: r for r in reports}
        failed = [w for w in wanted if not by_name[w].holds]
        if failed:
            print(f"required properties failed: {', '.join(failed)}", file=sys.stderr)
            return EXIT_PROPERTY
    return EXIT_OK


def cmd_quantize(args) -> int:
    group = parse_group(args.group)
    kernel = parse_kernel(args.kernel, group)
    try:
        a = signalio.read_tf_csv(args.symbol, group)
    except FileNotFoundError:
        raise ConfigError(f"symbol file not found: {args.symbol}")
    except signalio.CsvFormatError as e:
        raise ConfigError(str(e))
    B = quantize(kernel, a)
    signalio.write_operator_csv(args.out, B)
    return EXIT_OK


def cmd_dequantize(args) -> int:
    group = parse_group(args.group)
    kernel = parse_kernel(args.kernel, group)
    try:
        B = signalio.read_operator_csv(args.operator, group)
    except FileNotFoundError:
        raise ConfigError(f"operator file not found: {args.operator}")
    except signalio.CsvFormatError as e:
        raise ConfigError(str(e))
    b = dequantize(kernel, B)  # SingularKernel -> exit 3 in main()
    signalio.write_tf_csv(args.out, b)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    group = parse_group(args.group)
    if not is_cyclic(group):
        raise ConfigError("reconstruct works on cyclic groups")
    try:
        Q = signalio.read_tf_csv(args.infile, group)
    except FileNotFoundError:
        raise ConfigError(f"distribution file not found: {args.infile}")
    except signalio.CsvFormatError as e:
        raise ConfigError(str(e))
    rec = phase_retrieve(Q, tol_zero=args.tol_zero)
    signalio.write_csv_signal(args.out, rec)
    Qrec = born_jordan_distribution(rec)
    resid = tf_norm(TFFunction(Q.group, Q.dual,
                               [a - b for a, b in zip(Qrec.blocks, Q.blocks)]))
    mask = np.abs(rec.values) > 0
    pivot = float(np.abs(rec.values).max(initial=0.0))
    report = (
        f"order {group.order}\n"
        f"distribution_residual {resid:.17g}\n"
        f"islands {island_count(mask)}\n"
        f"pivot_magnitude {pivot:.17g}\n"
        f"all_zero {int(not mask.any())}\n"
    )
    if args.report:
        signalio.atomic_write(args.report, report.encode())
    else:
        print(report, end="")
    return EXIT_OK


def cmd_figures(args) -> int:
    """Desk-scale reproduction of the distribution-picture pipeline.

    From a mono 16-bit WAV, emit the waveform CSV, the nonperiodic
    Born-Jordan distribution (midgrey PGM), the periodized cyclic
    Born-Jordan distribution (midgrey PGM), and a Gaussian-window
    spectrogram (white PGM).
    """
    try:
        u = signalio.read_wav_mono16(args.wav)
    except FileNotFoundError:
        raise ConfigError(f"WAV file not found: {args.wav}")
    except (signalio.UnsupportedFormat, signalio.TruncatedFile) as e:
        raise ConfigError(str(e))
    N = len(u)
    os.makedirs(args.outdir, exist_ok=True)
    out = lambda name: os.path.join(args.outdir, name)

    signalio.write_csv_matrix(
        out("waveform.csv"),
        [[i, s.real, s.imag] for i, s in enumerate(u.values)],
    )

    per = signalio.periodize(u, N)
    sigma = args.sigma if args.sigma else N / 16.0
    if sigma <= 0:
        raise ConfigError("--sigma must be positive")
    w = gaussian_window(per.group, sigma)

    def make_qz():
        grid = q_z_distribution(u, N, axis_fix=args.axis_fix)
        if args.grid_csv:
            signalio.write_grid_csv(out("born_jordan_z.csv"), grid)
        return grid.real_grid()

    def make_qcyclic():
        D = cohen_transform(born_jordan_cyclic_kernel(N), per, per)
        return _tf_to_matrix(D)

    def make_spec():
        G = stft(w, per)
        return np.abs(np.stack([b[:, 0, 0] for b in G.blocks])) ** 2

    with ThreadPoolExecutor(max_workers=min(3, worker_count())) as pool:
        fq, fc, fs = pool.submit(make_qz), pool.submit(make_qcyclic), pool.submit(make_spec)
        qz, qc, sp = fq.result(), fc.result(), fs.result()

    gamma = args.gamma
    render_pgm(qz, ImageSpec("midgrey-zero", N, N, gamma), out("born_jordan_z.pgm"))
    render_pgm(qc, ImageSpec("midgrey-zero", N, N, gamma), out("born_jordan_cyclic.pgm"))
    render_pgm(sp, ImageSpec("white-zero", N, N, gamma), out("spectrogram.pgm"))
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gtfa", description="Time-frequency analysis on finite groups"
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_gk(sp):
        sp.add_argument("--group", required=True, help="cyclic:N | dihedral:n | product:<a>x<b> | file:<path>")
        sp.add_argument("--kernel", required=True,
                        help="kn | anti-kn | born-jordan | wigner-odd | margin-fix | "
                             "spectrogram:<windowfile> | commutator:<f-file>:<g-file>")

    t = sub.add_parser("transform", help="compute a time-frequency distribution")
    add_gk(t)
    t.add_argument("--in", dest="infile", required=True, help="input signal CSV (index,re,im)")
    t.add_argument("--second", help="second signal CSV for D(u,v)")
    t.add_argument("--out", required=True, help="output distribution CSV")
    t.add_argument("--pgm", choices=["midgrey", "white"], help="also render a PGM image")
    t.add_argument("--pgm-out", help="PGM output path (default: alongside --out)")
    t.add_argument("--gamma", type=float, default=1.0, help="contrast exponent for PGM")
    t.set_defaults(fn=cmd_transform)

    v = sub.add_parser("verify", help="run the theorem-condition checkers on a kernel")
    add_gk(v)
    v.add_argument("--require", help="comma-separated properties that must hold")
    v.add_argument("--csv", help="also write the report as CSV")
    v.add_argument("--no-cross", action="store_true", help="skip statistical cross-checks")
    v.set_defaults(fn=cmd_verify)

    q = sub.add_parser("quantize", help="symbol -> operator")
    add_gk(q)
    q.add_argument("--symbol", required=True, help="symbol CSV (x,eta_index,row,col,re,im)")
    q.add_argument("--out", required=True, help="operator CSV (x,y,re,im)")
    q.set_defaults(fn=cmd_quantize)

    dq = sub.add_parser("dequantize", help="operator -> symbol (invertible kernels)")
    add_gk(dq)
    dq.add_argument("--operator", required=True, help="operator CSV (x,y,re,im)")
    dq.add_argument("--out", required=True, help="symbol CSV output")
    dq.set_defaults(fn=cmd_dequantize)

    r = sub.add_parser("reconstruct", help="phase retrieval from a Born-Jordan distribution")
    r.add_argument("--group", required=True, help="cyclic:N")
    r.add_argument("--in", dest="infile", required=True, help="distribution CSV")
    r.add_argument("--out", required=True, help="recovered signal CSV")
    r.add_argument("--report", help="write the retrieval report to this file")
    r.add_argument("--tol-zero", type=float, default=1e-9, help="zero-margin threshold")
    r.set_defaults(fn=cmd_reconstruct)

    f = sub.add_parser("figures", help="distribution pictures from a WAV file")
    f.add_argument("--wav", required=True, help="mono 16-bit PCM WAV input")
    f.add_argument("--outdir", required=True, help="output directory")
    f.add_argument("--sigma", type=float, help="Gaussian window width (default N/16)")
    f.add_argument("--gamma", type=float, default=1.0, help="contrast exponent")
    f.add_argument("--axis-fix", dest="axis_fix", action="store_true", default=True,
                   help="add the margin axis term to the nonperiodic distribution (default)")
    f.add_argument("--no-axis-fix", dest="axis_fix", action="store_false")
    f.add_argument("--grid-csv", action="store_true",
                   help="also write the nonperiodic grid as x,theta_index,re,im CSV")
    f.set_defaults(fn=cmd_figures)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code in (0, None) else EXIT_CONFIG
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (SingularKernel, MarginNegative) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
