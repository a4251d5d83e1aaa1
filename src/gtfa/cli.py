"""Command-line interface wiring the modules into reproducible pipelines.

Exit codes: 0 success, 1 a required property fails, 2 configuration/usage
error or out of memory, 3 numeric error (singular kernel, invalid
distribution table).

Group specs:   cyclic:N | dihedral:n | product:<spec>x<spec> | file:<path>
Kernel specs:  kn | anti-kn | born-jordan | wigner-odd | margin-fix
               | spectrogram:<windowfile> | commutator:<f-file>:<g-file>
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import signalio
from .groups import (INDEX_FIELD, FiniteGroup, GroupTableError, build_cyclic, build_dihedral, build_product,
                     is_cyclic, load_group_file, plancherel_trace, require_same_dual)
from .harmonic import Signal
from .quantization import SingularKernel, dequantize, quantize
from .signalio import ImageSpec, render_pgm
from .tfplane import TFFunction
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

# properties, reconstruct and limits are imported inside the one command that
# uses each, so that a process pays only for its own command.

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


# The errors a reader raises for a faulty file; each message names the file.
_FILE_ERRORS = (GroupTableError, signalio.CsvFormatError, signalio.UnsupportedFormat,
                signalio.TruncatedFile)


def _read(what: str, reader, path, *args):
    """reader(path, *args), with a missing or faulty file as a ConfigError."""
    try:
        return reader(path, *args)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}")
    except _FILE_ERRORS as e:
        raise ConfigError(str(e))


def parse_group(spec: str) -> FiniteGroup:
    for prefix, build in (("cyclic:", build_cyclic), ("dihedral:", build_dihedral)):
        if spec.startswith(prefix):
            n = spec[len(prefix):]
            if not INDEX_FIELD.fullmatch(n):
                raise ConfigError(f"bad group spec {spec!r}: {n!r} is not an integer")
            try:
                return build(int(n))[0]
            except ValueError as e:
                raise ConfigError(f"bad group spec {spec!r}: {e}")
    if spec.startswith("product:"):
        body = spec[8:]
        # split at an 'x' where both halves parse as group specs
        for i in (i for i, ch in enumerate(body) if ch == "x"):
            try:
                ga, gb = parse_group(body[:i]), parse_group(body[i + 1:])
            except ConfigError:
                continue
            return build_product((ga, ga.dual), (gb, gb.dual))[0]
        raise ConfigError(f"bad product spec {spec!r}")
    if spec.startswith("file:"):
        return _read("group", load_group_file, spec[5:])[0]
    raise ConfigError(f"unknown group spec {spec!r}")


def _require_cyclic(group: FiniteGroup, message: str):
    """Refuse a group outside the cyclic labelling, or a group file whose
    dual lists the characters in another order than cyclic:N's."""
    if not is_cyclic(group):
        raise ConfigError(message)
    try:
        require_same_dual(group.dual, build_cyclic(group.order)[1])
    except ValueError:
        raise ConfigError(f"{message}: the group's dual must list the characters "
                          f"in the order of cyclic:{group.order}")


def parse_kernel(spec: str, group: FiniteGroup) -> CohenKernel:
    on_dual = {"kn": kn_kernel, "anti-kn": anti_kn_kernel, "margin-fix": margin_fix_kernel}
    if spec in on_dual:
        return on_dual[spec](group.dual)
    if spec == "born-jordan":
        _require_cyclic(group, "born-jordan kernel needs a cyclic group")
        return born_jordan_cyclic_kernel(group.order)
    if spec == "wigner-odd":
        message = "wigner-odd kernel needs an odd-order cyclic group"
        if group.order % 2 == 0:
            raise ConfigError(message)
        _require_cyclic(group, message)
        return wigner_kernel_odd_cyclic(group.order)
    if spec.startswith("spectrogram:"):
        return spectrogram_kernel(_read_signal(spec[len("spectrogram:"):], group))
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
    return _read("signal", signalio.read_csv_signal, path, group)


def _tf_to_matrix(a: TFFunction) -> np.ndarray:
    """Real picture matrix: rows are frequencies (low at top), columns time.

    Entry (k, x) is Re(d_eta tr a(x, eta_k)); for scalar duals just Re a.
    """
    return plancherel_trace(a.dual, a.runs).real


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _configured(call, *args):
    """call(*args), with a ValueError (a bad image option or picture) as a ConfigError."""
    try:
        return call(*args)
    except ValueError as e:
        raise ConfigError(str(e))


def cmd_transform(args) -> int:
    group = parse_group(args.group)
    kernel = parse_kernel(args.kernel, group)
    if args.pgm:  # the picture has a row per irrep and a column per element
        mode = {"midgrey": "midgrey-zero", "white": "white-zero"}[args.pgm]
        spec = _configured(ImageSpec, mode, args.gamma)
    u = _read_signal(args.infile, group)
    v = _read_signal(args.second, group) if args.second else u
    D = cohen_transform(kernel, u, v)
    signalio.write_tf_csv(args.out, D)
    if args.pgm:
        _configured(render_pgm, _tf_to_matrix(D), spec, args.pgm_out or os.path.splitext(args.out)[0] + ".pgm")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .properties import CHECKS, report_csv, report_lines, run_all_checks

    wanted = [r.strip() for r in (args.require or "").split(",") if r.strip()]
    unknown = [w for w in wanted if w not in CHECKS]
    if unknown:
        raise ConfigError(f"unknown properties in --require: {', '.join(unknown)}")
    group = parse_group(args.group)
    kernel = parse_kernel(args.kernel, group)
    reports = run_all_checks(kernel, verify=not args.no_cross)
    print(report_lines(reports))
    if args.csv:
        signalio.atomic_write(args.csv, (report_csv(reports).encode(),))
    by_name = {r.name: r for r in reports}
    failed = [w for w in wanted if not by_name[w].holds]
    if failed:
        print(f"required properties failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_PROPERTY
    return EXIT_OK


def cmd_quantize(args) -> int:
    group = parse_group(args.group)
    kernel = parse_kernel(args.kernel, group)
    a = _read("symbol", signalio.read_tf_csv, args.symbol, group)
    B = quantize(kernel, a)
    signalio.write_operator_csv(args.out, B)
    return EXIT_OK


def cmd_dequantize(args) -> int:
    group = parse_group(args.group)
    kernel = parse_kernel(args.kernel, group)
    B = _read("operator", signalio.read_operator_csv, args.operator, group)
    b = dequantize(kernel, B)  # SingularKernel -> exit 3 in main()
    signalio.write_tf_csv(args.out, b)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    from .reconstruct import MarginNegative, retrieval_report

    if not 0 <= args.tol_zero < np.inf:
        raise ConfigError("--tol-zero must be finite and >= 0")
    group = parse_group(args.group)
    _require_cyclic(group, "reconstruct works on cyclic groups")
    Q = _read("distribution", signalio.read_tf_csv, args.infile, group)
    try:
        rep = retrieval_report(Q, tol_zero=args.tol_zero)
    except MarginNegative as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    signalio.write_csv_signal(args.out, rep.recovered)
    report = (
        f"order {rep.order}\n"
        f"distribution_residual {rep.distribution_residual:.17g}\n"
        f"islands {rep.islands}\n"
        f"pivot_magnitude {rep.pivot_magnitude:.17g}\n"
        f"all_zero {int(rep.islands == 0)}\n"
    )
    if args.report:
        signalio.atomic_write(args.report, (report.encode(),))
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
    from .limits import q_z_distribution

    u = _read("WAV", signalio.read_wav_mono16, args.wav)
    N = len(u)
    sigma = args.sigma if args.sigma is not None else N / 16.0
    if not sigma > 0:
        raise ConfigError("--sigma must be positive")
    midgrey = _configured(ImageSpec, "midgrey-zero", args.gamma)
    white = _configured(ImageSpec, "white-zero", args.gamma)
    os.makedirs(args.outdir, exist_ok=True)
    out = lambda name: os.path.join(args.outdir, name)

    per = signalio.periodize(u, N)  # u itself: N is its length and it starts at 0
    signalio.write_csv_signal(out("waveform.csv"), per)

    grid = q_z_distribution(u, N, axis_fix=args.axis_fix)
    if args.grid_csv:
        signalio.write_grid_csv(out("born_jordan_z.csv"), grid)
    _configured(render_pgm, grid.real_grid(), midgrey, out("born_jordan_z.pgm"))
    del grid  # one picture's arrays at a time
    _configured(render_pgm, _tf_to_matrix(cohen_transform(born_jordan_cyclic_kernel(N), per, per)), midgrey,
                out("born_jordan_cyclic.pgm"))
    spectrogram = np.abs(stft(gaussian_window(per.group, sigma), per).scalar_table()) ** 2
    _configured(render_pgm, spectrogram, white, out("spectrogram.pgm"))
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
    v.add_argument("--no-cross", action="store_true",
                   help="skip the statistical cross-checks of the kernel-side conditions; "
                        "l2-bound has no kernel-side form, so its sampled transforms "
                        "still run")
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
    except MemoryError as e:  # numpy's message gives the size asked for
        print(f"error: out of memory: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except SingularKernel as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
