"""Per-layer timing of gtfa, measured from outside the program.

`install()` replaces every public function (the names in `__all__`, or every
public function of a module without one) of the gtfa modules listed in
MODULES with a timing wrapper.  The wrapper is stored at every `gtfa.*`
module attribute that refers to the original, and in the `properties.CHECKS`
table, so calls between modules are seen too.  Each call records a span:
name, parent span, start, end, and for file I/O the bytes moved.  Spans stay
in memory until the caller takes them.

Self time is a span's duration minus the time covered by its child spans.
The stack of open spans is one per process, not per thread: the benchmark
sets GTFA_THREADS=1, so the only worker thread gtfa starts (the `figures`
pool) runs while the main thread waits for it.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

MODULES = ("groups", "harmonic", "tfplane", "transforms", "quantization",
           "properties", "reconstruct", "limits", "signalio", "cli")

CSV_WRITERS = ("write_csv_signal", "write_csv_matrix", "write_tf_csv",
               "write_operator_csv", "write_kernel_csv", "write_grid_csv")
CSV_READERS = ("read_csv_signal", "read_tf_csv", "read_operator_csv", "read_kernel_csv")
KERNEL_BUILDERS = ("kn_kernel", "anti_kn_kernel", "margin_fix_kernel",
                   "born_jordan_cyclic_kernel", "commutator_kernel", "spectrogram_kernel",
                   "wigner_kernel_odd_cyclic", "conjugate_kernel", "add_kernels")
# properties.CHECKS key -> checker function
CHECK_FUNCTIONS = {
    "normalized": "check_normalized",
    "time-margins": "check_time_margins",
    "freq-margins": "check_frequency_margins",
    "symmetric": "check_symmetric",
    "positive": "check_positive",
    "unitary": "check_unitary",
    "inner": "check_inner_invariant",
    "l2-bound": "check_l2_bound",
    "onb-resolution": "check_onb_resolution",
}

# Time metrics: name -> ("self" | "incl", spans summed).  Inclusive time is
# used where the layer is an orchestrator whose own work is its children.
TIME_METRICS = {
    "signalio.csv_write_s": ("self", [f"signalio.{f}" for f in CSV_WRITERS]),
    "signalio.csv_read_s": ("self", [f"signalio.{f}" for f in CSV_READERS]),
    "signalio.pgm_s": ("self", ["signalio.render_pgm"]),
    "signalio.wav_read_s": ("self", ["signalio.read_wav_mono16"]),
    "groups.build_s": ("self", ["groups.build_cyclic", "groups.build_dihedral",
                                "groups.build_product"]),
    "groups.load_file_s": ("incl", ["groups.load_group_file"]),
    "harmonic.fourier_s": ("self", ["harmonic.fourier"]),
    "harmonic.inverse_fourier_s": ("self", ["harmonic.inverse_fourier"]),
    "tfplane.symplectic_fourier_s": ("self", ["tfplane.symplectic_fourier"]),
    "tfplane.inverse_symplectic_fourier_s": ("self", ["tfplane.inverse_symplectic_fourier"]),
    "tfplane.timelag_s": ("self", ["tfplane.ambiguity_to_timelag",
                                   "tfplane.timelag_to_ambiguity"]),
    "transforms.ambiguity_transform_s": ("self", ["transforms.ambiguity_transform"]),
    "transforms.cohen_self_s": ("self", ["transforms.cohen_transform"]),
    "transforms.kernel_build_s": ("self", [f"transforms.{f}" for f in KERNEL_BUILDERS]),
    "transforms.stft_s": ("self", ["transforms.stft"]),
    "quantization.kn_operator_s": ("self", ["quantization.kn_operator"]),
    "quantization.kn_symbol_s": ("self", ["quantization.kn_symbol"]),
    "quantization.quantize_s": ("self", ["quantization.quantize"]),
    "quantization.dequantize_s": ("self", ["quantization.dequantize"]),
    "quantization.localization_s": ("self", ["quantization.original_localization"]),
    **{f"properties.{key}_s": ("incl", [f"properties.{fn}"])
       for key, fn in CHECK_FUNCTIONS.items()},
    "reconstruct.distribution_s": ("incl", ["reconstruct.born_jordan_distribution"]),
    "reconstruct.phase_retrieve_s": ("self", ["reconstruct.phase_retrieve"]),
    "reconstruct.autocorrelation_s": ("self", ["reconstruct.partial_autocorrelations"]),
    "limits.q_z_distribution_s": ("self", ["limits.q_z_distribution"]),
}

# Every per-layer metric with its unit and better direction, in print order.
PER_LAYER = (
    [("cli.startup_s", "s", "lower")]
    + [(name, "s", "lower") for name in TIME_METRICS]
    + [("signalio.bytes_written", "bytes", "lower"),
       ("signalio.bytes_read", "bytes", "lower"),
       ("groups.build_calls", "count", "lower"),
       ("groups.cache_hits", "count", "higher"),
       ("transforms.cohen_calls_per_op", "count", "lower"),
       ("trace.cpu_per_op_p75_s", "s", "lower")]
)

_spans: list[list] = []   # [name, parent index, start, end, bytes written, bytes read]
_stack: list[int] = []
_originals: dict[str, object] = {}


def _io_direction(module: str, name: str) -> str | None:
    if module != "signalio":
        return None
    if name.startswith("write_") or name == "render_pgm":
        return "write"
    if name.startswith("read_"):
        return "read"
    return None


def _wrap(fn, span_name: str, io: str | None):
    path_pos = None
    if io is not None:
        path_pos = list(inspect.signature(fn).parameters).index("path")

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = len(_spans)
        span = [span_name, _stack[-1] if _stack else -1, 0.0, 0.0, 0, 0]
        _spans.append(span)
        _stack.append(idx)
        span[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            _stack.pop()
            if io is not None:
                path = kwargs["path"] if "path" in kwargs else args[path_pos]
                if os.path.exists(path):
                    span[4 if io == "write" else 5] = os.path.getsize(path)

    return traced


def install():
    """Wrap the public functions of the gtfa modules; idempotent."""
    if _originals:
        return
    import importlib

    wrappers: dict[int, object] = {}
    for mod_name in MODULES:
        mod = importlib.import_module(f"gtfa.{mod_name}")
        names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
        for name in names:
            obj = getattr(mod, name, None)
            is_function = inspect.isfunction(obj) or hasattr(obj, "cache_info")
            if not is_function or getattr(obj, "__module__", None) != mod.__name__:
                continue
            span_name = f"{mod_name}.{name}"
            _originals[span_name] = obj
            wrappers[id(obj)] = _wrap(obj, span_name, _io_direction(mod_name, name))
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "gtfa" or mod_name.startswith("gtfa.")):
            continue
        for attr, val in list(vars(mod).items()):
            if id(val) in wrappers:
                setattr(mod, attr, wrappers[id(val)])
    checks = sys.modules["gtfa.properties"].CHECKS
    for key, val in list(checks.items()):
        if id(val) in wrappers:
            checks[key] = wrappers[id(val)]


def take_spans() -> list[list]:
    """Return the spans recorded so far and start a new record."""
    global _spans
    out = _spans
    _spans = []
    return out


def cache_counts() -> tuple[int, int]:
    """(calls, hits) summed over the cached group builders, from cache_info()."""
    calls = hits = 0
    for name in ("groups.build_cyclic", "groups.build_dihedral"):
        fn = _originals.get(name) or getattr(sys.modules["gtfa.groups"], name.split(".")[1])
        info = fn.cache_info()
        calls += info.hits + info.misses
        hits += info.hits
    return calls, hits


def summarize(spans: list[list]) -> dict:
    """Per span name: self seconds, inclusive seconds, call count, bytes."""
    child = [0.0] * len(spans)
    for name, parent, t0, t1, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[str, list] = {}
    for i, (name, _, t0, t1, wrote, read) in enumerate(spans):
        acc = out.setdefault(name, [0.0, 0.0, 0, 0, 0])
        acc[0] += (t1 - t0) - child[i]
        acc[1] += t1 - t0
        acc[2] += 1
        acc[3] += wrote
        acc[4] += read
    return out


def layer_values(setup: dict, timed: dict, ops: int) -> dict[str, float]:
    """Time and byte metrics: one set-up plus the mean per op of the timed
    phase.  `setup` and `timed` are `summarize` results."""
    def total(summary, names, col):
        return sum(summary[n][col] for n in names if n in summary)

    vals = {}
    for metric, (mode, names) in TIME_METRICS.items():
        col = 0 if mode == "self" else 1
        vals[metric] = total(setup, names, col) + total(timed, names, col) / ops
    io_names = [f"signalio.{f}" for f in CSV_WRITERS + CSV_READERS
                + ("render_pgm", "read_wav_mono16")]
    vals["signalio.bytes_written"] = total(setup, io_names, 3) + total(timed, io_names, 3) / ops
    vals["signalio.bytes_read"] = total(setup, io_names, 4) + total(timed, io_names, 4) / ops
    vals["transforms.cohen_calls_per_op"] = total(timed, ["transforms.cohen_transform"], 2) / ops
    return vals
