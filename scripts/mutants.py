"""Mutation checks: each entry breaks the library in one place, and its tests must fail.

    python scripts/mutants.py            # every entry
    python scripts/mutants.py NAME ...   # the entries named
    python scripts/mutants.py --list

The script copies src/ to a temporary directory and runs the selected entries'
tests there, with the copy first on PYTHONPATH, once unmutated: if any of them
fails there it stops.  Then, entry by entry, it replaces the entry's old text
(which must occur exactly once in its file) by the new text, runs the entry's
tests against the copy, and puts the file back.  An entry is killed when its
tests fail, survives when they pass, and is stale when its old text is not
found.  The exit status is 0 only when every selected entry is killed.
Needs nothing beyond pytest; the tests are the repository's own, run from its root.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
T, L, P = "tests/test_transforms.py::", "tests/test_limits.py::", "tests/test_properties.py::"


@dataclass
class Mutant:
    name: str
    file: str  # under src/gtfa
    old: str
    new: str
    tests: tuple


MUTANTS = [
    # the lag forms of kn, anti-kn, margin-fix and wigner-odd
    Mutant("margin-fix-lag-on-row-0", "transforms.py",
           "        w[:e], w[e + 1:] = mean[:e], mean[e + 1:]\n", "        w[1:] = mean[1:]\n",
           (T + "test_lag_forms_match_the_direct_sum[file:relabelled-dihedral:6-margin-fix]",)),
    Mutant("shift-through-cayley-not-its-transpose", "transforms.py",
           "    columns = group.cayley.T  # columns[s, x] = x s\n",
           "    columns = group.cayley  # columns[s, x] = x s\n",
           (T + "test_lag_forms_match_the_direct_sum[dihedral:5-anti-kn]",)),
    Mutant("wigner-shift-by-minus-h", "transforms.py",
           "_shift_lag(group, h), dual))\n", "_shift_lag(group, -h % N), dual))\n",
           (T + "test_lag_forms_match_the_direct_sum[cyclic:5-wigner-odd]",)),
    Mutant("wigner-phi-from-the-dual-table", "transforms.py",
           "np.exp(2j * np.pi * np.arange(N) / N)[cyclic_exponents(N, h)].T[..., None, None]]",
           "dual.table[:, h][..., None, None]]",
           (T + "test_wigner_kernel_makes_no_dual_table",)),
    Mutant("eager-phi", "transforms.py",
           "            self._phi, self.group, self.dual = phi, dual.group, dual\n",
           "            self.phi, self.group, self.dual = phi(), dual.group, dual\n",
           (T + "test_cohen_fft_route_makes_no_group_table",)),
    Mutant("every-kernel-through-phi", "transforms.py",
           "    t = k.lag(w) if k.lag else _phi_product(k.phi, dual, shape, w)\n",
           "    t = _phi_product(k.phi, dual, shape, w)\n",
           (T + "test_lag_forms_skip_the_transforms_in_x[cyclic:128]",)),
    Mutant("born-jordan-phi-c-ordered", "transforms.py",
           "        return AmbiguityFunction(group, dual, [table.T[..., None, None]])\n",
           "        return AmbiguityFunction(group, dual, [np.ascontiguousarray(table.T)[..., None, None]])\n",
           (T + "test_born_jordan_table_is_stored_lag_major[8]",)),
    # the real route of D(u, u) for kernels flagged hermitian, and lag forms on a prefix of the lags
    Mutant("kn-flagged-hermitian", "transforms.py",
           "    return CohenKernel(\"kn\", lambda: AmbiguityFunction(dual.group, dual, [\n"
           "        np.broadcast_to(np.eye(d, dtype=complex), (end - first, dual.group.order, d, d)).copy()\n"
           "        for first, end, d, _ in dual.runs]), lambda w: w, dual)\n",
           "    return _symmetric(CohenKernel(\"kn\", lambda: AmbiguityFunction(dual.group, dual, [\n"
           "        np.broadcast_to(np.eye(d, dtype=complex), (end - first, dual.group.order, d, d)).copy()\n"
           "        for first, end, d, _ in dual.runs]), lambda w: w, dual))\n",
           (T + "test_kernels_not_proven_symmetric_are_not_flagged[cyclic:2]",)),
    Mutant("real-route-drops-the-boundary-lag", "transforms.py",
           "    rows = shape[0] // 2 + 1 if shape and u is v and k.hermitian else None\n",
           "    rows = shape[0] // 2 if shape and u is v and k.hermitian else None\n",
           (T + "test_hermitian_kernels_give_a_real_distribution[cyclic:128-born-jordan]",)),
    Mutant("real-route-not-conjugated", "transforms.py",
           "np.fft.irfftn(np.conjugate(first, out=first), ", "np.fft.irfftn(first, ",
           (T + "test_hermitian_kernels_give_a_real_distribution[cyclic:257-spectrogram-random]",)),
    Mutant("shift-lag-over-every-lag", "transforms.py",
           "        for y, s in enumerate(shifts[:len(w)]):\n", "        for y, s in enumerate(shifts):\n",
           (T + "test_lag_forms_act_on_a_prefix_of_lags[single-cyclic:12-anti-kn]",)),
    Mutant("box-weights-by-block-not-rows", "transforms.py",
           "            t *= weight[s:s + len(t)].reshape(col)\n", "            t *= weight[s:s + step].reshape(col)\n",
           (T + "test_lag_forms_act_on_a_prefix_of_lags[single-cyclic:512-born-jordan]",)),
    # one draw per run_all_checks, checked constructors, near-equal file duals
    Mutant("sampled-pass-draws-its-own", "properties.py",
           "    W = _shared(k, _draw)\n", "    W = _draw(k)\n",
           (P + "test_run_all_checks_makes_one_draw",)),
    Mutant("constructor-checks-only-block-dims", "groups.py",
           "            if run.shape != (want := (end - first, *batch, *lead, d, d)):\n",
           "            if run.shape[-2:] != (want := (end - first, *batch, *lead, d, d))[-2:]:\n",
           ("tests/test_tfplane.py::test_constructors_refuse_runs_unlike_the_dual[tf-plane-length]",)),
    Mutant("file-duals-equal-bit-for-bit", "groups.py",
           "np.abs(a.table - b.table).max() <= ALG_TOL))\n", "np.abs(a.table - b.table).max() <= 0))\n",
           (T + "test_wigner_accepts_a_near_equal_file_dual",)),
    # the box sums of the Born-Jordan family
    Mutant("box-window-start-off-by-one", "transforms.py",
           "        _box_sums(w[1:], 0 * y, y, c, (1 - c * y) / N)\n",
           "        _box_sums(w[1:], 0 * y + 1, y, c, (1 - c * y) / N)\n",
           (T + "test_born_jordan_lag_form_matches_the_phi_route[5]",)),
    Mutant("box-coefficient-conjugated", "transforms.py",
           "        _box_sums(w[1:], 0 * y, y, c, (1 - c * y) / N)\n",
           "        _box_sums(w[1:], 0 * y, y, c.conj(), (1 - c * y) / N)\n",
           (T + "test_born_jordan_lag_form_matches_the_phi_route[5]",)),
    Mutant("box-mean-term-dropped", "transforms.py",
           "        _box_sums(w[1:], 0 * y, y, c, (1 - c * y) / N)\n", "        _box_sums(w[1:], 0 * y, y, c)\n",
           (T + "test_born_jordan_lag_form_matches_the_phi_route[5]",)),
    Mutant("box-next-period-not-added", "transforms.py",
           "        np.add(c[..., n:n + 1], c[..., 1:1 + ext], out=c[..., n + 1:n + 1 + ext])",
           "        np.copyto(c[..., n + 1:n + 1 + ext], c[..., 1:1 + ext])",
           (T + "test_born_jordan_lag_form_matches_the_phi_route[16]",)),
    Mutant("sampled-even-half-weight-dropped", "limits.py",
           "        _box_sums(w[p:q], 0 * one, one, 1 / one)", "        _box_sums(w[p:q], 0 * one, one, 2 / one)",
           (L + "test_sampled_lag_form_matches_the_phi_route[12]",)),
    Mutant("sampled-negative-lags-start-at-x", "limits.py",
           "        _box_sums(w[q:], far, N - far, 1 / (N - far))",
           "        _box_sums(w[q:], 0 * far, N - far, 1 / (N - far))",
           (L + "test_sampled_lag_form_matches_the_phi_route[7]",)),
    Mutant("nonperiodic-span-not-shifted-back", "limits.py",
           "            s = first + min(ys[0], 0)", "            s = first",
           (L + "test_lag_rows_match_the_rolled_products_bit_for_bit[60-None-None]",)),
    Mutant("nonperiodic-fold-overwrites", "limits.py",
           "            folded[r:r + k] += rows[:k]\n", "            folded[r:r + k] = rows[:k]\n",
           (L + "test_qz_fold_matches_dense_oracle[L89-M89]",)),
    Mutant("negative-time-count-accepted", "limits.py",
           "    if t_count < 0:\n", "    if t_count < -1:\n",
           (L + "test_qz_refuses_a_negative_time_count",)),
    Mutant("real-lag-table-not-conjugated", "reconstruct.py",
           "        t = np.fft.rfft(Q.runs[0][..., 0, 0], axis=0)[:h + 1].conj()\n",
           "        t = np.fft.rfft(Q.runs[0][..., 0, 0], axis=0)[:h + 1]\n",
           ("tests/test_reconstruct.py::test_lag_table_is_exact_up_to_residue_constants[zero-free-384]",)),
    Mutant("retrieval-box-divisor-conjugated", "reconstruct.py",
           "    D *= _born_jordan_box(N)[:h + 1, None]", "    D *= _born_jordan_box(N).conj()[:h + 1, None]",
           ("tests/test_reconstruct.py::test_roundtrip_small_sweep",)),
]


def run_tests(tests, env) -> int:
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--no-header", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(argv) -> int:
    if argv[:1] == ["--list"]:
        print("\n".join(f"{m.name}\t{m.file}\t{' '.join(m.tests)}" for m in MUTANTS))
        return 0
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), *filter(None, [os.environ.get("PYTHONPATH")])]),
               "PYTHONDONTWRITEBYTECODE": "1"}  # no stale bytecode for a file rewritten within a second
        where = subprocess.run([sys.executable, "-c", "import gtfa; print(gtfa.__file__)"], env=env, cwd=ROOT,
                               capture_output=True, text=True).stdout.strip()
        if not where.startswith(str(src)):
            print(f"gtfa imports from {where or '(nowhere)'}, not from the copy", file=sys.stderr)
            return 2
        tests = sorted({t for m in chosen for t in m.tests})
        if run_tests(tests, env) != 0:
            print("the tests fail on the unmutated copy:\n  " + "\n  ".join(tests), file=sys.stderr)
            return 2
        verdicts = []
        for m in chosen:
            path = src / "gtfa" / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                verdicts.append(("stale", m))
            else:
                path.write_text(text.replace(m.old, m.new))
                code = run_tests(m.tests, env)
                path.write_text(text)
                verdicts.append(({0: "SURVIVED", 1: "killed"}.get(code, f"error (pytest exit {code})"), m))
            print(f"{verdicts[-1][0]:<10} {m.name}", flush=True)
    alive = [m.name for verdict, m in verdicts if verdict != "killed"]
    print(f"{len(verdicts) - len(alive)} of {len(verdicts)} mutants killed"
          + (f"; not: {', '.join(alive)}" if alive else ""))
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
