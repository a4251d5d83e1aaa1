#!/usr/bin/env python3
"""Print the theorem-condition matrix for the built-in kernel library.

Each cell is the verdict of the exhaustive kernel-side condition; rows marked
with * also ran the statistical cross-check with no disagreement.  The exit
status is 1 when any cell is marked ! (a cross-check disagrees), else 0.

Usage:  python scripts/property_matrix.py [N_cyclic] [sigma]
"""

import sys

from gtfa.groups import build_cyclic, build_dihedral
from gtfa.properties import run_all_checks
from gtfa.transforms import (
    anti_kn_kernel,
    born_jordan_cyclic_kernel,
    gaussian_window,
    kn_kernel,
    margin_fix_kernel,
    spectrogram_kernel,
    wigner_kernel_odd_cyclic,
)


def main():
    N = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    sigma = float(sys.argv[2]) if len(sys.argv) > 2 else 2.0
    gc, dc = build_cyclic(N)
    gco, _ = build_cyclic(N + 1 if N % 2 == 0 else N)
    g3, d3 = build_dihedral(3)

    kernels = [
        (f"kn Z/{N}", kn_kernel(dc)),
        (f"anti-kn Z/{N}", anti_kn_kernel(dc)),
        (f"born-jordan Z/{N}", born_jordan_cyclic_kernel(N)),
        (f"wigner-odd Z/{gco.order}", wigner_kernel_odd_cyclic(gco.order)),
        (f"spectrogram Z/{N}", spectrogram_kernel(gaussian_window(gc, sigma))),
        (f"margin-fix Z/{N}", margin_fix_kernel(dc)),
        ("kn D3", kn_kernel(d3)),
        ("spectrogram D3", spectrogram_kernel(gaussian_window(g3, sigma))),
    ]

    names = None
    rows = []
    for label, k in kernels:
        reports = run_all_checks(k, verify=True)
        if names is None:
            names = [r.name for r in reports]
        verdicts = []
        for r in reports:
            mark = "yes" if r.holds else "no"
            if r.cross_check is not None:
                disagree = (r.holds and r.cross_check > 1e-8) or (
                    not r.holds and r.max_violation >= 1e-3 and r.cross_check < 1e-6
                )
                mark += "!" if disagree else "*"
            verdicts.append(mark)
        rows.append((label, verdicts))

    width = max(len(lbl) for lbl, _ in rows) + 2
    cols = [max(len(n), 5) + 2 for n in names]
    print(" " * width + "".join(n.ljust(c) for n, c in zip(names, cols)))
    for label, verdicts in rows:
        print(label.ljust(width) + "".join(v.ljust(c) for v, c in zip(verdicts, cols)))
    print("\n(* = statistical cross-check agrees; ! would flag a disagreement)")
    return 1 if any(v.endswith("!") for _, verdicts in rows for v in verdicts) else 0


if __name__ == "__main__":
    sys.exit(main())
