"""Run one `gtfa` command with the per-layer wrappers installed.

    python3 perfbench/traced_cli.py <spans.json> <gtfa arguments...>

Installs tracer's wrappers, calls gtfa.cli.main with the arguments, writes
the spans and the group-builder cache counts to <spans.json>, and exits with
main's exit code.  gtfa is imported from the src/ directory next to this
file's directory.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracer  # noqa: E402  (needs the path above)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer.install()
    import gtfa.cli

    code = gtfa.cli.main(argv)
    calls, hits = tracer.cache_counts()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.take_spans(), "cache_calls": calls, "cache_hits": hits}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
