"""Run the mtalk CLI with spans recorded, for traced cli_compile runs.

Usage: python3 perfbench/cli_child.py SPANS_FILE RUN_ID MTALK_ARGS...

Runs mtalk.cli.main(MTALK_ARGS) exactly as ``python -m mtalk.cli`` would,
then writes the spans to SPANS_FILE and exits with the CLI's exit code. A
trace target it cannot find is named on stderr, which fails the compile's
check.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.trace import OPTIONAL, Tracer  # noqa: E402


def main() -> int:
    spans_file, run_id, *argv = sys.argv[1:]
    import mtalk.cli

    tracer = Tracer(run_id)
    missing = [name for name in tracer.install() if name not in OPTIONAL]
    if missing:
        print(f"perfbench: cannot trace {', '.join(missing)}", file=sys.stderr)
    try:
        return mtalk.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(spans_file)


if __name__ == "__main__":
    sys.exit(main())
