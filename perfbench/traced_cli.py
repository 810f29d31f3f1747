"""Run one ``dockalloc`` command with its layers traced.

Usage: python3 perfbench/traced_cli.py SPANS.json <dockalloc arguments>

The spans and counters stay in memory while the command runs and are
written to SPANS.json when it returns.  The exit code is the command's.
"""

import json
import sys
from pathlib import Path

from tracing import Tracer


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer().install()
    import dockalloc.cli as cli

    try:
        return cli.main(argv)
    finally:
        spans_path.write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    raise SystemExit(main())
