"""`mepack run` with the per-layer tracer installed, for traced cli-batch runs.

    python3 -X importtime perfbench/cli_shim.py TRACE_FILE run SCENARIO [...]

Times `import mepack.cli`, installs the tracer, runs the CLI's `main` on
the remaining arguments and writes the tracer snapshot to TRACE_FILE.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv) -> int:
    trace_file, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import mepack.cli

    import_s = time.perf_counter() - start
    from bench_trace import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = mepack.cli.main(cli_args)
    finally:
        tracer.uninstall()
    with open(trace_file, "w") as fh:
        json.dump({"import_s": import_s, "snapshot": tracer.snapshot()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
