"""Run one traced `patprob` command: cli_shim.py SPANS_OUT ARGS...

Behaves like `python -m patprob.cli ARGS...` (same stdout, same exit code)
but records spans around patprob's public functions and writes them, with
the time `import patprob.cli` took, to SPANS_OUT as JSON.
"""

import json
import sys
import time
from pathlib import Path

started = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import patprob.cli  # noqa: E402

import_s = time.perf_counter() - started

from tracing import Tracer, library_layers  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install(library_layers())
    try:
        code = tracer.span("cli.main", patprob.cli.main, argv)
        sys.stdout.flush()
    finally:
        tracer.uninstall()
    record = tracer.dump()
    record["import_s"] = import_s
    with open(out_path, "w") as f:
        json.dump(record, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
