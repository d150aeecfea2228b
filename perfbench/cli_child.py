"""Run one qmme command line with tracing on; used by the traced cli-shipped pass.

    python3 perfbench/cli_child.py TRACE_JSON SUBCOMMAND MODEL [FLAGS...]

Times the fresh ``import qmme.cli`` (span ``cli.import``), installs the
benchmark's wrappers, runs ``qmme.cli.main`` with the remaining arguments
(span ``cli.main``), writes the spans and counters to TRACE_JSON and exits
with the command's exit code. ``qmme`` must be importable, for example
through PYTHONPATH.
"""

import json
import sys
import time


def main():
    trace_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import qmme.cli

    end = time.perf_counter()
    from tracer import Tracer

    tracer = Tracer()
    tracer.spans.append(("cli.import", start, end, -1))
    tracer.install()
    try:
        code = tracer.wrap("cli.main", qmme.cli.main)(argv)
    finally:
        tracer.uninstall()
        with open(trace_path, "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts, "maxima": tracer.maxima}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
