"""Run one `cltau` command with the benchmark's span wrappers installed.

    python3 perfbench/cli_traced.py SPANS_JSON CLTAU_ARGS...

Imports `cltau.cli`, installs the wrappers, calls `cltau.cli.main` on
CLTAU_ARGS inside one traced operation, writes the spans to SPANS_JSON
and exits with main's code.  The traced run of the cli workload launches
every other invocation through this script.
"""

import sys

import cltau.cli

import tracing


def run(argv) -> int:
    out, args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    with tracer.operation():
        code = cltau.cli.main(args)
    sys.stdout.flush()
    tracer.write(out)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
