"""Run one hpe CLI command in this process with the layer wrappers installed.

    python3 perfbench/cli_launcher.py TRACE.json OP -- <hpe arguments>

Behaves like `python -m hpe.cli <hpe arguments>` (same exit code) and then
writes the spans and counters it recorded, labelled OP, to TRACE.json.
hpe must be importable (PYTHONPATH=src).
"""

import sys

import tracing


def main() -> int:
    out, op, sep = sys.argv[1:4]
    if sep != "--":
        print("usage: cli_launcher.py TRACE.json OP -- ARGS...", file=sys.stderr)
        return 64
    import hpe.cli

    tracer = tracing.Tracer(op=op)
    tracing.install(tracer)
    try:
        return hpe.cli.main(sys.argv[4:])
    finally:
        tracer.uninstall()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
