"""Run the lgsim command line under ``tracing.Tracer``.

Usage: ``python bench/cli_traced.py SPANS.json [lgsim arguments...]``

The package is imported before the wrappers go in, so the traced totals
cover parsing, computing and emitting but not the import itself, which
``python -X importtime`` measures separately.  The totals are written to
SPANS.json and the exit code is the command's own.
"""

import json
import sys

import lgsim.cli

import tracing


def main(argv: list[str]) -> int:
    spans_path, args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    with tracer:
        code = lgsim.cli.main(args)
    tracer.drain()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.totals(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
