"""The toolkit CLI with spans recorded around its calls into each module.

    python perfbench/traced_cli.py SPANS_FILE OP_ID -- <cli arguments>

Runs ``pathway_toolkit.cli.main`` on the arguments after ``--`` and writes
the spans as JSON to SPANS_FILE when it returns.
"""

import json
import sys

import pathway_toolkit.cli as cli

import tracing


def main():
    spans_file, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.op_id = int(op_id)
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
