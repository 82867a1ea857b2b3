"""One psgroupoid CLI invocation with layer spans recorded, for the traced
cli-cold run:

    python3 perfbench/cli_shim.py SPANS_JSON ARG...

runs ``psgroupoid.cli.main(ARG...)`` and writes the spans to SPANS_JSON.
"""

import sys

from tracer import Tracer, dump


def main() -> int:
    spans_path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import psgroupoid.cli as cli

    tracer.begin_op(0)
    try:
        return cli.main(args)
    finally:
        tracer.end_op()
        dump(tracer, spans_path)


if __name__ == "__main__":
    sys.exit(main())
