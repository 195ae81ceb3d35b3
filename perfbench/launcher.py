"""Runs ``ctxradius serve`` with the perfbench tracer installed.

Usage: python3 launcher.py OUT serve --config PATH

On shutdown the spans go to OUT.spans (int64 records, see tracer.FIELDS)
and the final table sizes to OUT.json.
"""

import json
import sys

import tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    spans = tracer.Tracer()
    tracer.install(spans)
    from ctxradius import cli

    code = cli.main(argv)
    with open(out + ".spans", "wb") as fh:
        spans.records().tofile(fh)
    with open(out + ".json", "w", encoding="utf-8") as fh:
        json.dump(tracer.table_sizes(spans.server), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
