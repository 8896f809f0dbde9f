"""Run one cohomcert CLI operation in this fresh interpreter.

    child.py RESULT.json SPANS.json|- OP_ID CLI_ARGS...

RESULT.json receives the time.monotonic() at which cli.main was entered
(the parent subtracts its spawn time: interpreter start plus the import
of cohomcert), how long cli.main ran and what it returned.  With a SPANS
path other than "-" the layer tracer is installed after the import and
its spans are written there at the end.  The process exits with
cli.main's return code, or 70 if it raised.
"""

import json
import sys
import time
import traceback

from cohomcert import cli

entered = time.monotonic()


def main() -> int:
    result_path, spans_path, op_id, *argv = sys.argv[1:]
    tracer = None
    if spans_path != "-":
        from tracer import Tracer
        tracer = Tracer(op_id)
        tracer.install()
    error = None
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:
        rc, error = 70, traceback.format_exc()
    op_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.write(spans_path)
    with open(result_path, "w") as fh:
        json.dump({"entered": entered, "op_s": op_s, "rc": rc, "error": error}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
