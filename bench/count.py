#!/usr/bin/env python3
"""Count per-layer work of one CLI call from outside the program.

    python3 bench/count.py aff_rank3 1,0,0 weights --method hull --height 10

The first two arguments name a matrix of bench/cases.py and the pairings of
lambda ("-" for none); the rest is the kmweights command line without
``--input``.  Prints the exit code and every nonzero per-layer metric of
that one traced call as JSON.
"""

from __future__ import annotations

import io
import json
import sys

from run import OUT, import_program


def main(argv) -> int:
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    import_program()
    import kmweights.cli
    import cases
    from tracing import Tracer

    case, lam, words = argv[0], argv[1], argv[2:]
    path = cases.Builder(OUT / "inputs").input_path(
        case, None if lam == "-" else tuple(lam.split(",")))
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    rc = kmweights.cli.run([words[0], "--input", path] + words[1:],
                           stdout=io.StringIO(), stderr=io.StringIO())
    tracer.active = False
    counts = {k: v for k, v in tracer.metrics().items() if v and not k.endswith("_s")}
    print(json.dumps({"exit_code": rc, "counts": counts}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
