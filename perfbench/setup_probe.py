"""Time zetaval's set-up in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR PREC [PREC ...]

Prints one JSON object: ``import_s`` for ``import zetaval`` and
``constants_s`` for filling the lazy pi, ln2 and Bernoulli caches at the
given working precisions, which is what every CLI invocation pays before
its first evaluation; and ``yardstick_s``, the median of a few yardsticks run
afterwards, to rescale both to the nominal host speed.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from yardstick import yardstick

BERNOULLI_INDEX = 32  # covers the Euler-Maclaurin corrections the workloads reach
GUARD_BITS = 32  # elementary functions evaluate this far above the working precision
YARDSTICKS = 5


def fill_constants(zv, precisions) -> None:
    for prec in precisions:
        ctx = zv.PrecisionContext(prec + GUARD_BITS)
        zv.pi(ctx)
        zv.ln2(ctx)
    zv.bernoulli(BERNOULLI_INDEX)


def main(argv: list[str]) -> int:
    sys.path.insert(0, argv[0])
    t0 = time.perf_counter()
    import zetaval

    t1 = time.perf_counter()
    fill_constants(zetaval, [int(p) for p in argv[1:]])
    t2 = time.perf_counter()
    y = statistics.median(yardstick() for _ in range(YARDSTICKS))
    print(json.dumps({"import_s": t1 - t0, "constants_s": t2 - t1, "yardstick_s": y}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
