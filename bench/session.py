"""Library-session worker: one long-lived process driven by the harness.

    python3 bench/session.py --seed N [--tiny]

Set-up imports egqft and builds the second-order kit, then prints one JSON
line ``{"ready": ...}``.  Each ``pass K`` line on standard input runs one
library pass with inputs drawn from (seed, K) and prints its result as one
JSON line.  End of input ends the worker.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
import time

t_start = time.perf_counter()

import numpy  # noqa: E402
import scipy  # noqa: E402

import library  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tiny", action="store_true", help="ten queries and one small grid a pass")
    args = ap.parse_args()
    session = library.Session()
    t_import = time.perf_counter() - t_start
    session.warm()
    print(json.dumps({
        "ready": True,
        "import_s": t_import,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }), flush=True)
    for line in sys.stdin:
        _, k = line.split()
        rng = random.Random(f"library_session/{args.seed}/{k}")
        n_queries = 10 if args.tiny else library.QUERIES
        print(json.dumps(library.run_pass(session, rng, n_queries, args.tiny)), flush=True)


if __name__ == "__main__":
    main()
