"""One benchmark repetition in a fresh interpreter, as a command-line user
would run it: nothing is imported or cached before launch.

    python3 perfbench/worker.py WORKLOAD SEED OUT_DIR LAUNCHED [--trace] [--setup-only]

LAUNCHED is run.py's time.monotonic() just before it started this
process (the clock is shared by all processes), so set-up time covers
interpreter start, imports and input preparation.  Results go to
OUT_DIR/result.json; family outputs are the CSVs that `tmb verify`
writes into OUT_DIR, curve outputs go to OUT_DIR/curve.json.  With
--trace, the spans go to OUT_DIR/spans.json.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Family, curve_grid


def main(argv) -> int:
    name, seed, out, launched = argv[0], int(argv[1]), Path(argv[2]), float(argv[3])
    trace, setup_only = "--trace" in argv[4:], "--setup-only" in argv[4:]
    workload = WORKLOADS[name]

    import tmb
    from tmb import shooting
    from tmb.errors import TmbError
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    # a fresh process starts with an empty lambda(s) scan memo
    memo_entries = len(getattr(shooting, "_scan_cache", {}))

    if isinstance(workload, Family):
        from tmb import cli
        cfg = cli.parse_config(Path(workload.config), "verify")
        cfg.output_dir = out
    else:
        grid = curve_grid(workload, seed)
        p0 = tmb.ProblemParams(workload.alpha, workload.beta, 1.0)
    result = {"setup_s": time.monotonic() - launched, "memo_entries": memo_entries}

    if not setup_only:
        if isinstance(workload, Family):
            try:
                result["status"] = cli.run(cfg)
            except TmbError as exc:
                result["status"] = 1
                result["error"] = f"{type(exc).__name__}: {exc}"
        else:
            points = []
            for s in grid:
                try:
                    points.append([s, shooting.lambda_of_s(s, workload.k, p0), None])
                except TmbError as exc:
                    points.append([s, None, f"{type(exc).__name__}: {exc}"])
            result["status"] = 0
            with open(out / "curve.json", "w") as fh:
                json.dump(points, fh)
    if tracer is not None:
        tracer.dump(out / "spans.json")
    with open(out / "result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
