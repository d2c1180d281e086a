"""One benchmark pass in a fresh interpreter.

Does what `kvwb run` does through the public API, once per model:
`get_builtin(name, seed=...)` -> `run_pipeline(m, seed=...)` ->
`dumps_canonical(rep.to_json())`.  Prints one JSON object on stdout.

    python3 benchmarks/worker.py --models squit,squit:klein --seed 42 [--trace]
    python3 benchmarks/worker.py --models squit --seed 42 --setup-only

The harness (`run.py`) starts it with `PYTHONPATH=src`, one BLAS thread and
a `PYTHONHASHSEED` derived from the seed; run by hand, set those the same way.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--models", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import kvwb
    import numpy
    names = args.models.split(",")
    built = [(name, kvwb.get_builtin(name, seed=args.seed)) for name in names]
    # CLOCK_MONOTONIC is system-wide, so the harness can subtract the time it
    # started this process from this stamp.
    setup_done = time.monotonic()
    out = {"setup_done": setup_done, "kvwb_file": kvwb.__file__,
           "python": sys.version.split()[0], "numpy": numpy.__version__}
    if args.setup_only:
        print(json.dumps(out))
        return

    tracer = None
    if args.trace:
        import trace_spans  # next to this script, so on sys.path already
        tracer = trace_spans.Tracer()
        out["not_traced"] = tracer.install()

    docs, verdicts = [], []
    t0 = time.perf_counter()
    for name, m in built:
        try:
            c0 = time.perf_counter()
            # Looked up on the package at call time, so traced wrappers apply.
            rep = kvwb.run_pipeline(m, seed=args.seed)
            call_s = time.perf_counter() - c0
            docs.append(kvwb.dumps_canonical(rep.to_json()))
            verdicts.append({"model": name, "call_s": call_s,
                             "statuses": [s.status for s in rep.stages]})
        except Exception:  # a raise is a failed verdict, not a crash
            docs.append(None)
            verdicts.append({"model": name, "error": traceback.format_exc()})
    out["pass_s"] = time.perf_counter() - t0

    for doc, v in zip(docs, verdicts):
        if doc is not None:
            v["sha256"] = hashlib.sha256(doc.encode()).hexdigest()
    out["verdicts"] = verdicts
    # ru_maxrss is in KiB on Linux.
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          * 1024 / 1e6)
    if tracer is not None:
        out["spans"] = tracer.spans
    print(json.dumps(out))


if __name__ == "__main__":
    main()
