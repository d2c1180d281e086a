"""kvwb benchmark: what a user of `kvwb run` waits for, on three workloads.

    python3 benchmarks/run.py --workload exact-ladder --seed 42 --seconds 40 --trace 0
    python3 benchmarks/run.py --seconds 40          # every workload in turn

Closed loop, one client: this process starts one fresh worker interpreter per
pass (`worker.py`), runs the passes one after another and waits on each, so
every pass pays what a `kvwb run` invocation pays (imports, numpy/LAPACK
start-up, `models._ENUM_CACHE` empty).  One worker is alive at a time and each
gets one BLAS thread, so on two cores the two never oversubscribe.

With `--trace 0` the run first starts `SETUP_SAMPLES` workers that only import
kvwb and build the models, then untraced passes until `--seconds` is spent.
It prints `setup_s`, `pass_s` and `peak_rss_mb` (median, quartiles, sample
count).

Speed correction.  On a shared VM the speed a core delivers swings by up to
1.8x within seconds, as other tenants come and go, so raw medians of one run
differ from the next by 10-25%.  Every timed worker is therefore bracketed by
`reference_s()`, a fixed stdlib workload that no kvwb change can touch, and
its times are scaled by `REFERENCE_S` / (mean of the two brackets): seconds at
the speed of an uncontended core.  The raw wall medians are printed too.

With `--trace 1` the run alternates untraced and traced passes and prints
the per-layer metrics of `trace_spans.TRACED` as medians per traced pass, plus
`trace_overhead_frac`; all spans are written once, at the end, to
`.bench_out/`.  Every verdict passes a correctness gate; the last stdout line
is one JSON object, and the exit code is 1 when any check failed.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

from trace_spans import COUNTS, TRACED

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().with_name("worker.py")
OUT_DIR = ROOT / ".bench_out"

# Each workload puts a different layer in charge of the time.  classical:6
# (about 21 s per pass on a 2-vCPU Xeon VM) and classical:7 (about 111 s) are
# left out: a pass must fit several times into one run for its median to be
# steady.
WORKLOADS = {
    # Exact rational polytopes: Fraction elimination, the phase-one LP,
    # exact Jordan recovery and group-averaged irreducibility grow with n.
    "exact-ladder": ("classical:4", "classical:5"),
    # The same exact layers on failing and certificate paths: infeasible LPs
    # with Farkas vectors, self-duality failure, weak-self-duality search.
    "counterexamples": ("squit", "squit:klein"),
    # The float/numpy twins of the same modules; no rref, LP or mulclose.
    "quantum-frames": ("qubit:real", "qubit:complex", "qutrit:complex"),
}

_ALL_PASS = ("pass",) * 13
#: The 13 stage statuses of each model, recorded at the commit that added
#: this benchmark; they do not depend on the seed.
EXPECTED = {
    "classical:4": _ALL_PASS,
    "classical:5": _ALL_PASS,
    "qubit:real": _ALL_PASS,
    "qubit:complex": _ALL_PASS,
    "qutrit:complex": _ALL_PASS,
    "squit": ("pass", "pass", "fail", "pass", "pass", "pass", "pass", "pass",
              "fail", "pass", "unknown", "not-applicable", "not-applicable"),
    "squit:klein": ("pass", "pass", "fail", "pass", "fail", "fail",
                    "not-applicable", "pass", "not-applicable",
                    "not-applicable", "unknown", "not-applicable",
                    "not-applicable"),
}

SETUP_SAMPLES = 9
#: `reference_s()` on an uncontended core of a 2-vCPU Intel Xeon VM (KVM).
REFERENCE_S = 0.165
WORKER_TIMEOUT_S = 120
#: Largest gap allowed between a run_pipeline span (its self time plus its
#: children) and the stopwatch the worker holds around the same call.
ACCOUNTING_TOL = 0.03

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"))


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in BENCHMARK.json order."""
    out = []
    for fn in TRACED:
        out += [(f"{fn}.calls", "count"), (f"{fn}.total_s", "s"),
                (f"{fn}.self_s", "s")]
    for fn, (keys, _) in COUNTS.items():
        out += [(f"{fn}.{k}", "count") for k in keys if k != "model"]
    models = [m for ms in WORKLOADS.values() for m in ms]
    out += [(f"pipeline.run_pipeline.{model_key(m)}.total_s", "s")
            for m in models]
    out.append(("trace_overhead_frac", "ratio"))
    return out


def model_key(name: str) -> str:
    return name.replace(":", "-")


class HarnessError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def worker_env(seed: int) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"),
               PYTHONHASHSEED=str(seed % 2**32),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_worker(models, seed: int, *, trace=False, setup_only=False) -> dict:
    cmd = [sys.executable, str(WORKER), "--models", ",".join(models),
           "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(seed),
                              capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise HarnessError(f"worker exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.splitlines()[-1])
    if not Path(res["kvwb_file"]).resolve().is_relative_to(ROOT / "src"):
        raise HarnessError(f"kvwb imported from {res['kvwb_file']}, "
                           f"not from {ROOT / 'src'}")
    res["setup_s"] = res["setup_done"] - start
    return res


def reference_s() -> float:
    """Wall time of a fixed pure-Python workload: 5 exact eliminations."""
    rng = random.Random(0)
    start = time.perf_counter()
    for _ in range(5):
        n = 22
        A = [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
        for c in range(n):
            p = next((i for i in range(c, n) if A[i][c] != 0), None)
            if p is None:
                continue
            A[c], A[p] = A[p], A[c]
            pv = A[c][c]
            A[c] = [x / pv for x in A[c]]
            for i in range(n):
                if i != c and A[i][c] != 0:
                    f = A[i][c]
                    A[i] = [x - f * y for x, y in zip(A[i], A[c])]
    return time.perf_counter() - start


def summary(values: list) -> tuple:
    """(median, q1, q3, n)."""
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return med, q1, q3, len(values)


class Gate:
    """Correctness of every verdict of one run (one seed)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.sha: dict[str, str] = {}

    def check(self, verdicts: list, pass_id: int) -> None:
        for v in verdicts:
            self.attempted += 1
            model = v["model"]
            if "error" in v:
                problem = f"raised {v['error']}"
            elif tuple(v["statuses"]) != EXPECTED[model]:
                problem = f"statuses {v['statuses']}"
            elif self.sha.setdefault(model, v["sha256"]) != v["sha256"]:
                problem = "report bytes differ from the first pass"
            else:
                continue
            self.failed += 1
            self.problems.append(f"pass {pass_id} {model}: {problem}")


def layer_values(spans: list, verdicts: list, problems: list) -> dict:
    """Per-layer metrics of one traced pass; accounting problems appended."""
    child_s = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    outer = {v["model"]: v["call_s"] for v in verdicts if "call_s" in v}
    vals: dict = defaultdict(float)
    for i, (name, start, end, parent, counts) in enumerate(spans):
        dur = end - start
        self_s = dur - child_s[i]
        if self_s < -1e-6:
            problems.append(f"{name}: children cover more than the span")
        vals[f"{name}.calls"] += 1
        vals[f"{name}.self_s"] += self_s
        # A call inside a call of the same function is already in total_s.
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            vals[f"{name}.total_s"] += dur
        for key, n in (counts or {}).items():
            if key != "model":
                vals[f"{name}.{key}"] += n
                continue
            vals[f"{name}.{model_key(n)}.total_s"] += dur
            wall = outer[n]
            if abs(self_s + child_s[i] - wall) > ACCOUNTING_TOL * wall:
                problems.append(f"{n}: run_pipeline self {self_s:.4f} s + "
                                f"children {child_s[i]:.4f} s != {wall:.4f} s")
    return vals


def run_workload(workload: str, seed: int, seconds: float, trace: bool
                 ) -> tuple[dict, bool]:
    models = WORKLOADS[workload]
    deadline = time.monotonic() + seconds
    run_worker(models, seed, setup_only=True)  # byte-compile, warm file cache
    bracket = [reference_s()]

    def timed(**kw) -> dict:
        res = run_worker(models, seed, **kw)
        after = reference_s()
        res["speed"] = REFERENCE_S / ((bracket[0] + after) / 2)
        bracket[0] = after
        return res

    setups = [] if trace else [timed(setup_only=True)
                               for _ in range(SETUP_SAMPLES)]
    gate, kinds = Gate(), ((False, True) if trace else (False,))
    passes = {False: [], True: []}
    longest = 0.0
    while not passes[False] or time.monotonic() + longest <= deadline:
        t = time.monotonic()
        for traced in kinds:
            res = timed(trace=traced)
            gate.check(res["verdicts"], len(passes[False]) + len(passes[True]))
            passes[traced].append(res)
        longest = max(longest, time.monotonic() - t)

    untraced = passes[False]
    env = untraced[0]
    print(f"# workload {workload}: {', '.join(models)}; seed {seed}; "
          f"trace {int(trace)}; {len(untraced) + len(passes[True])} passes")
    print(f"# python {env['python']}, numpy {env['numpy']}, nproc "
          f"{os.cpu_count()}, BLAS threads 1, PYTHONHASHSEED {seed % 2**32}")
    for model, sha in gate.sha.items():
        print(f"# report sha256 {model}: {sha}")
    for problem in gate.problems:
        print(f"# FAILED {problem}")
    print(f"failed_frac = {gate.failed}/{gate.attempted} verdicts")

    metrics, correct = {}, gate.failed == 0
    if not trace:
        timed_runs = {"setup_s": setups + untraced, "pass_s": untraced}
        samples = {name: [r[name] * r["speed"] for r in rs]
                   for name, rs in timed_runs.items()}
        samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in untraced]
        for name, rs in timed_runs.items():
            print(f"# {name} raw wall median "
                  f"{statistics.median(r[name] for r in rs):.4f} s")
        print(f"# speed factor median "
              f"{statistics.median(r['speed'] for r in setups + untraced):.3f}"
              f" (1 = uncontended core)")
        print(f"{'metric':<14}{'unit':<6}{'median':>10}{'q1':>10}"
              f"{'q3':>10}{'n':>4}")
        for name, unit in END_TO_END:
            med, q1, q3, n = summary(samples[name])
            print(f"{name:<14}{unit:<6}{med:>10.4f}{q1:>10.4f}{q3:>10.4f}"
                  f"{n:>4}")
            metrics[name] = {"value": med, "unit": unit}
    else:
        problems: list[str] = []
        per_pass = [layer_values(r["spans"], r["verdicts"], problems)
                    for r in passes[True]]
        # Each traced pass against the untraced pass just before it.
        overhead = statistics.median(
            t["pass_s"] * t["speed"] / (u["pass_s"] * u["speed"])
            for u, t in zip(untraced, passes[True])) - 1
        for problem in problems:
            print(f"# TRACE ACCOUNTING {problem}")
        correct = correct and not problems
        missing = passes[True][0]["not_traced"]
        if missing:
            print(f"# not found in kvwb, so not traced: {', '.join(missing)}")
        print(f"trace_overhead_frac = {overhead:.4f} "
              f"(median over {len(untraced)} untraced/traced pass pairs)")
        for name, unit in per_layer_metrics():
            value = (overhead if name == "trace_overhead_frac" else
                     statistics.median(v.get(name, 0) for v in per_pass))
            metrics[name] = {"value": value, "unit": unit}
        # Zero rows are left out of the table; shares are of run_pipeline.
        whole = metrics["pipeline.run_pipeline.total_s"]["value"]
        for name, m in metrics.items():
            if m["value"] and name != "trace_overhead_frac":
                share = (f"{m['value'] / whole:8.1%}"
                         if name.endswith(".total_s") else "")
                print(f"{name:<58}{m['unit']:<6}{m['value']:>12.4f}{share}")
        write_spans(workload, seed, passes[True])
    return ({"correct": correct, "attempted": gate.attempted,
             "failed": gate.failed, "metrics": metrics}, correct)


def write_spans(workload: str, seed: int, traced: list) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as f:
        for pass_id, res in enumerate(traced):
            for name, start, end, parent, counts in res["spans"]:
                f.write(json.dumps({"pass": pass_id, "name": name,
                                    "start": start, "end": end,
                                    "parent": parent, "counts": counts})
                        + "\n")
    print(f"# spans written to {path.relative_to(ROOT)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="default: every workload in turn")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "kvwb" / "__init__.py").is_file():
        print(f"no kvwb source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ok = True
    for workload in ([args.workload] if args.workload else WORKLOADS):
        try:
            result, correct = run_workload(workload, args.seed, args.seconds,
                                           bool(args.trace))
        except HarnessError as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(result), flush=True)
        ok = ok and correct
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
