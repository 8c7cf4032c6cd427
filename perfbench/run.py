#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of zetaval's certified evaluators.

Usage (from the repository root):

    python3 perfbench/run.py --workload zeta_complex --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

With ``--trace 0`` the run evaluates whole cycles of seeded inputs until
``--seconds`` have passed and reports the end-to-end metrics, with times
rescaled to a nominal host speed where the workload asks for it (see
yardstick.py).  With
``--trace 1`` it evaluates cycle 0 once plain and once with every layer
wrapped, and reports the per-layer metrics; ``--seconds`` is then unused, so
the counts repeat exactly.  Every output is checked against an independent
reference after the timed region.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
import yardstick as ys  # noqa: E402
from setup_probe import fill_constants  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_PROBES = 7
MIN_CYCLES = 5  # fixes eval_s_tail's percentile: ten or more evaluations beyond it
YARDSTICK_EVERY_S = 0.5  # a yardstick follows the first evaluation to end this long after the last
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)
TRACE_DIR = HERE / "traces"

END_TO_END = {
    "evals_per_s": "1/s",
    "eval_s_p50": "s",
    "eval_s_tail": "s",
    "digits_min": "digits",
    "ok_frac": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; filled in by layer_metrics()
PER_LAYER = {
    **{f"rounding.{f}.calls": "count" for f in ("round_to", "add", "mul", "div", "cmp")},
    "rounding.self_s": "s",
    **{f"interval.{f}.calls": "count" for f in ("mul", "div", "cmul", "interval")},
    "interval.rd_per_mul": "ratio",
    "interval.rd_per_div": "ratio",
    "interval.self_s": "s",
    **{f"functions.{f}.calls": "count" for f in ("exp", "log", "trig", "neg_power")},
    "functions.trig_per_neg_power": "ratio",
    "functions.self_s": "s",
    "zeta.em_rounds_per_auto": "ratio",
    "zeta.em_terms_wasted_frac": "fraction",
    "zeta.self_s": "s",
    "dirichlet.exp_integral.self_s": "s",
    "dirichlet.erfc_enclosure.self_s": "s",
    "dirichlet.self_s": "s",
    "characters.char_value.calls": "count",
    "characters.self_s": "s",
    "dedekind.ideal_count.self_s": "s",
    "dedekind.self_s": "s",
    "exact.kronecker.calls": "count",
    "exact.self_s": "s",
    "kernels.primes_counted": "count",
    "kernels.prime_sum": "count",
    "kernels.self_s": "s",
    "elliptic.self_s": "s",
    "setup.import_s": "s",
    "setup.constants_s": "s",
    "trace.overhead_frac": "fraction",
}


# -- measurement ----------------------------------------------------------------


def measure_setup(workload: str) -> dict[str, float]:
    """Median import and constant-fill times over fresh interpreters, each
    rescaled by the yardstick that its interpreter ran afterwards."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)]
    cmd += [str(p) for p in wl.precisions(workload)]
    samples = []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        if i:  # the first probe also writes the bytecode cache
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
            k = ys.NOMINAL_S / probe["yardstick_s"]
            samples.append({"import_s": probe["import_s"] * k, "constants_s": probe["constants_s"] * k})
    med = {k: statistics.median(s[k] for s in samples) for k in ("import_s", "constants_s")}
    med["setup_s"] = statistics.median(s["import_s"] + s["constants_s"] for s in samples)
    return med


def run_task(zv, task):
    """(seconds, output, error) for one evaluation; the timed region."""
    t0 = time.perf_counter()
    try:
        out = wl.evaluate(zv, task)
    except Exception as exc:  # a failed evaluation is a result to report
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - t0, None, exc
    return time.perf_counter() - t0, out, None


def timed_run(zv, workload: str, seed: int, seconds: float):
    """Whole cycles, one evaluation at a time, until ``seconds`` have passed
    and at least MIN_CYCLES cycles are done, with yardsticks in between.

    Returns one list of records per cycle, the host scale of each record in
    the same shape, and the yardstick times."""
    probes = [(time.perf_counter(), ys.yardstick())]
    cycles, mids = [], []
    start = time.perf_counter()
    while len(cycles) < MIN_CYCLES or time.perf_counter() - start < seconds:
        records, at = [], []
        for task in wl.cycle(workload, seed, len(cycles)):
            t0 = time.perf_counter()
            records.append((task, *run_task(zv, task)))
            at.append(t0 + records[-1][1] / 2)
            if time.perf_counter() - probes[-1][0] >= YARDSTICK_EVERY_S:
                probes.append((time.perf_counter(), ys.yardstick()))
        cycles.append(records)
        mids.append(at)
    probes.append((time.perf_counter(), ys.yardstick()))
    scales = [[ys.scale(probes, m) for m in at] for at in mids]
    return cycles, scales, [d for _t, d in probes]


def check_all(zv, records, seed: int, full: int | None = None) -> tuple[int, list[float]]:
    """Number of failures, and the certified digits of the passing outputs.
    Records after the first ``full`` have their large point counts sampled."""
    rng = random.Random(f"check/{seed}")
    failed, digits = 0, []
    for i, (task, _t, out, err) in enumerate(records):
        if err is not None:
            failed += 1
            continue
        outcome = wl.check(zv, task, out, rng, sample=full is not None and i >= full)
        if not outcome.ok:
            failed += 1
            print(f"FAILED {task}: {outcome.reason}", file=sys.stderr)
        elif outcome.digits is not None:
            digits.append(outcome.digits)
    return failed, digits


def tail(times: list[float], least: int = 0) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile with at least ten
    evaluations beyond it, by nearest rank.  With ``least``, the percentile is
    the one for that many evaluations, so it does not change with the number
    of cycles a run finishes."""
    ordered = sorted(times)
    n = len(ordered)
    m = least or n
    p = max([q for q in TAIL_PERCENTILES if round(m * (100 - q) / 100, 9) >= 10], default=50)
    return p, ordered[max(0, math.ceil(round(p * n / 100, 9)) - 1)]


def end_to_end(cycles, scales, yardsticks, failed: int, digits: list[float],
               setup: dict) -> tuple[dict, list[str]]:
    times = [r[1] * k for c, ks in zip(cycles, scales) for r, k in zip(c, ks)]
    p, tail_s = tail(times, MIN_CYCLES * len(cycles[0]))
    every = [r[1] for c in cycles for r in c]
    values = {
        "evals_per_s": len(times) / sum(times),
        "eval_s_p50": statistics.median(times),
        "eval_s_tail": tail_s,
        "digits_min": min(digits) if digits else 0.0,
        "ok_frac": 1 - failed / len(every),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return values, [
        f"eval_s_tail is p{p} of {len(times)} evaluations, {len(cycles)} cycles",
        f"host speed: {len(yardsticks)} yardsticks, median {statistics.median(yardsticks):.4g} s "
        f"against {ys.NOMINAL_S} s nominal",
        f"unscaled, over every evaluation: {len(every) / sum(every):.4g} evals/s, "
        f"median {statistics.median(every):.4g} s",
    ]


def layer_metrics(tr: Tracer, setup: dict, plain_s: float, traced_s: float) -> dict[str, float]:
    spans = tr.spans
    by_id = {s.sid: s for s in spans}

    def under(span, name: str) -> bool:
        sid = span.parent
        while sid:
            if by_id[sid].name == name:
                return True
            sid = by_id[sid].parent
        return False

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    trig = [s for s in spans if s.name in ("functions.sin", "functions.cos")]
    autos = [s for s in spans if s.name == "zeta.zeta_auto"]
    rounds = {a.sid: [] for a in autos}
    for s in spans:
        if s.name == "zeta.zeta_em" and s.parent in rounds:
            rounds[s.parent].append(s.note[0])
    wasted = sum(sum(ns[:-1]) for ns in rounds.values())
    counted = [s.note for s in spans if s.name == "kernels.count_points_batch"]

    m = {f"rounding.{f}.calls": tr.count(f"rounding.{f}")
         for f in ("round_to", "add", "mul", "div", "cmp")}
    m.update({f"interval.{f}.calls": tr.count(f"interval.{f}")
              for f in ("mul", "div", "cmul", "interval")})
    m["interval.rd_per_mul"] = ratio(tr.direct("interval.mul", "rounding.mul"), tr.count("interval.mul"))
    m["interval.rd_per_div"] = ratio(tr.direct("interval.div", "rounding.div"), tr.count("interval.div"))
    m.update({f"functions.{f}.calls": tr.count(f"functions.{f}") for f in ("exp", "log", "neg_power")})
    m["functions.trig.calls"] = len(trig)
    m["functions.trig_per_neg_power"] = ratio(
        sum(under(s, "functions.neg_power") for s in trig), tr.count("functions.neg_power"))
    m["zeta.em_rounds_per_auto"] = ratio(sum(map(len, rounds.values())), len(autos))
    m["zeta.em_terms_wasted_frac"] = ratio(wasted, sum(map(sum, rounds.values())))
    for name in ("dirichlet.exp_integral", "dirichlet.erfc_enclosure", "dedekind.ideal_count"):
        m[f"{name}.self_s"] = tr.fn_self(name)
    m["characters.char_value.calls"] = tr.count("characters.char_value")
    m["exact.kronecker.calls"] = tr.count("exact.kronecker")
    m["kernels.primes_counted"] = sum(n for n, _ in counted)
    m["kernels.prime_sum"] = sum(total for _, total in counted)
    for layer in ("rounding", "interval", "functions", "zeta", "dirichlet", "characters",
                  "dedekind", "exact", "kernels", "elliptic"):
        m[f"{layer}.self_s"] = tr.layer_self(layer)
    m["setup.import_s"] = setup["import_s"]
    m["setup.constants_s"] = setup["constants_s"]
    m["trace.overhead_frac"] = traced_s / plain_s - 1
    return {k: m[k] for k in PER_LAYER}


def write_spans(tr: Tracer, workload: str, seed: int) -> Path:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{workload}-seed{seed}.jsonl"
    with path.open("w") as fh:
        for s in tr.spans:
            fh.write(json.dumps([s.sid, s.parent, s.eval_id, s.name, s.start, s.end,
                                 s.self_s, list(s.note)]) + "\n")
    return path


# -- one workload -----------------------------------------------------------------


def run_workload(zv, workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list]:
    """The result line's object, and notes to print before it."""
    setup = measure_setup(workload)
    fill_constants(zv, wl.precisions(workload))
    run_task(zv, wl.cycle(workload, seed, -1)[0])  # warm-up, on inputs never measured

    notes = []
    if not trace:
        cycles, scales, yardsticks = timed_run(zv, workload, seed, seconds)
        if workload in wl.RESCALED:
            notes.append("eval times are rescaled to the nominal host speed")
        else:
            notes.append("eval times are wall seconds, not rescaled")
            scales = [[1.0] * len(c) for c in cycles]
        records = [r for c in cycles for r in c]
        failed, digits = check_all(zv, records, seed, full=len(cycles[0]))
        values, cycle_notes = end_to_end(cycles, scales, yardsticks, failed, digits, setup)
        units = END_TO_END
        notes += cycle_notes
    else:
        tasks = wl.cycle(workload, seed, 0)
        plain = [(task, *run_task(zv, task)) for task in tasks]
        tr = Tracer(zv)
        tr.install()
        try:
            traced = []
            for i, task in enumerate(tasks):
                tr.eval_id = i + 1
                traced.append((task, *run_task(zv, task)))
        finally:
            tr.uninstall()
        records = plain + traced
        failed, _digits = check_all(zv, records, seed)
        values = layer_metrics(tr, setup, sum(r[1] for r in plain), sum(r[1] for r in traced))
        units = PER_LAYER
        notes.append(f"spans written to {write_spans(tr, workload, seed).relative_to(HERE.parent)}")
        notes += [f"{k} is 0: no such calls on {workload}" for k, v in values.items() if v == 0]

    for name, v in values.items():
        shown = f"{v:>16.6g}" if isinstance(v, float) else f"{v:>16}"
        print(f"{workload:>16} {name:<32} {shown} {units[name]}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }, notes


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode or not lines:
            print(f"{workload} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "zetaval" / "__init__.py").is_file():
        print(f"zetaval sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import zetaval

    result, notes = run_workload(zetaval, args.workload, args.seed, args.seconds, bool(args.trace))
    for note in notes:
        print(f"# {note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
