"""Benchmark for hgrcalc: one workload, one seed, checked outputs.

    python3 bench/run.py --workload grass-products --seed 1 --seconds 42 --trace 0

The run repeats whole rounds of the workload's fixed, seeded operations,
each round in a fresh process started one at a time, until the next round
would end past --seconds.  Every output of every round is checked (see
bench/checkers.py).  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, each the median over
the rounds (op_p50_ms: the median of every operation of the run).  With
--trace 1 the run alternates untraced reference rounds with traced rounds,
ends with one more reference round, and prints the per-layer metrics
(medians over the traced rounds) and the tracing overhead; it never reports
end-to-end figures.  Per-run outputs
and span traces go to bench/out/.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from statistics import median

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
# A run must end within 180 s, whatever a round does.
RUN_LIMIT_S = 170
MAX_SECONDS = 120

WORKLOADS = ("grass-products", "matrix-algebra", "cli-session")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("peak_rss_mb", "MB"))

SUITE_CRITERIA = ("grassmannian-rank", "qpbt-small", "recurrence", "schur-oracle",
                  "restriction", "class-identities", "tau-consistency", "ko1",
                  "ksp1-witness", "koszul-suite", "matrix-suite", "tower-suite",
                  "eps-algebra")


def _layer_metrics():
    out = []
    for name in ("grassring.mul", "grassring.normal_form",
                 "symfun.schur_in_elementary", "symfun.poly_to_schur_coords"):
        out += [(name + "_s", "s"), (name + "_calls", "count")]
    out += [("symfun.monomial_cache_hits", "count"),
            ("symfun.monomial_cache_misses", "count"),
            ("polynomial.bareiss_det_s", "s"), ("polynomial.bareiss_det_calls", "count"),
            ("forms.sp_reduce_unimodular_s", "s"),
            ("forms.sp_reduce_unimodular_calls", "count"),
            ("forms.transvections", "count")]
    for name in ("forms.diagonalize", "forms.square_class",
                 "towers.smith_normal_form", "towers.hermite_column_form"):
        out += [(name + "_s", "s"), (name + "_calls", "count")]
    out += [("chainduality.koszul_s", "s"), ("chainduality.koszul_tensor_isometry_s", "s"),
            ("cli.startup_s", "s"), ("cli.suite_s", "s")]
    out += [("suite.%s_s" % c, "s") for c in SUITE_CRITERIA]
    out += [("trace.overhead_pct", "%")]
    return tuple(out)


LAYER_METRICS = _layer_metrics()


def run_round(workload, seed, mode, timeout):
    """One round in a fresh process group; the whole group is killed if the
    round outlives `timeout` seconds."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "round.py"), workload, str(seed),
         repr(spawned), mode],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("bench: %s round ran past the time limit" % workload)
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit("bench: %s round exited %d" % (workload, proc.returncode))
    result = json.loads(out.strip().splitlines()[-1])
    result["round_s"] = time.monotonic() - spawned
    return result


def run_rounds(workload, seed, seconds, modes):
    """Rounds cycling through `modes` until the next cycle would end past
    `seconds`; always at least one full cycle."""
    start = time.monotonic()
    rounds = []
    while True:
        for mode in modes:
            r = run_round(workload, seed, mode,
                          RUN_LIMIT_S - (time.monotonic() - start))
            r["mode"] = mode
            rounds.append(r)
        cycles = len(rounds) // len(modes)
        cycle_s = (time.monotonic() - start) / cycles
        if time.monotonic() - start + cycle_s > seconds:
            return rounds


def summarize(workload, seed, seconds, trace):
    if trace:
        rounds = run_rounds(workload, seed, seconds, ("reference", "traced"))
        rounds.append(dict(run_round(workload, seed, "reference",
                                     RUN_LIMIT_S - sum(r["round_s"] for r in rounds)),
                           mode="reference"))
        counted = [r for r in rounds if r["mode"] == "traced"]
        reference = [r for r in rounds if r["mode"] == "reference"]
        metrics = {}
        for name, unit in LAYER_METRICS[:-1]:
            values = [r["layers"].get(name, 0) for r in counted]
            metrics[name] = {"value": median(values), "unit": unit}
        # each traced round against the mean of the reference rounds just
        # before and after it, so that a steady drift of the machine cancels
        overhead = 100.0 * (median([
            2 * t["traced_section_s"] / (before["traced_section_s"] + after["traced_section_s"])
            for before, t, after in zip(reference, counted, reference[1:])]) - 1.0)
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    else:
        rounds = counted = run_rounds(workload, seed, seconds, ("plain",))
        metrics = {name: {"value": median([r[name] for r in counted]), "unit": unit}
                   for name, unit in END_TO_END if name != "op_p50_ms"}
        latencies = [t for r in counted for t in r.pop("latencies_s")]
        metrics["op_p50_ms"] = {"value": 1000 * median(latencies), "unit": "ms"}
    errors = [e for r in counted for e in r["errors"]]
    summary = {"correct": all(r["correct"] for r in counted),
               "attempted": sum(r["attempted"] for r in counted),
               "failed": sum(r["failed"] for r in counted),
               "metrics": metrics}
    return summary, rounds, errors


def write_outputs(workload, seed, trace, summary, rounds, errors):
    os.makedirs(OUT, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (workload, seed, trace)
    spans = None
    for r in rounds:
        spans = r.pop("span_list", spans)
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"summary": summary, "rounds": rounds, "errors": errors}, fh,
                  indent=1, sort_keys=True)
    if spans is not None:
        with open(os.path.join(OUT, "trace-%s-seed%d.json" % (workload, seed)), "w",
                  encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": spans}, fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hgrcalc", "cli.py")):
        sys.stderr.write("bench: no hgrcalc sources under %s\n" % os.path.join(ROOT, "src"))
        return 2
    if not 1 <= args.seconds <= MAX_SECONDS:
        sys.stderr.write("bench: --seconds must be from 1 to %d\n" % MAX_SECONDS)
        return 2
    summary, rounds, errors = summarize(args.workload, args.seed, args.seconds,
                                        bool(args.trace))
    write_outputs(args.workload, args.seed, args.trace, summary, rounds, errors)
    for e in errors:
        sys.stderr.write("bench: %s\n" % e)
    print("%s seed %d: %d rounds, %d operations, %d failed, correct=%s" % (
        args.workload, args.seed, len(rounds), summary["attempted"],
        summary["failed"], summary["correct"]))
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
