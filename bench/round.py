"""One round of a workload, in a fresh process; prints one JSON line.

    python3 bench/round.py WORKLOAD SEED SPAWNED MODE

SPAWNED is the parent's time.monotonic() just before it started this
process, so that set-up time counts interpreter start-up and import.  MODE
is "plain" (a measured round), "traced" (spans around each layer) or
"reference" (the untraced twin of a traced round, for the overhead).
"""

import json
import os
import random
import resource
import subprocess
import sys
import time
from statistics import median

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [BENCH, SRC]

import session  # noqa: E402

CLI_TIMEOUT_S = 150
HELP_CALLS = 5


def _rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def _inputs(workload, seed):
    return random.Random("%s:%d" % (workload, seed))


def library_round(workload, seed, spawned, mode):
    import workloads
    ops = workloads.BUILDERS[workload](_inputs(workload, seed))
    tracer = None
    if mode == "traced":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install_layers(tracer)
    outputs, latencies, errors = [], [], []
    setup_s = time.monotonic() - spawned
    start = time.perf_counter()
    for op in ops:
        t = time.perf_counter()
        try:
            out = op.call()
        except Exception as err:  # a failed operation is counted, not fatal
            out = err
        latencies.append(time.perf_counter() - t)
        outputs.append(out)
    wall_s = time.perf_counter() - start
    rss = _rss_mb(resource.RUSAGE_SELF)
    result = {"setup_s": setup_s, "wall_s": wall_s, "latencies_s": latencies,
              "peak_rss_mb": rss, "traced_section_s": wall_s}
    if tracer is not None:
        tracer.close()
        result["layers"] = tracing.layer_metrics(tracer)
        result["spans"] = len(tracer.spans)
        result["span_list"] = tracer.spans
    failed = 0
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            failed += 1
            errors.append("%s raised %s: %s" % (op.kind, type(out).__name__, out))
            continue
        reason = op.check(out)
        if reason:
            errors.append(reason)
    result.update(attempted=len(ops), failed=failed,
                  correct=len(errors) == failed, errors=errors)
    return result


def _cli(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "hgrcalc.cli"] + argv, env=env,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    return time.perf_counter() - t, proc


def _suite_in_process(traced):
    """One pass over suite.CRITERIA, with or without layer spans."""
    from hgrcalc import suite
    tracer = None
    if traced:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install_layers(tracer)
    start = time.perf_counter()
    for fn in suite.CRITERIA:
        name = "suite.%s" % fn.__name__[len("criterion_"):].replace("_", "-")
        if tracer is not None:
            fn = tracer.span(name, fn)
        res = fn()
        if not res["ok"]:
            raise RuntimeError("suite criterion %s failed in process" % name)
    total = time.perf_counter() - start
    layers = {}
    if tracer is not None:
        tracer.close()
        layers = tracing.layer_metrics(tracer)
    return total, layers, tracer


def cli_round(seed, spawned, mode):
    if mode == "reference":
        total, _, _ = _suite_in_process(False)
        return {"traced_section_s": total, "attempted": 1, "failed": 0,
                "correct": True, "errors": []}
    calls = session.build_cli_session(_inputs("cli-session", seed))
    _cli(["--help"])  # warm-up: file cache and bytecode, untimed
    setup_s = time.monotonic() - spawned
    latencies, procs = [], []
    start = time.perf_counter()
    for call in calls:
        dt, proc = _cli(call.argv)
        latencies.append(dt)
        procs.append(proc)
    wall_s = time.perf_counter() - start
    errors, failed = [], 0
    for call, proc in zip(calls, procs):
        reason = call.check(proc.returncode, proc.stdout, proc.stderr)
        if reason:
            if call.kind.startswith("invalid-"):
                failed += 1
            errors.append(reason)
    result = {"setup_s": setup_s, "wall_s": wall_s, "latencies_s": latencies,
              "peak_rss_mb": _rss_mb(resource.RUSAGE_CHILDREN),
              "attempted": len(calls), "failed": failed,
              "correct": len(errors) == failed, "errors": errors}
    if mode == "traced":
        startup = median([_cli(["--help"])[0] for _ in range(HELP_CALLS)])
        total, layers, tracer = _suite_in_process(True)
        layers["cli.startup_s"] = startup
        layers["cli.suite_s"] = next(dt for call, dt in zip(calls, latencies)
                                     if call.kind == "suite")
        result.update(traced_section_s=total, layers=layers,
                      spans=len(tracer.spans), span_list=tracer.spans)
    return result


def main():
    workload, seed, spawned, mode = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
    if workload == "cli-session":
        result = cli_round(seed, spawned, mode)
    else:
        result = library_round(workload, seed, spawned, mode)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
