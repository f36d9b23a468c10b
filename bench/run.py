#!/usr/bin/env python3
"""Run one godex benchmark workload and print its metrics.

    python3 bench/run.py --workload theorem-literal --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all            # every workload, one process each

Run it from the root of a checkout; godex is imported from `src/` without
being installed.  With `--trace 0` the last line of stdout is a JSON object
with the end-to-end metrics; with `--trace 1` it carries the per-layer
metrics of a traced run instead.  Run reports and span archives go to
`bench/out/`.  See bench/README.md for the workloads and the metrics.
"""

import os

# One BLAS thread for every run; see README.md ("BLAS threads").  This has
# to happen before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
GODEX_MODULES = ("exactlin", "complexes", "cosimplicial", "site", "godement",
                 "filtered", "oracle")
MIN_VERDICTS = 100   # an untraced run holds at least this many verdicts (for p90)
MIN_PASSES = 2       # and at least this many passes (for the median rate)
EXTRA_SETUPS = 2     # set-ups timed before the first pass, on top of one per pass
PROBE_EVERY_S = 0.1  # seconds of verdict time between two calibration probes

END_TO_END = (("instances_per_s", "1/s"), ("verdict_s.p50", "s"), ("verdict_s.p90", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))


def import_godex():
    """Import godex afresh from the checkout's src/, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "godex" or n.startswith("godex.")]:
        del sys.modules[name]
    importlib.import_module("godex")
    return SimpleNamespace(**{m: importlib.import_module("godex." + m)
                              for m in GODEX_MODULES})


def run_workload(name, seed, seconds, trace, limit=None, min_verdicts=MIN_VERDICTS):
    import workloads as W
    from calibration import probe, slowdown
    from tracing import LAYER_METRICS, Tracer, pass_layers

    tracer = Tracer() if trace else None
    setups, setup_slow, pass_times, pass_slow = [], [], [], []
    pass_summaries, layer_rows = [], []
    raised = 0

    def setup():
        gc.collect()
        setup_slow.append(slowdown([probe() for _ in range(5)]))
        t0 = time.perf_counter()
        g = import_godex()
        insts = W.BUILDERS[name](g, seed)[:limit]
        setups.append(time.perf_counter() - t0)
        return g, insts

    for _ in range(EXTRA_SETUPS):
        setup()
    while True:
        g, insts = setup()
        if tracer:
            tracer.install(g)
            before = tracer.snapshot()
        outs, times, probes = [], [], [probe()]
        since_probe = 0.0
        for i, inst in enumerate(insts):
            if since_probe >= PROBE_EVERY_S:
                probes.append(probe())
                since_probe = 0.0
            gc.collect()  # so no verdict pays for an earlier one's garbage
            if tracer:
                tracer.instance = i
                tracer.active = True
            t = time.perf_counter()
            try:
                outs.append(W.verdict(g, inst))
            except Exception:
                traceback.print_exc()
                outs.append(None)
                raised += 1
            times.append(time.perf_counter() - t)
            if tracer:
                tracer.active = False
            since_probe += times[-1]
        if tracer:
            layer_rows.append(pass_layers(before, tracer.snapshot(), sum(times)))
        pass_times.append(times)
        pass_slow.append(slowdown(probes))
        pass_summaries.append([None if o is None else o[0] for o in outs])
        verdicts = sum(map(len, pass_times))
        if sum(map(sum, pass_times)) >= seconds and (
                trace or (verdicts >= min_verdicts and len(pass_times) >= MIN_PASSES)):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Every time is scaled to the reference machine speed (see calibration.py).
    scaled = [[t / k for t in ts] for ts, k in zip(pass_times, pass_slow)]
    rates = [len(ts) / sum(ts) for ts in scaled]

    # Checks, outside the timed region: the last pass against independent
    # computations, every earlier pass against the last.
    failed_checks = []
    for i, inst in enumerate(insts):
        ok = outs[i] is not None
        if ok:
            try:
                ok = W.check_instance(g, inst, *outs[i])
            except Exception:
                traceback.print_exc()
                ok = False
        for p, summaries in enumerate(pass_summaries):
            if summaries[i] is None:
                continue  # already counted as raised
            if not ok or summaries[i] != pass_summaries[-1][i]:
                failed_checks.append((p, inst.key))
    controls = {}
    for key, control in W.controls(g, name).items():
        try:
            controls[key] = bool(control())
        except Exception:
            traceback.print_exc()
            controls[key] = False
    failed_controls = [k for k, ok in controls.items() if not ok]
    attempted = verdicts + len(controls)
    failed = raised + len(failed_checks) + len(failed_controls)
    correct = not failed_checks and not failed_controls

    if trace:
        metrics = {}
        for metric, unit in LAYER_METRICS:
            if metric == "trace.instances_per_s":
                value = statistics.median(rates)
            else:
                value = statistics.median(r.get(metric, 0) for r in layer_rows)
            metrics[metric] = {"value": value, "unit": unit}
    else:
        times = [t for ts in scaled for t in ts]
        values = {
            "instances_per_s": statistics.median(rates),
            "verdict_s.p50": statistics.median(times),
            "verdict_s.p90": statistics.quantiles(times, n=10)[-1],
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(t / k for t, k in zip(setups, setup_slow)),
        }
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "instances": [inst.key for inst in insts], "passes": len(rates),
        "pass_rates": rates, "pass_slowdown": pass_slow, "setup_slowdown": setup_slow,
        "raw_setup_s": setups, "raw_verdict_s": pass_times,
        "controls": controls, "failed_checks": failed_checks,
        "machine": machine_facts(), **result,
    }
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    if tracer:
        report["layers_per_pass"] = layer_rows
        tracer.write(OUT_DIR / f"trace-{name}.npz")
    (OUT_DIR / f"report-{tag}.json").write_text(json.dumps(report) + "\n")
    return result


def machine_facts():
    import numpy as np
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "numpy": np.__version__, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}
    try:
        facts["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        pass
    return facts


def print_human(name, result):
    print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for metric, v in result["metrics"].items():
        print(f"  {metric:38s} {v['value']:.6g} {v['unit']}")


def run_all(args):
    """Each workload in its own fresh process; one summary line at the end."""
    import workloads as W
    results = {}
    for name in W.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print_human(name, results[name])
    print(json.dumps(results))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="theorem-literal, theorem-reduced, derived, axioms or all")
    ap.add_argument("--seed", type=int, default=0,
                    help="0 runs the acceptance-suite instances as they are")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measure whole passes until this much timed work is done")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=None,
                    help="only the first LIMIT instances of each pass (self-test)")
    ap.add_argument("--min-verdicts", type=int, default=MIN_VERDICTS,
                    help="least number of verdicts in an untraced run")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "godex" / "__init__.py").is_file():
        print(f"no godex sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads as W
    if args.workload == "all":
        return run_all(args)
    if args.workload not in W.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(W.WORKLOADS)}")
    import numpy  # noqa: F401  (imported before set-up is timed; see README.md)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          limit=args.limit, min_verdicts=args.min_verdicts)
    print_human(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
