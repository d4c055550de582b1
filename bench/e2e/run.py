#!/usr/bin/env python3
"""End-to-end benchmark of the Mirage DSM simulator.

Run from the repository root:

  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
      One measured run of one workload. The last line of stdout is a JSON
      object: end-to-end metrics with --trace 0, per-layer ones with --trace 1.
  python3 bench/e2e/run.py [--seed N] [--seconds S] [--out FILE]
      Every workload. Prints `workload metric value unit` for every metric
      and writes a result file (default build/e2e/result-seed<N>.json).
  python3 bench/e2e/run.py --selftest
  python3 bench/e2e/run.py --compare BASE_DIR,CHANGE_DIR
      Compares two sets of result files, pairing them in name order.

--trace-out FILE also writes the traced pass as Chrome trace-event JSON.

Every mode builds bench/e2e in Release into build/e2e first. A measured run
repeats the workload in fresh child processes, untraced, for --seconds of
wall time, then runs it once more traced. The untraced children give host
time, set-up time and memory; the traced child gives every simulated-time
metric. All children must report the same fingerprint. README.md explains
the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / "build" / "e2e"
BINARY = BUILD / "e2e_bench"
CHILD_TIMEOUT_S = 150
MIN_REPS = 3
# A gain is claimed only from at least this many base/change pairs.
MIN_CLAIM_PAIRS = 10
FINGERPRINT = ("sim_now_us", "events", "packets", "sim_tput")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fast_half_mean(values):
    """Mean of the faster half. Other tenants of a shared host only ever slow
    a run down, so the faster half holds less of their noise than the median."""
    fast = sorted(values)[:max(1, len(values) // 2)]
    return sum(fast) / len(fast)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(BUILD), "-j", jobs]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout)
            raise SystemExit(f"build failed: {' '.join(cmd)}")


def selftest():
    done = subprocess.run([str(BINARY), "--selftest"], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        log(done.stdout + done.stderr)
        raise SystemExit("selftest failed")


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_child(workload, seed, traced, trace_out=None):
    """Runs one pass in a fresh process and returns its report, with
    `setup_s` measured from just before the process was started."""
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--pass={'traced' if traced else 'untraced'}"]
    if trace_out:
        cmd.append(f"--trace-out={trace_out}")
    start = time.monotonic()
    try:
        # On timeout the child is killed and waited for before this raises.
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: child ran longer than {CHILD_TIMEOUT_S} s")
    try:
        report = json.loads(child.stdout)
    except json.JSONDecodeError:
        raise SystemExit(f"{workload}: child exited {child.returncode} without a report")
    report["setup_s"] = report["setup_end_mono_s"] - start
    if child.returncode != 0 and not report["errors"]:
        report["errors"].append(f"exit status {child.returncode}")
    return report


def measure(workload, seed, seconds, trace_out=None):
    """Untraced repetitions for `seconds` of wall time, then one traced run.

    Returns (correct, attempted, failed, metrics) with every end-to-end and
    per-layer metric by name.
    """
    untraced = []
    start = time.monotonic()
    while len(untraced) < MIN_REPS or time.monotonic() - start < seconds:
        untraced.append(run_child(workload, seed, traced=False))
    traced = run_child(workload, seed, traced=True, trace_out=trace_out)
    children = untraced + [traced]

    errors = [f"{r['pass']}: {e}" for r in children for e in r["errors"]]
    base = traced["fingerprint"]
    for r in untraced:
        diff = [k for k in FINGERPRINT if r["fingerprint"][k] != base[k]]
        if diff:
            errors.append(f"untraced fingerprint differs from traced in {', '.join(diff)}")
            break
    for e in errors:
        log(f"{workload}: {e}")

    host_s = fast_half_mean([r["host_s"] for r in untraced])
    metrics = dict(traced["metrics"])
    metrics.update({
        "host_s": host_s,
        "setup_s": statistics.median(r["setup_s"] for r in untraced),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "sim.workers_effective": untraced[0]["metrics"]["sim.workers_effective"],
        "sim.host_ns_per_event": host_s / untraced[0]["metrics"]["sim.events"] * 1e9,
        "sim.trace_overhead": traced["host_s"] / host_s,
    })
    attempted = sum(r["attempted"] for r in children)
    failed = sum(r["failed"] for r in children)
    return not errors and failed == 0, attempted, failed, metrics


def select(metrics, defs):
    missing = [d["name"] for d in defs if d["name"] not in metrics]
    if missing:
        raise SystemExit(f"metrics not produced: {', '.join(missing)}")
    return {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in defs}


def run_one(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise SystemExit(f"unknown workload {args.workload}; choose from {', '.join(names)}")
    correct, attempted, failed, metrics = measure(args.workload, args.seed, args.seconds,
                                                  args.trace_out)
    defs = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": select(metrics, defs)}))
    return 0 if correct else 1


def run_all(args, spec):
    defs = spec["end_to_end"] + spec["per_layer"]
    result = {"seed": args.seed, "seconds": args.seconds, "host_cores": os.cpu_count(),
              "workloads": {}}
    all_correct = True
    for w in spec["workloads"]:
        name = w["name"]
        trace_out = f"{args.trace_out}.{name}.json" if args.trace_out else None
        correct, attempted, failed, metrics = measure(name, args.seed, args.seconds, trace_out)
        all_correct &= correct
        values = select(metrics, defs)
        result["workloads"][name] = {"correct": correct, "attempted": attempted,
                                     "failed": failed, "metrics": values}
        for metric, v in values.items():
            print(f"{name} {metric} {v['value']:.6g} {v['unit']}")
        print(f"{name} correct {str(correct).lower()} - attempted {attempted} failed {failed}")
    out = Path(args.out) if args.out else BUILD / f"result-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    log(f"wrote {out}")
    return 0 if all_correct else 1


# ---------------------------------------------------------------------------
# --compare


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, change, better, bound):
    """improved / worse / unresolved / unchanged, by the rules in README.md."""
    sign = 1 if better == "higher" else -1
    mb, mc = statistics.median(base), statistics.median(change)
    b1, b3 = quartiles(base)
    c1, c3 = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    gain = sign * (mc - mb)
    if len(pairs) >= MIN_CLAIM_PAIRS and wins >= 0.9 * len(pairs) and gain > b3 - b1:
        return "improved"
    if -gain > bound * abs(mb):
        return "worse"
    spread = max((b3 - b1) / abs(mb) if mb else 0, (c3 - c1) / abs(mc) if mc else 0)
    if spread > bound and not all(sign * (c - b) > 0 for c in change for b in base):
        return "unresolved"
    return "unchanged"


def compare(arg, spec):
    sides = arg.split(",")
    if len(sides) != 2:
        raise SystemExit("--compare takes BASE_DIR,CHANGE_DIR")
    runs = []
    for side in sides:
        files = sorted(Path(side).glob("*.json"))
        if not files:
            raise SystemExit(f"no result files in {side}")
        runs.append([json.loads(f.read_text()) for f in files])
    base, change = runs
    if len(base) != len(change):
        log(f"unequal sides ({len(base)} vs {len(change)}); pairing the first "
            f"{min(len(base), len(change))}")
    print(f"{'workload':12} {'metric':14} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34}  verdict")
    worse = 0
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            b = [r["workloads"][w["name"]]["metrics"][m["name"]]["value"] for r in base]
            c = [r["workloads"][w["name"]]["metrics"][m["name"]]["value"] for r in change]
            v = verdict(b, c, m["better"], m["bound"])
            worse += v == "worse"
            cells = []
            for vals in (b, c):
                q1, q3 = quartiles(vals)
                cells.append(f"{statistics.median(vals):.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"{w['name']:12} {m['name']:14} {cells[0]:>34} {cells[1]:>34}  {v}")
    return 1 if worse else 0


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-out")
    p.add_argument("--out")
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--compare")
    args = p.parse_args()
    if args.compare:
        return compare(args.compare, spec)
    build()
    selftest()
    if args.selftest:
        print("selftest ok")
        return 0
    if args.workload:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
