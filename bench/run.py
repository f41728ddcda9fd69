"""proxyvote benchmark: run one workload, timed or traced, and print its metrics.

    python3 bench/run.py --workload mc-fresh --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload big-decide --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --workload mc-fresh --seed 1 --held-out
    python3 bench/run.py --scale-probe

Run from anywhere; the package is imported from this checkout's ``src/``.
Prints the environment record and one line per metric (name, value,
unit, sample count), then as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The metric names
and units are those of ``BENCHMARK.json``: its ``end_to_end`` list with
``--trace 0``, its ``per_layer`` list with ``--trace 1``.  Full results
(and the spans of a traced run) are written under ``bench/out/``.
"""

import time

_START = time.perf_counter()  # set-up time counts from here, before numpy is imported

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import harness

WORKLOADS = ("mc-fresh", "mc-fixed-w2", "big-decide")
#: set-ups per timed run: this process's own and SETUP_SAMPLES - 1 fresh processes
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 120
#: second element of the input key; development runs use 0, so no
#: held-out input equals an input seen while a change was written
HELD_OUT_TAG = 7919


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
    parser.add_argument("--held-out", action="store_true",
                        help="draw inputs from the held-out stream of --seed, to re-check a claim "
                        "on inputs not used while the change was written")
    parser.add_argument("--scale-probe", action="store_true",
                        help="predict and time generate/weights at n = 1e3, 1e4, 1e5, then exit")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.scale_probe:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def host_speed(reference: str) -> float:
    """The host's speed right after set-up (see ``workloads.Op``); the
    kernel's first run only warms it."""
    harness.reference_seconds(reference)
    return harness.REFERENCE_S[reference] / harness.reference_seconds(reference)


def child_setup_seconds(args) -> tuple[float, float]:
    """(set-up seconds, host speed) of a fresh process."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"] + (["--held-out"] if args.held_out else [])
    done = subprocess.run(argv, cwd=harness.ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise harness.BenchSetupError(f"set-up in a fresh process failed: {done.stderr.strip()}")
    last = json.loads(done.stdout.strip().splitlines()[-1])
    return last["setup_s"], last["host"]


def declared_metrics(trace: int) -> list[dict]:
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    args = parse_args(argv)
    harness.pin_blas_threads()
    try:
        harness.import_proxyvote()
    except harness.BenchSetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    if args.scale_probe:
        import scale

        return scale.main()

    import traced
    import workloads

    key = (args.seed, HELD_OUT_TAG if args.held_out else 0)
    workdir = harness.OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(args.workload, key, workdir)
        own_setup = (time.perf_counter() - _START, host_speed(wl.reference))
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup[0], "host": own_setup[1]}))
            return 0
        declared = declared_metrics(args.trace)
        if args.trace:
            layers, report = traced.run_traced(wl, args.seconds, workdir)
            attempted, failed = layers.attempted, layers.failed
        else:
            ops, report = wl.run_timed(args.seconds)
            attempted = len(ops) * wl.calls_per_op
            failed = sum(op.failed for op in ops) * wl.calls_per_op
            samples = [own_setup] + [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
            scaled = [seconds * host for seconds, host in samples]
            report["setup_s"] = (statistics.median(scaled), "s",
                                 f"median of {len(samples)} set-ups, at the usual host speed")
            report["setup_s.wall"] = (statistics.median(s for s, _ in samples), "s",
                                      f"median of {len(samples)} set-ups")
            report["failed_ratio"] = (failed / attempted, "ratio", f"{failed} of {attempted}")
    except harness.BenchSetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = harness.environment(args.workload, args.seed, args.held_out)
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit, note) in report.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} ({note})")

    out = {}
    for metric in declared:
        value, unit, _ = report[metric["name"]]
        if unit != metric["unit"]:
            print(f"bench: {metric['name']} measured in {unit}, declared {metric['unit']}", file=sys.stderr)
            return 2
        out[metric["name"]] = {"value": value, "unit": unit}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}

    stem = f"{args.workload}-seed{args.seed}{'-heldout' if args.held_out else ''}-trace{args.trace}"
    record = dict(result, env=env, report={k: list(v) for k, v in report.items()})
    if not args.trace:
        record["op_seconds"] = [op.seconds for op in ops]
        record["errors"] = [op.detail["error"] for op in ops if "error" in op.detail]
    (harness.OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        spans = {"fields": ["id", "parent", "trace_id", "name", "start_ns", "end_ns"],
                 "spans": layers.tracer.spans}
        (harness.OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
