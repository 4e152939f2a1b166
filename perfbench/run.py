"""omegacount benchmark: three workloads, end to end or traced by layer.

    python3 perfbench/run.py --workload pipeline-lifts --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each run starts fresh interpreters (one workload at a time, one thread
each): SETUP_REPEATS - 1 that only set up, to sample set-up time, then
one that sets up and measures.  The library comes from `src/` of the
checkout this file sits in.  With --trace 0 the last line of output is
one JSON object carrying the end-to-end metrics; with --trace 1 it
carries the per-layer metrics of a traced run.  Rows for people are
printed above it.  The exit code is not 0 when a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from bench_trace import metric_unit

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "workload.py")
WORKLOADS = ("pipeline-lifts", "complement-sweep", "cli-chain")
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170

# the end-to-end metrics of BENCHMARK.json and their units
END_TO_END = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB"}
# printed beside the end-to-end metrics, under the names each workload uses
WORK_NAMES = {
    "pipeline-lifts": ("cert_steps_per_s", "lift", "ms", 1.0),
    "complement-sweep": ("verdicts_per_s", "verdict", "us", 1000.0),
    "cli-chain": ("run_steps_checked_per_s", "chain", "ms", 1.0),
}


class ChildFailed(RuntimeError):
    pass


def child(workload: str, seed: int, seconds: float, trace: int,
          setup_only: bool, deadline: float) -> dict:
    t0 = time.perf_counter()
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--t0", repr(t0)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload}: timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(child(workload, seed, seconds, 0, True, deadline)["setup_s"])
    result = child(workload, seed, seconds, trace, False, deadline)
    setups.append(result["setup_s"])
    result["setup_s"] = statistics.median(setups)
    return result


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def row(workload: str, r: dict) -> str:
    work_name, op_name, op_unit, scale = WORK_NAMES[workload]
    tail = "-" if r["op_tail_ms"] is None else (
        f"{_fmt(r['op_tail_ms'] * scale)} {op_unit} "
        f"(p{r['op_tail_pct']:.2f} of {r['ops_sampled']} sampled from {r['ops_timed']})")
    ratio = r["failed"] / r["attempted"]
    fields = [f"{name}={_fmt(r[name])} {unit}" for name, unit in END_TO_END.items()]
    fields += [
        f"wall_s={_fmt(r['wall_s'])} s",
        f"ref_ms={_fmt(r['ref_ms'])} ms (mean of {r['ref_samples']})",
        f"build_s={_fmt(r['build_s'])} s",
        f"{work_name}={_fmt(r['work_per_s'])} 1/s",
        f"{op_name}_p50_{op_unit}={_fmt(r['op_p50_ms'] * scale)} {op_unit}",
        f"{op_name}_tail_{op_unit}={tail}",
        f"built_states={r['built_states']} count",
        f"built_transitions={r['built_transitions']} count",
        f"op_fail_ratio={_fmt(ratio)} (ops_attempted={r['attempted']})",
        f"passes={r['passes']}",
    ]
    fields += [f"{kind}_p50_ms={_fmt(ms)} ms" for kind, ms in r["kind_p50_ms"].items()]
    return f"{workload}: " + "  ".join(fields)


def trace_report(workload: str, r: dict) -> list[str]:
    wall = r["traced_wall_s"]
    top = sorted(r["self_s_by_span"].items(), key=lambda kv: -kv[1])[:8]
    fileio_self = sum(v for k, v in r["self_s_by_span"].items() if k.startswith("fileio."))
    fileio_all = sum(v for k, v in r["inclusive_s_by_span"].items() if k.startswith("fileio."))
    lines = [
        f"{workload} traced: wall {wall:.4f} s, harness {r['harness_s']:.4f} s, "
        f"self-time sum error {r['self_sum_error_s']:.3g} s, "
        f"tracing overhead {r['overhead_s']:.4f} s on pass 0 "
        f"(untraced {', '.join(f'{u:.4f}' for u in r['untraced_pass0_s'])} s), "
        f"fileio {100 * fileio_self / wall:.1f}% of wall by self time, "
        f"{100 * fileio_all / wall:.1f}% with the automaton validation inside loads, "
        f"spans in {r['spans_file']}",
    ]
    lines += [f"  {name:48s} {secs:9.4f} s  {100 * secs / wall:5.1f}%" for name, secs in top]
    return lines


def contract_line(r: dict, trace: int) -> dict:
    if trace:
        metrics = {name: {"value": value, "unit": metric_unit(name)}
                   for name, value in r["layers"].items()}
        correct = r["failed"] == 0 and abs(r["self_sum_error_s"]) < 1e-6
    else:
        metrics = {name: {"value": r[name], "unit": unit} for name, unit in END_TO_END.items()}
        correct = r["failed"] == 0
    return {"correct": correct, "attempted": r["attempted"], "failed": r["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "omegacount", "__init__.py")):
        print(f"perfbench: no omegacount sources under {ROOT}/src", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            r = measure(name, args.seed, args.seconds, args.trace)
            results[name] = r
            print(row(name, r), flush=True)
            for err in r["errors"]:
                print(f"  failure: {err}", flush=True)
            if args.trace:
                print("\n".join(trace_report(name, r)), flush=True)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps({name: contract_line(r, args.trace) for name, r in results.items()}))
    else:
        print(json.dumps(contract_line(results[args.workload], args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
