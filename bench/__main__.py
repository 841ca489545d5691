"""``python -m bench``: the repo's wall-clock benchmark.

Two ways in, one code path:

* ``--workload NAME --trace 0|1`` runs that workload in *this*
  interpreter and prints, as the last line of stdout, the JSON object
  the ``BENCHMARK.json`` contract asks for (``--trace 0``: every
  end-to-end metric; ``--trace 1``: every per-layer metric).
* without ``--trace`` (and with or without ``--workload``) it runs each
  workload's two passes in child interpreters of the form above, prints
  every metric by name with its unit, writes the merged result set to
  ``--json FILE`` and exits non-zero if any check failed.
"""

from __future__ import annotations

import argparse
import json
from contextlib import ExitStack
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench import RESULTS, ROOT, load_spec

SPEC = load_spec()
UNITS = {metric["name"]: metric["unit"]
         for metric in SPEC["end_to_end"] + SPEC["per_layer"]}

#: Timed repetitions without ``--seconds`` (the sim workload's are the
#: longest, so it gets fewer).
DEFAULT_REPS = 5
SIM_REPS = 3
MIN_TIMED_REPS = 3
SETUP_PROBES = 5


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for this long instead of a fixed "
                             "number of repetitions")
    parser.add_argument("--reps", type=int, default=None,
                        help=f"timed repetitions (default {DEFAULT_REPS}; "
                             f"{SIM_REPS} for cycle_sim_paper; 1 with "
                             "--quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run one pass in this interpreter")
    parser.add_argument("--quick", action="store_true",
                        help="1/20 size, one repetition (self-tests)")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="write the detailed result set here")
    args = parser.parse_args(argv)
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    return args


# ----------------------------------------------------------------------
# One workload, one pass, this interpreter
# ----------------------------------------------------------------------
def setup_probes(name: str, count: int) -> List[float]:
    """``setup_s`` samples, one fresh interpreter each (see
    bench/setup_probe.py), with the host's slowdown divided out."""
    from bench import harness

    samples = []
    before = harness.host_kernel()
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-m", "bench.setup_probe", name], cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True)
        seconds = float(done.stdout.strip().splitlines()[-1])
        after = harness.host_kernel(covering=seconds)
        samples.append(seconds / harness.slowdown(before, after))
        before = after
    return samples


def measure(workload, inputs, shared, seconds: Optional[float],
            reps: int):
    """One discarded warm-up repetition, then the timed ones, each
    bracketed by host-speed readings."""
    from bench import harness
    from bench.workloads import run_rep

    warm = run_rep(workload, inputs, shared)
    timed = []
    start = time.perf_counter()
    before = harness.host_kernel()
    while True:
        rep = run_rep(workload, inputs, shared)
        after = harness.host_kernel(covering=rep.wall_s)
        rep.slowdown = harness.slowdown(before, after)
        before = after
        timed.append(rep)
        if seconds is None:
            if len(timed) >= reps:
                break
        else:
            elapsed = time.perf_counter() - start
            # Stop when the next repetition would mostly overrun.
            if len(timed) >= MIN_TIMED_REPS and \
                    elapsed + 0.5 * elapsed / len(timed) > seconds:
                break
    return warm, timed


def run_leaf(args: argparse.Namespace) -> Dict[str, Any]:
    # Imported here, not at the top: the orchestrator needs neither
    # NumPy nor repro, only its children do.
    from bench import harness, layers
    from bench.workloads import QUICK_FACTOR, WORKLOADS

    workload = WORKLOADS[args.workload]
    shm_before = harness.shm_segments()
    reps = args.reps or (1 if args.quick else
                         SIM_REPS if not workload.replayable
                         else DEFAULT_REPS)
    started = time.perf_counter()
    inputs = workload.generate(args.seed,
                               QUICK_FACTOR if args.quick else 1.0)
    generate_s = time.perf_counter() - started
    workload.reference(inputs)
    per_layer: Dict[str, float] = {}
    also_failed = 0
    with ExitStack() as stack:
        shared = None
        if workload.persistent:
            shared = workload.open()
            stack.callback(workload.close, shared)
        warm, timed = measure(workload, inputs, shared, args.seconds, reps)
        if args.trace == 1:
            per_layer, also_failed = layers.traced_pass(
                workload, inputs, shared, warm, timed, generate_s)

    end_to_end = {
        "tuples_per_s": harness.summarize(
            [rep.tuples / (rep.wall_s / rep.slowdown) for rep in timed]),
        "cpu_s_per_mtuple": harness.summarize(
            [rep.cpu_s / rep.slowdown / (rep.tuples / 1e6)
             for rep in timed]),
        "sim_tuples_per_cycle": harness.summarize(
            [rep.sim_tuples_per_cycle for rep in timed]),
    }
    failed = sum(rep.failed for rep in [warm] + timed) + also_failed
    if args.trace == 0:
        probes = 1 if args.quick else SETUP_PROBES
        end_to_end["setup_s"] = harness.summarize(
            setup_probes(workload.name, probes))
    # Memory last, so the figure covers everything the pass did.
    end_to_end["peak_rss_mb"] = harness.summarize([
        (harness.self_peak_rss_kb()
         + max(rep.children_rss_kb for rep in [warm] + timed)) / 1024])

    leaks = harness.leak_audit(shm_before)
    if args.trace == 1:
        for kind, count in leaks.items():
            per_layer[f"harness.leaked_{kind}"] = count
    attempted = sum(rep.attempted for rep in [warm] + timed)
    end_to_end["failed_share"] = harness.summarize([failed / attempted])
    return {
        "workload": workload.name, "seed": args.seed, "quick": args.quick,
        "trace": args.trace, "reps": len(timed),
        "wall_s": [rep.wall_s for rep in timed],
        "cpu_s": [rep.cpu_s for rep in timed],
        "host_slowdown": [rep.slowdown for rep in timed],
        "correct": failed == 0 and not any(leaks.values()),
        "attempted": attempted, "failed": failed, "leaks": leaks,
        "result_digest": timed[-1].digest,
        "end_to_end": end_to_end, "per_layer": per_layer,
    }


def report_lines(result: Dict[str, Any]) -> List[str]:
    lines = []
    # The traced pass reports layers; its untraced repetitions are only
    # what it compares itself to.
    for name, stats in (result["end_to_end"].items()
                        if result["trace"] == 0 else ()):
        unit = UNITS.get(name, "share")
        lines.append(
            f"{result['workload']} {name} {stats['value']:.6g} {unit} "
            f"(q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, "
            f"n={stats['n']})")
    for name, value in result["per_layer"].items():
        lines.append(f"{result['workload']} {name} {value:.6g} "
                     f"{UNITS[name]}")
    return lines


def contract_line(result: Dict[str, Any]) -> str:
    """The last stdout line the ``BENCHMARK.json`` contract defines."""
    if result["trace"] == 1:
        wanted = [m["name"] for m in SPEC["per_layer"]]
        values = result["per_layer"]
    else:
        wanted = [m["name"] for m in SPEC["end_to_end"]]
        values = {name: stats["value"]
                  for name, stats in result["end_to_end"].items()}
    missing = [name for name in wanted if name not in values]
    if missing:
        raise SystemExit(f"bench: metrics not measured: {missing}")
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": UNITS[name]}
                    for name in wanted},
    })


# ----------------------------------------------------------------------
# Every workload, both passes, child interpreters
# ----------------------------------------------------------------------
def run_child(args: argparse.Namespace, workload: str,
              trace: int) -> Dict[str, Any]:
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        detail = Path(tmp) / "leaf.json"
        command = [sys.executable, "-m", "bench", "--workload", workload,
                   "--trace", str(trace), "--seed", str(args.seed),
                   "--json", str(detail)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.reps is not None:
            command += ["--reps", str(args.reps)]
        if args.quick:
            command.append("--quick")
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=600)
        for line in done.stdout.splitlines()[:-1]:
            print(line)
        if not detail.exists():  # crashed; a failed check still reports
            raise SystemExit(
                f"bench: {workload} --trace {trace} exited "
                f"{done.returncode} without a result")
        return json.loads(detail.read_text())


def run_all(args: argparse.Namespace) -> int:
    from bench import harness

    RESULTS.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else \
        [w["name"] for w in SPEC["workloads"]]
    merged: Dict[str, Any] = {
        "seed": args.seed, "quick": args.quick,
        "host": harness.fingerprint(), "workloads": {}}
    ok = True
    started = time.perf_counter()
    for name in names:
        timed, traced = run_child(args, name, 0), run_child(args, name, 1)
        ok = ok and timed["correct"] and traced["correct"]
        merged["workloads"][name] = {
            "correct": timed["correct"] and traced["correct"],
            "attempted": timed["attempted"], "failed": timed["failed"],
            "reps": timed["reps"], "wall_s": timed["wall_s"],
            "cpu_s": timed["cpu_s"],
            "host_slowdown": timed["host_slowdown"],
            "result_digest": timed["result_digest"],
            "end_to_end": timed["end_to_end"],
            "per_layer": traced["per_layer"],
        }
    digests = {name: merged["workloads"][name]["result_digest"]
               for name in ("histo_zipf_inline", "procshm_histo")
               if name in merged["workloads"]}
    if len(set(digests.values())) > 1:
        print("bench: procshm_histo result is not pickle-identical to "
              "histo_zipf_inline")
        ok = False
    merged["elapsed_s"] = time.perf_counter() - started
    if args.json:
        Path(args.json).write_text(json.dumps(merged, indent=1) + "\n")
    print(f"bench: {'OK' if ok else 'FAILED'} — {len(names)} workloads "
          f"in {merged['elapsed_s']:.1f} s")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.trace is None:
        return run_all(args)
    from bench import harness

    harness.adopt_orphans()
    # A polite kill unwinds through the ``finally`` too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run_leaf(args)
    finally:
        harness.reap_descendants()
    for line in report_lines(result):
        print(line)
    if args.json:
        Path(args.json).write_text(json.dumps(result) + "\n")
    print(contract_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
