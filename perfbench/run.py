"""minismt benchmark: three seeded, single-process, closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, untraced then traced

Run from the root of a checkout. Each workload runs in a fresh child
process (perfbench/workloads.py), one at a time; its peak resident set
size comes from getrusage(RUSAGE_CHILDREN) once the child has ended.
Readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. --trace 0
reports the end-to-end metrics, with times at the reference machine speed
of speed.py; --trace 1 the per-layer ones from a separate traced pass.
Exits 1 when an output check fails and 2 when the program under test is
missing.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("toy-pipeline", "decode-long", "train-large")
REQUIRED = (ROOT / "src" / "minismt" / "__init__.py", ROOT / "scripts" / "generate_toy_corpus.py")
CHILD_TIMEOUT_S = 170


def _child_env():
    env = dict(os.environ)
    # the same hash order, and so the same dict and set layouts, in every run
    env["PYTHONHASHSEED"] = "0"
    return env


def run_workload(name, seed, seconds, trace):
    """Run one workload in a fresh child.

    Returns (attempted, failed, metrics, report, problems); metrics and
    report map names to (value, unit), problems lists failed output checks.
    """
    scratch = ROOT / ".perfbench" / ("run-%s-%d-%d" % (name, seed, os.getpid()))
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    out = scratch / "result.json"
    try:
        child = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace), "--scratch", str(scratch / "w"),
             "--out", str(out)],
            cwd=ROOT, env=_child_env(), stdout=sys.stderr, timeout=CHILD_TIMEOUT_S,
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        if child.returncode != 0 or not out.is_file():
            raise RuntimeError("workload %s exited with %d" % (name, child.returncode))
        result = json.loads(out.read_text("utf-8"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    setup_wall_s = statistics.median(result["setup_times"])
    report = {"setup_wall_s": (setup_wall_s, "s"),
              "words_per_wall_s": (result["words_per_s"], "words/s")}
    if trace:
        metrics = result["layers"]
    else:
        # times at the reference machine speed (speed.py)
        metrics = {
            "setup_s": (setup_wall_s / result["setup_slowdown"], "s"),
            "words_per_s": (result["words_per_s"] * result["pass_slowdown"], "words/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        report["setup_slowdown"] = (result["setup_slowdown"], "ratio")
        report["pass_slowdown"] = (result["pass_slowdown"], "ratio")
    report.update(result["report"])
    report["error_rate"] = (result["failed"] / result["attempted"], "ratio")
    report["passes"] = (len(result["pass_times"]), "count")
    return result["attempted"], result["failed"], metrics, report, result["problems"]


def _print_block(title, metrics, report, problems):
    print("== %s" % title)
    for name, (value, unit) in list(metrics.items()) + list(report.items()):
        print("  %-34s %14.6g %s" % (name, value, unit))
    for problem in problems:
        print("  CHECK FAILED: %s" % problem)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=20240601)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print("error: run from a minismt checkout; missing %s" % ", ".join(missing),
              file=sys.stderr)
        return 2

    if args.workload != "all":
        attempted, failed, metrics, report, problems = run_workload(
            args.workload, args.seed, args.seconds, args.trace)
        correct = not problems
        title = "%s, seed %d%s" % (args.workload, args.seed, ", traced" if args.trace else "")
        _print_block(title, metrics, report, problems)
        print(json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
        }))
        return 0 if correct else 1

    # every workload untraced then traced, each through its own run.py so that
    # each child's peak RSS is its own
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                last = json.loads(lines[-1])
            except (IndexError, ValueError):
                last = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            summary["correct"] = summary["correct"] and last["correct"] and child.returncode == 0
            if not trace:
                summary["attempted"] += last["attempted"]
                summary["failed"] += last["failed"]
            summary["metrics"].update(
                {"%s/%s" % (name, k): v for k, v in last["metrics"].items()})
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
