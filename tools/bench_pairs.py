"""Run perfbench on two checkouts in alternating pairs and write BENCH_<PR>.json.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pr 12 \
        --runs sheaf-ops:11:10 sheaf-ops:12:3 grassmann-search:11:3 --seconds 10

Each side is a git revision, exported with `git archive` into a fresh
directory, so it runs from its committed files alone.  A --runs entry is
WORKLOAD:SEED:PAIRS.  Pair i runs the parent first when i is odd and the
change first when i is even, one process at a time, with
`python3 perfbench/run.py --trace 0` from the root of each side.
--trace WORKLOAD:SEED adds one traced run per side.  --cli "ARGS" runs
`python3 -m sheafkit.cli ARGS` once per side, parent first, from the root
of the repository with each side's src on the path, and records its exit
code, wall time, peak RSS and the sha256 of its stdout.  A bare
interpreter launches it: the peak RSS a parent reads for its child counts
the parent's resident size at the fork, so that interpreter's own peak,
the floor of the figure, goes beside it as `launcher_rss_mb`:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pr 15 \
        --runs grassmann-search:11:10 --cli "classify --space \
        tools/inputs/pseudo_circle.json --ring tools/inputs/f2.json -n 2 -N 6"

The output keeps every run's summary line and result, and per workload and
seed the median and quartiles of each end-to-end metric on each side and
the pairs the change won (ties count for neither side).  `src_lines` gives
each side's line count of src/sheafkit/*.py, as `wc -l` counts them.  It goes to
BENCH_<PR>.json at the root of the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import hashlib
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def checkout(spec: str, scratch: Path, side: str) -> tuple:
    """(directory, short hash) of a revision exported under `scratch`."""
    rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", spec],
                         check=True, capture_output=True, text=True).stdout.strip()
    target = scratch / side
    target.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)
    return target, rev


def perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv)} in {root} failed:\n{proc.stderr}")
    return {"summary_line": lines[-2], "result": json.loads(lines[-1])}


# Run from `python3 -I -S -c`: forks and execs its argv with stderr
# discarded, and prints the peak RSS of its own memory before the fork
# (VmHWM, which a forked child starts from; its getrusage would count the
# peak of the process that launched it too), the child's peak RSS (both in
# KB), the child's exit code and its wall time.  Linux only.
LAUNCHER = """
import os, sys, time
with open("/proc/self/status") as status:
    floor = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    os.dup2(os.open(os.devnull, os.O_WRONLY), 2)
    os.execv(sys.argv[1], sys.argv[1:])
_, status, usage = os.wait4(pid, 0)
print(floor, usage.ru_maxrss, os.waitstatus_to_exitcode(status),
      time.perf_counter() - start, file=sys.stderr)
"""


def cli_run(root: Path, args: str) -> dict:
    """One `sheafkit.cli` run from the root of the repository on root's
    src, launched from a bare interpreter (see LAUNCHER)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", LAUNCHER, sys.executable,
                           "-m", "sheafkit.cli", *shlex.split(args)],
                          cwd=ROOT, env=env, capture_output=True, check=True)
    floor, peak, code, wall = proc.stderr.split()
    return {"exit": int(code), "wall_s": round(float(wall), 2),
            "peak_rss_mb": round(int(peak) / 1024, 1),
            "launcher_rss_mb": round(int(floor) / 1024, 1),
            "report_sha256": hashlib.sha256(proc.stdout).hexdigest()}


def src_lines(root: Path) -> int:
    return sum(p.read_bytes().count(b"\n") for p in (root / "src" / "sheafkit").glob("*.py"))


def quartiles(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(runs: list, better: dict) -> dict:
    """Per workload and seed: each metric's quartiles per side, and wins."""
    out = {}
    for run in runs:
        case = out.setdefault(f"{run['workload']} seed {run['seed']}", {})
        for name, metric in run["result"]["metrics"].items():
            case.setdefault(name, {side: [] for side in SIDES})[run["side"]].append(
                (run["pair"], metric["value"]))
    for case in out.values():
        for name, sides in case.items():
            parent, change = (dict(sides[side]) for side in SIDES)
            sign = 1 if better[name] == "higher" else -1
            wins = sum(sign * (change[i] - parent[i]) > 0 for i in parent if i in change)
            case[name] = {side: quartiles([v for _, v in sides[side]]) for side in SIDES}
            case[name]["change_wins"] = f"{wins}/{len(parent)}"
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision")
    ap.add_argument("--change", required=True, help="git revision")
    ap.add_argument("--pr", required=True, help="names the output BENCH_<PR>.json")
    ap.add_argument("--runs", nargs="+", required=True, help="WORKLOAD:SEED:PAIRS")
    ap.add_argument("--trace", nargs="*", default=[], help="WORKLOAD:SEED")
    ap.add_argument("--cli", nargs="*", default=[], help="sheafkit CLI arguments")
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    with tempfile.TemporaryDirectory() as tmp:
        roots, labels = {}, {}
        for side in SIDES:
            roots[side], labels[side] = checkout(getattr(args, side), Path(tmp), side)
        lines = {side: src_lines(roots[side]) for side in SIDES}
        cli_runs = {}
        for cli_args in args.cli:
            sides = {side: cli_run(roots[side], cli_args) for side in SIDES}
            sides["same_report"] = len({sides[side]["report_sha256"] for side in SIDES}) == 1
            cli_runs[cli_args] = sides
        runs = []
        for spec in args.runs:
            workload, seed, pairs = spec.split(":")
            for pair in range(1, int(pairs) + 1):
                for side in SIDES if pair % 2 else SIDES[::-1]:
                    run = perfbench(roots[side], workload, int(seed), args.seconds, 0)
                    runs.append({"side": side, "workload": workload, "seed": int(seed),
                                 "pair": pair, **run})
                    print(side, run["summary_line"], run["result"]["metrics"]
                          ["requests_per_s"]["value"], file=sys.stderr, flush=True)
        trace_runs = {}
        for spec in args.trace:
            workload, seed = spec.split(":")
            trace_runs[spec] = {side: perfbench(roots[side], workload, int(seed),
                                                args.seconds, 1) for side in SIDES}
    same = subprocess.run(["git", "-C", str(ROOT), "diff", "--quiet", labels["parent"],
                           labels["change"], "--", "perfbench", "BENCHMARK.json"]).returncode
    report = {
        "what": f"perfbench runs of {labels['parent']} and of {labels['change']}, same "
                f"host, {'different' if same else 'same'} benchmark files",
        "host": f"{os.cpu_count()}-core {platform.machine()}, "
                f"Python {platform.python_version()}",
        "parent": labels["parent"],
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{args.seconds:g} --trace T, from the root of a fresh copy of each tree",
        "pairs": "alternating which side runs first; " + ", ".join(
            f"{w} seed {s}: {n} pairs" for w, s, n in (r.split(":") for r in args.runs)),
        "src_lines": lines,
        "summary": summarize(runs, better),
        "runs": runs,
        "trace_runs": trace_runs,
        "cli_runs": cli_runs,
    }
    (ROOT / f"BENCH_{args.pr}.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
