"""sheafkit benchmark: one seeded workload per process, oracle-checked.

    python3 perfbench/run.py --workload grassmann-search --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; sheafkit is imported from ``src/``.  The
workload is a closed loop with one client: the fixed request list drawn
from the seed is served in passes, one request at a time, until
``--seconds`` have passed; the last pass stops at the deadline.  A first,
untimed pass checks every report against the oracles and keeps it as the
reference; every later pass must reproduce the same bytes.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics.
Each request's latency is the median of its repetitions in the run; from
those come the median and p90 latency and the requests per second of one
typical pass.  Set-up time (import plus input generation) is the median of
several set-ups, and peak RSS covers the whole process.

Times are reported at a reference host speed.  On a shared host the speed
of pure Python moves by up to a factor of two within seconds, and the
program's time moves with it.  So the run also times a fixed piece of
pure-Python work (`reference_work`, which uses nothing from sheafkit)
between every two timed requests, and before and after each set-up, and
scales each measured time by ``REFERENCE_MS`` over the mean of the probes
on either side of it.  A faster sheafkit still shows in full: the probes do
not run its code.  The raw figures and the median probe are printed on the
line before the result's line.

With ``--trace 1`` it reports per-layer metrics from one traced pass
instead, and the overhead of tracing against one untraced pass.  The line
before the result states the request and sample counts, the share of
failed requests and a sha256 digest of the reference reports.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
# The reference work's usual time on a 2-core Xeon VM under Python 3.11.7
# (0.5-1.0 ms as the shared host's load moves); a time measured while the
# probes take longer is scaled down in proportion.
REFERENCE_MS = 0.85
MIN_SAMPLES = 100  # requests per pass, so that ten latencies lie beyond p90

import oracles  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Inputs  # noqa: E402


def import_sheafkit():
    """A fresh import of sheafkit from this checkout's src/."""
    for name in [m for m in sys.modules if m == "sheafkit" or m.startswith("sheafkit.")]:
        del sys.modules[name]
    sk = importlib.import_module("sheafkit")
    if Path(sk.__file__).resolve().parent != SRC / "sheafkit":
        raise ImportError(f"sheafkit imported from {sk.__file__}, not {SRC}")
    return sk


def set_up(workload: str, seed: int, workdir: Path):
    """Import sheafkit and write the inputs, several times; the last stays.
    Returns the median set-up time, raw and at the reference speed."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = host_probe()
        t0 = time.perf_counter()
        sk = import_sheafkit()
        workdir.mkdir(parents=True, exist_ok=True)
        requests = WORKLOADS[workload](sk, seed, Inputs(workdir))
        elapsed = time.perf_counter() - t0
        raw.append(elapsed)
        scaled.append(elapsed * REFERENCE_MS * 2e-3 / (before + host_probe()))
    return sk, requests, statistics.median(raw), statistics.median(scaled)


def reference_work() -> int:
    """A fixed piece of pure-Python work, in the mix sheafkit's searches
    use: tuple keys, dict counts, frozensets and modular arithmetic."""
    counts = {}
    for i in range(2000):
        k = (i % 7, i * i % 11, i % 5)
        counts[k] = counts.get(k, 0) + 1
    subsets = {frozenset(c) for c in itertools.combinations(range(10), 4)}
    table = [[(a * b) % 13 for b in range(13)] for a in range(13)]
    return len(counts) + len(subsets) + sum(table[x][y] for x in range(13) for y in range(13))


def probe() -> float:
    """Seconds the reference work takes, with the collector off so that the
    size of sheafkit's heap does not enter the measure of host speed."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def host_probe() -> float:
    """The median of several probes, where one may be cut by a preemption."""
    return statistics.median(probe() for _ in range(9))


def serve(req):
    """Run one request: (seconds inside sheafkit, report text or None)."""
    t0 = time.perf_counter()
    try:
        result = req.call()
    except Exception as exc:  # an escaped exception is a failed request
        elapsed = time.perf_counter() - t0
        print(f"{req.kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return elapsed, None
    elapsed = time.perf_counter() - t0
    if req.summarize is not None:
        return elapsed, json.dumps(req.summarize(result), sort_keys=True)
    code, text = result
    if code != 0:
        print(f"{req.kind}: exit code {code}", file=sys.stderr)
        return elapsed, None
    return elapsed, text


class Run:
    def __init__(self, requests):
        self.requests = requests
        self.reference = []
        self.attempted = 0
        self.failed = 0

    def verify(self) -> bool:
        """Untimed first pass: check each report against its oracle, keep it
        as the reference, and self-test each oracle on one real report."""
        tested = set()
        self_test_ok = True
        for req in self.requests:
            _, text = serve(req)
            self.attempted += 1
            report = json.loads(text) if text is not None else None
            if not oracles.agrees(report, req.expected, req.extra):
                self.failed += 1
                print(f"{req.kind}: report disagrees with the oracle", file=sys.stderr)
                text = None
            elif req.kind not in tested:
                tested.add(req.kind)
                if not oracles.rejects_perturbations(report, req.expected, req.extra):
                    self_test_ok = False
                    print(f"{req.kind}: oracle accepts a perturbed report", file=sys.stderr)
            self.reference.append(text)
        return self_test_ok

    def one_pass(self, latencies, deadline=None, probes=None) -> bool:
        """Serve every request once, appending its time to its own list in
        `latencies`.  With `probes`, also append to the request's own list
        there the mean time of the reference work just before and just
        after it.  Stop early, returning False, once `deadline` is past."""
        before = probe() if probes is not None else None
        for i, (req, ref) in enumerate(zip(self.requests, self.reference)):
            if deadline is not None and time.perf_counter() >= deadline:
                return False
            elapsed, text = serve(req)
            latencies[i].append(elapsed)
            if probes is not None:
                after = probe()
                probes[i].append((before + after) / 2)
                before = after
            self.attempted += 1
            if text is None or text != ref:
                self.failed += 1
        return True

    def digest(self) -> str:
        h = hashlib.sha256()
        for text in self.reference:
            h.update((text or "").encode())
        return h.hexdigest()


def timed(run: Run, seconds: float):
    """Passes until `seconds` have passed, the first one whole and the last
    cut at the deadline: (each request's latencies, the reference work's
    time around each of them, number of passes)."""
    latencies = [[] for _ in run.requests]
    probes = [[] for _ in run.requests]
    deadline = time.perf_counter() + seconds
    npasses, whole = 0, True
    while whole and (npasses == 0 or time.perf_counter() < deadline):
        gc.collect()  # start each pass from the same heap, outside the timing
        whole = run.one_pass(latencies, deadline if npasses else None, probes)
        npasses += 1
    return latencies, probes, npasses


def end_to_end(latencies, setup_s: float, probes=None) -> dict:
    """Each request's latency is the median of its repetitions in the run.
    On a shared host a request's time has rare fast outliers and frequent
    slow spikes; the median over the whole run ignores both, where the best
    or the sum of a few passes moves with them.  With `probes`, each
    repetition is first scaled to the reference speed by its own probe."""
    if probes is not None:
        latencies = [[t * REFERENCE_MS * 1e-3 / p for t, p in zip(reps, ps)]
                     for reps, ps in zip(latencies, probes)]
    typical = [statistics.median(reps) for reps in latencies]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "requests_per_s": {"value": len(typical) / sum(typical), "unit": "1/s"},
        "latency_p50_ms": {"value": 1e3 * statistics.median(typical), "unit": "ms"},
        "latency_p90_ms": {"value": 1e3 * statistics.quantiles(typical, n=10)[-1],
                           "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }


def traced(run: Run, sk):
    """One untraced pass, then one pass with every traced function wrapped."""
    gc.collect()
    untraced = [[] for _ in run.requests]
    run.one_pass(untraced)
    tracer = tracing.install(sk)
    originals = [req.call for req in run.requests]
    for rid, req in enumerate(run.requests):
        req.call = tracer.wrap("request", req.call, request_id=rid)
    gc.collect()
    with_trace = [[] for _ in run.requests]
    try:
        run.one_pass(with_trace)
    finally:
        for req, call in zip(run.requests, originals):
            req.call = call
    overhead = sum(map(sum, with_trace)) / sum(map(sum, untraced)) - 1.0
    return tracing.layer_metrics(tracer, SRC, overhead)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sheafkit" / "__init__.py").is_file():
        print(f"no sheafkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        sk, requests, raw_setup_s, setup_s = set_up(args.workload, args.seed, workdir)
        run = Run(requests)
        self_test_ok = run.verify()
        if args.trace:
            metrics = traced(run, sk)
            samples, npasses = len(requests), 1
        else:
            latencies, probes, npasses = timed(run, args.seconds)
            samples = sum(map(len, latencies))
            probe_ms = 1e3 * statistics.median(p for ps in probes for p in ps)
            raw = end_to_end(latencies, raw_setup_s)
            print(f"probe_ms={probe_ms:.6f} raw " + " ".join(
                f"{name}={m['value']:.6g}" for name, m in sorted(raw.items())))
            metrics = end_to_end(latencies, setup_s, probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    enough = len(requests) >= MIN_SAMPLES
    print(f"workload={args.workload} seed={args.seed} requests={len(requests)} "
          f"passes={npasses} samples={samples} failed_frac={run.failed / run.attempted:.6f} "
          f"reports_sha256={run.digest()}")
    result = {"correct": run.failed == 0 and self_test_ok and enough,
              "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
