"""zetalike benchmark: one closed-loop client, one process, no threads.

    python3 perfbench/run.py --workload table|verify|numeric|oracle \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; zetalike is imported from ``src/``.
A run builds the workload's rounds from the seed (a round is the request
list with one output format per request; see ``workloads.py``), then replays
them in turn, one pass per round, until every round has run and the next
pass would end after S seconds.  Reported figures are the mean over rounds
of each round's median pass.  In a pass every request runs once cold, right
after every functools cache in zetalike is emptied (what one CLI invocation
pays), and, with ``--trace 0``, once more warm, straight after, with the
caches it filled (what a library session pays).  Every output is checked.

Times are scaled by the machine-speed probe (see ``probe.py``): each timed
call is divided by the probe time measured around it and multiplied by
``probe.REFERENCE_S``.  The unscaled figures are kept in the metadata.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (fresh interpreter
importing zetalike and building the CLI parser, median of 7), ``cold_s`` and
``warm_s`` (scaled pass totals) and ``peak_rss_mb``.  ``--trace 1`` alternates
untraced and traced cold passes and prints the per-layer metrics of the
traced ones plus ``trace.overhead_ratio``.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A line
before it carries the run metadata and ``fail_ratio``; full results and the
spans of the last traced pass go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import REFERENCE_S, probe
from tracing import LAYER_UNITS, Tracer, layer_metrics, top_self_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 7
# probe.py imports only builtins, so nothing zetalike needs is loaded early
SETUP_CODE = """\
import io, sys, time
from probe import probe
before = probe()
t0 = time.perf_counter()
import zetalike.cli
stdout, sys.stdout = sys.stdout, io.StringIO()
zetalike.cli.run(["--help"])
elapsed = time.perf_counter() - t0
sys.stdout = stdout
print(elapsed, (before + probe()) / 2)
"""
MAX_FAILURES_SHOWN = 5

END_TO_END_UNITS = {"setup_s": "s", "cold_s": "s", "warm_s": "s", "peak_rss_mb": "MB"}


def measure_setup(samples: int = SETUP_SAMPLES) -> tuple[float, float]:
    """Median scaled and unscaled in-interpreter time to import zetalike
    and build the CLI parser; one unrecorded start first writes the bytecode
    caches."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    scaled, raw = [], []
    for i in range(samples + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        elapsed, probe_s = map(float, proc.stdout.split())
        if i:
            scaled.append(elapsed * REFERENCE_S / probe_s)
            raw.append(elapsed)
    return statistics.median(scaled), statistics.median(raw)


def find_caches() -> list[tuple[str, object]]:
    """Every functools cache reachable from a zetalike module, by name."""
    found: dict[int, tuple[str, object]] = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "zetalike" or mod_name.startswith("zetalike.")):
            continue
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)) and hasattr(obj, "cache_info"):
                name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__qualname__}"
                found.setdefault(id(obj), (name, obj))
    return sorted(found.values(), key=lambda item: item[0])


class Runner:
    """Runs passes over a workload's rounds and keeps the failure count."""

    def __init__(self, rounds, caches):
        self.rounds = rounds
        self.caches = caches
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.cache_stats: dict[str, list[int]] = {}
        self.stdout_bytes = 0

    def clear_caches(self) -> None:
        for name, fn in self.caches:
            info = fn.cache_info()
            acc = self.cache_stats.setdefault(name, [0, 0])
            acc[0] += info.hits
            acc[1] += info.misses
            fn.cache_clear()

    def _timed(self, req) -> tuple[float, float]:
        """Run one request; returns its (scaled, unscaled) time."""
        before = probe()
        gc.collect()
        t0 = time.perf_counter()
        try:
            out = req.call()
        except Exception as exc:  # a traceback is a failed request
            elapsed = time.perf_counter() - t0
            reason = f"{type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - t0
            reason = req.check(out, req.expected)
            if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], str):
                self.stdout_bytes += len(out[1].encode())
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_SHOWN:
                self.failures.append(f"{req.label}: {reason}")
        return elapsed * REFERENCE_S * 2 / (before + probe()), elapsed

    def run_pass(self, index: int, warm: bool, tracer=None) -> tuple[list[float], list[float]]:
        """Pass ``index``; returns the cold and the warm (scaled, unscaled)
        totals in seconds."""
        cold, hot = [0.0, 0.0], [0.0, 0.0]
        for i, req in enumerate(self.rounds[index % len(self.rounds)]):
            self.clear_caches()
            if tracer is not None:
                tracer.request = i
            scaled, raw = self._timed(req)
            if tracer is not None:
                tracer.scale[i] = scaled / raw
            cold = [cold[0] + scaled, cold[1] + raw]
            if warm:
                hot = [a + b for a, b in zip(hot, self._timed(req))]
        return cold, hot

    def traced_pass(self, index: int, tracer) -> tuple[list[float], dict[str, float]]:
        """One cold pass with spans recorded; returns its (scaled, unscaled)
        total and the per-layer metrics."""
        self.clear_caches()
        self.cache_stats, self.stdout_bytes = {}, 0
        tracer.patch()
        try:
            cold, _ = self.run_pass(index, warm=False, tracer=tracer)
        finally:
            tracer.unpatch()
        self.clear_caches()
        stats = {k: tuple(v) for k, v in self.cache_stats.items()}
        return cold, layer_metrics(tracer, stats, self.stdout_bytes)


def round_median(values: list[float], n_rounds: int) -> float:
    """Mean over rounds of the median of the passes that replayed that
    round (pass i replays round i % n_rounds; every round has one at least).
    A round is one output format per request, so the mean over rounds does
    not depend on which format the seed gave each request first."""
    return statistics.fmean(statistics.median(values[r::n_rounds]) for r in range(n_rounds))


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool, rounds=None) -> dict:
    """Measure one workload; ``rounds`` overrides the seeded requests (the
    self-test feeds corrupted expectations this way)."""
    import workloads  # imports zetalike, so only after main() put src/ on sys.path

    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(), "loadavg_start": loadavg(),
    }
    setup = None if trace else measure_setup()
    if rounds is None:
        rounds = workloads.build(workload, seed)
    runner = Runner(rounds, find_caches())

    # per pass: (scaled, unscaled) totals; every round runs at least once
    cold, warm, traced, layers = [], [], [], []
    last_tracer = None
    deadline = time.perf_counter() + seconds
    for index in itertools.count():
        started = time.perf_counter()
        if trace:
            cold.append(runner.run_pass(index, warm=False)[0])
            last_tracer = Tracer()
            total, metrics = runner.traced_pass(index, last_tracer)
            traced.append(total)
            layers.append(metrics)
        else:
            c, w = runner.run_pass(index, warm=True)
            cold.append(c)
            warm.append(w)
        now = time.perf_counter()
        if index + 1 >= len(rounds) and now + (now - started) > deadline:
            break

    def pass_median(passes, scaled=True):
        return round_median([p[0 if scaled else 1] for p in passes], len(rounds))

    if trace:
        metrics = {name: round_median([m[name] for m in layers], len(rounds))
                   for name in layers[0]}
        metrics["trace.overhead_ratio"] = pass_median(traced) / pass_median(cold)
        top, top_s = top_self_layer(last_tracer)
        meta["top_self_layer"] = {"name": top, "self_s": top_s}
        meta["traced_pass_s"] = traced
        units = LAYER_UNITS
    else:
        metrics = {
            "setup_s": setup[0],
            "cold_s": pass_median(cold),
            "warm_s": pass_median(warm),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        meta["unscaled"] = {"setup_s": setup[1], "cold_s": pass_median(cold, False),
                            "warm_s": pass_median(warm, False)}
        meta["warm_pass_s"] = warm
    meta.update({
        "passes": len(cold), "requests_per_pass": len(rounds[0]), "cold_pass_s": cold,
        "fail_ratio": runner.failed / runner.attempted, "failures": runner.failures,
        "loadavg_end": loadavg(),
    })
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return {"result": result, "meta": meta,
            "spans": last_tracer.spans if last_tracer is not None else None}


def _write_outputs(out: dict) -> None:
    meta = out["meta"]
    stem = f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}"
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"meta": meta, **out["result"]}, fh, indent=1)
    if out["spans"]:
        # one file per workload, overwritten: a traced verify pass has ~3e5 spans
        origin = out["spans"][0][1]
        with open(OUT / f"{meta['workload']}-spans.jsonl", "w") as fh:
            fh.write('["name", "start_us", "end_us", "parent", "request", "info"]\n')
            for name, t0, t1, parent, request, info in out["spans"]:
                fh.write(json.dumps([name, round((t0 - origin) * 1e6, 1),
                                     round((t1 - origin) * 1e6, 1), parent, request, info]))
                fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("table", "verify", "numeric", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zetalike" / "__init__.py").is_file():
        print(f"error: no zetalike sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result, meta = out["result"], out["meta"]
    for name, m in result["metrics"].items():
        print(f"{args.workload:8} {name:44} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:8} {'fail_ratio':44} {meta['fail_ratio']:.6g} "
          f"({result['failed']} of {result['attempted']} requests)")
    if "top_self_layer" in meta:
        print(f"{args.workload:8} top self-time layer: {meta['top_self_layer']['name']}")
    for line in meta["failures"]:
        print(f"FAILED {line}")
    _write_outputs(out)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
