"""Seeded benchmark of the braidcert command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload certify-search --seed 0 --seconds 20 --trace 0

Each item is one call of ``braidcert.cli.main`` in this process, on an input
drawn from the workload's recorded pool (see ``corpus.py``).  The load is a
closed loop: one thread, and each item starts when the previous one has
finished.  Items run in whole blocks until ``--seconds`` have passed, within
the workload's block limits (``Pool.block_limits``: enough items for its tail
percentile, never enough for the next one); every output is then checked
against its recorded reference (``checks.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs blocks for
half of ``--seconds`` untraced, replays the same items with spans installed
on every layer boundary (``spans.py``), and prints the per-layer metrics;
the spans go to ``.perfbench_out/``.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
0 when every output matched, 1 when some did not, and 2 when the package
cannot be set up (for example when ``src/`` is missing).
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import signal
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType

from checks import Checker
from corpus import WORKLOADS, Item, blocks, load_pool
from spans import Tracer, install, per_layer_metrics, per_layer_units, uninstall
from stats import tail

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
ITEM_LIMIT_S = 10.0   # an item running longer is stopped and counted as failed
DEADLINE_S = 150.0    # no item starts this long after the process started

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class ItemTimeout(BaseException):
    """Raised by SIGALRM inside a running item.  A BaseException, so the
    program's own ``except Exception`` handlers cannot swallow it."""


def _alarm(signum, frame):
    raise ItemTimeout()


@dataclass
class Result:
    item: Item
    rc: int | None       # None when the item raised or hit the time limit
    stdout: str
    latency_s: float
    error: str = ""
    ok: bool = False     # output matched the reference


def load_package(src: Path = SRC) -> ModuleType:
    """Import braidcert afresh from ``src`` (dropping any earlier import)."""
    for name in [m for m in sys.modules if m == "braidcert" or m.startswith("braidcert.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    bc = importlib.import_module("braidcert")
    importlib.import_module("braidcert.cli")
    if not Path(bc.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"braidcert imported from {bc.__file__}, not from {src}")
    return bc


def execute(bc: ModuleType, item: Item, tracer: Tracer | None = None) -> Result:
    argv = list(item.argv)
    if item.kind == "certify":
        argv += ["--out-dir", str(OUT / "certificates")]
    stdout = io.StringIO()
    rc: int | None = None
    error = ""
    signal.signal(signal.SIGALRM, _alarm)
    frame = tracer.enter("cli") if tracer is not None else None
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, ITEM_LIMIT_S)
    try:
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            rc = bc.cli.main(argv)
    except ItemTimeout:
        error = f"over the {ITEM_LIMIT_S:g} s item limit"
    except SystemExit as exc:  # argparse rejected the argv
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # the run goes on; the item counts as failed
        error = repr(exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        latency = time.perf_counter() - start
        if frame is not None:
            tracer.exit(frame)
    return Result(item, rc, stdout.getvalue(), latency, error)


def set_up(workload: str, seed: int):
    """Import, corpus generation and one untimed warm-up item."""
    bc = load_package()
    pool = load_pool(workload)
    stream = blocks(pool, seed)
    warm = execute(bc, pool.warmup)
    return bc, pool, stream, warm


def run_blocks(bc: ModuleType, stream, seconds: float, limits: tuple[int, int],
               deadline: float, checker: Checker) -> tuple[list[Result], float]:
    """Whole blocks until ``seconds`` have passed, but no fewer and no more
    blocks than ``limits`` allow (no item starts after ``deadline``).  Each
    output is checked as soon as its item ends and then dropped, so memory
    does not grow with the item count; the wall time returned leaves out the
    time spent checking."""
    fewest, most = limits
    results: list[Result] = []
    start = time.perf_counter()
    checking = 0.0
    done = 0
    while done < most and (done < fewest or time.perf_counter() - start - checking < seconds):
        for item in next(stream):
            if time.perf_counter() > deadline:
                return results, time.perf_counter() - start - checking
            result = execute(bc, item)
            t0 = time.perf_counter()
            result.ok = checker(item, result.rc, result.stdout)
            result.stdout = ""
            checking += time.perf_counter() - t0
            results.append(result)
        done += 1
    return results, time.perf_counter() - start - checking


def replay_traced(bc: ModuleType, items: list[Item], deadline: float) -> tuple[list[Result], float, Tracer]:
    tracer = Tracer()
    installed = install(tracer, bc)
    results: list[Result] = []
    start = time.perf_counter()
    try:
        for item in items:
            if time.perf_counter() > deadline:
                break
            results.append(execute(bc, item, tracer))
    finally:
        wall = time.perf_counter() - start
        uninstall(installed)
    return results, wall, tracer


def unresolved_contexts(results: list[Result]) -> tuple[int, int]:
    """(budget-exhausted contexts, contexts) over the certificates printed."""
    unresolved = contexts = 0
    for r in results:
        if r.item.kind != "certify" or not r.ok:
            continue
        for c in json.loads(r.stdout)["contexts"]:
            contexts += 1
            unresolved += c["min_switches"] == "budget_exceeded"
    return unresolved, contexts


def peak_rss_mb() -> float:
    """High-water resident set size of this process (VmHWM).  Not
    ``ru_maxrss``: Linux carries the parent's high-water mark across exec,
    so under a large parent that reports the parent's memory."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM line in /proc/self/status")


def end_to_end(results: list[Result], wall: float, setups: list[float]) -> tuple[dict, list[str]]:
    latencies_ms = [r.latency_s * 1000.0 for r in results]
    metrics = {
        "items_per_s": len(results) / wall,
        "item_p50_ms": statistics.median(latencies_ms),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setups),
    }
    notes = [f"setup_s is the median of {len(setups)} set-ups"]
    tail_at = tail(latencies_ms)
    if tail_at is None:
        notes.append(f"item_tail_ms omitted: {len(latencies_ms)} samples leave fewer than 10 beyond the median")
    else:
        percentile, value = tail_at
        metrics["item_tail_ms"] = value
        notes.append(f"item_tail_ms is p{percentile:g} of {len(latencies_ms)} samples")
    return metrics, notes


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    deadline = started + DEADLINE_S
    setups: list[float] = []
    warmups: list[Result] = []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            bc, pool, stream, warm = set_up(args.workload, args.seed)
            setups.append(time.perf_counter() - t0)
            warmups.append(warm)
    except (ImportError, OSError) as exc:
        print(f"perfbench: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2

    checker = Checker(bc)
    for warm in warmups:
        warm.ok = checker(warm.item, warm.rc, warm.stdout)
    fewest, most = pool.block_limits()
    if args.trace:  # per-layer numbers need no tail percentile
        results, wall = run_blocks(bc, stream, args.seconds / 2, (1, most), deadline, checker)
    else:
        results, wall = run_blocks(bc, stream, args.seconds, (fewest, most), deadline, checker)
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}",
             f"block of {pool.block_size} items; {len(results)} items in {wall:.3f} s"]
    if args.trace:
        traced, traced_wall, tracer = replay_traced(bc, [r.item for r in results], deadline)
        for r in traced:  # checked after the spans are uninstalled
            r.ok = checker(r.item, r.rc, r.stdout)
        unresolved, contexts = unresolved_contexts(traced)
        metrics = per_layer_metrics(tracer, max(len(traced), 1), unresolved, contexts, wall, traced_wall)
        units = per_layer_units()
        layer_s = tracer.layer_self_s()
        total = sum(layer_s.values()) or 1.0
        lines.append("self-time share: " + ", ".join(
            f"{layer} {s / total:.3f}" for layer, s in
            sorted(layer_s.items(), key=lambda kv: -kv[1])))
        lines.append(f"spans: {tracer.spans_started} started, first {len(tracer.records)} kept")
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed,
                      "items": len(traced), "untraced_s": wall, "traced_s": traced_wall})
        results = results + traced
    else:
        metrics, notes = end_to_end(results, wall, setups)
        units = END_TO_END_UNITS
        lines += notes

    failures = [r for r in warmups + results if not r.ok]
    attempted = len(results) + len(warmups)
    lines.append(f"fail_frac {len(failures) / attempted:.6f} ({len(failures)}/{attempted}, "
                 f"warm-ups included)")
    disagree = sorted({r.item.key for r in results
                       if r.item.kind == "trace" and not r.item.expect["algebra"]})
    if disagree:
        lines.append(f"known defect, not counted: {len(disagree)} recorded traced words disagree "
                     f"with the algebraic image: " + "; ".join(disagree))
    for r in failures[:5]:
        lines.append(f"FAILED {r.item.key!r}: rc={r.rc} {r.error}")
    for name in units:
        if name in metrics:
            lines.append(f"{name} {metrics[name]:.6g} {units[name]}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
