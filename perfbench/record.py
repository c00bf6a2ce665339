"""Record the workload pools and their reference outputs.

Usage (from the repository root):

    python3 perfbench/record.py [--workload NAME]

For each workload this generates the pool inputs from fixed generation
seeds, runs every item once through ``braidcert.cli.main`` exactly as the
benchmark does, and writes ``perfbench/pools/<workload>.json`` with each
item's argv, its reference (``checks.py``) and its wall time, which only
sorts items into cost strata.  Re-record only when the program's exact
outputs are meant to change; the references pin the current ones.
"""

from __future__ import annotations

import argparse
import random
import sys

from checks import certificate_expect, trace_expect
from corpus import WORKLOADS, Item, Pool, SubPool, pool_path, pool_to_json, random_pb_word
from run import execute, load_package


def _bounds_words(rng: random.Random, count: int, n: int, lengths: tuple[int, int]) -> list[str]:
    return [random_pb_word(rng, n, rng.randint(*lengths)) for _ in range(count)]


def _pb_items(name: str, count: int, n: int, lengths: tuple[int, int], budget: int) -> list[list[str]]:
    rng = random.Random(f"pool:{name}")
    return [["bounds", w, "--n", str(n), "--budget", str(budget)]
            for w in _bounds_words(rng, count, n, lengths)]


def _gnk_items(bc, name: str, count: int, n: int, lengths: tuple[int, int], budget: int) -> list[list[str]]:
    """``bounds --gnk`` of the k = 3 images of random pure braid words."""
    rng = random.Random(f"pool:{name}")
    out = []
    for w in _bounds_words(rng, count, n, lengths):
        image = bc.pbraid.map_pb_to_g3(bc.pbraid.parse_pb_word(w, n))
        out.append(["bounds", bc.gnk.format_gnk_word(image), "--n", str(n), "--k", "3",
                    "--gnk", "--budget", str(budget)])
    return out


def _motions(kind: str, n: int) -> list[list[str]]:
    return [["simulate", "--kind", kind, "--i", str(i), "--j", str(j), "--n", str(n), "--trace"]
            for i in range(1, n) for j in range(i + 1, n + 1)]


# Tail percentile per workload: p90 where a run holds 100 to 999 items at
# the recorded speed, p50 for certify-wide, whose items are too slow for that.
TAIL_PERCENTILE = {"certify-search": 90, "certify-wide": 50, "verify-relators": 90,
                   "trace-motions": 90}


def pool_spec(bc, workload: str) -> list[tuple[str, int, int, list[list[str]]]]:
    """(sub-pool name, strata, per_slice, argvs) per sub-pool."""
    if workload == "certify-search":
        return [
            ("n4", 30, 1, _pb_items("search-n4", 180, 4, (8, 11), 4)),
            ("n5", 5, 1, _pb_items("search-n5", 30, 5, (4, 6), 2)),
            ("n5-gnk", 5, 1, _gnk_items(bc, "search-n5-gnk", 30, 5, (4, 6), 2)),
        ]
    if workload == "certify-wide":
        return [
            ("n7", 4, 1, _pb_items("wide-n7", 32, 7, (2, 4), 0)),
            ("n8", 1, 1, _pb_items("wide-n8", 8, 8, (2, 4), 0)),
        ]
    if workload == "verify-relators":
        def suite(n: int, k: int) -> list[list[str]]:
            return [["verify", "--suite", "relators", "--n", str(n), "--k", str(k)]]
        return [("n4k3", 1, 1, suite(4, 3)), ("n4k4", 1, 1, suite(4, 4)),
                ("n5k3", 1, 3, suite(5, 3)), ("n5k4", 1, 3, suite(5, 4))]
    # every motion once per block: a run makes whole passes over all 47
    motions = [(f"{kind}{n}", _motions(kind, n))
               for kind, ns in (("circle", (4, 5, 6)), ("parabola", (4, 5))) for n in ns]
    return [(name, len(argvs), 1, argvs) for name, argvs in motions]


def _kind(argv: list[str]) -> str:
    return {"bounds": "certify", "verify": "verify", "simulate": "trace"}[argv[0]]


def record_item(bc, argv: list[str]) -> Item:
    kind = _kind(argv)
    probe = Item(kind, tuple(argv), {}, 0.0)
    result = execute(bc, probe)
    if result.rc != 0:
        raise SystemExit(f"reference run failed: {argv} rc={result.rc} {result.error}")
    if kind == "certify":
        expect = certificate_expect(result.stdout)
    elif kind == "trace":
        expect = trace_expect(bc, argv, result.stdout)
        if not expect["algebra"]:
            print(f"note: traced word disagrees with the algebraic image: {' '.join(argv)}",
                  file=sys.stderr)
    else:
        expect = {}
    return Item(kind, tuple(argv), expect, round(result.latency_s * 1000.0, 1))


def record(workload: str) -> Pool:
    bc = load_package()
    subpools = []
    for name, strata, per_slice, argvs in pool_spec(bc, workload):
        items = tuple(record_item(bc, argv) for argv in argvs)
        subpools.append(SubPool(name, min(strata, len(items)), per_slice, items))
        print(f"{workload}/{name}: {len(items)} items", file=sys.stderr)
    warmup = min(subpools[0].items, key=lambda it: (it.cost_ms, it.key))
    return Pool(workload, warmup, TAIL_PERCENTILE[workload], tuple(subpools))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record benchmark pools and references")
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args(argv)
    for workload in args.workload or WORKLOADS:
        pool = record(workload)
        path = pool_path(workload)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(pool_to_json(pool))
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
