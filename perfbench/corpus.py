"""Workload pools and the seeded item stream a run draws from.

Each workload is a recorded pool file under ``pools/``.  A pool is a list of
sub-pools (for example the n=4 and the n=5 words of ``certify-search``); each
item in a sub-pool carries the CLI argv, its recorded reference and the time
it took when recorded.  Reference outputs exist only for recorded items, so a
run's seed cannot make new inputs; it draws a sample from the pool instead.

Sampling is stratified so that every seed sees the same mix of cheap and
costly items: a sub-pool is sorted by recorded cost and cut into ``strata``
equal slices, and each block of the stream takes ``per_slice`` items from
every slice.  Within a slice items are dealt from a seeded deck (without
replacement, reshuffled when empty), and each block is shuffled, so the same
seed always yields the same stream.  Runs stop only at block boundaries, so
every run measures whole blocks and hence the same mix.  A run lasts at
least as many blocks as the largest slice has items, so it deals the whole
pool at least once and seeds differ mainly in order and in the items of any
further blocks: the heavy budget-exhausted searches, which set both
throughput and peak memory, appear in every run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from stats import tail_band

POOL_DIR = Path(__file__).resolve().parent / "pools"

WORKLOADS = ("certify-search", "certify-wide", "verify-relators", "trace-motions")


@dataclass(frozen=True)
class Item:
    """One CLI invocation with its recorded reference."""

    kind: str       # "certify", "verify" or "trace"
    argv: tuple[str, ...]
    expect: dict
    cost_ms: float  # recorded wall time, used only to stratify

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class SubPool:
    name: str
    strata: int
    per_slice: int
    items: tuple[Item, ...]

    def slices(self) -> list[tuple[Item, ...]]:
        ordered = sorted(self.items, key=lambda it: (it.cost_ms, it.key))
        size = len(ordered)
        return [tuple(ordered[s * size // self.strata:(s + 1) * size // self.strata])
                for s in range(self.strata)]


@dataclass(frozen=True)
class Pool:
    workload: str
    warmup: Item
    tail_percentile: float  # the tail percentile every run of this workload reports
    subpools: tuple[SubPool, ...]

    @property
    def block_size(self) -> int:
        return sum(sp.strata * sp.per_slice for sp in self.subpools)

    def block_limits(self) -> tuple[int, int]:
        """Fewest and most blocks in one run.  The fewest deal every slice
        once, so each run holds the whole pool, and give enough samples for
        the tail percentile; the most stay short of the next higher
        percentile, so a faster or a slower program reports the same one."""
        lo, hi = tail_band(self.tail_percentile)
        whole_pool = max(len(sl) for sp in self.subpools for sl in sp.slices())
        return max(-(-lo // self.block_size), whole_pool), hi // self.block_size


def pool_path(workload: str, pool_dir: Path = POOL_DIR) -> Path:
    return pool_dir / f"{workload}.json"


def _item(data: dict) -> Item:
    return Item(data["kind"], tuple(data["argv"]), data["expect"], data["cost_ms"])


def load_pool(workload: str, pool_dir: Path = POOL_DIR) -> Pool:
    data = json.loads(pool_path(workload, pool_dir).read_text())
    subpools = tuple(
        SubPool(sp["name"], sp["strata"], sp["per_slice"], tuple(_item(it) for it in sp["items"]))
        for sp in data["subpools"]
    )
    return Pool(data["workload"], _item(data["warmup"]), data["tail_percentile"], subpools)


def pool_to_json(pool: Pool) -> str:
    """Pool file text: compact JSON with one item per line."""
    def item(it: Item) -> str:
        return json.dumps({"kind": it.kind, "argv": list(it.argv), "expect": it.expect,
                           "cost_ms": it.cost_ms}, sort_keys=True, separators=(",", ":"))

    subpools = ",\n".join(
        f'{{"name": {json.dumps(sp.name)}, "strata": {sp.strata}, "per_slice": {sp.per_slice}, '
        f'"items": [\n' + ",\n".join(item(it) for it in sp.items) + "]}"
        for sp in pool.subpools)
    return (f'{{"workload": {json.dumps(pool.workload)},\n"warmup": {item(pool.warmup)},\n'
            f'"tail_percentile": {pool.tail_percentile},\n"subpools": [\n{subpools}]}}\n')


class _Deck:
    def __init__(self, items: tuple[Item, ...], rng: random.Random):
        self._items = items
        self._rng = rng
        self._left: list[Item] = []

    def deal(self) -> Item:
        if not self._left:
            self._left = list(self._items)
            self._rng.shuffle(self._left)
        return self._left.pop()


def blocks(pool: Pool, seed: int) -> Iterator[list[Item]]:
    """Endless stream of blocks; each block holds the same stratified mix."""
    rng = random.Random(f"{pool.workload}:{seed}")
    decks = [(_Deck(sl, rng), sp.per_slice) for sp in pool.subpools for sl in sp.slices()]
    while True:
        block = [deck.deal() for deck, count in decks for _ in range(count)]
        rng.shuffle(block)
        yield block


# ---------------------------------------------------------------------------
# Input generation for the recorder.  Words are drawn from a private
# random.Random, so a pool is fixed by its generation seed.

def random_pb_word(rng: random.Random, n: int, length: int) -> str:
    """Uniform word of pure braid generators b_ij / B_ij (i < j <= n)."""
    letters = []
    for _ in range(length):
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        letters.append(("b" if rng.random() < 0.5 else "B") + f"{i}{j}")
    return " ".join(letters)
