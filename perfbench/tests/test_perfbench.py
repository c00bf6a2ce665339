"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests
"""

import itertools
import json
from fractions import Fraction

import pytest

import checks
import run
import spans
from checks import Checker
from corpus import WORKLOADS, Item, blocks, load_pool
from stats import quartile_spread, tail


@pytest.fixture(scope="module")
def bc():
    return run.load_package()


def _stream(workload, seed, count):
    return [it.key for block in itertools.islice(blocks(load_pool(workload), seed), count)
            for it in block]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_corpus(workload):
    assert _stream(workload, 7, 3) == _stream(workload, 7, 3)


def test_other_seed_other_corpus():
    assert _stream("certify-search", 1, 2) != _stream("certify-search", 2, 2)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_block_has_the_same_mix(workload):
    pool = load_pool(workload)
    subpool_of = {it.key: sp.name for sp in pool.subpools for it in sp.items}
    mixes = {tuple(sorted(subpool_of[it.key] for it in block))
             for block in itertools.islice(blocks(pool, 3), 5)}
    assert len(mixes) == 1
    assert len(mixes.pop()) == pool.block_size


def _smallest(workload, kind):
    pool = load_pool(workload)
    return min((it for sp in pool.subpools for it in sp.items if it.kind == kind),
               key=lambda it: it.cost_ms)


def test_certificate_matches_reference_and_tampering_fails(bc):
    item = _smallest("certify-search", "certify")
    result = run.execute(bc, item)
    assert Checker(bc)(item, result.rc, result.stdout)

    cert = json.loads(result.stdout)
    cert["contexts"][0]["rough_bound"] += 1
    assert not Checker(bc)(item, 0, json.dumps(cert))

    cert = json.loads(result.stdout)
    resolved = next(c for c in cert["contexts"] if c["min_switches"] != "budget_exceeded")
    resolved["min_switches"] += 1
    assert not Checker(bc)(item, 0, json.dumps(cert))

    cert = json.loads(result.stdout)
    cert["contexts"][0]["phi_image"] += " f[0]"
    assert not Checker(bc)(item, 0, json.dumps(cert))


def test_added_certificate_fields_still_pass(bc):
    item = _smallest("certify-search", "certify")
    cert = json.loads(run.execute(bc, item).stdout)
    cert["new_field"] = 1
    for c in cert["contexts"]:
        c["witness"] = []
    assert Checker(bc)(item, 0, json.dumps(cert))


def test_traced_word_tampering_fails(bc):
    item = _smallest("trace-motions", "trace")
    result = run.execute(bc, item)
    assert Checker(bc)(item, result.rc, result.stdout)
    word = item.expect["word"].split()
    word[0], word[1] = word[1], word[0]
    tampered = result.stdout.replace("word: " + item.expect["word"], "word: " + " ".join(word))
    assert tampered != result.stdout
    assert not Checker(bc)(item, 0, tampered)


def test_reference_word_is_cross_checked_against_algebra(bc):
    circle4 = next(sp for sp in load_pool("trace-motions").subpools if sp.name == "circle4")
    a, b = circle4.items[0], circle4.items[-1]
    swapped = dict(a.expect, word=b.expect["word"])  # a's motion, b's word
    assert swapped["algebra"] and not checks.matches_algebra(bc, swapped, swapped["word"])
    stdout = run.execute(bc, b).stdout
    assert not Checker(bc)(Item(a.kind, a.argv, swapped, a.cost_ms), 0, stdout)


def test_failed_suite_and_nonzero_exit_fail(bc):
    item = Item("verify", ("verify", "--suite", "relators", "--n", "4", "--k", "3"), {}, 0.0)
    result = run.execute(bc, item)
    assert Checker(bc)(item, result.rc, result.stdout)
    summary = json.loads(result.stdout)
    summary["failed"] = 1
    assert not Checker(bc)(item, 0, json.dumps(summary))
    assert not Checker(bc)(item, 1, result.stdout)


def test_item_time_limit_counts_as_failure(bc, monkeypatch):
    monkeypatch.setattr(run, "ITEM_LIMIT_S", 0.001)
    item = _smallest("certify-wide", "certify")
    result = run.execute(bc, item)
    assert result.rc is None and "limit" in result.error
    assert not Checker(bc)(item, result.rc, result.stdout)


@pytest.mark.parametrize("n, percentile, rank", [
    (20, 50.0, 10),
    (99, 50.0, 50),
    (100, 90.0, 90),
    (999, 90.0, 900),
    (1000, 99.0, 990),
    (10000, 99.9, 9990),
])
def test_tail_rule_picks_highest_percentile_with_ten_beyond(n, percentile, rank):
    samples = list(range(n, 0, -1))  # unsorted on purpose
    assert tail(samples) == (percentile, rank)


@pytest.mark.parametrize("n", [0, 1, 19])
def test_tail_omitted_when_too_few_samples(n):
    assert tail(list(range(n))) is None


def test_quartile_spread():
    assert quartile_spread([10.0] * 10) == 0.0
    assert quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(5.5 / 5.5)


def test_spans_self_time_and_uninstall(bc):
    tracer = spans.Tracer(cap=1)
    originals = {path: getattr(*spans._owner(bc, path)) for path, _, _ in spans.SPANS}
    installed = spans.install(tracer, bc)
    try:
        frame = tracer.enter("cli")
        bc.switches.rough_unknotting_bound(
            bc.pbraid.map_pb_to_g3(bc.pbraid.parse_pb_word("b13 B23", 4)),
            bc.parity.BaseChoice(4, 3, (1, 2, 3)))
        tracer.exit(frame)
    finally:
        spans.uninstall(installed)
    assert all(getattr(*spans._owner(bc, path)) is fn for path, fn in originals.items())
    assert len(tracer.records) == 1 and tracer.spans_started > 1
    layer_s = tracer.layer_self_s()
    assert layer_s["pbraid"] > 0 and layer_s["switches"] > 0 and layer_s["parity"] > 0
    total = tracer.records[0][3] - tracer.records[0][2]
    assert sum(tracer.self_s.values()) == pytest.approx(total)
    assert tracer.counts["switches.contexts"] == 1
    assert tracer.counts["parity.psi_calls"] > 0


def test_slab_counts(bc):
    # point 1 moves on [0, 1/2] and rests on [1/2, 1]; points 2-4 never move
    still = lambda x, y: ((0, (x, y)), (1, (x, y)))
    traj = bc.trace.Trajectory((
        ((0, (0, 0)), (Fraction(1, 4), (1, 1)), (Fraction(1, 2), (0, 0)), (1, (0, 0))),
        still(5, 0), still(0, 5), still(5, 5),
    ))
    # three slabs of C(4, 3) = 4 tuples; in the two moving slabs, the 3
    # tuples containing point 1 move
    assert spans.slab_counts(traj, 3) == (3, 12, 6)
