"""Certificate.to_json against its reference, json.dumps of the dict form."""

import json
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from braidcert.certificates import Certificate, ContextReport
from braidcert.gnk import parse_gnk_word
from braidcert.pbraid import parse_pb_word
from braidcert.switches import gnk_report, unknotting_report
from certificate_oracles import reference_to_dict

POOLS = Path(__file__).resolve().parents[1] / "perfbench" / "pools"


def reference_json(cert: Certificate) -> str:
    return json.dumps(reference_to_dict(cert), sort_keys=True, indent=2)


# words as the CLI prints them, compact and braced, and arbitrary text, so
# the writer's string escaping is checked too
LETTERS = ("b12", "B37", "b{1,10}", "B{3,12}", "a123", "a{1,2,10}", "a{2,9,11}", "b{1,10}")
WORDS = st.one_of(st.lists(st.sampled_from(LETTERS), max_size=5).map(" ".join), st.text(max_size=8))
BITS = st.text(alphabet="01", min_size=0, max_size=6)
# the k of each image, in certificate order and out of it, so the writer's
# key sort is checked
IMAGE_KS = ((), (3,), (3, 4), (4, 3), (12, 3))


@st.composite
def context_reports(draw):
    k = draw(st.sampled_from((3, 4)))
    return ContextReport(
        k=k,
        base_m=tuple(sorted(draw(st.sets(st.integers(1, 24), min_size=k, max_size=k)))),
        phi_image=draw(st.lists(BITS.map(lambda b: f"f[{b}]"), max_size=3).map(" ".join)),
        pi_support=tuple(sorted(draw(st.sets(BITS, max_size=3)))),
        rough_bound=draw(st.integers(0, 5)),
        min_switches=draw(st.one_of(st.none(), st.integers(0, 12))),
        feasible_necessary=draw(st.booleans()),
    )


@st.composite
def certificates(draw):
    bound = st.one_of(st.none(), st.integers(0, 40))
    return Certificate(
        input_word=draw(WORDS),
        input_kind=draw(st.sampled_from(("pb", "gnk"))),
        n=draw(st.integers(2, 24)),
        budget=draw(st.integers(0, 10)),
        contexts=tuple(draw(st.lists(context_reports(), max_size=4))),
        images=tuple((k, draw(WORDS)) for k in draw(st.sampled_from(IMAGE_KS))),
        trisecant_bound=draw(bound),
        quadrisecant_bound=draw(bound),
    )


# the edge shapes, besides whatever hypothesis draws: no context (best_context
# null) and no image; over-budget and exact counts, empty and nonempty
# supports, two images, null event bounds and two-digit base entries
NO_CONTEXT = Certificate("b12", "pb", 2, 0, ())
EVERY_SHAPE = Certificate("a{1,2,10} a{1,2,10}", "gnk", 10, 6, (
    ContextReport(3, (1, 2, 10), "", (), 0, 0, True),
    ContextReport(3, (2, 9, 10), "f[0101] f[1100]", ("0101", "1100"), 1, None, True),
    ContextReport(4, (1, 2, 3, 10), "f[1]", ("1",), 1, 3, False),
), ((3, "a{1,2,10}"), (4, "")), None, None)


@settings(max_examples=200, deadline=None)
@given(certificates())
@example(NO_CONTEXT)
@example(EVERY_SHAPE)
def test_to_json_matches_reference(cert):
    assert cert.to_json() == reference_json(cert)


def pool_certificates():
    """The certificate of every item of the certify-search and certify-wide
    benchmark pools."""
    for workload in ("certify-search", "certify-wide"):
        pool = json.loads((POOLS / f"{workload}.json").read_text())
        for sub in pool["subpools"]:
            for item in sub["items"]:
                _, word, *flags = item["argv"]
                pairs = [f for f in flags if f != "--gnk"]
                opts = dict(zip(pairs[::2], pairs[1::2]))
                n, budget = int(opts["--n"]), int(opts["--budget"])
                if "--gnk" in flags:
                    yield gnk_report(parse_gnk_word(word, n, int(opts["--k"])), budget=budget)
                else:
                    yield unknotting_report(parse_pb_word(word, n), budget=budget)


def test_to_json_matches_reference_on_the_certify_pools():
    certs = list(pool_certificates())
    assert len(certs) == 280
    for cert in certs:
        assert cert.to_json() == reference_json(cert)
