"""Byte-identity gate for generator motions and their traces.

Each row is a motion (kind, n, i, j) and the sha256 of the full stdout of
``braidcert simulate --kind KIND --i I --j J --n N --trace``: the trajectory
JSON, the ``word:`` line and the ``events:`` line.  The corpus is every circle
generator at n = 4, 5, every parabola generator at n = 4, 5, and parabola
b15 at n = 6.  Eight of the parabola motions split a corridor around a
static circle: b13 and b23 at n = 4, b13, b14, b23, b24 and b34 at n = 5, and
b15 at n = 6.  A change to a motion builder, the tracer or the JSON format
that alters any byte of a trajectory, traced word or event log fails here.
"""

import hashlib

import pytest

from braidcert.cli import main

# (kind, n, i, j, sha256 of the simulate --trace stdout)
CORPUS = [
    ("circle", 4, 1, 2, "e6587b42b08450e013baa4271a137ac9102d5d3ebccb7368159169b8a8b6640b"),
    ("circle", 4, 1, 3, "c4cfae15c83fda658d62e5b7d640a6904023a8d33d091efaaa550669af80af09"),
    ("circle", 4, 1, 4, "c111c7f0ecddca04f927b4eb11b0f7a8831e201a44035ca16700f3a72f1f60d8"),
    ("circle", 4, 2, 3, "19c288253aed8e1a437ded7d2f13cd489eaaf86cac4e895d7f91401bb79269a6"),
    ("circle", 4, 2, 4, "5aec5a5fdc839b0dc5f5027acb1aa33deaf4c326c7049601abfca0adaab487bd"),
    ("circle", 4, 3, 4, "5d4fd19c86bf4829f397319b81943e35ecd346986b97cbce7f5668e157063bec"),
    ("circle", 5, 1, 2, "fd91a8ecf33b5922aa58265c1feae69372c5226d9e4ff31d78f545cef29d312b"),
    ("circle", 5, 1, 3, "f62f78dbe5d4fda68211cb6f9ecc7234b87488b74733f0f29e2096b5c4bf1db1"),
    ("circle", 5, 1, 4, "59c7d509db8e13c9c1c7d90d9d4e3fa24825763d66711a7bbf0a8a3bec904c8d"),
    ("circle", 5, 1, 5, "464e52032627be7d616840965a612a9bb513d0c755c2bf27c1e921f8f196f3b0"),
    ("circle", 5, 2, 3, "8ba50f08eb6cf6a61ff67dfe9fb1e2563d7cefd71afd0f32589fd819ded5aeac"),
    ("circle", 5, 2, 4, "7d5c2018e486d77c1a107cc180657c0ffb724738b1142b61c57f0f69d2a3d212"),
    ("circle", 5, 2, 5, "9d85166df1e1f60cce039f3c9ee9e7a366334eefd0ab5f814532be372d0cbc9a"),
    ("circle", 5, 3, 4, "6b0ca7988a4b23b4c86ec29ca5312d0a3bbadc324b2b5ba223a48f26ada1ccbc"),
    ("circle", 5, 3, 5, "19f514ac1404dcebf9dd27f5b665d3342c53a86473e75e6e9cdf7844b2b7d803"),
    ("circle", 5, 4, 5, "08da8be2ec09d60d41b171c687041b69c4685f75a587f99c3ad2cd244c5d9033"),
    ("parabola", 4, 1, 2, "fb1ddea27bbc6b2430bb75cda4b424c3b6218d280b93da5047cd17b9926e1555"),
    ("parabola", 4, 1, 3, "635c6097ca296b6fc4687b6d552315550e88344be892d4944f283cc022240c1c"),
    ("parabola", 4, 1, 4, "8fe8c8e22b4f0892f5c9a5e6e50cc806433f223c42a148cd60faf2262ba84a55"),
    ("parabola", 4, 2, 3, "eae8628f2a4bfc48cadd41e9d8d9ee8a6c4c8eca75b34dfe6970b096ba938011"),
    ("parabola", 4, 2, 4, "af0f2fa75614588f44972b5bd419611f16b8fa79ac27eee078ed9ab5fa180bf1"),
    ("parabola", 4, 3, 4, "0b803c1d8e099a640df0d358e519b5c9c9c02c9cea28b2b9751376156d36972a"),
    ("parabola", 5, 1, 2, "ca47d6deb3f7ebd6d9037d54a975943d37b22a398110f8ce6af4e64db1ffb623"),
    ("parabola", 5, 1, 3, "4fbd0d15b8e1e5af453f70356a0ae0bda8680411ffd4c89fee98a07998f9adfa"),
    ("parabola", 5, 1, 4, "b12835e225627b7f08bd4258feb139e2edc396ef5056739be787e800291c2a13"),
    ("parabola", 5, 1, 5, "ed285a5f9df7cf67af5148873337fc1f17da7f5861be87c8b285c13e0ff8c90d"),
    ("parabola", 5, 2, 3, "de1fe66fd198fe3c32c63d58582ed35aaaaa7fa117ab9ede6b34a2857ffe2770"),
    ("parabola", 5, 2, 4, "258c6b22acee448f7a15f4709956ebd1ff626aa253bf708bb0e7121b85b6dca0"),
    ("parabola", 5, 2, 5, "21b44de91e709c6ea34d7a4cb41e57e9cedc9925203741a2a396b2ffbaee42df"),
    ("parabola", 5, 3, 4, "fcee00c4a577c6df58be32676c3118abaebf0ceff9e77e469791e0dfe1725864"),
    ("parabola", 5, 3, 5, "0a45c04657f7ec10c1b4fa3fb80771f064539825399080c7f6eb64792842099c"),
    ("parabola", 5, 4, 5, "48948fd4d52c619aea8ff1af5504fb1f6a9124f2e311a2cf4a040d0e220113a0"),
    ("parabola", 6, 1, 5, "2b4b1f59a44adc15ac12b96b86cb36b2d178d1bba211705e0e7b79af48875972"),
]


@pytest.mark.parametrize("kind, n, i, j, digest", CORPUS)
def test_simulate_trace_digest(kind, n, i, j, digest, capsys):
    argv = ["simulate", "--kind", kind, "--i", str(i), "--j", str(j), "--n", str(n), "--trace"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
