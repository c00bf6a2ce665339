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
    ("parabola", 4, 1, 2, "23508ed2bf708afa0fd50c3e76f3ce56aadb1d5434b3a0046029102de8b3e0bd"),
    ("parabola", 4, 1, 3, "dfd93659cf079ccc6cde22255b0bf764ce45c8009960e47fb0c21168271b2ddb"),
    ("parabola", 4, 1, 4, "1361db1d85086a31f0437dd29950f1bf100213f188f100d7d8c014322b5529b4"),
    ("parabola", 4, 2, 3, "ff05d6d93ecb16cdbbcecccf72a356b76f45f1a87cdf128a9e74f344d7722fbf"),
    ("parabola", 4, 2, 4, "2398485eab12382cc69181d798f639da575b2cc6fa2afddc5a31402131f86d41"),
    ("parabola", 4, 3, 4, "8c68ae22ef3ae8db6da5372053175c31deb32f1f8e0cede0501b104c6a0f6d39"),
    ("parabola", 5, 1, 2, "28e743120977bec1c9a9b8af1cf23b93a2cb1e246d9fb793e106101599533767"),
    ("parabola", 5, 1, 3, "8a0c5abd6256e8b9ec566f3c54e8db73cce8d13280548354c8a3fcb2dd43608e"),
    ("parabola", 5, 1, 4, "c4f75bd2631e29e9c6c5d86b6d4bbed99912e4d85e7d0ae52fe4875956501791"),
    ("parabola", 5, 1, 5, "79effdb65e8fb433ae6cab4aa6790aa55088a475c88fc5554a798a1474763364"),
    ("parabola", 5, 2, 3, "86275ae51de0187eca28302efd33234bf81e0d5347014bcf175a3503869eb604"),
    ("parabola", 5, 2, 4, "943753bb690ba4704d3d213c456eba7bebbb95461e4e449a42c625c86685a890"),
    ("parabola", 5, 2, 5, "e15abf0e93da7ad15d4a9a75acb2fe9e7ad61ee96fab25efe05eff9212ca6191"),
    ("parabola", 5, 3, 4, "75eb87ed19d82923e82079a5beb641b12b9c7b35f3994a0b3e5dd21a69a85084"),
    ("parabola", 5, 3, 5, "055e1dbbcd81011a343d8eb8475dcaeb4f71031b9f168cc4403e437e3cabc311"),
    ("parabola", 5, 4, 5, "1d5340dd51d70316201cbbccaff12981231bfa59c726f7b0a36a9d8a10a9fed0"),
    ("parabola", 6, 1, 5, "d136c52714368d4b949b3072a57ab1bb96619c2572f69e23ad8ee821d04c73ef"),
]


@pytest.mark.parametrize("kind, n, i, j, digest", CORPUS)
def test_simulate_trace_digest(kind, n, i, j, digest, capsys):
    argv = ["simulate", "--kind", kind, "--i", str(i), "--j", str(j), "--n", str(n), "--trace"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
