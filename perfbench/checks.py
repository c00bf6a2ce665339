"""Reference checks behind ``fail_frac``.

Only the fields the paper fixes exactly are compared, never raw output bytes,
so a later change that adds certificate fields or reorders JSON keys still
passes:

* certificates: per context (k, base), the phi image, the pi support and the
  rough bound (compared through one digest), and every ``min_switches`` the
  reference resolved;
* traced motions: the traced word, which must also have the same psi and phi
  as the algebraic image of the generator over every base (the tracer suite's
  cross-check) whenever the recorded word had them.  Some recorded parabola
  words do not (``"algebra": false`` in the pool); for those the benchmark
  pins the word and reports the disagreement instead of failing every run;
* relator suites: exit code 0 and no failed check.
"""

from __future__ import annotations

import hashlib
import json
from types import ModuleType


def _contexts(cert: dict) -> list[dict]:
    return sorted(cert["contexts"], key=lambda c: (c["k"], c["base_m"]))


def certificate_digest(cert: dict) -> str:
    fixed = [[c["k"], c["base_m"], c["phi_image"], sorted(c["pi_support"]), c["rough_bound"]]
             for c in _contexts(cert)]
    blob = json.dumps(fixed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def certificate_expect(stdout: str) -> dict:
    cert = json.loads(stdout)
    resolved = [None if c["min_switches"] == "budget_exceeded" else c["min_switches"]
                for c in _contexts(cert)]
    return {"digest": certificate_digest(cert), "min_switches": resolved}


def check_certificate(stdout: str, expect: dict) -> bool:
    cert = json.loads(stdout)
    if certificate_digest(cert) != expect["digest"]:
        return False
    got = [c["min_switches"] for c in _contexts(cert)]
    return len(got) == len(expect["min_switches"]) and all(
        ref is None or ref == value for ref, value in zip(expect["min_switches"], got))


def traced_word(stdout: str) -> str:
    for line in stdout.splitlines():
        if line.startswith("word: "):
            return line[len("word: "):]
    raise ValueError("no traced word in output")


def trace_expect(bc: ModuleType, argv: list[str] | tuple[str, ...], stdout: str) -> dict:
    opts = dict(zip(argv[1::2], argv[2::2]))
    expect = {"kind": opts["--kind"], "i": int(opts["--i"]), "j": int(opts["--j"]),
              "n": int(opts["--n"]), "word": traced_word(stdout)}
    expect["algebra"] = matches_algebra(bc, expect, expect["word"])
    return expect


def matches_algebra(bc: ModuleType, expect: dict, word_text: str) -> bool:
    """psi and phi of the traced word equal those of the generator's image
    under every base, as in ``verify --suite tracer``."""
    gnk, parity, pbraid = bc.gnk, bc.parity, bc.pbraid
    n = expect["n"]
    k = 3 if expect["kind"] == "circle" else 4
    mapper = pbraid.map_pb_to_g3 if k == 3 else pbraid.map_pb_to_g4
    traced = gnk.parse_gnk_word("" if word_text == "(empty)" else word_text, n, k)
    image = mapper(pbraid.PBWord(n, (pbraid.pb_letter(expect["i"], expect["j"]),)), reduced=False)
    return parity.is_even(traced) and all(
        parity.psi_word(traced, b) == parity.psi_word(image, b)
        and parity.phi(traced, b) == parity.phi(image, b)
        for b in parity.all_bases(n, k))


def check_trace(bc: ModuleType, stdout: str, expect: dict) -> bool:
    word = traced_word(stdout)
    return word == expect["word"] and (not expect["algebra"] or matches_algebra(bc, expect, word))


def check_verify(stdout: str) -> bool:
    summary = json.loads(stdout)
    return summary["failed"] == 0 and summary["checks"] > 0


class Checker:
    """Checks item outputs against their references.  Outputs of repeated
    items are checked once; the result is kept per (argv, output)."""

    def __init__(self, bc: ModuleType):
        self._bc = bc
        self._seen: dict[tuple[str, str], bool] = {}

    def __call__(self, item, rc: int | None, stdout: str) -> bool:
        if rc != 0:
            return False
        key = (item.key, stdout)
        if key not in self._seen:
            self._seen[key] = self._check(item, stdout)
        return self._seen[key]

    def _check(self, item, stdout: str) -> bool:
        try:
            if item.kind == "certify":
                return check_certificate(stdout, item.expect)
            if item.kind == "trace":
                return check_trace(self._bc, stdout, item.expect)
            return check_verify(stdout)
        except (ValueError, KeyError, TypeError):  # malformed output is a wrong output
            return False
