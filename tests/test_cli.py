import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from braidcert import cli, gnk, parity, pbraid, verify
from braidcert.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reduce_gnk(capsys):
    code, out, _ = run(capsys, "reduce", "--gnk", "a123 a123", "--n", "4", "--k", "3")
    assert code == 0
    assert "reduced: (empty)" in out
    assert "complexity: 0" in out


def test_reduce_toy(capsys):
    code, out, _ = run(capsys, "reduce", "--toy", "a^4 b^2 c^4 b^-4")
    assert code == 0
    assert "reduced: a^4 b^2 c^4 b^-4" in out
    assert "feasible: true" in out
    assert "switch_lower_bound: 5" in out


E4300 = "9" * 4300  # the largest exponent Python prints: 4300 digits


@pytest.mark.parametrize("word", [f"a^{E4300} a^{E4300}", f"a^{E4300} b a^{E4300}"])
def test_reduce_toy_size_limit(capsys, word):
    # the merged exponent 2E, and the lower bound E + 1, have 4301 digits:
    # refused before any line is printed
    code, out, err = run(capsys, "reduce", "--toy", word)
    assert code == 3
    assert out == ""
    assert err == "error: a result has more than 4300 digits\n"


@pytest.mark.parametrize("word,code,err", [
    # a well-formed exponent of more than 4300 digits is refused as too
    # large, without quoting it; at 4300 digits it still parses
    (f"a^9{E4300}", 3, "error: a toy exponent has more than 4300 digits\n"),
    (f"b a^-{E4300}0", 3, "error: a toy exponent has more than 4300 digits\n"),
    (f"a^{E4300}", 0, ""),
    ("a^12x", 2, "parse error: bad toy exponent in 'a^12x'\n"),
    ("a^", 2, "parse error: bad toy exponent in 'a^'\n"),
], ids=["4301-digits", "4301-digits-negative", "4300-digits", "malformed", "missing"])
def test_reduce_toy_exponent_limit(capsys, word, code, err):
    got_code, out, got_err = run(capsys, "reduce", "--toy", word)
    assert (got_code, got_err) == (code, err)
    assert (out == "") == (code != 0)


def test_reduce_even(capsys):
    code, out, _ = run(capsys, "reduce", "--even", "a1 a2 a2 a1")
    assert code == 0
    assert "reduced: (empty)" in out


def test_map_examples(capsys):
    code, out, _ = run(capsys, "map", "--n", "3", "--k", "3", "b12")
    assert code == 0
    assert "image: (empty)" in out
    code, out, _ = run(capsys, "map", "--n", "4", "--k", "3", "b13")
    assert code == 0
    image = [l for l in out.splitlines() if l.startswith("image:")][0]
    assert len(image.split()) == 7  # label + six letters
    assert "even: true" in out


def test_phi_worked_example(capsys):
    code, out, _ = run(capsys, "phi", "--n", "4", "--k", "3",
                       "a123 a234 a123 a134 a123 a134 a123 a234")
    assert code == 0
    assert "phi: f[00] f[10] f[11] f[10]" in out
    assert "complexity: 4" in out


def test_phi_odd_word_exit_code(capsys):
    code, _, err = run(capsys, "phi", "--n", "4", "--k", "3", "a123")
    assert code == 3
    assert "error" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "map", "--n", "3", "--k", "3", "z99")
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize("argv, message", [
    (("phi", "--n", "4", "--k", "3", "a125"), "letter (1, 2, 5) out of range 1..4"),
    (("reduce", "--gnk", "a132", "--n", "4", "--k", "3"),
     "letter (1, 3, 2) is not a strictly increasing 3-tuple"),
    (("bounds", "--gnk", "--n", "4", "--k", "3", "a12"),
     "letter (1, 2) is not a strictly increasing 3-tuple"),
    (("phi", "--n", "4", "--k", "3", "a{1,2,11}"), "letter (1, 2, 11) out of range 1..4"),
])
def test_malformed_gnk_letter_is_a_parse_error(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)  # bounds would persist under ./certificates
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"parse error: {message}\n"
    assert not list(tmp_path.iterdir())


def test_bad_gnk_context_is_a_precondition_error(capsys):
    # the (n, k) context is checked before any letter
    code, out, err = run(capsys, "phi", "--n", "2", "--k", "3", "a125")
    assert (code, out) == (3, "")
    assert err == "error: need 1 <= k <= n, got n=2, k=3\n"


@pytest.mark.parametrize("word", ["b12", ""])
def test_map_needs_k_strands(capsys, word):
    # refused for the context, whether or not the word has a letter to map
    code, out, err = run(capsys, "map", word, "--n", "2", "--k", "3")
    assert (code, out) == (3, "")
    assert err == "error: need 1 <= k <= n, got n=2, k=3\n"


def test_bounds_needs_two_strands(tmp_path, capsys):
    code, out, err = run(capsys, "bounds", "", "--n", "1", "--out-dir", str(tmp_path))
    assert (code, out) == (3, "")
    assert err == "error: need at least 2 strands, got n=1\n"
    assert not list(tmp_path.iterdir())


def test_bounds_worked_example(tmp_path, capsys):
    beta = "a123 a234 a123 a134 a123 a134 a123 a234"
    code, out, _ = run(capsys, "bounds", "--gnk", "--n", "4", "--k", "3",
                       "--out-dir", str(tmp_path), beta)
    assert code == 0
    cert = json.loads(out)
    assert cert["best_bound"] == 2
    assert cert["best_context"] == {"k": 3, "base_m": [1, 2, 3]}
    files = list(tmp_path.glob("certificate-*.json"))
    assert len(files) == 1
    assert json.loads(files[0].read_text()) == cert


def test_bounds_at_n_equals_k(tmp_path, capsys):
    # n = k: the parity group Z has dimension 0 and the one base is the group
    code, out, _ = run(capsys, "bounds", "a123 a123", "--n", "3", "--k", "3", "--gnk",
                       "--out-dir", str(tmp_path))
    assert code == 0
    context = {"base_m": [1, 2, 3], "feasible_necessary": True, "k": 3, "min_switches": 0,
               "phi_image": "", "pi_support": [], "rough_bound": 0}
    assert out == json.dumps({
        "best_bound": 0, "best_context": {"base_m": [1, 2, 3], "k": 3}, "budget": 6,
        "contexts": [context], "images": {"3": ""}, "input_kind": "gnk",
        "input_word": "a123 a123", "n": 3, "quadrisecant_bound": None,
        "tool_version": "0.1.0", "trisecant_bound": None}, indent=2) + "\n"


def test_bounds_deterministic_bytes(tmp_path, capsys):
    word = "b13 B23"
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "bounds", "--n", "4", "--budget", "4",
                           "--out-dir", str(tmp_path), word)
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    files = list(tmp_path.glob("certificate-*.json"))
    assert len(files) == 1


def test_bounds_serialises_once(tmp_path, capsys, monkeypatch):
    from braidcert import certificates

    calls = []
    to_json = certificates.Certificate.to_json

    def counting(cert):
        calls.append(cert)
        return to_json(cert)

    monkeypatch.setattr(certificates.Certificate, "to_json", counting)
    code, out, _ = run(capsys, "bounds", "--n", "4", "--budget", "2",
                       "--out-dir", str(tmp_path), "b13 B23")
    assert code == 0
    assert len(calls) == 1
    [saved] = tmp_path.glob("certificate-*.json")
    assert saved.read_text() == out == to_json(calls[0]) + "\n"


def test_bounds_odd_gnk_word_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "bounds", "--gnk", "--n", "4", "--k", "3",
                       "--out-dir", str(tmp_path), "a123")
    assert code == 3


@pytest.mark.parametrize("t", [500, 502], ids=["at-limit", "above-limit"])
def test_bounds_long_image_limit(tmp_path, capsys, t):
    # (a123 a124)^t has an image of t letters on the bases 123 and 124: at
    # the limit of 500 letters the exact minimum runs; above it a positive
    # budget is refused after the parity pass, before any DP
    word = " ".join(["a123 a124"] * t)
    argv = ("bounds", "--gnk", "--n", "4", "--k", "3", "--out-dir", str(tmp_path), word)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    elapsed = time.perf_counter() - start
    if t == 500:
        assert code == 0
        contexts = json.loads(out)["contexts"]
        assert [len(c["phi_image"].split()) for c in contexts] == [500, 500, 0, 0]
        assert [c["min_switches"] for c in contexts] == ["budget_exceeded"] * 2 + [0, 0]
        return
    assert elapsed < 1
    assert (code, out) == (3, "")
    assert err == ("error: a positive --budget needs parity images of at most 500 letters, "
                   "got 502; --budget 0 gives the other bounds without the exact minimum\n")
    assert not list(tmp_path.iterdir())
    code, out, _ = run(capsys, *argv, "--budget", "0")
    assert code == 0 and json.loads(out)["budget"] == 0


@pytest.mark.parametrize("argv", [
    ("bounds", "--n", "4", "b13 B23"),
    ("bounds", "--gnk", "--n", "4", "--k", "3", "a123 a123"),
    ("bounds", "--n", "2", "b12"),  # no contexts at all: still rejected
])
def test_bounds_negative_budget_exit_code(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv, "--budget", "-1", "--out-dir", str(tmp_path))
    assert code == 3
    assert out == ""
    assert err == "error: budget must be nonnegative, got -1\n"
    assert not list(tmp_path.iterdir())


def test_verify_relators(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "relators", "--n", "4", "--k", "3")
    assert code == 0
    summary = json.loads(out)
    assert summary["failed"] == 0
    assert summary["checks"] == summary["passed"] > 0


def relators_by_enumeration(n, k):
    """The relators suite's checks, each from every one of the 2^dim start
    states of every base: a relator passes iff it acts trivially on Z x H."""
    bases = parity.all_bases(n, k)

    def trivial(w):
        return all(parity.phi_at(w, b, x) == (x, ())
                   for b in bases for x in range(1 << b.dim))

    checks = [(f"group relator {idx} acts trivially", trivial(r))
              for idx, r in enumerate(gnk.relators(n, k))]
    mapper = pbraid.map_pb_to_g3 if k == 3 else pbraid.map_pb_to_g4
    for rel in pbraid.pb_relators(n):
        if rel.tag != "printed_vacuous":
            checks.append((f"braid relator {rel.left} = {rel.right} maps to 1",
                           trivial(mapper(rel.left * rel.right.inverse()))))
    return checks


@pytest.mark.parametrize("n, k", [(3, 3), (4, 3), (4, 4), (5, 3), (5, 4)])
def test_relators_suite_matches_full_enumeration(n, k):
    # the suite starts from the zero state only; translation covariance
    # (tests/test_parity.py) says that covers every start state
    checks = verify.relator_checks(n, k)
    assert checks == relators_by_enumeration(n, k)
    assert checks and all(ok for _, ok in checks)


def test_verify_relators_rejects_a_nontrivial_relator(capsys, monkeypatch):
    # m and m2 share k-1 indices, so they do not far-commute, and the
    # commutator (m m2)^2 acts nontrivially
    m, m2 = (1, 2, 3), (1, 2, 4)
    assert not gnk.far_commutes(m, m2)
    bogus = gnk.GnkWord(4, 3, (m, m2, m, m2))
    relators = gnk.relators

    def with_bogus(n, k):
        return relators(n, k) + [bogus]

    monkeypatch.setattr(gnk, "relators", with_bogus)
    name = f"group relator {len(relators(4, 3))} acts trivially"
    assert [c for c in relators_by_enumeration(4, 3) if not c[1]] == [(name, False)]
    code, out, err = run(capsys, "verify", "--suite", "relators", "--n", "4", "--k", "3")
    assert code == 1
    assert err == ""
    assert json.loads(out)["failures"] == [name]


def test_verify_relators_rejects_a_nontrivial_braid_relator(capsys, monkeypatch):
    # b12 = b13 is no relation of the pure braid group, and its k = 3 image
    # b12 b13^-1 acts nontrivially on some base
    n = 4
    b12, b13 = (pbraid.PBWord(n, (pbraid.pb_letter(1, j),)) for j in (2, 3))
    bogus = pbraid.PBRelation(b12, b13, "bogus")
    pb_relators = pbraid.pb_relators

    def with_bogus(n):
        return pb_relators(n) + [bogus]

    monkeypatch.setattr(pbraid, "pb_relators", with_bogus)
    name = "braid relator b12 = b13 maps to 1"
    assert [c for c in relators_by_enumeration(n, 3) if not c[1]] == [(name, False)]
    code, out, err = run(capsys, "verify", "--suite", "relators", "--n", str(n), "--k", "3")
    assert code == 1
    assert err == ""
    assert json.loads(out)["failures"] == [name]


def test_verify_tracer_rejects_another_image(capsys, monkeypatch):
    # b12's circle trace is compared against the image of b13, whose phi
    # differs from b12's on some base
    n = 4
    b12, b13 = (pbraid.PBWord(n, (pbraid.pb_letter(1, j),)) for j in (2, 3))
    image = pbraid.map_pb_to_g3

    def swapped(w, reduced=True):
        return image(b13 if w == b12 else w, reduced=reduced)

    bases = parity.all_bases(n, 3)
    u, v = image(b12, reduced=False), image(b13, reduced=False)
    assert any(parity.phi(u, b) != parity.phi(v, b) for b in bases)
    assert not verify._same_phi(u, v) and verify._same_phi(u, u)
    # compared with itself, an odd word can only be refused for its parity
    odd = gnk.GnkWord(n, 3, u.letters + u.letters[:1])
    assert not parity.is_even(odd) and not verify._same_phi(odd, odd)
    monkeypatch.setattr(pbraid, "map_pb_to_g3", swapped)
    code, out, _ = run(capsys, "verify", "--suite", "tracer", "--n", str(n))
    assert code == 1
    assert json.loads(out)["failures"] == ["circle trace of b12 matches the k=3 image"]


def test_verify_relators_size_limit_fails_fast(capsys, monkeypatch):
    calls = []
    relators = gnk.relators
    monkeypatch.setattr(gnk, "relators", lambda *a: calls.append(a) or relators(*a))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--suite", "relators", "--n", "13", "--k", "4")
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert err == "error: the relators suite needs n <= 12, got 13\n"
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["bounds", "b{1,64} B{2,7}", "--n", "64"],
    ["bounds", "b{1,2}", "--n", "1000"],
    ["bounds", "--gnk", "--n", "300", "--k", "3", "a{1,2,3} a{4,5,6} a{1,2,3} a{4,5,6}"],
])
def test_bounds_size_limit_fails_fast(capsys, monkeypatch, argv):
    # refused before the word is parsed or any context is built
    calls = []
    for module, name in ((pbraid, "parse_pb_word"), (gnk, "parse_gnk_word")):
        monkeypatch.setattr(module, name, lambda *a: calls.append(a))
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    n = argv[argv.index("--n") + 1]
    assert err == f"error: bounds needs n <= 32, got {n}\n"
    assert calls == []


@pytest.mark.parametrize("argv, limit", [
    (["map", "b{1,3000}", "--n", "3000", "--k", "3"], 32),
    (["map", "b{1,33}", "--n", "33", "--k", "4"], 32),
    (["phi", "a{1,2,4} a{1,2,4}", "--n", "100001", "--k", "3"], 100000),
    (["phi", "a{1,2,3,5} a{1,2,3,5}", "--n", "1000000", "--k", "4"], 100000),
])
def test_map_and_phi_size_limits_fail_fast(capsys, monkeypatch, argv, limit):
    # refused before the word is parsed
    calls = []
    for module, name in ((pbraid, "parse_pb_word"), (gnk, "parse_gnk_word")):
        monkeypatch.setattr(module, name, lambda *a: calls.append(a))
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert err == f"error: {argv[0]} needs n <= {limit}, got {argv[argv.index('--n') + 1]}\n"
    assert calls == []


def test_map_and_phi_at_their_size_limits(capsys):
    assert cli._IMAGES_MAX_N == 32 and cli._PHI_MAX_N == 100000
    code, out, _ = run(capsys, "map", "b{1,32}", "--n", "32", "--k", "3")
    assert code == 0 and out.endswith("even: true\n")
    code, out, _ = run(capsys, "phi", "a{1,2,3} a{1,2,4} a{1,2,3} a{1,2,4}", "--n", "100000")
    assert code == 0 and out.endswith("complexity: 2\n")
    # two letters f[...] of (k-1)(n-k) bits each
    assert [len(x) for x in out.split()[1:3]] == [len("f[]") + 2 * 99997] * 2


def fresh_process(argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "braidcert.cli", *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_parser_built_once_and_reused_cleanly(tmp_path, capsys, monkeypatch):
    # one parser serves every call of main in a process; options of one call
    # must not leak into the next, and a rejected argv must still print the
    # usage and exit 2, as a fresh process does
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    monkeypatch.chdir(tmp_path)
    argvs = [
        ("bounds", "--n", "4", "--budget", "2", "--out-dir", "certs", "b13 B23"),
        ("bounds", "--gnk", "--n", "4", "--k", "3", "--budget", "0", "a123 a234 a123 a234"),
        ("verify", "--suite", "relators", "--n", "5", "--k", "4"),
        ("verify", "--suite", "relators"),
        ("verify", "--suite", "relators", "--k", "5"),
    ]
    for argv in argvs:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == fresh_process(argv, tmp_path)
    assert len(built) == 1


def test_verify_appendix_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--suite", "appendix", "--seed", "7")
    code2, out2, _ = run(capsys, "verify", "--suite", "appendix", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2


def test_appendix_inputs_follow_the_seed(monkeypatch):
    # the suite prints the same bytes at every seed when its checks pass, so
    # the seed is read off the inputs that reach the determinant
    from braidcert import geometry

    delta_det = geometry.delta_det
    inputs = []

    def recording(*xs):
        inputs[-1].append(xs)
        return delta_det(*xs)

    monkeypatch.setattr(geometry, "delta_det", recording)
    for seed in (0, 0, 1):
        inputs.append([])
        assert all(ok for _, ok in verify.appendix_checks(seed))
    assert len(inputs[0]) > 1000
    assert inputs[0] == inputs[1]
    assert inputs[0] != inputs[2]


def test_verify_tracer(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "tracer", "--n", "3")
    assert code == 0
    assert json.loads(out)["failed"] == 0


@pytest.mark.parametrize("n", ["0", "2"])
def test_verify_tracer_needs_three_points(capsys, n):
    code, out, err = run(capsys, "verify", "--suite", "tracer", "--n", n)
    assert code == 3
    assert out == ""
    assert err == f"error: the tracer suite needs n >= 3, got {n}\n"


def test_simulate_round_trip(tmp_path, capsys):
    out_file = tmp_path / "traj.json"
    code, _, err = run(capsys, "simulate", "--kind", "circle", "--i", "1",
                       "--j", "2", "--n", "3", "--out", str(out_file))
    assert code == 0
    from braidcert.trace import event_word, trace_events, trajectory_from_json

    traj = trajectory_from_json(out_file.read_text())
    assert len(event_word(traj.n, 3, trace_events(traj, 3))) == 2


def test_simulate_out_over_a_longer_file(tmp_path, capsys):
    # the file is rewritten in place and cut to length: no old tail is left
    argv = ("simulate", "--kind", "circle", "--i", "1", "--j", "2", "--n", "3")
    code, payload, _ = run(capsys, *argv)
    assert code == 0
    out_file = tmp_path / "traj.json"
    out_file.write_text("x" * (3 * len(payload)))
    code, out, err = run(capsys, *argv, "--out", str(out_file))
    assert (code, out, err) == (0, "", f"saved: {out_file}\n")
    assert out_file.read_text() == payload


def test_simulate_trace_flag(capsys):
    code, out, _ = run(capsys, "simulate", "--kind", "circle", "--i", "1",
                       "--j", "2", "--n", "3", "--trace")
    assert code == 0
    assert "word: a123 a123" in out
    assert '"kind": "trisecant"' in out


def test_simulate_parabola_size_limit(capsys):
    code, out, err = run(capsys, "simulate", "--kind", "parabola", "--i", "1",
                         "--j", "2", "--n", "8", "--trace")
    assert code == 3
    assert out == ""
    assert err == "error: parabola motions need n <= 7, got 8\n"


@pytest.mark.parametrize("n", [33, 2000])
def test_simulate_circle_size_limit_fails_fast(n, capsys, monkeypatch):
    # refused before any circle point is placed or any tuple traced
    from braidcert import trace

    calls = []
    for name in ("_circle_point", "trace_events"):
        fn = getattr(trace, name)
        monkeypatch.setattr(trace, name, lambda *a, fn=fn: calls.append(a) or fn(*a))
    start = time.perf_counter()
    code, out, err = run(capsys, "simulate", "--kind", "circle", "--i", "1",
                         "--j", "2", "--n", str(n), "--trace")
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert err == f"error: circle motions need n <= 32, got {n}\n"
    assert calls == []
    assert trace._CIRCLE_MAX_N == 32
    code, out, _ = run(capsys, "simulate", "--kind", "circle", "--i", "31",
                       "--j", "32", "--n", "32")
    assert code == 0 and json.loads(out)["n"] == 32


# The per-layer benchmark wraps these attributes of ``trace`` (its build and
# trace spans, and a hook reading the trajectory and k as the two positional
# arguments of trace_events); the CLI and the builders must look each one up
# in the module at call time, or the wrapper sees no call.
TRACER_CONTRACT_ATTRS = ("simulate_bij_circle", "simulate_bij_parabola", "trace_events")


def count_tracer_calls(monkeypatch):
    from braidcert import trace

    calls = {name: [] for name in TRACER_CONTRACT_ATTRS}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append((args, kwargs))
            return fn(*args, **kwargs)
        return wrapper

    for name in TRACER_CONTRACT_ATTRS:
        monkeypatch.setattr(trace, name, counting(name, getattr(trace, name)))
    return calls


SIMULATE_TRACE = {
    "circle": ("simulate", "--kind", "circle", "--i", "1", "--j", "3", "--n", "4", "--trace"),
    "parabola": ("simulate", "--kind", "parabola", "--i", "1", "--j", "2", "--n", "4", "--trace"),
}


def test_tracer_calls_through_module_attributes(capsys, monkeypatch):
    from braidcert.trace import Trajectory

    steps = [
        (SIMULATE_TRACE["circle"], ["simulate_bij_parabola"]),
        (SIMULATE_TRACE["parabola"], ["simulate_bij_circle"]),
        (("verify", "--suite", "tracer", "--n", "4"), []),
    ]
    for argv, unused in steps:
        calls = count_tracer_calls(monkeypatch)
        assert run(capsys, *argv)[0] == 0
        assert [name for name, c in calls.items() if not c] == unused
        for args, kwargs in calls["trace_events"]:
            assert kwargs == {} and len(args) == 2
            assert isinstance(args[0], Trajectory) and args[1] in (3, 4)


@pytest.mark.parametrize("argv, traces", [
    (SIMULATE_TRACE["circle"], 1),
    (SIMULATE_TRACE["parabola"], 1),
    (("verify", "--suite", "tracer", "--n", "4"), 7),
    (("verify", "--suite", "tracer", "--n", "5"), 11),
])
def test_each_motion_traced_once(capsys, monkeypatch, argv, traces):
    calls = count_tracer_calls(monkeypatch)
    assert run(capsys, *argv)[0] == 0
    builds = len(calls["simulate_bij_circle"]) + len(calls["simulate_bij_parabola"])
    assert builds == traces
    assert len(calls["trace_events"]) == traces


def test_verify_tracer_size_limit_fails_fast(capsys, monkeypatch):
    # the parabola limit is hit before any circle motion is built
    calls = count_tracer_calls(monkeypatch)
    code, out, err = run(capsys, "verify", "--suite", "tracer", "--n", "8")
    assert code == 3
    assert out == ""
    assert err == "error: parabola motions need n <= 7, got 8\n"
    assert calls["simulate_bij_circle"] == []


def test_unwritable_output_paths_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing" / "traj.json"
    code, out, err = run(capsys, "simulate", "--kind", "circle", "--i", "1",
                         "--j", "2", "--n", "3", "--out", str(missing))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1

    regular = tmp_path / "file"
    regular.write_text("")
    code, out, err = run(capsys, "bounds", "--n", "4", "b13", "--budget", "0",
                         "--out-dir", str(regular / "sub"))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_geometry_ops(capsys):
    code, out, _ = run(capsys, "geometry", "--op", "delta", "--values", "1,2,3,4")
    assert code == 0
    assert "delta: 120" in out and "concyclic: false" in out
    code, out, _ = run(capsys, "geometry", "--op", "fourth", "--values", "1,2,3")
    assert "fourth_intersection: -6" in out
    code, out, _ = run(capsys, "geometry", "--op", "circle",
                       "--values", "0,0;2,0;0,2")
    assert "center: 1,1" in out and "radius_sq: 2" in out
    code, out, _ = run(capsys, "geometry", "--op", "order", "--n", "5",
                       "--j", "3", "--case", "2")
    assert "order: (2,4) (2,5) (1,4) (1,5)" in out
    code, out, _ = run(capsys, "geometry", "--op", "growth", "--n", "3")
    assert "ts: 1,100,1000000" in out


@pytest.mark.parametrize("argv, message", [
    (("--op", "growth", "--n", "13"), "growth sequences need n <= 12, got 13"),
    (("--op", "growth", "--n", "8", "--case23"),
     "case-2/3 growth sequences need n <= 7, got 8"),
    (("--op", "order", "--n", "22", "--j", "3", "--case", "1"),
     "growth sequences need n <= 12, got 22"),
    (("--op", "order", "--n", "8", "--j", "3", "--case", "2"),
     "case-2/3 growth sequences need n <= 7, got 8"),
    (("--op", "order", "--n", "9", "--j", "3", "--case", "3"),
     "case-2/3 growth sequences need n <= 7, got 9"),
    (("--op", "fourth", "--values", "1e5000,2,3"),
     "value exponents must lie within -4300..4300"),
    (("--op", "slope", "--values", "1e10000000,2,3"),
     "value exponents must lie within -4300..4300"),
    (("--op", "circle", "--values", "1/3,1e1500;2,5;7,1/11"),
     "a result has more than 4300 digits"),
    (("--op", "fourth", "--values", "1" * 4301 + ",2,3"),
     "a value has more than 4300 digits"),
    (("--op", "slope", "--values", "1/" + "7" * 4301 + ",2,3"),
     "a value has more than 4300 digits"),
    (("--op", "fourth", "--values", "1." + "1" * 4300 + ",2,3"),
     "a value has more than 4300 digits"),
    (("--op", "fourth", "--values", "1" * 4300 + ",2,3"), None),
])
def test_geometry_growth_size_limit(capsys, argv, message):
    # refused before any sequence is built: t_13, and t_8 after the case-2/3
    # upgrade, have more digits than Python prints in decimal, and the
    # upgrade itself runs for seconds at n = 8 and longer beyond; a value
    # exponent beyond 4300 is refused before Fraction expands it, a value of
    # more than 4300 digits before Fraction fails on it, and a result too
    # long to print before any line of it is printed
    start = time.perf_counter()
    code, out, err = run(capsys, "geometry", *argv)
    assert time.perf_counter() - start < 1
    if message is None:  # a value of exactly 4300 digits is accepted
        assert (code, err) == (0, "")
        assert out == "fourth_intersection: -" + "1" * 4299 + "6\n"
        return
    assert code == 3
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("op, values, message", [
    ("fourth", "1,1,2", "abscissas must be distinct, got (1, 1, 2)"),
    ("slope", "1,1,1/2", "abscissas must be distinct, got (1, 1, 1/2)"),
    ("delta", "1,1,2,3", "abscissas must be pairwise distinct, got (1, 1, 2, 3)"),
    ("circle", "0,0;1,1;2,2", "collinear points (0, 0), (1, 1), (2, 2)"),
])
def test_geometry_degenerate_input(capsys, op, values, message):
    code, out, err = run(capsys, "geometry", "--op", op, "--values", values)
    assert code == 3
    assert out == ""
    assert "Fraction(" not in err
    assert err == f"error: {message}\n"


def test_geometry_parse_error(capsys):
    code, _, err = run(capsys, "geometry", "--op", "delta", "--values", "1,2")
    assert code == 2
