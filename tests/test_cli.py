import json

import pytest

from braidcert.cli import main


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


def test_bounds_odd_gnk_word_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "bounds", "--gnk", "--n", "4", "--k", "3",
                       "--out-dir", str(tmp_path), "a123")
    assert code == 3


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


def test_verify_appendix_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--suite", "appendix", "--seed", "7")
    code2, out2, _ = run(capsys, "verify", "--suite", "appendix", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_tracer(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "tracer", "--n", "3")
    assert code == 0
    assert json.loads(out)["failed"] == 0


def test_simulate_round_trip(tmp_path, capsys):
    out_file = tmp_path / "traj.json"
    code, _, err = run(capsys, "simulate", "--kind", "circle", "--i", "1",
                       "--j", "2", "--n", "3", "--out", str(out_file))
    assert code == 0
    from braidcert.trace import trajectory_from_json, trisecant_trace

    traj = trajectory_from_json(out_file.read_text())
    assert len(trisecant_trace(traj)) == 2


def test_simulate_trace_flag(capsys):
    code, out, _ = run(capsys, "simulate", "--kind", "circle", "--i", "1",
                       "--j", "2", "--n", "3", "--trace")
    assert code == 0
    assert "word: a123 a123" in out
    assert '"kind": "trisecant"' in out


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


def test_geometry_parse_error(capsys):
    code, _, err = run(capsys, "geometry", "--op", "delta", "--values", "1,2")
    assert code == 2
