import json
import random
from fractions import Fraction

import pytest

from braidcert.errors import DegenerateInput, InvalidContext, InvalidPair, NonGenericTrajectory
from braidcert.geometry import growth_sequence_case1, upgrade_to_case23
from braidcert.parity import all_bases, is_even, phi, psi_word
from braidcert.pbraid import PBWord, map_pb_to_g3, map_pb_to_g4, parse_pb_word, pb_letter
from braidcert.roots import RealRoot, isolate_roots, poly, root_compare
from braidcert.trace import (
    Trajectory,
    _motion_word_g4,
    concyclic_trace,
    event_log,
    simulate_bij_circle,
    simulate_bij_parabola,
    trace_events,
    trajectory_from_json,
    trajectory_to_json,
    trisecant_trace,
)

F = Fraction


def static_path(p):
    return ((F(0), p), (F(1), p))


def path_through(*timed):
    return tuple((F(t), (F(x), F(y))) for t, (x, y) in timed)


# ---------------------------------------------------------------------------
# Root isolation basics.

def test_isolate_linear_and_quadratic():
    roots = isolate_roots(poly((-1, 2)), F(0), F(1))  # 2t - 1
    assert len(roots) == 1 and roots[0].exact and roots[0].lo == F(1, 2)
    roots = isolate_roots(poly((-2, 0, 1)), F(0), F(2))  # t^2 - 2
    assert len(roots) == 1 and not roots[0].exact
    r = roots[0]
    assert root_compare(r, RealRoot.from_rational(F(7, 5))) == 1
    assert root_compare(r, RealRoot.from_rational(F(3, 2))) == -1
    assert root_compare(r, r) == 0


def test_root_compare_two_quadratics():
    sqrt2 = isolate_roots(poly((-2, 0, 1)), F(0), F(2))[0]
    sqrt3 = isolate_roots(poly((-3, 0, 1)), F(0), F(2))[0]
    assert root_compare(sqrt2, sqrt3) == -1
    assert root_compare(sqrt3, sqrt2) == 1
    # same value through a different quadratic: 2t^2 - 4
    sqrt2b = isolate_roots(poly((-4, 0, 2)), F(0), F(2))[0]
    assert root_compare(sqrt2, sqrt2b) == 0


# ---------------------------------------------------------------------------
# Tracer basics.

def test_stationary_trajectory_has_no_events():
    pts = [(F(0), F(0)), (F(2), F(0)), (F(1), F(3)), (F(3), F(4))]
    traj = Trajectory(tuple(static_path(p) for p in pts))
    assert trisecant_trace(traj).letters == ()
    assert concyclic_trace(traj).letters == ()


def test_single_crossing_back_and_forth():
    # point 3 dips through the line of points 1 and 2 and returns
    traj = Trajectory((
        static_path((F(0), F(0))),
        static_path((F(2), F(0))),
        path_through((0, (1, 1)), (F(1, 2), (1, -1)), (1, (1, 1))),
    ))
    word = trisecant_trace(traj)
    assert word.letters == ((1, 2, 3), (1, 2, 3))
    events = trace_events(traj, 3)
    assert [ev.root.lo for ev in events] == [F(1, 4), F(3, 4)]


def test_concyclic_single_event_pair():
    # three unit-circle points fixed, fourth enters and leaves the circle
    c = [(F(1), F(0)), (F(0), F(1)), (F(-1), F(0))]
    traj = Trajectory((
        static_path(c[0]), static_path(c[1]), static_path(c[2]),
        path_through((0, (0, -2)), (F(1, 2), (0, F(-1, 2))), (1, (0, -2))),
    ))
    word = concyclic_trace(traj)
    assert word.letters == ((1, 2, 3, 4), (1, 2, 3, 4))


def test_boundary_event_rejected():
    # the crossing lands exactly on a breakpoint time
    traj = Trajectory((
        static_path((F(0), F(0))),
        static_path((F(2), F(0))),
        path_through((0, (1, 1)), (F(1, 2), (1, 0)), (1, (1, 1))),
    ))
    with pytest.raises(NonGenericTrajectory):
        trisecant_trace(traj)


def test_simultaneous_events_rejected():
    # points 3 and 4 cross the line of 1, 2 at the same moment
    traj = Trajectory((
        static_path((F(0), F(0))),
        static_path((F(2), F(0))),
        path_through((0, (1, 1)), (F(1, 2), (1, -1)), (1, (1, 1))),
        path_through((0, (3, 1)), (F(1, 2), (3, -1)), (1, (3, 1))),
    ))
    with pytest.raises(NonGenericTrajectory) as err:
        trisecant_trace(traj)
    assert "simultaneous" in str(err.value)


def test_collision_rejected():
    traj = Trajectory((
        static_path((F(0), F(0))),
        static_path((F(2), F(0))),
        path_through((0, (1, 1)), (F(1, 2), (-1, -1)), (1, (1, 1))),
    ))
    with pytest.raises(NonGenericTrajectory) as err:
        trisecant_trace(traj)
    assert "collide" in str(err.value) or "coincide" in str(err.value)


def test_whole_slab_degeneracy_rejected():
    traj = Trajectory((
        static_path((F(0), F(0))),
        static_path((F(2), F(0))),
        static_path((F(1), F(0))),  # permanently collinear
    ))
    with pytest.raises(NonGenericTrajectory):
        trisecant_trace(traj)


def test_trajectory_validation():
    with pytest.raises(DegenerateInput):
        Trajectory((((F(0), (F(0), F(0))), (F(1, 2), (F(1), F(1)))),))  # no t=1
    with pytest.raises(DegenerateInput):
        Trajectory((((F(0), (F(0), F(0))), (F(1), (F(1), F(1)))),))  # not closed


def test_random_closed_trajectories_give_even_words():
    rng = random.Random(21)
    found = 0
    attempts = 0
    while found < 12 and attempts < 200:
        attempts += 1
        paths = []
        for _ in range(3):
            p0 = (F(rng.randint(-8, 8), 7), F(rng.randint(-8, 8), 5))
            mids = [
                (F(rng.randint(-8, 8), 3), F(rng.randint(-8, 8), 11))
                for _ in range(2)
            ]
            paths.append(path_through(
                (0, p0), (F(1, 3), mids[0]), (F(2, 3), mids[1]), (1, p0)))
        try:
            word = trisecant_trace(Trajectory(tuple(paths)))
        except NonGenericTrajectory:
            continue
        found += 1
        from collections import Counter

        assert all(c % 2 == 0 for c in Counter(word.letters).values())
    assert found >= 8


# ---------------------------------------------------------------------------
# Simulators.

def test_circle_simulator_closed_and_valid():
    traj = simulate_bij_circle(1, 3, 4)
    for path in traj.paths:
        assert path[0][1] == path[-1][1]
        assert path[0][0] == 0 and path[-1][0] == 1


def test_circle_simulator_cross_validation():
    for n in (3, 4):
        bases = all_bases(n, 3)
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                traced = trisecant_trace(simulate_bij_circle(i, j, n))
                image = map_pb_to_g3(
                    PBWord(n, (pb_letter(i, j),)), reduced=False)
                assert is_even(traced)
                assert traced.letters == image.letters  # letter-exact here
                for b in bases:
                    assert psi_word(traced, b) == psi_word(image, b)
                    assert phi(traced, b) == phi(image, b)


def test_circle_simulator_adjacent_strands_reduce_to_square():
    # b_{i,i+1}: no conjugating blocks, the trace is exactly the square block
    traced = trisecant_trace(simulate_bij_circle(2, 3, 4))
    image = map_pb_to_g3(PBWord(4, (pb_letter(2, 3),)), reduced=False)
    assert traced.letters == image.letters
    assert len(traced.letters) == 4  # two passes over two remaining strands


def test_circle_simulator_errors():
    with pytest.raises(InvalidContext):
        simulate_bij_circle(1, 2, 2)
    with pytest.raises(InvalidPair):
        simulate_bij_circle(3, 2, 4)


def test_parabola_simulator_b12_matches_map():
    traj = simulate_bij_parabola(1, 2, 4)
    word = concyclic_trace(traj)
    image = map_pb_to_g4(parse_pb_word("b12", 4), reduced=False)
    assert word.letters == image.letters == ((1, 2, 3, 4), (1, 2, 3, 4))
    assert is_even(word)
    for b in all_bases(4, 4):
        assert psi_word(word, b) == psi_word(image, b)
        assert phi(word, b) == phi(image, b)


def test_parabola_event_count_matches_unreduced_length():
    traj = simulate_bij_parabola(1, 2, 4)
    assert len(concyclic_trace(traj)) == len(map_pb_to_g4(parse_pb_word("b12", 4), reduced=False))


def test_parabola_simulator_motion_word():
    # the traced word follows the from-above motion blocks exactly
    cfg = upgrade_to_case23(growth_sequence_case1(4))
    for i, j in ((1, 3), (2, 4)):
        traced = concyclic_trace(simulate_bij_parabola(i, j, 4))
        assert traced.letters == _motion_word_g4(i, j, cfg)


@pytest.mark.xfail(strict=True, reason=(
    "known defect: the traced word of the parabola motion for b13 at n = 5 "
    "disagrees in psi and phi with map_pb_to_g4 on bases (1,2,3,4) and "
    "(1,2,3,5); b14, b24 and b35 disagree on two bases each, b12 agrees"))
def test_parabola_b13_n5_matches_map():
    traced = concyclic_trace(simulate_bij_parabola(1, 3, 5))
    image = map_pb_to_g4(parse_pb_word("b13", 5), reduced=False)
    for b in all_bases(5, 4):
        assert psi_word(traced, b) == psi_word(image, b)
        assert phi(traced, b) == phi(image, b)


def test_parabola_simulator_errors():
    with pytest.raises(InvalidContext):
        simulate_bij_parabola(1, 2, 3)
    with pytest.raises(InvalidPair):
        simulate_bij_parabola(2, 2, 4)


# ---------------------------------------------------------------------------
# Serialisation.

def test_trajectory_json_round_trip():
    traj = simulate_bij_circle(1, 2, 3)
    blob = trajectory_to_json(traj)
    again = trajectory_from_json(blob)
    assert again == traj
    assert trajectory_to_json(again) == blob


def test_event_log_format():
    traj = simulate_bij_circle(1, 2, 3)
    events = trace_events(traj, 3)
    log = event_log(events)
    assert len(log) == len(events) == 2
    for entry in log:
        assert set(entry) == {"time_lo", "time_hi", "kind", "participants"}
        assert entry["kind"] == "trisecant"
        json.dumps(log)
