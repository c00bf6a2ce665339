"""Per-layer spans for the traced run, recorded from outside the program.

``install`` replaces the module attributes through which braidcert's layers
call each other (``braidcert.switches.c_max``, ``braidcert.trace.isolate_roots``
and so on) with wrappers that open a span around the call.  Nothing under
``src/`` is edited; ``uninstall`` puts the original functions back.

A span has a name, a start, an end and the span that was open when it
started.  Self time, a span's time minus the time of the wrapped calls made
inside it, is summed per name while the run goes; the first ``SPAN_CAP`` span
records are also kept in memory and written out at exit.  ``words``, ``gnk``
and ``geometry`` are not wrapped: their time counts in whichever layer called
them.  ``psi_letter`` runs millions of times on the relator workload, so it
is counted without a span.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from math import comb
from pathlib import Path
from types import ModuleType
from typing import Callable

SPAN_CAP = 100_000

LAYERS = ("cli", "pbraid", "parity", "switches", "certificates", "trace", "roots")


class Tracer:
    """Span stack, per-name self time and counters of one traced run."""

    def __init__(self, cap: int = SPAN_CAP):
        self.cap = cap
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.records: list[tuple[int, int, float, float, int]] = []  # id, name, start, end, parent
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.trajectories: list = []  # (Trajectory, k) per trace_events call
        self._stack: list[list] = []  # [id, name, start, child_s]
        self._next_id = 0

    @property
    def spans_started(self) -> int:
        return self._next_id

    def open_names(self) -> list[str]:
        return [frame[1] for frame in self._stack]

    def enter(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        span_id, name, start, child_s = frame
        self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child_s
        parent = -1
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        if span_id < self.cap:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            self.records.append((span_id, self._name_ids[name], start, end, parent))

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            out[name.split(".")[0]] += seconds
        return out

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        data = dict(header)
        data.update({
            "names": self.names,
            "spans": [list(r) for r in self.records],
            "dropped": max(0, self._next_id - self.cap),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        })
        path.write_text(json.dumps(data, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# Counter hooks: called with (tracer, args, result) after the span closes.

def _calls(counter: str) -> Callable:
    def hook(tracer, args, result):
        tracer.counts[counter] += 1
    return hook


def _image(tracer, args, result):
    tracer.counts["pbraid.image_letters"] += len(result)


def _phi_at(tracer, args, result):
    tracer.counts["parity.phi_calls"] += 1
    tracer.counts["parity.image_letters"] += len(args[0])


def _system(tracer, args, result):
    tracer.counts["switches.contexts"] += 1
    tracer.counts["switches.pairs"] += len(result.pair_table)
    tracer.counts["switches.distinct_z"] += len({z for _, z in result.pair_table if z})


def _json(tracer, args, result):
    tracer.counts["certificates.bytes"] += len(result)


def _build(tracer, args, result):
    tracer.counts["trace.builds"] += 1


def _trace(tracer, args, result):
    tracer.counts["trace.trace_calls"] += 1
    tracer.counts["trace.events"] += len(result)
    if "trace.build" in tracer.open_names():
        tracer.counts["trace.build_traces"] += 1
    tracer.trajectories.append((args[0], args[1]))


# (attribute path under braidcert, span name, hook)
SPANS: tuple[tuple[str, str, Callable | None], ...] = (
    ("switches.unknotting_report", "switches.report", None),
    ("switches.gnk_report", "switches.report", None),
    ("switches.switch_system", "switches.system", _system),
    ("switches.c_max", "switches.cmax", None),
    ("switches.switch_feasibility_necessary", "switches.feasible", None),
    ("switches.min_switches_witness", "switches.search", None),
    ("switches.apply_switch", "switches.apply", _calls("switches.search_nodes")),
    ("switches.phi", "parity.phi", None),
    ("switches.trisecant_lower_bound", "parity.bound", None),
    ("switches.quadrisecant_lower_bound", "parity.bound", None),
    ("switches.map_pb_to_g3", "pbraid.map", _image),
    ("switches.map_pb_to_g4", "pbraid.map", _image),
    ("parity.phi", "parity.phi", None),
    ("parity.phi_at", "parity.phi", _phi_at),
    ("parity.psi_word", "parity.psi", None),
    ("parity.map_pb_to_g3", "pbraid.map", _image),
    ("parity.map_pb_to_g4", "pbraid.map", _image),
    ("pbraid.map_pb_to_g3", "pbraid.map", _image),
    ("pbraid.map_pb_to_g4", "pbraid.map", _image),
    ("certificates.persist", "certificates.persist", None),
    ("certificates.Certificate.to_json", "certificates.json", _json),
    ("trace.simulate_bij_circle", "trace.build", _build),
    ("trace.simulate_bij_parabola", "trace.build", _build),
    ("trace.trace_events", "trace.trace", _trace),
    ("trace.trajectory_to_json", "trace.json", None),
    ("trace.event_log", "trace.json", None),
    ("trace.isolate_roots", "roots.isolate", _calls("roots.isolate_calls")),
    ("trace.squarefree_part", "roots.squarefree", None),
    ("trace.count_roots", "roots.count", None),
    ("trace.root_compare", "roots.compare", _calls("roots.compare_calls")),
)

# (attribute path, counter): counted calls without a span
COUNTED: tuple[tuple[str, str], ...] = (
    ("parity.psi_letter", "parity.psi_calls"),
    ("switches.psi_letter", "parity.psi_calls"),
)


def _span_wrapper(tracer: Tracer, name: str, fn: Callable, hook: Callable | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if hook is not None:
            hook(tracer, args, result)
        return result
    return wrapper


def _count_wrapper(tracer: Tracer, counter: str, fn: Callable) -> Callable:
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[counter] += 1
        return fn(*args, **kwargs)
    return wrapper


def _owner(bc: ModuleType, path: str) -> tuple[object, str]:
    *parents, attr = path.split(".")
    owner: object = bc
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


Installed = list[tuple[object, str, Callable]]


def install(tracer: Tracer, bc: ModuleType) -> Installed:
    """Wrap every layer boundary of the imported package ``bc``; returns
    what ``uninstall`` needs to restore the originals."""
    installed: Installed = []
    try:
        for path, name, hook in SPANS:
            owner, attr = _owner(bc, path)
            original = getattr(owner, attr)
            setattr(owner, attr, _span_wrapper(tracer, name, original, hook))
            installed.append((owner, attr, original))
        for path, counter in COUNTED:
            owner, attr = _owner(bc, path)
            original = getattr(owner, attr)
            setattr(owner, attr, _count_wrapper(tracer, counter, original))
            installed.append((owner, attr, original))
    except AttributeError:
        uninstall(installed)
        raise
    return installed


def uninstall(installed: Installed) -> None:
    for owner, attr, original in reversed(installed):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics.

# metric name -> span names whose self time it sums
SELF_TIME = {
    "cli.self_s": ("cli",),
    "pbraid.map_s": ("pbraid.map",),
    "parity.phi_s": ("parity.phi",),
    "parity.psi_s": ("parity.psi",),
    "parity.bound_s": ("parity.bound",),
    "switches.report_s": ("switches.report",),
    "switches.system_s": ("switches.system",),
    "switches.cmax_s": ("switches.cmax",),
    "switches.feasible_s": ("switches.feasible",),
    "switches.search_s": ("switches.search",),
    "switches.apply_s": ("switches.apply",),
    "certificates.json_s": ("certificates.json",),
    "certificates.persist_s": ("certificates.persist",),
    "trace.build_s": ("trace.build",),
    "trace.trace_s": ("trace.trace",),
    "trace.json_s": ("trace.json",),
    "roots.isolate_s": ("roots.isolate",),
    "roots.squarefree_s": ("roots.squarefree",),
    "roots.count_s": ("roots.count",),
    "roots.compare_s": ("roots.compare",),
}

PER_ITEM_COUNTS = (
    "pbraid.image_letters",
    "parity.phi_calls",
    "parity.psi_calls",
    "parity.image_letters",
    "switches.contexts",
    "switches.search_nodes",
    "certificates.bytes",
    "trace.trace_calls",
    "trace.slabs",
    "trace.tuples_scanned",
    "trace.events",
    "roots.isolate_calls",
    "roots.compare_calls",
)

RATIOS = (
    "switches.distinct_z_ratio",
    "switches.unresolved_frac",
    "trace.moving_tuple_ratio",
    "trace.build_traces",
    "trace_overhead_frac",
)

UNITS = {"s": "s/item", "count": "1/item", "ratio": "ratio"}


def per_layer_units() -> dict[str, str]:
    units = {name: UNITS["s"] for name in SELF_TIME}
    units.update({name: UNITS["count"] for name in PER_ITEM_COUNTS})
    units.update({name: UNITS["ratio"] for name in RATIOS})
    units["trace.build_traces"] = "1/build"
    return units


def _moves(path, t0, t1) -> bool:
    for (a, p0), (b, p1) in zip(path, path[1:]):
        if a <= t0 and t1 <= b:
            return p0 != p1
    raise ValueError(f"slab [{t0}, {t1}] not inside any segment")


def slab_counts(traj, k: int) -> tuple[int, int, int]:
    """(slabs, tuples scanned, tuples with a moving point) of one trace,
    from ``Trajectory.paths``: the tracer visits every k-tuple in every slab
    between consecutive breakpoint times."""
    grid = sorted({t for path in traj.paths for t, _ in path})
    n = len(traj.paths)
    slabs = len(grid) - 1
    moving_tuples = 0
    for t0, t1 in zip(grid, grid[1:]):
        static = sum(1 for path in traj.paths if not _moves(path, t0, t1))
        moving_tuples += comb(n, k) - comb(static, k)
    return slabs, slabs * comb(n, k), moving_tuples


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, items: int, unresolved: int, contexts: int,
                      untraced_s: float, traced_s: float) -> dict[str, float]:
    """Every per-layer metric: self seconds and counts per item, plus
    ratios.  ``unresolved``/``contexts`` come from the certificate output."""
    counts = Counter(tracer.counts)
    moving = 0
    for traj, k in tracer.trajectories:
        slabs, tuples, moving_tuples = slab_counts(traj, k)
        counts["trace.slabs"] += slabs
        counts["trace.tuples_scanned"] += tuples
        moving += moving_tuples
    out = {name: sum(tracer.self_s.get(s, 0.0) for s in spans) / items
           for name, spans in SELF_TIME.items()}
    out.update({name: counts[name] / items for name in PER_ITEM_COUNTS})
    out["switches.distinct_z_ratio"] = _ratio(counts["switches.distinct_z"], counts["switches.pairs"])
    out["switches.unresolved_frac"] = _ratio(unresolved, contexts)
    out["trace.moving_tuple_ratio"] = _ratio(moving, counts["trace.tuples_scanned"])
    out["trace.build_traces"] = _ratio(counts["trace.build_traces"], counts["trace.builds"])
    out["trace_overhead_frac"] = _ratio(traced_s - untraced_s, untraced_s)
    return out
