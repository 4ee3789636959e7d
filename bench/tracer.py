"""Per-layer spans for polebracket, recorded from outside the program.

`Tracer.install()` replaces the public functions listed in TARGETS with
wrappers that record one span per call: (name, start ns, end ns, parent span
index, op id, returned normally).  Module-level functions are rebound under
every name a polebracket module holds them by (`brackets.sum_counts`,
`verify.build_ribbon`, ...), so no call slips past.  Methods are wrapped on
their class, which covers delegates such as `surfaces.bounds_disk`.  `uninstall()` puts every original back.

A layer is a module.  `laurent` has no spans of its own: its arithmetic is
counted in the self time of the bracket or oracle span that calls it.

The wrapper's own bookkeeping costs time too, part of it outside the span it
records (billed to the caller's span) and part inside.  `wrapper_cost()`
measures both parts on a wrapped no-op, and `self_times` takes them back out,
so a parent with many traced children does not look slower than it is.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import sys
import time
from array import array

# (module, attribute, span name)
TARGETS = (
    ("cli", "main", "cli.main"),
    ("codes", "parse_code", "codes.parse_code"),
    ("codes", "serialize", "codes.serialize"),
    ("codes", "make_code", "codes.make_code"),
    ("codes", "writhe", "codes.writhe"),
    ("codes", "random_diagram", "codes.random_diagram"),
    ("surfaces", "build_ribbon", "surfaces.build_ribbon"),
    ("surfaces", "ClosedSurface.__init__", "surfaces.closed_surface"),
    ("surfaces", "ClosedSurface.homology_class", "surfaces.homology_class"),
    ("surfaces", "ClosedSurface.bounds_disk", "surfaces.bounds_disk"),
    ("surfaces", "ClosedSurface.report", "surfaces.report"),
    ("surfaces", "cut_complex", "surfaces.cut_complex"),
    ("surfaces", "regions", "surfaces.regions"),
    ("cells", "PolygonComplex.__init__", "cells.polygon_complex"),
    ("cells", "PolygonComplex.orientable_pieces", "cells.orientable_pieces"),
    ("cells", "PolygonComplex.boundary_circles", "cells.boundary_circles"),
    ("cells", "PolygonComplex.piece_stats", "cells.piece_stats"),
    ("states", "sum_counts", "states.sum_counts"),
    ("states", "splice_curves", "states.splice_curves"),
    ("states", "classify_state", "states.classify_state"),
    ("states", "check_nonseparation", "states.check_nonseparation"),
    ("states", "check_pole_balance", "states.check_pole_balance"),
    ("states", "state_report", "states.state_report"),
    ("polewords", "index", "polewords.index"),
    ("brackets", "double_bracket", "brackets.double_bracket"),
    ("brackets", "normalized", "brackets.normalized"),
    ("brackets", "surface_pole_bracket", "brackets.surface_pole_bracket"),
    ("brackets", "specialize_bracket", "brackets.specialize_bracket"),
    ("moves", "apply_move", "moves.apply_move"),
    ("moves", "r1_delete_sites", "moves.r1_delete_sites"),
    ("moves", "r2_delete_sites", "moves.r2_delete_sites"),
    ("moves", "r3_sites", "moves.r3_sites"),
    ("moves", "t1_delete_sites", "moves.t1_delete_sites"),
    ("moves", "t3_sites", "moves.t3_sites"),
    ("moves", "insert_sites", "moves.insert_sites"),
    ("oracle", "classical_kauffman_oracle", "oracle.kauffman"),
    ("verify", "run_battery", "verify.run_battery"),
)

# Layers with a total self-time metric; oracle has one span name and is
# reported as oracle.kauffman.self_s.
LAYERS = ("cli", "codes", "surfaces", "cells", "states", "polewords",
          "brackets", "moves", "verify")

# States visited per call: a state sum over masks [lo, hi), or one state.
STATE_UNITS = {
    "states.sum_counts": lambda args: args[2] - args[1],
    "states.splice_curves": lambda args: 1,
}


class Tracer:
    def __init__(self):
        self.states = 0
        self.op = -1
        self._names = [name for _m, _a, name in TARGETS]
        # Span fields live in typed arrays, not tuples, so that holding
        # hundreds of thousands of spans adds no garbage-collector work to
        # the traced run.
        self._cols = tuple(array(t) for t in "iqqiib")  # name, start, end, parent, op, ok
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        if name not in self._names:
            self._names.append(name)
        nid = self._names.index(name)
        names, starts, ends, parents, ops, oks = self._cols
        stack = self._stack
        clock = time.perf_counter_ns
        units = STATE_UNITS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0)
            oks.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                oks[idx] = 1
                return result
            finally:
                ends[idx] = clock()
                stack.pop()
                if units is not None:
                    self.states += units(args)

        return wrapper

    @property
    def spans(self) -> list[tuple]:
        """(name, start ns, end ns, parent index, op id, ok) per span, in
        call order."""
        names, starts, ends, parents, ops, oks = self._cols
        return [(self._names[n], s, e, p, o, bool(k))
                for n, s, e, p, o, k in zip(names, starts, ends, parents, ops, oks)]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "polebracket" or n.startswith("polebracket."))]
        for mod_name, attr, name in TARGETS:
            module = sys.modules[f"polebracket.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patches.append((owner, meth, original))
                setattr(owner, meth, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for m in pkg:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def write_spans(path, spans) -> None:
    """Spans as gzip TSV, times in ns from the first span's start."""
    t0 = min((s[1] for s in spans), default=0)
    with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
        fh.write("span\tparent\top\tname\tstart_ns\tend_ns\tok\n")
        for i, (name, start, end, parent, op, ok) in enumerate(spans):
            fh.write(f"{i}\t{parent}\t{op}\t{name}\t{start - t0}\t{end - t0}\t{int(ok)}\n")


def wrapper_cost(calls: int = 20_000, rounds: int = 5) -> tuple[float, float]:
    """(outside ns, inside ns) that the wrapper adds to one call, the median
    over rounds of a wrapped loop of `calls` calls of a wrapped no-op.  The
    outside part lies between the caller and the span's start or end and is
    billed to the caller's span; the inside part lies within the span."""

    def noop(a, b, c):
        return None

    def empty_loop():
        for _ in range(calls):
            pass

    def plain_loop():
        for _ in range(calls):
            noop(0, 1, 2)

    clock = time.perf_counter_ns
    outside, inside = [], []
    for _ in range(rounds):
        t0 = clock()
        empty_loop()
        t1 = clock()
        plain_loop()
        t2 = clock()
        tracer = Tracer()
        child = tracer._wrap("wrapper_cost.child", noop)

        def traced_loop():
            for _ in range(calls):
                child(0, 1, 2)

        tracer._wrap("wrapper_cost.loop", traced_loop)()
        spans = tracer.spans
        noop_ns = (t2 - t1 - (t1 - t0)) / calls
        per_call = (spans[0][2] - spans[0][1] - (t2 - t1)) / calls
        within = sum(e - s for _n, s, e, *_ in spans[1:]) / calls - noop_ns
        inside.append(within)
        outside.append(per_call - within)
    return statistics.median(outside), statistics.median(inside)


def net_self_ns(spans, outside_ns: float = 0.0, inside_ns: float = 0.0) -> list[float]:
    """Each span's self time in ns: its duration minus the durations of its
    direct children, minus the wrapper's cost (wrapper_cost) within it:
    inside_ns of its own and outside_ns for each direct child."""
    child = [0] * len(spans)
    kids = [0] * len(spans)
    for _name, start, end, parent, _op, _ok in spans:
        if parent >= 0:
            child[parent] += end - start
            kids[parent] += 1
    return [end - start - child[i] - kids[i] * outside_ns - inside_ns
            for i, (_name, start, end, _parent, _op, _ok) in enumerate(spans)]


def self_times(spans, scale: float = 1.0, outside_ns: float = 0.0,
               inside_ns: float = 0.0) -> dict[str, tuple[float, int]]:
    """Per span name: (self seconds times scale, calls); see net_self_ns."""
    acc: dict[str, list] = {}
    for span, ns in zip(spans, net_self_ns(spans, outside_ns, inside_ns)):
        a = acc.setdefault(span[0], [0, 0])
        a[0] += ns
        a[1] += 1
    return {name: (ns * scale / 1e9, calls) for name, (ns, calls) in acc.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, states: int, scale: float = 1.0,
                  cost: tuple[float, float] = (0.0, 0.0)) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run: name -> (value, unit).  Self times
    are scaled by `scale` and net of the wrapper cost `cost` (outside ns,
    inside ns).  Ratios with a zero base (the layer was not called) read 0."""
    st = self_times(spans, scale, *cost)

    def self_s(name):
        return st.get(name, (0.0, 0))[0]

    def calls(name):
        return st.get(name, (0.0, 0))[1]

    cuts_in_disk_test = sum(
        1 for name, _s, _e, parent, _op, _ok in spans
        if name == "surfaces.cut_complex" and parent >= 0
        and spans[parent][0] == "surfaces.bounds_disk"
    )
    moves_applied = sum(1 for s in spans if s[0] == "moves.apply_move" and s[5])
    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (
            sum(v[0] for k, v in st.items() if k.split(".")[0] == layer), "s")
    m["states.sum_counts.self_s"] = (self_s("states.sum_counts"), "s")
    m["states.states"] = (states, "count")
    for name in ("polewords.index", "surfaces.closed_surface", "cells.polygon_complex",
                 "surfaces.homology_class", "surfaces.bounds_disk",
                 "surfaces.cut_complex", "surfaces.regions", "moves.apply_move"):
        m[f"{name}.self_s"] = (self_s(name), "s")
        m[f"{name}.calls"] = (calls(name), "count")
    m["surfaces.build_ribbon.self_s"] = (self_s("surfaces.build_ribbon"), "s")
    m["oracle.kauffman.self_s"] = (self_s("oracle.kauffman"), "s")
    m["polewords.index_per_state"] = (_ratio(calls("polewords.index"), states), "ratio")
    m["surfaces.disk_cut_ratio"] = (
        _ratio(cuts_in_disk_test, calls("surfaces.bounds_disk")), "ratio")
    m["moves.accept_ratio"] = (_ratio(moves_applied, calls("moves.apply_move")), "ratio")
    return m
