"""Span tracer for the per-layer run of the benchmark.

The tracer wraps entry points of each ``rarewave`` layer from outside the
package: it replaces the attribute on the module (or the method on the
class) with a wrapper that records a span and restores the original on
``uninstall``.  A module-level function is replaced in every ``rarewave``
module that imported it by name, so calls made through ``from .x import f``
are seen too.  Nothing in ``src/`` is edited, and the untraced run installs
nothing.

A span holds its name, the operation it belongs to, its parent, its start
and end time and whether it raised.  FFT spans also carry the transform size
in points and the bytes of their input and output arrays (computed from the
array sizes, not measured traffic).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import statistics
import sys
import time
import types
from dataclasses import asdict, dataclass

# (module, attribute path inside the module, span name).  The span name's
# prefix is the layer it is charged to.
HOOKS = (
    ("rarewave.collision", "_KernelTransforms.__init__", "collision.transform_build"),
    ("rarewave.collision", "LMOperator.__init__", "collision.operator_build"),
    ("rarewave.collision", "LMOperator.apply", "collision.apply"),
    ("rarewave.collision", "LMOperator.weak_apply", "collision.weak_apply"),
    ("rarewave.collision", "invert_LM_micro", "collision.solve"),
    ("rarewave.collision", "collision_Q", "collision.Q"),
    ("rarewave.collision", "rfftn", "collision.fft"),
    ("rarewave.collision", "irfftn", "collision.fft"),
    ("rarewave.transport", "transport_table", "transport.table"),
    ("rarewave.transport", "burnett_solve", "transport.burnett"),
    ("rarewave.transport", "gbar_construct", "transport.gbar"),
    ("rarewave.velocity", "maxwellian", "velocity.maxwellian"),
    ("rarewave.velocity", "macro_basis", "velocity.macro_basis"),
    ("rarewave.velocity", "project_P1", "velocity.project"),
    ("rarewave.burgers", "SmoothWave.profile", "burgers.profile"),
    ("rarewave.burgers", "SmoothWave.state", "burgers.state"),
    ("rarewave.burgers", "derivative_decay_report", "burgers.decay_report"),
    ("rarewave.burgers", "riemann_gap", "burgers.gap"),
    ("rarewave.burgers", "euler_residual", "burgers.euler_residual"),
)

OP_SPAN = "bench.op"
LAYERS = ("collision", "transport", "velocity", "burgers")


@dataclass(slots=True)
class Span:
    sid: int
    parent: int | None
    name: str
    op: int
    start: float
    end: float = 0.0
    raised: bool = False
    points: int = 0
    nbytes: int = 0


class Tracer:
    """Records spans around the hooked entry points while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        for modname, path, name in HOOKS:
            try:
                owner, attr, original = _resolve(modname, path)
            except (ImportError, AttributeError):
                self.missing.append(f"{modname}.{path}")
                continue
            wrapper = self._wrap(original, name, fft=name == "collision.fft")
            if isinstance(owner, types.ModuleType):
                for mod in _rarewave_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
            else:
                self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- recording ----------------------------------------------------

    def _wrap(self, fn, name: str, fft: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                tracer._close(span)
            if fft:
                # the real side of a transform is its larger array
                shape = kwargs.get("s") or max(args[0].shape, out.shape, key=math.prod)
                span.points = math.prod(shape)
                span.nbytes = int(args[0].nbytes + out.nbytes)
            return out

        return traced

    def _open(self, name: str) -> Span:
        span = Span(
            len(self.spans),
            self._stack[-1] if self._stack else None,
            name,
            self.op,
            time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self, op: int):
        """A root span that every span of operation ``op`` descends from."""
        self.op = op
        span = self._open(OP_SPAN)
        try:
            yield
        finally:
            self._close(span)
            self.op = -1

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"missing_hooks": self.missing, "spans": [asdict(s) for s in self.spans]}, fh)


def span_cost(calls: int = 20000) -> float:
    """Seconds one recorded span adds, from a traced and a bare no-op."""

    def noop():
        return None

    wrapped = Tracer()._wrap(noop, "probe")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - t0
    return max(traced - bare, 0.0) / calls


def _rarewave_modules():
    return [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "rarewave" and m]


def _resolve(modname: str, path: str):
    owner = importlib.import_module(modname)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def per_layer(
    spans: list[Span], ops: int, scales: list[float], cost_per_span: float, missing
) -> dict:
    """Per-layer metrics from the spans of ``ops`` operations.

    Times and counts are per operation of the workload unless the name says
    otherwise.  ``scales[k]`` converts wall seconds of step k into reference
    seconds, as for ``op_s``.  ``<layer>_s`` metrics are inclusive time of
    that entry point; ``<module>.self_share`` is the module's self time
    (span time not covered by child spans) over the time of all operations.
    """
    by_id = {s.sid: s for s in spans}

    def duration(s: Span) -> float:
        return (s.end - s.start) * scales[s.op]

    child_time = {s.sid: 0.0 for s in spans}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += duration(s)

    def ancestor(s: Span, names) -> Span | None:
        p = s.parent
        while p is not None:
            if by_id[p].name in names:
                return by_id[p]
            p = by_id[p].parent
        return None

    incl: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    fft = {"collision.apply": [0, 0, 0], "collision.weak_apply": [0, 0, 0]}
    in_solve = {"collision.apply": 0, "collision.weak_apply": 0}
    solves_in_burnett = 0
    verify = 0.0
    failures = 0
    traced_seconds = 0.0
    for s in spans:
        dur = duration(s)
        if s.name == OP_SPAN:
            traced_seconds += dur
        incl[s.name] = incl.get(s.name, 0.0) + dur
        calls[s.name] = calls.get(s.name, 0) + 1
        layer = s.name.split(".")[0]
        if layer in self_by_layer:
            self_by_layer[layer] += dur - child_time[s.sid]
        if s.name == "collision.fft":
            owner = ancestor(s, fft)
            if owner is not None:
                acc = fft[owner.name]
                acc[0] += 1
                acc[1] += s.points
                acc[2] += s.nbytes
        elif s.name in in_solve:
            if ancestor(s, ("collision.solve",)) is not None:
                in_solve[s.name] += 1
            elif s.name == "collision.apply" and s.parent is not None \
                    and by_id[s.parent].name == "transport.burnett":
                verify += dur
        elif s.name == "collision.solve":
            failures += s.raised
            if ancestor(s, ("transport.burnett",)) is not None:
                solves_in_burnett += 1

    def per_op(name):
        return incl.get(name, 0.0) / ops

    def count(name):
        return calls.get(name, 0) / ops

    def ratio(num, den):
        return num / den if den else 0.0

    solves = calls.get("collision.solve", 0)
    out = {
        "collision.transform_build_s": per_op("collision.transform_build"),
        "collision.transform_builds": count("collision.transform_build"),
        "collision.operator_build_s": per_op("collision.operator_build"),
        "collision.operator_builds": count("collision.operator_build"),
        "collision.fft_s": per_op("collision.fft"),
        "collision.fft_calls": count("collision.fft"),
    }
    for name, tag in (("collision.apply", "apply"), ("collision.weak_apply", "weak_apply")):
        n = calls.get(name, 0)
        out[f"collision.fft_calls_per_{tag}"] = ratio(fft[name][0], n)
        out[f"collision.fft_points_per_{tag}"] = ratio(fft[name][1], n)
        out[f"collision.fft_bytes_per_{tag}"] = ratio(fft[name][2], n)
    out.update(
        {
            "collision.apply_s": per_op("collision.apply"),
            "collision.apply_calls": count("collision.apply"),
            "collision.weak_apply_s": per_op("collision.weak_apply"),
            "collision.weak_apply_calls": count("collision.weak_apply"),
            "collision.Q_s": per_op("collision.Q"),
            "collision.solve_s": per_op("collision.solve"),
            "collision.solves": count("collision.solve"),
            "collision.solve_failures": failures / ops,
            "collision.inner_iters_per_solve": ratio(in_solve["collision.weak_apply"], solves),
            "collision.outer_rounds_per_solve": ratio(in_solve["collision.apply"], solves),
            "transport.table_s": per_op("transport.table"),
            "transport.burnett_s": per_op("transport.burnett"),
            "transport.verify_s": verify / ops,
            "transport.solves_per_state": ratio(
                solves_in_burnett, calls.get("transport.burnett", 0)
            ),
            "transport.gbar_s": per_op("transport.gbar"),
            "velocity.maxwellian_s": per_op("velocity.maxwellian"),
            "velocity.macro_basis_s": per_op("velocity.macro_basis"),
            "velocity.project_s": per_op("velocity.project"),
            "burgers.profile_s": per_op("burgers.profile"),
            "burgers.decay_report_s": per_op("burgers.decay_report"),
            "burgers.gap_s": per_op("burgers.gap"),
            "burgers.state_s": per_op("burgers.state"),
            "burgers.euler_residual_s": per_op("burgers.euler_residual"),
        }
    )
    for layer in LAYERS:
        out[f"{layer}.self_share"] = ratio(self_by_layer[layer], traced_seconds)
    spans_per_op = (len(spans) - calls.get(OP_SPAN, 0)) / ops
    out.update(
        {
            "trace.spans_per_op": spans_per_op,
            "trace.overhead_s": cost_per_span * statistics.median(scales) * spans_per_op,
            "trace.missing_hooks": float(len(missing)),
        }
    )
    return out
