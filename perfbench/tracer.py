"""Per-layer tracing of hermflow from outside the package.

The tracer replaces each public function listed in ``LAYERS`` by a timing
wrapper in every ``hermflow`` module namespace that binds it (``catalog``
and ``cli`` import several functions by name, so patching only the
defining module would miss their calls).  Each call records one span:
name, parent span, start, end and whether it ended in an exception.
Spans stay in memory; ``layer_metrics`` turns them into counts, self
times and the integrator ratios once the traced pass is over.
"""

from __future__ import annotations

import functools
import sys
import time

#: module -> public functions wrapped.  Private helpers (``_alternate``,
#: ``_rk4_step``, ...) are not wrapped: their cost shows in the self time
#: of the public function that calls them, and they may be removed.
LAYERS = {
    "catalog": ("regenerate_table3", "classify_case", "compare_with_fixture",
                "flow_preservation_check", "bismut_curvature"),
    "invariant": ("dualize", "frame_metric", "connection", "curvature",
                  "check_cplx", "sample_admissible_metric", "hcf_tangent",
                  "invariant_flow_step", "integrate_invariant_flow"),
    "positivity": ("classify", "biquadratic"),
    "flows": ("integrate", "ode_rhs"),
    "hopf": ("bismut_christoffels_at", "bismut_curvature_at",
             "bismut_mixed_block"),
    "oracle": ("fd_curvature",),
    "cli": ("main",),
}


def _classify_starts(args, kwargs) -> int:
    from hermflow.positivity import DEFAULT_STARTS
    return int(kwargs.get("starts", args[1] if len(args) > 1 else DEFAULT_STARTS))


#: extra counts read from a call's arguments or from its return value
ARG_COUNTERS = {"positivity.classify": ("positivity.classify.starts", _classify_starts)}
RESULT_COUNTERS = {"flows.integrate": ("flows.integrate.steps",
                                       lambda traj: len(traj.times) - 1)}


class Tracer:
    """Records one span per call of a wrapped layer function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # spans[i] = (name index, parent index or -1, start, end, raised)
        self.spans: list[tuple | None] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        spans, stack, counters = self.spans, self._stack, self.counters
        arg_counter = ARG_COUNTERS.get(qualname)
        result_counter = RESULT_COUNTERS.get(qualname)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name_id, parent, start, end, raised)
            if arg_counter is not None:
                key, read = arg_counter
                counters[key] = counters.get(key, 0) + read(args, kwargs)
            if result_counter is not None:
                key, read = result_counter
                counters[key] = counters.get(key, 0) + read(result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every hermflow module namespace that binds a layer function."""
        modules = [m for name, m in list(sys.modules.items())
                   if (name == "hermflow" or name.startswith("hermflow.")) and m is not None]
        for mod_name, fn_names in LAYERS.items():
            home = sys.modules[f"hermflow.{mod_name}"]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def root_seconds(self) -> float:
        """Wall time covered by spans that have no traced parent."""
        return sum(s[3] - s[2] for s in self.spans if s[1] == -1)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``{name: (value, unit)}``; a layer the workload
    never calls reads 0."""
    spans = tracer.spans
    names = tracer.names
    n = len(spans)
    child_time = [0.0] * n
    step_children = [0] * n
    step_id = names.index("invariant.invariant_flow_step")
    for s in spans:
        if s[1] >= 0:
            child_time[s[1]] += s[3] - s[2]
            if s[0] == step_id:
                step_children[s[1]] += 1

    calls: dict[str, int] = dict.fromkeys(names, 0)
    self_s: dict[str, float] = dict.fromkeys(names, 0.0)
    total_s: dict[str, float] = dict.fromkeys(names, 0.0)
    raised: dict[str, int] = dict.fromkeys(names, 0)
    for i, (name_id, _, start, end, err) in enumerate(spans):
        name = names[name_id]
        calls[name] += 1
        total_s[name] += end - start
        self_s[name] += end - start - child_time[i]
        raised[name] += int(err)

    # an accepted step returned without retrying itself as two half steps
    accepted = [s[0] == step_id and not s[4] and step_children[i] == 0
                for i, s in enumerate(spans)]
    tangent_id = names.index("invariant.hcf_tangent")
    useful_tangents = sum(1 for s in spans if s[0] == tangent_id and s[1] >= 0
                          and accepted[s[1]])

    def children_of(child: str, parent: str) -> int:
        cid, pid = names.index(child), names.index(parent)
        return sum(1 for s in spans if s[0] == cid and s[1] >= 0
                   and spans[s[1]][0] == pid)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in names:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    out["invariant.invariant_flow_step.raised"] = (raised["invariant.invariant_flow_step"],
                                                   "count")
    out["invariant.accepted_steps"] = (sum(accepted), "count")
    out["invariant.useful_tangent_frac"] = (
        ratio(useful_tangents, calls["invariant.hcf_tangent"]), "ratio")
    starts = tracer.counters.get("positivity.classify.starts", 0)
    out["positivity.classify.starts"] = (starts, "count")
    out["positivity.classify.ms_per_start"] = (
        ratio(1e3 * total_s["positivity.classify"], starts), "ms")
    steps = tracer.counters.get("flows.integrate.steps", 0)
    out["flows.integrate.steps"] = (steps, "count")
    out["flows.rhs_per_step"] = (ratio(children_of("flows.ode_rhs", "flows.integrate"),
                                       steps), "ratio")
    out["oracle.evals_per_curvature"] = (
        ratio(children_of("hopf.bismut_christoffels_at", "oracle.fd_curvature"),
              calls["oracle.fd_curvature"]), "ratio")
    out["trace.spans"] = (n, "count")
    return out
