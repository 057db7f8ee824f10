"""Per-layer tracing from outside the package.

Every public function of the query-path modules is wrapped once, and the
wrapper is installed at every efdkit binding of that function: cli and
translate import functions by name, so patching only the defining module
would miss their calls.  Each outermost call records a span (query, name,
parent span, start, end); re-entrant calls of a recursive function are
counted but not timed.  Spans stay in memory and are written out at the
end; the aggregates below are exact whatever the span cap.
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "terms", "geometry", "canonical", "models", "translate", "lattice")

# Named groups whose busy time counts while any member is on the stack.
GROUPS = {
    "terms.parse": ("terms.parse_term", "terms.parse_sentence"),
    "terms.print": ("terms.print_term", "terms.print_sentence"),
}

SPAN_CAP = 200_000


class _Func:
    __slots__ = ("name", "layer", "groups", "calls", "busy", "self", "active")

    def __init__(self, name, layer, groups):
        self.name, self.layer, self.groups = name, layer, groups
        self.calls = 0
        self.busy = self.self = 0.0
        self.active = False


class _Group:
    __slots__ = ("calls", "busy", "depth", "start")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.depth = 0
        self.start = 0.0


class Tracer:
    """Wraps the functions of an imported efdkit; ``install()`` puts the
    wrappers at every binding and ``uninstall()`` restores the originals.
    Aggregates accumulate across installs."""

    def __init__(self):
        self.funcs: dict[str, _Func] = {}
        self.groups = {name: _Group() for name in (*LAYERS, *GROUPS)}
        self.counts = {"full_dim_true": 0, "pieces": 0, "pool_size": 0,
                       "exact_solves": 0, "branches": 0}
        self.query = 0
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._stack: list[list] = []  # [child_time, span_index]
        modules = {n: m for n, m in sys.modules.items()
                   if n == "efdkit" or n.startswith("efdkit.")}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"efdkit.{layer}"]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    groups = [self.groups[layer]] + [
                        self.groups[g] for g, members in GROUPS.items() if name in members]
                    rec = self.funcs[name] = _Func(name, layer, groups)
                    wrappers[id(fn)] = (fn, self._wrap(fn, rec))
        # (module, attribute, original, wrapper) for every binding
        self._sites = [
            (mod, attr, value, wrappers[id(value)][1])
            for mod in modules.values()
            for attr, value in list(vars(mod).items())
            if id(value) in wrappers and wrappers[id(value)][0] is value
        ]

    def install(self) -> None:
        for mod, attr, _, wrapper in self._sites:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._sites:
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    _OBSERVE = {
        "geometry.is_full_dimensional": ("full_dim_true", lambda r: int(r.full_dimensional)),
        "canonical.piecewise_canonical": ("pieces", lambda r: len(r.pieces)),
        "models.candidate_pool": ("pool_size", len),
        "models.solutions_for_assignment": ("exact_solves", lambda r: int(r[1])),
        "translate.phi_rad_decompose": ("branches", len),
    }

    def _wrap(self, fn, rec):
        stack, spans, counts = self._stack, self.spans, self.counts
        observe = self._OBSERVE.get(rec.name)
        groups = rec.groups
        tracer = self

        def traced(*args, **kwargs):
            rec.calls += 1
            for g in groups:
                g.calls += 1
            if rec.active:
                return fn(*args, **kwargs)
            rec.active = True
            parent = stack[-1][1] if stack else -1
            frame = [0.0, len(spans)]
            stack.append(frame)
            if len(spans) < SPAN_CAP:
                spans.append(None)
            else:
                frame[1] = -1
            for g in groups:
                if g.depth == 0:
                    g.start = perf_counter()
                g.depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                rec.busy += dt
                rec.self += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                for g in groups:
                    g.depth -= 1
                    if g.depth == 0:
                        g.busy += perf_counter() - g.start
                rec.active = False
                if frame[1] >= 0:
                    spans[frame[1]] = (tracer.query, rec.name, parent, t0, t1)
                else:
                    tracer.spans_dropped += 1
            if observe is not None:
                counts[observe[0]] += observe[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results ------------------------------------------------------------

    def _f(self, name):
        return self.funcs[name]

    def metrics(self) -> dict:
        f, g, c = self._f, self.groups, self.counts
        fd_calls = f("geometry.is_full_dimensional").calls
        sol_calls = f("models.solutions_for_assignment").calls
        out = {
            "cli.run.calls": (f("cli.run").calls, "count"),
            "cli.run.busy_s": (f("cli.run").busy, "s"),
            "cli.run.self_s": (f("cli.run").self, "s"),
            "terms.parse.calls": (g["terms.parse"].calls, "count"),
            "terms.parse.busy_s": (g["terms.parse"].busy, "s"),
            "terms.print.calls": (g["terms.print"].calls, "count"),
            "terms.print.busy_s": (g["terms.print"].busy, "s"),
            "geometry.feasible_point.calls": (f("geometry.feasible_point").calls, "count"),
            "geometry.feasible_point.busy_s": (f("geometry.feasible_point").busy, "s"),
            "geometry.is_full_dimensional.calls": (fd_calls, "count"),
            "geometry.is_full_dimensional.self_s": (f("geometry.is_full_dimensional").self, "s"),
            "geometry.full_dim_ratio": (c["full_dim_true"] / fd_calls if fd_calls else 0.0, "ratio"),
            "canonical.piecewise_canonical.calls": (f("canonical.piecewise_canonical").calls, "count"),
            "canonical.piecewise_canonical.self_s": (f("canonical.piecewise_canonical").self, "s"),
            "canonical.pieces": (c["pieces"], "count"),
            "canonical.reduce_delta_kt.self_s": (f("canonical.reduce_delta_kt").self, "s"),
            "models.eval_term.calls": (f("models.eval_term").calls, "count"),
            "models.eval_term.busy_s": (f("models.eval_term").busy, "s"),
            "models.solutions_for_assignment.calls": (sol_calls, "count"),
            "models.solutions_for_assignment.self_s": (f("models.solutions_for_assignment").self, "s"),
            "models.candidate_pool.size": (c["pool_size"], "count"),
            "models.check_sentence_sampled.self_s": (f("models.check_sentence_sampled").self, "s"),
            "models.exact_ratio": (c["exact_solves"] / sol_calls if sol_calls else 0.0, "ratio"),
            "translate.check_in_two.busy_s": (f("translate.check_in_two").busy, "s"),
            "translate.phi_rad_decompose.self_s": (f("translate.phi_rad_decompose").self, "s"),
            "translate.branches": (c["branches"], "count"),
            "translate.mv_to_hoop.busy_s": (f("translate.mv_to_hoop").busy, "s"),
            "translate.classify_mv_sentences.self_s": (f("translate.classify_mv_sentences").self, "s"),
            "lattice.calls": (g["lattice"].calls, "count"),
            "lattice.busy_s": (g["lattice"].busy, "s"),
        }
        for layer in LAYERS:
            own = sum(r.self for r in self.funcs.values() if r.layer == layer)
            out[f"{layer}.self_s"] = (own, "s")
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["query", "name", "parent", "start", "end"],
                                 "dropped": self.spans_dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
