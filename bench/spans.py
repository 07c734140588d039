"""Span recorder that measures ffunits layer by layer from outside the package.

Timing wrappers are patched into the modules of an imported ``ffunits``:
every listed function is replaced in its defining module and wherever
another ``ffunits`` module bound it by name (``solver.independence_test``,
``cli.parse_element``, the package namespace, ...), and a few hot
primitives get call counters instead of spans.  ``restore`` puts every
original back.

Spans live in flat arrays while the run lasts and are written out once at
the end.  Times are integer nanoseconds, so self times add up exactly.
"""

import sys
from array import array
from time import perf_counter_ns

# module -> functions that get a span (the layers, bottom up)
SPAN_TARGETS = {
    "poly": ("factor",),
    "ratfunc": ("divisor_vector",),
    "hasse": ("subfield_coordinates", "hasse_derivative"),
    "intlattice": ("solve_left",),
    "wronskian": ("independence_test", "candidate_solution", "wronskian_det_adj"),
    "unitgroup": ("member", "representatives", "build_presentation"),
    "solver": ("decide", "auto_m"),
    "localprobe": ("find_local_obstruction", "residue_group", "sl_search", "sg_search"),
    "exprio": ("parse_element", "print_expr"),
    "cli": ("run_cli",),
}

# counter name -> (module, class or None, attribute)
COUNT_TARGETS = {
    "field.mul": ("field", "GF", "mul"),
    "poly.divmod": ("poly", None, "poly_divmod"),
    "poly.gcd": ("poly", None, "poly_gcd"),
    "ratfunc.make": ("ratfunc", "RatFunc", "make"),
}

PACKAGE = "ffunits"

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in SPAN_TARGETS.items() for fn in fns)


class SpanRecorder:
    """Spans (name, start, end, parent, request) plus error and call counts."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request = array("q")
        self._stack: list[int] = []
        self.request_id = -1
        self.errors: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.result_sizes: dict[str, int] = {}

    def __len__(self):
        return len(self.start)

    def _intern(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
            self.errors[name] = 0
        return self._name_id[name]

    def span(self, name: str, fn, measure_result=False):
        """fn wrapped so every call records one span; errors are calls that raise."""
        nid = self._intern(name)
        stack, errors = self._stack, self.errors
        names, starts, ends = self.name, self.start, self.end
        parents, requests = self.parent, self.request
        if measure_result:
            self.result_sizes[name] = 0

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request_id)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if measure_result:
                self.result_sizes[name] += len(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def counter(self, name: str, fn):
        """fn wrapped to count its calls without recording spans."""
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self) -> list[int]:
        return self_times(self.start, self.end, self.parent)

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, self_s and errors per span name."""
        own = self.self_times()
        out = {n: {"calls": 0, "self_s": 0.0, "errors": self.errors[n]} for n in self.names}
        totals = [0] * len(self.names)
        for i, nid in enumerate(self.name):
            out[self.names[nid]]["calls"] += 1
            totals[nid] += own[i]
        for nid, total in enumerate(totals):
            out[self.names[nid]]["self_s"] = total / 1e9
        return out

    def to_json(self, request_names) -> dict:
        return {
            "time_unit": "ns",
            "names": list(self.names),
            "requests": list(request_names),
            "columns": ["name", "start", "end", "parent", "request"],
            "spans": {
                "name": self.name.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "parent": self.parent.tolist(),
                "request": self.request.tolist(),
            },
        }


def self_times(starts, ends, parents) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(starts)):
        lo, hi = starts[i], ends[i]
        covered = 0
        reach = lo
        for c in sorted(children.get(i, ()), key=lambda k: starts[k]):
            a, b = max(starts[c], reach), min(ends[c], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append(hi - lo - covered)
    return out


class Patch:
    """Installs a recorder's wrappers into the loaded ffunits modules and undoes it."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _replace_everywhere(self, orig, wrapper):
        found = False
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)
                    found = True
        if not found:
            raise LookupError(f"{orig!r} is not bound in any {PACKAGE} module")

    def install(self, rec: SpanRecorder):
        for mod_name, fns in SPAN_TARGETS.items():
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            for fn in fns:
                orig = getattr(mod, fn)
                name = f"{mod_name}.{fn}"
                wrapper = rec.span(name, orig, measure_result=(name == "localprobe.residue_group"))
                self._replace_everywhere(orig, wrapper)
        for name, (mod_name, cls_name, attr) in COUNT_TARGETS.items():
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            if cls_name is None:
                orig = getattr(mod, attr)
                self._replace_everywhere(orig, rec.counter(name, orig))
                continue
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(rec.counter(name, raw.__func__))
            else:
                wrapped = rec.counter(name, raw)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def restore(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)
