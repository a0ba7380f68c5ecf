"""Span tracing from outside the package.

The wrappers replace the names where the package looks them up at call
time: module globals such as `landau.assemble.bound_loop` (bound by
`from .benefit import bound_loop`) and class attributes such as
`GEngine.g_fraction`.  Patching the defining module alone would miss the
first kind.  Spans stay in memory; `summary()` turns them into per-n self
times and counts.
"""

import importlib
import time
from collections import defaultdict

# (module, owner or "", attribute, span name, layer metric charged with the
# span's self time); resolved only when a Tracer is installed
SITES = (
    ("landau.primes", "PrimeTable", "build", "PrimeTable.build", "primes.build_s"),
    ("landau.assemble", "", "build_e2_table", "build_e2_table", "superchampion.e2_s"),
    ("landau.assemble", "", "find_context", "find_context", "superchampion.context_s"),
    ("landau.superchampion", "Champion", "log", "Champion.log", "superchampion.champion_log_s"),
    ("landau.assemble", "", "bound_loop", "bound_loop", "benefit.bound_loop_s"),
    ("landau.benefit", "", "build_prefix_sets", "build_prefix_sets", "benefit.prefix_sets_s"),
    ("landau.benefit", "", "estimate_B", "estimate_B", "benefit.estimate_B_s"),
    ("landau.gfunction", "GEngine", "g_fraction", "GEngine.g_fraction", "gfunction.g_fraction_s"),
    ("landau.gfunction", "GEngine", "g_large", "GEngine.g_large", "gfunction.g_large_s"),
    ("landau.gfunction", "GEngine", "delta1", "GEngine.delta1", "gfunction.delta1_s"),
    ("landau.assemble", "Solver", "compute", "Solver.compute", "assemble.compute_self_s"),
    ("landau.assemble", "Solver", "context", "Solver.context", "assemble.compute_self_s"),
    ("landau.assemble", "", "normalized_candidates", "normalized_candidates",
     "assemble.normalize_s"),
    ("landau.assemble", "", "fight", "fight", "assemble.fight_s"),
)

TIME_METRICS = sorted({metric for *_, metric in SITES})

class Span:
    __slots__ = ("name", "id", "parent", "request", "t0", "t1", "size")

    def __init__(self, name, id, parent, request):
        self.name = name
        self.id = id
        self.parent = parent
        self.request = request
        self.t0 = self.t1 = 0.0
        self.size = None  # an integer read off the call: a length or m


def _size(name, args, out):
    if name in ("PrimeTable.build", "build_e2_table", "normalized_candidates", "fight"):
        return len(out)
    if name == "bound_loop":
        return len(out[1])  # |D| the candidates are drawn from
    if name == "GEngine.g_fraction":
        return args[2]      # m
    return None


class Tracer:
    """Records spans while `request` is set; one request per n (or per
    Solver set-up), shared by every span the call causes."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []
        self._next_id = 0
        self._undo = []

    def install(self):
        for module, cls, attr, name, _ in SITES:
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            raw = owner.__dict__[attr]  # KeyError: the site moved; fix SITES
            if isinstance(raw, property):
                new = property(self._wrap(name, raw.fget))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, raw))

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def _wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = Span(name, tracer._next_id, stack[-1].id if stack else None, tracer.request)
            tracer._next_id += 1
            stack.append(span)
            span.t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.t1 = clock()
                stack.pop()
                tracer.spans.append(span)
            span.size = _size(name, args, out)
            return out

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def summary(self):
        """Per request: self seconds by layer metric, calls by span name, and
        the sum and maximum of each span's size."""
        child = defaultdict(float)
        by_id = {}
        for s in self.spans:
            by_id[s.id] = s
            if s.parent is not None:
                child[s.parent] += s.t1 - s.t0
        metric = {name: m for *_, name, m in SITES}
        out = {}
        for s in self.spans:
            rec = out.setdefault(s.request, {"self_s": defaultdict(float),
                                             "calls": defaultdict(int),
                                             "size_sum": defaultdict(int),
                                             "size_max": defaultdict(int)})
            rec["self_s"][metric[s.name]] += (s.t1 - s.t0) - child[s.id]
            rec["calls"][s.name] += 1
            if s.name == "GEngine.g_fraction" and by_id.get(s.parent, s).name == "Solver.compute":
                rec["calls"]["evaluated"] += 1
            if s.size is not None:
                rec["size_sum"][s.name] += s.size
                rec["size_max"][s.name] = max(rec["size_max"][s.name], s.size)
        return {req: {k: dict(v) for k, v in rec.items()} for req, rec in out.items()}


def counts(records):
    """The integer per-layer counts and ratios over a list of summary
    records (one per request)."""
    calls = defaultdict(int)
    size_sum = defaultdict(int)
    size_max = defaultdict(int)
    for rec in records:
        for k, v in rec["calls"].items():
            calls[k] += v
        for k, v in rec["size_sum"].items():
            size_sum[k] += v
        for k, v in rec["size_max"].items():
            size_max[k] = max(size_max[k], v)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "primes.count": size_max["PrimeTable.build"],
        "superchampion.e2_entries": size_max["build_e2_table"],
        "superchampion.context_hit_ratio": ratio(
            calls["Solver.context"] - calls["find_context"], calls["Solver.context"]),
        "benefit.prefix_sets_built": calls["build_prefix_sets"],
        "benefit.dset_hit_ratio": ratio(
            calls["estimate_B"] - calls["build_prefix_sets"], calls["estimate_B"]),
        "benefit.estimate_B_calls": calls["estimate_B"],
        "benefit.dset_size": size_sum["bound_loop"],
        "gfunction.g_fraction_calls": calls["GEngine.g_fraction"],
        "gfunction.g_large_calls": calls["GEngine.g_large"],
        "gfunction.m_suffix_max": size_max["GEngine.g_fraction"],
        "assemble.candidates": size_sum["normalized_candidates"],
        "assemble.survivors": size_sum["fight"],
        "assemble.survivor_ratio": ratio(size_sum["fight"], size_sum["normalized_candidates"]),
        "assemble.evaluated": calls["evaluated"],
    }
