"""Per-layer tracing of mepack, installed from outside the package.

`Tracer.install()` replaces every function and method that a mepack module
defines with a wrapper, in the defining module and in every mepack module
that imported it by name.  Each module is one layer, named after it
(`algebra.expression`, `quantum`, `oracle`, ...).  The wrappers keep:

- call counts per function, and for the `Scalar`/`Expr` arithmetic (many
  millions of calls) nothing more than counts and self time;
- self time per layer, from a stack per thread: a call's duration minus
  the time its wrapped callees took (a thread that waits on another, as
  the CLI's thread pool does, counts the wait in its own layer); every
  thread keeps its own counters, merged by `snapshot()`;
- spans (name, start, end, parent) in memory for the coarse calls listed
  in SPAN_KEYS only;
- a few sizes read off arguments and results (term counts, the Fock
  cutoff, leakage, and matrix-product flops computed from the cutoff).

A function that a later version of mepack no longer defines is simply not
wrapped; `layer_metrics` then reports the metrics built on it as absent.
`uninstall()` restores the originals.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

LAYERS = {
    "mepack.algebra.scalar": "algebra.scalar",
    "mepack.algebra.expression": "algebra.expression",
    "mepack.algebra.words": "algebra.words",
    "mepack.algebra.weyl": "algebra.weyl",
    "mepack.algebra.phase": "algebra.phase",
    "mepack.algebra.ladder": "algebra.ladder",
    "mepack.algebra.numberpoly": "algebra.numberpoly",
    "mepack.algebra.parsing": "algebra.parsing",
    "mepack.packets": "packets",
    "mepack.partition": "partition",
    "mepack.classical": "classical",
    "mepack.quantum": "quantum",
    "mepack.dynamics": "dynamics",
    "mepack.oracle": "oracle",
    "mepack.cli": "cli",
}

# dunder methods that do arithmetic; other dunders (init, eq, hash, repr)
# and the cheap predicates below stay unwrapped and count toward their
# caller's layer
UNWRAPPED = {"coerce", "is_zero", "is_real", "is_constant", "is_monomial"}
ARITHMETIC = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__rtruediv__", "__pow__",
}

SPAN_KEYS = {
    "quantum:expectation_quantum",
    "classical:moment_classical",
    "dynamics:quantum_correction",
    "dynamics:propagate",
    "oracle:fock_state",
    "oracle:fock_expectation",
    "oracle:fock_evolve",
    "cli:main",
}

# keys whose own self time is reported, besides their layer's
KEY_SELF = {"oracle:fock_evolve", "oracle:fock_expectation", "dynamics:propagate"}

# keys whose inclusive time (callees included) is reported; none recurses
KEY_TOTAL = {"algebra.ladder:to_ladder", "algebra.weyl:commutator"}

# keys whose result's term count feeds a max_terms metric
SIZE_KEYS = {
    "algebra.expression:Expr.__mul__", "algebra.expression:Expr.__rmul__",
    "algebra.expression:Expr.__add__", "algebra.expression:Expr.__radd__",
    "algebra.weyl:WeylPolynomial.__mul__", "algebra.weyl:WeylPolynomial.__rmul__",
    "algebra.ladder:LadderPolynomial.__mul__", "algebra.ladder:LadderPolynomial.__rmul__",
}


def _matmuls_word(args, _result):
    state, word = args[0], args[1]
    return len(list(word)), state.cutoff


def _matmuls_expectation(args, _result):
    return 1, args[0].cutoff


def _matmuls_hamiltonian(args, _result):
    state, potential = args[0], args[1]
    return 2 + potential.degree, state.cutoff


def _matmuls_evolve(args, _result):
    return 2, args[0].cutoff


def _matmuls_moments(args, _result):
    return 6, args[0].cutoff


# explicit N x N complex matrix products made by each oracle function
# (scipy's expm is not counted)
MATMULS = {
    "oracle:_word_matrix": _matmuls_word,
    "oracle:fock_expectation": _matmuls_expectation,
    "oracle:hamiltonian_matrix": _matmuls_hamiltonian,
    "oracle:fock_evolve": _matmuls_evolve,
    "oracle:state_moments": _matmuls_moments,
}


class _Counters:
    """One thread's accumulators; `Tracer.snapshot` merges all threads'."""

    def __init__(self):
        self.stack = [[0.0]]  # child-time accumulators of the open calls
        self.open_spans = [None]
        self.open = defaultdict(int)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.key_self_s = defaultdict(float)
        self.key_total_s = defaultdict(float)
        self.max_terms = {}
        self.spans = []
        self.averages_in_correction = 0
        self.matmul_flops = 0.0
        self.max_cutoff = 0
        self.max_leakage = 0.0

    def as_snapshot(self) -> dict:
        return {
            "wrapped": [], "calls": dict(self.calls), "self_s": dict(self.self_s),
            "key_self_s": dict(self.key_self_s), "key_total_s": dict(self.key_total_s),
            "max_terms": dict(self.max_terms), "spans": list(self.spans),
            "averages_in_correction": self.averages_in_correction,
            "matmul_flops": self.matmul_flops, "max_cutoff": self.max_cutoff,
            "max_leakage": self.max_leakage,
            "swap_distinct": None, "moment_hits": None, "moment_misses": None,
        }


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.local = threading.local()
        self.threads = []
        self.lock = threading.Lock()
        self.span_ids = itertools.count()
        self.wrapped = set()
        self.originals = {}
        self._patches = []

    # -- installation ---------------------------------------------------------

    def install(self):
        replacements = {}
        for modname, layer in LAYERS.items():
            module = sys.modules.get(modname)
            if module is None:
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isclass(obj) and obj.__module__ == modname:
                    self._wrap_class(obj, layer)
                elif _defined_function(obj, modname):
                    key = f"{layer}:{name}"
                    wrapper = self._wrapper(obj, layer, key)
                    replacements[id(obj)] = (obj, wrapper)
                    self.originals[key] = obj
        for modname, module in list(sys.modules.items()):
            if not (modname == "mepack" or modname.startswith("mepack.")):
                continue
            for name, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, name, obj))
                    setattr(module, name, hit[1])

    def _wrap_class(self, cls, layer):
        for name, raw in list(vars(cls).items()):
            if name in UNWRAPPED or (name.startswith("__") and name not in ARITHMETIC):
                continue
            key = f"{layer}:{cls.__name__}.{name}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrapper(raw.__func__, layer, key))
            elif inspect.isfunction(raw):
                wrapped = self._wrapper(raw, layer, key)
            else:
                continue
            self._patches.append((cls, name, raw))
            setattr(cls, name, wrapped)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _counters(self) -> _Counters:
        try:
            return self.local.counters
        except AttributeError:
            counters = self.local.counters = _Counters()
            with self.lock:
                self.threads.append(counters)
            return counters

    def _wrapper(self, fn, layer, key):
        self.wrapped.add(key)
        if key in SPAN_KEYS or key in KEY_SELF or key in KEY_TOTAL or key in SIZE_KEYS \
                or key in MATMULS or key in ("oracle:fock_state", "dynamics:_average"):
            return self._detailed_wrapper(fn, layer, key)
        clock, counters_of = self.clock, self._counters

        def wrapper(*args, **kwargs):
            counters = counters_of()
            stack = counters.stack
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                counters.self_s[layer] += elapsed - child[0]
                counters.calls[key] += 1

        return functools.wraps(fn)(wrapper)

    def _detailed_wrapper(self, fn, layer, key):
        clock, counters_of = self.clock, self._counters
        is_span = key in SPAN_KEYS
        matmuls = MATMULS.get(key)

        def wrapper(*args, **kwargs):
            counters = counters_of()
            stack = counters.stack
            child = [0.0]
            stack.append(child)
            if is_span:
                span_id = next(self.span_ids)
                parent = counters.open_spans[-1]
                counters.open_spans.append(span_id)
                counters.open[key] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                stack[-1][0] += elapsed
                own = elapsed - child[0]
                counters.self_s[layer] += own
                counters.calls[key] += 1
                if key in KEY_SELF:
                    counters.key_self_s[key] += own
                if key in KEY_TOTAL:
                    counters.key_total_s[key] += elapsed
                if is_span:
                    counters.open_spans.pop()
                    counters.open[key] -= 1
                    counters.spans.append((span_id, parent, key, start, end))
            _observe(counters, key, args, result, matmuls)
            return result

        return functools.wraps(fn)(wrapper)

    # -- results ----------------------------------------------------------------

    def cache_stats(self, key):
        fn = self.originals.get(key)
        info = getattr(fn, "cache_info", None)
        return info() if info else None

    def snapshot(self) -> dict:
        """Plain-data summary; several snapshots can be merged with `merge`."""
        with self.lock:
            snap = merge([c.as_snapshot() for c in self.threads])
        snap["wrapped"] = sorted(self.wrapped)
        snap["spans"].sort()
        swaps = self.cache_stats("algebra.words:swap_counts")
        moments = self.cache_stats("quantum:weyl_monomial_expectation")
        snap["swap_distinct"] = swaps.currsize if swaps else None
        snap["moment_hits"] = moments.hits if moments else None
        snap["moment_misses"] = moments.misses if moments else None
        return snap


def _observe(counters, key, args, result, matmuls):
    terms = getattr(result, "_terms", None)
    if key in SIZE_KEYS and terms is not None:
        counters.max_terms[key] = max(counters.max_terms.get(key, 0), len(terms))
    if matmuls is not None:
        try:
            count, n = matmuls(args, result)
            counters.matmul_flops += 8.0 * count * n ** 3
        except (AttributeError, IndexError, TypeError):
            pass  # a changed signature leaves the flop count short, the run intact
    if key == "oracle:fock_state":
        counters.max_cutoff = max(counters.max_cutoff, getattr(result, "cutoff", 0))
    elif key == "oracle:fock_evolve":
        counters.max_leakage = max(counters.max_leakage, getattr(result, "leakage", 0.0))
    elif key == "dynamics:_average" and counters.open["dynamics:quantum_correction"]:
        counters.averages_in_correction += 1


def _defined_function(obj, modname: str) -> bool:
    if getattr(obj, "__module__", None) != modname:
        return False
    # plain functions and lru_cache wrappers
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


def merge(snapshots: list) -> dict:
    """Combine snapshots of several threads, or of several processes (the
    cli-batch scenarios)."""
    out = {
        "wrapped": set(), "calls": {}, "self_s": {}, "key_self_s": {}, "key_total_s": {},
        "max_terms": {},
        "spans": [], "averages_in_correction": 0, "matmul_flops": 0.0, "max_cutoff": 0,
        "max_leakage": 0.0, "swap_distinct": None, "moment_hits": None, "moment_misses": None,
    }
    for snap in snapshots:
        out["wrapped"] |= set(snap["wrapped"])
        for field in ("calls", "self_s", "key_self_s", "key_total_s"):
            for k, v in snap[field].items():
                out[field][k] = out[field].get(k, 0) + v
        for k, v in snap["max_terms"].items():
            out["max_terms"][k] = max(out["max_terms"].get(k, 0), v)
        out["spans"] += snap["spans"]
        for field in ("averages_in_correction", "matmul_flops"):
            out[field] += snap[field]
        out["max_cutoff"] = max(out["max_cutoff"], snap["max_cutoff"])
        out["max_leakage"] = max(out["max_leakage"], snap["max_leakage"])
        for field in ("swap_distinct", "moment_hits", "moment_misses"):
            if snap[field] is not None:
                out[field] = (out[field] or 0) + snap[field]
    out["wrapped"] = sorted(out["wrapped"])
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

SCALAR_OPS = tuple(
    f"algebra.scalar:Scalar.{name}"
    for name in sorted(ARITHMETIC | {"inverse", "conjugate"})
)

# call-count metric -> the wrapped keys whose calls it sums
COUNTED = {
    "algebra.scalar.ops": SCALAR_OPS,
    "algebra.expression.mul.calls": (
        "algebra.expression:Expr.__mul__", "algebra.expression:Expr.__rmul__"),
    "algebra.expression.add.calls": (
        "algebra.expression:Expr.__add__", "algebra.expression:Expr.__radd__"),
    "algebra.expression.substitute.calls": ("algebra.expression:Expr.substitute",),
    "algebra.words.swap_counts.calls": ("algebra.words:swap_counts",),
    "algebra.weyl.mul.calls": (
        "algebra.weyl:WeylPolynomial.__mul__", "algebra.weyl:WeylPolynomial.__rmul__"),
    "algebra.phase.poisson_bracket.calls": ("algebra.phase:poisson_bracket",),
    "algebra.ladder.to_ladder.calls": ("algebra.ladder:to_ladder",),
    "algebra.ladder.mul.calls": (
        "algebra.ladder:LadderPolynomial.__mul__", "algebra.ladder:LadderPolynomial.__rmul__"),
    "algebra.parsing.calls": (
        "algebra.parsing:parse_weyl", "algebra.parsing:parse_expression",
        "algebra.parsing:parse_phase", "algebra.parsing:parse_ladder"),
    "quantum.expectation_quantum.calls": ("quantum:expectation_quantum",),
    "quantum.weyl_monomial_expectation.calls": ("quantum:weyl_monomial_expectation",),
    "classical.moment_classical.calls": ("classical:moment_classical",),
    "dynamics.quantum_correction.calls": ("dynamics:quantum_correction",),
    "dynamics.derivatives_quantum.calls": ("dynamics:derivatives_quantum",),
    "oracle.fock_evolve.calls": ("oracle:fock_evolve",),
}

MAX_TERMS = {
    f"{layer}.max_terms": tuple(sorted(k for k in SIZE_KEYS if k.startswith(layer + ":")))
    for layer in ("algebra.expression", "algebra.weyl", "algebra.ladder")
}

KEY_SELF_METRICS = {
    "oracle.fock_evolve.self_s": "oracle:fock_evolve",
    "oracle.fock_expectation.self_s": "oracle:fock_expectation",
    "dynamics.propagate.self_s": "dynamics:propagate",
}

KEY_TOTAL_METRICS = {
    "algebra.ladder.to_ladder.total_s": "algebra.ladder:to_ladder",
    "algebra.weyl.commutator.total_s": "algebra.weyl:commutator",
}


def layer_metrics(snap: dict) -> tuple:
    """(metrics, absent): name -> value for every metric whose wrapped
    function exists, plus the names of the ones that do not."""
    wrapped = set(snap["wrapped"])
    metrics, absent = {}, []

    def put(name, value, needs):
        if all(k in wrapped for k in needs):
            metrics[name] = value
        else:
            absent.append(name)

    for name, keys in COUNTED.items():
        present = [k for k in keys if k in wrapped]
        put(name, sum(snap["calls"].get(k, 0) for k in present), present[:1] or keys)
    put("algebra.words.swap_counts.distinct", snap["swap_distinct"] or 0,
        ["algebra.words:swap_counts"] if snap["swap_distinct"] is not None else ["?"])
    for name, keys in MAX_TERMS.items():
        put(name, max(snap["max_terms"].get(k, 0) for k in keys), keys[:1])
    for layer in sorted(set(LAYERS.values())):
        metrics[f"{layer}.self_s"] = snap["self_s"].get(layer, 0.0)
    for name, key in KEY_SELF_METRICS.items():
        put(name, snap["key_self_s"].get(key, 0.0), [key])
    for name, key in KEY_TOTAL_METRICS.items():
        put(name, snap["key_total_s"].get(key, 0.0), [key])

    hits, misses = snap["moment_hits"], snap["moment_misses"]
    lookups = (hits or 0) + (misses or 0)
    put("quantum.moment_cache_hit_ratio", hits / lookups if lookups else 0.0,
        ["quantum:weyl_monomial_expectation"] if hits is not None else ["?"])

    # each quantum_correction uses 2 of the averages it computes (the last
    # p-derivative, quantum and classical); averages outside it are all used
    averages = snap["calls"].get("dynamics:_average", 0)
    corrections = snap["calls"].get("dynamics:quantum_correction", 0)
    useful = averages - snap["averages_in_correction"] + 2 * corrections
    put("dynamics.averages_useful_ratio", useful / averages if averages else 1.0,
        ["dynamics:_average", "dynamics:quantum_correction"])

    put("oracle.cutoff", snap["max_cutoff"], ["oracle:fock_state"])
    put("oracle.matmul_gflop_computed", snap["matmul_flops"] / 1e9, ["oracle:_word_matrix"])
    put("oracle.max_leakage", snap["max_leakage"], ["oracle:fock_evolve"])
    return metrics, absent


# ---------------------------------------------------------------------------
# -X importtime
# ---------------------------------------------------------------------------

def import_times(stderr: str) -> dict:
    """Cumulative import seconds of mepack, numpy and scipy, read from the
    `-X importtime` lines of a process's standard error."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # the header line
        raw = parts[2].rstrip()
        name = raw.lstrip()
        entries.append((len(raw) - len(name), name, cumulative))

    def total(package):
        hits = [(d, c) for d, n, c in entries if n == package or n.startswith(package + ".")]
        if not hits:
            return 0.0
        top = min(d for d, _ in hits)
        return sum(c for d, c in hits if d == top) / 1e6

    return {"mepack": total("mepack"), "numpy": total("numpy"), "scipy": total("scipy")}
