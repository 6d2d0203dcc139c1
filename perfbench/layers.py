"""Per-layer spans for the traced run, installed from outside the package.

Each target is a public function or method of one package module.  It is
wrapped once and the wrapper is rebound under every name that refers to
the original in any loaded ``wpoisson`` module (for example ``complexes.rank``,
``poisson.rank`` and ``wpoisson.rank`` for ``linalg.rank``).  That works
because callers look module globals up at call time.  A target that no
longer exists is skipped with a warning, and its metrics read 0.

A span's self time is its duration minus the durations of the spans it
encloses.  Probes that read matrix shapes run outside every span and are
booked under ``trace.probe``, so self times plus the unattributed rest add
up to the traced wall time.
"""

import sys
import time
from collections import defaultdict

# (module, attribute path, probe name)
TARGETS = [
    ("textio", "parse_poly", None),
    ("ring", "gradient", None),
    ("ring", "Polynomial.substitute", None),
    ("linalg", "rank", "matrix"),
    ("linalg", "kernel_basis", None),
    ("complexes", "assemble", "assembled"),
    ("complexes", "ph_dims", None),
    ("complexes", "koszul_dims", None),
    ("complexes", "vacancy_check", None),
    ("complexes", "sealed_k1_dims", None),
    ("jacobian", "buchberger", "basis"),
    ("jacobian", "normal_form", "remainder"),
    ("jacobian", "a_sing_hilbert", None),
    ("jacobian", "gkdim", None),
    ("jacobian", "has_isolated_singularity", None),
    ("jacobian", "gcd_partials", None),
    ("hilbert", "closed_form_ph", None),
    ("hilbert", "HilbertSeries.expand", None),
    ("poisson", "rgt", None),
    ("poisson", "graded_derivation_space", None),
    ("poisson", "verify_automorphism", None),
    ("catalog", "verify_entry", None),
    ("catalog", "entries", None),
]

# checks whose time per call from catalog.verify_entry is reported as
# catalog.<name>.total_s
CATALOG_CHECK_SPANS = {
    "complexes.vacancy_check": "catalog.vacancy_check",
    "complexes.sealed_k1_dims": "catalog.sealed_k1_dims",
    "complexes.ph_dims": "catalog.ph_dims",
    "poisson.rgt": "catalog.rgt",
    "jacobian.gkdim": "catalog.gkdim",
    "jacobian.has_isolated_singularity": "catalog.has_isolated_singularity",
}


def _shape(m):
    """(rows, cols) of a matrix-like argument, or None"""
    for r, c in (("rows", "cols"), ("nrows", "ncols")):
        rows, cols = getattr(m, r, None), getattr(m, c, None)
        if isinstance(rows, int) and isinstance(cols, int):
            return rows, cols
    shape = getattr(m, "shape", None)
    if isinstance(shape, tuple) and len(shape) == 2:
        return shape
    return None


def _nnz(m):
    """stored nonzeros of a dense row grid or of sparse dict rows, or None"""
    grid = getattr(m, "entries", m)
    if not isinstance(grid, list):
        return None
    if all(isinstance(row, dict) for row in grid):
        return sum(len(row) for row in grid)
    if not all(isinstance(row, list) for row in grid):
        return None
    is_zero = m.field.is_zero if hasattr(m, "field") else (lambda v: v == 0)
    zero = next((v for row in grid for v in row if is_zero(v)), None)
    if zero is None:
        return sum(len(row) for row in grid)
    # list.count compares by identity first, and assembled grids share
    # one zero object, so this stays at C speed on mostly-zero matrices
    return sum(len(row) - row.count(zero) for row in grid)


def _probe_matrix(counters, args, result):
    m = args[0] if args else None
    shape = _shape(m)
    if shape is None:
        return
    rows, cols = shape
    counters["linalg.rank.cells"] += rows * cols
    counters["linalg.rank.rows"] += rows
    counters["linalg.rank.max_cols"] = max(counters["linalg.rank.max_cols"], cols)
    if isinstance(result, int):
        counters["linalg.rank.rank_sum"] += result
    nnz = _nnz(m)
    if nnz is not None:
        counters["linalg.rank.nnz"] += nnz


def _probe_assembled(counters, args, result):
    shape = _shape(result)
    if shape is not None:
        counters["complexes.assemble.rows"] += shape[0]
        counters["complexes.assemble.cols"] += shape[1]


def _probe_basis(counters, args, result):
    try:
        counters["jacobian.buchberger.basis_len"] += len(result)
    except TypeError:
        pass


def _probe_remainder(counters, args, result):
    is_zero = getattr(result, "is_zero", None)
    if is_zero is not None and is_zero():
        counters["jacobian.normal_form.zero"] += 1


PROBES = {"matrix": _probe_matrix, "assembled": _probe_assembled,
          "basis": _probe_basis, "remainder": _probe_remainder}


class Tracer:
    """Aggregating span recorder.  Off until ``enabled`` is set."""

    def __init__(self):
        self.enabled = False
        self.unbound = []
        self.reset()

    def reset(self):
        self.stats = defaultdict(lambda: [0, 0.0])      # name -> [calls, self_s]
        self.by_parent = defaultdict(float)             # (name, parent) -> total_s
        self.counters = defaultdict(float)
        self.stack = []

    def _enter(self, name):
        frame = [name, 0.0]
        self.stack.append(frame)
        return frame

    def _leave(self, frame, dt):
        self.stack.pop()
        st = self.stats[frame[0]]
        st[0] += 1
        st[1] += dt - frame[1]
        parent = None
        if self.stack:
            self.stack[-1][1] += dt
            parent = self.stack[-1][0]
        self.by_parent[(frame[0], parent)] += dt

    def span(self, name):
        """context manager form, for spans opened by the benchmark itself"""
        tracer = self

        class _Span:
            def __enter__(self):
                self.frame = tracer._enter(name)
                self.t0 = time.perf_counter()

            def __exit__(self, *exc):
                tracer._leave(self.frame, time.perf_counter() - self.t0)

        return _Span()

    def wrap(self, name, fn, probe=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(frame, time.perf_counter() - t0)
            if probe is not None:
                with tracer.span("trace.probe"):
                    probe(tracer.counters, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, package):
        """wrap every target that exists and rebind it everywhere"""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package.__name__
                                         or key.startswith(package.__name__ + "."))]
        for mod_name, path, probe in TARGETS:
            name = "%s.%s" % (mod_name, path)
            owner = sys.modules.get("%s.%s" % (package.__name__, mod_name))
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if not callable(orig):
                self.unbound.append(name)
                print("perfbench: %s not found; its metrics read 0" % name, file=sys.stderr)
                continue
            wrapper = self.wrap(name, orig, PROBES.get(probe))
            if outer:
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)

    def snapshot(self):
        """JSON-able copy of everything recorded since the last reset"""
        checks = defaultdict(float)
        for (name, parent), total in self.by_parent.items():
            if parent == "catalog.verify_entry" and name in CATALOG_CHECK_SPANS:
                checks[CATALOG_CHECK_SPANS[name]] += total
        return {"spans": {k: list(v) for k, v in self.stats.items()},
                "counters": dict(self.counters),
                "catalog_checks": dict(checks)}


def cache_counts(module):
    """summed (hits, misses, currsize) over every cache_info() of a function
    defined in the module (imported memos belong to their own module)"""
    hits = misses = size = 0
    for value in list(vars(module).values()):
        info = getattr(value, "cache_info", None)
        if callable(info) and getattr(value, "__module__", None) == module.__name__:
            ci = info()
            hits += ci.hits
            misses += ci.misses
            size += ci.currsize
    return hits, misses, size
