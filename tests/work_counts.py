"""Deterministic work counts, and the one spy that every test counting calls
goes through.

``spy(owner, name, wrap)`` rebinds ``owner.name``, and every other name
bound to the same object in a ``wpoisson`` module or in
``tests/reference_maps``, to ``wrap(original)``, and restores them all on
exit.  So a spy sees every call, whichever module's name for the function
the caller used.

``exact_route()`` is the spy that makes ``linalg.reduction`` return None,
so that inside it every rank read over Q(s) is eliminated exactly: the
route the tests compare the ranks mod p with.

The counts, each of which repeats exactly on any machine:

- the matrices that a cold ``catalog verify`` of all 125 entries
  assembles, by kind, at the default bound 3n+12 and at n+6, the bound of
  the benchmark's ``catalog`` workload, with the roots of a potential that
  each pass tries while its memo record finds the primitive one, and the
  lookups of the memo record ``complexes.potential_memo``, one per public
  call.  A matrix's kind comes from the function that asked for it
  (``requester``) and from its numbers of source and target slices
  (``KINDS``).  Every
  Hamiltonian block, the sealed block [O A_e | O g_i A_u | H | H'] and
  [H | H'] alone, is of kind H; the sealed block gives rank K1 too, so a
  pass assembles no K1 matrix, and the Casimirs come from the primitive
  root of the potential, so it assembles no d0 matrix;
- over the benchmark's ``groebner`` pool at one seed, the three jobs of a
  35 s run, 96 potentials each: the ``Polynomial`` objects built parsing
  the potentials and building their Jacobian bases, and the calls of
  ``jacobian._reduce`` made while building the bases, split between
  Buchberger's main loop and the re-reductions of ``jacobian._prove``,
  the final proof;
- over the benchmark's ``extension`` workload at one seed, the four jobs
  of a 35 s run through the benchmark's own ``perfbench/ops.py``: the memo
  record lookups, and those made with an equal potential other than the
  record's own, each of which compares the two term by term;
- the eliminations of matrices over K = Q[s]/(m), deg m > 1, over those
  jobs and in ``ph_dims`` plus ``sealed_k1_dims`` of the dense Q(s) cubic
  ``QS_CUBIC`` at D = 21, each seen by ``linalg._pivots`` and told apart
  by the rank read ``complexes._Memo.certified_ranks`` that made it: the
  reads eliminated mod p whose bounds certified them, those that fell
  back, at most one per record, and the exact eliminations of restricted
  K-matrices, among them the fallback's, every later rank read of its
  record and the kernel bases.

Every job starts from an empty memo, as every benchmark job starts in a
cold worker.  ``perfbench/inputs.py`` and ``perfbench/ops.py`` are loaded
without writing anything beside them.

Print the counts from the repository root with

    PYTHONPATH=src python tests/work_counts.py [seed]
"""

import importlib.util
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import wpoisson
from wpoisson import Polynomial, Weights, catalog, complexes, jacobian, linalg, parse_poly

ROOT = Path(__file__).resolve().parent.parent

# the dense cubic over Q[s]/(s^2+s+1) of the modular ranks' counts
QS_CUBIC = "3*x^3+5*y^3-7*z^3+2*x^2*y-3*x*y*z+s*x*z^2+4*y^2*z-(2+s)*x^2*z+y*z^2"

# (requesting function, source slices, target slices) -> kind
KINDS = {
    ("sealed_ranks", 4, 1): "H",
    ("hamiltonian_rank", 2, 1): "H",
    ("column_rank", 3, 1): "H|c",
    ("derivation_kernel", 3, 2): "T",
    ("derivation_kernel", 4, 2): "T|c",
    ("koszul_rank", 3, 1): "K1",
    ("koszul_rank", 3, 3): "K2",
    ("koszul_matrix", 3, 1): "K1",
    ("koszul_matrix", 3, 3): "K2",
}


def requester():
    """the name of the function that asked for the matrix whose
    ``assemble`` call the calling spy handles: the caller of ``assemble``,
    or, where that is the shared rank read ``_Memo.certified_ranks``, the
    read's caller"""
    frame = sys._getframe(2)
    if frame.f_code.co_name == "certified_ranks":
        frame = frame.f_back
    return frame.f_code.co_name


@contextmanager
def spy(owner, name, wrap):
    """``owner.name``, and every name bound to the same object in the
    ``wpoisson`` modules and in ``reference_maps``, bound to
    ``wrap(original)`` inside the block"""
    real = getattr(owner, name)
    fake = wrap(real)
    modules = [m for key, m in list(sys.modules.items())
               if key in ("wpoisson", "reference_maps") or key.startswith("wpoisson.")]
    bound = [(owner, name)] + [(m, attr) for m in modules
                               for attr, value in list(vars(m).items()) if value is real]
    for target, attr in bound:
        setattr(target, attr, fake)
    try:
        yield
    finally:
        for target, attr in bound:
            setattr(target, attr, real)


@contextmanager
def exact_route():
    """the block with ``linalg.reduction`` returning None, so every rank read
    over Q[s]/(m) is eliminated exactly, by restriction of scalars"""
    with spy(linalg, "reduction", lambda real: lambda field, denominator: None):
        yield


def memo_lookups():
    """the lookups of ``complexes.potential_memo`` since its last clear"""
    info = complexes.potential_memo.cache_info()
    return info.hits + info.misses


def load_perfbench(name):
    """``perfbench/<name>.py`` as a module, loaded without writing anything
    beside it"""
    spec = importlib.util.spec_from_file_location("perfbench_" + name,
                                                  ROOT / "perfbench" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _texts(seed):
    """(potential text, weights) of the groebner pool, one list per job"""
    jobs = load_perfbench("inputs").GroebnerJobs(ROOT, seed)
    return [[(op["potential"], Weights(*op["weights"])) for op in jobs.job(k)]
            for k in range(3)]


def pool(seed):
    """the groebner pool's potentials, one list per job"""
    return [[parse_poly(text, weights) for text, weights in job] for job in _texts(seed)]


def pass_counts(bound_of=complexes.default_bound):
    """({kind: matrices} assembled, root attempts, memo lookups) of
    ``catalog.verify_entry`` on every entry at the bound ``bound_of(n)``, by
    default 3n+12, from an empty memo"""
    counts, attempts = Counter(), []

    def count_matrix(real):
        def call(weights, src_degs, tgt_degs, table):
            counts[KINDS[requester(), len(src_degs), len(tgt_degs)]] += 1
            return real(weights, src_degs, tgt_degs, table)
        return call

    complexes.potential_memo.cache_clear()
    with spy(linalg, "assemble", count_matrix), \
            spy(complexes, "_root", lambda real: lambda p, r: attempts.append(r) or real(p, r)):
        for entry in catalog.entries():
            catalog.verify_entry(entry, bound_of(entry.degree))
    return counts, len(attempts), memo_lookups()


def groebner_counts(seed=1):
    """(potentials, Polynomials built parsing them, _reduce calls in the main
    loop, _reduce calls in the final proof, Polynomials built building the
    Jacobian bases) over the groebner pool of this seed, in one pass"""
    counts, stage = Counter(), ["parse"]

    def counted(key):
        def wrap(real):
            def call(*args):
                counts[key, stage[0]] += 1
                return real(*args)
            return call
        return wrap

    def proving(real):
        def call(*args):
            stage[0] = "proof"
            try:
                return real(*args)
            finally:
                stage[0] = "main"
        return call

    texts = _texts(seed)
    with spy(Polynomial, "__init__", counted("built")), \
            spy(jacobian, "_reduce", counted("reduce")), spy(jacobian, "_prove", proving):
        jobs = [[parse_poly(text, weights) for text, weights in job] for job in texts]
        stage[0] = "main"
        try:
            for job in jobs:
                complexes.potential_memo.cache_clear()
                for omega in job:
                    jacobian.jacobian_basis(omega)
        finally:
            complexes.potential_memo.cache_clear()
    return (sum(map(len, jobs)), counts["built", "parse"], counts["reduce", "main"],
            counts["reduce", "proof"], counts["built", "main"] + counts["built", "proof"])


def _run_extension_jobs(seed, memo=complexes.potential_memo):
    """run the four extension jobs of this seed, each from an empty memo, and
    return the number of operations; ``memo`` is the real record memo, which
    a spy may have rebound"""
    inputs, ops = load_perfbench("inputs"), load_perfbench("ops")
    jobs = inputs.ExtensionJobs(ROOT, seed)
    done = 0
    try:
        for k in range(4):
            memo.cache_clear()
            for op in jobs.job(k):
                ops.run(wpoisson, op)
                done += 1
    finally:
        memo.cache_clear()
    return done


def record_lookups(seed=1):
    """(operations, lookups, lookups by value) over the extension jobs of
    this seed, a lookup by value being one whose potential is not the
    record's own object"""
    memo = complexes.potential_memo
    counts = [0, 0]

    def look_up(omega):
        record = memo(omega)
        counts[record.omega is not omega] += 1
        return record

    with spy(complexes, "potential_memo", lambda real: look_up):
        done = _run_extension_jobs(seed, memo)
    return done, sum(counts), counts[1]


def k_eliminations(run):
    """(certified, fallback, exact) eliminations of K-matrices made by run():
    the rank reads eliminated mod p whose bounds certified them, those whose
    bounds did not, and the exact eliminations of matrices over Q[s]/(m), deg
    m > 1.  Each elimination belongs to the innermost rank read running, as
    a read's bounds, which may read other ranks, are read before its own
    eliminations: one mod p is certified, and one mod p then one exact is a
    fallback"""
    counts, reads = Counter(), [[]]

    def read(real):
        def call(*args):
            reads.append([])
            try:
                return real(*args)
            finally:
                made = reads.pop()
                counts["certified"] += made == ["mod p"]
                counts["fallback"] += made == ["mod p", "exact"]
        return call

    def pivots(real):
        def call(matrix):
            if isinstance(matrix.field, linalg.Reduction):
                reads[-1].append("mod p")
            elif matrix.field.degree > 1:
                reads[-1].append("exact")
                counts["exact"] += 1
            return real(matrix)
        return call

    with spy(complexes._Memo, "certified_ranks", read), spy(linalg, "_pivots", pivots):
        run()
    return counts["certified"], counts["fallback"], counts["exact"]


def extension_eliminations(seed=1):
    """``k_eliminations`` over the extension jobs of this seed"""
    return k_eliminations(lambda: _run_extension_jobs(seed))


def cubic_eliminations(bound=21):
    """``k_eliminations`` of ``ph_dims`` and ``sealed_k1_dims`` of QS_CUBIC
    to this bound, from an empty memo"""
    omega = parse_poly(QS_CUBIC, Weights(1, 1, 1), wpoisson.ExtensionField([1, 1, 1]))

    def run():
        complexes.potential_memo.cache_clear()
        try:
            complexes.ph_dims(omega, bound)
            complexes.sealed_k1_dims(omega, bound)
        finally:
            complexes.potential_memo.cache_clear()
    return k_eliminations(run)


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    count, parsed, main, proof, built = groebner_counts(seed)
    print("jacobian._reduce calls over the seed-%d groebner pool (%d potentials): %d"
          % (seed, count, main + proof))
    print("  in Buchberger's main loop: %d; re-reductions of the final proof: %d" % (main, proof))
    print("Polynomial objects built parsing the seed-%d groebner pool (%d potentials): %d"
          % (seed, count, parsed))
    print("Polynomial objects built building the Jacobian bases of that pool: %d" % built)
    print("potential_memo lookups over the seed-%d extension jobs (%d operations): %d, "
          "%d of them with a potential other than the record's own" % (seed, *record_lookups(seed)))
    print("K-matrix eliminations over the seed-%d extension jobs: %d certified mod p, "
          "%d fallback, %d exact" % (seed, *extension_eliminations(seed)))
    print("K-matrix eliminations of ph_dims and sealed_k1_dims of the dense Q(s) cubic at "
          "D = 21: %d certified mod p, %d fallback, %d exact" % cubic_eliminations())
    for label, bound_of in (("3n+12", complexes.default_bound), ("n+6", lambda n: n + 6)):
        counts, attempts, lookups = pass_counts(bound_of)
        counts.update({kind: 0 for kind in set(KINDS.values())})
        print("matrices assembled by catalog verify at %s: %d (%s)" % (
            label, sum(counts.values()),
            ", ".join("%s %d" % kv for kv in sorted(counts.items()))))
        print("root attempts of catalog verify at %s: %d" % (label, attempts))
        print("potential_memo lookups of catalog verify at %s: %d" % (label, lookups))
