"""Deterministic work counts of the benchmark's ``groebner`` pool at one
seed: the calls of ``jacobian._reduce`` made while building the Jacobian
bases, in all and split between Buchberger's main loop and the final
proof's re-reductions, and the ``Polynomial`` objects built while parsing
the potentials and while building their Jacobian bases.  The pool is the
three jobs of a 35 s run, 96 potentials each, with the basis cache emptied
before each job, as every benchmark job starts in a cold worker.  The pool
comes from ``perfbench/inputs.py``, loaded without writing anything beside
it.

Print the counts from the repository root with

    PYTHONPATH=src python tests/reduce_count.py [seed]
"""

import importlib.util
import sys
from pathlib import Path

from wpoisson import Polynomial, Weights, complexes, jacobian, parse_poly

ROOT = Path(__file__).resolve().parent.parent
JOBS = 3


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
    """(potential text, weights) of the pool, one list per job"""
    jobs = load_perfbench("inputs").GroebnerJobs(ROOT, seed)
    return [[(op["potential"], Weights(*op["weights"])) for op in jobs.job(k)]
            for k in range(JOBS)]


def _parse(texts):
    return [[parse_poly(text, weights) for text, weights in job] for job in texts]


def pool(seed):
    """the pool's potentials, one list per job"""
    return _parse(_texts(seed))


def _count_polynomials(work):
    """the Polynomial objects built while work() runs"""
    built = 0
    init = Polynomial.__init__

    def counted(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    Polynomial.__init__ = counted
    try:
        work()
    finally:
        Polynomial.__init__ = init
    return built


def _build_bases(jobs):
    """the Jacobian basis of every potential, the memo emptied before each
    job and after the last"""
    try:
        for job in jobs:
            complexes.potential_memo.cache_clear()
            for omega in job:
                jacobian.jacobian_basis(omega)
    finally:
        complexes.potential_memo.cache_clear()


def parse_polynomials(seed=1):
    """(potentials, Polynomial objects built while parsing them) over the
    pool of this seed"""
    texts = _texts(seed)
    return sum(map(len, texts)), _count_polynomials(lambda: _parse(texts))


def basis_polynomials(seed=1):
    """(potentials, Polynomial objects built while building their Jacobian
    bases) over the pool of this seed"""
    jobs = pool(seed)
    return sum(map(len, jobs)), _count_polynomials(lambda: _build_bases(jobs))


def reduce_phases(seed=1):
    """(potentials, main-loop calls, final-proof calls) of jacobian._reduce
    over the pool of this seed.  A call made inside ``jacobian._prove``, the
    re-reduction of the pairs and generators that the main loop's own zero
    reductions do not certify, is a final-proof call; every other call,
    the main loop's reductions of generators and S-pairs, is a main-loop
    call"""
    calls = [0, 0]
    proving = 0
    reduce, prove = jacobian._reduce, jacobian._prove

    def counted_reduce(*args):
        calls[proving] += 1
        return reduce(*args)

    def counted_prove(*args):
        nonlocal proving
        proving = 1
        try:
            return prove(*args)
        finally:
            proving = 0

    jobs = pool(seed)
    jacobian._reduce, jacobian._prove = counted_reduce, counted_prove
    try:
        _build_bases(jobs)
    finally:
        jacobian._reduce, jacobian._prove = reduce, prove
    return sum(map(len, jobs)), calls[0], calls[1]


def reduce_calls(seed=1):
    """(potentials, calls of jacobian._reduce) over the pool of this seed"""
    count, main, proof = reduce_phases(seed)
    return count, main + proof


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    count, main, proof = reduce_phases(seed)
    print("jacobian._reduce calls over the seed-%d groebner pool (%d potentials): %d"
          % (seed, count, main + proof))
    print("  in Buchberger's main loop: %d; re-reductions of the final proof: %d"
          % (main, proof))
    count, built = parse_polynomials(seed)
    print("Polynomial objects built parsing the seed-%d groebner pool (%d potentials): %d"
          % (seed, count, built))
    count, built = basis_polynomials(seed)
    print("Polynomial objects built building the Jacobian bases of that pool: %d" % built)
