"""A deterministic work count of the memo record lookups over the
benchmark's ``extension`` workload at one seed: the lookups of
``complexes.potential_memo`` in all, and those made with an equal potential
other than the record's own, each of which compares the two term by term.
The operations are the four jobs of a 35 s run, run in process through the
benchmark's own ``perfbench/ops.py``, with the memo emptied before each
job, as every benchmark job starts in a cold worker.  ``perfbench/ops.py``
and ``perfbench/inputs.py`` are loaded without writing anything beside
them.

Print the counts from the repository root with

    PYTHONPATH=src python tests/lookup_count.py [seed]
"""

import sys

import wpoisson
from wpoisson import complexes

from reduce_count import ROOT, load_perfbench

JOBS = 4


def record_lookups(seed=1):
    """(operations, lookups, lookups by value) over the extension jobs of
    this seed, a lookup by value being one whose potential is not the
    record's own object"""
    inputs, ops = load_perfbench("inputs"), load_perfbench("ops")
    jobs = inputs.ExtensionJobs(ROOT, seed)
    real = complexes.potential_memo
    lookers = [m for name, m in sys.modules.items()
               if name.startswith("wpoisson.") and getattr(m, "potential_memo", None) is real]
    counts = [0, 0]

    def spy(omega):
        record = real(omega)
        counts[record.omega is not omega] += 1
        return record

    done = 0
    for module in lookers:
        module.potential_memo = spy
    try:
        for k in range(JOBS):
            real.cache_clear()
            for op in jobs.job(k):
                ops.run(wpoisson, op)
                done += 1
    finally:
        for module in lookers:
            module.potential_memo = real
        real.cache_clear()
    return done, sum(counts), counts[1]


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    done, lookups, by_value = record_lookups(seed)
    print("potential_memo lookups over the seed-%d extension jobs (%d operations): %d, "
          "%d of them with a potential other than the record's own" % (seed, done, lookups, by_value))
