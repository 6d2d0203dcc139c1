"""A deterministic work count of the linear-algebra layer: the matrices
that ``complexes`` assembles, by kind, over a cold ``catalog verify`` of
all 125 entries at the default bound 3n+12.  A matrix's kind comes from the
function that asked for it, looked up through ``complexes._t_block``, the
one builder of B_e, T_d and [T_d | c], to its caller, and from its numbers
of source and target slices.

Print the count from the repository root with

    PYTHONPATH=src python tests/matrix_count.py
"""

import sys
from collections import Counter

from wpoisson import catalog, complexes

# (caller, source slices, target slices) -> kind.  T and B share one table,
# and a B_e whose u degree is negative keeps its empty u slice
KINDS = {
    ("sealed_k1_dims", 4, 2): "B",
    ("_ozone_rank", 4, 2): "T",
    ("derivation_kernel", 4, 2): "T",
    ("_cochain_rank", 5, 2): "T|c",
    ("derivation_kernel", 5, 2): "T|c",
    ("koszul_matrix", 3, 1): "K1",
    ("koszul_matrix", 3, 3): "K2",
    ("_d0_matrix", 1, 3): "d0",
}


def requester(frame):
    """the name of the function that asked for the matrix whose ``assemble``
    call ``frame`` made, looking through ``_t_block`` to its caller"""
    if frame.f_code.co_name == "_t_block":
        frame = frame.f_back
    return frame.f_code.co_name


def clear_memos():
    """empty every memo in complexes, so that a run assembles each matrix it
    ranks instead of finding the rank left by an earlier run"""
    for value in vars(complexes).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def matrix_counts(bound=None):
    """{kind: matrices} assembled by ``catalog.verify_all`` at ``bound``, by
    default 3n+12 for each entry, from empty memos"""
    counts = Counter()
    real = complexes.assemble

    def spy(weights, src_degs, tgt_degs, table):
        counts[KINDS[requester(sys._getframe(1)), len(src_degs), len(tgt_degs)]] += 1
        return real(weights, src_degs, tgt_degs, table)

    clear_memos()
    complexes.assemble = spy
    try:
        catalog.verify_all(bound)
    finally:
        complexes.assemble = real
    return counts


if __name__ == "__main__":
    counts = matrix_counts()
    print("matrices assembled by catalog verify at 3n+12: %d (%s)" % (
        sum(counts.values()), ", ".join("%s %d" % kv for kv in sorted(counts.items()))))
