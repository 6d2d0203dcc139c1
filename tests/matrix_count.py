"""A deterministic work count of the linear-algebra layer: the matrices
that ``complexes`` assembles, by kind, over a cold ``catalog verify`` of
all 125 entries at the default bound 3n+12, and at n+6, the bound of the
benchmark's ``catalog`` workload.  A matrix's kind comes from the
function that asked for it and from its numbers of source and target
slices.  Every Hamiltonian block, the sealed block [O A_e | O g_i A_u |
H | H'] and [H | H'] alone, is of kind H; the sealed block gives rank K1
too, so a catalog pass assembles no K1 matrix, and the Casimirs come
from the primitive root of the potential, so it assembles no d0 matrix.
Beside the matrices it prints the calls of ``complexes._root`` over each
pass, the roots of a potential tried while its record finds the primitive
one, and the lookups of the memo record ``complexes.potential_memo``, hits
and misses, which count the public calls into the record.

Print the counts from the repository root with

    PYTHONPATH=src python tests/matrix_count.py
"""

import sys
from collections import Counter

from wpoisson import catalog, complexes

# (caller, source slices, target slices) -> kind
KINDS = {
    ("sealed_ranks", 4, 1): "H",
    ("hamiltonian_rank", 2, 1): "H",
    ("hamiltonian_rank", 3, 1): "H|c",
    ("derivation_kernel", 3, 2): "T",
    ("derivation_kernel", 4, 2): "T|c",
    ("koszul_matrix", 3, 1): "K1",
    ("koszul_matrix", 3, 3): "K2",
}


def requester(frame):
    """the name of the function that asked for the matrix whose ``assemble``
    call ``frame`` made"""
    return frame.f_code.co_name


def memo_lookups():
    """the lookups of ``complexes.potential_memo`` since its last clear"""
    info = complexes.potential_memo.cache_info()
    return info.hits + info.misses


def matrix_counts(bound_of=complexes.default_bound):
    """({kind: matrices} assembled, root attempts) by ``catalog.verify_entry``
    on every entry at the bound ``bound_of(n)``, by default 3n+12, from
    empty memos"""
    counts, attempts = Counter(), []
    real, real_root = complexes.assemble, complexes._root

    def spy(weights, src_degs, tgt_degs, table):
        counts[KINDS[requester(sys._getframe(1)), len(src_degs), len(tgt_degs)]] += 1
        return real(weights, src_degs, tgt_degs, table)

    def root_spy(p, r):
        attempts.append(r)
        return real_root(p, r)

    complexes.potential_memo.cache_clear()
    complexes.assemble, complexes._root = spy, root_spy
    try:
        for entry in catalog.entries():
            catalog.verify_entry(entry, bound_of(entry.degree))
    finally:
        complexes.assemble, complexes._root = real, real_root
    return counts, len(attempts)


if __name__ == "__main__":
    for label, bound_of in (("3n+12", complexes.default_bound), ("n+6", lambda n: n + 6)):
        counts, attempts = matrix_counts(bound_of)
        counts.update({kind: 0 for kind in set(KINDS.values())})
        print("matrices assembled by catalog verify at %s: %d (%s)" % (
            label, sum(counts.values()),
            ", ".join("%s %d" % kv for kv in sorted(counts.items()))))
        print("root attempts of catalog verify at %s: %d" % (label, attempts))
        print("potential_memo lookups of catalog verify at %s: %d" % (label, memo_lookups()))
