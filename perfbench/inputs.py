"""Seeded job lists for the three workloads.

Nothing here imports the package under test: ``run.py`` builds every input
as text from the seed, and the worker only ever receives those inputs.  A
job is the unit one cold worker runs; job ``k`` of a seed is the same on
every run.
"""

import random
from fractions import Fraction

# weight triples of the package's randomized property suites
WEIGHT_POOL = [(1, 1, 1), (1, 1, 2), (1, 2, 3), (1, 2, 2), (2, 3, 5), (1, 1, 3)]
CATALOG_FILE = "src/wpoisson/data/catalog.txt"
# a pass over the catalog is dealt over this many cold workers
CATALOG_JOBS_PER_PASS = 12
# per-operation time budget of the groebner workload, in reference seconds.
# An operation past it is stopped: it counts in the time at the budget, but
# neither as verified nor as failed, because whether it ends just before or
# just after the cut depends on the machine's speed (see NOTE.md).
GROEBNER_BUDGET_S = 1.0
# Raw seconds one job (one catalog pass) takes on the machine the bounds
# were set on (2 cores, Python 3.11), set-up and checks included.  A run
# makes seconds / this many, at least one: a number fixed before it starts.
CATALOG_PASS_SECONDS = 33.0
GROEBNER_JOB_SECONDS = 11.0
EXTENSION_JOB_SECONDS = 9.5
COEFFS = [Fraction(c) for c in (1, 2, 3, 5, -1, -2)] + [Fraction(1, 2), Fraction(-3, 2)]

CUBIC = {"weights": (1, 1, 1), "modulus": (1, 1, 1), "template": "x^3+y^3+z^3+(%s)*x*y*z",
         "maps": [("x->y; y->z; z->x", True),
                  ("x->s*x; y->s^2*y; z->z", True),
                  ("x->y; y->x; z->-z", False)]}
QUARTIC = {"weights": (1, 1, 2), "modulus": (1, 0, 1), "template": "x^4+y^4+z^2+(%s)*x*y*z",
           "maps": [("x->s*x; y->-s*y; z->z", True),
                    ("x->-x; y->-y; z->z", True),
                    ("x->y; y->x; z->z", False)]}


def monomials(weights, d):
    """exponent triples of weighted degree d, in a fixed order"""
    a, b, c = weights
    out = []
    for i in range(d // a + 1):
        for j in range((d - a * i) // b + 1):
            rest = d - a * i - b * j
            if rest % c == 0:
                out.append((i, j, rest // c))
    return out


def poly_text(terms):
    """text of a polynomial from [(coefficient, exponents)]"""
    parts = []
    for coef, m in terms:
        body = "*".join(v if e == 1 else "%s^%d" % (v, e) for v, e in zip("xyz", m) if e)
        mag = abs(coef)
        text = body if mag == 1 and body else ("%s*%s" % (mag, body) if body else str(mag))
        parts.append(("-" if coef < 0 else "+", text))
    head = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return head + "".join(sign + text for sign, text in parts[1:])


def read_catalog(root):
    """{weight group: [(entry id, weights, type label)]} from the catalog data
    file, read directly so the job lists do not depend on the package"""
    groups = {}
    with open(root / CATALOG_FILE, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split("|")]
            weights = tuple(int(t) for t in parts[1].split(","))
            table = next(t.strip()[6:] for t in parts[10].split(";")
                         if t.strip().startswith("table="))
            groups.setdefault(table, []).append((parts[0], weights, parts[3]))
    return groups


def _count(seconds, unit_seconds):
    return max(1, round(seconds / unit_seconds))


class CatalogJobs:
    """A run replays ``catalog verify`` on every catalog entry, once per
    pass.  Each pass shuffles every weight group by the seed and deals the
    groups, one after another, round robin over CATALOG_JOBS_PER_PASS jobs,
    so each job holds an even share of every group.  The seed decides
    which entries share a cold worker and in which order they run; every
    seed verifies the same entries, so every seed costs the same."""

    def __init__(self, root, seed):
        self.seed = seed
        self.groups = read_catalog(root)

    @staticmethod
    def count(seconds):
        return CATALOG_JOBS_PER_PASS * _count(seconds, CATALOG_PASS_SECONDS)

    def job(self, k):
        npass, slot = divmod(k, CATALOG_JOBS_PER_PASS)
        rng = random.Random("catalog:%d:%d" % (self.seed, npass))
        dealt = []
        for g in sorted(self.groups):
            members = list(self.groups[g])
            rng.shuffle(members)
            dealt += members
        return [{"kind": "catalog", "id": eid, "type": typ, "bound": sum(weights) + 6}
                for eid, weights, typ in dealt[slot::CATALOG_JOBS_PER_PASS]]


class GroebnerJobs:
    """Weighted-homogeneous potentials through the Groebner path.

    A job is a fixed pool of SHAPES monomial supports: for each weight
    triple of WEIGHT_POOL and each term count 2..5, four supports of a
    random degree n..2n (n = a+b+c), drawn once from a constant seed.  The
    run seed draws the coefficients of every potential of every job.
    Generic coefficients give the same leading terms, so a potential's cost
    is set by its support and every job and every seed cost about the same.
    With supports drawn per seed, the 2^k Hilbert-numerator cost made a
    run's time depend on how many wide supports the seed happened to draw."""

    def __init__(self, root, seed):
        self.seed = seed
        shapes = random.Random("groebner-shapes")
        self.shapes = []
        for w in WEIGHT_POOL:
            n = sum(w)
            for terms in (2, 3, 4, 5):
                for _ in range(4):
                    d = shapes.randint(n, 2 * n)
                    basis = monomials(w, d)
                    self.shapes.append((w, d, shapes.sample(basis, min(len(basis), terms))))

    @staticmethod
    def count(seconds):
        return _count(seconds, GROEBNER_JOB_SECONDS)

    def job(self, k):
        rng = random.Random("groebner:%d:%d" % (self.seed, k))
        return [{"kind": "groebner", "weights": list(w), "degree": d,
                 "potential": poly_text([(rng.choice(COEFFS), m) for m in mons]),
                 "budget_s": GROEBNER_BUDGET_S}
                for w, d, mons in self.shapes]


def _cube_is_minus_27(a, b):
    """(a + b*s)^3 == -27 in Q[s]/(s^2+s+1): the singular cubic members"""
    return (a, b) in ((-3, 0), (0, -3), (3, 3))


class ExtensionJobs:
    """A job is four members of two one-parameter families over their
    cyclotomic fields: the cubic x^3+y^3+z^3+l*x*y*z over Q(cube root of 1)
    and the quartic x^4+y^4+z^2+l*x*y*z over Q(i), each once with a
    rational l (so its tables can be checked against Q) and once with an l
    outside Q.  The job shape is fixed; the seed draws the l."""

    def __init__(self, root, seed):
        self.seed = seed

    @staticmethod
    def count(seconds):
        return _count(seconds, EXTENSION_JOB_SECONDS)

    def job(self, k):
        rng = random.Random("extension:%d:%d" % (self.seed, k))
        ops = []
        for fam in (CUBIC, QUARTIC):
            for rational in (True, False):
                ops += self._member(rng, fam, rational)
        return ops

    @staticmethod
    def _member(rng, fam, rational):
        if rational:
            lam = str(Fraction(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]),
                               rng.choice([1, 2, 3])))
        else:
            while True:
                a, b = rng.randint(-3, 3), rng.choice([-3, -2, -1, 1, 2, 3])
                # a singular cubic member has no closed form to check a
                # non-rational table against
                if fam is QUARTIC or not _cube_is_minus_27(a, b):
                    break
            lam = "%d+%d*s" % (a, b) if b > 0 else "%d-%d*s" % (a, -b)
        isolated = fam is QUARTIC or not (rational and Fraction(lam) == -3)
        base = {"kind": "extension", "weights": list(fam["weights"]),
                "modulus": list(fam["modulus"]), "lambda": lam,
                "rational": rational, "isolated": isolated,
                "potential": fam["template"] % lam}
        ops = [dict(base, call="ph_dims", bound=4),
               dict(base, call="koszul_dims", bound=8)]
        # four derivation degrees put the median latency inside one kind of
        # operation rather than on the step between two kinds
        ops += [dict(base, call="graded_derivation_space", degree=d) for d in (0, 1, 2, 3)]
        ops += [dict(base, call="verify_automorphism", map=m, expected=ok)
                for m, ok in fam["maps"]]
        return ops


WORKLOADS = {"catalog": CatalogJobs, "groebner": GroebnerJobs, "extension": ExtensionJobs}
