"""Poisson structures on the weighted polynomial ring in x, y, z: the bracket
defined by a homogeneous potential, Jacobi and unimodularity diagnostics,
Euler / Hamiltonian / modular derivations (each a PolyVector of its values
on x, y, z), graded twists, the rigidity number, and verification of
(quotient) automorphisms."""

from __future__ import annotations

from .complexes import cochain_matrix, ozone_dim, vector_to_polys
from .jacobian import normal_form
from .linalg import kernel_basis
from .ring import (
    Polynomial,
    PolyVector,
    QQ,
    RingError,
    Weights,
    check_potential,
    count_monomials,
    div,
    gradient,
)


class PoissonStructure:
    """bivector on the weighted ring, recorded by the three generator brackets
    {x,y}, {y,z}, {z,x}; arbitrary triples are representable, so the Jacobi
    identity is a property to check, not an invariant"""

    __slots__ = ("weights", "field", "pxy", "pyz", "pzx", "potential")

    def __init__(self, pxy: Polynomial, pyz: Polynomial, pzx: Polynomial, potential=None):
        pxy._check_compatible(pyz)
        pxy._check_compatible(pzx)
        if potential is not None:
            pxy._check_compatible(potential)
        self.weights = pxy.weights
        self.field = pxy.field
        self.pxy = pxy
        self.pyz = pyz
        self.pzx = pzx
        self.potential = potential

    def variables(self):
        return tuple(
            Polynomial.variable(self.weights, v, self.field) for v in ("x", "y", "z")
        )

    def __eq__(self, other):
        if not isinstance(other, PoissonStructure):
            return NotImplemented
        return (
            self.pxy == other.pxy
            and self.pyz == other.pyz
            and self.pzx == other.pzx
            and self.potential == other.potential
        )

    def __hash__(self):
        return hash((self.pxy, self.pyz, self.pzx, self.potential))

    def __repr__(self):
        return "PoissonStructure(pxy=%r, pyz=%r, pzx=%r)" % (self.pxy, self.pyz, self.pzx)


def from_potential(omega: Polynomial) -> PoissonStructure:
    """bracket defined by a nonzero homogeneous potential of positive degree:
    {x,y} = dO/dz, {y,z} = dO/dx, {z,x} = dO/dy"""
    check_potential(omega)
    return PoissonStructure(omega.partial(2), omega.partial(0), omega.partial(1), omega)


def bracket(s: PoissonStructure, f: Polynomial, g: Polynomial) -> Polynomial:
    """biderivation extension of the generator brackets"""
    fx, fy, fz = gradient(f).comps
    gx, gy, gz = gradient(g).comps
    return (
        (fx * gy - fy * gx) * s.pxy
        + (fy * gz - fz * gy) * s.pyz
        + (fz * gx - fx * gz) * s.pzx
    )


def jacobiator(s: PoissonStructure) -> Polynomial:
    """{x,{y,z}} + {y,{z,x}} + {z,{x,y}}; zero exactly when the bracket
    satisfies the Jacobi identity"""
    x, y, z = s.variables()
    return bracket(s, x, s.pyz) + bracket(s, y, s.pzx) + bracket(s, z, s.pxy)


def hamiltonian(s: PoissonStructure, f: Polynomial) -> PolyVector:
    """the inner derivation {f, -}, by its values on x, y, z"""
    x, y, z = s.variables()
    return PolyVector(bracket(s, f, x), bracket(s, f, y), bracket(s, f, z))


def euler_derivation(weights: Weights, field=QQ) -> PolyVector:
    """the grading derivation: x -> a x, y -> b y, z -> c z"""
    a, b, c = weights.tuple
    return PolyVector(
        Polynomial.variable(weights, "x", field) * a,
        Polynomial.variable(weights, "y", field) * b,
        Polynomial.variable(weights, "z", field) * c,
    )


def modular_derivation(s: PoissonStructure) -> PolyVector:
    """obstruction to unimodularity: u -> -div({u, -}); zero for every
    potential-defined structure by equality of mixed partials"""
    x, y, z = s.variables()
    return PolyVector(
        -div(hamiltonian(s, x)),
        -div(hamiltonian(s, y)),
        -div(hamiltonian(s, z)),
    )


def graded_twist(s: PoissonStructure, delta: PolyVector):
    """twist the bracket by the wedge of the Euler derivation with a degree-0
    derivation delta, given by its values on x, y, z: {f,g} + E(f) delta(g)
    - delta(f) E(g).  Each nonzero value must be homogeneous of the weight of
    its variable.  Returns the twisted structure together with a flag telling
    whether it still satisfies the Jacobi identity."""
    a, b, c = s.weights.tuple
    for comp, w in zip(delta.comps, (a, b, c)):
        if not comp.is_zero() and not (comp.is_homogeneous() and comp.homogeneous_degree() == w):
            raise RingError("twisting derivation must be homogeneous of degree 0")
    x, y, z = s.variables()
    dx, dy, dz = delta.comps
    pxy = s.pxy + (a * x) * dy - dx * (b * y)
    pyz = s.pyz + (b * y) * dz - dy * (c * z)
    pzx = s.pzx + (c * z) * dx - dz * (a * x)
    twisted = PoissonStructure(pxy, pyz, pzx)
    return twisted, jacobiator(twisted).is_zero()


def graded_derivation_space(s: PoissonStructure, d: int):
    """exact basis of the homogeneous degree-d derivations commuting with the
    bracket, for a potential-tagged structure: kernel of the condition
    div(delta) grad(O) = grad(delta(O)) on the finite coefficient space"""
    if s.potential is None:
        raise RingError("operation needs a structure tagged with its potential")
    omega = s.potential
    weights = s.weights
    a, b, c = weights.tuple
    if all(count_monomials(weights, d + t) == 0 for t in (a, b, c)):
        return []
    matrix = cochain_matrix(omega, 1, d)
    basis = []
    for coords in kernel_basis(matrix):
        comps = vector_to_polys(weights, s.field, [d + a, d + b, d + c], coords)
        basis.append(PolyVector(*comps))
    return basis


def rgt(omega: Polynomial) -> int:
    """rigidity of the graded twisting: minus the dimension of the space of
    degree-0 derivations that are divergence-free and kill the potential,
    which is the ozone space in degree 0"""
    check_potential(omega, "rigidity needs a potential of degree a+b+c")
    return -ozone_dim(omega, 0)


def negative_degree_pd_dims(omega: Polynomial):
    """dimensions of the bracket-compatible derivations in each negative
    degree down to -max(a,b,c), below which all generator values vanish"""
    check_potential(omega, "diagnostic needs a potential of degree a+b+c")
    weights = omega.weights
    s = from_potential(omega)
    out = {}
    for d in range(-max(weights.tuple), 0):
        out[d] = len(graded_derivation_space(s, d))
    return out


def jacobian_determinant(images) -> Polynomial:
    """determinant of the Jacobian matrix of three polynomial images"""
    px, py, pz = images
    j = [[p.partial(i) for i in range(3)] for p in (px, py, pz)]
    return (
        j[0][0] * (j[1][1] * j[2][2] - j[1][2] * j[2][1])
        - j[0][1] * (j[1][0] * j[2][2] - j[1][2] * j[2][0])
        + j[0][2] * (j[1][0] * j[2][1] - j[1][1] * j[2][0])
    )


def verify_automorphism(omega: Polynomial, phi) -> bool:
    """check the compatibility law of a candidate automorphism given by its
    generator images: the potential transforms by the Jacobian determinant"""
    px, py, pz = phi
    return omega.substitute((px, py, pz)) == jacobian_determinant((px, py, pz)) * omega


def _reduces_to_zero(f: Polynomial, modulus: Polynomial) -> bool:
    return normal_form(f, [modulus]).is_zero()


def verify_quotient_automorphism(omega: Polynomial, xi, phi, psi) -> bool:
    """check a candidate automorphism of the quotient by (potential - xi):
    the potential is fixed, the bracket is respected, and psi inverts it,
    all modulo the principal ideal"""
    field = omega.field
    xi = field.coerce(xi)
    modulus = omega - Polynomial.constant(omega.weights, xi, field)
    if modulus.is_zero():
        raise RingError("potential minus the scalar is zero")
    phi = tuple(phi)
    psi = tuple(psi)
    s = from_potential(omega)
    x, y, z = s.variables()

    if not _reduces_to_zero(omega.substitute(phi) - xi, modulus):
        return False

    pairs = ((x, y, s.pxy), (y, z, s.pyz), (z, x, s.pzx))
    for u, v, puv in pairs:
        lhs = puv.substitute(phi)
        rhs = bracket(s, u.substitute(phi), v.substitute(phi))
        if not _reduces_to_zero(lhs - rhs, modulus):
            return False

    for gen, psi_img in zip((x, y, z), psi):
        if not _reduces_to_zero(psi_img.substitute(phi) - gen, modulus):
            return False
    return True
