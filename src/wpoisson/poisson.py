"""Poisson structures on the weighted polynomial ring in x, y, z: the bracket
defined by a homogeneous potential, Jacobi and unimodularity diagnostics,
Euler / Hamiltonian / modular derivations (each a PolyVector of its values
on x, y, z), graded twists, the rigidity number, and verification of
Poisson automorphisms of A = k[x,y,z] and of A/(O - xi).

A structure is kept as the vector field P = ({y,z}, {z,x}, {x,y}), which is
grad(O) for the bracket of a potential O, and every diagnostic is a vector
identity on P.  By the biderivation rule {x_i, h} = (e_i x grad h) . P, so:
  - {f, g} = sum_i d_i(f) {x_i, g} = P . (grad f x grad g);
  - the Hamiltonian {f, -} takes x_i to P . (grad f x e_i) = e_i . (P x
    grad f), so it is P x grad f;
  - the jacobiator sum_i {x_i, P_i} is P . sum_i e_i x grad P_i = -P . curl P;
  - the modular field takes x_i to -div(P x e_i) = -e_i . curl P, as
    div(u x v) = v . curl u - u . curl v, so it is -curl P;
  - the twist by E ^ delta adds E(x_i) delta(x_j) - delta(x_i) E(x_j) to
    {x_i, x_j}, so it is P + E x delta;
  - the Jacobian determinant of (p, q, r) is grad p . (grad q x grad r).
For P = grad(O), curl P = 0: the jacobiator and the modular field vanish.

A map phi, given by its generator images, is a Poisson map when it keeps
the generator brackets, {phi(x_{i+1}), phi(x_{i+2})} = phi(P_i) with
indices mod 3; by the biderivation rule it keeps every bracket.  On A an
automorphism's Jacobian J is a unit, as (J(psi) o phi) J = 1 for its
inverse psi, and the units of A are the nonzero constants: J in k*.  Then
the chain rule turns the bracket law into grad(O o phi) = J grad(O), which
O o phi = J O neither implies nor follows from: x -> x*y is no automorphism
and takes x*y*z to y x*y*z; z -> z+1 keeps the brackets of x*y+z and moves
it.  On A/(O - xi) every identity is read modulo O - xi."""

from __future__ import annotations

import itertools

from .complexes import derivation_kernel, ozone_dim, potential_memo
from .jacobian import normal_form
from .linalg import vector_to_polys
from .ring import (
    Polynomial,
    PolyVector,
    QQ,
    RingError,
    Weights,
    check_potential,
    cross,
    curl,
    dot,
    gradient,
    rational_copy,
)


class PoissonStructure:
    """bivector on the weighted ring, kept as the vector field P = ({y,z},
    {z,x}, {x,y}) in ``bivector``; arbitrary triples are representable, so
    the Jacobi identity is a property to check, not an invariant.  A
    potential tag O must give the bracket: grad(O) = P."""

    __slots__ = ("weights", "field", "bivector", "potential")

    def __init__(self, pxy: Polynomial, pyz: Polynomial, pzx: Polynomial, potential=None):
        self.bivector = PolyVector(pyz, pzx, pxy)
        if potential is not None and potential_memo(potential).gradient != self.bivector:
            raise RingError("potential tag does not match the bracket: grad(O) != P")
        self.weights = pxy.weights
        self.field = pxy.field
        self.potential = potential

    @property
    def pxy(self):
        return self.bivector.f3

    @property
    def pyz(self):
        return self.bivector.f1

    @property
    def pzx(self):
        return self.bivector.f2

    def variables(self):
        return tuple(
            Polynomial.variable(self.weights, v, self.field) for v in ("x", "y", "z")
        )

    def __eq__(self, other):
        if not isinstance(other, PoissonStructure):
            return NotImplemented
        return self.bivector == other.bivector and self.potential == other.potential

    def __hash__(self):
        return hash((self.bivector, self.potential))

    def __repr__(self):
        return "PoissonStructure(pxy=%r, pyz=%r, pzx=%r)" % (self.pxy, self.pyz, self.pzx)


def from_potential(omega: Polynomial) -> PoissonStructure:
    """bracket defined by a nonzero homogeneous potential of positive degree:
    {x,y} = dO/dz, {y,z} = dO/dx, {z,x} = dO/dy.  The tag is the record's
    own potential, so the structure's lookups find the record by identity"""
    check_potential(omega)
    memo = potential_memo(omega)
    g = memo.gradient
    return PoissonStructure(g.f3, g.f1, g.f2, memo.omega)


def bracket(s: PoissonStructure, f: Polynomial, g: Polynomial) -> Polynomial:
    """biderivation extension of the generator brackets: P . (grad f x grad g)"""
    return dot(s.bivector, cross(gradient(f), gradient(g)))


def jacobiator(s: PoissonStructure) -> Polynomial:
    """{x,{y,z}} + {y,{z,x}} + {z,{x,y}} = -P . curl P; zero exactly when the
    bracket satisfies the Jacobi identity"""
    return -dot(s.bivector, curl(s.bivector))


def hamiltonian(s: PoissonStructure, f: Polynomial) -> PolyVector:
    """the inner derivation {f, -}, by its values on x, y, z: P x grad f"""
    return cross(s.bivector, gradient(f))


def euler_derivation(weights: Weights, field=QQ) -> PolyVector:
    """the grading derivation: x -> a x, y -> b y, z -> c z"""
    a, b, c = weights.tuple
    return PolyVector(
        Polynomial.variable(weights, "x", field) * a,
        Polynomial.variable(weights, "y", field) * b,
        Polynomial.variable(weights, "z", field) * c,
    )


def modular_derivation(s: PoissonStructure) -> PolyVector:
    """obstruction to unimodularity: u -> -div({u, -}), which is -curl P;
    zero for every potential-defined structure by equality of mixed partials"""
    return -curl(s.bivector)


def graded_twist(s: PoissonStructure, delta: PolyVector):
    """twist the bracket by the wedge of the Euler derivation E with a degree-0
    derivation delta, given by its values on x, y, z: {f,g} + E(f) delta(g)
    - delta(f) E(g), whose bivector is P + E x delta.  Each nonzero value must
    be homogeneous of the weight of its variable.  Returns the twisted
    structure together with a flag telling whether it still satisfies the
    Jacobi identity."""
    for comp, w in zip(delta.comps, s.weights.tuple):
        if not comp.is_zero() and not (comp.is_homogeneous() and comp.homogeneous_degree() == w):
            raise RingError("twisting derivation must be homogeneous of degree 0")
    pyz, pzx, pxy = (s.bivector + cross(euler_derivation(s.weights, s.field), delta)).comps
    twisted = PoissonStructure(pxy, pyz, pzx)
    return twisted, jacobiator(twisted).is_zero()


def graded_derivation_space(s: PoissonStructure, d: int):
    """exact basis of the homogeneous degree-d derivations commuting with the
    bracket, for a potential-tagged structure: the kernel normal form of d1,
    the condition div(delta) grad(O) = grad(delta(O)), which
    ``complexes.derivation_kernel`` reads off T_d = (delta . grad(O) ;
    div delta) with no d1 matrix.  A degree whose map is over budget is
    refused with RingError."""
    if s.potential is None:
        raise RingError("operation needs a structure tagged with its potential")
    degs = [d + w for w in s.weights.tuple]
    return [PolyVector(*vector_to_polys(s.weights, s.field, degs, coords))
            for coords in derivation_kernel(s.potential, d)]


def rgt(omega: Polynomial) -> int:
    """rigidity of the graded twisting: minus the dimension of the space of
    degree-0 derivations that are divergence-free and kill the potential,
    which is the ozone space in degree 0"""
    check_potential(omega, "rigidity needs a potential of degree a+b+c")
    return -ozone_dim(omega, 0)


def jacobian_determinant(images) -> Polynomial:
    """determinant of the Jacobian matrix of three polynomial images: the
    triple product grad p . (grad q x grad r)"""
    p, q, r = images
    return dot(gradient(p), cross(gradient(q), gradient(r)))


def verify_automorphism(omega: Polynomial, phi, psi=None, xi=None) -> bool:
    """whether phi, by its generator images, is a Poisson automorphism of A
    or, given xi, of A/(O - xi) (module docstring): mod I = 0 or (O - xi),
    phi(I) lies in I, {phi(x_{i+1}), phi(x_{i+2})} = phi(P_i), and psi o phi
    = id when psi is given; on A also J(phi) in k*.  The quotient needs psi.
    Input with no s-part is checked over Q, where each identity reads the same."""
    check_potential(omega)
    if xi is not None and psi is None:
        raise RingError("quotient automorphism check needs the inverse map")
    polys = [omega if xi is None else omega - omega.field.coerce(xi), *phi, *(psi or ())]
    rational = [rational_copy(p) for p in polys]
    # gen: O - xi, or O on A
    gen, *images = polys if any(p is None for p in rational) else rational
    phi, psi = images[:3], images[3:]
    ideal = [] if xi is None else [gen]
    # {f, g} = P . (grad f x grad g), and J(phi) = grad phi_0 . cofactors[0]
    grads = [gradient(f) for f in phi]
    cofactors = [cross(grads[i - 2], grads[i - 1]) for i in range(3)]
    if xi is None and dot(grads[0], cofactors[0]).degree() != 0:  # J not in k*
        return False
    p = gradient(gen)  # grad(O - xi) = P, P_i = {x_{i+1}, x_{i+2}}, indices mod 3
    residues = itertools.chain(
        (g.substitute(phi) for g in ideal),
        (dot(p, c) - p_i.substitute(phi) for c, p_i in zip(cofactors, p.comps)),
        (img.substitute(phi) - Polynomial.variable(gen.weights, v, gen.field)
         for img, v in zip(psi, "xyz")))
    return all(normal_form(r, ideal).is_zero() for r in residues)
