"""Finite representer basis in which the linear-link minimizer is exact.

With the linear link the minimizer of the penalized objective lies in a
finite-dimensional subspace spanned, per driver channel, by

* the m polynomials phi_1..phi_m of the polynomial subspace,
* one history atom per event: h_i(u) = sum_{sigma < tau_i} dZ R1(tau_i - sigma, u),
* one integral atom f(u) = int_0^t Y_s sum_{sigma < s} dZ R1(s - sigma, u) ds,

for d(m + N + 1) basis functions in total given N events.  The h and f atoms
are the smooth parts of the event and compensator design functionals; events
with no strictly earlier jumps on a channel contribute identically zero atoms,
which are kept in place (flagged) so indexing stays uniform.

The atom constructors live in ``likelihood``, whose gradient is built from
the same atoms, and are re-exported here.  They also serve general links:
feeding per-node quadrature weights to ``build_f_atoms`` yields the
pointwise-quadrature integral atom used by dictionary descent, and
``part="r"`` requests full-kernel variants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .filters import Atom, FilterFunction, full_gram, h0_poly, h1_gram
from .kernel import SobolevKernel
from .likelihood import Objective, build_f_atoms, build_h_atoms

__all__ = ["RepresenterBasis", "assemble", "build_f_atoms", "build_h_atoms"]


@dataclass(frozen=True)
class RepresenterBasis:
    """Representer atoms with every matrix the finite-dimensional solve needs.

    Coefficient vectors c live on ``atoms``; the induced filter has event
    predictors ``design @ c``, exact compensator ``comp @ c``, penalty
    ``c @ gram_p @ c`` and squared norm ``c @ gram @ c``.
    """

    kernel: SobolevKernel
    n_channels: int
    atoms: tuple[Atom, ...]
    h0_slice: slice
    h_slice: slice
    f_slice: slice
    design: np.ndarray  # (N, dim) predictor of each atom at each event
    comp: np.ndarray  # (dim,) exact integral int Y X(atom) ds
    gram: np.ndarray  # (dim, dim) full Sobolev inner products
    gram_p: np.ndarray  # (dim, dim) H1 (penalty) inner products
    zero_mask: np.ndarray  # (dim,) True where the atom is identically zero

    @property
    def dim(self) -> int:
        return len(self.atoms)

    def filter_from(self, coefficients: np.ndarray) -> FilterFunction:
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.shape != (self.dim,):
            raise ConfigError(f"expected {self.dim} coefficients")
        return FilterFunction(self.kernel, self.n_channels, self.atoms, coefficients)


def assemble(kernel: SobolevKernel, obj: Objective) -> RepresenterBasis:
    """Build the representer basis and its design/Gram matrices for a dataset."""
    d = obj.n_channels
    m = kernel.m
    poly = [h0_poly(kernel, j, k) for j in range(d) for k in range(1, m + 1)]
    h_atoms = build_h_atoms(kernel, obj.events, obj.drivers, part="r1")
    f_atoms = build_f_atoms(kernel, obj, part="r1")
    atoms = poly + h_atoms + f_atoms

    n_poly = len(poly)
    n_h = len(h_atoms)
    design = (
        np.column_stack([obj.event_column(kernel, a) for a in atoms])
        if len(obj.events)
        else np.zeros((0, len(atoms)))
    )
    comp = np.array([obj.comp_row(kernel, a) for a in atoms])
    zero_mask = np.array([a.is_zero for a in atoms])
    return RepresenterBasis(
        kernel=kernel,
        n_channels=d,
        atoms=tuple(atoms),
        h0_slice=slice(0, n_poly),
        h_slice=slice(n_poly, n_poly + n_h),
        f_slice=slice(n_poly + n_h, len(atoms)),
        design=design,
        comp=comp,
        gram=full_gram(atoms),
        gram_p=h1_gram(atoms),
        zero_mask=zero_mask,
    )
