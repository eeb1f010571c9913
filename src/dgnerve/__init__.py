"""Exact-arithmetic dg-categories, their coherent nerves, and horn filling.

The package provides:

* :mod:`dgnerve.rings` — rationals and square-zero extensions k ⊕ I;
* :mod:`dgnerve.glin` — exact linear solving over those rings;
* :mod:`dgnerve.dgcat` — finite dg-categories as structure-constant data,
  axioms checks, complex categories, opposites, equivalence witnesses;
* :mod:`dgnerve.mc` — Maurer-Cartan elements and differential twisting;
* :mod:`dgnerve.nerve` — nerve simplices, cochains, calibrated signs;
* :mod:`dgnerve.horn` — obstructions, horn fillers, square-zero lifting,
  and randomized horn-extension sweeps;
* :mod:`dgnerve.fixtures`, :mod:`dgnerve.laws`, :mod:`dgnerve.jsonio`,
  :mod:`dgnerve.cli` — test categories, law batteries, document formats,
  and the ``dgnerve`` command.
"""

from .rings import (NotAUnit, RingElement, SquareZeroRing, RATIONALS,
                    invert, reduce_mod_ideal)
from .glin import NoSolution, nullspace, solve_linear
from .dgcat import (ChainComplex, DgCategory, InvalidComplex, Morphism,
                    NotEquivalence, Violation, Witness, check_axioms,
                    complex_from_dense, find_equivalence_witness,
                    make_complex_category, opposite, random_complex,
                    reset_witness_calls, witness_call_count)
from .mc import (InvalidMCObject, check_mc, mc_defect, promote_morphism,
                 random_mc_element, reduce_category, reduce_morphism,
                 tensor_with_ring, twist)
from .nerve import (NerveCochain, NerveSimplex, PINNED, SignPattern,
                    all_sign_patterns, cells_cochain, cochain_compose,
                    cochain_differential, degeneracy, face,
                    identity_simplex, interval_category, required_boundary,
                    validate_simplex, validate_star)
from .horn import (CannotFillOuterHorn, Filler, HornData, HornError,
                   IncompatibleHorn, InvalidReduction, Obstruction,
                   check_gp, check_horn, complete_horn, compute_obstruction,
                   extract_horn, fill_horn, lift_filler,
                   obstruction_violations, opposite_filler, opposite_horn,
                   opposite_simplex, random_horn, random_valid_simplex)

__version__ = "0.1.0"
