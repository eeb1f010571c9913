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

__version__ = "0.1.0"
