"""Compile deterministic local-model constraints from perfect correlations.

A deterministic local account of the experiments assigns, for one fixed pair
of hidden-variable values (one "context"), a definite +-1 value to

  A(phi1)        outcome of photon a's polarizer,
  D(phi4)        outcome of photon d's polarizer,
  F(phi2, phi3)  polarization product announced by the (b, c) analyzer,
  G(phi1, phi4)  polarization product of an (a, d) analyzer,

each a function only of the angles its photons encountered.  Every certainty
predicted by the quantum state then becomes a parity constraint: the product
of the involved unknowns must equal a fixed sign.  The sector parity kappa is
a constant of the context, so one ConstraintSet is always compiled for a
single kappa, and the set carries that kappa and the context's label.

Every constraint is one rule of _RULE_TERMS at one setting: the factorization
too, as the rule F * A * D at the equal-angle setting (x, x, y, y).  The
rules, the angle grid and ConstraintSet are defined in proof; each name that
moved there is still bound here.  The compilers take their settings as one
(N, 4) array-like of angles in radians, such as the array
serialize.load_settings returns or a list of 4-angle rows, checked by
quantum._angle_rows; contradiction_settings returns its two settings as such
an array.
"""

from __future__ import annotations

from itertools import chain, repeat
from math import pi

import numpy as np

from .correlations import DEFAULT_ANGLE_TOL, MAX_COMPILE_TOL, _predicted_product
from .proof import (
    ANGLE_QUANTUM,
    RULE_BELL_POLARIZATION,
    RULE_DOUBLE_BELL,
    RULE_FACTORED_PRODUCT,
    RULE_FACTORIZATION,
    TAG_ARITY,
    _MAX_NUMBER,
    _RULE_TERMS,
    ConstraintSet,
    ParityConstraint,
    _kappa,
    quantize_angle,
)
from .quantum import _angle_rows, _zetas

__all__ = [
    "ANGLE_QUANTUM",
    "ParityConstraint",
    "ConstraintSet",
    "RULE_BELL_POLARIZATION",
    "RULE_DOUBLE_BELL",
    "RULE_FACTORIZATION",
    "RULE_FACTORED_PRODUCT",
    "compile_bell_polarization",
    "compile_double_bell",
    "compile_factored",
    "apply_factorization",
    "contradiction_settings",
    "contradiction_instance",
]


def _compile(rule: str, settings, cs: ConstraintSet, tol: float) -> ConstraintSet:
    """Fill cs with one constraint per setting whose sector phase is special:
    the product of the rule's unknowns equals +1 at zeta in {0, +-pi} and -1
    at zeta = +-pi/2.  Generic settings emit nothing.  Returns cs.

    One array pass over the (N, 4) array-like of settings: one _zetas call
    gives every sector phase, one _predicted_product call classifies them
    and one quantize_angle call puts the kept settings on the grid, whose
    unknowns register term by term through one dict."""
    if not 0 < tol <= MAX_COMPILE_TOL:
        raise ValueError(
            f"tol must be > 0 and <= {MAX_COMPILE_TOL!r}, the widest phase window whose"
            f" constraints stay certain, got {tol}"
        )
    phis = _angle_rows(settings)
    zetas = _zetas(phis, (cs.kappa,))[0]
    signs = _predicted_product(zetas, tol)
    kept = signs != 0
    phis = phis[kept]
    grid = quantize_angle(phis).T.tolist()
    terms = [zip(repeat(tag), zip(*(grid[i] for i in slots))) for tag, slots in _RULE_TERMS[rule]]
    found = iter(cs._register(chain.from_iterable(zip(*terms))))
    var_ids = list(zip(*[found] * len(terms)))
    angles = list(map(tuple, phis.tolist()))
    cs._extend(var_ids, signs[kept].tolist(), angles, zetas[kept].tolist(), [rule] * len(phis))
    return cs


def compile_bell_polarization(
    settings,
    kappa: int,
    tol: float = DEFAULT_ANGLE_TOL,
    label: str = "",
) -> ConstraintSet:
    """Constraints A(phi1) * F(phi2, phi3) * D(phi4) = +-1 from the
    Bell/polarization arrangement.

    The analyzer pair never sees phi1 or phi4, so G plays no role here.
    """
    return _compile(RULE_BELL_POLARIZATION, settings, ConstraintSet(kappa, label), tol)


def compile_double_bell(
    settings,
    kappa: int,
    tol: float = DEFAULT_ANGLE_TOL,
    label: str = "",
) -> ConstraintSet:
    """Constraints F(phi2, phi3) * G(phi1, phi4) = +-1 from the double Bell
    arrangement, same phase rule as compile_bell_polarization."""
    return _compile(RULE_DOUBLE_BELL, settings, ConstraintSet(kappa, label), tol)


def compile_factored(
    settings,
    kappa: int,
    tol: float = DEFAULT_ANGLE_TOL,
    label: str = "",
) -> ConstraintSet:
    """Constraints A(phi1) * A(phi2) * D(phi3) * D(phi4) = +-1: the
    Bell/polarization rule with F already replaced by A * D."""
    return _compile(RULE_FACTORED_PRODUCT, settings, ConstraintSet(kappa, label), tol)


def apply_factorization(cs: ConstraintSet) -> ConstraintSet:
    """Compile the equal-angle certainty of every F unknown F(x, y) of cs, in
    id order, into a copy of cs: the rows F(x, y) * A(x) * D(y) = +1.

    The setting (x, x, y, y) has zeta = 0 in both sectors, so its certainty
    pins F(x, y) = A(x) * D(y) unconditionally; this is what makes the
    compiled systems refutable.  Each row registers F, A, D in that order, so
    F(x, y) keeps its id and A(x), D(y) register in the id order of the F
    unknowns.  The input is untouched.
    """
    f_angles = np.reshape([angles for tag, angles in cs.unknowns if tag == "F"], (-1, 2))
    return _compile(RULE_FACTORIZATION, f_angles[:, [0, 0, 1, 1]], cs.copy(), DEFAULT_ANGLE_TOL)


def contradiction_settings(alpha: float, beta: float, kappa: int) -> np.ndarray:
    """The two settings whose certainties clash in the given sector, as the
    rows of a (2, 4) array: zeta_kappa = 0 at the first, -pi/2 at the second.

    Both use phi1 = alpha, phi2 = alpha + pi/4; swapping pi/4 between phi3
    and phi4 moves zeta_kappa between 0 and -pi/2 while involving the same
    four polarizer angles.  Raises ValueError if rounding ate the pi/4 offsets.
    """
    # zeta_+1 = 0 at plus, zeta_-1 = 0 at minus
    plus = (alpha, alpha + pi / 4, beta + pi / 4, beta)
    minus = (alpha, alpha + pi / 4, beta, beta + pi / 4)
    rows = _angle_rows((plus, minus) if _kappa(kappa) == +1 else (minus, plus))
    if _predicted_product(_zetas(rows, (kappa,))[0], DEFAULT_ANGLE_TOL).tolist() != [+1, -1]:
        raise ValueError(
            f"at alpha={alpha!r}, beta={beta!r} rad the contradiction settings"
            " lose their pi/4 offsets in rounding; use angles of smaller magnitude"
        )
    return rows


def contradiction_instance(alpha: float, beta: float, kappa: int) -> ConstraintSet:
    """Two factored constraints over A(alpha), A(alpha + pi/4), D(beta),
    D(beta + pi/4) whose required signs differ: the unsatisfiable core.
    Raises contradiction_settings' ValueError where it does."""
    label = f"contradiction(alpha={alpha!r}, beta={beta!r})"
    return compile_factored(contradiction_settings(alpha, beta, kappa), kappa, label=label)
