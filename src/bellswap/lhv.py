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
too, as the rule F * A * D at the equal-angle setting (x, x, y, y).  Only
quantize_angle knows the 1e-9 rad grid: it rounds an unknown's angles to it,
so that equal settings share one unknown.  The compilers take their settings
as one (N, 4) array-like of angles in radians, such as the array
serialize.load_settings returns or a list of 4-angle rows, checked by
quantum._angle_rows; contradiction_settings returns its two settings as such
an array.  A ConstraintSet is its columns, filled only by the compiler, in
one array pass over the settings, and by serialize.constraint_set_from_dict.
An unknown is a (tag code, grid angles) pair of ``unknowns``, the angles its
file entry holds; serialize renders it as text.  ``constraints`` builds
ParityConstraint rows (with their Provenance) from the constraint columns on
each read.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain, islice, repeat
from math import pi

import numpy as np

from .correlations import DEFAULT_ANGLE_TOL, MAX_COMPILE_TOL, _kappa, _predicted_product
from .quantum import _angle_rows, _zetas

__all__ = [
    "ANGLE_QUANTUM",
    "Provenance",
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

#: Canonicalization grid of an unknown's angles (radians per step).
ANGLE_QUANTUM = 1e-9

#: Largest magnitude whose grid angle is a finite float: the files' bound.
_MAX_NUMBER = sys.float_info.max * ANGLE_QUANTUM

# Rule tags recorded in constraint provenance.
RULE_BELL_POLARIZATION = "afd-perfect-correlation"
RULE_DOUBLE_BELL = "fg-perfect-correlation"
RULE_FACTORIZATION = "f-factorization"
RULE_FACTORED_PRODUCT = "aadd-perfect-correlation"


#: Number of angles each local function (A, D, F, G above) takes, by tag code.
TAG_ARITY = {"A": 1, "D": 1, "F": 2, "G": 2}


def quantize_angle(phi) -> np.ndarray:
    """Grid angles of an array of angles: phi / ANGLE_QUANTUM rounded half to
    even, times ANGLE_QUANTUM.  A grid angle is its own grid angle.  Adding
    0.0 turns the -0.0 of a tiny negative angle into 0.0, so a grid angle
    never prints as -0.0.  An angle beyond +-_MAX_NUMBER raises ValueError."""
    phi = np.asarray(phi, dtype=float)
    if not (bounded := np.abs(phi) <= _MAX_NUMBER).all():
        bad = phi[~bounded][0].item()
        raise ValueError(f"angle must be a number within +-{_MAX_NUMBER:.2g}, got {bad!r}")
    return (np.rint(phi / ANGLE_QUANTUM) + 0.0) * ANGLE_QUANTUM


@dataclass(frozen=True)
class Provenance:
    """Where a constraint came from: the setting, its phase, the rule."""

    angles: tuple[float, float, float, float]
    zeta: float
    equation: str


@dataclass(frozen=True)
class ParityConstraint:
    """Product of the referenced unknowns must equal required_sign."""

    var_ids: tuple[int, ...]
    required_sign: int
    provenance: Provenance


class ConstraintSet:
    """Parity constraints over +-1 unknowns, one context, stored as columns.

    ``kappa`` (the exact int +1 or -1) and ``label`` (a string) are the
    context, checked here: the sector parity the set is compiled for and
    its name.  ``unknowns`` holds a (tag code, grid angles) pair per unknown.
    ``var_ids``, ``required_signs``, ``angles`` (the 4 of the setting),
    ``zetas`` and ``equations`` hold an entry per constraint.  A new set is
    empty; the compiler and serialize.constraint_set_from_dict fill it from
    checked columns.  ``constraints`` is a list of rows built from those
    columns on each read.
    """

    def __init__(self, kappa: int, label: str = "") -> None:
        self.kappa, self.label = _kappa(kappa), label
        # a label that is not a string would write a file that does not load back
        if type(label) is not str:
            raise ValueError(f"label must be a string, got {label!r}")
        self.unknowns, self._ids = [], {}
        self.var_ids, self.required_signs, self.angles = [], [], []
        self.zetas, self.equations = [], []

    @property
    def n_variables(self) -> int:
        return len(self.unknowns)

    @property
    def constraints(self) -> list[ParityConstraint]:
        provenances = map(Provenance, self.angles, self.zetas, self.equations)
        return list(map(ParityConstraint, self.var_ids, self.required_signs, provenances))

    def _register(self, unknowns: Iterable[tuple[str, tuple]]) -> list[int]:
        """Ids of (tag code, grid angles) pairs; new ones register in order of first use."""
        ids, known = self._ids, len(self._ids)
        # len(ids) is read before setdefault inserts, so a new pair gets the next id
        found = [ids.setdefault(unknown, len(ids)) for unknown in unknowns]
        self.unknowns.extend(islice(ids, known, None))
        return found

    def _extend(self, var_ids, required_signs, angles, zetas, equations) -> None:
        """Append checked entries to the constraint columns."""
        self.var_ids += var_ids
        self.required_signs += required_signs
        self.angles += angles
        self.zetas += zetas
        self.equations += equations

    def copy(self) -> "ConstraintSet":
        out = ConstraintSet(self.kappa, self.label)
        out.unknowns, out._ids = list(self.unknowns), dict(self._ids)
        out._extend(self.var_ids, self.required_signs, self.angles, self.zetas, self.equations)
        return out

    def __eq__(self, other) -> bool:
        return vars(self) == vars(other) if isinstance(other, ConstraintSet) else NotImplemented


#: Unknowns of each compiled rule in registration order: a tag code and the
#: positions in (phi1, phi2, phi3, phi4) of the angles it takes.
_RULE_TERMS = {
    RULE_BELL_POLARIZATION: (("A", (0,)), ("F", (1, 2)), ("D", (3,))),
    RULE_DOUBLE_BELL: (("F", (1, 2)), ("G", (0, 3))),
    RULE_FACTORIZATION: (("F", (1, 2)), ("A", (0,)), ("D", (3,))),
    RULE_FACTORED_PRODUCT: (("A", (0,)), ("A", (1,)), ("D", (2,)), ("D", (3,))),
}

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
