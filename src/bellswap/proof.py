"""The trusted base: what a constraint system and its certificate mean.

Nothing here finds a certificate: lhv compiles systems, solver decides them
and serialize reads them.  This module imports only the standard library and
numpy, so checking a certificate against its system trusts no other module.

Only quantize_angle knows the 1e-9 rad grid: it rounds an unknown's angles
to it, so that equal settings share one unknown.  A ConstraintSet is its
columns, filled only by lhv's compiler, in one array pass over the
settings, and by serialize.constraint_set_from_dict.  An unknown is a (tag
code, grid angles) pair of ``unknowns``, the angles its file entry holds;
serialize renders it as text.  A constraint's provenance (its setting,
sector phase and rule) is held only in the ``angles``, ``zetas`` and
``equations`` columns; ``constraints`` builds (var_ids, required_sign)
ParityConstraint rows from two columns on each read.

A model is the tuple of +-1 values by unknown id.  A certificate is a list
of constraint ids such that every variable occurs an even number of times
across them while the required signs multiply to -1; verify_certificate
re-checks that property (or a SAT model) from scratch, trusting nothing the
solvers did.
"""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from numbers import Integral

import numpy as np

#: Canonicalization grid of an unknown's angles (radians per step).
ANGLE_QUANTUM = 1e-9

#: Largest magnitude whose grid angle is a finite float: the files' bound.
_MAX_NUMBER = sys.float_info.max * ANGLE_QUANTUM

# Rule tags recorded in constraint provenance.
RULE_BELL_POLARIZATION = "afd-perfect-correlation"
RULE_DOUBLE_BELL = "fg-perfect-correlation"
RULE_FACTORIZATION = "f-factorization"
RULE_FACTORED_PRODUCT = "aadd-perfect-correlation"

#: Unknowns of each compiled rule in registration order: a tag code and the
#: positions in (phi1, phi2, phi3, phi4) of the angles it takes.
_RULE_TERMS = {
    RULE_BELL_POLARIZATION: (("A", (0,)), ("F", (1, 2)), ("D", (3,))),
    RULE_DOUBLE_BELL: (("F", (1, 2)), ("G", (0, 3))),
    RULE_FACTORIZATION: (("F", (1, 2)), ("A", (0,)), ("D", (3,))),
    RULE_FACTORED_PRODUCT: (("A", (0,)), ("A", (1,)), ("D", (2,)), ("D", (3,))),
}

#: Number of angles each local function (A, D, F, G above) takes, by tag code.
TAG_ARITY = {tag: len(slots) for terms in _RULE_TERMS.values() for tag, slots in terms}


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


def _kappa(kappa) -> int:
    """kappa, checked to be the exact int +1 or -1 that a file can hold."""
    if type(kappa) is not int or kappa not in (-1, +1):
        raise ValueError(f"kappa must be +1 or -1, got {kappa!r}")
    return kappa


@dataclass(frozen=True)
class ParityConstraint:
    """Product of the referenced unknowns must equal required_sign."""

    var_ids: tuple[int, ...]
    required_sign: int


class ConstraintSet:
    """Parity constraints over +-1 unknowns, one context, stored as columns.

    ``kappa`` (the exact int +1 or -1) and ``label`` (a string) are the
    context, checked here: the sector parity the set is compiled for and
    its name.  ``unknowns`` holds a (tag code, grid angles) pair per unknown.
    ``var_ids``, ``required_signs``, ``angles`` (the 4 of the setting),
    ``zetas`` and ``equations`` hold an entry per constraint.  A new set is
    empty; the compiler and serialize.constraint_set_from_dict fill it from
    checked columns.  ``constraints`` is a list of (var_ids, required_sign)
    rows built from those two columns on each read.
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
        return list(map(ParityConstraint, self.var_ids, self.required_signs))

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


class SolveStatus(Enum):
    SAT = "sat"
    UNSAT = "unsat"


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solve: a full model, or an UNSAT certificate."""

    status: SolveStatus
    model: tuple[int, ...] | None = None
    certificate: tuple[int, ...] | None = None


def verify_certificate(cs: ConstraintSet, result: SolveResult) -> bool:
    """Re-check a result against its constraint set from first principles.

    SAT results need a tuple holding the int +1 or -1 (not a float or bool
    equal to it) for every unknown of cs and satisfying every constraint;
    UNSAT results need the even-cancellation / odd-sign property.  A
    certificate id that is not an integer (a bool or a float is not) or does
    not exist in cs raises ValueError.
    """
    if result.status is SolveStatus.SAT:
        model = result.model
        if type(model) is not tuple or len(model) != cs.n_variables:
            return False
        if not set(map(type, model)) <= {int} or not set(model) <= {-1, +1}:
            return False
        for var_ids, required_sign in zip(cs.var_ids, cs.required_signs):
            product = 1
            for vid in var_ids:
                product *= model[vid]
            if product != required_sign:
                return False
        return True
    certificate = result.certificate
    if not certificate:
        return False
    counts: Counter[int] = Counter()
    sign = 1
    for cid in certificate:
        # a bool is an Integral, but no solver writes one as an id
        if type(cid) is bool or not isinstance(cid, Integral) or not 0 <= cid < len(cs.var_ids):
            raise ValueError(f"certificate references unknown constraint id {cid}")
        sign *= cs.required_signs[cid]
        counts.update(cs.var_ids[cid])
    return sign == -1 and all(count % 2 == 0 for count in counts.values())
