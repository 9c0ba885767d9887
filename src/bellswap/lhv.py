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
single kappa.

Angle arguments are canonicalized on a 1e-9 rad grid so that equal settings
share one unknown.  A ConstraintSet stores its system as columns, one entry
per unknown and one per constraint, and the compiler fills them in one array
pass over an (N, 4) array of settings; SignVariable, Provenance and
ParityConstraint are the row types its read-only views build on demand.
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice, repeat
from math import pi

import numpy as np

from .correlations import DEFAULT_ANGLE_TOL, _predicted_product
from .quantum import AngleSettings

__all__ = [
    "ANGLE_QUANTUM",
    "FunctionTag",
    "HiddenContext",
    "SignVariable",
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

#: Canonicalization grid for angle keys (radians per step).
ANGLE_QUANTUM = 1e-9

# Rule tags recorded in constraint provenance.
RULE_BELL_POLARIZATION = "afd-perfect-correlation"
RULE_DOUBLE_BELL = "fg-perfect-correlation"
RULE_FACTORIZATION = "f-factorization"
RULE_FACTORED_PRODUCT = "aadd-perfect-correlation"


class FunctionTag(Enum):
    """Which local function an unknown stands for."""

    A = "A"
    D = "D"
    F = "F"
    G = "G"


#: Number of angles each function takes, by tag code (FunctionTag value).
TAG_ARITY = {"A": 1, "D": 1, "F": 2, "G": 2}


@dataclass(frozen=True)
class HiddenContext:
    """One fixed hidden-variable pair, identified only by its sector parity."""

    kappa: int
    label: str = ""

    def __post_init__(self) -> None:
        if self.kappa not in (-1, +1):
            raise ValueError(f"kappa must be +1 or -1, got {self.kappa}")


def quantize_angle(phi) -> np.ndarray:
    """Angle keys of an array of angles: phi / ANGLE_QUANTUM rounded half to
    even, as integer-valued floats.  Adding 0.0 turns the -0.0 of a tiny
    negative angle into 0.0, the key round() gives, so both print alike."""
    keys = np.rint(np.divide(phi, ANGLE_QUANTUM)) + 0.0
    if not np.isfinite(keys).all():
        raise OverflowError("angle too large for its key to be a finite float")
    return keys


def float_reprs(values: Sequence[float]) -> list[str]:
    """float.__repr__ of each value, computed once per distinct value: most
    numbers of a compiled system repeat.  Values are told apart by bit
    pattern, so -0.0 keeps its own repr (a float key would merge it with 0.0)."""
    bits = struct.unpack(f"{len(values)}q", struct.pack(f"{len(values)}d", *values))
    distinct = dict(zip(bits, values))
    table = dict(zip(distinct, map(float.__repr__, distinct.values())))
    return list(map(table.__getitem__, bits))


def _label(tag: str, reprs: Iterable[str]) -> str:
    """The label of an unknown, such as ``F(0.1, 0.2)``, from its angles' reprs."""
    return f"{tag}({', '.join(reprs)})"


@dataclass(frozen=True)
class SignVariable:
    """A +-1 unknown, keyed by function tag and canonicalized angles: integer
    keys, held as ints or as the integer-valued floats of quantize_angle."""

    tag: FunctionTag
    keys: tuple[int, ...]

    def __post_init__(self) -> None:
        arity = TAG_ARITY[self.tag.value]
        if len(self.keys) != arity:
            raise ValueError(f"{self.tag.value} takes {arity} angle(s)")

    @property
    def angles(self) -> tuple[float, ...]:
        return tuple(key * ANGLE_QUANTUM for key in self.keys)

    @property
    def label(self) -> str:
        return _label(self.tag.value, map(repr, self.angles))


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

    def __post_init__(self) -> None:
        if self.required_sign not in (-1, +1):
            raise ValueError(f"required_sign must be +1 or -1, got {self.required_sign}")
        if not self.var_ids:
            raise ValueError("a constraint needs at least one variable")


class _View(Sequence):
    """Read-only rows of a ConstraintSet column, each built when read."""

    def __init__(self, column: list, build: Callable[[int], object]) -> None:
        self._column, self._build = column, build

    def __len__(self) -> int:
        return len(self._column)

    def __getitem__(self, index):
        rows = range(len(self._column))[index]  # an id, or a range of them for a slice
        return list(map(self._build, rows)) if isinstance(index, slice) else self._build(rows)

    def __eq__(self, other) -> bool:
        return list(self) == list(other) if isinstance(other, (list, _View)) else NotImplemented


class ConstraintSet:
    """Parity constraints over a registry of sign variables, one context.

    Stored as columns: ``unknowns`` holds a (tag code, angle keys) pair per
    unknown, by id; ``var_ids``, ``required_signs``, ``angles`` (of the
    setting), ``zetas`` and ``equations`` hold an entry per constraint.  Only
    variable_id and add_constraint change them.  ``variables`` and
    ``constraints`` are read-only views that build a SignVariable or
    ParityConstraint only for the item read.
    """

    def __init__(self, context: HiddenContext, variables=(), constraints=()) -> None:
        """A set holding the given SignVariable and ParityConstraint rows."""
        self.context, self.unknowns, self._ids = context, [], {}
        self.var_ids, self.required_signs, self.angles = [], [], []
        self.zetas, self.equations = [], []
        self._register((var.tag.value, var.keys) for var in variables)
        if self.n_variables != len(variables):
            raise ValueError("duplicate variables in registry")
        for row in constraints:
            self.add_constraint(row.var_ids, row.required_sign, row.provenance)

    @property
    def n_variables(self) -> int:
        return len(self.unknowns)

    @property
    def variables(self) -> Sequence[SignVariable]:
        return _View(self.unknowns, self._variable)

    @property
    def constraints(self) -> Sequence[ParityConstraint]:
        return _View(self.var_ids, self._constraint)

    def _variable(self, vid: int) -> SignVariable:
        tag, keys = self.unknowns[vid]
        return SignVariable(FunctionTag(tag), keys)

    def _constraint(self, cid: int) -> ParityConstraint:
        provenance = Provenance(self.angles[cid], self.zetas[cid], self.equations[cid])
        return ParityConstraint(self.var_ids[cid], self.required_signs[cid], provenance)

    def labels(self, vids: Iterable[int]) -> list[str]:
        """The labels, such as ``F(0.1, 0.2)``, of the unknowns with these ids."""
        rows = [self.unknowns[vid] for vid in vids]
        angles = iter(float_reprs([key * ANGLE_QUANTUM for _, keys in rows for key in keys]))
        return [_label(tag, islice(angles, len(keys))) for tag, keys in rows]

    def variable_id(self, tag: FunctionTag, angles: Sequence[float]) -> int:
        """Id of the unknown for (tag, angles), registering it if new; its
        keys are round(phi / ANGLE_QUANTUM), one angle at a time."""
        var = SignVariable(tag, tuple(round(phi / ANGLE_QUANTUM) for phi in angles))
        return self._register([(tag.value, var.keys)])[0]

    def _register(self, unknowns: Iterable[tuple[str, tuple]]) -> list[int]:
        """Ids of (tag code, keys) pairs; new ones register in order of first occurrence."""
        ids, known = self._ids, len(self._ids)
        # len(ids) is read before setdefault inserts, so a new pair gets the next id
        found = [ids.setdefault(unknown, len(ids)) for unknown in unknowns]
        self.unknowns.extend(islice(ids, known, None))
        return found

    def add_constraint(
        self, var_ids: tuple[int, ...], required_sign: int, provenance: Provenance
    ) -> None:
        for vid in var_ids:
            if not 0 <= vid < self.n_variables:
                raise ValueError(f"constraint references unregistered variable id {vid}")
        row = ParityConstraint(tuple(var_ids), required_sign, provenance)  # checks the row
        angles, zeta, equation = tuple(provenance.angles), provenance.zeta, provenance.equation
        self._extend([row.var_ids], [required_sign], [angles], [zeta], [equation])

    def _extend(self, var_ids, required_signs, angles, zetas, equations) -> None:
        """Append checked entries to the constraint columns."""
        self.var_ids += var_ids
        self.required_signs += required_signs
        self.angles += angles
        self.zetas += zetas
        self.equations += equations

    def copy(self) -> "ConstraintSet":
        out = ConstraintSet(self.context)
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
    RULE_FACTORED_PRODUCT: (("A", (0,)), ("A", (1,)), ("D", (2,)), ("D", (3,))),
}

#: What compile_* take: an (N, 4) array of angles in radians, as
#: serialize.load_settings returns, or a sequence of AngleSettings.
Settings = np.ndarray | Sequence[AngleSettings]


def _compile(rule: str, settings: Settings, context: HiddenContext, tol: float) -> ConstraintSet:
    """One constraint per setting whose sector phase is special: the product
    of the rule's unknowns equals +1 at zeta in {0, +-pi} and -1 at
    zeta = +-pi/2.  Generic settings emit nothing.

    One array pass: zeta is one array expression (the float arithmetic of
    correlations.zeta), one _predicted_product call classifies every setting
    and one quantize_angle call keys the kept ones, whose unknowns register
    term by term through one dict."""
    if not isinstance(settings, np.ndarray):
        settings = [setting.as_tuple() for setting in settings]
    phis = np.asarray(settings, dtype=float).reshape(-1, 4)
    zetas = (phis[:, 0] - phis[:, 1]) + context.kappa * (phis[:, 2] - phis[:, 3])
    signs = _predicted_product(zetas, tol)
    kept = signs != 0
    phis = phis[kept]
    keys = quantize_angle(phis).T.tolist()
    terms = [zip(repeat(tag), zip(*(keys[i] for i in slots))) for tag, slots in _RULE_TERMS[rule]]
    cs = ConstraintSet(context)
    found = iter(cs._register(chain.from_iterable(zip(*terms))))
    var_ids = list(zip(*[found] * len(terms)))
    angles = list(map(tuple, phis.tolist()))
    cs._extend(var_ids, signs[kept].tolist(), angles, zetas[kept].tolist(), [rule] * len(phis))
    return cs


def compile_bell_polarization(
    settings: Settings,
    context: HiddenContext,
    tol: float = DEFAULT_ANGLE_TOL,
) -> ConstraintSet:
    """Constraints A(phi1) * F(phi2, phi3) * D(phi4) = +-1 from the
    Bell/polarization arrangement.

    The analyzer pair never sees phi1 or phi4, so G plays no role here.
    """
    return _compile(RULE_BELL_POLARIZATION, settings, context, tol)


def compile_double_bell(
    settings: Settings,
    context: HiddenContext,
    tol: float = DEFAULT_ANGLE_TOL,
) -> ConstraintSet:
    """Constraints F(phi2, phi3) * G(phi1, phi4) = +-1 from the double Bell
    arrangement, same phase rule as compile_bell_polarization."""
    return _compile(RULE_DOUBLE_BELL, settings, context, tol)


def compile_factored(
    settings: Settings,
    context: HiddenContext,
    tol: float = DEFAULT_ANGLE_TOL,
) -> ConstraintSet:
    """Constraints A(phi1) * A(phi2) * D(phi3) * D(phi4) = +-1: the
    Bell/polarization rule with F already replaced by A * D."""
    return _compile(RULE_FACTORED_PRODUCT, settings, context, tol)


def apply_factorization(cs: ConstraintSet) -> ConstraintSet:
    """Adjoin F(x, y) * A(x) * D(y) = +1 for every F unknown in cs.

    The equal-angles setting (x, x, y, y) has zeta = 0 in both sectors, so
    its certainty pins F(x, y) = A(x) * D(y) unconditionally; this is what
    makes the compiled systems refutable.  Returns a new set; the input is
    untouched.  A(x) and D(y) register in the id order of the F unknowns.
    """
    out = cs.copy()
    f_ids = [vid for vid, (tag, _) in enumerate(cs.unknowns) if tag == "F"]
    f_keys = [cs.unknowns[vid][1] for vid in f_ids]
    found = out._register(chain.from_iterable((("A", (kx,)), ("D", (ky,))) for kx, ky in f_keys))
    var_ids = list(zip(f_ids, found[0::2], found[1::2]))
    points = [(kx * ANGLE_QUANTUM, ky * ANGLE_QUANTUM) for kx, ky in f_keys]
    angles = [(x, x, y, y) for x, y in points]
    n = len(f_ids)
    out._extend(var_ids, [+1] * n, angles, [0.0] * n, [RULE_FACTORIZATION] * n)
    return out


def contradiction_settings(
    alpha: float, beta: float, kappa: int
) -> tuple[AngleSettings, AngleSettings]:
    """The two settings whose certainties clash in the given sector.

    Both use phi1 = alpha, phi2 = alpha + pi/4; swapping pi/4 between phi3
    and phi4 moves zeta_kappa between 0 and -pi/2 while involving the same
    four polarizer angles.
    """
    if kappa not in (-1, +1):
        raise ValueError(f"kappa must be +1 or -1, got {kappa}")
    if kappa == +1:
        zero_setting = AngleSettings(alpha, alpha + pi / 4, beta + pi / 4, beta)
        half_setting = AngleSettings(alpha, alpha + pi / 4, beta, beta + pi / 4)
    else:
        zero_setting = AngleSettings(alpha, alpha + pi / 4, beta, beta + pi / 4)
        half_setting = AngleSettings(alpha, alpha + pi / 4, beta + pi / 4, beta)
    return zero_setting, half_setting


def contradiction_instance(alpha: float, beta: float, kappa: int) -> ConstraintSet:
    """Two factored constraints over A(alpha), A(alpha + pi/4), D(beta),
    D(beta + pi/4) whose required signs differ: the unsatisfiable core."""
    zero_setting, half_setting = contradiction_settings(alpha, beta, kappa)
    context = HiddenContext(kappa=kappa, label=f"contradiction(alpha={alpha!r}, beta={beta!r})")
    return compile_factored([zero_setting, half_setting], context)
