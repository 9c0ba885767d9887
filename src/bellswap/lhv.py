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
share one unknown.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
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


_TAG_ARITY = {FunctionTag.A: 1, FunctionTag.D: 1, FunctionTag.F: 2, FunctionTag.G: 2}


@dataclass(frozen=True)
class HiddenContext:
    """One fixed hidden-variable pair, identified only by its sector parity."""

    kappa: int
    label: str = ""

    def __post_init__(self) -> None:
        if self.kappa not in (-1, +1):
            raise ValueError(f"kappa must be +1 or -1, got {self.kappa}")


def quantize_angle(phi: float) -> int:
    return round(phi / ANGLE_QUANTUM)


@dataclass(frozen=True)
class SignVariable:
    """A +-1 unknown, keyed by function tag and canonicalized angles."""

    tag: FunctionTag
    keys: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.keys) != _TAG_ARITY[self.tag]:
            raise ValueError(f"{self.tag.value} takes {_TAG_ARITY[self.tag]} angle(s)")

    @property
    def angles(self) -> tuple[float, ...]:
        return tuple(key * ANGLE_QUANTUM for key in self.keys)

    @property
    def label(self) -> str:
        return f"{self.tag.value}({', '.join(repr(a) for a in self.angles)})"


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


@dataclass
class ConstraintSet:
    """Parity constraints over a registry of sign variables, one context."""

    context: HiddenContext
    variables: list[SignVariable] = field(default_factory=list)
    constraints: list[ParityConstraint] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._ids = {(var.tag, var.keys): i for i, var in enumerate(self.variables)}
        if len(self._ids) != len(self.variables):
            raise ValueError("duplicate variables in registry")
        for constraint in self.constraints:
            self._check_ids(constraint.var_ids)

    def _check_ids(self, var_ids: tuple[int, ...]) -> None:
        for vid in var_ids:
            if not 0 <= vid < len(self.variables):
                raise ValueError(f"constraint references unregistered variable id {vid}")

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    def variable_id(self, tag: FunctionTag, angles: Sequence[float]) -> int:
        """Id of the unknown for (tag, angles), registering it if new."""
        return self._key_id(tag, tuple(map(quantize_angle, angles)))

    def _key_id(self, tag: FunctionTag, keys: tuple[int, ...]) -> int:
        """Id of the unknown for (tag, angle keys); a SignVariable is built
        only for a new one."""
        existing = self._ids.get((tag, keys))
        if existing is None:
            self.variables.append(SignVariable(tag, keys))
            existing = self._ids[tag, keys] = len(self.variables) - 1
        return existing

    def add_constraint(
        self, var_ids: tuple[int, ...], required_sign: int, provenance: Provenance
    ) -> None:
        self._check_ids(var_ids)
        self.constraints.append(ParityConstraint(var_ids, required_sign, provenance))

    def copy(self) -> "ConstraintSet":
        return ConstraintSet(
            context=self.context,
            variables=list(self.variables),
            constraints=list(self.constraints),
        )


#: Unknowns of each compiled rule in registration order: a function tag and
#: the positions in (phi1, phi2, phi3, phi4) of the angles it takes.
_RULE_TERMS = {
    RULE_BELL_POLARIZATION: ((FunctionTag.A, (0,)), (FunctionTag.F, (1, 2)), (FunctionTag.D, (3,))),
    RULE_DOUBLE_BELL: ((FunctionTag.F, (1, 2)), (FunctionTag.G, (0, 3))),
    RULE_FACTORED_PRODUCT: (
        (FunctionTag.A, (0,)),
        (FunctionTag.A, (1,)),
        (FunctionTag.D, (2,)),
        (FunctionTag.D, (3,)),
    ),
}


def _compile(
    rule: str, settings: list[AngleSettings], context: HiddenContext, tol: float
) -> ConstraintSet:
    """One constraint per setting whose sector phase is special: the product
    of the rule's unknowns equals +1 at zeta in {0, +-pi} and -1 at
    zeta = +-pi/2.  Generic settings emit nothing.

    The zeta of every setting is one array expression, the same float
    arithmetic as correlations.zeta, and one _predicted_product call
    classifies them all."""
    cs = ConstraintSet(context=context)
    rows = [setting.as_tuple() for setting in settings]
    phis = np.array(rows, dtype=float).reshape(-1, 4)
    zetas = (phis[:, 0] - phis[:, 1]) + context.kappa * (phis[:, 2] - phis[:, 3])
    signs = _predicted_product(zetas, tol)
    terms = _RULE_TERMS[rule]
    for angles, sign, zeta_value in zip(rows, signs.tolist(), zetas.tolist()):
        if not sign:
            continue
        var_ids = tuple(cs.variable_id(tag, [angles[i] for i in slots]) for tag, slots in terms)
        cs.add_constraint(var_ids, sign, Provenance(angles, zeta_value, rule))
    return cs


def compile_bell_polarization(
    settings: list[AngleSettings],
    context: HiddenContext,
    tol: float = DEFAULT_ANGLE_TOL,
) -> ConstraintSet:
    """Constraints A(phi1) * F(phi2, phi3) * D(phi4) = +-1 from the
    Bell/polarization arrangement.

    The analyzer pair never sees phi1 or phi4, so G plays no role here.
    """
    return _compile(RULE_BELL_POLARIZATION, settings, context, tol)


def compile_double_bell(
    settings: list[AngleSettings],
    context: HiddenContext,
    tol: float = DEFAULT_ANGLE_TOL,
) -> ConstraintSet:
    """Constraints F(phi2, phi3) * G(phi1, phi4) = +-1 from the double Bell
    arrangement, same phase rule as compile_bell_polarization."""
    return _compile(RULE_DOUBLE_BELL, settings, context, tol)


def compile_factored(
    settings: list[AngleSettings],
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
    untouched.
    """
    out = cs.copy()
    for vid, var in enumerate(cs.variables):
        if var.tag is not FunctionTag.F:
            continue
        kx, ky = var.keys
        x, y = var.angles
        var_ids = (vid, out._key_id(FunctionTag.A, (kx,)), out._key_id(FunctionTag.D, (ky,)))
        out.add_constraint(var_ids, +1, Provenance((x, x, y, y), 0.0, RULE_FACTORIZATION))
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
