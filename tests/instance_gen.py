"""Shared generators of random compiled constraint systems and of the
refute_grid benchmark's dense settings grid, the document of a hand-built
system, and the event CSV built one row at a time."""

import math

import numpy as np

from bellswap.correlations import OUTCOME_ORDER, f_value_of, kappa_of
from bellswap.lhv import (
    ConstraintSet,
    apply_factorization,
    compile_bell_polarization,
    compile_double_bell,
    compile_factored,
)
from bellswap.serialize import EVENT_CSV_COLUMNS, FORMAT_VERSION

PI = math.pi


def random_compiled_instance(rng: np.random.Generator, max_variables: int = 16) -> ConstraintSet:
    """Settings drawn from small angle pools so unknowns collide and both
    SAT and UNSAT systems occur.

    Which arm carries an offset matters: swapping it between phi3 and phi4
    flips the sign of its zeta contribution, so the placement is random and
    some settings are mirrored copies of earlier ones.
    """
    offsets = [0.0, PI / 4, PI / 2]
    while True:
        kappa = int(rng.choice([-1, 1]))
        base_a, base_b = rng.uniform(0, 2 * PI, size=2)
        settings_list = []
        for _ in range(int(rng.integers(2, 7))):
            da = float(rng.choice(offsets))
            db = float(rng.choice(offsets))
            phi1, phi2 = (base_a + da, base_a) if rng.integers(2) else (base_a, base_a + da)
            phi3, phi4 = (base_b + db, base_b) if rng.integers(2) else (base_b, base_b + db)
            settings_list.append((phi1, phi2, phi3, phi4))
            if rng.random() < 0.35:
                # mirror an earlier setting: same unknowns, possibly opposite sign
                mirror = settings_list[int(rng.integers(len(settings_list)))]
                phi1, phi2, phi3, phi4 = mirror
                settings_list.append((phi1, phi2, phi4, phi3))
        mode = int(rng.integers(0, 3))
        if mode == 0:
            cs = compile_bell_polarization(settings_list, kappa)
            if rng.random() < 0.7:
                cs = apply_factorization(cs)
        elif mode == 1:
            cs = compile_double_bell(settings_list, kappa)
        else:
            cs = compile_factored(settings_list, kappa)
        if 0 < cs.n_variables <= max_variables:
            return cs


def system_document(kappa: int, variables, constraints, label: str = "") -> dict:
    """The constraint-system document of hand-built rows, for
    serialize.constraint_set_from_dict: ``variables`` are (tag code, angles)
    pairs and ``constraints`` (var_ids, required_sign, (angles, zeta,
    equation)) triples, ids given by position."""
    return {
        "format_version": FORMAT_VERSION,
        "context": {"kappa": kappa, "label": label},
        "variables": [
            {"id": vid, "tag": tag, "angles": list(angles)}
            for vid, (tag, angles) in enumerate(variables)
        ],
        "constraints": [
            {
                "id": cid,
                "vars": list(var_ids),
                "required_sign": sign,
                "provenance": {"angles": list(angles), "zeta": zeta, "equation": equation},
            }
            for cid, (var_ids, sign, (angles, zeta, equation)) in enumerate(constraints)
        ],
    }


def grid_settings(rng: np.random.Generator, bases: int) -> list[tuple[float, ...]]:
    """The refute_grid benchmark's settings, as rows of 4 floats: random base
    angles per side, and every arm pair of every left base with every arm
    pair of every right base, an arm pair being the base twice or the base
    and the base plus k*pi/4 (k = 1, 2, 3) either way round."""

    def arm_pairs(base: float) -> list[tuple[float, float]]:
        out = [(base, base)]
        for offset in (PI / 4, PI / 2, 3 * PI / 4):
            out += [(base, base + offset), (base + offset, base)]
        return out

    alphas, betas = rng.uniform(0.0, 2 * PI, size=(2, bases)).tolist()
    return [
        (*left, *right)
        for alpha in alphas
        for beta in betas
        for left in arm_pairs(alpha)
        for right in arm_pairs(beta)
    ]


def per_row_csv(angles, outcomes, start: int = 0) -> str:
    """The event CSV of events start, start + 1, ... built one row at a time,
    after the header row when start is 0: the bytes the chunked writer must
    match."""
    phis = ",".join(repr(float(phi)) for phi in angles)
    lines = [",".join(EVENT_CSV_COLUMNS) + "\n"] if start == 0 else []
    for i, k in enumerate(outcomes, start):
        bell, pol_a, pol_d = OUTCOME_ORDER[k]
        f, a, d = f_value_of(bell), pol_a.sign, pol_d.sign
        lines.append(
            f"{i},{phis},{bell.value},{pol_a.value},{pol_d.value},"
            f"{kappa_of(bell)},{f},{a},{d},{a * f * d}\n"
        )
    return "".join(lines)
