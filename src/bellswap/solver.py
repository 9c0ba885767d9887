"""Decide +-1 parity-constraint systems and certify the answer.

Two independent procedures, whose answers proof.verify_certificate checks:

- enumerate_solve tries every assignment (guarded at 24 unknowns) and, on
  failure, searches for the smallest constraint subset whose product reads
  "+1 = -1".  It is the reference solver.  Its scan is bit-sliced: a Python
  int is a truth table over 2**_TABLE_BITS consecutive assignments, one per
  bit, so each constraint costs a few big-int XORs and one AND per chunk of
  assignments.
- gf2_solve maps each unknown v to a bit via v = (-1)^bit, turning every
  constraint into a linear parity equation, and inserts the equations in id
  order into an incremental elimination basis keyed by pivot variable, each
  basis row carrying its pedigree (the constraints it was summed from).
  Compiled constraints touch two to four unknowns, so a new row usually
  needs only a handful of XORs.  A satisfiable system's basis is then
  inserted once more, from its highest pivot down, into a basis pivoting on
  the lowest variable, from which the model is read.

Both gf2_solve answers are canonical, independent of pivot choice:

- certificate: the first constraint (in id order) that contradicts the ones
  before it, plus the unique subset of earlier linearly independent
  constraints that implies its negation;
- model: free variables (the non-leading columns of the row-reduced system,
  columns ordered by variable id) set to +1 and the rest solved for, which is
  also the lowest satisfying assignment index, the model enumerate_solve
  returns.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from functools import lru_cache

from .proof import ConstraintSet, SolveResult, SolveStatus, verify_certificate

__all__ = [
    "SolveStatus",
    "SolveResult",
    "enumerate_solve",
    "gf2_solve",
    "verify_certificate",
]

#: enumerate_solve refuses systems with more unknowns than this.
ENUMERATION_GUARD = 24

#: A truth table covers 2**_TABLE_BITS assignments, one chunk of the scan.
_TABLE_BITS = 20
_SUBSET_BUDGET = 500_000


def _parity_rows(cs: ConstraintSet) -> list[tuple[int, int]]:
    """Each constraint as (variable parity bitmask, rhs bit).

    A variable occurring twice in one constraint cancels out of the mask;
    rhs is 1 exactly when the required sign is -1.
    """
    rows = []
    for var_ids, sign in zip(cs.var_ids, cs.required_signs):
        mask = 0
        for vid in var_ids:
            mask ^= 1 << vid
        rows.append((mask, 0 if sign == +1 else 1))
    return rows


def _low_bits(x: int, n: int) -> str:
    """Bits 0 to n - 1 of x, bit 0 first, as '0' and '1' characters: one
    conversion, where a shift per bit would copy x once per bit."""
    return format(x, f"0{n}b")[::-1][:n]


def _model(assignment: int, n: int) -> tuple[int, ...]:
    """The model of an assignment index: entry i is +1 where bit i is 0, else -1."""
    return tuple(-1 if bit == "1" else +1 for bit in _low_bits(assignment, n))


@lru_cache(maxsize=8)
def _variable_tables(width: int) -> tuple[int, ...]:
    """The truth table of each variable v < width over the assignments 0 to
    2**width - 1: bit k is bit v of k, so a table repeats 2**v zeros and
    then 2**v ones.  One table is 2**width bits (128 KiB at width 20)."""
    tables = []
    for v in range(width):
        run = 1 << v
        table, period = ((1 << run) - 1) << run, 2 * run
        while period < 1 << width:
            table |= table << period
            period *= 2
        tables.append(table)
    return tuple(tables)


def _scan_assignments(rows: list[tuple[int, int]], n_variables: int) -> int | None:
    """Lowest assignment index (see _model) satisfying all rows, or None.

    The assignments go by in chunks of 2**width, width = min(n_variables,
    _TABLE_BITS), each one truth table: bit k stands for assignment start + k.
    A variable below width takes its values from _variable_tables; one at
    width or above is constant over the chunk, bit v of start, so it only
    flips the row's parity.  A row's table is the XOR of its variables'
    tables, complemented unless the parity it needs is odd, and ANDs into
    the chunk's table; a chunk ends when that reaches 0.  Its lowest set bit
    is the lowest satisfying index.
    """
    width = min(n_variables, _TABLE_BITS)
    tables = _variable_tables(width)
    everything = (1 << (1 << width)) - 1
    low_variables = (1 << width) - 1
    for start in range(0, 1 << n_variables, 1 << width):
        ok = everything
        for mask, rhs in rows:
            # start & mask holds only variables at width and above
            table = 0 if rhs ^ ((start & mask).bit_count() & 1) else everything
            low = mask & low_variables
            while low:
                bit = low & -low
                table ^= tables[bit.bit_length() - 1]
                low ^= bit
            ok &= table
            if not ok:
                break
        if ok:
            return start + (ok & -ok).bit_length() - 1
    return None


def _subset_certificate(rows: list[tuple[int, int]]) -> list[int] | None:
    """Smallest constraint subset multiplying to "+1 = -1", by exhaustive
    search over subset sizes; gives up beyond the combination budget."""
    m = len(rows)
    tried = 0
    for size in range(1, m + 1):
        count = math.comb(m, size)
        if tried + count > _SUBSET_BUDGET and size > 1:
            return None
        for subset in itertools.combinations(range(m), size):
            mask = 0
            rhs = 0
            for i in subset:
                mask ^= rows[i][0]
                rhs ^= rows[i][1]
            if mask == 0 and rhs == 1:
                return list(subset)
        tried += count
    return None


def _deletion_certificate(rows: list[tuple[int, int]], n_variables: int) -> list[int]:
    """Deletion-minimal unsatisfiable subset.

    An irreducible inconsistent parity system always multiplies out to
    "+1 = -1" as a whole, so the surviving subset is a valid certificate.
    """
    active = list(range(len(rows)))
    for i in list(active):
        trial = [j for j in active if j != i]
        if _scan_assignments([rows[j] for j in trial], n_variables) is None:
            active = trial
    return active


def enumerate_solve(cs: ConstraintSet) -> SolveResult:
    """Exhaustive decision: lowest satisfying assignment, else a minimal
    certificate.  Raises ValueError beyond the variable guard."""
    n = cs.n_variables
    if n > ENUMERATION_GUARD:
        raise ValueError(f"enumeration guard exceeded: {n} variables > {ENUMERATION_GUARD}")
    rows = _parity_rows(cs)
    assignment = _scan_assignments(rows, n)
    if assignment is not None:
        return SolveResult(SolveStatus.SAT, model=_model(assignment, n))
    certificate = _subset_certificate(rows)
    if certificate is None:
        certificate = _deletion_certificate(rows, n)
    return SolveResult(SolveStatus.UNSAT, certificate=tuple(certificate))


def _eliminate(
    rows: list[tuple[int, int]], pivot_of: Callable[[int], int], pedigrees: bool
) -> tuple[dict[int, tuple[int, int, int]], int | None]:
    """Insert rows in list order into a basis {pivot variable: (mask, rhs,
    pedigree)}, reducing each new row by the basis rows of its pivot_of
    variable until that variable is free or the row is empty.  With
    ``pedigrees``, row i starts from the pedigree 1 << i, so a pedigree is
    the bitmask of the constraints its row sums; without, every pedigree
    stays 0 and costs no big-int XOR.

    Returns the basis and, if some row reduced to "0 = 1", that row's
    pedigree; elimination stops there.
    """
    basis: dict[int, tuple[int, int, int]] = {}
    for i, (mask, rhs) in enumerate(rows):
        pedigree = 1 << i if pedigrees else 0
        while mask:
            pivot = pivot_of(mask)
            row = basis.get(pivot)
            if row is None:
                basis[pivot] = (mask, rhs, pedigree)
                break
            mask ^= row[0]
            rhs ^= row[1]
            pedigree ^= row[2]
        if mask == 0 and rhs:
            return basis, pedigree
    return basis, None


def _highest_variable(mask: int) -> int:
    return mask.bit_length() - 1


def _lowest_variable(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def gf2_solve(cs: ConstraintSet) -> SolveResult:
    """Incremental elimination over the two-element field, in two passes.

    Pass 1 decides and certifies: each row pivots on its highest variable id,
    which compilation usually makes a fresh unknown, so rows rarely need
    reducing.  The first constraint that reduces to "0 = 1" ends the solve
    and its pedigree is the certificate, the canonical one described in the
    module docstring whatever the pivot choice.

    Pass 2 (satisfiable systems only) re-pivots pass 1's basis, which spans
    the same row space in rank-many rows, on the lowest variable id.  Its
    pivots are the leading columns of the row-reduced system, so
    back-substituting from the highest pivot down, with every free variable
    +1, gives the canonical model: the lowest satisfying assignment index.
    The leading columns do not depend on the order the rows go in, so pass 2
    takes them in descending order of their pass-1 pivot, the order that
    keeps its XOR chains short on compiled grids: 9674 XORs on the
    unfactorized figure-1 system of the refute_grid benchmark's 20-base grid
    at seed 301 (4960 unknowns), against 4.18 million in pass 1's insertion
    order.
    """
    rows = _parity_rows(cs)
    basis, pedigree = _eliminate(rows, _highest_variable, pedigrees=True)
    if pedigree is not None:
        bits = _low_bits(pedigree, len(rows))
        certificate = tuple(i for i, bit in enumerate(bits) if bit == "1")
        return SolveResult(SolveStatus.UNSAT, certificate=certificate)
    top_down = [basis[pivot][:2] for pivot in sorted(basis, reverse=True)]
    basis, _ = _eliminate(top_down, _lowest_variable, pedigrees=False)
    assignment = 0
    for pivot in sorted(basis, reverse=True):
        mask, rhs, _ = basis[pivot]
        # the pivot's own bit is still 0 in assignment, so this sums the rest
        if rhs ^ ((mask & assignment).bit_count() & 1):
            assignment |= 1 << pivot
    return SolveResult(SolveStatus.SAT, model=_model(assignment, cs.n_variables))
