"""Evaluation of formulas with active-domain semantics.

Two evaluators live here:

* :func:`join_atoms` -- an index-aware backtracking join over a set of
  relational atoms.  At every step it greedily picks the atom with the most
  bound positions, so lookups go through the database's hash indexes
  whenever possible.  This is the engine behind
  :meth:`repro.logic.cq.ConjunctiveQuery.evaluate`; the batched operator
  pipeline for scale-independent plans (:mod:`repro.core.executor`) shares
  this module's join helpers (:func:`row_matches`, the pattern/extension
  utilities) rather than reimplementing them.
* :func:`holds` / :func:`satisfying_assignments` -- the textbook
  active-domain semantics for arbitrary first-order formulas.  Quantifiers
  range over the active domain: every value occurring in the database or in
  the formula.  This is exponential in general and exists as the reference
  semantics, not as a production evaluator.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import SchemaError
from repro.logic.ast import (
    And,
    Atom,
    Equality,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
)
from repro.logic.terms import Constant, Variable

Assignment = dict[Variable, object]


def _term_value(term, assignment: Mapping[Variable, object]):
    """The value of ``term`` under ``assignment``, or a KeyError if it is an
    unassigned variable."""
    if isinstance(term, Constant):
        return term.value
    return assignment[term]


def _bound_pattern(
    atom: Atom, assignment: Mapping[Variable, object]
) -> tuple[tuple[int, ...], tuple[object, ...]]:
    """The ascending positions of ``atom`` whose value is already
    determined, and those values: a ``(positions, key)`` pair ready for
    ``lookup_keys``."""
    positions: list[int] = []
    key: list[object] = []
    for i, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            positions.append(i)
            key.append(term.value)
        elif term in assignment:
            positions.append(i)
            key.append(assignment[term])
    return tuple(positions), tuple(key)


def _check_arities(db, atoms: Iterable[Atom]) -> None:
    """Raise :class:`SchemaError` unless every atom names a relation of
    ``db.schema`` with the atom's arity."""
    for atom in atoms:
        arity = db.schema.relation(atom.relation).arity
        if len(atom.terms) != arity:
            raise SchemaError(
                f"atom {atom} has arity {len(atom.terms)}, but relation "
                f"{atom.relation!r} has arity {arity}"
            )


def row_matches(
    atom: Atom, row: Sequence[object], assignment: Mapping[Variable, object]
) -> bool:
    """Whether ``row`` agrees with ``atom`` at every position whose value is
    already determined (a constant, or a variable bound in ``assignment``).
    Positions held by unbound variables are unconstrained."""
    for i, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            if term.value != row[i]:
                return False
        elif term in assignment and assignment[term] != row[i]:
            return False
    return True


def _extend(atom: Atom, row: Sequence[object], assignment: Assignment) -> Assignment | None:
    """Extend ``assignment`` with the bindings ``atom`` takes from ``row``,
    or return None if a repeated variable binds inconsistently."""
    new = dict(assignment)
    for i, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            if term.value != row[i]:
                return None
        elif term in new:
            if new[term] != row[i]:
                return None
        else:
            new[term] = row[i]
    return new


def join_atoms(db, atoms: Sequence[Atom], assignment: Mapping[Variable, object] | None = None) -> Iterator[Assignment]:
    """Yield every assignment of the atoms' variables that makes all of
    ``atoms`` hold in ``db``, extending the initial ``assignment``.

    Atom order is chosen greedily: the next atom evaluated is always one
    with the largest number of bound positions, so each lookup is as
    selective (and as index-friendly) as possible.  An atom whose arity
    differs from its relation's raises :class:`SchemaError`.
    """
    _check_arities(db, atoms)
    initial: Assignment = dict(assignment or {})

    def recurse(remaining: list[Atom], current: Assignment) -> Iterator[Assignment]:
        if not remaining:
            yield current
            return
        atom = max(remaining, key=lambda a: len(_bound_pattern(a, current)[0]))
        rest = [a for a in remaining if a is not atom]
        positions, key = _bound_pattern(atom, current)
        for row in db.lookup_keys(atom.relation, positions, (key,))[0]:
            extended = _extend(atom, row, current)
            if extended is not None:
                yield from recurse(rest, extended)

    return recurse(list(atoms), initial)


def active_domain(db, formula: Formula | None = None) -> tuple[object, ...]:
    """The active domain: every value in ``db`` plus every constant in
    ``formula``, in first-occurrence order."""
    values = dict.fromkeys(db.active_domain())
    if formula is not None:
        for c in formula.constants():
            values.setdefault(c.value, None)
    return tuple(values)


def holds(formula: Formula, db, assignment: Mapping[Variable, object] | None = None, *, domain: Sequence[object] | None = None) -> bool:
    """Decide whether ``formula`` holds in ``db`` under ``assignment``
    (which must cover all free variables), with quantifiers ranging over
    the active domain.  An atom whose arity differs from its relation's
    raises :class:`SchemaError`."""
    asg: Assignment = dict(assignment or {})
    missing = [v for v in formula.free_variables() if v not in asg]
    if missing:
        raise ValueError(f"unassigned free variables: {', '.join(map(str, missing))}")
    _check_arities(db, formula.atoms())
    dom = tuple(domain) if domain is not None else active_domain(db, formula)
    return _holds(formula, db, asg, dom)


def _holds(formula: Formula, db, asg: Assignment, dom: tuple[object, ...]) -> bool:
    if isinstance(formula, Atom):
        row = tuple(_term_value(t, asg) for t in formula.terms)
        return db.contains_rows(formula.relation, (row,))[0]
    if isinstance(formula, Equality):
        return _term_value(formula.left, asg) == _term_value(formula.right, asg)
    if isinstance(formula, And):
        return all(_holds(op, db, asg, dom) for op in formula.operands)
    if isinstance(formula, Or):
        return any(_holds(op, db, asg, dom) for op in formula.operands)
    if isinstance(formula, Not):
        return not _holds(formula.operand, db, asg, dom)
    if isinstance(formula, Implies):
        return (not _holds(formula.antecedent, db, asg, dom)) or _holds(
            formula.consequent, db, asg, dom
        )
    if isinstance(formula, (Exists, Forall)):
        quantifier = any if isinstance(formula, Exists) else all
        return quantifier(
            _holds(formula.body, db, {**asg, **dict(zip(formula.variables, values))}, dom)
            for values in product(dom, repeat=len(formula.variables))
        )
    raise TypeError(f"cannot evaluate {type(formula).__name__}")


def satisfying_assignments(formula: Formula, db, variables: Sequence[Variable], assignment: Mapping[Variable, object] | None = None) -> Iterator[Assignment]:
    """Yield every extension of ``assignment`` to ``variables`` (over the
    active domain) under which ``formula`` holds."""
    dom = active_domain(db, formula)
    base: Assignment = dict(assignment or {})
    todo = [v for v in variables if v not in base]
    for values in product(dom, repeat=len(todo)):
        candidate = {**base, **dict(zip(todo, values))}
        if holds(formula, db, candidate, domain=dom):
            yield candidate
