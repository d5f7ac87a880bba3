"""Fixed-point problems in residual form.

A problem is the root-finding form T(x) = 0. The associated relaxed
fixed-point map is x - omega * T(x), so a root of T is a fixed point of the
map and vice versa. Problems carry a field layout, a tuple of named
contiguous index ranges, so a restriction can name the rows of a physical
unknown (`field_rows`) rather than list raw indices.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class NumericalBreakdown(RuntimeError):
    """A residual evaluation produced a non-finite entry.

    ``index`` is the first offending component when raised from
    :func:`evaluate_residual`. When a solve aborts mid-flight, the partial
    report is attached as ``report``.
    """

    def __init__(self, message: str, index: int | None = None, report=None):
        super().__init__(message)
        self.index = index
        self.report = report


class UnknownField(KeyError):
    """Requested field name is not part of the problem layout."""


@dataclass(frozen=True)
class FixedPointProblem:
    """Residual-form problem T(x) = 0 over a dense real state vector.

    Attributes
    ----------
    residual : callable
        Maps a state vector of length ``dimension`` to the residual T(x).
    dimension : int
        Number of unknowns.
    fields : tuple of (name, (start, stop))
        Named contiguous index ranges covering the physical unknowns.
    recommended_omega : float
        Relaxation suggested for the Picard map, positive and finite.
    recommended_window : int or None
        Window size the problem suggests (>= 1), if it has an opinion.
    name : str
        Short identifier used in tables and traces.
    initial_state : ndarray or None
        Default initial guess; solvers fall back to zeros when absent.
    data : dict
        What the residual itself uses (an assembled operator, its right-hand
        side), for reference checks. Not part of the solver contract.
    """

    residual: Callable[[np.ndarray], np.ndarray]
    dimension: int
    fields: tuple[tuple[str, tuple[int, int]], ...]
    recommended_omega: float = 1.0
    recommended_window: int | None = None
    name: str = "custom"
    initial_state: np.ndarray | None = None
    data: dict = None  # type: ignore[assignment]

    def __post_init__(self):
        check_integers(self, "dimension", "recommended_window")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if not 0.0 < self.recommended_omega < np.inf:
            raise ValueError("recommended_omega must be positive and finite")
        if self.recommended_window is not None and self.recommended_window < 1:
            raise ValueError("recommended_window must be >= 1")
        seen = set()
        for fname, (start, stop) in self.fields:
            if fname in seen:
                raise ValueError(f"duplicate field name {fname!r}")
            seen.add(fname)
            if not (0 <= start < stop <= self.dimension):
                raise ValueError(
                    f"field {fname!r} range ({start}, {stop}) outside [0, {self.dimension})"
                )
        if self.data is None:
            object.__setattr__(self, "data", {})

    def field_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.fields)


def check_integers(owner, *names: str):
    """Raise ValueError unless each named field of ``owner`` is None or a
    Python or numpy int: a float or bool count would run as another."""
    for name in names:
        value = getattr(owner, name)
        if isinstance(value, bool) or not isinstance(
                value, (int, np.integer, type(None))):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def evaluate_residual(problem: FixedPointProblem, x: np.ndarray) -> np.ndarray:
    """Evaluate T(x) with shape and finiteness checks.

    Raises
    ------
    ValueError
        If ``x`` has the wrong shape.
    NumericalBreakdown
        If ``x`` or the returned residual has a non-finite entry; the
        exception carries the first offending index. A non-finite state
        means the iteration producing it has already left the domain.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.dimension,):
        raise ValueError(
            f"state has shape {x.shape}, expected ({problem.dimension},)"
        )
    if not np.isfinite(x).all():
        bad = int(np.argmin(np.isfinite(x)))
        raise NumericalBreakdown(
            f"state has a non-finite entry at index {bad}", index=bad
        )
    out = np.asarray(problem.residual(x), dtype=float)
    if out.shape != (problem.dimension,):
        raise ValueError(
            f"residual returned shape {out.shape}, expected ({problem.dimension},)"
        )
    finite = np.isfinite(out)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise NumericalBreakdown(
            f"residual produced a non-finite value at index {bad}", index=bad
        )
    return out


def from_fixed_point_form(
    fixed_point_map: Callable[[np.ndarray], np.ndarray],
    dimension: int,
    fields: tuple[tuple[str, tuple[int, int]], ...] | None = None,
    recommended_omega: float = 1.0,
    recommended_window: int | None = None,
    name: str = "custom",
) -> FixedPointProblem:
    """Adapt a fixed-point map S into residual form T(x) = x - S(x).

    The fixed points of S are exactly the roots of T. The residual evaluates
    the map first and then forms the difference, so one call to T costs one
    call to S.
    """
    if fields is None:
        fields = (("state", (0, dimension)),)

    def residual(x):
        return x - fixed_point_map(x)

    return FixedPointProblem(
        residual=residual,
        dimension=dimension,
        fields=fields,
        recommended_omega=recommended_omega,
        recommended_window=recommended_window,
        name=name,
    )


def field_rows(problem: FixedPointProblem, name: str | None) -> slice:
    """The rows of the named field, as a slice; None gives every row.

    Raises UnknownField listing the available names when ``name`` is absent.
    """
    if name is None:
        return slice(0, problem.dimension)
    for fname, (start, stop) in problem.fields:
        if fname == name:
            return slice(start, stop)
    raise UnknownField(
        f"unknown field {name!r}; problem {problem.name!r} has fields "
        f"{list(problem.field_names())}"
    )
