"""Stratified life tables: loading, validation, and background-hazard queries.

A life table is a dense grid of expected mortality rates (per person-year)
over 1-year age cells x 1-year calendar cells x categorical strata (e.g.
sex, deprivation).  Rates are piecewise constant within cells.  A patient
diagnosed at age A in year y traverses the table along the diagonal
(A + s, y + s), so cumulative-hazard increments are exact sums of
rate x duration over the sub-segments delimited by integer age/year
boundaries.

Every table, read from a CSV, made from a rate function or built from a
grid, passes one check, in the ``LifeTable`` constructor: integer
``age_min`` and ``year_min`` (the cell edges the walk steps over), a
non-empty 3-D grid, every rate finite and >= 0, and one distinct strata
tuple per stratum, of one label per strata column.  A failure raises
DataError naming the bad bound or the first bad cell.

One walk along that diagonal (``LifeTable._walk``) serves both the
increment dH_P and its inverse, the other-cause time.  It moves the
patients of a batch forward together, one cell per step, so every query
takes a batch of patients (columns of age, year and stratum code, one row
per patient) and returns one value per row: a whole cohort is one call.
``LifeTable.codes`` is the one place that turns strata labels into the
table's codes; everything downstream passes the integer codes.  The walk
is a generator that yields every row's segment at each step, and a query
sums or searches the segments.  A row that has reached its end (t, the
target hazard, or past the inversion's horizon short of it) takes
zero-length segments until the last row is done, which adds rate x 0 to
its sum: each row's result is the same, bit for bit, as the same query on
that row alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Sequence, TextIO

import numpy as np

from .errors import DataError, UnknownStratum, ZeroHazardPath

__all__ = [
    "LifeTable",
    "load_life_table",
]


def _norm_strata(values: Iterable) -> tuple[str, ...]:
    return tuple(str(v).strip() for v in values)


class _Record:
    """Base of the frozen dataclasses that hold arrays: ``_freeze`` sets fields
    and makes each ndarray among them read-only in place.  Pickle, copy and
    deepcopy rerun the constructor on the ``init`` fields, so a copy is
    checked and frozen like the original and starts with empty caches."""

    def _freeze(self, **values):
        for name, value in values.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


@dataclass(frozen=True, eq=False)
class LifeTable(_Record):
    """Dense grid of background mortality rates h_P(age, year; strata).

    Five fields hold the grid: the strata column names, ``age_min``,
    ``year_min``, ``rates`` indexed by (age - age_min, year - year_min,
    stratum code) and ``strata``, the label tuple of each code; ``age_max``,
    ``year_max`` and the label -> code map of ``codes`` derive from them.
    The constructor checks the grid (see the module docstring) and copies
    the rates read-only; the table is frozen and compares by identity.
    Queries outside the age/year ranges clamp to the edge cell; all are pure.

    ``rate_at``, ``cum_hazard_increment`` and ``other_cause_time_inverse``
    take n points of the Lexis plane, which move to (age + s, year + s) at
    follow-up time s: ``age`` is a 1-D array, ``year`` one value or one per
    row and ``stratum`` each row's code (see ``codes``).  They return n
    values; t, u and frailty broadcast against the rows.
    Each row's result equals, bit for bit, the same query on that row alone.
    """

    strata_columns: tuple[str, ...]
    age_min: int
    year_min: int
    rates: np.ndarray  # shape (n_ages, n_years, n_strata)
    strata: tuple[tuple[str, ...], ...]  # the labels of each stratum code
    _code: dict[tuple[str, ...], int] = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("age_min", "year_min"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise DataError(f"{name} must be an integer, got {getattr(self, name)!r}")
        rates = np.array(self.rates, dtype=float)
        strata = tuple(_norm_strata(z) for z in self.strata)
        if rates.ndim != 3 or rates.size == 0:
            raise DataError(f"life table rates of shape {rates.shape} are not a non-empty 3-D grid")
        if len(set(strata)) != len(strata) or len(strata) != rates.shape[2]:
            raise DataError(f"strata {strata} are not {rates.shape[2]} distinct tuples")
        if any(len(z) != len(self.strata_columns) for z in strata):
            raise DataError(f"strata {strata} need one label per column of {self.strata_columns}")
        bad = ~((0.0 <= rates) & (rates < np.inf))
        if bad.any():
            ia, iy, ik = np.argwhere(bad)[0]
            raise DataError(f"rate {rates[ia, iy, ik]} at age={self.age_min + ia}, year="
                            f"{self.year_min + iy}, strata={strata[ik]} is negative or not finite")
        self._freeze(rates=rates, strata=strata, _code={z: k for k, z in enumerate(strata)})

    @property
    def age_max(self) -> int:
        return self.age_min + self.rates.shape[0] - 1

    @property
    def year_max(self) -> int:
        return self.year_min + self.rates.shape[1] - 1

    def codes(self, strata: Iterable[Iterable]) -> np.ndarray:
        """The table's code of each of the caller's distinct strata tuples, in
        order; a tuple the table lacks raises UnknownStratum."""
        try:
            return np.array([self._code[_norm_strata(z)] for z in strata], dtype=np.intp)
        except KeyError as missing:
            raise UnknownStratum(
                f"strata value {missing.args[0]!r} not present in life table "
                f"(columns {list(self.strata_columns)})"
            ) from None

    def _rows(self, age, year, stratum, *values):
        """(stratum, age, year, *values) as arrays, year and values broadcast to the rows."""
        k, n_strata = np.asarray(stratum), self.rates.shape[2]
        if np.ndim(age) != 1 or k.shape != np.shape(age) or k.dtype.kind not in "iu" or not (
            np.all((0 <= k) & (k < n_strata))
        ):
            raise ValueError("a query takes a 1-D age array and one stratum code per row, "
                             f"each in [0, {n_strata})")
        k, *cols = np.broadcast_arrays(k, age, year, *values)
        age, year, *values = (np.asarray(c, dtype=float) for c in cols)
        if not (np.isfinite(age).all() and np.isfinite(year).all()):
            raise ValueError("age and year must be finite")
        return (k, age, year, *values)

    def _rate(self, age, year, k):
        """Rates of the cells containing (age, year), clamped to the table edge."""
        ia = np.minimum(np.maximum(np.floor(age), self.age_min), self.age_max) - self.age_min
        iy = np.minimum(np.maximum(np.floor(year), self.year_min), self.year_max) - self.year_min
        return self.rates[ia.astype(np.intp), iy.astype(np.intp), k]

    def rate_at(self, age, year, stratum):
        """Rate of the cell containing each row (clamped outside the range)."""
        k, age, year = self._rows(age, year, stratum)
        return self._rate(age, year, k)

    def _walk(self, age, year, k, advance_year, end):
        """Walk the patients along their Lexis diagonals, one cell per step, until each is done.

        Each step yields ``(s, s_next, rate)`` over every row: row i covers
        [s[i], s_next[i]] at the rate of the cell containing the segment's
        midpoint.  s_next is the first integer age or calendar-year
        boundary ahead, capped at end[i]; once age and year are both past
        the table edge the rate is constant and s_next is end[i] (inf for an
        open-ended walk).  Boundaries come from integer edges minus the
        start, not from accumulated durations, so they do not drift.

        A row is done once s reaches end; from then on its segments have
        zero length.  The caller may lower ``end`` in place, between steps,
        to finish a row at s_next.  The walk stops once every row is done.
        """
        edge_a = np.floor(age) + 1.0
        edge_y = np.floor(year) + 1.0 if advance_year else np.inf
        s = np.zeros(age.shape)
        while not np.all(s == end):
            next_a = edge_a - age
            next_y = edge_y - year if advance_year else np.inf
            past = age + s >= self.age_max + 1
            if advance_year:
                past &= year + s >= self.year_max + 1
            s_next = np.minimum(np.where(past, np.inf, np.minimum(next_a, next_y)), end)
            mid = 0.5 * (s + s_next)
            yield s, s_next, self._rate(age + mid, year + mid if advance_year else year, k)
            edge_a += s_next == next_a
            if advance_year:
                edge_y += s_next == next_y
            s = s_next

    def cum_hazard_increment(self, age, year, stratum, t, advance_year: bool = True):
        """Exact integral of the rate along each row's diagonal over [0, t].

        Equals H_P(A+t, y+t; z) - H_P(A, y; z) under the piecewise-constant
        convention: each segment of the walk contributes rate x duration,
        summed in walk order.  Past both table edges the constant tail is
        one segment.
        """
        k, age, year, t = self._rows(age, year, stratum, t)
        bad = ~((0.0 <= t) & (t < np.inf))
        if bad.any():
            raise ValueError(f"t must be finite and >= 0, got {t[bad][0]}")
        total = np.zeros(t.shape)
        for s, s_next, rate in self._walk(age, year, k, advance_year, t):
            total += rate * (s_next - s)
        return total

    def other_cause_time_inverse(
        self, age, year, stratum, u, frailty=1.0, advance_year: bool = True,
        horizon: float = np.inf,
    ):
        """Invert the cumulative background hazard: per row, t with ΔH_P(t) = -log(u)/frailty.

        Walks the diagonal until the accumulated hazard reaches the target;
        once both the age and year coordinates have clamped past the table
        edge the rate is constant and the remaining time is solved in closed
        form (extrapolation with the last cell's rate).

        ``horizon`` (> 0, default inf) is the last time the caller can
        observe: a row whose target is not reached within a segment ending
        strictly past it returns inf and leaves the walk.  The segment that
        straddles the horizon keeps its full arithmetic, so every row whose
        time is at most the horizon gets the same bits as with no horizon,
        and a row past it gets inf or that same time.

        Raises ZeroHazardPath when the target cannot be reached because the
        rate past both table edges (the walk's open-ended last segment) is
        zero and the row reaches that segment at or before the horizon; a
        row that reaches it only later returns inf.
        """
        if not horizon > 0.0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        k, age, year, u, frailty = self._rows(age, year, stratum, u, frailty)
        bad = ~((0.0 < u) & (u < 1.0))
        if bad.any():
            raise ValueError(f"u must be in (0, 1), got {u[bad][0]}")
        bad = ~(frailty > 0.0)
        if bad.any():
            raise ValueError(f"frailty must be > 0, got {frailty[bad][0]}")
        # math.log, not np.log: numpy's SIMD log can differ from libm in the
        # last bit, which would move the drawn times
        target = -np.fromiter(map(math.log, u.tolist()), float, count=u.size) / frailty
        out = np.full(u.shape, np.inf)  # the time of a row left past the horizon
        acc = np.zeros(u.shape)
        end = np.full(u.shape, np.inf)
        # a done row's segments are nan (s = inf) or empty: read only live rows
        with np.errstate(invalid="ignore", divide="ignore"):
            for s, s_next, rate in self._walk(age, year, k, advance_year, end):
                live = s < end
                step = rate * (s_next - s)  # nan on a zero-rate tail
                hit = live & (acc + step >= target)
                miss = live ^ hit  # hit rows are live
                stuck = miss & (s_next == np.inf)
                if stuck.any():
                    i = int(np.argmax(stuck))
                    raise ZeroHazardPath(
                        "cumulative hazard exhausted at "
                        f"{acc[i]:.6g} < target {target[i]:.6g} with zero tail rate"
                    )
                i = np.flatnonzero(hit)
                out[i] = np.where(rate[i] > 0.0, s[i] + (target[i] - acc[i]) / rate[i], s[i])
                acc += step
                # the rows hit, and the rest whose segment ends past the horizon, are done
                np.copyto(end, s_next, where=hit | (miss & (s_next > horizon)))
        return out


def _read_csv(
    source: TextIO | str,
    what: str,
    required: Sequence[str],
    parse: Callable[[dict[str, str]], object],
) -> tuple[list[str], list[int], list]:
    """Header, line numbers and parsed data rows of a CSV path or text stream.

    Blank and ``#`` lines are skipped; the first other line is the header,
    whose columns must be distinct.
    ``parse`` maps a row (column -> stripped field) to the caller's values
    and raises ValueError to reject it.  Every failure raises DataError,
    with the line number where there is one and ``what`` naming the file.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return _read_csv(fh, what, required, parse)
    lines = [
        (n, line.strip())
        for n, line in enumerate(source, start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        raise DataError(f"{what} is empty")
    header_no, header = lines[0]
    cols = [c.strip() for c in header.split(",")]
    for i, col in enumerate(cols):
        if col in cols[:i]:
            raise DataError(f"{what} repeats column {col!r} (line {header_no})")
    for col in required:
        if col not in cols:
            raise DataError(f"{what} is missing required column {col!r} (line {header_no})")
    line_nos, rows = [], []
    for line_no, line in lines[1:]:
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != len(cols):
            raise DataError(f"line {line_no}: expected {len(cols)} fields, got {len(fields)}")
        try:
            rows.append(parse(dict(zip(cols, fields))))
        except ValueError as exc:
            raise DataError(f"line {line_no}: {exc}") from None
        line_nos.append(line_no)
    if not rows:
        raise DataError(f"{what} has a header but no data rows")
    return cols, line_nos, rows


def load_life_table(source: TextIO | str) -> LifeTable:
    """Load and validate a life-table CSV (a path or an open text stream).

    Expected header: ``age,year,<strata...>,rate`` with integer age/year,
    decimal rate per person-year, and ``#``-prefixed comment lines ignored.
    The strata columns are every header column other than age, year and
    rate.  Age and year ranges are inferred from the data; every cell
    inside those ranges must be present exactly once.  A file that fails
    any check raises DataError.
    """
    cells: dict[tuple[int, int, tuple[str, ...]], float] = {}

    def parse(row):
        key = (
            int(row["age"]),
            int(row["year"]),
            _norm_strata(v for c, v in row.items() if c not in ("age", "year", "rate")),
        )
        rate = float(row["rate"])
        if not math.isfinite(rate) or rate < 0.0:
            raise ValueError(f"rate {row['rate']} is negative or not finite")
        if key in cells:
            raise ValueError(f"duplicate cell {key}")
        cells[key] = rate

    cols, _, _ = _read_csv(source, "life table", ("age", "year", "rate"), parse)
    ages = sorted({k[0] for k in cells})
    years = sorted({k[1] for k in cells})
    strata = sorted({k[2] for k in cells})
    rates = np.full((ages[-1] - ages[0] + 1, years[-1] - years[0] + 1, len(strata)), np.nan)
    for (age, year, z), rate in cells.items():
        rates[age - ages[0], year - years[0], strata.index(z)] = rate
    if np.isnan(rates).any():
        ia, iy, ik = np.argwhere(np.isnan(rates))[0]
        raise DataError(
            f"missing cell: age={ages[0] + ia}, year={years[0] + iy}, strata={strata[ik]}"
        )
    columns = tuple(c for c in cols if c not in ("age", "year", "rate"))
    return LifeTable(columns, ages[0], years[0], rates, strata)


def make_life_table(
    strata_columns: Sequence[str],
    age_range: tuple[int, int],
    year_range: tuple[int, int],
    rate_fn,
    strata_values: Sequence[tuple[str, ...]],
) -> LifeTable:
    """Build a table programmatically from rate_fn(age, year, strata) -> rate."""
    ages = range(age_range[0], age_range[1] + 1)
    years = range(year_range[0], year_range[1] + 1)
    strata = [_norm_strata(z) for z in strata_values]
    rates = np.empty((len(ages), len(years), len(strata)))
    for i, age in enumerate(ages):
        for j, year in enumerate(years):
            for k, z in enumerate(strata):
                rates[i, j, k] = float(rate_fn(age, year, z))
    return LifeTable(tuple(strata_columns), age_range[0], year_range[0], rates, strata)
