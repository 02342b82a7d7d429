"""Life-table loading, lookup, diagonal integration, and inversion."""

import io
import math
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from exhaz.errors import DataError, UnknownStratum, ZeroHazardPath
from exhaz.lifetable import LifeTable, load_life_table, make_life_table


def table_from_text(text):
    return load_life_table(io.StringIO(text))


def one(table, age, year, strata):
    """One row (age, year, stratum code) of ``table``: the queries take batches only."""
    return np.array([age], dtype=float), np.array([year], dtype=float), table.codes([strata])


def rate_on_diagonal(table, start, s):
    """Rate seen at follow-up time s from a one-row ``start``: rate_at at (age + s, year + s)."""
    age, year, k = start
    return table.rate_at(age + s, year + s, k)[0]


TWO_ROW = """\
age,year,sex,rate
70,2012,0,0.02
71,2012,0,0.03
"""


@pytest.fixture
def small_table():
    # 2 ages x 2 years, one stratum
    return table_from_text(
        "age,year,sex,rate\n"
        "70,2012,0,0.02\n"
        "71,2012,0,0.03\n"
        "70,2013,0,0.025\n"
        "71,2013,0,0.04\n"
    )


@pytest.fixture
def uk_style_table():
    # ages 0-99, years 2010-2016, sex in {0, 1}: 100*7*2 = 1400 cells
    def rate(age, year, strata):
        sex = int(strata[0])
        return 1e-4 * (1 + age / 10) * (1.0 if sex == 0 else 1.3) + 1e-6 * (year - 2010)

    return make_life_table(
        ["sex"], (0, 99), (2010, 2016), rate, [(s,) for s in "01"]
    )


# ---------------------------------------------------------------------------
# loading and validation
# ---------------------------------------------------------------------------

def test_two_row_table_ranges():
    t = table_from_text(TWO_ROW)
    assert (t.age_min, t.age_max) == (70, 71)
    assert (t.year_min, t.year_max) == (2012, 2012)
    assert t.strata_columns == ("sex",)
    assert t.rate_at(*one(t, 70, 2012, ("0",)))[0] == 0.02


def test_negative_rate_rejected():
    with pytest.raises(DataError, match="line 3: rate -0.1 is negative or not finite"):
        table_from_text("age,year,sex,rate\n70,2012,0,0.02\n71,2012,0,-0.1\n")


def test_duplicate_cell_rejected():
    with pytest.raises(DataError, match=r"line 3: duplicate cell \(70, 2012, \('0',\)\)"):
        table_from_text("age,year,sex,rate\n70,2012,0,0.02\n70,2012,0,0.03\n")


def test_gap_inside_range_rejected():
    # age 71 missing between 70 and 72
    with pytest.raises(DataError, match="missing cell: age=71, year=2012"):
        table_from_text("age,year,sex,rate\n70,2012,0,0.02\n72,2012,0,0.03\n")


def test_missing_stratum_cell_rejected():
    with pytest.raises(DataError, match=r"missing cell: age=71, year=2012, strata=\('1',\)"):
        table_from_text(
            "age,year,sex,rate\n70,2012,0,0.02\n70,2012,1,0.03\n71,2012,0,0.02\n"
        )


def test_malformed_row_rejected():
    with pytest.raises(DataError, match="line 2: expected 4 fields, got 3"):
        table_from_text("age,year,sex,rate\n70,2012,0\n")
    with pytest.raises(DataError, match="line 2: invalid literal for int"):
        table_from_text("age,year,sex,rate\n70.5,2012,0,0.02\n")
    with pytest.raises(DataError, match="life table is missing required column 'rate'"):
        table_from_text("age,year,sex\n70,2012,0\n")
    with pytest.raises(DataError, match="life table has a header but no data rows"):
        table_from_text("# comment\nage,year,sex,rate\n")


def test_a_repeated_column_is_rejected():
    # the second rate column would otherwise overwrite the first
    with pytest.raises(DataError, match=r"life table repeats column 'rate' \(line 2\)"):
        table_from_text("# comment\nage,year,sex,rate,rate\n70,2012,0,0.02,0.03\n")


SEX = (("0",), ("1",))


def grid(bad=None):
    """Rates of ages 70-71 x year 2012 x SEX, with ``bad`` at (71, 2012, "1")."""
    rates = np.array([[[0.02, 0.03]], [[0.025, 0.04]]])
    if bad is not None:
        rates[1, 0, 1] = bad
    return rates


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
def test_constructor_rejects_a_bad_rate_naming_its_cell(bad):
    message = re.escape(f"rate {bad} at age=71, year=2012, strata=('1',) is negative or not finite")
    with pytest.raises(DataError, match=message):
        LifeTable(("sex",), 70, 2012, grid(bad), SEX)

    def rate(age, year, strata):
        return grid(bad)[age - 70, 0, int(strata[0])]

    # a table made from a rate function passes the same check
    with pytest.raises(DataError, match=message):
        make_life_table(["sex"], (70, 71), (2012, 2012), rate, SEX)


@pytest.mark.parametrize(
    "rates, strata, message",
    [
        (grid(), (("0",),), "strata (('0',),) are not 2 distinct tuples"),
        (grid(), (*SEX, ("2",)), "strata (('0',), ('1',), ('2',)) are not 2 distinct tuples"),
        (grid(), (("0",), (" 0",)), "strata (('0',), ('0',)) are not 2 distinct tuples"),
        (grid()[:, 0, :], SEX, "life table rates of shape (2, 2) are not a non-empty 3-D grid"),
        (np.zeros((0, 1, 2)), SEX, "of shape (0, 1, 2) are not a non-empty 3-D grid"),
    ],
    ids=["too-few", "too-many", "duplicate", "2-D", "empty"],
)
def test_constructor_rejects_strata_that_do_not_match_the_grid(rates, strata, message):
    with pytest.raises(DataError, match=re.escape(message)):
        LifeTable(("sex",), 70, 2012, rates, strata)


def test_table_is_frozen_holds_its_own_read_only_rates_and_compares_by_identity():
    rates = grid()
    t = LifeTable(("sex",), 70, 2012, rates, [["0"], [1]])
    rates[0, 0, 0] = 9.0
    assert t.rates[0, 0, 0] == 0.02 and not t.rates.flags.writeable
    assert (t.age_max, t.year_max, t.strata) == (71, 2012, SEX)
    assert t.codes([("1",), (0,)]).tolist() == [1, 0]
    for name, value in (("age_min", 50), ("rates", rates), ("strata", SEX)):
        with pytest.raises(FrozenInstanceError):
            setattr(t, name, value)
    twin = LifeTable(("sex",), 70, 2012, grid(), SEX)
    assert t == t and t != twin and len({t, twin}) == 2


def test_comments_and_blank_lines_ignored():
    t = table_from_text("# comment\nage,year,sex,rate\n\n70,2012,0,0.02\n# more\n")
    assert t.rates.size == 1


def test_uk_style_cell_count(uk_style_table):
    assert uk_style_table.rates.size == 100 * 7 * 2
    # every cell queryable
    for age in (0, 50, 99):
        for year in (2010, 2016):
            for sex in ("0", "1"):
                assert uk_style_table.rate_at(*one(uk_style_table, age, year, (sex,)))[0] > 0


# ---------------------------------------------------------------------------
# rate_at
# ---------------------------------------------------------------------------

def test_rate_constant_within_cell():
    t = table_from_text(TWO_ROW)
    assert t.rate_at(*one(t, 70.4, 2012.4, ("0",)))[0] == 0.02
    assert t.rate_at(*one(t, 70.999, 2012.0, ("0",)))[0] == 0.02


def test_rate_clamps_above_max_age(uk_style_table):
    top = uk_style_table.rate_at(*one(uk_style_table, 99, 2012, ("0",)))[0]
    assert uk_style_table.rate_at(*one(uk_style_table, 105, 2012, ("0",)))[0] == top
    assert uk_style_table.rate_at(*one(uk_style_table, 99.5, 2012, ("0",)))[0] == top


def test_rate_clamps_below_min_and_outside_years(small_table):
    assert small_table.rate_at(*one(small_table, 60, 2012, ("0",)))[0] == 0.02
    assert small_table.rate_at(*one(small_table, 70, 1999, ("0",)))[0] == 0.02
    assert small_table.rate_at(*one(small_table, 70, 2050, ("0",)))[0] == 0.025


def test_unknown_stratum(small_table):
    with pytest.raises(UnknownStratum, match=r"strata value \('2',\) not present in life table"):
        small_table.codes([("0",), ("2",)])


def test_strata_matched_after_trimming(small_table):
    assert small_table.codes([(" 0 ",), (0,)]).tolist() == [0, 0]
    assert small_table.rate_at(*one(small_table, 70, 2012, (" 0 ",)))[0] == 0.02
    assert small_table.rate_at(*one(small_table, 70, 2012, (0,)))[0] == 0.02


def test_codes_follow_the_table_order_of_strata():
    t = make_life_table(["sex"], (60, 61), (2000, 2000), lambda a, y, z: 0.01, [("1",), ("0",)])
    assert t.codes([("0",), ("1",), ("0",)]).tolist() == [1, 0, 1]
    assert t.codes([]).dtype == np.intp and t.codes([]).size == 0


# ---------------------------------------------------------------------------
# cum_hazard_increment
# ---------------------------------------------------------------------------

def test_constant_rate_times_duration():
    def rate(age, year, strata):
        return 0.02

    t = make_life_table(["sex"], (60, 90), (2000, 2020), rate, [("0",)])
    got = t.cum_hazard_increment(*one(t, 70.0, 2010.0, ("0",)), 3.0)[0]
    assert got == pytest.approx(0.06, abs=1e-15)


def test_zero_duration(small_table):
    assert small_table.cum_hazard_increment(*one(small_table, 70.5, 2012.5, ("0",)), 0.0)[0] == 0.0


def test_hand_integrated_three_segments():
    # A=70.5, y=2012.0; cells: (70,2012)=0.02, (71,2012)=0.03, (71,2013)=0.04
    # t=1.2 crosses age 71 at s=0.5 and year 2013 at s=1.0:
    # 0.02*0.5 + 0.03*0.5 + 0.04*0.2 = 0.033
    t = table_from_text(
        "age,year,sex,rate\n"
        "70,2012,0,0.02\n"
        "71,2012,0,0.03\n"
        "70,2013,0,0.09\n"
        "71,2013,0,0.04\n"
    )
    pos = one(t, 70.5, 2012.0, ("0",))
    assert t.cum_hazard_increment(*pos, 1.2)[0] == pytest.approx(0.033, abs=1e-15)
    # cross-check against adaptive quadrature of rate_at along the diagonal
    num, _ = quad(lambda s: rate_on_diagonal(t, pos, s), 0, 1.2, points=[0.5, 1.0], limit=200)
    assert t.cum_hazard_increment(*pos, 1.2)[0] == pytest.approx(num, rel=1e-10)


def test_agrees_with_quadrature_on_random_tables():
    rng = np.random.default_rng(20240817)
    for trial in range(5):
        rates = rng.uniform(0.0, 0.5, size=(6, 4, 2))

        def rate(age, year, strata, rates=rates):
            return rates[age - 70, year - 2010, int(strata[0])]

        t = make_life_table(["sex"], (70, 75), (2010, 2013), rate, [("0",), ("1",)])
        rows = []
        for _ in range(10):
            a0 = rng.uniform(68.0, 77.0)
            y0 = rng.uniform(2009.0, 2014.0)
            dt = rng.uniform(0.0, 8.0)
            sex = rng.choice(["0", "1"])
            pos = one(t, a0, y0, (sex,))
            exact = t.cum_hazard_increment(*pos, dt)[0]
            rows.append((a0, y0, (sex,), dt, exact))
            # integrate piecewise between all breakpoints for full precision
            brk = sorted(
                {0.0, dt}
                | {s for k in range(1, 20) if 0 < (s := math.floor(a0) + k - a0) < dt}
                | {s for k in range(1, 20) if 0 < (s := math.floor(y0) + k - y0) < dt}
            )
            num = 0.0
            for lo, hi in zip(brk[:-1], brk[1:]):
                piece, _ = quad(lambda s: rate_on_diagonal(t, pos, s), lo, hi, limit=100)
                num += piece
            assert exact == pytest.approx(num, rel=1e-10, abs=1e-12)
        # the same cases as one batch call, bit for bit with the one-row calls
        a0, y0, strata, dt, exact = zip(*rows)
        batch = t.cum_hazard_increment(np.array(a0), np.array(y0), t.codes(strata), dt)
        assert batch.tolist() == list(exact)


def test_additivity():
    t = table_from_text(
        "age,year,sex,rate\n"
        "70,2012,0,0.02\n"
        "71,2012,0,0.03\n"
        "70,2013,0,0.09\n"
        "71,2013,0,0.04\n"
    )
    start = one(t, 70.3, 2012.1, ("0",))
    age, year, k = start
    for s, dt in [(0.25, 0.5), (0.5, 1.3), (1.0, 2.0)]:
        whole = t.cum_hazard_increment(*start, s + dt)[0]
        first = t.cum_hazard_increment(*start, s)[0]
        rest = t.cum_hazard_increment(age + s, year + s, k, dt)[0]
        assert whole == pytest.approx(first + rest, rel=1e-12, abs=1e-15)


def test_monotone_in_t(uk_style_table):
    pos = one(uk_style_table, 64.3, 2011.7, ("1",))
    grid = np.linspace(0, 12, 60)
    vals = [uk_style_table.cum_hazard_increment(*pos, float(s))[0] for s in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_frozen_year_mode():
    t = table_from_text(
        "age,year,sex,rate\n"
        "70,2012,0,0.02\n"
        "71,2012,0,0.03\n"
        "70,2013,0,0.09\n"
        "71,2013,0,0.04\n"
    )
    pos = one(t, 70.5, 2012.0, ("0",))
    # year frozen at 2012: 0.02*0.5 + 0.03*0.7
    got = t.cum_hazard_increment(*pos, 1.2, advance_year=False)[0]
    assert got == pytest.approx(0.02 * 0.5 + 0.03 * 0.7, abs=1e-15)
    # year frozen at 2013: 0.09*0.5 + 0.04*0.7
    later = one(t, 70.5, 2013.4, ("0",))
    assert t.cum_hazard_increment(*later, 1.2, advance_year=False)[0] == pytest.approx(
        0.09 * 0.5 + 0.04 * 0.7, abs=1e-15
    )
    # batch with per-row ages, years and times, including rows past age_max
    ages = np.array([70.5, 70.5, 69.2, 71.7, 70.0])
    years = np.array([2012.0, 2013.4, 2012.9, 2011.0, 2014.2])
    dts = np.array([1.2, 1.2, 3.5, 2.25, 0.0])
    strata = [("0",)] * len(ages)
    batch = t.cum_hazard_increment(ages, years, t.codes(strata), dts, advance_year=False)
    rows = [
        t.cum_hazard_increment(*one(t, a, y, ("0",)), d, advance_year=False)[0]
        for a, y, d in zip(ages, years, dts)
    ]
    assert batch.tolist() == rows
    u = np.exp(-np.array([0.01, 0.05, 0.2, 1.0, 3.0]))
    inv = t.other_cause_time_inverse(ages, years, t.codes(strata), u, advance_year=False)
    rows = [
        t.other_cause_time_inverse(*one(t, a, y, ("0",)), v, advance_year=False)[0]
        for a, y, v in zip(ages, years, u)
    ]
    assert inv.tolist() == rows


# ---------------------------------------------------------------------------
# other_cause_time_inverse
# ---------------------------------------------------------------------------

def test_inverse_constant_rate():
    t = make_life_table(["sex"], (60, 90), (2000, 2020), lambda a, y, s: 0.02, [("0",)])
    pos = one(t, 70.0, 2010.0, ("0",))
    got = t.other_cause_time_inverse(*pos, math.exp(-0.06))[0]
    assert got == pytest.approx(3.0, rel=1e-12)


def test_inverse_u_near_one_gives_tiny_t(small_table):
    pos = one(small_table, 70.0, 2012.0, ("0",))
    t = small_table.other_cause_time_inverse(*pos, 1 - 1e-12)[0]
    assert 0 < t < 1e-9


def test_inverse_of_hand_integrated_case():
    t = table_from_text(
        "age,year,sex,rate\n"
        "70,2012,0,0.02\n"
        "71,2012,0,0.03\n"
        "70,2013,0,0.09\n"
        "71,2013,0,0.04\n"
    )
    pos = one(t, 70.5, 2012.0, ("0",))
    got = t.other_cause_time_inverse(*pos, math.exp(-0.033))[0]
    assert got == pytest.approx(1.2, rel=1e-10)


def test_inverse_round_trips_through_increment(uk_style_table):
    rng = np.random.default_rng(7)
    rows = []
    for _ in range(50):
        age, year = rng.uniform(30, 98), rng.uniform(2010, 2016)
        stratum = (str(rng.integers(2)),)
        pos = one(uk_style_table, age, year, stratum)
        u = float(rng.uniform(1e-6, 1 - 1e-6))
        frailty = float(rng.gamma(2.0, 0.5))
        tt = uk_style_table.other_cause_time_inverse(*pos, u, frailty=frailty)[0]
        back = uk_style_table.cum_hazard_increment(*pos, tt)[0]
        assert back == pytest.approx(-math.log(u) / frailty, rel=1e-10, abs=1e-12)
        rows.append((age, year, stratum, u, frailty, tt, back))
    # the same cases as one batch call, bit for bit with the one-row calls
    age, year, strata, u, frailty, tt, back = map(list, zip(*rows))
    batch = (np.array(age), np.array(year), uk_style_table.codes(strata))
    assert uk_style_table.other_cause_time_inverse(*batch, u, frailty=frailty).tolist() == tt
    assert uk_style_table.cum_hazard_increment(*batch, tt).tolist() == back


def test_inverse_extrapolates_past_max_age():
    # table ends at 71; deep target must extrapolate with the age-71 rate
    t = table_from_text(TWO_ROW)
    pos = one(t, 70.0, 2012.0, ("0",))
    u = math.exp(-1.0)  # target 1.0 >> 0.02 + 0.03 available inside
    got = t.other_cause_time_inverse(*pos, u)[0]
    # 0.02*1 + 0.03*(t-1) = 1  =>  t = 1 + 0.98/0.03
    assert got == pytest.approx(1 + 0.98 / 0.03, rel=1e-12)
    assert t.cum_hazard_increment(*pos, got)[0] == pytest.approx(1.0, rel=1e-12)
    # batch: one row inside the table, the others extrapolated past age 71
    ages = np.array([70.0, 70.0, 71.5, 75.0])
    u = np.exp(-np.array([0.01, 1.0, 2.0, 0.5]))
    batch = (ages, 2012.0, t.codes([("0",)] * 4))
    got = t.other_cause_time_inverse(*batch, u)
    rows = [t.other_cause_time_inverse(*one(t, a, 2012.0, ("0",)), v)[0] for a, v in zip(ages, u)]
    assert got.tolist() == rows
    assert got[3] == pytest.approx(0.5 / 0.03, rel=1e-12)
    assert t.cum_hazard_increment(*batch, got) == pytest.approx(-np.log(u), rel=1e-12)


def test_inverse_with_frailty_scales_target():
    t = make_life_table(["sex"], (60, 90), (2000, 2020), lambda a, y, s: 0.02, [("0",)])
    pos = one(t, 70.0, 2010.0, ("0",))
    # solve 4 * H(t) = 0.06  =>  H(t) = 0.015  =>  t = 0.75
    got = t.other_cause_time_inverse(*pos, math.exp(-0.06), frailty=4.0)[0]
    assert got == pytest.approx(0.75, rel=1e-12)


def test_zero_hazard_path_raises():
    t = make_life_table(["sex"], (60, 65), (2000, 2001), lambda a, y, s: 0.0, [("0",)])
    with pytest.raises(ZeroHazardPath):
        t.other_cause_time_inverse(*one(t, 60.0, 2000.0, ("0",)), 0.5)
    # in a batch, one row on a zero-rate tail raises for the whole call
    t = make_life_table(
        ["sex"], (60, 65), (2000, 2001), lambda a, y, s: 0.1 if s == ("1",) else 0.0,
        [("0",), ("1",)],
    )
    ok = (np.array([60.0, 62.5]), 2000.0, t.codes([("1",), ("1",)]))
    assert t.other_cause_time_inverse(*ok, 0.5).tolist() == [
        t.other_cause_time_inverse(*one(t, a, 2000.0, ("1",)), 0.5)[0] for a in (60.0, 62.5)
    ]
    with pytest.raises(ZeroHazardPath):
        t.other_cause_time_inverse(
            np.array([60.0, 62.5, 61.0]), 2000.0, t.codes([("1",), ("0",), ("1",)]), 0.5
        )


def test_inverse_rejects_bad_u(small_table):
    pos = one(small_table, 70.0, 2012.0, ("0",))
    with pytest.raises(ValueError):
        small_table.other_cause_time_inverse(*pos, 0.0)
    with pytest.raises(ValueError):
        small_table.other_cause_time_inverse(*pos, 1.0)


def test_queries_take_batches_only(small_table):
    # a scalar age is not a batch, and every row needs its own integer stratum code
    for pos in (
        (70.0, 2012.0, np.array([0])),
        (np.array([70.0, 71.0]), 2012.0, np.array([0])),
        (np.array([70.0, 71.0]), 2012.0, np.array([0.0, 0.0])),
    ):
        with pytest.raises(ValueError, match="one stratum code per row"):
            small_table.rate_at(*pos)
    # a code must index one of the table's strata: -1 must not wrap to the last
    for code in (-1, 1):
        with pytest.raises(ValueError, match=r"each in \[0, 1\)"):
            small_table.rate_at(np.array([70.0, 71.0]), 2012.0, np.array([0, code]))


# ---------------------------------------------------------------------------
# the walk drops the rows it has finished
# ---------------------------------------------------------------------------

def walk_table():
    """Ages 60-64, years 2000-2002, two strata, rates in [0.01, 0.1]: short
    enough that rows walk past both table edges within a few steps."""
    rates = np.random.default_rng(11).uniform(0.01, 0.1, size=(5, 3, 2))
    return make_life_table(
        ["sex"], (60, 64), (2000, 2002), lambda a, y, z: rates[a - 60, y - 2000, int(z[0])],
        [("0",), ("1",)],
    )


def hexes(values):
    return [float.hex(float(v)) for v in values]


def assert_rows_match_one_row_calls(table, ages, years, strata, t, u, frailty, advance_year):
    """Batch results equal, bit for bit, the same queries on each row alone."""
    batch = (np.array(ages), np.array(years), table.codes(strata))
    alone = [one(table, a, y, z) for a, y, z in zip(ages, years, strata)]
    got = table.cum_hazard_increment(*batch, t, advance_year=advance_year)
    want = [table.cum_hazard_increment(*p, d, advance_year=advance_year)[0] for p, d in zip(alone, t)]
    assert hexes(got) == hexes(want)
    got = table.other_cause_time_inverse(*batch, u, frailty=frailty, advance_year=advance_year)
    want = [
        table.other_cause_time_inverse(*p, v, frailty=f, advance_year=advance_year)[0]
        for p, v, f in zip(alone, u, frailty)
    ]
    assert hexes(got) == hexes(want)


@pytest.mark.parametrize("advance_year", [True, False])
def test_rows_finishing_at_different_steps_match_one_row_calls(advance_year):
    table = walk_table()
    # first step; a few steps; past age_max first; already past both edges;
    # from below both edges to past them; t = 0; an edge hit exactly at t
    ages = [60.5, 61.3, 63.7, 70.0, 58.2, 62.4, 61.0]
    years = [2000.8, 2001.1, 2000.2, 2005.0, 1998.6, 2001.9, 2000.0]
    strata = [("0",), ("1",), ("1",), ("0",), ("1",), ("0",), ("0",)]
    t = [0.1, 2.5, 6.0, 3.0, 12.0, 0.0, 2.0]
    u = [0.999, 0.8, 0.3, 0.5, 0.05, 0.97, 0.9]
    frailty = [1.0, 2.5, 0.7, 1.3, 0.4, 1.0, 3.0]
    assert_rows_match_one_row_calls(table, ages, years, strata, t, u, frailty, advance_year)
    # one year for every row gives the bits of that year repeated per row
    one_year = (np.array(ages), 2000.8, table.codes(strata))
    per_row = (np.array(ages), np.full(len(ages), 2000.8), table.codes(strata))
    for query, arg in ((table.cum_hazard_increment, t), (table.other_cause_time_inverse, u)):
        assert hexes(query(*one_year, arg, advance_year=advance_year)) == hexes(
            query(*per_row, arg, advance_year=advance_year)
        )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(55.0, 70.0),
            st.floats(1997.0, 2005.0),
            st.sampled_from(["0", "1"]),
            st.floats(0.0, 15.0),
            st.floats(1e-6, 1.0 - 1e-6),
            st.floats(0.2, 5.0),
        ),
        min_size=1,
        max_size=12,
    ),
    st.booleans(),
)
def test_batch_matches_one_row_calls_property(rows, advance_year):
    ages, years, strata, t, u, frailty = zip(*rows)
    strata = [(z,) for z in strata]
    assert_rows_match_one_row_calls(walk_table(), ages, years, strata, t, u, frailty, advance_year)


def test_walk_steps_only_the_rows_still_walking(monkeypatch):
    table = walk_table()
    sizes = []
    rate = LifeTable._rate

    def counting_rate(self, age, year, k):
        sizes.append(age.size)
        return rate(self, age, year, k)

    monkeypatch.setattr(LifeTable, "_rate", counting_rate)

    # 96 rows end inside their first cell; 4 walk past age_max (s >= 6.7)
    # and year_max (s >= 3.4) before they end
    n_short, n_long = 96, 4
    ages = np.array([61.5] * n_short + [58.3] * n_long)
    years = np.array([2000.5] * n_short + [1999.6] * n_long)
    strata = [("0",), ("1",)] * ((n_short + n_long) // 2)
    t = np.array([0.1] * n_short + [15.0] * n_long)
    u = np.array([0.999] * n_short + [1e-4] * n_long)
    batch = (ages, years, table.codes(strata))
    for query, arg in ((table.cum_hazard_increment, t), (table.other_cause_time_inverse, u)):
        row_steps = []
        for a, y, z, v in zip(ages, years, strata, arg):
            sizes.clear()
            query(*one(table, a, y, z), v)
            row_steps.append(len(sizes))
        assert max(row_steps[n_short:]) > 5 and max(row_steps[:n_short]) == 1
        sizes.clear()
        query(*batch, arg)
        # each step walks the rows still live at that step, and no others
        assert sizes == [sum(s > j for s in row_steps) for j in range(max(row_steps))]
        assert sum(sizes) < 0.2 * len(sizes) * len(ages)


def test_zero_tail_after_finished_rows_reports_its_own_hazard_and_target():
    # stratum "0" has rate 0.05 below age 63 and 0 from 63 on, tail included
    t = make_life_table(
        ["sex"], (60, 65), (2000, 2001),
        lambda a, y, z: 0.1 if z == ("1",) else (0.05 if a < 63 else 0.0),
        [("0",), ("1",)],
    )
    # two rows finish in the first step, one walks into the tail and is
    # still live when the zero-tail row (last) is found stuck
    ages = np.array([60.0, 61.0, 60.0, 60.0])
    strata = [("1",), ("1",), ("1",), ("0",)]
    u = np.array([0.99, 0.999, 0.01, 0.5])
    frailty = np.array([1.0, 1.0, 1.0, 2.0])
    with pytest.raises(ZeroHazardPath, match=r"at 0\.15 < target 0\.346574 "):
        t.other_cause_time_inverse(ages, 2000.0, t.codes(strata), u, frailty=frailty)


# ---------------------------------------------------------------------------
# the inversion stops at the horizon
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("advance_year", [True, False])
@pytest.mark.parametrize("horizon", [0.3, 1.0, 5.0, 12.5])
def test_horizon_keeps_every_time_it_can_see(uk_style_table, advance_year, horizon):
    # both strata, frailties from 0.05 to 50: a time at most the horizon has
    # the full inversion's bits, and one past it is inf or those same bits
    rng = np.random.default_rng(23)
    n = 400
    ages = rng.uniform(30.0, 85.0, n)
    years = np.where(rng.uniform(size=n) < 0.5, 2010.0, rng.uniform(2010.0, 2016.0, n))
    codes = uk_style_table.codes([(str(z),) for z in rng.integers(0, 2, n)])
    u = np.exp(-(10.0 ** rng.uniform(-6.0, 0.5, n)))  # targets from 1e-6 to 3 before frailty
    frailty = np.exp(rng.uniform(math.log(0.05), math.log(50.0), n))
    batch = (ages, years, codes, u)
    query = uk_style_table.other_cause_time_inverse
    full = query(*batch, frailty=frailty, advance_year=advance_year)
    cut = query(*batch, frailty=frailty, advance_year=advance_year, horizon=horizon)
    seen = full <= horizon
    assert 0 < seen.sum() < n  # both kinds of row are in the batch
    assert hexes(cut[seen]) == hexes(full[seen])
    assert np.all(np.isinf(cut[~seen]) | (cut[~seen] == full[~seen]))
    assert np.isinf(cut).sum() > 0.5 * (~seen).sum()  # most unseen rows leave the walk early


def test_an_infinite_horizon_walks_to_the_end(uk_style_table):
    rng = np.random.default_rng(5)
    ages = rng.uniform(30.0, 95.0, 50)
    batch = (ages, 2010.0, uk_style_table.codes([("1",)] * 50), rng.uniform(1e-6, 0.9, 50))
    today = uk_style_table.other_cause_time_inverse(*batch, frailty=0.5)
    assert np.isfinite(today).all() and today.max() > 20.0
    assert hexes(uk_style_table.other_cause_time_inverse(*batch, frailty=0.5, horizon=np.inf)) == (
        hexes(today)
    )


def test_a_time_reached_just_past_the_year_edge_at_the_horizon_stays_finite():
    # diagnosed in an integer year, the row crosses a year edge exactly at
    # s = 5.0; its target lies a hair past the hazard at that edge, in a cell
    # whose rate is high enough that the time rounds to 5.0 itself
    t = make_life_table(
        ["sex"], (60, 80), (2005, 2020), lambda a, y, z: 10.0 if y >= 2015 else 0.01, [("0",)]
    )
    pos = one(t, 65.3, 2010.0, ("0",))
    h5 = t.cum_hazard_increment(*pos, 5.0)[0]
    u = math.exp(-h5)
    while not -math.log(u) > h5:
        u = math.nextafter(u, 0.0)
    full = t.other_cause_time_inverse(*pos, u)[0]
    assert full == 5.0
    assert t.other_cause_time_inverse(*pos, u, horizon=5.0)[0] == 5.0
    # a target just short of the edge's hazard is reached before it
    short = math.nextafter(math.exp(-h5), 1.0)
    assert t.other_cause_time_inverse(*pos, short, horizon=5.0)[0] < 5.0


@pytest.mark.parametrize("advance_year", [True, False])
def test_zero_hazard_path_is_raised_only_for_a_tail_within_the_horizon(advance_year):
    # every rate is zero, so the walk reaches the open-ended tail past both
    # edges (age 66 and, when the year advances, 2002) at s = 6 unreached
    t = make_life_table(["sex"], (60, 65), (2000, 2001), lambda a, y, z: 0.0, [("0",)])
    pos = one(t, 60.0, 2000.0, ("0",))
    for horizon in (6.0, 10.0, np.inf):
        with pytest.raises(ZeroHazardPath):
            t.other_cause_time_inverse(*pos, 0.5, advance_year=advance_year, horizon=horizon)
    for horizon in (0.5, 5.0, 5.999):
        got = t.other_cause_time_inverse(*pos, 0.5, advance_year=advance_year, horizon=horizon)
        assert got.tolist() == [math.inf]


@pytest.mark.parametrize("horizon", [math.nan, 0.0, -1.0, -math.inf])
def test_horizon_must_be_positive(small_table, horizon):
    with pytest.raises(ValueError, match="horizon must be > 0"):
        small_table.other_cause_time_inverse(*one(small_table, 70.0, 2012.0, ("0",)), 0.5,
                                             horizon=horizon)
