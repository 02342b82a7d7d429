"""Print a digest of the cohorts the presets draw, to check a change bit for bit.

Usage, from the repository root:

    python3 tools/cohort_digest.py > digest.txt

Run it in two checkouts and diff the two outputs: any change to the life
table, its walk, cohort generation or drop-out calibration that moves a
bit shows as a changed line.  It imports ``exhaz`` from the ``src/`` next
to this directory.

For each preset of ``builtin_scenarios`` at n=2000, with ``advance_year``
true and false, and for replicates 0 and 3, it prints one line with the
sha256 of the ``time``, ``status``, ``dhp`` and ``hp`` bytes of
``replicate_cohort``'s cohort, the one the recovery study fits.  A preset
with a drop-out target first prints the sha256 of the ``t_event`` and
``e_drop`` bytes of its calibration pilot (``PILOT_N`` patients), then one
line with its calibrated rate and the censoring the calibration reached,
both as ``float.hex``; its cohorts under both ``advance_year`` settings
use that rate, calibrated with the preset's own setting.  Each preset's
last line digests replicate 0 drawn with ``admin_censor_time=inf`` (and
its own ``advance_year``), so the other-cause inversion walks every
diagonal to the end rather than stopping at the censoring horizon.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from exhaz.simulation import (  # noqa: E402
    _pilot_times,
    builtin_scenarios,
    calibrate_dropout_rate,
    design_life_table,
    replicate_cohort,
)

N = 2000
REPLICATES = (0, 3)
PILOT_N = 100_000  # calibrate_dropout_rate's default pilot


def digest_lines(table):
    """The output lines, in order, for the presets drawn against ``table``."""
    for name, sc in builtin_scenarios().items():
        sc = replace(sc, n=N)
        if sc.dropout_target is not None:
            yield f"{name} pilot={PILOT_N} {sha256_of(*_pilot_times(sc, table, PILOT_N))}"
            rate, censoring = calibrate_dropout_rate(sc, sc.dropout_target, table)
            yield f"{name} dropout_rate={rate.hex()} censoring={censoring.hex()}"
            sc = replace(sc, dropout_rate=rate, dropout_target=None)
        for advance_year in (True, False):
            run = replace(sc, advance_year=advance_year)
            for index in REPLICATES:
                digest = cohort_digest(run, index, table)
                yield f"{name} advance_year={advance_year} replicate={index} {digest}"
        run = replace(sc, admin_censor_time=math.inf)
        yield f"{name} admin_censor_time=inf replicate=0 {cohort_digest(run, 0, table)}"


def cohort_digest(sc, index, table):
    """sha256 of the replicate's ``time``, ``status``, ``dhp`` and ``hp`` bytes."""
    cohort = replicate_cohort(sc, index, table)
    return sha256_of(cohort.time, cohort.status, cohort.dhp, cohort.hp)


def sha256_of(*columns):
    """sha256 of the columns' bytes, in order."""
    h = hashlib.sha256()
    for column in columns:
        h.update(column.tobytes())
    return h.hexdigest()


def main() -> int:
    for line in digest_lines(design_life_table()):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
