"""Device-table ingestion, validation and grouping for the loss fits.

The table format mirrors the measurement summary: frequencies cyclic
(GHz/MHz), lifetimes in us, Purcell limits in ms, quality factors in units
of 1e6 and participation ratios in units of 1e-4.  Records store Q and the
participations in absolute units; the file keeps the publication-style
scaling for fidelity.  Standard deviations are optional (multi-round
statistics are not available for every device).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from operator import attrgetter
from typing import Iterable, Sequence

from .errors import (RecordValidationError, TableFormatError, is_finite, parse_csv,
                     read_text, write_csv)
from .lossmodel import LossDataPoint

GEOMETRIES = ("interdigital_2d", "dumbbell_2d", "dumbbell_3d")

#: The device-table format, one entry per file column: the column name, the
#: ``DeviceRecord`` field it fills, the factor from file units to record units
#: (None for text) and whether the cell may be left empty.
_COLUMNS = (
    ("device_id", "device_id", None, False),
    ("geometry", "geometry", None, False),
    ("omega_q_ghz", "omega_q_ghz", 1.0, False),
    ("omega_c_ghz", "omega_c_ghz", 1.0, False),
    ("g_mhz", "g_mhz", 1.0, False),
    ("t1_mean_us", "t1_mean_us", 1.0, False),
    ("t1_std_us", "t1_std_us", 1.0, True),
    ("t_purcell_ms", "t_purcell_ms", 1.0, False),
    ("q_mean_1e6", "q_mean", 1e6, False),
    ("q_std_1e6", "q_std", 1e6, True),
    ("p_sm_1e4", "p_sm", 1e-4, False),
    ("p_j_1e4", "p_j", 1e-4, False),
)
COLUMNS = tuple(column for column, *_ in _COLUMNS)


@dataclass
class DeviceRecord:
    """One measured transmon device."""

    device_id: str
    geometry: str
    omega_q_ghz: float
    omega_c_ghz: float
    g_mhz: float
    t1_mean_us: float
    t1_std_us: float | None
    t_purcell_ms: float
    q_mean: float
    q_std: float | None
    p_sm: float
    p_j: float

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        def fail(field_name: str, message: str):
            raise RecordValidationError(
                f"device {self.device_id}: field '{field_name}' {message}"
            )

        if self.geometry not in GEOMETRIES:
            fail("geometry", f"must be one of {GEOMETRIES}, got {self.geometry!r}")
        if "-" not in self.device_id:
            fail("device_id", "must look like '<die>-<index>'")
        for name in ("omega_q_ghz", "omega_c_ghz", "g_mhz", "t1_mean_us",
                     "t_purcell_ms", "q_mean", "p_sm", "p_j"):
            value = getattr(self, name)
            if not (is_finite(value) and value > 0):
                fail(name, "must be finite and > 0")
        if not self.omega_c_ghz > self.omega_q_ghz:
            fail("omega_c_ghz", "must exceed omega_q_ghz (dispersive readout)")
        if not self.t_purcell_ms * 1e3 > self.t1_mean_us:
            fail("t_purcell_ms", "must exceed the measured T1")
        for name in ("t1_std_us", "q_std"):
            value = getattr(self, name)
            if value is not None and not (is_finite(value) and value >= 0):
                fail(name, "must be finite and >= 0 when present")

    @property
    def die_id(self) -> str:
        """Die label parsed from the device id prefix before the hyphen."""
        return self.device_id.split("-", 1)[0]


def _record_from_row(row: dict) -> DeviceRecord:
    if None in row:  # DictReader files the cells beyond the header there
        raise ValueError(f"{len(COLUMNS) + len(row[None])} cells, "
                         f"header has {len(COLUMNS)}")
    values = {}
    for column, name, factor, optional in _COLUMNS:
        if row[column] is None:
            raise ValueError(f"no {column} cell")
        cell = row[column].strip()
        if factor is not None:
            cell = None if optional and not cell else float(cell) * factor
        values[name] = cell
    return DeviceRecord(**values)


def load_device_table(path) -> list[DeviceRecord]:
    """Parse and validate a device table CSV.

    Raises :class:`TableFormatError` for text that is not UTF-8, a wrong
    header or an unparseable row (with its row number),
    :class:`RecordValidationError` when a row violates a field invariant
    and :class:`InvalidInputError` for a file that cannot be read.
    """
    return _load_records(read_text(path, malformed=TableFormatError), str(path))


def _load_records(text: str, source: str) -> list[DeviceRecord]:
    header, rows = parse_csv(text, source, malformed=TableFormatError)
    if header is None or tuple(header) != COLUMNS:
        raise TableFormatError(
            f"{source}: header must be {','.join(COLUMNS)}, got {header}"
        )
    records = []
    for i, row in enumerate(rows, start=2):
        try:
            records.append(_record_from_row(row))
        except RecordValidationError:
            raise
        except ValueError as exc:
            raise TableFormatError(f"{source}: malformed row {i}: {exc}") from exc
    return records


def bundled_device_table() -> list[DeviceRecord]:
    """The TiN-on-sapphire transmon dataset shipped with the package.

    32 devices across 9 dies and 13 capacitor designs.  Every record is
    internally consistent: recomputing Q from (T1, T_Purcell, omega_q)
    reproduces the tabulated Q within 5% (publication rounding).  One
    further measured device was dropped during curation because its
    lifetime and quality-factor entries disagree by ~60% under that
    identity, so one design appears without its interdigital sibling on
    die D5.
    """
    path = resources.files("qsurfloss.data").joinpath("devices.csv")
    return _load_records(read_text(path), "bundled devices.csv")


def save_device_table(records: Iterable[DeviceRecord], path) -> None:
    """Write records back to the CSV format accepted by the loader."""
    rows = ([(getattr(r, name), factor) for _, name, factor, _ in _COLUMNS]
            for r in records)
    write_csv(path, COLUMNS, ([v if factor is None else "" if v is None
                               else f"{v / factor:.10g}" for v, factor in row]
                              for row in rows))


#: Sort key of loss-fit points: the order of every fit and report row.
_FIT_ORDER = attrgetter("p_sm", "p_j", "group_id")


def group_for_fit(
    records: Sequence[DeviceRecord], mode: str = "per_die_design"
) -> list[LossDataPoint]:
    """Aggregate device records into loss-fit points.

    ``per_die_design`` groups by (die, geometry, p_sm, p_j) — one point per
    die and capacitor design, with the mean Q across the group's devices and
    the population standard deviation.  A single-device group falls back to
    that device's own round-statistics spread when published, else 0.
    ``per_device`` passes every record through unchanged.  Points come in
    ascending ``(p_sm, p_j, group_id)`` order.
    """
    if not records:
        raise TableFormatError("no records to group")
    if mode == "per_device":
        return sorted((
            LossDataPoint(
                p_sm=r.p_sm,
                p_j=r.p_j,
                q_mean=r.q_mean,
                q_std=r.q_std,
                group_id=r.device_id,
                n_devices=1,
            )
            for r in records
        ), key=_FIT_ORDER)
    if mode != "per_die_design":
        raise TableFormatError(f"unknown grouping mode {mode!r}")

    groups: dict[tuple, list[DeviceRecord]] = {}
    for r in records:
        groups.setdefault((r.die_id, r.geometry, r.p_sm, r.p_j), []).append(r)

    points = []
    for (die, geometry, p_sm, p_j), members in groups.items():
        qs = [m.q_mean for m in members]
        n = len(qs)
        mean = sum(qs) / n
        if n > 1:
            std = math.sqrt(sum((q - mean) ** 2 for q in qs) / n)
        else:
            std = members[0].q_std if members[0].q_std is not None else 0.0
        points.append(
            LossDataPoint(
                p_sm=p_sm,
                p_j=p_j,
                q_mean=mean,
                q_std=std,
                group_id=f"{die}:{geometry}:psm={p_sm / 1e-4:g}e-4",
                n_devices=n,
            )
        )
    return sorted(points, key=_FIT_ORDER)
