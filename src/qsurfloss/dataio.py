"""Device-table ingestion, validation and grouping for the loss fits.

The table format mirrors the measurement summary: frequencies cyclic
(GHz/MHz), lifetimes in us, Purcell limits in ms, quality factors in units
of 1e6 and participation ratios in units of 1e-4.  Records store Q and the
participations in absolute units; the file keeps the publication-style
scaling for fidelity.  Standard deviations are optional (multi-round
statistics are not available for every device).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from operator import attrgetter
from typing import Iterable, Sequence

from .errors import (InvalidInputError, _Option, parse_csv, read_text, real,
                     real_text, shown, write_csv)
from .lossmodel import LossDataPoint
from .qubitfit import _mean_std

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
#: Each number column's field, whether it may be left empty, and its rule as
#: a refusal reads it and as a test: a field that may be empty may hold 0.
_NUMBER_FIELDS = tuple(
    (name, optional, f"field '{name}' must be finite and "
     + (">= 0 when present" if optional else "> 0"),
     (lambda v: v >= 0) if optional else (lambda v: v > 0))
    for _, name, _, optional in _COLUMNS[2:])


@dataclass
class DeviceRecord:
    """One measured transmon device; its numbers are stored as float."""

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
        """Check each field once, each number by :func:`real`, stored as the
        float it returns; then the id's form and the rules across fields."""
        device = self.device_id if isinstance(self.device_id, str) else shown(
            self.device_id)  # str() of a huge int raises
        if self.geometry not in GEOMETRIES:
            raise InvalidInputError(f"device {device}: field 'geometry' must be one "
                                    f"of {GEOMETRIES}, got {shown(self.geometry)}")
        for name, optional, rule, ok in _NUMBER_FIELDS:
            value = getattr(self, name)
            if value is not None or not optional:
                setattr(self, name, real(value, f"device {device}: {rule}", ok))
        for name, holds, rule in (
                ("device_id", isinstance(self.device_id, str) and "-" in self.device_id,
                 "look like '<die>-<index>'"),
                ("omega_c_ghz", self.omega_c_ghz > self.omega_q_ghz,
                 "exceed omega_q_ghz (dispersive readout)"),
                ("t_purcell_ms", self.t_purcell_ms * 1e3 > self.t1_mean_us,
                 "exceed the measured T1")):
            if not holds:
                raise InvalidInputError(f"device {device}: field '{name}' must {rule}")

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
        if factor is not None:  # as written, so that real_text sees any padding
            cell = None if optional and not cell else real_text(row[column]) * factor
        values[name] = cell
    return DeviceRecord(**values)


def load_device_table(path) -> list[DeviceRecord]:
    """Parse and validate a device table CSV.

    Raises :class:`InvalidInputError` for a file that cannot be read or is
    not UTF-8, a wrong header, and a row that does not parse or that a
    field rule refuses, named by its row number:
    ``<path>: malformed row <i>: <reason>``, where a field rule's reason
    reads ``device <id>: field '<name>' must ...``.
    """
    return _load_records(read_text(path), str(path))


def _load_records(text: str, source: str) -> list[DeviceRecord]:
    header, rows = parse_csv(text, source)
    if header is None or tuple(header) != COLUMNS:
        raise InvalidInputError(
            f"{source}: header must be {','.join(COLUMNS)}, got {header}"
        )
    records = []
    for i, row in enumerate(rows, start=2):
        try:
            records.append(_record_from_row(row))
        except ValueError as exc:  # a cell float cannot read, or a field rule
            raise InvalidInputError(f"{source}: malformed row {i}: {exc}") from exc
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


def _table_row(record: DeviceRecord) -> list:
    """A record's cells as the table file holds them: units of the file,
    numbers at 10 significant digits, an empty cell for a missing value."""
    cells = ((getattr(record, name), factor) for _, name, factor, _ in _COLUMNS)
    return [v if factor is None else "" if v is None else f"{v / factor:.10g}"
            for v, factor in cells]


def save_device_table(records: Iterable[DeviceRecord], path) -> None:
    """Write records back to the CSV format accepted by the loader; a record
    whose row the loader would refuse (a value that the file's units or 10
    digits carry out of range, or cavity and qubit frequencies that round
    to equal) is refused with its reason before anything is written."""
    rows = [_table_row(r) for r in records]
    for row in rows:
        try:
            _record_from_row(dict(zip(COLUMNS, row)))
        except ValueError as exc:  # row[0] is the device id
            reason = str(exc).removeprefix(f"device {row[0]}: ")
            raise InvalidInputError(f"cannot save device {row[0]}: its row would "
                                    f"not load: {reason}") from exc
    write_csv(path, COLUMNS, rows)


#: Sort key of loss-fit points: the order of every fit and report row.
_FIT_ORDER = attrgetter("p_sm", "p_j", "group_id")


class Grouping(_Option):  # how group_for_fit makes its points
    PER_DIE_DESIGN = "per_die_design"
    PER_DEVICE = "per_device"


def group_for_fit(
    records: Sequence[DeviceRecord], mode: Grouping | str = Grouping.PER_DIE_DESIGN
) -> list[LossDataPoint]:
    """Aggregate device records into loss-fit points.

    ``per_die_design`` groups by (die, geometry, p_sm, p_j), one point per
    die and capacitor design; ``per_device`` makes every record a group of
    its own.  Both modes take a point's Q by one rule: a group of several
    devices has the mean Q of its devices and their population standard
    deviation, and a single device keeps its own Q and its published
    round-statistics spread, else 0.  Points come in ascending
    ``(p_sm, p_j, group_id)`` order.  A ``mode`` not a :class:`Grouping`
    (checked first), or no records, raises :class:`InvalidInputError`.
    """
    per_device = Grouping(mode) is Grouping.PER_DEVICE
    if not records:
        raise InvalidInputError("no records to group")
    groups: dict[object, list[DeviceRecord]] = {}
    for i, r in enumerate(records):
        key = i if per_device else (r.die_id, r.geometry, r.p_sm, r.p_j)
        groups.setdefault(key, []).append(r)

    points = []
    for members in groups.values():
        first, n = members[0], len(members)
        if n > 1:
            mean, std = _mean_std([m.q_mean for m in members])
        else:
            mean, std = first.q_mean, 0.0 if first.q_std is None else first.q_std
        points.append(LossDataPoint(
            p_sm=first.p_sm, p_j=first.p_j, q_mean=mean, q_std=std, n_devices=n,
            group_id=first.device_id if per_device
            else f"{first.die_id}:{first.geometry}:psm={first.p_sm / 1e-4:g}e-4"))
    return sorted(points, key=_FIT_ORDER)
