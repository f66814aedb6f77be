import csv
import sys
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qsurfloss import (
    DeviceRecord,
    InvalidInputError,
    QSurfLossError,
    RecordValidationError,
    TableFormatError,
    fit_sm_plus_j,
    group_for_fit,
    load_device_table,
    save_device_table,
)
from qsurfloss.dataio import _COLUMNS, COLUMNS, GEOMETRIES

HEADER = ",".join(COLUMNS) + "\n"


class TestBundledTable:
    def test_record_count(self, records):
        # 32 devices over dies D1..D9; gaps in device numbering are legal
        # (one device failed on its die, one was dropped in curation)
        assert len(records) == 32
        ids = [r.device_id for r in records]
        assert len(set(ids)) == 32
        assert "D4-2" not in ids
        assert {r.die_id for r in records} == {f"D{i}" for i in range(1, 10)}

    def test_3d_rows_have_no_round_statistics(self, records):
        d8_1 = next(r for r in records if r.device_id == "D8-1")
        assert d8_1.geometry == "dumbbell_3d"
        assert d8_1.t1_std_us is None
        assert d8_1.q_std is None
        assert d8_1.t1_mean_us == pytest.approx(197.2)

    def test_unit_scaling(self, records):
        d1_1 = next(r for r in records if r.device_id == "D1-1")
        assert d1_1.p_sm == pytest.approx(8.67e-4)
        assert d1_1.p_j == pytest.approx(0.22e-4)
        assert d1_1.q_mean == pytest.approx(1.04e6)

    def test_dispersive_ordering_holds_everywhere(self, records):
        assert all(r.omega_c_ghz > r.omega_q_ghz for r in records)

    def test_purcell_exceeds_t1_everywhere(self, records):
        assert all(r.t_purcell_ms * 1e3 > r.t1_mean_us for r in records)


class TestValidation:
    def test_device_id_without_die_prefix_rejected(self, records):
        with pytest.raises(RecordValidationError,
                           match="^device D11: field 'device_id' must look like"):
            replace(records[0], device_id="D11")

    def test_cavity_below_qubit_rejected(self):
        with pytest.raises(RecordValidationError, match="omega_c"):
            DeviceRecord(
                device_id="X1-1",
                geometry="dumbbell_2d",
                omega_q_ghz=6.0,
                omega_c_ghz=5.0,
                g_mhz=40.0,
                t1_mean_us=100.0,
                t1_std_us=None,
                t_purcell_ms=10.0,
                q_mean=1e6,
                q_std=None,
                p_sm=1e-4,
                p_j=1e-5,
            )

    def test_bad_geometry_rejected(self):
        with pytest.raises(RecordValidationError, match="geometry"):
            DeviceRecord(
                device_id="X1-1",
                geometry="coax",
                omega_q_ghz=4.0,
                omega_c_ghz=6.0,
                g_mhz=40.0,
                t1_mean_us=100.0,
                t1_std_us=None,
                t_purcell_ms=10.0,
                q_mean=1e6,
                q_std=None,
                p_sm=1e-4,
                p_j=1e-5,
            )


    @pytest.mark.parametrize("field", [
        "omega_q_ghz", "omega_c_ghz", "g_mhz", "t1_mean_us", "t1_std_us",
        "t_purcell_ms", "q_mean", "q_std", "p_sm", "p_j"])
    def test_huge_int_is_rejected_naming_its_field(self, field):
        """An int beyond the float range used to raise OverflowError."""
        values = dict(omega_q_ghz=4.0, omega_c_ghz=6.0, g_mhz=40.0,
                      t1_mean_us=100.0, t1_std_us=None, t_purcell_ms=10.0,
                      q_mean=1e6, q_std=None, p_sm=1e-4, p_j=1e-5)
        values[field] = 10**400
        with pytest.raises(RecordValidationError,
                           match=f"field '{field}' must be finite"):
            DeviceRecord(device_id="X1-1", geometry="dumbbell_2d", **values)

    @pytest.mark.parametrize("field, value", [
        (field, value)
        for field in ("omega_q_ghz", "omega_c_ghz", "g_mhz", "t1_mean_us",
                      "t1_std_us", "t_purcell_ms", "q_mean", "q_std", "p_sm",
                      "p_j")
        for value in ("4.0", None)
        if value is not None or field not in ("t1_std_us", "q_std")])
    def test_non_number_is_rejected_naming_its_field(self, field, value):
        """A str, or None in a required field, used to end in the raw
        TypeError of the finiteness test (t1_std_us and q_std may be None)."""
        values = dict(omega_q_ghz=4.0, omega_c_ghz=6.0, g_mhz=40.0,
                      t1_mean_us=100.0, t1_std_us=None, t_purcell_ms=10.0,
                      q_mean=1e6, q_std=None, p_sm=1e-4, p_j=1e-5)
        values[field] = value
        with pytest.raises(RecordValidationError,
                           match=f"field '{field}' must be finite"):
            DeviceRecord(device_id="X1-1", geometry="dumbbell_2d", **values)


class TestLoader:
    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(TableFormatError, match="header"):
            load_device_table(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(COLUMNS)
            + "\nD1-1,interdigital_2d,4.4,6.5,37,36.8,5.7,9.0,1.04,0.16,8.67,0.22"
            + "\nD1-2,interdigital_2d,oops,6.4,36,29.8,4.3,19.9,0.76,0.11,13.5,0.19\n"
        )
        with pytest.raises(TableFormatError, match="row 3"):
            load_device_table(path)

    def test_validation_error_names_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(COLUMNS)
            + "\nD1-1,interdigital_2d,7.4,6.5,37,36.8,5.7,9.0,1.04,0.16,8.67,0.22\n"
        )
        with pytest.raises(RecordValidationError, match="omega_c_ghz"):
            load_device_table(path)

    def test_row_with_only_an_id_is_a_format_error(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(HEADER + "D1-1\n")
        with pytest.raises(TableFormatError, match="row 2: no geometry cell"):
            load_device_table(path)

    @pytest.mark.parametrize("extra", [",x,y", ","])
    def test_extra_cells_are_a_format_error(self, tmp_path, extra):
        """A row longer than the header used to load with its extra cells
        dropped; a trailing comma is an extra empty cell too."""
        row = "D1-1,interdigital_2d,4.4,6.5,37,36.8,5.7,9.0,1.04,0.16,8.67,0.22"
        path = tmp_path / "long.csv"
        path.write_text(HEADER + row + "\n" + row + extra + "\n")
        n = 12 + extra.count(",")
        with pytest.raises(TableFormatError, match=f"malformed row 3: {n} "
                           f"cells, header has 12$"):
            load_device_table(path)

    def test_non_utf8_table_is_a_format_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(HEADER.encode() + "D1-1,g\xe9om\n".encode("latin-1"))
        with pytest.raises(TableFormatError, match="not UTF-8"):
            load_device_table(path)

    @staticmethod
    def assert_cell_rejected(records, tmp_path, column, cell):
        path = tmp_path / "devices.csv"
        save_device_table(records, path)
        header, first, *rest = path.read_text().splitlines()
        cells = first.split(",")
        cells[COLUMNS.index(column)] = cell
        path.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
        field = column.removesuffix("_1e6").removesuffix("_1e4")
        with pytest.raises(RecordValidationError, match=f"field '{field}'"):
            load_device_table(path)

    @pytest.mark.parametrize("column", COLUMNS[2:])
    def test_nan_cell_is_rejected_naming_its_field(self, records, tmp_path, column):
        """NaN passes ``<= 0``-style checks; every numeric field refuses it."""
        self.assert_cell_rejected(records, tmp_path, column, "nan")

    @pytest.mark.parametrize("column", COLUMNS[2:])
    def test_inf_cell_is_rejected_naming_its_field(self, records, tmp_path, column):
        """inf passes ``> 0`` and ``> T1`` checks; it used to end in a
        condition-number error, or as a zero-weight point in ``q_std``."""
        self.assert_cell_rejected(records, tmp_path, column, "inf")

    def test_round_trip(self, records, tmp_path):
        path = tmp_path / "devices.csv"
        save_device_table(records, path)
        first = path.read_bytes()
        again = load_device_table(path)
        assert again == records
        save_device_table(again, path)
        assert path.read_bytes() == first


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("tables") / "devices.csv"


#: Table cells: arbitrary text, numbers in any float spelling, geometries.
CELLS = st.one_of(st.text(max_size=8), st.floats().map(repr),
                  st.sampled_from(GEOMETRIES), st.just(""))


#: Every positive finite float, subnormals and the float extremes included;
#: two draws in three lie within 1e+-300, which the file's units carry.
ANY_POSITIVE = st.floats(1e-3, 1e3) | st.floats(1e-300, 1e300) | st.floats(
    min_value=0.0, max_value=sys.float_info.max, exclude_min=True)
#: Every finite float from 0 up.
ANY_SPREAD = st.just(0.0) | ANY_POSITIVE


@st.composite
def valid_records(draw, wide=False):
    """Records whose invariants hold with a margin that survives the file's
    10 significant digits; ``wide`` draws every value a record takes
    instead, subnormals and the float extremes included, with no margin."""
    if wide:
        omega_q, omega_c = sorted((draw(ANY_POSITIVE), draw(ANY_POSITIVE)))
        t1 = draw(ANY_POSITIVE)
        t_purcell = draw(st.floats(t1 * 1e-3, sys.float_info.max, exclude_min=True))
        assume(omega_q < omega_c and t_purcell * 1e3 > t1)  # fails rarely
        positive = q_mean = participation = ANY_POSITIVE
        t1_std = q_std = ANY_SPREAD
    else:
        positive = st.floats(1e-3, 1e3)
        omega_q, t1 = draw(positive), draw(positive)
        omega_c = omega_q * draw(st.floats(1.001, 3.0))
        t_purcell = t1 * draw(st.floats(1.001e-3, 1.0))
        q_mean, participation = st.floats(1e3, 1e9), st.floats(1e-7, 0.1)
        t1_std, q_std = st.floats(0.0, 1e3), st.floats(0.0, 1e9)
    return DeviceRecord(
        device_id=draw(st.from_regex(r"[A-Za-z0-9]{1,4}-[A-Za-z0-9]{1,4}",
                                     fullmatch=True)),
        geometry=draw(st.sampled_from(GEOMETRIES)),
        omega_q_ghz=omega_q,
        omega_c_ghz=omega_c,
        g_mhz=draw(positive),
        t1_mean_us=t1,
        t1_std_us=draw(st.none() | t1_std),
        t_purcell_ms=t_purcell,
        q_mean=draw(q_mean),
        q_std=draw(st.none() | q_std),
        p_sm=draw(participation),
        p_j=draw(participation),
    )


class TestTableProperties:
    """Every device table either loads or raises a ``QSurfLossError``."""

    @given(rows=st.lists(st.lists(CELLS, max_size=14), max_size=4))
    @example(rows=[["D1-1"]])
    @example(rows=[["D1-1"] * 13])
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_rows_load_or_raise_a_typed_error(self, table_path, rows):
        with open(table_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(HEADER)
            csv.writer(fh).writerows(rows)
        long_first = bool(rows) and len(rows[0]) > len(COLUMNS)
        try:
            load_device_table(table_path)
        except QSurfLossError as exc:
            if long_first:  # an overlong first row fails before any check
                assert isinstance(exc, TableFormatError)
                assert str(exc).endswith(f"malformed row 2: {len(rows[0])} "
                                         f"cells, header has {len(COLUMNS)}")
        else:
            assert not long_first

    @given(data=st.binary(max_size=64)
           | st.binary(max_size=64).map(lambda b: HEADER.encode() + b))
    @example(data=HEADER.encode() + b"D1-1,\xff\n")
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_load_or_raise_a_typed_error(self, table_path, data):
        table_path.write_bytes(data)
        try:
            load_device_table(table_path)
        except QSurfLossError:
            pass

    @given(records=st.lists(valid_records(), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_valid_records_round_trip_byte_identical(self, table_path,
                                                     records):
        save_device_table(records, table_path)
        first = table_path.read_bytes()
        save_device_table(load_device_table(table_path), table_path)
        assert table_path.read_bytes() == first

    @given(records=st.lists(valid_records(wide=True), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_a_save_loads_back_or_is_refused(self, table_path, records):
        """A save either loads back with every numeric field the record's
        value at the table's units and 10 digits, or raises one typed error
        naming a device and writes no file."""
        table_path.unlink(missing_ok=True)
        try:
            save_device_table(records, table_path)
        except QSurfLossError as exc:
            assert type(exc) is InvalidInputError
            assert any(str(exc).startswith(f"cannot save device {r.device_id}: ")
                       for r in records)
            assert not table_path.exists()
            return
        for record, back in zip(records, load_device_table(table_path), strict=True):
            for _, name, factor, _ in _COLUMNS:
                value = getattr(record, name)
                if factor is not None and value is not None:
                    value = float(f"{value / factor:.10g}") * factor
                assert getattr(back, name) == value, name


class TestSaveRefusals:
    """A record whose row the loader would refuse is refused before anything
    is written; such records used to save a table that did not load."""

    @pytest.mark.parametrize("edit, field", [
        ({"g_mhz": sys.float_info.max}, "g_mhz"),
        ({"p_sm": 1e305}, "p_sm"),
        ({"q_mean": 1e-320}, "q_mean"),
        ({"omega_q_ghz": 5.0, "omega_c_ghz": 5.0 + 1e-12}, "omega_c_ghz"),
    ], ids=["largest-float", "p_sm-unit", "q-unit", "rounded-order"])
    def test_unloadable_row_is_refused_naming_device_and_reason(
            self, records, tmp_path, edit, field):
        path = tmp_path / "devices.csv"
        table = [records[0], replace(records[1], **edit)]
        with pytest.raises(InvalidInputError, match=(
                f"^cannot save device {records[1].device_id}: its row would not "
                f"load: field '{field}'")):
            save_device_table(table, path)
        assert not path.exists()


class TestGrouping:
    def test_die_design_grouping(self, records):
        points = group_for_fit(records, mode="per_die_design")
        assert len(points) == 24
        assert sum(p.n_devices for p in points) == len(records)

    def test_3d_series_aggregate_per_die(self, records):
        points = group_for_fit(records, mode="per_die_design")
        d8 = next(p for p in points if p.group_id.startswith("D8"))
        assert d8.n_devices == 6
        assert d8.q_mean == pytest.approx(7.381667e6, rel=1e-6)
        assert d8.q_std > 0  # spread across the six single-round devices

    def test_spread_whose_square_leaves_the_float_range(self, records):
        """Deviations of 1.34e154, whose squares overflow, used to end in a
        raw OverflowError."""
        pair = [replace(records[0], q_mean=q) for q in (1.0, 2.6815615855e154)]
        (point,) = group_for_fit(pair, mode="per_die_design")
        assert point.q_mean == 1.34078079275e154
        assert point.q_std == pytest.approx(1.34078079275e154, rel=1e-15)

    def test_group_whose_sum_leaves_the_float_range(self, records):
        """Two devices at Q = 1.7e308 used to sum to inf, which
        ``LossDataPoint`` refused without naming the group."""
        pair = [replace(records[0], device_id=f"D1-{i}", q_mean=1.7e308)
                for i in (1, 2)]
        (point,) = group_for_fit(pair, mode="per_die_design")
        assert (point.q_mean, point.q_std, point.n_devices) == (1.7e308, 0.0, 2)

    def test_singleton_group_keeps_round_statistics(self, records):
        points = group_for_fit(records, mode="per_die_design")
        d3_1 = next(
            p for p in points if p.group_id.startswith("D3") and "2.12" in p.group_id
        )
        assert d3_1.n_devices == 1
        assert d3_1.q_std == pytest.approx(0.27e6)

    def test_singleton_without_std_reports_zero(self, records):
        d8_1 = [r for r in records if r.device_id == "D8-1"]
        (point,) = group_for_fit(d8_1, mode="per_die_design")
        assert point.q_std == 0.0

    def test_per_device_passthrough(self, records):
        points = group_for_fit(records, mode="per_device")
        assert len(points) == 32
        assert {p.group_id for p in points} == {r.device_id for r in records}

    def test_per_device_point_without_spread_reads_zero(self, records):
        """A device without a published spread gives a q_std of 0.0 (it
        used to pass None through), which inverse-variance weighting refuses
        as it refused None, naming the same points."""
        points = group_for_fit(records, mode="per_device")
        bare = {r.device_id for r in records if r.q_std is None}
        assert bare and {p.group_id for p in points if p.q_std == 0.0} == bare
        as_none = [replace(p, q_std=None) if p.group_id in bare else p
                   for p in points]
        refusals = []
        for table in (points, as_none):
            with pytest.raises(InvalidInputError) as info:
                fit_sm_plus_j(table, weighting="invvar")
            refusals.append(str(info.value))
        assert refusals[0] == refusals[1]
        assert "10 of 32 have none" in refusals[0]

    def test_single_device_groups_agree_in_both_modes(self, records):
        """One rule takes every point's Q: where each die-design group is one
        device, both modes give the same points but for their ids."""
        lone = list({(r.die_id, r.geometry, r.p_sm, r.p_j): r
                     for r in records}.values())
        assert {r.q_std is None for r in lone} == {True, False}

        def fields_but_id(mode):
            return sorted((p.p_sm, p.p_j, p.q_mean, p.q_std, p.n_devices)
                          for p in group_for_fit(lone, mode=mode))

        assert fields_but_id("per_die_design") == fields_but_id("per_device")

    @pytest.mark.parametrize("mode", ["per_die_design", "per_device"])
    def test_points_come_in_fit_order(self, records, mode):
        """Fits and report rows take the points in (p_sm, p_j, group_id)
        order; the table lists devices in another."""
        points = group_for_fit(records[::-1], mode=mode)
        keys = [(p.p_sm, p.p_j, p.group_id) for p in points]
        assert keys == sorted(keys)

    def test_empty_and_bad_mode(self, records):
        with pytest.raises(TableFormatError):
            group_for_fit([], mode="per_die_design")
        with pytest.raises(TableFormatError, match="mode"):
            group_for_fit(records, mode="per_wafer")
