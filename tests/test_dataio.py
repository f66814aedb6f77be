import csv

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsurfloss import (
    DeviceRecord,
    QSurfLossError,
    RecordValidationError,
    TableFormatError,
    group_for_fit,
    load_device_table,
    save_device_table,
)
from qsurfloss.dataio import COLUMNS, GEOMETRIES

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
        assert d1_1.omega_q_rad == pytest.approx(2 * 3.141592653589793 * 4.43e9)

    def test_dispersive_ordering_holds_everywhere(self, records):
        assert all(r.omega_c_ghz > r.omega_q_ghz for r in records)

    def test_purcell_exceeds_t1_everywhere(self, records):
        assert all(r.t_purcell_ms * 1e3 > r.t1_mean_us for r in records)


class TestValidation:
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

    def test_non_utf8_table_is_a_format_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(HEADER.encode() + "D1-1,g\xe9om\n".encode("latin-1"))
        with pytest.raises(TableFormatError, match="not UTF-8"):
            load_device_table(path)

    def test_round_trip(self, records, tmp_path):
        path = tmp_path / "devices.csv"
        save_device_table(records, path)
        again = load_device_table(path)
        assert again == records


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("tables") / "devices.csv"


#: Table cells: arbitrary text, numbers in any float spelling, geometries.
CELLS = st.one_of(st.text(max_size=8), st.floats().map(repr),
                  st.sampled_from(GEOMETRIES), st.just(""))


@st.composite
def valid_records(draw):
    """Records whose invariants hold with a margin that survives the file's
    10 significant digits."""
    positive = st.floats(1e-3, 1e3)
    omega_q, t1 = draw(positive), draw(positive)
    return DeviceRecord(
        device_id=draw(st.from_regex(r"[A-Za-z0-9]{1,4}-[A-Za-z0-9]{1,4}",
                                     fullmatch=True)),
        geometry=draw(st.sampled_from(GEOMETRIES)),
        omega_q_ghz=omega_q,
        omega_c_ghz=omega_q * draw(st.floats(1.001, 3.0)),
        g_mhz=draw(positive),
        t1_mean_us=t1,
        t1_std_us=draw(st.none() | st.floats(0.0, 1e3)),
        t_purcell_ms=t1 * draw(st.floats(1.001e-3, 1.0)),
        q_mean=draw(st.floats(1e3, 1e9)),
        q_std=draw(st.none() | st.floats(0.0, 1e9)),
        p_sm=draw(st.floats(1e-7, 0.1)),
        p_j=draw(st.floats(1e-7, 0.1)),
    )


class TestTableProperties:
    """Every device table either loads or raises a ``QSurfLossError``."""

    @given(rows=st.lists(st.lists(CELLS, max_size=14), max_size=4))
    @example(rows=[["D1-1"]])
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_rows_load_or_raise_a_typed_error(self, table_path, rows):
        with open(table_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(HEADER)
            csv.writer(fh).writerows(rows)
        try:
            load_device_table(table_path)
        except QSurfLossError:
            pass

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

    def test_empty_and_bad_mode(self, records):
        with pytest.raises(TableFormatError):
            group_for_fit([], mode="per_die_design")
        with pytest.raises(TableFormatError, match="mode"):
            group_for_fit(records, mode="per_wafer")
