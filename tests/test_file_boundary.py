"""The package's two boundaries.

Files: every read and write goes through ``read_text``, ``write_text`` or
``write_csv`` in ``errors.py``, so a file that is missing, is a directory,
cannot be created or is not UTF-8 ends in an ``InvalidInputError`` that
names the path.  JSON goes through ``read_json`` and CSV text through
``parse_csv``, so a document nested too deep or a cell over the csv field
limit fails typed too.  A number in a CSV cell is read by ``real_text``:
what ``float`` reads in ASCII text without ``_``, and otherwise refused.
Commands: one click group handler turns any
``QSurfLossError`` into one ``error:`` line and exit code 1.  The source
checks below keep both from being bypassed.
"""

import ast
import inspect
import json
import math
import re
import sys
import traceback
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsurfloss
import qsurfloss.cli
from qsurfloss import (
    DEFAULT_SM_SPEC,
    InvalidInputError,
    PipelineConfig,
    interdigital_unit_cell,
    load_cross_section,
    load_decay_trace,
    load_device_table,
    psm_width_sweep,
    save_device_table,
    solution_to_csv,
    solve_cross_section,
    write_sweep_csv,
)
from qsurfloss.dataio import _COLUMNS, COLUMNS, _table_row
from qsurfloss.errors import MAX_JSON_DEPTH, read_json, write_csv
from qsurfloss.pipeline import write_report_json

SOURCES = sorted(Path(qsurfloss.__file__).parent.glob("*.py"))

LOADERS = {
    "load_device_table": load_device_table,
    "load_decay_trace": load_decay_trace,
    "load_cross_section": load_cross_section,
    "PipelineConfig.from_json": PipelineConfig.from_json,
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


class TestSource:
    @pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
    def test_only_errors_calls_open(self, path):
        opens = [node.lineno for node in ast.walk(_parse(path))
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id == "open"]
        if path.name == "errors.py":
            assert len(opens) == 2  # read_text and write_text
        else:
            assert opens == [], f"{path.name} calls open() at lines {opens}"

    def test_cli_has_one_typed_error_handler(self):
        handlers = [
            node for node in ast.walk(_parse(Path(qsurfloss.cli.__file__)))
            if isinstance(node, ast.ExceptHandler) and node.type is not None
            and "QSurfLossError" in {n.id for n in ast.walk(node.type)
                                     if isinstance(n, ast.Name)}]
        assert len(handlers) == 1


class TestUnreadableInput:
    @pytest.mark.parametrize("kind, reason", [
        ("missing", "No such file or directory"), ("directory", "Is a directory")])
    @pytest.mark.parametrize("load", LOADERS.values(), ids=LOADERS)
    def test_loader_names_the_path(self, tmp_path, load, kind, reason):
        """Each used to end in a raw FileNotFoundError or IsADirectoryError."""
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        with pytest.raises(InvalidInputError,
                           match=f"^cannot read {re.escape(str(path))}: {reason}$"):
            load(path)

    def test_missing_trace_metadata(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text("delay_us,population\n0,1\n10,0.5\n")
        with pytest.raises(InvalidInputError, match="cannot read .*meta.json"):
            load_decay_trace(trace, tmp_path / "meta.json")

    @pytest.mark.parametrize("load", [
        load_cross_section, PipelineConfig.from_json,
        lambda path: load_decay_trace(path.with_suffix(".csv"), path),
    ], ids=["cross-section", "config", "trace-metadata"])
    def test_non_utf8_json_names_the_path(self, tmp_path, load):
        path = tmp_path / "doc.json"
        path.write_bytes(b'{"label": "\xff"}')
        path.with_suffix(".csv").write_text("delay_us,population\n0,1\n")
        with pytest.raises(InvalidInputError,
                           match=f"^{re.escape(str(path))}: not UTF-8 text: "):
            load(path)


#: The three JSON readers, each with the prefix of its typed error.
json_readers = pytest.mark.parametrize("load, message", [
    (load_cross_section, "bad cross-section document: "),
    (PipelineConfig.from_json, "bad config {path}: "),
    (lambda path: load_decay_trace(path.with_suffix(".csv"), path),
     "{path}: bad metadata: "),
], ids=["cross-section", "config", "trace-metadata"])


class TestUnparseableInput:
    @json_readers
    def test_deeply_nested_json_fails_typed(self, tmp_path, load, message):
        """100000 nested arrays used to end in a raw RecursionError."""
        path = tmp_path / "doc.json"
        path.write_text("[" * 100000)
        path.with_suffix(".csv").write_text("delay_us,population\n0,1\n")
        with pytest.raises(InvalidInputError, match="^" + re.escape(
                message.format(path=path)) + "nested deeper than 16 arrays"):
            load(path)

    def test_nesting_is_checked_before_decoding(self, tmp_path, monkeypatch):
        """A document one level deeper than the bound never reaches the
        decoder; brackets inside a string do not nest."""
        path = tmp_path / "doc.json"
        deeper = MAX_JSON_DEPTH + 1
        path.write_text("[" * deeper + "]" * deeper)
        monkeypatch.setattr(json, "loads", lambda text: pytest.fail("decoded"))
        with pytest.raises(InvalidInputError, match="^doc: nested deeper than"):
            read_json(path, "doc")
        monkeypatch.undo()
        path.write_text('["' + "[{" * deeper + '"]')
        assert read_json(path, "doc") == ["[{" * deeper]

    @pytest.mark.parametrize("spare", [None, 100, 40],
                             ids=["top", "100-frames-left", "40-frames-left"])
    def test_a_document_at_the_bound_decodes_at_any_stack_depth(self, tmp_path,
                                                                spare):
        """The decoder recurses against the interpreter's one limit, which
        the reader no longer raises, so the bound is sized for a document at
        it to decode with ``spare`` frames left below the limit when
        ``read_json`` is called."""
        path = tmp_path / "doc.json"
        path.write_text("[" * MAX_JSON_DEPTH + "1" + "]" * MAX_JSON_DEPTH)
        limit = sys.getrecursionlimit()

        def nested(n):
            return nested(n - 1) if n else read_json(path, "doc")

        frames = 0 if spare is None else limit - len(inspect.stack(0)) - spare
        doc = nested(frames)
        for _ in range(MAX_JSON_DEPTH - 1):
            (doc,) = doc
        assert doc == [1]
        assert sys.getrecursionlimit() == limit

    def test_a_caller_near_the_recursion_limit_gets_a_typed_error(self, tmp_path):
        """Called at each stack depth down to the limit, the reader decodes
        a document at the bound, or refuses it with the typed error once the
        decoder runs out of stack; a RecursionError is raised only before
        the decoder runs."""
        path = tmp_path / "doc.json"
        path.write_text("[" * MAX_JSON_DEPTH + "1" + "]" * MAX_JSON_DEPTH)

        def nested(n):
            return nested(n - 1) if n else read_json(path, "doc")

        outcomes = set()
        for spare in range(40, -1, -1):
            try:
                nested(sys.getrecursionlimit() - len(inspect.stack(0)) - spare)
                outcomes.add("decoded")
            except InvalidInputError as exc:
                assert str(exc).startswith("doc: maximum recursion depth exceeded")
                outcomes.add("refused")
            except RecursionError as exc:
                frames = traceback.extract_tb(exc.__traceback__)
                assert "loads" not in {frame.name for frame in frames}
                outcomes.add("no stack")
        assert outcomes == {"decoded", "refused", "no stack"}

    @json_readers
    def test_overlong_integer_fails_typed(self, tmp_path, load, message):
        """An integer of 5000 digits, over Python's int-to-str limit, used
        to end in a raw ValueError."""
        path = tmp_path / "doc.json"
        path.write_text('{"n": ' + "7" * 5000 + "}")
        path.with_suffix(".csv").write_text("delay_us,population\n0,1\n")
        with pytest.raises(InvalidInputError, match="^" + re.escape(
                message.format(path=path)) + "Exceeds the limit \\(4300 digits\\)"):
            load(path)

    BIG_CELL = "9" * 200000  # over the csv module's default limit of 131072

    def test_oversized_trace_cell_names_the_row(self, tmp_path):
        """It used to end in a raw _csv.Error: field larger than field limit."""
        path = tmp_path / "trace.csv"
        path.write_text(f"delay_us,population\n0,1\n10,{self.BIG_CELL}\n")
        with pytest.raises(InvalidInputError, match="^" + re.escape(
                f"{path}: unreadable row 3: field larger than field limit")):
            load_decay_trace(path)

    @pytest.mark.parametrize("row", [1, 2])
    def test_oversized_table_cell_names_the_row(self, tmp_path, records, row):
        path = tmp_path / "devices.csv"
        save_device_table(records[:1], path)
        lines = path.read_text().splitlines()
        lines[row - 1] += self.BIG_CELL
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidInputError, match="^" + re.escape(
                f"{path}: unreadable row {row}: field larger than field limit")):
            load_device_table(path)


@pytest.fixture(scope="module")
def writes(records):
    """Each writer with its data, taking the path last."""
    sol = solve_cross_section(interdigital_unit_cell(3.0, 5))
    sweep = psm_width_sweep([2.0, 4.0], DEFAULT_SM_SPEC)
    return {
        "write_report_json": lambda path: write_report_json({"a": 1.0}, path),
        "write_sweep_csv": lambda path: write_sweep_csv(sweep, path),
        "solution_to_csv": lambda path: solution_to_csv(sol, path),
        "save_device_table": lambda path: save_device_table(records, path),
    }


class TestUnwritableOutput:
    @pytest.mark.parametrize("name", ["write_report_json", "write_sweep_csv",
                                      "solution_to_csv", "save_device_table"])
    @pytest.mark.parametrize("kind, reason", [
        ("missing", "No such file or directory"), ("directory", "Is a directory")])
    def test_writer_names_the_path(self, tmp_path, writes, name, kind, reason):
        path = tmp_path / "missing" / "out" if kind == "missing" else tmp_path
        with pytest.raises(InvalidInputError,
                           match=f"^cannot write {re.escape(str(path))}: {reason}$"):
            writes[name](path)


#: Any text, and text drawn from the characters of numbers, so that cells
#: that ``float`` reads come up as often as cells that it does not.
CELL_TEXT = st.text() | st.text(
    alphabet="0123456789._eE+-infatyINF \t\x1c\xa0\u0660\u0661\u0664", max_size=8)


def _float_reads(text):
    """The number that a cell ``text`` holds: ``float(text)`` for ASCII
    text without ``_``, or None for text that ``float`` refuses or that is
    not such text."""
    if "_" in text or not text.isascii():
        return None
    try:
        return float(text)
    except ValueError:
        return None


@pytest.fixture(scope="module")
def cell_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cells")


class TestCellText:
    """``float`` read ``4_2`` as 42 and Arabic-Indic digits as their value,
    so a cell with either loaded as a number."""

    @given(column=st.sampled_from(COLUMNS[2:]), cell=CELL_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_any_table_cell_loads_as_float_reads_it_or_fails_typed(
            self, records, cell_dir, column, cell):
        """A blank optional cell is a missing value; any other cell loads
        as the number that ``float`` reads, is refused by a field rule, or
        is a malformed row."""
        path = cell_dir / "devices.csv"
        row = _table_row(records[0])
        row[COLUMNS.index(column)] = cell
        write_csv(path, COLUMNS, [row])
        _, name, factor, optional = _COLUMNS[COLUMNS.index(column)]
        number = _float_reads(cell)
        try:
            (record,) = load_device_table(path)
        except InvalidInputError as exc:
            reason = str(exc).removeprefix(f"{path}: malformed row 2: ")
            assert reason != str(exc)
            # a field rule's refusal names its field; a cell that float
            # cannot read is refused before any rule
            by_rule = reason.startswith(f"device {records[0].device_id}: field '")
            assert by_rule == (number is not None)
            return
        if optional and not cell.strip():
            assert getattr(record, name) is None
        else:
            assert number is not None and getattr(record, name) == number * factor

    @given(row=st.integers(0, 9), column=st.sampled_from([0, 1]), cell=CELL_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_any_trace_cell_loads_as_float_reads_it_or_fails_typed(
            self, cell_dir, row, column, cell):
        """A cell loads as the number that ``float`` reads, is refused by
        the trace's own rules (finite, increasing delays), or is a bad row."""
        rows = [[repr(float(t)), repr(math.exp(-t / 50.0))] for t in range(0, 100, 10)]
        rows[row][column] = cell
        path = cell_dir / "trace.csv"
        write_csv(path, ["delay_us", "population"], rows)
        number = _float_reads(cell)
        try:
            trace = load_decay_trace(path)
        except InvalidInputError as exc:
            assert (number is None) == str(exc).startswith(
                f"{path}: bad row {row + 2}: ")
            return
        values = trace.populations if column else trace.delays_us
        assert number is not None and values[row] == number
