"""The package's two boundaries.

Files: every read and write goes through ``read_text``, ``write_text`` or
``write_csv`` in ``errors.py``, so a file that is missing, is a directory,
cannot be created or is not UTF-8 ends in an ``InvalidInputError`` that
names the path.  JSON goes through ``read_json`` and CSV text through
``parse_csv``, so a document nested too deep or a cell over the csv field
limit fails typed too.  Commands: one click group handler turns any
``QSurfLossError`` into one ``error:`` line and exit code 1.  The source
checks below keep both from being bypassed.
"""

import ast
import re
from pathlib import Path

import pytest

import qsurfloss
import qsurfloss.cli
from qsurfloss import (
    DEFAULT_SM_SPEC,
    InvalidInputError,
    TableFormatError,
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


class TestUnparseableInput:
    @pytest.mark.parametrize("load, message", [
        (load_cross_section, "bad cross-section document: "),
        (PipelineConfig.from_json, "bad config {path}: "),
        (lambda path: load_decay_trace(path.with_suffix(".csv"), path),
         "{path}: bad metadata: "),
    ], ids=["cross-section", "config", "trace-metadata"])
    def test_deeply_nested_json_fails_typed(self, tmp_path, load, message):
        """100000 nested arrays used to end in a raw RecursionError."""
        path = tmp_path / "doc.json"
        path.write_text("[" * 100000)
        path.with_suffix(".csv").write_text("delay_us,population\n0,1\n")
        with pytest.raises(InvalidInputError, match="^" + re.escape(
                message.format(path=path)) + "maximum recursion depth exceeded"):
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
        with pytest.raises(TableFormatError, match="^" + re.escape(
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
