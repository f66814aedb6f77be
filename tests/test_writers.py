"""The report-bundle writers against the row-by-row writers they replaced.

The CSVs with text cells (``q_vs_psm``, ``q_vs_normalized_pr`` and the
sweep) format whole columns and write them with one ``writerows`` call.
The all-number CSVs (the model surface and the field samples) skip the
csv module: each is filled by one ``%`` on its row templates and written
at once, with the bytes ``csv.writer`` wrote.  ``report.json`` is emitted
by one recursive walk, each float formatted once by ``%.9g``.  The references below are the previous writers, kept here
so that every case is compared byte for byte.
"""

import csv
import json
import math
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsurfloss import (
    CrossSection,
    InterfaceRegion,
    InterfaceSpec,
    InvalidInputError,
    LossDataPoint,
    LossFitResult,
    LossModel,
    Strip,
    fit_sm_plus_j,
    interdigital_unit_cell,
    psm_width_sweep,
    solution_to_csv,
    solve_cross_section,
    write_sweep_csv,
)
from qsurfloss.participation import SweepPoint
from qsurfloss.lossmodel import model_inverse_q, normalized_pr
from qsurfloss.pipeline import (_scalar, _write_model_surface, _write_q_table,
                                write_report_json)
from qsurfloss.solver import UM, _surface_samples


def write_q_vs_psm(points, fits, path):
    """The pipeline's ``q_vs_psm.csv``: each fit's Q against p_sm."""
    p_sm = np.array([p.p_sm for p in points])
    p_j = np.array([p.p_j for p in points])
    _write_q_table(points, "p_sm", p_sm, {
        f"q_model[{name}]": model_inverse_q(fit, p_sm, p_j)
        for name, fit in fits.items()}, path)


def write_q_vs_npr(points, fit, path):
    """The pipeline's ``q_vs_normalized_pr.csv``: one sm+j fit's Q against
    the normalized PR."""
    npr = normalized_pr(np.array([p.p_sm for p in points]),
                        np.array([p.p_j for p in points]),
                        fit.tan_d_sm, fit.tan_d_j)
    _write_q_table(points, "normalized_pr", npr, {"q_model": model_inverse_q(
        fit, np.array([p.p_sm for p in points]), np.array([p.p_j for p in points]))},
                   path)


def reference_inverse_q(fit, p_sm, p_j):
    """The scalar model 1/Q in the previous evaluation order."""
    inv_q = p_sm * fit.tan_d_sm + p_j * (fit.tan_d_j or 0.0)
    return inv_q + (1.0 / fit.q0 if fit.q0 is not None
                    and math.isfinite(fit.q0) else 0.0)


def reference_q_vs_psm(points, fits, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        headers = ["group_id", "p_sm", "q_measured", "q_std"]
        headers += [f"q_model[{name}]" for name in fits]
        writer.writerow(headers)
        for p in points:
            row = [p.group_id, f"{p.p_sm:.9g}", f"{p.q_mean:.9g}",
                   "" if not p.q_std else f"{p.q_std:.9g}"]
            for fit in fits.values():
                inv_q = reference_inverse_q(fit, p.p_sm, p.p_j)
                row.append(f"{1.0 / inv_q:.9g}" if inv_q > 0 else "")
            writer.writerow(row)


def reference_q_vs_npr(points, fit, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group_id", "normalized_pr", "q_measured", "q_std",
                         "q_model"])
        for p in points:
            npr = p.p_sm + (fit.tan_d_j / fit.tan_d_sm) * p.p_j
            inv_q = reference_inverse_q(fit, p.p_sm, p.p_j)
            writer.writerow([
                p.group_id,
                f"{npr:.9g}",
                f"{p.q_mean:.9g}",
                "" if not p.q_std else f"{p.q_std:.9g}",
                f"{1.0 / inv_q:.9g}" if inv_q > 0 else "",
            ])


def reference_model_surface(points, fit, path):
    p_sm_vals = np.geomspace(min(p.p_sm for p in points),
                             max(p.p_sm for p in points), 25)
    p_j_vals = np.geomspace(min(p.p_j for p in points),
                            max(p.p_j for p in points), 25)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p_sm", "p_j", "q_model"])
        for psm in p_sm_vals:
            for pj in p_j_vals:
                inv_q = reference_inverse_q(fit, float(psm), float(pj))
                writer.writerow([f"{psm:.9g}", f"{pj:.9g}",
                                 f"{1.0 / inv_q:.9g}"])


def reference_sweep_csv(points, path):
    names = [f.name for f in fields(SweepPoint)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for p in points:
            values = [getattr(p, name) for name in names]
            writer.writerow(["" if v is None else v if isinstance(v, str)
                             else f"{v:.9g}" for v in values])


def reference_solution_csv(sol, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_um", "sigma_c_per_m2", "e_perp_sub_v_per_m",
                         "e_perp_vac_v_per_m", "e_par_v_per_m", "segment"])
        strip_x, sigma, gap_x, e_par = _surface_samples(sol)
        for i, (xs, sgs) in enumerate(zip(strip_x, sigma)):
            for x, sg in zip(xs, sgs):
                en = sg / (2.0 * sol.eps_bar)
                writer.writerow([f"{x / UM:.9g}", f"{sg:.9g}", f"{en:.9g}",
                                 f"{en:.9g}", "0", f"strip{i}"])
        for i, (xs, eps) in enumerate(zip(gap_x, e_par)):
            for x, ep in zip(xs, eps):
                writer.writerow([f"{x / UM:.9g}", "0", "0", "0",
                                 f"{ep:.9g}", f"gap{i}"])


def seeded_section(n_strips, terms):
    """Asymmetric strip array: unequal widths and gaps on sapphire or
    silicon, potentials spread over [-1, 0.5] V in a seeded order."""
    rng = np.random.default_rng([n_strips, terms])
    x, strips = float(rng.uniform(-50.0, 50.0)), []
    for v in rng.permutation(np.linspace(-1.0, 0.5, n_strips)):
        width = float(rng.uniform(4.0, 12.0))
        strips.append(Strip(round(x, 4), round(width, 4), float(v)))
        x += width + float(rng.uniform(4.0, 12.0))
    return CrossSection(strips, eps_sub_rel=float(rng.choice([10.15, 11.7])),
                        discretization=terms)


def _nine_digits(obj):
    """Recursively round floats to 9 significant digits for stable output."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}") if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _nine_digits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nine_digits(v) for v in obj]
    return obj


def reference_report_json(report, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_nine_digits(report), indent=2, sort_keys=True)
                 + "\n")


def nested(depth_key_doc):
    """``doc`` inside ``depth`` one-item containers, dicts of ``key`` and
    lists in turn."""
    depth, key, doc = depth_key_doc
    for level in range(depth):
        doc = [doc] if level % 2 else {key: doc}
    return doc


#: Any float, and those where repr writes what ``%.9g`` does not: decimal
#: exponents 9 to 15, written in full, and values below the normal range.
report_floats = (st.floats() | st.floats(1e9, 1e16, exclude_max=True)
                 | st.floats(-1e16, -1e9, exclude_min=True)
                 | st.floats(-sys.float_info.min, sys.float_info.min))

json_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | report_floats | st.text(),
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(st.text(), children, max_size=4)
                      | st.tuples(st.integers(2, 25), st.text(max_size=3),
                                  children).map(nested)),
    max_leaves=40,
)


def assert_same_bytes(tmp_path, write, reference, *args):
    new, old = tmp_path / "new", tmp_path / "old"
    write(*args, new)
    reference(*args, old)
    assert new.read_bytes() == old.read_bytes()


def fit_of(model, tan_d_sm, tan_d_j=None, q0=None):
    return LossFitResult(model=model, tan_d_sm=tan_d_sm, tan_d_j=tan_d_j, q0=q0)


@pytest.fixture(scope="module")
def bundled_fit(grouped_points):
    return fit_sm_plus_j(grouped_points)


#: Two points whose p_sm and p_j each span 1e-7 to 1e-2.
WIDE_POINTS = [LossDataPoint(p_sm=1e-7, p_j=1e-2, q_mean=3e5),
               LossDataPoint(p_sm=1e-2, p_j=1e-7, q_mean=8e4)]


class TestPipelineWriters:
    @pytest.mark.parametrize("case", [
        "sm+j", "clamped tan_d_j", "q0 = inf", "q0 finite",
        "sm+j, p from 1e-7 to 1e-2", "q0 finite, p from 1e-7 to 1e-2"])
    def test_model_surface(self, tmp_path, grouped_points, bundled_fit, case):
        """The bundled sm+j fit, a clamped tan_d_j, an sm+q0 fit whose
        intercept clamped to zero (q0 = inf) and one with a finite q0, on
        the bundled points and on points spanning five decades."""
        fit = {"sm+j": bundled_fit,
               "clamped tan_d_j": fit_of(LossModel.SM_PLUS_J, 8.9e-4, 0.0),
               "q0 = inf": fit_of(LossModel.SM_PLUS_Q0, 9.3e-4, q0=math.inf),
               "q0 finite": fit_of(LossModel.SM_PLUS_Q0, 9.3e-4, q0=2.1e6),
               }[case.split(",")[0]]
        points = WIDE_POINTS if "1e-7" in case else grouped_points
        assert_same_bytes(tmp_path, _write_model_surface,
                          reference_model_surface, points, fit)
        text = (tmp_path / "new").read_bytes()
        lines = text.split(b"\r\n")
        assert len(lines) == 627 and lines[-1] == b""
        assert text.count(b"\n") == 626 and b'"' not in text

    def test_model_surface_skips_the_csv_module(self, tmp_path, monkeypatch,
                                                grouped_points, bundled_fit):
        def no_writer(*args, **kwargs):
            raise AssertionError("csv.writer called")

        monkeypatch.setattr(csv, "writer", no_writer)
        _write_model_surface(grouped_points, bundled_fit, tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_bytes().count(b"\r\n") == 626
        # the patch reaches the writers that do use the csv module
        with pytest.raises(AssertionError, match="csv.writer called"):
            write_q_vs_npr(grouped_points, bundled_fit, tmp_path / "n.csv")

    def test_model_surface_refuses_a_zero_inverse_q(self, tmp_path,
                                                    grouped_points):
        """A lossless model, whose 1/Q is 0 and Q unbounded, used to end in
        a raw ZeroDivisionError; no inf cell is written either."""
        path = tmp_path / "s.csv"
        with pytest.raises(InvalidInputError, match="modeled 1/Q is 0"):
            _write_model_surface(grouped_points,
                                 fit_of(LossModel.SM_PLUS_J, 0.0, 0.0), path)
        assert not path.exists()

    @pytest.mark.parametrize("table, tan_d_sm, tan_d_j, message", [
        ("q_model_surface", 1e-310, 0.0, "modeled Q at p_sm=3.3e-05, p_j=1.8e-05 "
         "is not a finite float (1/Q = 3.3e-315)"),
        ("q_vs_psm", 1e-310, 0.0, "modeled Q of point 'D8:dumbbell_3d:psm=0.33e-4' "
         "in column q_model[sm+j] is not a finite float (1/Q = 3.3e-315)"),
        ("q_vs_normalized_pr", 1e-300, 1e10, "normalized_pr of point "
         "'D8:dumbbell_3d:psm=0.33e-4' is not a finite float (inf)"),
    ], ids=lambda v: v if v in ("q_model_surface", "q_vs_psm",
                                "q_vs_normalized_pr") else "")
    def test_extreme_fit_is_refused_by_point(self, tmp_path, grouped_points,
                                              table, tan_d_sm, tan_d_j, message):
        """A subnormal modeled 1/Q used to give the surface a numpy overflow
        warning and q_vs_psm an inf cell, and a tan_d_j / tan_d_sm beyond
        the float range gave q_vs_normalized_pr an inf abscissa and a model
        Q of 0; each is refused before a file is written."""
        fit = fit_of(LossModel.SM_PLUS_J, tan_d_sm, tan_d_j)
        write = {"q_model_surface": _write_model_surface,
                 "q_vs_psm": lambda points, fit, path: write_q_vs_psm(
                     points, {"sm+j": fit}, path),
                 "q_vs_normalized_pr": write_q_vs_npr}[table]
        path = tmp_path / f"{table}.csv"
        with pytest.raises(InvalidInputError) as info:
            write(grouped_points, fit, path)
        assert str(info.value) == message
        assert not path.exists()

    def test_modeled_inverse_q_beyond_the_float_range_is_refused(self, tmp_path):
        """Fit points at either end of p_sm and p_j put the grid's far
        corner past the float range: refused by grid point, not written as
        a Q of 0 after a numpy overflow warning."""
        points = [LossDataPoint(p_sm=1e308, p_j=1e-300, q_mean=1e-308),
                  LossDataPoint(p_sm=1e-300, p_j=1e308, q_mean=1e-308)]
        with pytest.raises(InvalidInputError, match=(
                r"modeled Q at p_sm=1e\+308, p_j=1e\+308 is not a finite float "
                r"\(1/Q = inf\)")):
            _write_model_surface(points, fit_of(LossModel.SM_PLUS_J, 1.0, 1.0),
                                 tmp_path / "s.csv")

    def test_grid_up_to_the_float_maximum(self, tmp_path):
        """geomspace's 10**log10(p_sm) overflowed with a numpy warning at the
        largest float; the grid still ends there."""
        points = [LossDataPoint(p_sm=1e-300, p_j=1e-300, q_mean=1.0),
                  LossDataPoint(p_sm=sys.float_info.max, p_j=1.0, q_mean=1.0)]
        path = tmp_path / "s.csv"
        _write_model_surface(points, fit_of(LossModel.SM_PLUS_J, 1e-300, 1.0), path)
        last = path.read_text().splitlines()[-1].split(",")
        assert last[:2] == ["1.79769313e+308", "1"]

    def test_q_vs_psm_quotes_and_empty_cells(self, tmp_path, grouped_points):
        """A group id with a comma and a quote is quoted, a q_std of None or 0
        and a non-positive model 1/Q are empty cells."""
        points = [
            LossDataPoint(p_sm=2e-4, p_j=3e-5, q_mean=2.5e6, q_std=None,
                          group_id='D1:"a",b'),
            LossDataPoint(p_sm=4e-4, p_j=1e-5, q_mean=1.5e6, q_std=0.0,
                          group_id="D2,c"),
            LossDataPoint(p_sm=0.0, p_j=0.0, q_mean=9.0e6, q_std=1.2e5,
                          group_id="zero\nparticipation"),
        ]
        fits = {"sm+j": fit_of(LossModel.SM_PLUS_J, 8.9e-4, 3.5e-3),
                "sm": fit_of(LossModel.SM_ONLY, 1.1e-3),
                "sm+q0": fit_of(LossModel.SM_PLUS_Q0, 7e-4, q0=6.7e6)}
        assert_same_bytes(tmp_path, write_q_vs_psm, reference_q_vs_psm,
                          points, fits)
        text = (tmp_path / "new").read_bytes()
        assert b'"D1:""a"",b"' in text and text.count(b"\r\n") == 4
        assert b',,' in text
        assert_same_bytes(tmp_path, write_q_vs_psm, reference_q_vs_psm,
                          grouped_points, fits)

    def test_q_vs_npr(self, tmp_path, grouped_points, bundled_fit):
        assert_same_bytes(tmp_path, write_q_vs_npr, reference_q_vs_npr,
                          grouped_points, bundled_fit)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_points_and_fits(self, tmp_path_factory, data):
        n = data.draw(st.integers(1, 6))
        spreads = st.none() | st.just(0.0) | st.floats(1.0, 1e7)
        ids = st.text(st.characters(blacklist_categories=("Cs",)), max_size=5)
        points = [LossDataPoint(
            p_sm=data.draw(st.floats(1e-7, 1e-2)),
            p_j=data.draw(st.floats(1e-7, 1e-2)),
            q_mean=data.draw(st.floats(1e3, 1e9)),
            q_std=data.draw(spreads), group_id=data.draw(ids)) for _ in range(n)]
        tangent = st.floats(1e-6, 1e-2)
        fits = {"sm+j": fit_of(LossModel.SM_PLUS_J, data.draw(tangent),
                               data.draw(st.just(0.0) | tangent)),
                "sm+q0": fit_of(LossModel.SM_PLUS_Q0, data.draw(tangent),
                                q0=data.draw(st.just(math.inf)
                                             | st.floats(1e3, 1e9)))}
        tmp_path = tmp_path_factory.mktemp("writers")
        assert_same_bytes(tmp_path, write_q_vs_psm, reference_q_vs_psm,
                          points, fits)
        for fit in fits.values():
            assert_same_bytes(tmp_path, _write_model_surface,
                              reference_model_surface, points, fit)
        assert_same_bytes(tmp_path, write_q_vs_npr, reference_q_vs_npr,
                          points, fits["sm+j"])

        # the same points with one participation set to 0: the row writers
        # keep their bytes, and the surface, whose log-spaced grid cannot
        # start at 0, is refused typed without writing a file
        name = data.draw(st.sampled_from(["p_sm", "p_j"]))
        at = data.draw(st.integers(0, n - 1))
        zeroed = list(points)
        zeroed[at] = replace(points[at], **{name: 0.0})
        assert_same_bytes(tmp_path, write_q_vs_psm, reference_q_vs_psm,
                          zeroed, fits)
        assert_same_bytes(tmp_path, write_q_vs_npr, reference_q_vs_npr,
                          zeroed, fits["sm+j"])
        for fit in fits.values():
            with pytest.raises(InvalidInputError, match=f"{name} is 0"):
                _write_model_surface(zeroed, fit, tmp_path / "surface")
            assert not (tmp_path / "surface").exists()

    def test_report_json_writes_nonfinite_as_null(self, tmp_path):
        report = {"b": [1.0, math.nan, -math.inf, np.float64(2.0 / 3.0)],
                  "a": {"z": math.inf, "y": "text", "x": None, "w": 7},
                  "c": (1e-320, 123456789.5)}
        assert_same_bytes(tmp_path, write_report_json, reference_report_json,
                          report)
        assert json.loads((tmp_path / "new").read_text()) == {
            "a": {"w": 7, "x": None, "y": "text", "z": None},
            "b": [1.0, None, None, 0.666666667],
            "c": [1e-320, 123456790.0]}


    def test_float_rule_is_repr_of_the_rounded_float(self):
        """One ``%.9g``, and repr only at exponents 9 to 15 and below the
        normal range, writes ``repr(float(f"{x:.9g}"))`` for any finite
        float: seeded random bit patterns, values log-uniform over the whole
        range, and the values at each edge of the rule."""
        rng = np.random.default_rng(25)
        tiny, eps = sys.float_info.min, sys.float_info.epsilon
        values = (rng.integers(0, 2**64, 200_000, dtype=np.uint64,
                               endpoint=False).view(np.float64).tolist()
                  + (10.0 ** rng.uniform(-325.0, 308.0, 100_000)).tolist()
                  + [0.0, -0.0, 5e-324, tiny, tiny * (1 - eps), -tiny,
                     2.2250738585e-308, 1e-4, 9.9999999995e-5, 1.0, 3.0,
                     123456789.0, 999999999.0, 999999999.4, 999999999.5, 1e9,
                     9.999999994e15, 9.999999995e15, 1e16, -1e15,
                     sys.float_info.max])
        values = [x for x in values if math.isfinite(x)]
        assert ([_scalar(x) for x in values]
                == [repr(float(f"{x:.9g}")) for x in values])
        assert [_scalar(x) for x in (math.nan, math.inf, -math.inf)] == ["null"] * 3

    @given(report=st.dictionaries(st.text(), json_documents, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_report_json_matches_json_dumps(self, tmp_path_factory, report):
        """Nested dicts, lists, tuples, strings, any floats, ints, bools and
        None come out as the indented, key-sorted ``json.dumps`` of the
        rounded document."""
        assert_same_bytes(tmp_path_factory.mktemp("report"), write_report_json,
                          reference_report_json, report)


class TestSweepAndFieldWriters:
    def test_sweep_csv_with_a_failed_point(self, tmp_path):
        points = psm_width_sweep([0.5, 20.0], InterfaceSpec(InterfaceRegion.SM, 300.0))
        assert points[0].error
        points.append(SweepPoint(width_um=3.0, cutoff_um=0.6,
                                 error="edge_cutoff must lie in [0, 1.5) um"))
        assert_same_bytes(tmp_path, write_sweep_csv, reference_sweep_csv,
                          points)
        assert_same_bytes(tmp_path, write_sweep_csv, reference_sweep_csv,
                          psm_width_sweep(np.linspace(1.0, 20.0, 20)))

    @pytest.mark.parametrize("section", [
        interdigital_unit_cell(2.0, 7, discretization=64),
        CrossSection([Strip(0.0, 4.0, 1.0), Strip(6.0, 8.0, 0.0),
                      Strip(17.0, 5.0, -0.3)], discretization=64),
    ], ids=["folded-idc", "asymmetric"])
    def test_solution_csv(self, tmp_path, section):
        assert_same_bytes(tmp_path, solution_to_csv, reference_solution_csv,
                          solve_cross_section(section))

    @pytest.mark.parametrize("terms", [16, 32])
    @pytest.mark.parametrize("n_strips", [3, 4, 5, 6])
    def test_solution_csv_of_seeded_sections(self, tmp_path, n_strips, terms):
        """CRLF line ends, no quoting, negative potentials and fields."""
        sol = solve_cross_section(seeded_section(n_strips, terms))
        assert min(sol.geometry.potentials) == -1.0
        assert_same_bytes(tmp_path, solution_to_csv, reference_solution_csv,
                          sol)
