"""The bytes of every file the commands write, on fixed inputs, pinned by
sha256: the README report config's bundle, ``fit-loss --out`` on the
bundled table and ``fit-t1 --out`` on a fixed trace with a sidecar.  A
writer refactor that changes one byte of any of them fails here.  A named
change of an output updates its digest here, with the reason given where
the change is described."""

import hashlib
import json

import pytest
from click.testing import CliRunner

from qsurfloss.cli import main

#: The config of the README's ``qsurfloss report`` example.
README_CONFIG = {
    "models": ["sm+j", "sm+q0"],
    "weighting": "invvar",
    "grouping": "per_die_design",
    "sweep": {"width_min_um": 1.0, "width_max_um": 20.0, "points": 20},
}

#: 17 delays of a 37.5 us decay with 1 % noise; its fit reads T1 = 40.3897742 us.
TRACE = "delay_us,population\n" + "".join(
    f"{7.5 * i:g},{p}\n" for i, p in enumerate([
        0.92075, 0.7503, 0.66143, 0.55858, 0.4687, 0.37944, 0.32432,
        0.27409, 0.25135, 0.21418, 0.17968, 0.16459, 0.15343, 0.12911,
        0.10266, 0.10306, 0.0916]))

#: A sidecar with a number of each kind the report's number rule tells
#: apart: whole, fixed, exponents 9 to 15 and beyond, subnormal, -0.0.
SIDECAR = """{
  "device": "D3-1", "fridge": "BF-2", "temperature_mk": 12.5,
  "counts": [1, 2, 3, 123456789012345678901234567890],
  "readout": {"power_dbm": -112.0, "f_ghz": 6.123456789012, "on": true,
              "note": null, "calibrated": false},
  "scale": [999999999.7, 1e9, 123456789012.0, 9.999999999e15, 1e16,
            2.5e-5, 1e-4, 5e-324, 2.2250738585072014e-308, -0.0, 0.0, 3.0]
}
"""

DIGESTS = {
    "report.json":
        "81e926654d0174d469e564b561e2c534c3fc26e997f503800ca988223fd1c453",
    "q_vs_psm.csv":
        "fe2a00947fb7f4b338607fa01f5304f958a52d5a76b05c1d79e636094fa18839",
    "q_vs_normalized_pr.csv":
        "767f7249c0c8d0a6023901c9b778e05e4d6acf9f8760c18319305fb22b0eae6e",
    "q_model_surface.csv":
        "6a5dbce620f518a0d474c43145575e34a2ecc0d4090a004d36cf80c0f3e204ea",
    "psm_width_sweep.csv":
        "207c9890ee8992eb1abfb1fbe94808d9ce9ae4173ebb0345ad881dfa5f65b2d3",
    "fit-loss.json":
        "dbbddad67db97904dd4d791ae55dd2f9a414658f828b14d34b22440ff95a2c16",
    "fit-t1.json":
        "9cff7eae999ad443b7c42e87c796bd1278b4cd4e1cb0c5708bed4cdef6e06e78",
}


def _run(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Each pinned file, run once, by name."""
    tmp = tmp_path_factory.mktemp("golden")
    out = tmp / "out"
    config = tmp / "config.json"
    config.write_text(json.dumps({**README_CONFIG, "output_dir": str(out)}))
    _run(["report", "--config", str(config)])
    _run(["fit-loss", "--out", str(out / "fit-loss.json")])
    trace, meta = tmp / "trace.csv", tmp / "trace.json"
    trace.write_text(TRACE)
    meta.write_text(SIDECAR)
    _run(["fit-t1", "--trace", str(trace), "--meta", str(meta),
          "--out", str(out / "fit-t1.json")])
    return {path.name: path.read_bytes() for path in out.iterdir()}


def test_every_file_is_pinned(written):
    assert sorted(written) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_bytes_match_the_pinned_digest(written, name):
    assert hashlib.sha256(written[name]).hexdigest() == DIGESTS[name]
