import json

import numpy as np
import pytest

from ximargin.drivers import compute_xi_disc
from ximargin.sysio import (
    SystemFileError,
    load_system,
    report_dict,
    report_from_json,
    report_to_json,
    report_to_text,
    save_system,
    system_from_dict,
    system_to_dict,
    system_to_json,
)
from ximargin.systems import TimeDomain, Tolerances

from test_systems import DISC_SCALAR, random_system


class TestSystemFile:
    def test_round_trip(self, tmp_path):
        sys_ = random_system(3, 2, TimeDomain.DISCRETE, seed=8)
        path = tmp_path / "sys.json"
        save_system(sys_, path)
        loaded = load_system(path)
        for name in "ABCD":
            np.testing.assert_array_equal(getattr(loaded, name), getattr(sys_, name))
        assert loaded.domain == sys_.domain

    def test_serialization_deterministic(self):
        sys_ = random_system(2, 1, TimeDomain.CONTINUOUS, seed=3)
        assert system_to_json(sys_) == system_to_json(sys_)

    def test_rejects_nonfinite(self):
        doc = system_to_dict(DISC_SCALAR)
        doc["A"][0][0][0] = float("nan")
        with pytest.raises(SystemFileError):
            system_from_dict(doc)

    def test_rejects_shape_mismatch(self):
        doc = system_to_dict(DISC_SCALAR)
        doc["n"] = 2
        with pytest.raises(SystemFileError):
            system_from_dict(doc)

    @pytest.mark.parametrize("entry", [
        pytest.param(["x", 0.0], id="string"),
        pytest.param([1.0], id="ragged"),
    ])
    def test_rejects_non_numeric_entry(self, entry):
        doc = system_to_dict(random_system(2, 1, TimeDomain.DISCRETE, seed=8))
        doc["A"][1][0] = entry
        with pytest.raises(SystemFileError, match="array of"):
            system_from_dict(doc)

    def test_rejects_missing_matrix(self):
        doc = system_to_dict(DISC_SCALAR)
        del doc["C"]
        with pytest.raises(SystemFileError):
            system_from_dict(doc)

    @pytest.mark.parametrize("key, value", [
        pytest.param("n", 2.5, id="n-fraction"),
        pytest.param("m", 1.9, id="m-fraction"),
        pytest.param("n", 1.0, id="n-float"),
        pytest.param("n", "1", id="n-string"),
        pytest.param("m", True, id="m-bool"),
        pytest.param("m", None, id="m-null"),
        pytest.param("n", 0, id="n-zero"),
        pytest.param("m", -1, id="m-negative"),
    ])
    def test_rejects_non_integer_size(self, key, value):
        # a size is never truncated: "n": 2.5 once loaded as n = 2
        doc = system_to_dict(DISC_SCALAR)
        doc[key] = value
        with pytest.raises(SystemFileError, match=f'"{key}" must be a positive integer'):
            system_from_dict(doc)

    def test_rejects_bad_domain(self):
        doc = system_to_dict(DISC_SCALAR)
        doc["domain"] = "sampled"
        with pytest.raises(SystemFileError):
            system_from_dict(doc)

    def test_parses_valid_json_text(self, tmp_path):
        path = tmp_path / "scalar.json"
        path.write_text(json.dumps({
            "domain": "discrete", "n": 1, "m": 1,
            "A": [[[0.0, 0.0]]], "B": [[[1.0, 0.0]]],
            "C": [[[1.0, 0.0]]], "D": [[[1.0, 0.0]]],
        }))
        sys_ = load_system(path)
        assert sys_.is_real and sys_.n == 1


class TestReport:
    def test_round_trip_lossless(self):
        res = compute_xi_disc(DISC_SCALAR, tol=Tolerances(tau=1e-10))
        rep = report_dict(res)
        back = report_from_json(report_to_json(rep))
        assert back["xi_estimate"] == rep["xi_estimate"]
        assert back["bracket"] == rep["bracket"]
        assert back["pseudoroots"] == rep["pseudoroots"]
        assert back["eig_counts"] == rep["eig_counts"]
        assert back["certificate"] == rep["certificate"]
        assert back["tolerance"] == rep["tolerance"]

    def test_seventeen_digit_payload(self):
        res = compute_xi_disc(DISC_SCALAR, tol=Tolerances(tau=1e-10))
        text = report_to_json(report_dict(res))
        # reparse reproduces the exact double
        assert json.loads(text)["xi_estimate"] == res.xi

    def test_text_layout(self):
        res = compute_xi_disc(DISC_SCALAR, tol=Tolerances(tau=1e-10))
        text = report_to_text(report_dict(res))
        lines = text.strip().splitlines()
        assert lines[1].startswith("alg. | iters. | #eig")
        fields = [f.strip() for f in lines[2].split("|")]
        assert fields[0] == "hec"
        assert "(" in fields[1]  # restarts(avg inner)
        int(fields[2]), int(fields[3])
        float(fields[4]), float(fields[5])
