import json

import numpy as np
import pytest

from ximargin.cli import main
from ximargin.sysio import save_system, system_to_dict
from ximargin.systems import TimeDomain

from test_drivers import DAMPED_OSC
from test_systems import DISC_SCALAR, random_system


@pytest.fixture
def disc_scalar_file(tmp_path):
    path = tmp_path / "disc_scalar.json"
    save_system(DISC_SCALAR, path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_hec_disc_scalar(self, capsys, disc_scalar_file):
        code, out, _ = run_cli(capsys, "compute", "--input", disc_scalar_file,
                               "--tol", "1e-10")
        assert code == 0
        report = json.loads(out)
        assert report["algorithm"] == "hec"
        assert abs(report["xi_estimate"]) <= 1.1e-10
        assert report["certificate"] == "no-negative-region"
        assert report["eig_counts"]["pencil_order"] == 3

    def test_all_algorithms_agree(self, capsys, disc_scalar_file):
        values = {}
        for alg in ("hec", "mp", "bisection", "oracle"):
            code, out, _ = run_cli(capsys, "compute", "--input", disc_scalar_file,
                                   "--algorithm", alg, "--tol", "1e-10")
            assert code == 0
            values[alg] = json.loads(out)["xi_estimate"]
        for alg, xi in values.items():
            assert abs(xi) <= 1e-8, alg

    def test_text_report(self, capsys, disc_scalar_file):
        code, out, _ = run_cli(capsys, "compute", "--input", disc_scalar_file,
                               "--report", "text", "--tol", "1e-10")
        assert code == 0
        assert "alg. | iters. |" in out
        assert "certificate: no-negative-region" in out

    def test_malformed_json_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"domain": "discrete"')
        code, _, err = run_cli(capsys, "compute", "--input", str(bad))
        assert code == 1
        assert "cannot load" in err

    @pytest.mark.parametrize("key, value", [("n", 2.5), ("m", "1")])
    def test_non_integer_size_exit_1(self, capsys, tmp_path, key, value):
        doc = system_to_dict(DISC_SCALAR)
        doc[key] = value
        path = tmp_path / "sized.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "compute", "--input", str(path))
        assert code == 1
        assert out == "" and f'"{key}" must be a positive integer' in err

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--input", "/nonexistent.json")
        assert code == 1

    def test_unknown_flag_exit_64(self, capsys, disc_scalar_file):
        code, _, err = run_cli(capsys, "compute", "--input", disc_scalar_file,
                               "--frobnicate")
        assert code == 64
        assert "usage" in err.lower()

    @pytest.mark.parametrize("command, tol", [
        pytest.param("compute", "2.0", id="2.0"),
        pytest.param("compute", "1e-17", id="1e-17"),
        pytest.param("bench", "2.0", id="bench-2.0"),
        pytest.param("bench", "1e-17", id="bench-1e-17"),
    ])
    def test_bad_tol_exit_64(self, capsys, disc_scalar_file, command, tol):
        code, _, err = run_cli(capsys, command, "--input", disc_scalar_file,
                               "--tol", tol)
        assert code == 64
        assert "argument --tol: tau must lie in" in err

    def test_solver_failure_exit_2(self, capsys, disc_scalar_file, monkeypatch):
        import ximargin.cli as cli_mod
        from ximargin.hec import ConvergenceError, TraceStep

        def boom(*args, **kwargs):
            raise ConvergenceError("stalled", (TraceStep(0, "contract", 1.0, 0.5, -0.1),))

        monkeypatch.setattr(cli_mod, "compute_xi_disc", boom)
        code, out, _ = run_cli(capsys, "compute", "--input", disc_scalar_file)
        assert code == 2
        diag = json.loads(out)
        assert "ConvergenceError" in diag["error"]
        assert diag["trace"] == [
            {"iteration": 0, "phase": "contract", "eps": 1.0, "x": 0.5, "g": -0.1}]

    def test_restart_budget_failure_exit_2(self, capsys, tmp_path, monkeypatch):
        import ximargin.drivers as drivers

        path = tmp_path / "osc.json"
        save_system(DAMPED_OSC, path)
        monkeypatch.setattr(drivers, "_MAX_RESTARTS", 1)
        code, out, _ = run_cli(capsys, "compute", "--input", str(path))
        assert code == 2
        diag = json.loads(out)
        assert diag["error"].startswith("ConvergenceError: estimate still moving")
        # the restart loop's trace: one (xi, omega) pair per pass
        assert len(diag["trace"]) == 1
        xi, omega = diag["trace"][0]
        assert isinstance(xi, float) and isinstance(omega, float)


class TestRandom:
    def test_deterministic_bytes(self, capsys):
        code1, out1, _ = run_cli(capsys, "random", "--n", "3", "--m", "2",
                                 "--domain", "continuous", "--seed", "1")
        code2, out2, _ = run_cli(capsys, "random", "--n", "3", "--m", "2",
                                 "--domain", "continuous", "--seed", "1")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_generated_system_valid(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "random", "--n", "6", "--m", "2",
                               "--domain", "discrete", "--seed", "9",
                               "--margin", "0.15")
        assert code == 0
        doc = json.loads(out)
        assert doc["domain"] == "discrete" and doc["n"] == 6 and doc["m"] == 2
        from ximargin.sysio import system_from_dict
        from ximargin.systems import check_minimality, spectral_bounds
        sys_ = system_from_dict(doc)
        assert check_minimality(sys_) == (True, True)
        _, rho = spectral_bounds(sys_)
        assert rho == pytest.approx(0.85, abs=1e-10)

    @pytest.mark.parametrize("n, m, name", [("2", "0", "m"), ("0", "2", "n")])
    def test_zero_size_exit_64(self, capsys, n, m, name):
        code, out, err = run_cli(capsys, "random", "--n", n, "--m", m,
                                 "--domain", "continuous", "--seed", "0")
        assert code == 64
        assert out == "" and f"{name} must be an int >= 1" in err

    def test_negative_seed_exit_64(self, capsys):
        code, out, err = run_cli(capsys, "random", "--n", "2", "--m", "1",
                                 "--domain", "continuous", "--seed", "-1")
        assert code == 64
        assert out == "" and "seed must be an int >= 0" in err

    def test_generation_failure_exit_3(self, capsys, monkeypatch):
        import ximargin.cli as cli_mod
        from ximargin.generate import GenerationError

        def exhausted(*args, **kwargs):
            raise GenerationError("no strictly passive draw in 10 attempts")

        monkeypatch.setattr(cli_mod, "random_system", exhausted)
        code, _, err = run_cli(capsys, "random", "--n", "2", "--m", "1",
                               "--domain", "discrete", "--seed", "0")
        assert code == 3
        assert "generation failed" in err

    def test_roundtrip_through_compute(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "random", "--n", "2", "--m", "1",
                               "--domain", "continuous", "--seed", "4")
        assert code == 0
        path = tmp_path / "gen.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "compute", "--input", str(path),
                               "--tol", "1e-12")
        assert code == 0
        report = json.loads(out)
        assert report["xi_estimate"] > 0  # strictly passive at zero shift


class TestBench:
    def test_empty_inputs(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--input")
        assert code == 0
        assert "system | alg." in out
        assert len(out.strip().splitlines()) == 1

    def test_rows_with_oracle_agreement(self, capsys, tmp_path):
        sys_ = random_system(2, 1, TimeDomain.DISCRETE, seed=21)
        path = tmp_path / "s.json"
        save_system(sys_, path)
        code, out, _ = run_cli(capsys, "bench", "--input", str(path),
                               "--algorithms", "hec,mp,oracle", "--report", "json",
                               "--tol", "1e-12")
        assert code == 0
        rows = json.loads(out)
        assert [r["algorithm"] for r in rows] == ["oracle", "hec", "mp"]
        for row in rows[1:]:
            assert row["oracle_abs_diff"] <= 1e-7 * (1 + abs(row["xi_estimate"]))

    def test_text_table(self, capsys, disc_scalar_file):
        code, out, _ = run_cli(capsys, "bench", "--input", disc_scalar_file,
                               "--algorithms", "hec,bisection", "--tol", "1e-10")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert lines[1].split("|")[1].strip() == "hec"

    def test_oracle_row_first_once_and_same_keys(self, capsys, disc_scalar_file):
        code, out, _ = run_cli(capsys, "bench", "--input", disc_scalar_file,
                               "--algorithms", "hec,oracle,mp,bisection,oracle",
                               "--report", "json", "--tol", "1e-10")
        assert code == 0
        rows = json.loads(out)
        assert [r["algorithm"] for r in rows] == ["oracle", "hec", "mp", "bisection"]
        assert rows[0]["certificate"] is None
        assert all("oracle_abs_diff" in r for r in rows[1:])
        keys = [[k for k in r if k != "oracle_abs_diff"] for r in rows]
        assert all(k == keys[0] for k in keys)

    def test_unknown_algorithm_exit_64(self, capsys, disc_scalar_file):
        code, out, err = run_cli(capsys, "bench", "--input", disc_scalar_file,
                                 "--algorithms", "hec,zigzag")
        assert code == 64
        assert "argument --algorithms: unknown algorithms" in err
        assert out == ""

    def test_empty_algorithm_list_gives_no_rows(self, capsys, disc_scalar_file):
        code, out, _ = run_cli(capsys, "bench", "--input", disc_scalar_file,
                               "--algorithms", "")
        assert code == 0
        assert len(out.strip().splitlines()) == 1

    def test_bad_input_is_harness_error(self, capsys):
        code, _, _ = run_cli(capsys, "bench", "--input", "/no/such/file.json")
        assert code == 1
