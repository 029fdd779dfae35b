"""CLI behavior: commands, exit codes, output files."""

import json

import pytest

from gridstep.cli import main

from conftest import DATA, write_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def small_dfec_scenario(tmp_path):
    doc = json.loads((DATA / "dfec_twomachine.json").read_text())
    doc["sim"]["horizon"] = 40.0
    doc["optimize"] = {"grid_starts": 2, "refine_starts": 1}
    doc["bounds"] = {"dp_max": 0.1, "t_on_max": 3.0, "t_off_max": 15.0}
    doc["sweep"] = {
        "dp": 0.08,
        "t_on": {"start": 0.0, "stop": 2.0, "count": 2},
        "t_off": {"start": 10.0, "stop": 20.0, "count": 3},
    }
    return write_json(tmp_path / "dfec_small.json", doc)


class TestValidate:
    def test_bundled_files_pass(self, capsys):
        code, out, _ = run(
            capsys, "validate",
            "--system", str(DATA / "wscc9.json"),
            "--scenario", str(DATA / "scenario_wscc9.json"),
        )
        assert code == 0
        assert "ok" in out

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "validate", "--system", "/nonexistent.json")
        assert code == 2

    def test_malformed_json_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "validate", "--system", str(bad))
        assert code == 2

    def test_schema_violation_is_input_error(self, capsys, tmp_path):
        doc = json.loads((DATA / "wscc9.json").read_text())
        doc["branches"][0]["x"] = -1.0
        path = write_json(tmp_path / "bad_x.json", doc)
        code, _, err = run(capsys, "validate", "--system", str(path))
        assert code == 2


class TestModes:
    def test_smib_report_values(self, capsys):
        code, out, _ = run(capsys, "modes", "--system", str(DATA / "smib.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["modes"][0]["frequency_rad_s"] == pytest.approx(10.3784, abs=1e-3)

    def test_9bus_two_pairs(self, capsys, tmp_path):
        out_path = tmp_path / "modes.json"
        code, _, _ = run(capsys, "modes", "--system", str(DATA / "wscc9.json"),
                         "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        freqs = [m["frequency_rad_s"] for m in doc["modes"]]
        assert len(freqs) == 2
        assert freqs[0] < freqs[1]

    def test_degenerate_spectrum_is_numeric_failure(self, capsys, tmp_path):
        doc = {
            "schema_version": 1, "base_mva": 100.0, "units": "pu",
            "buses": [{"id": 1, "type": "generator"},
                      {"id": 2, "type": "generator"},
                      {"id": 3, "type": "generator"}],
            "branches": [{"from": 1, "to": 3, "x": 0.5},
                         {"from": 2, "to": 3, "x": 0.5}],
            "generators": [
                {"bus": 1, "inertia": 3.5, "pm": 0.0},
                {"bus": 2, "inertia": 3.5, "pm": 0.0},
                {"bus": 3, "inertia": 1.0, "pm": 0.0, "infinite": True},
            ],
        }
        path = write_json(tmp_path / "twins.json", doc)
        code, _, err = run(capsys, "modes", "--system", str(path))
        assert code == 1


class TestDeoc:
    def test_writes_schedule_and_trajectories(self, capsys, tmp_path):
        out = tmp_path / "out"
        code, _, _ = run(
            capsys, "deoc",
            "--system", str(DATA / "wscc9.json"),
            "--scenario", str(DATA / "scenario_wscc9.json"),
            "--out", str(out),
        )
        assert code == 0
        assert (out / "schedule.json").exists()
        assert (out / "controlled.csv").exists()
        assert (out / "uncontrolled.csv").exists()
        sched = json.loads((out / "schedule.json").read_text())
        assert sched["schema_version"] == 1
        assert len(sched["stages"]) == 2

    def test_zero_injection_overrides_give_identical_trajectories(
        self, capsys, tmp_path
    ):
        doc = json.loads((DATA / "scenario_wscc9.json").read_text())
        doc["dp_overrides_mw"] = [[0.0] * 6, [0.0] * 6]
        scn = write_json(tmp_path / "zero.json", doc)
        out = tmp_path / "out"
        code, _, _ = run(
            capsys, "deoc", "--system", str(DATA / "wscc9.json"),
            "--scenario", str(scn), "--out", str(out),
        )
        assert code == 0
        assert (out / "controlled.csv").read_bytes() == (
            out / "uncontrolled.csv"
        ).read_bytes()

    @pytest.mark.parametrize("flag", ["--dt-out", "--t-end"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_bad_time_flags_are_input_errors(self, capsys, tmp_path, flag, value):
        code, _, err = run(
            capsys, "deoc", "--system", str(DATA / "wscc9.json"),
            "--scenario", str(DATA / "scenario_wscc9.json"),
            "--out", str(tmp_path / "o"), flag, value,
        )
        assert code == 2
        assert flag[2:].replace("-", "_") + " must be finite and > 0" in err

    def test_wrong_scenario_kind_is_input_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "deoc", "--system", str(DATA / "wscc9.json"),
            "--scenario", str(DATA / "dfec_twomachine.json"),
            "--out", str(tmp_path / "o"),
        )
        assert code == 2


class TestDfec:
    def test_simulate_reports_nadir(self, capsys, tmp_path):
        out = tmp_path / "traj.csv"
        code, stdout, _ = run(
            capsys, "dfec", "simulate",
            "--scenario", str(DATA / "dfec_twomachine.json"),
            "--out", str(out),
        )
        assert code == 0
        assert out.exists()
        nadir = float(stdout.split("nadir=")[1].split()[0])
        assert 0.03 < nadir < 0.07
        header = out.read_text().splitlines()[0]
        assert header.startswith("t,delta_1,omega_1")

    def test_simulate_instability_is_numeric_failure(self, capsys, tmp_path):
        doc = json.loads((DATA / "dfec_twomachine.json").read_text())
        doc["sim"]["disturbance"] = 3.0
        doc["sim"]["horizon"] = 30.0
        scn = write_json(tmp_path / "severe.json", doc)
        code, _, err = run(capsys, "dfec", "simulate", "--scenario", str(scn))
        assert code == 1

    def test_sweep_writes_scaled_grid(self, capsys, tmp_path, small_dfec_scenario):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "dfec", "sweep", "--scenario", str(small_dfec_scenario),
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3      # header + 2 t_on rows
        assert lines[0].split(",")[0] == "t_on\\t_off"

    def test_optimize_writes_result(self, capsys, tmp_path, small_dfec_scenario):
        out = tmp_path / "result.json"
        code, _, _ = run(
            capsys, "dfec", "optimize", "--scenario", str(small_dfec_scenario),
            "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["cost"] <= doc["uncontrolled_cost"] + 1e-12

    def test_sweep_workers_flag_is_gone(self, capsys, tmp_path, small_dfec_scenario):
        with pytest.raises(SystemExit) as exc:
            main(["dfec", "sweep", "--scenario", str(small_dfec_scenario),
                  "--out", str(tmp_path / "sweep.csv"), "--workers", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("sim", [
        {"dt_out": 0},
        {"ss_window": 150.0},
        {"horizon": 0},
        {"horizon": -10.0},
        {"rtol": 0},
        {"rtol": -1e-6},
        {"atol": 0},
        {"ss_window": 0},
        {"ss_window": -2.0},
    ])
    def test_bad_sim_options_are_input_errors(self, capsys, tmp_path, sim):
        doc = json.loads((DATA / "dfec_twomachine.json").read_text())
        doc["sim"].update(sim)
        scn = write_json(tmp_path / "bad_sim.json", doc)
        for command in ("simulate", "sweep"):
            code, _, err = run(capsys, "dfec", command, "--scenario", str(scn),
                               "--out", str(tmp_path / "out.csv"))
            assert code == 2
            assert "input error: sim." in err

    @pytest.mark.parametrize("section,content", [
        ("model", None),
        ("governor", None),
        ("sim", None),
        ("bounds", None),
        ("action", {"dp": 0.1, "t_on": 1.0, "t_off": 10.0}),
        ("optimize", {"grid_starts": 2}),
        ("sweep", None),
    ])
    def test_unknown_key_is_input_error(self, capsys, tmp_path, section, content):
        doc = json.loads((DATA / "dfec_twomachine.json").read_text())
        doc[section] = dict(content or doc[section], bogus=1)
        scn = write_json(tmp_path / "unknown_key.json", doc)
        code, _, err = run(capsys, "dfec", "simulate", "--scenario", str(scn))
        assert code == 2
        assert "'bogus' was unexpected" in err

    def test_simulate_dt_out_zero_flag_is_input_error(self, capsys):
        code, _, err = run(capsys, "dfec", "simulate", "--scenario",
                           str(DATA / "dfec_twomachine.json"), "--dt-out", "0")
        assert code == 2
        assert "dt_out" in err
