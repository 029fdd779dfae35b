"""CLI behavior: commands, exit codes, output files."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridstep import cli
from gridstep.cli import main
from gridstep.network import GRID_SCHEMA
from gridstep.scenario import DEOC_SCENARIO_SCHEMA, DFEC_SCENARIO_SCHEMA

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

    def test_no_file_is_input_error(self, capsys):
        code, out, err = run(capsys, "validate")
        assert (code, out, err) == (2, "", "input error: validate requires --system and/or "
                                           "--scenario\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda d: [g.update(xd_p=g.pop("xdp")) for g in d["generators"]],
         "generators[2]: Additional properties are not allowed ('xd_p' was unexpected)"),
        (lambda d: d.update(load=d.pop("loads")),
         "Additional properties are not allowed ('load' was unexpected)"),
        (lambda d: d.update(bogus=1),
         "Additional properties are not allowed ('bogus' was unexpected)"),
    ], ids=["xd_p", "load", "bogus"])
    def test_unknown_system_key_is_input_error(self, capsys, tmp_path, edit, message):
        # Read as absent, each typo would change the model in silence: xd_p on
        # every generator gives b_red[0, 0] = 5.16 instead of 2.70, and load
        # drops all 3.15 pu of load.
        doc = json.loads((DATA / "wscc9.json").read_text())
        edit(doc)
        with pytest.raises(jsonschema.ValidationError, match="was unexpected"):
            jsonschema.validate(doc, GRID_SCHEMA)
        system = str(write_json(tmp_path / "typo.json", doc))
        out = tmp_path / "out"
        for argv in (["validate", "--system", system], ["modes", "--system", system],
                     ["deoc", "--system", system, "--scenario",
                      str(DATA / "scenario_wscc9.json"), "--out", str(out)]):
            code, stdout, err = run(capsys, *argv)
            assert (code, stdout, err) == (2, "", f"input error: {message}\n")
        assert not out.exists()

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


    @pytest.mark.parametrize("flag, name, schema, edit", [
        ("--system", "wscc9.json", GRID_SCHEMA,
         lambda d: d.update(base_mva="100", buses=[{"id": 1}])),
        ("--scenario", "scenario_wscc9.json", DEOC_SCENARIO_SCHEMA,
         lambda d: d.update(t_end=-1.0, disturbance={"kind": "fault"})),
        ("--scenario", "dfec_twomachine.json", DFEC_SCENARIO_SCHEMA,
         lambda d: d.update(model={"h1": "4"}, bounds={"dp_max": 0.0})),
    ])
    def test_schema_errors_match_jsonschema_validate(self, capsys, tmp_path, flag, name,
                                                     schema, edit):
        doc = json.loads((DATA / name).read_text())
        edit(doc)
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(doc, schema)
        where = "".join(f"[{step}]" if isinstance(step, int) else f".{step}"
                        for step in expected.value.absolute_path).lstrip(".")
        assert where    # every edit above is inside the document
        path = write_json(tmp_path / name, doc)
        for _ in range(2):   # a second load in the same process gives the same text
            code, _, err = run(capsys, "validate", flag, str(path))
            assert (code, err) == (2, f"input error: {where}: {expected.value.message}\n")

    @pytest.mark.parametrize("argv, name, schema, edit, message", [
        (["deoc", "--system", str(DATA / "ieee39.json")], "scenario_ieee39.json",
         DEOC_SCENARIO_SCHEMA, lambda d: d.update(n_target=d.pop("n_targets")),
         "Additional properties are not allowed ('n_target' was unexpected)"),
        (["deoc", "--system", str(DATA / "wscc9.json")], "scenario_wscc9.json",
         DEOC_SCENARIO_SCHEMA,
         lambda d: d["disturbance"].update(magnitde=d["disturbance"].pop("magnitude")),
         "disturbance: Additional properties are not allowed ('magnitde' was unexpected)"),
        (["dfec", "optimize"], "dfec_twomachine.json", DFEC_SCENARIO_SCHEMA,
         lambda d: d.update(optimise={"grid_starts": 2}),
         "Additional properties are not allowed ('optimise' was unexpected)"),
    ], ids=["n_target", "magnitde", "optimise"])
    def test_misspelled_key_is_input_error(self, capsys, tmp_path, argv, name, schema, edit,
                                           message):
        # Read as absent, each typo would run its default in silence: 2 of
        # ieee39's 5 stages, a 0 pu pulse, the default start grid.
        doc = json.loads((DATA / name).read_text())
        edit(doc)
        with pytest.raises(jsonschema.ValidationError, match="was unexpected"):
            jsonschema.validate(doc, schema)
        scn = write_json(tmp_path / name, doc)
        out = tmp_path / "out"
        code, _, err = run(capsys, *argv, "--scenario", str(scn), "--out", str(out))
        assert (code, err) == (2, f"input error: {message}\n")
        assert not out.exists()


    @pytest.mark.parametrize("content,message", [
        (b"[]", "scenario file must hold a JSON object, got []"),
        (b'"x"', 'scenario file must hold a JSON object, got "x"'),
        # Long documents: the first 40 characters of their JSON, the kind clipped.
        (b"[" * 900 + b"]" * 900, "scenario file must hold a JSON object, got " + "[" * 40),
        (b'{"kind": [' + b", ".join(b"%d" % k for k in range(10**5)) + b"]}",
         "scenario kind must be 'deoc' or 'dfec', got [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, "
         "12, 13, 14, 15, 16, 17, 18, 19, 20, 21..."),
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ])
    def test_file_that_is_not_an_object_is_input_error(self, capsys, tmp_path, content,
                                                       message):
        path = tmp_path / "odd.json"
        path.write_bytes(content)
        code, _, err = run(capsys, "validate", "--scenario", str(path))
        assert (code, err) == (2, f"input error: {message}\n")
        code, _, err = run(capsys, "validate", "--system", str(path))
        assert code == 2 and err.startswith("input error: ") and "Traceback" not in err

    @pytest.mark.parametrize("name,path,value,message", [
        ("dfec_twomachine.json", ("sim", "horizon"), 1e300,
         "sim.horizon = 1e+300 at sim.dt_out = 0.02 gives 5e+301 samples, more than 10000000"),
        ("dfec_twomachine.json", ("sim", "dt_out"), 1e-6,
         "sim.horizon = 100 at sim.dt_out = 1e-06 gives 1e+08 samples, more than 10000000"),
        ("dfec_twomachine.json", ("sweep", "t_on", "count"), 1e300,
         "sweep.t_on.count x sweep.t_off.count gives more than 10000000 cells"),
        ("scenario_wscc9.json", ("t_end",), 1e300,
         "t_end = 1e+300 at dt_out = 0.005 gives 2e+302 samples, more than 10000000"),
        ("scenario_wscc9.json", ("stage_window",), 1e9,
         "stage_window = 1e+09 at the switch-time search step = 0.001 gives 1e+12 samples, "
         "more than 10000000"),
        ("dfec_twomachine.json", ("sweep",),
         {"dp": 0.12, "t_on": {"start": 5.0, "stop": 6.0, "count": 2},
          "t_off": {"start": 1.0, "stop": 2.0, "count": 2}},
         "no sweep cell has t_on < t_off: the earliest sweep.t_on is 5 s, the latest "
         "sweep.t_off 2 s"),
        ("dfec_twomachine.json", ("sweep", "t_on", "start"), -2.0,
         "sweep.t_on must be >= 0: its earliest value is -2 s"),
    ])
    def test_grid_too_large_is_input_error(self, capsys, tmp_path, name, path, value, message):
        scn = str(_edited(tmp_path, name, path, value))
        out = tmp_path / "o"
        commands = [["validate", "--scenario", scn]]
        if name.startswith("dfec"):
            commands += [["dfec", command, "--scenario", scn, "--out", str(out)]
                         for command in ("simulate", "sweep", "optimize")]
        else:
            commands += [["deoc", "--system", str(DATA / "wscc9.json"), "--scenario", scn,
                          "--out", str(out)]]
        for argv in commands:
            code, _, err = run(capsys, *argv)
            assert (code, err) == (2, f"input error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["dfec", "simulate", "--scenario", str(DATA / "dfec_twomachine.json")],
        ["deoc", "--system", str(DATA / "wscc9.json"),
         "--scenario", str(DATA / "scenario_wscc9.json")],
    ])
    def test_t_end_flag_too_large_is_input_error(self, capsys, tmp_path, argv):
        out = tmp_path / "o"
        code, _, err = run(capsys, *argv, "--out", str(out), "--t-end", "1e300")
        assert code == 2 and "more than 10000000" in err
        assert not out.exists()


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def _edited(tmp_path, name, path, value):
    """The bundled file ``name`` with the leaf at ``path`` set to ``value``."""
    doc = json.loads((DATA / name).read_text())
    *parents, key = path
    section = doc
    for step in parents:
        section = section[step]
    section[key] = value
    return write_json(tmp_path / name, doc)


def _number_paths(value, path=()):
    """Paths of the numeric leaves of a JSON document."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _number_paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _number_paths(item, path + (i,))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path


def _non_finite_error(value, message, positive):
    if positive and value < 0.0:   # the schema's exclusiveMinimum rejects -inf first
        return f"input error: {message}: -inf is less than or equal to the minimum of 0\n"
    return f"input error: {message} must be finite, got {value}\n"


class TestNonFinite:
    """NaN and infinities, which JSON readers accept, are input errors in
    every input file."""

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("path,message,positive", [
        (("branches", 0, "x"), "branches[0].x", True),
        (("generators", 1, "inertia"), "generators[1].inertia", False),
        (("loads", 0, "p"), "loads[0].p", False),
    ])
    def test_grid_numbers(self, capsys, tmp_path, value, path, message, positive):
        grid = str(_edited(tmp_path, "wscc9.json", path, value))
        for argv in (["deoc", "--system", grid, "--scenario", str(DATA / "scenario_wscc9.json"),
                      "--out", str(tmp_path / "o")],
                     ["modes", "--system", grid],
                     ["validate", "--system", grid]):
            code, _, err = run(capsys, *argv)
            assert (code, err) == (2, _non_finite_error(value, message, positive))
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("path,message,positive", [
        (("disturbance", "magnitude"), "disturbance.magnitude", False),
        (("stage_window",), "stage_window", True),
        (("t_end",), "t_end", True),
    ])
    def test_deoc_scenario_numbers(self, capsys, tmp_path, value, path, message, positive):
        scn = str(_edited(tmp_path, "scenario_wscc9.json", path, value))
        for argv in (["deoc", "--system", str(DATA / "wscc9.json"), "--scenario", scn,
                      "--out", str(tmp_path / "o")],
                     ["validate", "--scenario", scn]):
            code, _, err = run(capsys, *argv)
            assert (code, err) == (2, _non_finite_error(value, message, positive))
        assert not (tmp_path / "o").exists()

    FILES = {"wscc9.json": "--system", "scenario_wscc9.json": "--scenario",
             "scenario_wscc9_fixed_dp.json": "--scenario", "dfec_twomachine.json": "--scenario"}

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_fuzz_validate(self, data):
        name = data.draw(st.sampled_from(sorted(self.FILES)))
        path = data.draw(st.sampled_from(
            list(_number_paths(json.loads((DATA / name).read_text())))))
        text = data.draw(st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999"]))
        with tempfile.TemporaryDirectory() as tmp:
            file = _edited(Path(tmp), name, path, "@LEAF@")
            file.write_text(file.read_text().replace('"@LEAF@"', text))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["validate", self.FILES[name], str(file)])
        assert code == 2
        assert err.getvalue().startswith("input error: ")
        assert "Traceback" not in err.getvalue()


def _member_paths(value, path=()):
    """Paths of every member and item of a JSON document, sections included."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield path + (key,), item
        yield from _member_paths(item, path + (key,))


class TestFuzz:
    """Mutated bundled documents through every subcommand that reads them
    (``validate``, ``modes``, ``deoc`` and the three ``dfec`` commands on a
    2 s horizon, a 2 x 2 sweep and a one-start optimizer): the exit code is 0,
    1 or 2, and neither a traceback nor a ``RuntimeWarning`` reaches stderr
    (warnings are recorded, each one, as the command would print them)."""

    WRONG_TYPES = ["x", None, True, [], {}, [1.0]]
    HUGE = [1e300, -1e300, 1e9, 10**12]
    NOT_OBJECTS = [[], "x", 0, None, True]

    @staticmethod
    def _commands(name, file, tmp):
        flag = TestNonFinite.FILES[name]
        commands = [["validate", flag, str(file)]]
        if name == "wscc9.json":
            commands += [["modes", "--system", str(file)],
                         ["deoc", "--system", str(file), "--scenario",
                          str(DATA / "scenario_wscc9.json"), "--out", f"{tmp}/deoc"]]
        elif name.startswith("scenario_"):
            commands.append(["deoc", "--system", str(DATA / "wscc9.json"), "--scenario",
                             str(file), "--out", f"{tmp}/deoc"])
        else:
            commands += [["dfec", "simulate", "--scenario", str(file)],
                         ["dfec", "sweep", "--scenario", str(file), "--out", f"{tmp}/s.csv"],
                         ["dfec", "optimize", "--scenario", str(file), "--out", f"{tmp}/r.json"]]
        return commands

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mutated_documents(self, data):
        name = data.draw(st.sampled_from(sorted(TestNonFinite.FILES)))
        doc = json.loads((DATA / name).read_text())
        if "sim" in doc:
            doc["sim"]["horizon"] = 2.0
            doc["sweep"]["t_on"]["count"] = doc["sweep"]["t_off"]["count"] = 2
            doc["optimize"] = {"grid_starts": 1, "refine_starts": 1}
        mutation = data.draw(st.sampled_from(["wrong type", "delete", "huge", "not an object"]))
        if mutation == "not an object":
            doc = data.draw(st.sampled_from(self.NOT_OBJECTS))
        else:
            members = list(_member_paths(doc))
            if mutation == "wrong type":
                members = [m for m in members if not isinstance(m[1], (dict, list))]
            elif mutation == "huge":
                members = [m for m in members if type(m[1]) in (int, float)]
            *parents, key = data.draw(st.sampled_from(members))[0]
            section = doc
            for step in parents:
                section = section[step]
            if mutation == "delete":
                del section[key]
            else:
                pool = self.WRONG_TYPES if mutation == "wrong type" else self.HUGE
                section[key] = data.draw(st.sampled_from(pool))
        with tempfile.TemporaryDirectory() as tmp:
            file = write_json(Path(tmp) / name, doc)
            for argv in self._commands(name, file, tmp):
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                        warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code = main(argv)
                assert code in (0, 1, 2)
                assert "Traceback" not in err.getvalue()
                stray = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
                assert not stray


@st.composite
def deoc_cases(draw):
    """A ``gridstep deoc`` run on a bundled system: its scenario's drawn
    ``t_end``, ``stage_window``, ``targets`` or ``n_targets``, and a pulse at
    a CC bus or an initial state ``x_e + dx`` at ``t0``, ``dx`` moving one
    machine's angle or speed, or every coordinate, or none, by up to
    1e-12 to 1e300."""
    system = draw(st.sampled_from(["wscc9", "ieee39"]))
    model = cli._system(DATA / f"{system}.json")[1]
    m = model.n_machines
    case = {"system": system, "t_end": draw(st.floats(0.01, 12.0)),
            "stage_window": draw(st.floats(0.001, 10.0))}
    if draw(st.booleans()):
        case["targets"] = draw(st.lists(st.integers(0, m), max_size=3))
    else:
        case["n_targets"] = draw(st.integers(1, m + 1))
    size = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-12.0, 300.0))
    kind = draw(st.sampled_from(["angle", "speed", "mixed", "equilibrium", "pulse"]))
    if kind == "pulse":
        case["disturbance"] = {"kind": "power-pulse", "bus": draw(st.sampled_from(model.cc_buses)),
                               "magnitude": size, "start": draw(st.floats(0.0, 1.0)),
                               "duration": draw(st.floats(0.001, 0.5))}
        return case
    dx = [0.0] * (2 * m)
    if kind == "mixed":
        dx = [size * draw(st.floats(-1.0, 1.0)) for _ in dx]
    elif kind != "equilibrium":
        dx[draw(st.integers(0, m - 1)) + (m if kind == "speed" else 0)] = size
    case["disturbance"] = {"kind": "initial-state", "t0": draw(st.floats(0.0, 5.0)), "dx": dx}
    return case


class TestDeocStates:
    """``gridstep deoc`` on drawn disturbances and stage settings of the
    bundled systems exits 0, 1 or 2, with no exception and no
    ``RuntimeWarning`` (warnings are recorded, each one), and a run that does
    not exit 0 writes no files."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=deoc_cases())
    @example(case={"system": "wscc9", "t_end": 10.0, "stage_window": 10.0, "n_targets": 2,
                   "disturbance": {"kind": "initial-state", "t0": 0.0,
                                   "dx": [0.0, 0.0, 1e-3, 0.0]}})
    @example(case={"system": "ieee39", "t_end": 10.0, "stage_window": 10.0, "n_targets": 5,
                   "disturbance": {"kind": "initial-state", "t0": 0.0,
                                   "dx": [0.01] + [0.0] * 8 + [1e151] + [0.0] * 8}})
    def test_runs_or_exits_cleanly(self, case):
        system = DATA / f"{case['system']}.json"
        dist = dict(case["disturbance"])
        if dist["kind"] == "initial-state":
            dist["x0"] = list(cli._system(system)[1].x_eq + dist.pop("dx"))
        doc = {**json.loads((DATA / "scenario_wscc9.json").read_text()), **case,
               "disturbance": dist}
        del doc["system"]
        if "n_targets" in doc:
            del doc["targets"]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "o"
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["deoc", "--system", str(system), "--scenario",
                             str(write_json(Path(tmp) / "s.json", doc)), "--out", str(out)])
            assert code in (0, 1, 2), err.getvalue()
            assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
            assert code == 0 or not out.exists()


class TestDeepNesting:
    """An unknown member nested past what the JSON parser can read is an
    input error naming the file; one the parser reads is validated, and
    system and scenario files both refuse it by name."""

    @staticmethod
    def _nested(tmp_path, name, depth):
        text = (DATA / name).read_text().rstrip()
        path = tmp_path / name
        path.write_text(f'{text[:-1]}, "deep": {"[" * depth}{"]" * depth}}}')
        return str(path)

    def test_too_deep_is_input_error(self, capsys, tmp_path):
        grid, scn, dfec = (self._nested(tmp_path, name, 100_000) for name in
                           ("wscc9.json", "scenario_wscc9.json", "dfec_twomachine.json"))
        out = str(tmp_path / "o")
        for argv, file in [
            (["validate", "--system", grid], grid),
            (["validate", "--scenario", scn], scn),
            (["modes", "--system", grid], grid),
            (["deoc", "--system", grid, "--scenario", str(DATA / "scenario_wscc9.json"),
              "--out", out], grid),
            (["deoc", "--system", str(DATA / "wscc9.json"), "--scenario", scn, "--out", out],
             scn),
            (["dfec", "simulate", "--scenario", dfec], dfec),
        ]:
            code, _, err = run(capsys, *argv)
            assert (code, err) == (2, f"input error: {file}: JSON nested too deeply to read\n")
        assert not (tmp_path / "o").exists()

    def test_readable_depth_validates(self, capsys, tmp_path):
        grid, scn = (self._nested(tmp_path, name, 900)
                     for name in ("wscc9.json", "scenario_wscc9.json"))
        for flag, path in (("--system", grid), ("--scenario", scn)):
            code, out, err = run(capsys, "validate", flag, path)
            assert (code, out, err) == (2, "", "input error: Additional properties are not "
                                               "allowed ('deep' was unexpected)\n")


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

    @staticmethod
    def _twins(x2):
        """Two machines of H 3.5 s on an infinite bus, through 0.5 and ``x2`` pu."""
        return {
            "schema_version": 1, "base_mva": 100.0, "units": "pu",
            "buses": [{"id": 1, "type": "generator"},
                      {"id": 2, "type": "generator"},
                      {"id": 3, "type": "generator"}],
            "branches": [{"from": 1, "to": 3, "x": 0.5},
                         {"from": 2, "to": 3, "x": x2}],
            "generators": [
                {"bus": 1, "inertia": 3.5, "pm": 0.0},
                {"bus": 2, "inertia": 3.5, "pm": 0.0},
                {"bus": 3, "inertia": 1.0, "pm": 0.0, "infinite": True},
            ],
        }

    def test_degenerate_spectrum_is_numeric_failure(self, capsys, tmp_path):
        """A machine tied through 1e15 pu has a modal frequency of 2e-7 rad/s."""
        path = write_json(tmp_path / "loose.json", self._twins(1e15))
        code, _, err = run(capsys, "modes", "--system", str(path))
        head, sigma_min = err.rsplit(" = ", 1)
        assert (code, head) == (1, "error: zero (or negative) modal frequency: sigma_min")
        assert sigma_min.endswith("\n") and float(sigma_min) < 1e-12

    def test_repeated_frequency_is_reported(self, capsys, tmp_path):
        path = write_json(tmp_path / "twins.json", self._twins(0.5))
        code, _, _ = run(capsys, "modes", "--system", str(path), "--out",
                         str(tmp_path / "modes.json"))
        assert code == 0
        modes = json.loads((tmp_path / "modes.json").read_text())["modes"]
        assert modes[0]["frequency_rad_s"] == pytest.approx(modes[1]["frequency_rad_s"],
                                                            rel=1e-12)

    def test_singular_kron_reduction_is_input_error(self, capsys, tmp_path):
        """A leaf load bus hung on a branch of x = 1e15 pu leaves a pivot
        of 1e-15 against the others' O(10): the reduction is refused."""
        doc = json.loads((DATA / "wscc9.json").read_text())
        doc["buses"].append({"id": 99, "type": "non-generator"})
        doc["branches"].append({"from": 5, "to": 99, "x": 1e15})
        doc["loads"].append({"bus": 99, "p": 1.0})
        path = write_json(tmp_path / "leaf.json", doc)
        code, out, err = run(capsys, "modes", "--system", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("input error: singular Kron reduction: pivot ")


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

    @pytest.mark.parametrize("zero_dp,t_end,message", [
        (False, "0.5", "schedule ends at 1.26172 s, after t_end = 0.5 s"),
        (True, "0.05", "t_end = 0.05 s is before the disturbance ends at 0.0833333 s"),
    ])
    def test_short_t_end_writes_nothing(self, capsys, tmp_path, zero_dp, t_end, message):
        doc = json.loads((DATA / "scenario_wscc9.json").read_text())
        if zero_dp:  # every stage is skipped: the schedule is empty
            doc["dp_overrides_mw"] = [[0.0] * 6, [0.0] * 6]
        scn = write_json(tmp_path / "scn.json", doc)
        out = tmp_path / "o"
        code, _, err = run(capsys, "deoc", "--system", str(DATA / "wscc9.json"),
                           "--scenario", str(scn), "--out", str(out), "--t-end", t_end)
        assert code == 2
        assert message in err
        assert not out.exists()

    def _run_edited(self, capsys, tmp_path, path, value):
        """``deoc`` on bundled wscc9 with one scenario leaf edited, recording
        every warning as the command would print it."""
        scn = _edited(tmp_path, "scenario_wscc9.json", path, value)
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, "deoc", "--system", str(DATA / "wscc9.json"),
                               "--scenario", str(scn), "--out", str(out))
        assert not caught and not out.exists()
        return code, err

    @pytest.mark.parametrize("magnitude", [1e300, 1e200, -1e300])
    def test_overflowing_pulse_is_input_error(self, capsys, tmp_path, magnitude):
        # The post-pulse state's oscillation energy overflows: nothing the
        # schedule or the trajectories could hold is finite.
        code, err = self._run_edited(capsys, tmp_path, ("disturbance", "magnitude"), magnitude)
        assert code == 2
        assert err == (f"input error: disturbance.magnitude = {magnitude:g} pu leaves an "
                       f"oscillation energy beyond the float range\n")

    @pytest.mark.parametrize("x0,what", [([0.1, 0.1, 1e200, 1.0], "an oscillation energy"),
                                         ([1e300, 0.1, 1.0, 1.0], "an orbit value")])
    def test_overflowing_initial_state_is_input_error(self, capsys, tmp_path, x0, what):
        # The second state has no speed deviation, so no oscillation energy,
        # but its orbit value, which bounds every later state, overflows.
        code, err = self._run_edited(capsys, tmp_path, ("disturbance",),
                                     {"kind": "initial-state", "x0": x0})
        assert (code, err) == (2, f"input error: disturbance.x0 leaves {what} beyond the "
                                  f"float range\n")

    @pytest.mark.parametrize("speed,code", [(1e151, 0), (1e152, 2)])
    def test_initial_speed_beyond_the_search_scale(self, capsys, tmp_path, speed, code):
        """The switch-time searches take slopes that grow as the orbit value
        times the fastest mode's squared frequency: 4.9e307 at a 1e151 pu
        speed on wscc9, which runs without a warning, and beyond the float
        range at 1e152, which is an input error."""
        scn = _edited(tmp_path, "scenario_wscc9.json", ("disturbance",),
                      {"kind": "initial-state", "x0": [0.1, 0.1, speed, 1.0]})
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got, _, err = run(capsys, "deoc", "--system", str(DATA / "wscc9.json"),
                              "--scenario", str(scn), "--out", str(out))
        assert (got, [str(w.message) for w in caught]) == (code, [])
        if code:
            assert err == ("input error: disturbance.x0 leaves an orbit value times the "
                           "fastest mode's squared frequency beyond the float range\n")
            assert not out.exists()
        else:
            assert err == "" and (out / "controlled.csv").exists()

    @pytest.mark.parametrize("speed,code", [(1e100, 0), (1e151, 2)])
    def test_stage_ride_beyond_the_search_scale(self, capsys, tmp_path, speed, code):
        """On ieee39 a 1e151 pu speed and 0.01 rad on machine 1 passes the
        disturbance's range check, but its first stage's ride has an orbit
        value times its largest energy curvature beyond the float range, which
        bounds the switch-off search's slopes: an input error. At 1e100 pu the
        run is clean."""
        x0 = cli._system(DATA / "ieee39.json")[1].x_eq.copy()
        x0[0] += 0.01
        x0[9] = speed
        scn = _edited(tmp_path, "scenario_ieee39.json", ("disturbance",),
                      {"kind": "initial-state", "x0": list(x0)})
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got, _, err = run(capsys, "deoc", "--system", str(DATA / "ieee39.json"),
                              "--scenario", str(scn), "--out", str(out))
        assert (got, [str(w.message) for w in caught]) == (code, [])
        if code:
            assert err == ("input error: disturbance.x0, or the state a pulse leaves, needs so "
                           "large a target-0 shift that the stage's orbit value times its "
                           "largest energy curvature is beyond the float range\n")
            assert not out.exists()
        else:
            assert err == "" and (out / "controlled.csv").exists()

    @pytest.mark.parametrize("t0", [20.0, 10.0, 1e300])
    def test_initial_state_at_or_after_t_end_is_input_error(self, capsys, tmp_path, t0):
        code, err = self._run_edited(capsys, tmp_path, ("disturbance",),
                                     {"kind": "initial-state", "x0": [0.1, 0.1, 1.0, 1.0],
                                      "t0": t0})
        assert (code, err) == (2, f"input error: disturbance.t0 = {t0:g} s is not before "
                                  f"t_end = 10 s\n")

    def test_scale_is_an_unknown_key(self, capsys, tmp_path):
        code, err = self._run_edited(capsys, tmp_path, ("scale",), 2.0)
        assert (code, err) == (2, "input error: Additional properties are not allowed "
                                  "('scale' was unexpected)\n")

    def test_huge_pulse_runs_silently(self, capsys, tmp_path):
        """A -1e150 pu pulse drives ``|h|`` to ~1e300: the searches read signs
        without multiplying values, so the run keeps the bundled -5 pu
        pulse's stages and prints no overflow warning."""
        lines = []
        for magnitude in (-5.0, -1e150):
            scn = _edited(tmp_path, "scenario_wscc9.json", ("disturbance", "magnitude"),
                          magnitude)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, err = run(capsys, "deoc", "--system", str(DATA / "wscc9.json"),
                                     "--scenario", str(scn), "--out", str(tmp_path / "o"))
            assert (code, err, [str(w.message) for w in caught]) == (0, "", [])
            lines.append(out.split()[:2])
        assert lines[0] == lines[1] == ["stages=2", "skipped=0"]

    @pytest.mark.parametrize("field", ["duration", "start"])
    def test_pulse_past_t_end_is_input_error(self, capsys, tmp_path, field):
        code, err = self._run_edited(capsys, tmp_path, ("disturbance", field), 1e300)
        assert code == 2
        assert err == ("input error: t_end = 10 s is before the disturbance ends at 1e+300 s "
                       "(disturbance.start + disturbance.duration)\n")

    def test_pulse_ending_at_t_end_is_input_error(self, capsys, tmp_path):
        code, err = self._run_edited(capsys, tmp_path, ("disturbance", "duration"), 10.0)
        assert code == 2
        assert err == ("input error: t_end = 10 s is when the disturbance ends at 10 s "
                       "(disturbance.start + disturbance.duration)\n")

    def test_overflowing_injection_override_is_input_error(self, capsys, tmp_path):
        code, err = self._run_edited(capsys, tmp_path, ("dp_overrides_mw",),
                                     [[1e300] + [0.0] * 5, None])
        assert code == 2
        assert err == ("input error: dp_overrides[0] shifts the equilibrium so far that the "
                       "stage's orbit value is beyond the float range\n")

    @pytest.mark.parametrize("targets", [[0, 2], [-1]])
    def test_targets_outside_the_mode_pairs(self, capsys, tmp_path, targets):
        scn = _edited(tmp_path, "scenario_wscc9.json", ("targets",), targets)
        code, _, err = run(capsys, "deoc", "--system", str(DATA / "wscc9.json"),
                           "--scenario", str(scn), "--out", str(tmp_path / "o"))
        assert code == 2
        if targets == [-1]:   # the schema's minimum
            assert err == "input error: targets[0]: -1 is less than the minimum of 0\n"
        else:
            assert err == ("input error: target pair 2 is outside [0, 2): "
                           "the system has 2 mode pairs\n")

    def test_integer_valued_float_targets(self, capsys, tmp_path):
        """JSON Schema's ``integer`` admits ``0.0``: ``targets: [0.0, 1.0]``
        runs as ``[0, 1]``, byte for byte."""
        outputs = []
        for k, targets in enumerate([[0, 1], [0.0, 1.0]]):
            scn = _edited(tmp_path, "scenario_wscc9.json", ("targets",), targets)
            out = tmp_path / f"o{k}"
            code, stdout, err = run(capsys, "deoc", "--system", str(DATA / "wscc9.json"),
                                    "--scenario", str(scn), "--out", str(out))
            assert (code, err) == (0, "")
            outputs.append([stdout] + [p.read_bytes() for p in sorted(out.iterdir())])
        assert outputs[0] == outputs[1]

    def test_wrong_scenario_kind_is_input_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "deoc", "--system", str(DATA / "wscc9.json"),
            "--scenario", str(DATA / "dfec_twomachine.json"),
            "--out", str(tmp_path / "o"),
        )
        assert (code, err) == (2, "input error: scenario file is not a 'deoc' scenario\n")
        assert not (tmp_path / "o").exists()


class TestSystemCache:
    """``deoc`` and ``modes`` build a system once per file content and
    process, and share it read-only."""

    def _deoc(self, capsys, out):
        code, stdout, err = run(capsys, "deoc", "--system", str(DATA / "wscc9.json"),
                                "--scenario", str(DATA / "scenario_wscc9.json"),
                                "--out", str(out))
        assert (code, err) == (0, "")
        return [stdout] + [p.read_bytes() for p in sorted(out.iterdir())]

    def test_cached_runs_match_a_fresh_build(self, capsys, tmp_path):
        cli._built_system.cache_clear()
        first = self._deoc(capsys, tmp_path / "a")
        second = self._deoc(capsys, tmp_path / "b")
        assert cli._built_system.cache_info().hits == 1
        cli._built_system.cache_clear()
        assert first == second == self._deoc(capsys, tmp_path / "c")

    def test_edited_system_file_is_built_again(self, capsys, tmp_path):
        reports = []
        for inertia in (6.4, 12.8):
            path = _edited(tmp_path, "wscc9.json", ("generators", 1, "inertia"), inertia)
            code, out, _ = run(capsys, "modes", "--system", str(path))
            assert code == 0
            reports.append(json.loads(out))
        assert reports[0]["modes"] != reports[1]["modes"]

    @pytest.mark.parametrize("command", ["modes", "deoc"])
    def test_non_utf8_system_file_is_input_error(self, capsys, tmp_path, command):
        path = tmp_path / "odd.json"
        path.write_bytes(b"\xff{}")
        argv = ["--scenario", str(DATA / "scenario_wscc9.json"),
                "--out", str(tmp_path / "o")] if command == "deoc" else []
        code, _, err = run(capsys, command, "--system", str(path), *argv)
        assert (code, err) == (2, "input error: 'utf-8' codec can't decode byte 0xff in "
                                  "position 0: invalid start byte\n")

    def test_cached_arrays_are_read_only(self):
        grid, model, basis = cli._system(DATA / "wscc9.json")
        assert cli._system(DATA / "wscc9.json")[2] is basis
        arrays = [value for obj in (model, basis, *basis.modes)
                  for value in vars(obj).values() if isinstance(value, np.ndarray)]
        assert len(arrays) == 9 + 4 + len(basis.modes)   # model, basis, one per mode
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0.0


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
        assert (code, err) == (1, "error: loss of synchronism: machine angles separated beyond pi\n")

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
        assert {"action", "cost", "uncontrolled_cost", "uncontrolled_nadir",
                "controlled_nadir", "history"} < set(doc)
        assert len(doc["history"]) == 1                 # refine_starts
        surrogate = doc["surrogate"]
        assert surrogate["dp_ref"] == 0.05              # dp_max / 2
        assert surrogate["start"] == doc["history"][0]["start"]
        assert surrogate["start_nonlinear_cost"] == doc["history"][0]["cost"]
        assert surrogate["gap"] == (surrogate["start_nonlinear_cost"]
                                    - surrogate["start_cost"])
        # Symmetric machines: the surrogate is exact to the integrator's tolerance.
        assert abs(surrogate["gap"]) <= 1e-6 * doc["uncontrolled_cost"]
        assert doc["nonlinear_evals"] > len(doc["history"])

    def test_integer_valued_float_starts(self, capsys, tmp_path):
        doc = json.loads((DATA / "dfec_twomachine.json").read_text())
        doc["sim"]["horizon"] = 5.0
        doc["bounds"] = {"dp_max": 0.1, "t_on_max": 1.0, "t_off_max": 4.0}
        doc["optimize"] = {"grid_starts": 1.0, "refine_starts": 1.0}
        scn = write_json(tmp_path / "starts.json", doc)
        out = tmp_path / "result.json"
        code, _, err = run(capsys, "dfec", "optimize", "--scenario", str(scn), "--out", str(out))
        assert (code, err) == (0, "")
        assert len(json.loads(out.read_text())["history"]) == 1

    def test_oversized_start_grid_is_input_error(self, capsys, tmp_path):
        """``grid_starts^3`` starts are bounded like an output grid."""
        doc = json.loads((DATA / "dfec_twomachine.json").read_text())
        doc["optimize"] = {"grid_starts": 216}
        scn = str(write_json(tmp_path / "starts.json", doc))
        for argv in (["validate", "--scenario", scn], ["dfec", "optimize", "--scenario", scn]):
            code, _, err = run(capsys, *argv)
            assert (code, err) == (2, "input error: optimize.grid_starts = 216 gives 216^3 "
                                      "starts, more than 10000000\n")

    @pytest.mark.parametrize("command", ["simulate", "sweep", "optimize"])
    def test_overflowing_action_is_numeric_failure(self, capsys, tmp_path, command):
        doc = json.loads((DATA / "dfec_twomachine.json").read_text())
        doc["sim"]["horizon"], doc["action"] = 20.0, {"dp": 1e308, "t_on": 1.0, "t_off": 5.0}
        doc["sweep"]["dp"] = doc["bounds"]["dp_max"] = 1e308
        scn = write_json(tmp_path / "overflow.json", doc)
        code, _, err = run(capsys, "dfec", command, "--scenario", str(scn),
                           "--out", str(tmp_path / "out"))
        assert (code, err) == (1, "error: DFEC integration failed: the state derivative is not "
                                  "finite, so no initial step size exists.\n")

    @pytest.mark.parametrize("command", ["simulate", "sweep", "optimize"])
    def test_wrong_scenario_kind_is_input_error(self, capsys, tmp_path, command):
        out = tmp_path / "out"
        code, _, err = run(capsys, "dfec", command, "--scenario",
                           str(DATA / "scenario_wscc9.json"), "--out", str(out))
        assert (code, err) == (2, "input error: scenario file is not a 'dfec' scenario\n")
        assert not out.exists()

    def test_sweep_without_sweep_section_is_input_error(self, capsys, tmp_path):
        doc = json.loads((DATA / "dfec_twomachine.json").read_text())
        del doc["sweep"]
        scn = write_json(tmp_path / "no_sweep.json", doc)
        out = tmp_path / "sweep.csv"
        code, _, err = run(capsys, "dfec", "sweep", "--scenario", str(scn), "--out", str(out))
        assert (code, err) == (2, "input error: scenario has no 'sweep' section\n")
        assert not out.exists()

    def test_sweep_workers_flag_is_gone(self, capsys, tmp_path, small_dfec_scenario):
        with pytest.raises(SystemExit) as exc:
            main(["dfec", "sweep", "--scenario", str(small_dfec_scenario),
                  "--out", str(tmp_path / "sweep.csv"), "--workers", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("sim", [
        {"dt_out": 0},
        {"horizon": 0},
        {"horizon": -10.0},
        {"rtol": 0},
        {"rtol": -1e-6},
        {"atol": 0},
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

    def test_old_ss_window_setting_is_input_error(self, capsys, tmp_path):
        # The steady state comes from the model now; the tail window is gone.
        doc = json.loads((DATA / "dfec_twomachine.json").read_text())
        doc["sim"]["ss_window"] = 2.0
        scn = write_json(tmp_path / "old.json", doc)
        for command in ("simulate", "sweep", "optimize"):
            code, _, err = run(capsys, "dfec", command, "--scenario", str(scn),
                               "--out", str(tmp_path / "out"))
            assert (code, err) == (2, "input error: sim: Additional properties are not "
                                      "allowed ('ss_window' was unexpected)\n")

    @pytest.mark.parametrize("command", ["simulate", "optimize"])
    def test_no_steady_state_is_numeric_failure(self, capsys, tmp_path, command):
        # No damping and a governor limit below the load: the speed falls on.
        # A governor loop that rings on around its equilibrium never settles.
        ringing = dict(k1=20.0, t1=0.5, t2=0.0, t3=0.5, k2=1.0, k3=1.0, t4=1.5, t5=4.0,
                       t6=30.0)
        for damping, governor in ((0.0, {"p_max": 0.8}), (1.0, ringing)):
            doc = json.loads((DATA / "dfec_twomachine.json").read_text())
            doc["model"]["d1"] = doc["model"]["d2"] = damping
            doc["governor"].update(governor)
            doc["sim"]["horizon"] = 20.0
            scn = write_json(tmp_path / "unsettled.json", doc)
            code, _, err = run(capsys, "dfec", command, "--scenario", str(scn),
                               "--out", str(tmp_path / "out"))
            run_name = "uncontrolled run: " if command == "optimize" else ""
            assert (code, err) == (1, f"error: {run_name}the frequency does not settle: no "
                                      f"stable speed balances the final load\n")
            assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("path,value,message", [
        (("model", "e1"), 0.0, "model.e1 must be finite and > 0"),
        (("model", "e2"), 0.0, "model.e2 must be finite and > 0"),
        (("model", "x"), -0.4, "model.x must be finite and > 0"),
        (("model", "h2"), 0.0, "model.h2 must be finite and > 0"),
        (("model", "omega_s"), 0.0, "model.omega_s must be finite and > 0"),
        (("model", "h1"), float("nan"), "model.h1 must be finite"),
        (("governor", "k1"), float("inf"), "governor.k1 must be finite"),
        (("sim", "disturbance"), float("nan"), "sim.disturbance must be finite"),
        (("bounds", "dp_max"), float("nan"), "bounds.dp_max must be finite"),
        (("sweep", "t_on", "start"), float("nan"), "sweep.t_on.start must be finite"),
        (("governor", "k1"), -1.0, "governor.k1 must be >= 0"),
        (("model", "d1"), -0.5, "model.d1 must be >= 0"),
        (("model", "d2"), -0.5, "model.d2 must be >= 0"),
    ])
    def test_bad_model_numbers_are_input_errors(self, capsys, tmp_path, path, value,
                                                message):
        doc = json.loads((DATA / "dfec_twomachine.json").read_text())
        *parents, key = path
        section = doc
        for name in parents:
            section = section[name]
        section[key] = value
        scn = write_json(tmp_path / "bad_number.json", doc)
        for command in ("simulate", "sweep"):
            code, _, err = run(capsys, "dfec", command, "--scenario", str(scn),
                               "--out", str(tmp_path / "out.csv"))
            assert code == 2
            assert f"input error: {message}" in err

    def test_simulate_dt_out_zero_flag_is_input_error(self, capsys):
        code, _, err = run(capsys, "dfec", "simulate", "--scenario",
                           str(DATA / "dfec_twomachine.json"), "--dt-out", "0")
        assert code == 2
        assert "dt_out" in err


# Packages of the ``test`` extra (scipy, and jsonschema with what it imports).
TEST_ONLY = ("scipy", "jsonschema", "referencing", "rpds", "attrs", "attr",
             "jsonschema_specifications")

# Runs each command through ``cli.main`` in one fresh interpreter and prints
# the exit codes and the modules of TEST_ONLY packages that interpreter loaded.
_IMPORT_PROBE = """
import contextlib, io, json, sys
from gridstep.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes,
                  "test_only": sorted(m for m in sys.modules
                                      if m.split(".")[0] in json.loads(sys.argv[2]))}))
"""


def test_commands_load_no_scipy(tmp_path):
    """scipy and jsonschema are test dependencies only: no command imports
    any of them, or of the packages jsonschema imports."""
    doc = json.loads((DATA / "dfec_twomachine.json").read_text())
    doc["sim"]["horizon"] = 2.0
    doc["optimize"] = {"grid_starts": 1, "refine_starts": 1}
    doc["sweep"]["t_on"]["count"] = doc["sweep"]["t_off"]["count"] = 2
    dfec = str(write_json(tmp_path / "dfec_short.json", doc))
    wscc9, scenario = str(DATA / "wscc9.json"), str(DATA / "scenario_wscc9.json")
    commands = [
        ["validate", "--system", wscc9, "--scenario", scenario],
        ["modes", "--system", wscc9],
        ["deoc", "--system", wscc9, "--scenario", scenario, "--out", str(tmp_path / "deoc")],
        ["dfec", "simulate", "--scenario", str(DATA / "dfec_twomachine.json"), "--t-end", "2"],
        ["dfec", "optimize", "--scenario", dfec, "--out", str(tmp_path / "result.json")],
        ["dfec", "sweep", "--scenario", dfec, "--out", str(tmp_path / "sweep.csv")],
    ]
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(commands),
                           json.dumps(TEST_ONLY)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"codes": [0] * len(commands), "test_only": []}
    assert (tmp_path / "result.json").is_file()


def test_parser_is_built_once_and_commands_are_found_by_name(capsys, monkeypatch):
    """One parser serves every call; the command run is the module's
    ``cmd_*`` at call time, so a wrapped or replaced one is reached."""
    assert run(capsys, "validate", "--scenario", str(DATA / "dfec_twomachine.json"))[0] == 0
    parser = cli._parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_validate", lambda args: seen.append(args.scenario) or 0)
    assert run(capsys, "validate", "--scenario", "elsewhere.json")[0] == 0
    assert seen == ["elsewhere.json"] and cli._parser() is parser
