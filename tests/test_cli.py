import json

import pytest

from hcara.cli import main, parse_point
from hcara.errors import InputError
from hcara.jsonio import dump_canonical
from hcara.shapes import cube_normals, cube_polytope, triangle_normals
from fractions import Fraction as F


@pytest.fixture
def files(tmp_path):
    paths = {}

    def write(name, doc):
        p = tmp_path / name
        p.write_text(dump_canonical(doc))
        paths[name] = str(p)

    write("cube3.json", cube_normals(3).to_json())
    write("triangle.json", triangle_normals().to_json())
    write("cube2p.json", cube_polytope(2).to_json())
    write("axis.json", {"dim": 3, "normals": [["1", "0", "0"]]})
    write("single.json", {"dim": 3, "points": [["0", "0", "0"]]})
    write("pair.json", {"dim": 2, "points": [["0", "0"], ["1", "1"]]})
    write("config.json", {"seed": 5, "trials": 2, "dim": 2, "scaling_depth": 1})
    return paths


class TestParsePoint:
    def test_fractions(self):
        assert parse_point("1/2,-3,0") == (F(1, 2), F(-3), F(0))

    def test_float_rejected(self):
        with pytest.raises(InputError):
            parse_point("0.5,1")

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            parse_point("")


class TestVerbs:
    def test_cara_json(self, files, capsys):
        assert main(["cara", files["cube3.json"], "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["helly"] == 2 and doc["cone"] == 3 and doc["caratheodory"] == 3

    def test_helly_and_cone(self, files, capsys):
        assert main(["helly", files["cube3.json"], "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["helly"] == 2
        assert main(["cone", files["cube3.json"], "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["cone"] == 3

    def test_h_member_negative_coordinates(self, files, capsys):
        code = main(["h-member", files["axis.json"], files["single.json"],
                     "--point", "-5,7,2"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_strong_member(self, files, capsys):
        code = main(["strong-member", files["cube2p.json"], files["pair.json"],
                     "--point", "1,0"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"
        code = main(["strong-member", files["cube2p.json"], files["pair.json"],
                     "--point", "3/2,1/2"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "false"

    def test_witness(self, files, capsys):
        assert main(["witness", "--kind", "cone", files["cube3.json"], "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "CONE" and doc["covering_ok"] and doc["drop_one_ok"]

    def test_helly_witness(self, files, capsys):
        assert main(["witness", "--kind", "helly", files["triangle.json"], "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "HELLY" and doc["normals_used"] == [0, 1, 2]
        assert len(doc["points"]["points"]) == 3
        assert doc["covering_ok"] and doc["drop_one_ok"]

    def test_validate(self, files, capsys, tmp_path):
        pts = tmp_path / "w.json"
        pts.write_text(dump_canonical({"dim": 3, "points": [["0", "-1", "-1"], ["-1", "0", "-1"], ["-1", "-1", "0"]]}))
        assert main(["validate", files["cube3.json"], str(pts), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["covering_ok"] and doc["drop_one_ok"]

    def test_experiment_with_config_and_overrides(self, files, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "experiment", "--config", files["config.json"],
            "--trials", "3", "--out", str(out), "--json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["trials"] == 3 and doc["config"]["seed"] == 5
        assert json.loads(out.read_text()) == doc


class TestExitCodes:
    def test_experiment_reports_failures_with_exit_1(self, files, capsys, monkeypatch):
        # exit-code plumbing only: substitute a report carrying one candidate
        import hcara.cli as cli

        synthetic = {
            "violations": [],
            "counterexample_candidates": [{"kind": "COUNTEREXAMPLE-CANDIDATE"}],
            "summary": {
                "trials": 1, "violations": 0, "counterexample_candidates": 1,
                "scaling_certified": 1, "scaling_inconclusive": 0,
            },
        }
        monkeypatch.setattr(cli, "run_suite", lambda config, parallel: synthetic)
        assert main(["experiment", "--trials", "1"]) == 1

    def test_unwritable_out_is_input_error(self, capsys, tmp_path):
        out = tmp_path / "no-such-dir" / "report.json"
        assert main(["experiment", "--trials", "1", "--out", str(out)]) == 2
        assert f"error: cannot write {out}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_is_input_error(self, capsys):
        assert main(["cara", "missing.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_float_point_is_input_error(self, files, capsys):
        code = main(["h-member", files["axis.json"], files["single.json"],
                     "--point", "0.5,1"])
        assert code == 2

    def test_precondition_error_is_3(self, files, capsys, tmp_path):
        far = tmp_path / "far.json"
        far.write_text(dump_canonical({"dim": 2, "points": [["0", "0"], ["9", "0"]]}))
        code = main(["strong-member", files["cube2p.json"], str(far),
                     "--point", "1,0"])
        assert code == 3

    def test_helly_witness_of_one_sided_set_is_3(self, files, capsys):
        assert main(["witness", "--kind", "helly", files["axis.json"]]) == 3
        assert "simplex-with-origin" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config",
        [{"trials": 0}, {"dim": 9}, {"scaling_depth": -1}, {"seed": -3}],
    )
    def test_out_of_range_config_is_input_error(self, config, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(dump_canonical(config))
        assert main(["experiment", "--config", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "coordinate", ['"' + "1" * 5000 + '"', "1" * 5000], ids=["string", "bare-int"]
    )
    def test_over_long_integer_is_input_error(self, coordinate, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"dim": 1, "normals": [[' + coordinate + "]]}")
        assert main(["cara", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, files):
        with pytest.raises(SystemExit) as exc_info:
            main(["cara", files["cube3.json"], "--nope"])
        assert exc_info.value.code == 2


class TestJsonStability:
    def test_identical_invocations_byte_identical(self, files, capsys):
        main(["cara", files["cube3.json"], "--json"])
        first = capsys.readouterr().out
        main(["cara", files["cube3.json"], "--json"])
        second = capsys.readouterr().out
        assert first == second
