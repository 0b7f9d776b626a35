import hashlib
import json
from fractions import Fraction as F

import pytest

from periloc.cli import main
from periloc.density import step_law
from periloc.jsonio import (
    dumps_canonical,
    law_from_obj,
    law_to_obj,
    path_from_obj,
    path_to_obj,
    point_system_from_obj,
    point_system_to_obj,
)
from periloc.paths import PiecewiseLinearPath
from periloc.poset import PointSystem

E1T_LAW = step_law(
    F(1, 2), (0, F(3, 10), F(1, 2)), (2, 1), atom0=F(1, 10), atomT=F(1, 10)
)
# constant 4/3 on (0, 3/4): passes the variation check, outside the hull
FOUR_THIRDS = step_law(F(1), (0, F(3, 4), 1), (F(4, 3), 0))


def _law_file(tmp_path, law, name="law.json"):
    p = tmp_path / name
    p.write_text(dumps_canonical(law_to_obj(law)))
    return str(p)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


class TestRoundTrips:
    def test_law(self):
        law = E1T_LAW
        assert law_from_obj(law_to_obj(law)) == law

    def test_path(self):
        g = PiecewiseLinearPath([(0, 2), (F(1, 2), F(-1, 3)), (1, 2)])
        assert path_from_obj(path_to_obj(g)) == g

    def test_point_system(self):
        ps = PointSystem((F(1, 4), F(3, 4)), "explicit", (1, 0))
        assert point_system_from_obj(point_system_to_obj(ps)) == ps
        plain = PointSystem((F(1, 4),), "first_time")
        assert point_system_from_obj(point_system_to_obj(plain)) == plain


class TestCheck:
    def test_member(self, tmp_path, capsys):
        code, rep = _run(capsys, "check", _law_file(tmp_path, E1T_LAW), "--class", "E1T")
        assert code == 0 and rep["verdict"] == "member"

    def test_non_member(self, tmp_path, capsys):
        code, rep = _run(capsys, "check", _law_file(tmp_path, E1T_LAW), "--class", "EMT")
        assert code == 1 and rep["verdict"] == "non-member"
        assert rep["violated_conditions"]

    def test_tv_versus_hull(self, tmp_path, capsys):
        law = _law_file(tmp_path, FOUR_THIRDS)
        code, rep = _run(capsys, "check", law, "--class", "TV")
        assert code == 0 and rep["verdict"] == "member"
        code, rep = _run(capsys, "check", law, "--class", "hull")
        assert code == 1 and rep["witness"]["integral"] == "3/2"

    def test_malformed(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nonsense": 1}\n')
        assert main(["check", str(bad), "--class", "ET"]) == 64


class TestConstructSimulate:
    def test_round_trip(self, tmp_path, capsys):
        law = _law_file(tmp_path, E1T_LAW)
        out = str(tmp_path / "path.json")
        code, rep = _run(capsys, "construct", law, "--kind", "invariant", "--out", out)
        assert code == 0
        assert rep["plan"]["m1"] == 1
        nodes = json.loads(open(out).read())["nodes"]
        assert nodes[0] == ["0", "2"]
        code, rep = _run(
            capsys, "simulate", out, "--locator", "sup", "--T", "1/2",
            "--grid", "4000", "--target", law,
        )
        assert code == 0 and rep["comparison"]["passed"]

    def test_gate_failure_reports_membership(self, tmp_path, capsys):
        law = _law_file(tmp_path, FOUR_THIRDS)
        code, rep = _run(capsys, "construct", law, "--kind", "invariant")
        assert code == 1 and rep["gate"]["verdict"] == "non-member"

    def test_first_time_layers(self, tmp_path, capsys):
        law = step_law(
            F(2, 5), (0, F(1, 5), F(2, 5)), (3, 1), atom0=F(1, 20), atomInf=F(3, 20)
        )
        code, rep = _run(
            capsys, "construct", _law_file(tmp_path, law), "--kind", "first-time"
        )
        assert code == 0 and rep["layers"] == ["2/5", "1/5", "1/5"]

    def test_full_window_reports_no_plan(self, tmp_path, capsys):
        # the T = 1 construction is a fixed triangle, not a valley plan
        law = _law_file(tmp_path, step_law(1, (0, 1), (1,)))
        out = str(tmp_path / "path.json")
        code, rep = _run(capsys, "construct", law, "--kind", "invariant", "--out", out)
        assert code == 0 and rep["plan"] is None
        assert json.loads(open(out).read())["nodes"] == [["0", "2"], ["1/2", "0"], ["1", "2"]]

    def test_wrong_target_fails(self, tmp_path, capsys):
        law = _law_file(tmp_path, E1T_LAW)
        wrong = step_law(
            F(1, 2), (0, F(3, 10), F(1, 2)), (2, 1), atom0=F(3, 20), atomT=F(1, 20)
        )
        out = str(tmp_path / "path.json")
        _run(capsys, "construct", law, "--kind", "invariant", "--out", out)
        code, rep = _run(
            capsys, "simulate", out, "--locator", "sup", "--T", "1/2",
            "--grid", "2000", "--target", _law_file(tmp_path, wrong, "wrong.json"),
        )
        assert code == 1 and not rep["comparison"]["passed"]

    def test_mismatched_window_rejected(self, tmp_path, capsys):
        law = _law_file(tmp_path, E1T_LAW)
        out = str(tmp_path / "path.json")
        _run(capsys, "construct", law, "--kind", "invariant", "--out", out)
        code = main(
            ["simulate", out, "--locator", "sup", "--T", "3/5",
             "--grid", "100", "--target", law]
        )
        assert code == 64

    def test_bad_locator_rejected(self, tmp_path, capsys):
        law = _law_file(tmp_path, E1T_LAW)
        out = str(tmp_path / "path.json")
        _run(capsys, "construct", law, "--kind", "invariant", "--out", out)
        assert main(["simulate", out, "--locator", "sdrawkcab", "--T", "1/2", "--grid", "10"]) == 64

    def test_zero_denominator_level_rejected(self, tmp_path, capsys):
        law = _law_file(tmp_path, E1T_LAW)
        out = str(tmp_path / "path.json")
        _run(capsys, "construct", law, "--kind", "invariant", "--out", out)
        assert main(["simulate", out, "--locator", "first-hit:1/0", "--T", "1/2", "--grid", "10"]) == 64

    def test_ecdf_csv(self, tmp_path, capsys):
        law = _law_file(tmp_path, E1T_LAW)
        out = str(tmp_path / "path.json")
        csv = str(tmp_path / "ecdf.csv")
        _run(capsys, "construct", law, "--kind", "invariant", "--out", out)
        _run(
            capsys, "simulate", out, "--locator", "sup", "--T", "1/2",
            "--grid", "200", "--ecdf", csv,
        )
        lines = open(csv).read().splitlines()
        assert lines[0] == "t,F"
        assert lines[1].startswith("0.0,") and lines[-1].endswith(",1.0")

    def test_seed_env_wins(self, tmp_path, capsys, monkeypatch):
        law = _law_file(tmp_path, E1T_LAW)
        out = str(tmp_path / "path.json")
        _run(capsys, "construct", law, "--kind", "invariant", "--out", out)
        monkeypatch.setenv("SEED", "11")
        code, rep = _run(
            capsys, "simulate", out, "--locator", "sup", "--T", "1/2",
            "--mc", "50", "--seed", "3",
        )
        assert rep["manifest"]["seed"] == 11

    def test_deterministic_reports(self, tmp_path, capsys):
        law = _law_file(tmp_path, E1T_LAW)
        out = str(tmp_path / "path.json")
        _run(capsys, "construct", law, "--kind", "invariant", "--out", out)
        runs = []
        for _ in range(2):
            main(["simulate", out, "--locator", "sup", "--T", "1/2", "--mc", "300", "--seed", "5"])
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]


class TestDecomposeBoundMix:
    def test_decompose(self, tmp_path, capsys):
        code, rep = _run(capsys, "decompose", _law_file(tmp_path, E1T_LAW))
        assert code == 0
        assert rep["counts"] == {"base": 1, "left": 1, "right": 0, "central": 0}

    def test_decompose_needs_integer_steps(self, tmp_path, capsys):
        code, rep = _run(capsys, "decompose", _law_file(tmp_path, FOUR_THIRDS))
        assert code == 1 and "error" in rep

    def test_bound_artifact_feeds_back(self, tmp_path, capsys):
        out = str(tmp_path / "bound.json")
        code, rep = _run(capsys, "bound", "--t", "1/5", "--T", "1/2", "--out", out)
        assert code == 0 and rep["value_at_t"] == "4"
        assert main(["check", out, "--class", "E1T"]) == 0

    def test_bound_bad_point(self, capsys):
        assert main(["bound", "--t", "3/5", "--T", "1/2"]) == 64

    def test_construct_bound_kind(self, tmp_path, capsys):
        law = _law_file(tmp_path, E1T_LAW)  # only its T is used
        out = str(tmp_path / "path.json")
        code, rep = _run(capsys, "construct", law, "--kind", "bound:1/5", "--out", out)
        assert code == 0 and rep["law"]["density"]["segments"][1]["p"] == "4"
        code, _ = _run(
            capsys, "simulate", out, "--locator", "sup", "--T", "1/2",
            "--grid", "100",
        )
        assert code == 0

    def test_mix_certificates(self, tmp_path, capsys):
        ramp = step_law(F(3, 5), (0, F(1, 2), F(3, 5)), (0, 0), atom0=1)
        obj = law_to_obj(ramp)
        obj["density"]["segments"][0] = {"p": "2", "q": "-4"}
        obj["atoms"]["zero"] = "1/2"
        p = tmp_path / "ramp.json"
        p.write_text(dumps_canonical(obj))
        for method in ("convex", "gap", "linear"):
            code, rep = _run(capsys, "mix", str(p), "--method", method)
            assert code == 0, method
            assert rep["certificate"]["kind"] == f"{method}_corollary"
        code, rep = _run(capsys, "mix", str(p), "--method", "search", "--n", "8")
        assert code == 0 and rep["max_row_sum"] == "1/2"
        code, rep = _run(capsys, "mix", str(p), "--method", "oracle", "--n", "6")
        assert code == 0 and rep["certificate"]["evidence"]["max_row_sum"] == "1/2"

    def test_mix_unknown_and_infeasible(self, tmp_path, capsys):
        steep = step_law(F(1), (0, F(1, 5), 1), (0, 0), atom0=1)
        obj = law_to_obj(steep)
        obj["density"]["segments"] = [
            {"p": "5", "q": "-20"},
            {"p": "5/4", "q": "-5/4"},
        ]
        obj["atoms"]["zero"] = "0"
        p = tmp_path / "steep.json"
        p.write_text(dumps_canonical(obj))
        code, rep = _run(capsys, "mix", str(p), "--method", "convex")
        assert code == 2 and rep["certificate"] is None

        rigid = law_to_obj(step_law(F(4, 5), (0, F(2, 5), F(4, 5)), (0, 0), atom0=1))
        rigid["density"]["segments"] = [
            {"p": "2", "q": "0"},
            {"p": "2", "q": "-5/2"},
        ]
        rigid["atoms"]["zero"] = "0"
        q = tmp_path / "rigid.json"
        q.write_text(dumps_canonical(rigid))
        code, rep = _run(capsys, "mix", str(q), "--method", "search", "--n", "8")
        assert code == 2
        code, rep = _run(capsys, "mix", str(q), "--method", "oracle", "--n", "6")
        assert code == 1 and rep["max_row_sum"] == "7/6"


class TestBadArgumentValues:
    """Argument values the library refuses are usage errors (64), reported
    as one JSON line on stderr, never a traceback with exit 1."""

    @staticmethod
    def _usage_error(capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 64, argv
        assert captured.out == ""
        return json.loads(captured.err)["error"]

    def test_simulate_sample_sizes(self, tmp_path, capsys):
        law = _law_file(tmp_path, E1T_LAW)
        out = str(tmp_path / "path.json")
        _run(capsys, "construct", law, "--kind", "invariant", "--out", out)
        for flag, value in (("--grid", "0"), ("--grid", "-3"), ("--mc", "0")):
            self._usage_error(capsys, "simulate", out, "--locator", "sup", "--T", "1/2", flag, value)

    def test_mix_quantile_levels(self, tmp_path, capsys):
        law = _law_file(tmp_path, MIX3_LAW)
        for n in ("1", "0"):
            assert self._usage_error(capsys, "mix", law, "--method", "search", "--n", n) == "need n >= 2"
        for n in ("0", "-2"):
            assert self._usage_error(capsys, "mix", law, "--method", "oracle", "--n", n) == "need n >= 1"
        assert self._usage_error(capsys, "mix", law, "--method", "oracle", "--n", "9") == "oracle limited to n <= 8"

    def test_check_hull_on_sloped_density(self, tmp_path, capsys):
        ramp = law_to_obj(step_law(F(3, 5), (0, F(1, 2), F(3, 5)), (0, 0), atom0=1))
        ramp["density"]["segments"][0] = {"p": "2", "q": "-4"}
        ramp["atoms"]["zero"] = "1/2"
        p = tmp_path / "ramp.json"
        p.write_text(dumps_canonical(ramp))
        message = self._usage_error(capsys, "check", str(p), "--class", "hull")
        assert message == "hull test supports step densities only"

    def test_construct_bound_point_outside_window(self, tmp_path, capsys):
        law = _law_file(tmp_path, E1T_LAW)  # T = 1/2
        message = self._usage_error(capsys, "construct", law, "--kind", "bound:3/5")
        assert message == "need 0 < t < T <= 1"

    def test_construct_bound_eps_out_of_range(self, tmp_path, capsys):
        law = _law_file(tmp_path, E1T_LAW)
        message = self._usage_error(capsys, "construct", law, "--kind", "bound:1/5,9")
        assert message == "eps must lie in [0, 1/30]"


# --- mix reports recorded from the Fraction kernels ---
# The expected output below was printed by `periloc mix` when the oracle and
# the rearrangement still scanned Fraction columns; the integer kernels must
# print the same bytes.

# N = 3 step density (5/2, 3/2, 1/2) on (0, 1/8, 1/4, 1/2), mass 5/8
MIX3_LAW = step_law(
    F(1, 2), (0, F(1, 8), F(1, 4), F(1, 2)), (F(5, 2), F(3, 2), F(1, 2)), atom0=F(3, 8)
)

MIX3_ORACLE_7 = """{
  "N": 3,
  "certificate": {
    "evidence": {
      "matrix": [
        [
          "1/4",
          "1/8",
          "1/8"
        ],
        [
          "1/4",
          "1/8",
          "1/8"
        ],
        [
          "1/4",
          "1/4",
          "1/8"
        ],
        [
          "1/2",
          "1/8",
          "1/8"
        ],
        [
          "1/2",
          "1/4",
          "0"
        ],
        [
          "1/2",
          "1/4",
          "0"
        ],
        [
          "1/2",
          "1/4",
          "0"
        ]
      ],
      "max_row_sum": "3/4",
      "n": 7
    },
    "kind": "coupling"
  },
  "manifest": {
    "grid": null,
    "inputs": {
      "law": "sha256:3d303c56c6bdae24c624d90d7aad926fad8a5528ff1939cc7c065e397372756a"
    },
    "seed": 0,
    "subcommand": "mix",
    "version": "0.1.0"
  },
  "max_row_sum": "3/4",
  "means": [
    "3/8",
    "3/16",
    "1/16"
  ],
  "method": "oracle",
  "n": 7
}
"""

MIX3_SEARCH_64_SHA256 = "eac2d909efb9dc930567b0cf6f5ad1eeee122e68671d43b4804eeff30f488335"
MIX3_SEARCH_64_MATRIX = [["1/2", "1/8", "0"]] * 32 + [["1/4", "1/4", "1/8"]] * 32


class TestMixReportsUnchanged:
    @pytest.fixture
    def law_path(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SEED", raising=False)
        return _law_file(tmp_path, MIX3_LAW)

    def test_oracle_n7(self, law_path, capsys):
        code = main(["mix", law_path, "--method", "oracle", "--n", "7"])
        assert code == 0
        assert capsys.readouterr().out == MIX3_ORACLE_7

    def test_search_n64(self, law_path, capsys):
        code = main(["mix", law_path, "--method", "search", "--n", "64"])
        out = capsys.readouterr().out
        assert code == 0
        rep = json.loads(out)
        assert rep["max_row_sum"] == "5/8" and rep["slack"] == "1/128"
        assert rep["certificate"]["evidence"]["matrix"] == MIX3_SEARCH_64_MATRIX
        assert hashlib.sha256(out.encode()).hexdigest() == MIX3_SEARCH_64_SHA256
