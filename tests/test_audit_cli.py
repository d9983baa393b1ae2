"""Convergence audit enumeration and the command-line surface."""

import json
import pathlib

import pytest

from operadlab.audit import (
    AlgebraGenerator,
    AuditInput,
    ForcedDifferential,
    InconclusiveAudit,
    abutment_dims,
    convergence_audit,
    e2_table,
    e2_total_dims,
    framed_tensor_check,
    standard_audit_input,
)
from operadlab.cli import main


class TestAudit:
    @pytest.mark.parametrize(
        "d,source,target",
        [(5, (-1, 7), (-3, 8)), (7, (-1, 11), (-3, 12))],
    )
    def test_unique_forced_differential(self, d, source, target):
        forced = convergence_audit(standard_audit_input(d))
        assert len(forced) == 1
        f = forced[0]
        assert (f.r, f.source, f.target) == (2, source, target)

    def test_matching_abutment_gives_empty_list(self):
        inp = AuditInput(
            e2_generators=(
                AlgebraGenerator("a", -1, 3),
                AlgebraGenerator("b", -2, 6),
            ),
            abutment_degrees=(2, 4),
            t_max=10,
        )
        assert convergence_audit(inp) == []

    def test_shift_invariant_enforced(self):
        with pytest.raises(ValueError):
            ForcedDifferential(2, (-1, 7), (-4, 8), "bad shift")

    def test_inconclusive_is_reported_not_guessed(self):
        # two identical odd surplus generators give symmetric candidates
        inp = AuditInput(
            e2_generators=(
                AlgebraGenerator("u", -1, 4),
                AlgebraGenerator("v", -3, 6),
                AlgebraGenerator("w", -1, 6),
            ),
            abutment_degrees=(2,),
            t_max=6,
        )
        with pytest.raises(InconclusiveAudit):
            convergence_audit(inp)

    def test_tables_by_monomial_counting(self):
        inp = standard_audit_input(5)
        table = e2_table(inp)
        assert table[(0, 0)] == 1
        assert table[(-2, 4)] == 1  # x
        assert table[(-3, 8)] == 1  # the odd self-bracket
        assert table[(-1, 7)] == 1  # top loop class
        assert e2_total_dims(inp)[5] == 1
        assert abutment_dims(inp)[5] == 0 or 5 not in abutment_dims(inp)


class TestTensorCheck:
    def test_framed_splitting_small_window(self):
        rep = framed_tensor_check(5, 4, 10)
        assert rep.ok
        assert rep.framed_dims and rep.framed_dims == rep.convolution_dims


class TestCLI:
    def test_audit_command(self, capsys):
        assert main(["audit", "--d", "5"]) == 0
        out = capsys.readouterr().out
        assert "page 2: (-1, 7) -> (-3, 8)" in out

    def test_obstruction_command(self, capsys):
        assert main(["obstruction", "--instance", "witness:m=2"]) == 0
        out = capsys.readouterr().out
        assert "class nonzero" in out

    def test_obstruction_baseline(self, capsys):
        assert main(
            ["obstruction", "--instance", "poisson:d=5", "--m", "2"]
        ) == 0
        assert "class zero" in capsys.readouterr().out

    def test_cobar_command(self, capsys):
        assert main(["cobar", "--d", "5", "--p-min", "-4", "--q-max", "10"]) == 0
        assert "totals" in capsys.readouterr().out

    def test_hochschild_and_bracket(self, capsys):
        assert main(
            ["hochschild", "--instance", "sphere:d=5", "--n-max", "4", "--q-max", "8"]
        ) == 0
        capsys.readouterr()
        assert main(
            [
                "bracket", "--instance", "sphere:d=5",
                "--n-max", "4", "--q-max", "8",
                "--class-a=-2,4,0", "--class-b=-2,4,0",
            ]
        ) == 0
        assert "nonzero" in capsys.readouterr().out

    def test_unknown_instance_is_usage_error(self, capsys):
        assert main(["hochschild", "--instance", "torus:d=5"]) == 2

    def test_selftest(self, capsys):
        assert main(["selftest"]) == 0
        assert "checks passed" in capsys.readouterr().out

    def test_json_report_and_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d = 7\n# comment\n")
        out = tmp_path / "reports"
        assert main(["--config", str(cfg), "--out", str(out), "audit"]) == 0
        capsys.readouterr()
        data = json.loads((out / "audit.json").read_text())
        assert data["d"] == 7
        assert data["forced"][0]["source"] == [-1, 11]

    @pytest.mark.parametrize(
        "flag", [["--q-max=8"], ["--q-max", "8"]], ids=["equals", "space"]
    )
    def test_command_line_overrides_config(self, tmp_path, capsys, flag):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q_max = 4\n")
        out = tmp_path / "reports"
        argv = ["--config", str(cfg), "--out", str(out), "hochschild", *flag]
        assert main(argv) == 0
        capsys.readouterr()
        dims = json.loads((out / "hochschild.json").read_text())["dims"]
        assert "-3,8" in dims  # q = 8 is only computed when --q-max wins
        assert main(["--config", str(cfg), "--out", str(out), "hochschild"]) == 0
        dims = json.loads((out / "hochschild.json").read_text())["dims"]
        assert max(int(k.split(",")[1]) for k in dims) == 4

    def test_bad_config_value_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_max = five\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "hochschild"])
        assert exc.value.code == 2

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not a config line\n")
        assert main(["--config", str(cfg), "audit"]) == 2

    @pytest.mark.parametrize("how", ["flag", "flag-below", "config"])
    def test_unusable_out_exits_before_any_work(self, tmp_path, capsys, how):
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "x" if how == "flag-below" else taken
        argv = ["--out", str(out), "hochschild"]
        if how == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"out = {taken}\n")
            argv = ["--config", str(cfg), "hochschild"]
        assert main(argv) == 2
        printed, err = capsys.readouterr()
        assert printed == ""  # no table was computed
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    def test_ss_command_shows_forced_differential(self, capsys):
        assert main(["ss", "--instance", "witness:m=2"]) == 0
        out = capsys.readouterr().out
        assert "d2: (-1, 7) -> (-3, 8), rank 1" in out
        assert "pass" in out


class TestBracketCommand:
    WINDOW = ["--instance", "sphere:d=5", "--n-max", "4", "--q-max", "8"]

    def run(self, capsys, *classes):
        code = main(["bracket", *self.WINDOW, *classes])
        out, err = capsys.readouterr()
        return code, out, err

    def test_prints_the_requested_class_index(self, capsys):
        # (-5, 15) is the first position with two classes (framed d=5)
        code = main([
            "bracket", "--instance", "framed:d=5", "--n-max", "6", "--q-max", "15",
            "--class-a=-5,15,1", "--class-b=0,0,0",
        ])
        assert code == 0
        assert "bracket of (-5,15)#1 and (0,0)#0" in capsys.readouterr().out

    @pytest.mark.parametrize("k", ["-1", "1"])
    def test_class_index_outside_the_position_is_usage_error(self, capsys, k):
        code, _, err = self.run(capsys, f"--class-a=-2,4,{k}", "--class-b=-2,4,0")
        assert code == 2
        assert err.strip() == f"error: no class #{k} at (-2, 4); found 1"

    def test_negative_arity_result_is_usage_error(self, capsys):
        code, _, err = self.run(capsys, "--class-a=0,0,0", "--class-b=0,0,0")
        assert code == 2
        assert len(err.strip().splitlines()) == 1 and "arity -1" in err

    @pytest.mark.parametrize(
        "classes",
        [("--class-a=-4,8,0", "--class-b=-4,8,0"),  # arity 7 > n_max
         ("--class-a=-2,4,0", "--class-b=-3,8,0")],  # q = 12 > q_max
    )
    def test_result_beyond_the_window_is_window_error(self, capsys, classes):
        code, _, err = self.run(capsys, *classes)
        assert code == 3
        assert err.startswith("window too small:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv,code",
    [
        (["audit", "--d", "4"], 2),
        (["cobar", "--d", "6"], 2),
        (["e2", "--d", "3"], 2),
        (["hochschild", "--instance", "sphere:d=4"], 2),
        (["hochschild", "--instance", "sphere:d=five"], 2),
        (["ss", "--instance", "witness:m=1"], 2),
        (["ss", "--r-max", "0"], 2),
        (["obstruction", "--trials", "-1"], 2),
        # the obstruction degree 8 lies beyond the O(3) window (q <= 4)
        (["obstruction", "--instance", "sphere:d=5", "--n-max", "9", "--q-max", "4"], 3),
        # letters with three generators are in these windows
        (["cobar", "--d", "7", "--variant", "fixing-subgroup"], 0),
        (["cobar", "--d", "7", "--q-max", "24"], 0),
        # a window below 0 is a usage error, not a traceback or an empty table
        *(([*cmd, flag, "-1"], 2)
          for cmd in (["hochschild"], ["e2"], ["ss"],
                      ["bracket", "--class-a=-2,4,0", "--class-b=-2,4,0"])
          for flag in ("--n-max", "--q-max")),
        *((["obstruction", "--instance", inst, flag, "-1"], 2)
          for inst in ("sphere:d=5", "witness:m=2")
          for flag in ("--n-max", "--q-max")),
        # omega lies in arity 3: a sphere or framed host capped below it
        (["obstruction", "--instance", "sphere:d=5", "--n-max", "2"], 3),
        (["obstruction", "--instance", "framed:d=5", "--n-max", "2"], 3),
        # the witness and poisson hosts have a fixed arity 3 and ignore --n-max
        (["obstruction", "--instance", "witness:m=2", "--n-max", "2"], 0),
        (["obstruction", "--instance", "poisson:d=5", "--n-max", "2"], 0),
        (["cobar", "--q-max", "-1"], 2),
        (["cobar", "--p-min", "3"], 2),
        (["cobar", "--p-min", "0", "--q-max", "0"], 0),
        # commands that build columns 0..--n-max stop at a fixed arity cap
        (["hochschild", "--instance", "poisson:d=5"], 2),
        (["ss", "--instance", "poisson:d=5", "--n-max", "4"], 2),
        (["ss", "--instance", "witness:m=2", "--n-max", "5"], 2),
        (["bracket", "--instance", "poisson:d=5",
          "--class-a=0,0,0", "--class-b=0,0,0"], 2),
        # the obstruction degree 4m - 1 needs m >= 1
        (["obstruction", "--instance", "sphere:d=5", "--m", "-1"], 2),
        (["obstruction", "--instance", "sphere:d=5", "--m", "0"], 2),
    ],
)
def test_input_ends_in_its_exit_code_without_traceback(capsys, argv, code):
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == (code != 0)
