"""Convergence audit enumeration and the command-line surface."""

import json
import pathlib
import random
from collections import Counter

import pytest
from conftest import reference_audit_table, reference_convergence_audit

from operadlab.audit import (
    AlgebraGenerator,
    AuditInput,
    ForcedDifferential,
    InconclusiveAudit,
    abutment_dims,
    convergence_audit,
    e2_table,
    e2_total_dims,
    forced_differentials,
    framed_tensor_check,
    standard_audit_input,
)
from operadlab import cosimplicial
from operadlab.cli import main
from operadlab.cosimplicial import hochschild_dims, hochschild_homology
from operadlab.instances import FramedOperad, framed_multiplicative


class TestAudit:
    @pytest.mark.parametrize(
        "d,source,target",
        [(5, (-1, 7), (-3, 8)), (7, (-1, 11), (-3, 12)), (61, (-1, 119), (-3, 120))],
    )
    def test_unique_forced_differential(self, d, source, target):
        forced = convergence_audit(standard_audit_input(d))
        assert len(forced) == 1
        f = forced[0]
        assert (f.r, f.source, f.target) == (2, source, target)

    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_even_or_small_d_is_refused(self, d):
        with pytest.raises(ValueError, match="odd and at least 5"):
            standard_audit_input(d)

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
        with pytest.raises(ValueError, match=r"shift must be \(-r, r-1\)"):
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


def _random_audit_input(rng: random.Random) -> AuditInput:
    """Up to six generators; about half are placed one differential shift
    (-r, r - 1) or (r, 1 - r) away from an earlier one, so candidates are
    common."""
    gens = []
    for k in range(rng.randint(1, 6)):
        p, total = rng.randint(-6, 0), rng.randint(1, 6)
        if gens and rng.random() < 0.5:
            g, r, step = rng.choice(gens), rng.randint(2, 4), rng.choice((1, -1))
            p, total = g.p + step * r, g.total + step
            if p > 0 or total <= 0:
                continue
        gens.append(AlgebraGenerator(f"g{k}", p, total - p, permanent=rng.random() < 0.1))
    abutment = tuple(2 * rng.randint(1, 5) for _ in range(rng.randint(0, 3)))
    return AuditInput(tuple(gens), abutment, rng.randint(2, 16))


def _outcome(enumerate_, *args) -> tuple:
    try:
        return ("forced", tuple(enumerate_(*args)))
    except InconclusiveAudit as exc:
        return ("inconclusive", tuple(exc.candidates))


class TestForcedDifferentials:
    def test_no_position_past_t_max(self):
        """A square-free generator that no longer fits the degree left gets
        exponent 0, so the table stops at t_max: one odd generator of total
        9 under t_max 5 leaves only the unit."""
        inp = AuditInput((AlgebraGenerator("g", -3, 12),), (), 5)
        assert e2_table(inp) == {(0, 0): 1}
        assert e2_table(AuditInput(inp.e2_generators, (), -1)) == {}
        rng = random.Random(3601)
        for _ in range(500):
            inp = _random_audit_input(rng)
            assert max(p + q for p, q in e2_table(inp)) <= inp.t_max

    def test_a_position_past_t_max_forces_nothing(self):
        """(-2, 11) has total 9 > t_max = 8, so it is not in the table and
        cannot hit the surplus class (-4, 12): nothing is forced."""
        inp = AuditInput(
            (AlgebraGenerator("a", -4, 12), AlgebraGenerator("b", -2, 11)), (), 8
        )
        assert e2_table(inp) == {(0, 0): 1, (-4, 12): 1}
        with pytest.raises(InconclusiveAudit) as exc:
            convergence_audit(inp)
        assert exc.value.candidates == []

    @pytest.mark.parametrize(
        "p,q", [(1, 4), (-4, 4), (-4, 2)], ids=["positive-p", "total-zero", "total-negative"]
    )
    def test_an_invalid_generator_is_refused_when_built(self, p, q):
        with pytest.raises(ValueError, match="invalid bidegree"):
            AuditInput((AlgebraGenerator("g", p, q),), (), 8)

    def test_an_odd_abutment_degree_is_refused_when_built(self):
        with pytest.raises(ValueError, match="positive even"):
            AuditInput((AlgebraGenerator("g", -1, 3),), (3,), 8)

    def test_one_rule_matches_the_two_block_enumeration(self):
        """On seeded random inputs whose table, built the old way, stops at
        t_max, the table is the same and one candidate rule proposes the
        same candidates, in the same order with the same reasons, as a
        block of sources followed per page by a block of targets."""
        rng = random.Random(3602)
        kinds: Counter = Counter()
        while sum(kinds.values()) < 3000:
            inp = _random_audit_input(rng)
            table, perm = reference_audit_table(inp)
            if max(p + q for p, q in table) > inp.t_max:
                continue
            # candidates are proposed in table order, so the key order counts
            assert list(e2_table(inp).items()) == list(table.items())
            abut = abutment_dims(inp)
            want = _outcome(reference_convergence_audit, table, perm, abut, inp.t_max)
            assert _outcome(forced_differentials, table, perm, abut) == want
            assert _outcome(convergence_audit, inp) == want
            kinds[want[0], min(len(want[1]), 2)] += 1
        assert set(kinds) == {
            ("forced", 0), ("forced", 1), ("inconclusive", 0), ("inconclusive", 2)
        }
        assert min(kinds.values()) > 100

    @pytest.mark.parametrize("d", range(5, 22, 2))
    def test_standard_inputs_match_the_two_block_enumeration(self, d):
        inp = standard_audit_input(d)
        table, perm = reference_audit_table(inp)
        assert list(e2_table(inp).items()) == list(table.items())
        want = reference_convergence_audit(table, perm, abutment_dims(inp), inp.t_max)
        assert convergence_audit(inp) == want and len(want) == 1

    def test_a_large_d_builds_without_the_rotation_group_monomials(self):
        """d = 401 has 200 rotation-group generators: 2^200 monomials, so
        the input only builds when they are never enumerated."""
        assert len(standard_audit_input(401).e2_generators) == 202


class TestComputedSecondPage:
    @pytest.mark.parametrize(
        "d,n_max,q_max,t_star,reliable_cells,nonzero",
        [
            (7, 6, 20, 9, 112, 21),
            (9, 6, 19, 13, 112, 26),
            (11, 8, 25, 17, 189, 30),
            (13, 10, 31, 21, 297, 64),
        ],
        ids=["d7", "d9", "d11", "d13"],
    )
    def test_model_is_the_computed_framed_page(
        self, d, n_max, q_max, t_star, reliable_cells, nonzero
    ):
        """The audit's posited second page equals the computed framed
        Hochschild homology at every reliable position, and the window
        certifies every position of total degree p + q <= t*, the lowest
        surplus degree of the audit's forced differential."""
        HH = hochschild_homology(framed_multiplicative(d, n_max, q_max), n_max, q_max)
        model = e2_table(standard_audit_input(d, t_max=q_max))
        reliable = {
            (p, q) for q, hom in HH.homs.items()
            for p, h in hom.per_degree.items() if h.reliable
        }
        assert {pos: HH.dims.get(pos, 0) for pos in reliable} == {
            pos: model.get(pos, 0) for pos in reliable
        }
        assert (len(reliable), len(HH.dims)) == (reliable_cells, nonzero)
        assert hochschild_dims(framed_multiplicative(d, n_max, q_max), n_max, q_max) == {
            pos: HH.dims.get(pos, 0) for pos in reliable
        }
        (forced,) = convergence_audit(standard_audit_input(d))
        assert sum(forced.target) == t_star
        # past arity t*, q - n <= t* lies below the vanishing line 2q < 4n
        uncertified = [
            (-n, q) for n in range(t_star + 1) for q in range(n + t_star + 1)
            if (-n, q) not in reliable and not HH.complex.vanishes(n, q)
        ]
        assert uncertified == []


class TestTensorCheck:
    def test_framed_splitting_small_window(self):
        rep = framed_tensor_check(5, 4, 10)
        assert rep.ok
        assert rep.framed_dims and rep.framed_dims == rep.convolution_dims

    def test_the_framed_page_keeps_its_own_vanishing_line_at_d_9(self, capsys):
        """The loop class at (-1, 3) lies below the plain line 2q = (d-1)(-p)
        once d >= 9; the framed page vanishes below 2q = min(d-1, 6)(-p)."""
        rep = framed_tensor_check(9, 6, 19)
        assert rep.ok and rep.framed_dims[(-1, 3)] == 1
        assert main(["e2", "--d", "9", "--n-max", "6", "--q-max", "19"]) == 0
        assert "vanishing-line check:   pass" in capsys.readouterr().out

    def test_an_entry_below_the_framed_line_is_reported(self, monkeypatch):
        """(-2, 5) is injected below the framed line at d = 9; (-2, 6), a
        computed class on that line, is not reported."""
        computed = cosimplicial.hochschild_dims

        def injected(M, n_max, q_max):
            dims = computed(M, n_max, q_max)
            if isinstance(M.operad, FramedOperad):
                assert dims[(-2, 6)] and not dims.get((-2, 5))
                dims[(-2, 5)] = 1
            return dims

        monkeypatch.setattr(cosimplicial, "hochschild_dims", injected)
        assert framed_tensor_check(9, 6, 19).vanishing_violations == [(-2, 5)]


class TestCLI:
    def test_audit_command(self, capsys):
        assert main(["audit", "--d", "5"]) == 0
        out = capsys.readouterr().out
        assert "page 2: (-1, 7) -> (-3, 8)" in out

    def test_audit_command_at_d101(self, capsys):
        assert main(["audit", "--d", "101"]) == 0
        assert "page 2: (-1, 199) -> (-3, 200)" in capsys.readouterr().out

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

    @pytest.mark.parametrize("key", ["n-maxx", "command"])
    def test_config_key_naming_no_option_is_usage_error(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 2\n")
        assert main(["--config", str(cfg), "hochschild"]) == 2
        printed, err = capsys.readouterr()
        assert printed == ""  # no table on the default window
        assert err.splitlines() == [f"error: config key '{key}' names no option"]
        # a key of another command is accepted, so one file serves several
        cfg.write_text("d = 7\n")
        assert main(["--config", str(cfg), "hochschild", "--n-max", "3", "--q-max", "4"]) == 0

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

    @pytest.mark.parametrize(
        "window",
        [["sphere:d=5", "--n-max", "5", "--q-max", "12"], ["padded-witness:m=2"]],
        ids=["sphere", "padded-witness"],
    )
    def test_ss_with_a_short_page_bound_compares_the_stable_page(
        self, tmp_path, capsys, window
    ):
        """The E-infinity check reads page n_max + 1 whatever --r-max is, so
        a page bound below it still passes with the same comparison."""
        rows = {}
        for r in ("1", "4"):
            out = tmp_path / r
            assert main(["--out", str(out), "ss", "--instance", *window, "--r-max", r]) == 0
            rows[r] = json.loads((out / "ss.json").read_text())["einfty_vs_total"]
        assert "FAIL" not in capsys.readouterr().out
        assert rows["1"] == rows["4"] and rows["1"]


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
        # a witness host fixes m: a disagreeing --m is refused, an agreeing one runs
        (["obstruction", "--instance", "witness:m=2", "--m", "3"], 2),
        (["obstruction", "--instance", "witness:m=2", "--m", "2"], 0),
        # tables and class brackets need a zero-differential host
        (["hochschild", "--instance", "witness:m=2", "--n-max", "3"], 2),
        (["bracket", "--instance", "witness:m=2", "--n-max", "3", "--q-max", "10",
          "--class-a=-1,0,0", "--class-b=-1,0,0"], 2),
    ],
)
def test_input_ends_in_its_exit_code_without_traceback(capsys, argv, code):
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == (code != 0)
