import json
from pathlib import Path

import pytest

from hedonic_lab.cli import main
from hedonic_lab.games import HedonicGame, Partition


RUN_AND_CHASE = HedonicGame([[0.0, -1.0], [1.0, 0.0]])


@pytest.fixture
def chase_path(tmp_path):
    path = tmp_path / "chase.json"
    RUN_AND_CHASE.save(path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSample:
    def test_writes_game_file(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code, _ = run_cli(capsys, "sample", "--n", "6", "--dist", "uniform:-1:1",
                          "--seed", "5", "--out", str(out))
        assert code == 0
        game = HedonicGame.load(out)
        assert game.n == 6

    def test_bad_dist_is_input_error(self, tmp_path, capsys):
        code = main(["sample", "--n", "4", "--dist", "normal:0:1",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_infinite_width_dist_is_input_error(self, tmp_path, capsys):
        # Fresh sampling raised OverflowError on this range.
        code = main(["sample", "--n", "3", "--dist", "uniform:-1e308:1e308",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "finite width" in capsys.readouterr().err


class TestCheck:
    def test_reports_witness(self, chase_path, tmp_path, capsys):
        ppath = tmp_path / "p.json"
        Partition.grand(2).save(ppath)
        code, out = run_cli(capsys, "check", "--game", chase_path,
                            "--partition", str(ppath), "--concept", "nash")
        assert code == 0
        payload = json.loads(out)
        assert payload["stable"] is False
        assert payload["witness"] == {"agent": 0, "target": "new-singleton"}

    def test_stable_verdict(self, chase_path, tmp_path, capsys):
        ppath = tmp_path / "p.json"
        Partition.singletons(2).save(ppath)
        code, out = run_cli(capsys, "check", "--game", chase_path,
                            "--partition", str(ppath), "--concept", "ir")
        payload = json.loads(out)
        assert code == 0 and payload["stable"] is True and payload["witness"] is None


    @pytest.mark.parametrize("payload", [
        {"coalitions": [[0.0, 1.0]]}, {"coalitions": "01"}, {"coalitions": [[True, False]]},
        [[0, 1]]])
    def test_malformed_partition_is_input_error(self, chase_path, tmp_path, capsys, payload):
        ppath = tmp_path / "p.json"
        ppath.write_text(json.dumps(payload))
        code = main(["check", "--game", chase_path, "--partition", str(ppath),
                     "--concept", "nash"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["check", "--partition", "PART", "--concept", "nash"],
    ["run-alg", "--out-partition", "OUT_P", "--out-report", "OUT_R"],
    ["oracle", "--concept", "nash"],
])
def test_game_file_holding_a_list_is_input_error(tmp_path, capsys, argv):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(RUN_AND_CHASE.to_dict()["utilities"]))
    Partition.grand(2).save(tmp_path / "p.json")
    paths = {"PART": tmp_path / "p.json", "OUT_P": tmp_path / "out_p.json",
             "OUT_R": tmp_path / "out_r.json"}
    code = main([argv[0], "--game", str(gpath)] + [str(paths.get(a, a)) for a in argv[1:]])
    assert code == 2
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("n", [2.9, True])
def test_game_file_with_a_non_integer_n_is_input_error(tmp_path, capsys, n):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"n": n, "utilities": RUN_AND_CHASE.to_dict()["utilities"]}))
    assert main(["oracle", "--game", str(gpath), "--concept", "nash"]) == 2
    assert "n must be an integer" in capsys.readouterr().err


class TestOracle:
    def test_no_nash_for_run_and_chase(self, chase_path, capsys):
        code, out = run_cli(capsys, "oracle", "--game", chase_path,
                            "--concept", "nash")
        payload = json.loads(out)
        assert code == 0 and payload["exists"] is False

    def test_count_mode(self, chase_path, capsys):
        code, out = run_cli(capsys, "oracle", "--game", chase_path,
                            "--concept", "cis", "--count")
        payload = json.loads(out)
        assert code == 0 and int(payload["count"]) >= 1


class TestRunAlg:
    def test_produces_partition_and_report(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        main(["sample", "--n", "60", "--seed", "3", "--out", str(gpath)])
        capsys.readouterr()
        ppath, rpath = tmp_path / "p.json", tmp_path / "r.json"
        code, out = run_cli(capsys, "run-alg", "--game", str(gpath),
                            "--groups", "4", "--compat", "2.0",
                            "--clique-size", "2",
                            "--out-partition", str(ppath),
                            "--out-report", str(rpath))
        assert code == 0
        partition = Partition.load(ppath, n=60)
        assert partition.n == 60
        report = json.loads(rpath.read_text())
        assert report["n"] == 60 and report["num_groups"] == 4


class TestBounds:
    def test_formula_evaluation(self, capsys):
        code, out = run_cli(capsys, "bounds", "--formula", "grand-cns-exit-denied",
                            "--params", "n=3", "epsilon=0.5")
        payload = json.loads(out)
        assert code == 0
        assert payload["value"] == pytest.approx(27 / 64)

    def test_missing_param_is_input_error(self, capsys):
        code = main(["bounds", "--formula", "grand-cns-exit-denied",
                     "--params", "n=3"])
        assert code == 2

    @pytest.mark.parametrize("formula,params,name", [
        ("nash-k-composite", ("n=5.5", "k=2"), "n"),
        ("singleton-ns", ("n=2.5",), "n"),
        ("nash-partition", ("n=6", "k=2.5", "allow_singletons=true"), "k"),
        ("grand-cns-exit-denied", ("n=true", "epsilon=0.5"), "n"),
        ("hoeffding-tail", ("t_terms=2.5", "threshold=1"), "t_terms"),
    ])
    def test_count_that_is_not_an_integer_is_input_error(self, capsys, formula, params, name):
        assert main(["bounds", "--formula", formula, "--params", *params]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {name} must be an integer" in captured.err

    @pytest.mark.parametrize("params,message", [
        (("n",), "bad --params item 'n'; expected key=value"),
        (("n=3", "n", "k=2"), "bad --params item 'n'; expected key=value"),
        (("n=3", "n=4"), "--params repeats key 'n'"),
    ])
    def test_malformed_params_are_input_errors(self, capsys, params, message):
        # "n" used to fail with "dictionary update sequence element #0 ...",
        # and a repeated key silently kept its last value.
        assert main(["bounds", "--formula", "singleton-ns", "--params", *params]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}" in captured.err

    @pytest.mark.parametrize("formula,params", [
        ("grand-ns-lower", ("n=5", "lo=-1", "hi=inf")),
        ("grand-ns-lower", ("n=5", "lo=nan", "hi=1")),
        ("hoeffding-tail", ("t_terms=3", "threshold=inf")),
        ("hoeffding-tail", ("t_terms=3", "threshold=nan")),
    ])
    def test_non_finite_param_is_input_error(self, capsys, formula, params):
        # Both infinities used to exit 0 and print "Infinity", which is not JSON.
        assert main(["bounds", "--formula", formula, "--params", *params]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    def test_verify_lemmas_exit_code(self, capsys):
        code, out = run_cli(capsys, "bounds", "--verify-lemmas",
                            "--trials", "20000", "--m", "1", "--k", "2",
                            "--seed", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["reports"][0]["violations"] == []


class TestMc:
    def test_grand_campaign_to_csv(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        code, _ = run_cli(capsys, "mc", "--kind", "mc-grand", "--n", "5",
                          "--trials", "200", "--seed", "9", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("n,property,")
        assert any("grand-exit-denied" in line for line in lines)

    def test_infinite_width_dist_is_input_error(self, tmp_path, capsys):
        # mc-alg samples into a reused buffer, where this range redrew forever.
        code = main(["mc", "--kind", "mc-alg", "--n", "3", "--trials", "1",
                     "--dist", "uniform:-1e308:1e308", "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert "finite width" in capsys.readouterr().err

    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "campaign.cfg"
        cfg.write_text("# campaign file\nkind = mc-grand\nn = 5\ntrials = 100\nseed = 12\n")
        out = tmp_path / "res.csv"
        code, _ = run_cli(capsys, "mc", "--config", str(cfg), "--out", str(out))
        assert code == 0
        assert out.exists()

    @pytest.mark.parametrize("key", ["trails", "config", "command", "workers"])
    def test_config_file_unknown_key_is_input_error(self, tmp_path, capsys, key):
        cfg = tmp_path / "campaign.cfg"
        cfg.write_text(f"kind = mc-grand\nn = 5\n{key} = 3\n")
        out = tmp_path / "res.csv"
        assert main(["mc", "--config", str(cfg), "--out", str(out)]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["format = xml", "groups = four", "tau = high",
                                      "clique-size = 2.5"])
    def test_config_file_bad_value_fails_before_the_campaign(self, tmp_path, capsys,
                                                               monkeypatch, line):
        def refuse(*args, **kwargs):
            raise AssertionError("campaign ran")

        monkeypatch.setattr("hedonic_lab.cli.run_campaign", refuse)
        cfg = tmp_path / "campaign.cfg"
        cfg.write_text(f"kind = mc-grand\nn = 5\n{line}\n")
        out = tmp_path / "res.csv"
        assert main(["mc", "--config", str(cfg), "--out", str(out)]) == 2
        key = line.split(" = ")[0]
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_values_are_converted(self, tmp_path, capsys):
        cfg = tmp_path / "campaign.cfg"
        cfg.write_text("kind = mc-grand\nn = 5\ntrials = 50\nformat = json\ngroups = 3\n")
        out = tmp_path / "res.json"
        code, _ = run_cli(capsys, "mc", "--config", str(cfg), "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["results"][0]["trials"] == 50

    def test_workers_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mc", "--kind", "mc-alg", "--n", "20", "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_missing_n_is_input_error(self, capsys):
        assert main(["mc", "--kind", "mc-grand", "--trials", "5"]) == 2

    @pytest.mark.parametrize("argv", [
        ("--kind", "bounds-compare", "--n", "6", "--shape-k", "2,2"),
        ("--kind", "oracle-existence", "--n", "5", "--concepts", "nash,ns"),
        ("--kind", "mc-alg", "--n", "50,50"),
    ])
    def test_repeated_values_are_input_errors(self, tmp_path, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("campaign ran")

        monkeypatch.setattr("hedonic_lab.cli.run_campaign", refuse)
        out = tmp_path / "res.csv"
        assert main(["mc", *argv, "--trials", "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "repeat" in err or "strictly ascending" in err
        assert not out.exists()


@pytest.mark.parametrize("compat", ["nan", "inf", "-0.5", "0"])
def test_compat_that_is_not_positive_is_input_error(tmp_path, capsys, compat):
    # With --compat nan or inf every stage-2 threshold was NaN or -inf and every merge passed.
    gpath = tmp_path / "g.json"
    RUN_AND_CHASE.save(gpath)
    ppath, rpath = tmp_path / "p.json", tmp_path / "r.json"
    assert main(["run-alg", "--game", str(gpath), "--compat", compat,
                 "--out-partition", str(ppath), "--out-report", str(rpath)]) == 2
    out = tmp_path / "res.csv"
    assert main(["mc", "--kind", "mc-alg", "--n", "20", "--trials", "1", "--compat", compat,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("compat_constant must be positive") == 2
    assert not (ppath.exists() or rpath.exists() or out.exists())


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name,compat", [("tuned", "2.0"), ("gated", "0.25")])
def test_mc_alg_export_is_pinned(tmp_path, capsys, name, compat):
    """Fixed-seed ``mc-alg`` exports at n = 200, 500 equal the committed CSVs byte for byte.

    The CSVs were written by an earlier version of the program; a change to
    sampling, clustering or the concept verdicts that moves any count shows here.
    """
    out = tmp_path / "res.csv"
    code, _ = run_cli(capsys, "mc", "--kind", "mc-alg", "--n", "200,500", "--trials", "20",
                      "--seed", "7", "--groups", "4", "--tau", "0.5", "--compat", compat,
                      "--clique-size", "2", "--out", str(out))
    assert code == 0
    assert out.read_bytes() == (DATA / f"mc_alg_{name}_seed7.csv").read_bytes()


ALL_CONCEPTS = ("nash,individual,contractual-nash,contractual-individual,"
                "individually-rational,enter-denied,exit-denied")


@pytest.mark.parametrize("name,argv", [
    ("oracle_existence_seed11", ("--kind", "oracle-existence", "--n", "4,5,6,7",
                                 "--trials", "200", "--seed", "11", "--concepts", ALL_CONCEPTS)),
    ("mc_grand_seed13", ("--kind", "mc-grand", "--n", "5,20,50", "--trials", "5000",
                         "--seed", "13")),
    ("bounds_compare_seed17", ("--kind", "bounds-compare", "--n", "6", "--shape-k", "2,3",
                               "--trials", "20000", "--seed", "17")),
    ("oracle_existence_n89_seed23", ("--kind", "oracle-existence", "--n", "8,9",
                                     "--concepts", "nash,individual,contractual-nash",
                                     "--trials", "60", "--seed", "23")),
])
def test_campaign_export_is_pinned(tmp_path, capsys, name, argv):
    """Fixed-seed exports of the batched campaign kinds equal the committed CSVs byte for byte.

    The CSVs were written by an earlier version of the program; a change to
    sampling or to the batched stability verdicts that moves any count shows here.
    """
    out = tmp_path / "res.csv"
    code, _ = run_cli(capsys, "mc", *argv, "--out", str(out))
    assert code == 0
    assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()
