import json
import time

import pytest

from darkcount.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def test_count_three_methods_agree(capsys):
    payload = run_json(capsys, "count", "--n", "4", "--s", "2")
    result = payload["data"]["results"][0]
    assert result["formula"] == 2
    assert result["methods"]["numeric"]["value"] == 2
    assert result["methods"]["oracle"]["value"] == 2
    assert result["methods"]["exact_modp"]["value"] == 2
    assert payload["data"]["all_agree"]


def test_count_bright_sector_all_zero(capsys):
    payload = run_json(capsys, "count", "--n", "4", "--s", "3")
    result = payload["data"]["results"][0]
    assert result["formula"] == 0
    assert result["methods"]["numeric"]["value"] == 0
    assert result["methods"]["oracle"]["value"] == 0


def test_count_large_sector_formula_with_skips(capsys):
    payload = run_json(capsys, "count", "--n", "20", "--s", "10")
    result = payload["data"]["results"][0]
    assert result["formula"] == 16796
    assert not result["methods"]["numeric"]["ran"]
    assert not result["methods"]["oracle"]["ran"]
    assert result["methods"]["exact_modp"]["ran"]
    assert result["methods"]["exact_modp"]["value"] == 16796
    assert payload["data"]["all_agree"]


@pytest.mark.parametrize("n,s", [(23, 2), (23, 21), (24, 1)])
def test_count_past_22_qubits_runs_the_exact_route(capsys, n, s):
    payload = run_json(capsys, "count", "--n", str(n), "--s", str(s))
    result = payload["data"]["results"][0]
    assert result["methods"]["exact_modp"]["ran"]
    assert result["methods"]["exact_modp"]["value"] == result["formula"]
    assert result["methods"]["numeric"]["value"] == result["formula"]
    assert payload["data"]["all_agree"]


@pytest.mark.parametrize("n,s", [(40, 35), (64, 60)])
def test_count_skips_the_exact_route_when_the_s_minus_1_sector_is_over_cap(capsys, n, s):
    # the s sector is under --exact-cap, but the certificate also builds the s-1 one
    payload = run_json(capsys, "count", "--n", str(n), "--s", str(s))
    result = payload["data"]["results"][0]
    assert not result["methods"]["exact_modp"]["ran"]
    assert payload["data"]["all_agree"] is None  # no method checked the closed form


def test_count_with_no_method_run_claims_no_agreement(capsys):
    payload = run_json(capsys, "count", "--n", "17", "--s", "8", "--exact-cap", "10")
    (result,) = payload["data"]["results"]
    assert not any(m["ran"] for m in result["methods"].values())
    assert result["agree"] is None
    assert payload["data"]["all_agree"] is None
    # one unchecked sector among checked ones still leaves the verdict open
    payload = run_json(capsys, "count", "--n", "17", "--all-s", "--exact-cap", "10")
    verdicts = [r["agree"] for r in payload["data"]["results"]]
    assert None in verdicts and True in verdicts and False not in verdicts
    assert payload["data"]["all_agree"] is None


def test_count_all_s(capsys):
    payload = run_json(capsys, "count", "--n", "5", "--all-s")
    assert [r["formula"] for r in payload["data"]["results"]] == [1, 4, 5, 0, 0, 0]


@pytest.mark.parametrize("n,s,g_min", [(8, 4, "1e-8"), (10, 5, "1e-6")])
def test_count_survives_extreme_disorder(capsys, n, s, g_min):
    # the SVD of the raw block reported 20 and 55 here: D_s spans g_min^s
    payload = run_json(capsys, "count", "--n", str(n), "--s", str(s), "--g-min", g_min)
    numeric = payload["data"]["results"][0]["methods"]["numeric"]
    assert numeric["value"] == payload["data"]["results"][0]["formula"]
    assert payload["data"]["all_agree"]
    assert numeric["gauge_residual"] <= 1e-14
    assert numeric["kept_margin"] > 1e6
    assert "dropped_margin" not in numeric  # the rank is certified full: nothing is dropped


@pytest.mark.parametrize("seed", [0, 1])
def test_count_14_7_numeric_agrees(capsys, seed):
    # three decades of disorder once cost the raw-block SVD one rank here
    payload = run_json(capsys, "count", "--n", "14", "--s", "7", "--exact-cap", "4000",
                       "--seed", str(seed))
    (result,) = payload["data"]["results"]
    assert result["methods"]["numeric"]["value"] == 429
    assert result["methods"]["exact_modp"]["value"] == 429


def test_count_15_7_runs_the_numeric_method(capsys):
    # over the former dense-SVD cap of 4000 columns
    payload = run_json(capsys, "count", "--n", "15", "--s", "7", "--exact-cap", "6500")
    (result,) = payload["data"]["results"]
    assert result["methods"]["numeric"]["ran"]
    assert result["methods"]["numeric"]["value"] == 1430
    assert result["methods"]["exact_modp"]["value"] == 1430


def test_numeric_count_takes_no_svd(capsys, monkeypatch):
    import darkcount.darkspace as darkspace

    def svd(*args, **kwargs):
        pytest.fail("the numeric count took an SVD")

    monkeypatch.setattr(darkspace.scipy.linalg, "svd", svd)
    monkeypatch.setattr(darkspace.scipy.linalg, "svdvals", svd)
    assert run_json(capsys, "count", "--n", "10", "--s", "5")["data"]["all_agree"]
    records = run_json(capsys, "rank", "--n", "10", "--s", "5",
                       "--method", "both")["data"]["records"]
    assert [r["rank"] for r in records] == [210, 210]


def test_rank_both_survives_extreme_disorder(capsys):
    payload = run_json(capsys, "rank", "--n", "10", "--s", "5", "--method", "both",
                       "--g-min", "1e-6")
    records = payload["data"]["records"]
    assert [r["rank"] for r in records] == [210, 210]
    svd = records[1]
    assert svd["method"] == "svd"
    assert svd["gauge_residual"] <= 1e-14 and svd["kept_margin"] > 1e6


def test_rank_subcommand_records(capsys):
    payload = run_json(capsys, "rank", "--n", "10", "--s", "5", "--method", "both",
                       "--seed", "3")
    records = payload["data"]["records"]
    assert {r["rank"] for r in records} == {210}
    assert {r["nullity"] for r in records} == {42}
    assert payload["data"]["expected_generic_rank"] == 210


def test_rank_record_says_how_the_rank_was_obtained(capsys):
    payload = run_json(capsys, "rank", "--n", "10", "--s", "5", "--seed", "3")
    (record,) = payload["data"]["records"]
    assert record["route"] == "gram-certificate"
    assert record["degree"] == 5
    assert "seed" not in record  # the certificate draws no couplings


def test_darkbasis_refuses_a_projector_over_the_cap(capsys):
    start = time.perf_counter()
    code = main(["darkbasis", "--n", "16", "--s", "8"])
    assert code == 1
    assert time.perf_counter() - start < 5.0  # refused before any work
    assert "BASIS_BYTES_CAP" in capsys.readouterr().err


def test_darkbasis_self_checks(capsys):
    payload = run_json(capsys, "darkbasis", "--n", "4", "--s", "2", "--seed", "1")
    data = payload["data"]
    assert data["nullity"] == 2 == data["formula"]
    assert data["checks"]["trace_matches_nullity"]
    assert len(data["basis"]) == 2
    assert len(data["projector_diagonal"]) == 6
    assert data["nullity_route"] == "gram-certificate"
    assert data["qr_margin"] > 1
    assert "tolerance_used" not in data
    # null_basis holds every vector to the dark tolerance, so no re-check is recorded
    assert "all_basis_states_verified_dark" not in data["checks"]


def test_protocol_identity(capsys):
    payload = run_json(capsys, "protocol", "--n", "4", "--s", "2",
                       "--disorder", "log3", "--seed", "11")
    data = payload["data"]
    assert data["n_dark_expected"] == 2
    assert abs(data["d_of_s"] - 2.0) <= 1e-8
    assert len(data["per_arrangement"]) == 6


@pytest.mark.parametrize("seed", [0, 1, 4])
def test_protocol_14_7_counts_429(capsys, seed):
    # the complex SVD of the raw block once counted a 430th dark state here
    data = run_json(capsys, "protocol", "--n", "14", "--s", "7", "--seed", str(seed))["data"]
    assert abs(data["d_of_s"] - 429) <= 1e-8
    assert data["nullity_route"] == "gram-certificate"
    assert data["qr_margin"] > 1


def test_protocol_survives_extreme_disorder(capsys):
    # the complex SVD of the raw block gave D = 55 here
    data = run_json(capsys, "protocol", "--n", "10", "--s", "5", "--g-min", "1e-6")["data"]
    assert abs(data["d_of_s"] - 42) <= 1e-8
    assert data["qr_margin"] > 1e6


def test_protocol_16_8_runs(capsys):
    data = run_json(capsys, "protocol", "--n", "16", "--s", "8")["data"]
    assert abs(data["d_of_s"] - 1430) <= 1e-8
    assert len(data["per_arrangement"]) == 12870


@pytest.mark.parametrize("command,s,d", [("protocol", 1, 24), ("protocol", 0, 1),
                                         ("montecarlo", 1, 24)])
def test_protocol_runs_past_the_default_register_cap(capsys, command, s, d):
    data = run_json(capsys, command, "--n", "25", "--s", str(s))["data"]
    assert abs(data["d_of_s" if command == "protocol" else "exact_d"] - d) <= 1e-8


@pytest.mark.parametrize("command", ["count", "darkbasis", "protocol", "trajectory"])
def test_more_than_64_qubits_is_a_clean_error(capsys, command):
    code = main([command, "--n", "65", "--s", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:") and "64" in captured.err


def test_dark_basis_paths_take_no_svd(capsys, monkeypatch):
    import darkcount.darkspace as darkspace
    from darkcount.couplings import DEFAULT_DISORDER, sample_profile
    from darkcount.protocol import measure_d, monte_carlo_protocol

    def svd(*args, **kwargs):
        pytest.fail("the dark basis took an SVD")

    monkeypatch.setattr(darkspace.scipy.linalg, "svd", svd)
    profile = sample_profile(6, DEFAULT_DISORDER, seed=1)
    assert measure_d(6, 3, profile).d_of_s == pytest.approx(5.0, abs=1e-9)
    monte_carlo_protocol(6, 3, profile, trials=100, seed=0)
    assert run_json(capsys, "darkbasis", "--n", "6", "--s", "3")["data"]["nullity"] == 5


def test_protocol_csv(capsys):
    code, out = run_cli(capsys, "protocol", "--n", "2", "--s", "1",
                        "--uniform", "1.0", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "arrangement,null_probability"
    assert lines[1].startswith("01,0.5")
    assert lines[2].startswith("10,0.5")


def test_montecarlo_near_nine(capsys):
    payload = run_json(capsys, "montecarlo", "--n", "6", "--s", "2",
                       "--trials", "10000", "--seed", "5")
    data = payload["data"]
    assert data["n_dark"] == 9
    assert abs(data["estimated_d"] - 9.0) <= 5 * data["standard_error"]


def test_sweep_csv_and_record(capsys):
    code, out = run_cli(capsys, "sweep", "--n-list", "4,8", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 5 + 9
    payload = run_json(capsys, "sweep", "--n-list", "8")
    rec = next(r for r in payload["data"]["records"] if r["s"] == 2)
    assert rec["order_param"] == "5/7"


def test_sweep_svg(capsys):
    code, out = run_cli(capsys, "sweep", "--n-list", "4,8,12,16,20", "--format", "svg")
    assert code == 0
    assert out.startswith("<svg")
    assert out.count("N = ") == 5


def test_trajectory_json(capsys):
    payload = run_json(capsys, "trajectory", "--n", "2", "--s", "1",
                       "--uniform", "1.0", "--kappa-ratio", "100", "--seed", "1",
                       "--trajectories", "4000", "--waiting-factor", "130")
    data = payload["data"]
    assert abs(data["p_no_click"] - 0.5) < 0.05
    assert data["waiting_time_sufficient"] is True
    assert data["deviation_from_projector"] <= data["tolerance"]


def test_trajectory_disorder_default_is_narrow_and_log3_is_honoured(capsys):
    common = ("trajectory", "--n", "2", "--s", "1", "--trajectories", "100")
    payload = run_json(capsys, *common)
    assert payload["config"]["disorder"] == "narrow"
    assert payload["data"]["profile"]["label"].startswith("uniform[0.5,1]")
    payload = run_json(capsys, *common, "--disorder", "log3")
    assert payload["config"]["disorder"] == "log3"
    assert payload["data"]["profile"]["label"].startswith("log-uniform[0.001,1]")


def test_trajectory_csv_is_the_json_histogram(capsys):
    from darkcount.cli import HISTOGRAM_BINS

    common = ("trajectory", "--n", "2", "--s", "1", "--uniform", "1.0",
              "--trajectories", "500", "--seed", "3")
    data = run_json(capsys, *common, "--histogram")["data"]
    histogram = data["first_click_histogram"]
    assert data["n_click"] > 0 and len(histogram) == HISTOGRAM_BINS == 40
    assert sum(row["click_fraction"] for row in histogram) == pytest.approx(1.0, abs=1e-12)
    code, out = run_cli(capsys, *common, "--format", "csv")
    assert code == 0
    header, *rows = out.splitlines()
    assert header == "t_low,t_high,click_fraction"
    assert rows == [f"{r['t_low']:.12g},{r['t_high']:.12g},{r['click_fraction']:.12g}"
                    for r in histogram]


def test_trajectory_kappa_sweep(capsys):
    payload = run_json(capsys, "trajectory", "--n", "2", "--s", "1",
                       "--uniform", "1.0", "--kappa-ratios", "1000,100,10",
                       "--trajectories", "2000", "--seed", "4")
    sweep = payload["data"]["kappa_sweep"]
    errs = [abs(point["p_no_click"] - 0.5) for point in sweep]
    assert errs[0] > errs[2]


def canonical_rerun(capsys, command):
    payload = run_json(capsys, command, "--n", "4", "--s", "2", "--seed", "7")
    del payload["meta"]
    return json.dumps(payload, sort_keys=True)


def test_reruns_are_byte_identical_outside_meta(capsys):
    assert canonical_rerun(capsys, "protocol") == canonical_rerun(capsys, "protocol")
    assert canonical_rerun(capsys, "darkbasis") == canonical_rerun(capsys, "darkbasis")


def test_count_margins_rerun_byte_identical(capsys):
    assert canonical_rerun(capsys, "count") == canonical_rerun(capsys, "count")


def test_consistency_failure_exit_code(capsys, monkeypatch):
    import darkcount.cli as cli

    monkeypatch.setattr(cli, "ndark_formula", lambda n, s: 5)
    code, _ = run_cli(capsys, "count", "--n", "4", "--s", "2")
    assert code == 2


def test_consistency_failure_names_every_method(capsys, monkeypatch):
    import darkcount.cli as cli

    # rank -1 of the 6-column block reads as nullity 7
    monkeypatch.setattr(cli, "rank_numeric", lambda op, report: -1)
    code = main(["count", "--n", "4", "--s", "2"])
    assert code == 2
    captured = capsys.readouterr()
    assert "s=2: formula 2, numeric 7, oracle 2, exact_modp 2" in captured.err
    data = json.loads(captured.out)["data"]
    assert data["all_agree"] is False
    (result,) = data["results"]
    assert not result["agree"]
    methods = result["methods"]
    assert {k: m["value"] for k, m in methods.items()} == {
        "numeric": 7, "oracle": 2, "exact_modp": 2}
    assert methods["exact_modp"]["route"] == "gram-certificate"


def test_rank_failure_prints_every_record(capsys, monkeypatch):
    import darkcount.cli as cli

    def rank_exact_modp(*args, report, **kwargs):
        report.update(route="gram-certificate", degree=2)
        return 3  # one short of the (4, 2) block's full rank

    monkeypatch.setattr(cli, "rank_exact_modp", rank_exact_modp)
    code = main(["rank", "--n", "4", "--s", "2", "--method", "both"])
    assert code == 2
    captured = capsys.readouterr()
    assert "rank methods disagree" in captured.err
    modp, svd = json.loads(captured.out)["data"]["records"]
    assert (modp["rank"], svd["rank"]) == (3, 4)
    assert svd["kept_margin"] > 1 and "dropped_margin" not in svd


@pytest.mark.parametrize("command", [("count", "--s", "2"),
                                     ("rank", "--s", "2", "--method", "numeric")])
def test_numeric_certificate_failure_exits_1(capsys, monkeypatch, command):
    import scipy.linalg

    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", lambda a, **kwargs: (a, 1))
    code = main([command[0], "--n", "4", *command[1:]])
    assert code == 1
    assert "rank certificate failed" in capsys.readouterr().err


def test_error_exit_code(capsys):
    code, _ = run_cli(capsys, "count", "--n", "4", "--s", "9")
    assert code == 1


def test_output_file_and_env_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("DARKCOUNT_OUTPUT_DIR", str(tmp_path))
    code, _ = run_cli(capsys, "sweep", "--n-list", "4", "--format", "csv",
                      "--output", "sub/fig.csv")
    assert code == 0
    assert (tmp_path / "sub" / "fig.csv").read_text().startswith("N,s,alpha")


def test_config_file_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# protocol defaults\nn = 4\ns = 2\nseed = 11\n")
    payload = run_json(capsys, "protocol", "--config", str(cfg))
    assert payload["config"]["n"] == 4
    assert payload["config"]["seed"] == 11
    assert payload["data"]["n_dark_expected"] == 2


def test_config_file_with_equals_sign(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 4\ns = 2\nseed = 11\n")
    payload = run_json(capsys, "protocol", f"--config={cfg}")
    assert (payload["config"]["n"], payload["config"]["seed"]) == (4, 11)


@pytest.mark.parametrize("tail,message", [
    ([], "expected one argument"), (["no-such.cfg"], "No such file")], ids=["bare", "missing"])
def test_config_flag_without_a_file_is_a_usage_error(capsys, tmp_path, tail, message):
    with pytest.raises(SystemExit) as exc:
        main(["protocol", "--n", "4", "--s", "2", "--config", *(str(tmp_path / t) for t in tail)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_config_file_rejects_an_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 4\ns = 2\nsede = 3\n")
    with pytest.raises(SystemExit) as exc:
        main(["protocol", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "--sede=3" in capsys.readouterr().err


def test_explicit_flag_overrides_config_file(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    # a switch set off is left out, so protocol never sees an --all-s flag
    cfg.write_text("n = 4\ns = 2\nseed = 11\nno_phases = yes\nall_s = off\n")
    payload = run_json(capsys, "protocol", "--seed", "5", "--config", str(cfg))
    assert payload["config"]["seed"] == 5
    assert payload["config"]["no_phases"] is True


def test_profile_json_import(capsys, tmp_path):
    path = tmp_path / "profile.json"
    path.write_text('[[1.0, 0.0], [2.0, 0.0]]')
    payload = run_json(capsys, "darkbasis", "--n", "2", "--s", "1",
                       "--profile-json", str(path))
    assert payload["data"]["nullity"] == 1
    diag = payload["data"]["projector_diagonal"]
    assert diag[0] == pytest.approx(0.8)  # |(-2,1)/sqrt(5)|^2 on |e_1>
    assert diag[1] == pytest.approx(0.2)


def test_schema_version_present(capsys):
    payload = run_json(capsys, "count", "--n", "2", "--s", "1")
    assert payload["schema_version"] == 1
    assert "timestamp" in payload["meta"]
