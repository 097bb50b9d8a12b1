import csv
import io
import json
import os
import shlex
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from darkcount import cli
from darkcount.cli import build_parser, main
from darkcount.operators import inclusion_pattern


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
    assert result["methods"]["numeric"]["value"] == 16796
    assert not result["methods"]["oracle"]["ran"]
    assert result["methods"]["exact_modp"]["ran"]
    assert result["methods"]["exact_modp"]["value"] == 16796
    assert payload["data"]["all_agree"]


@pytest.mark.parametrize("n,s", [(23, 2), (23, 21), (24, 1), (64, 1)])
def test_count_past_22_qubits_runs_the_exact_route(capsys, n, s):
    payload = run_json(capsys, "count", "--n", str(n), "--s", str(s))
    result = payload["data"]["results"][0]
    assert result["methods"]["exact_modp"]["ran"]
    assert result["methods"]["exact_modp"]["value"] == result["formula"]
    assert result["methods"]["numeric"]["value"] == result["formula"]
    # the S^2 oracle is capped by sector size, not by the 2^N register
    assert result["methods"]["oracle"]["ran"]
    assert result["methods"]["oracle"]["value"] == result["formula"]
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


def test_count_at_s0_runs_no_rank_route(capsys):
    # no lowering block exists at s = 0, so only the S^2 oracle checks the closed form
    (result,) = run_json(capsys, "count", "--n", "4", "--s", "0")["data"]["results"]
    why = "no lowering block at s=0; nullity 1 by convention"
    assert result["methods"]["numeric"] == {"ran": False, "why": why}
    assert result["methods"]["exact_modp"] == {"ran": False, "why": why}
    assert result["methods"]["oracle"] == {"ran": True, "value": 1}
    assert result["agree"] is True


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


def test_trajectory_refuses_a_block_over_the_cap_before_any_work(capsys, monkeypatch):
    from darkcount import trajectory
    from darkcount.couplings import uniform_profile
    from darkcount.operators import HamiltonianModel

    def reached(*args):
        pytest.fail("trajectory went past the block cap")

    cap = trajectory.TRAJECTORY_BLOCK_CAP  # first, so nothing runs where there is no cap
    monkeypatch.setattr(trajectory, "TRAJECTORY_BLOCK_CAP", 10)
    monkeypatch.setattr(cli, "dark_subspace", reached)
    monkeypatch.setattr(trajectory, "_no_jump_norm_curve", reached)
    assert main(["trajectory", "--n", "4", "--s", "2"]) == 1
    assert capsys.readouterr().err == ("error: the (4, 2) excitation block holds 11 states, "
                                       "over TRAJECTORY_BLOCK_CAP of 10\n")
    monkeypatch.setattr(trajectory, "TRAJECTORY_BLOCK_CAP", cap)
    for n, s, dim in [(14, 7, 9908), (15, 7, 16384)]:  # 6 GiB and 16 GiB of dense arrays
        started = time.perf_counter()
        tracemalloc.start()
        try:
            code = main(["trajectory", "--n", str(n), "--s", str(s)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and f"holds {dim} states" in capsys.readouterr().err
        assert time.perf_counter() - started < 0.5 and peak < 1 << 20, peak
    model = HamiltonianModel(n_qubits=14, profile=uniform_profile(14, 1.0), n_photon_max=6)
    assert trajectory.standard_config(model, 100.0, (1 << 6) - 1).initial == 63  # 6476 states


@pytest.fixture
def skewed_rows(monkeypatch):
    """dark_subspace with its first real basis row stretched by 1e-6."""
    original = cli.dark_subspace

    def skewed(n, s, profile):
        sub = original(n, s, profile)
        rows = sub.real_basis.copy()
        rows[0] *= 1 + 1e-6
        sub.__dict__["real_basis"] = rows  # the rows are formed once, on first read
        return sub

    monkeypatch.setattr(cli, "dark_subspace", skewed)


def test_darkbasis_fails_on_rows_that_are_not_orthonormal(capsys, skewed_rows):
    code, out = run_cli(capsys, "darkbasis", "--n", "6", "--s", "3")
    assert code == 2
    checks = json.loads(out)["data"]["checks"]
    assert checks["basis_orthonormal_max_dev"] > 1e-10


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


def test_protocol_and_trajectory_share_the_diagonal_gate(capsys, monkeypatch):
    from darkcount import cli
    from darkcount.couplings import uniform_profile
    from darkcount.darkspace import diagonal_fits
    from darkcount.protocol import measure_d

    assert diagonal_fits(18, 9) and not diagonal_fits(20, 10)
    with pytest.raises(ValueError, match="over the protocol cap"):
        measure_d(20, 10, uniform_profile(20, 1.0))
    monkeypatch.setattr(cli, "diagonal_fits", lambda n, s: (n, s) != (2, 1))
    data = run_json(capsys, "trajectory", "--n", "2", "--s", "1", "--trajectories", "10")["data"]
    assert "projector_expectation" not in data


def test_memory_error_is_a_clean_error(capsys, monkeypatch):
    from darkcount import trajectory

    def exhausted(config):
        raise MemoryError("Unable to allocate 11.5 GiB for an array")

    monkeypatch.setattr(trajectory, "_no_jump_norm_curve", exhausted)
    code = main(["trajectory", "--n", "4", "--s", "2", "--trajectories", "10"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:") and "11.5 GiB" in captured.err
    assert captured.out == ""


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
    # uniform couplings: sigma = sqrt(2) g drains to 0.5 exp(-10.4) at this horizon
    assert 0.0 <= data["horizon_residual"] < 1e-3
    assert data["waiting_time_sufficient"] is True
    assert data["deviation_from_projector"] <= data["tolerance"]


@pytest.mark.parametrize("argv,residual", [
    ("--n 10 --s 5 --seed 0 --waiting-factor 650.7", 0.0476),
    ("--n 8 --s 4 --seed 4 --waiting-factor 668.7", 0.0563),
])
def test_trajectory_reads_its_horizon_off_its_own_norm(capsys, argv, residual):
    # sigma_min is 0.08 g_min here, so a g_min horizon test took the bright residual for a fault
    data = run_json(capsys, "trajectory", *argv.split(), "--disorder", "log1",
                    "--kappa-ratio", "50", "--trajectories", "4000")["data"]
    assert data["horizon_residual"] == pytest.approx(residual, abs=5e-4)
    assert data["waiting_time_sufficient"] is False and "tolerance" not in data


def test_trajectory_norm_below_the_projector_exits_2(capsys, monkeypatch):
    from darkcount import trajectory

    curve = trajectory._no_jump_norm_curve

    def leaky(config):  # loses 0.1 % of every norm, the dark weight with it
        times, norms = curve(config)
        return times, 0.999 * norms

    monkeypatch.setattr(trajectory, "_no_jump_norm_curve", leaky)
    code, out = run_cli(capsys, "trajectory", "--n", "2", "--s", "1", "--uniform", "1.0",
                        "--trajectories", "100", "--waiting-factor", "130")
    assert code == 2
    assert json.loads(out)["data"]["horizon_residual"] == pytest.approx(-5e-4, abs=2e-5)


def test_failed_check_keeps_exit_2_when_its_record_cannot_be_written(capsys, monkeypatch,
                                                                      tmp_path):
    from darkcount import trajectory

    curve = trajectory._no_jump_norm_curve

    def leaky(config):  # the exit-2 engine of test_trajectory_norm_below_the_projector_exits_2
        times, norms = curve(config)
        return times, 0.999 * norms

    monkeypatch.setattr(trajectory, "_no_jump_norm_curve", leaky)
    code = main(["trajectory", "--n", "2", "--s", "1", "--uniform", "1.0", "--trajectories",
                 "100", "--waiting-factor", "130", "-o", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    check, error = captured.err.splitlines()
    assert check.startswith("consistency check failed:") and error.startswith("error:")


@pytest.mark.parametrize("argv,builds", [
    ("count --n 8 --s 4", 1),
    ("rank --n 8 --s 4 --method both", 1),
    ("trajectory --n 8 --s 4", 4),  # W(8, 4) for the projector, then W(8, 3), W(8, 2), W(8, 1)
])
def test_each_sector_builds_w_once(capsys, argv, builds):
    inclusion_pattern.cache_clear()
    assert run_cli(capsys, *argv.split())[0] == 0
    assert inclusion_pattern.cache_info().misses == builds


def test_readme_cli_examples_run(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
                if line.startswith("darkcount ")]
    assert len(commands) == 8
    for argv in commands:
        code, out = run_cli(capsys, *argv)
        assert code == 0, argv
        if out.startswith("<svg"):
            assert ET.fromstring(out).tag.endswith("svg"), argv
        elif out.startswith("{"):
            assert json.loads(out)["command"] == argv[0], argv
        else:
            rows = list(csv.reader(io.StringIO(out)))
            assert len(rows) > 1 and len({len(row) for row in rows}) == 1, argv


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n### Library example\n", 1)[1].split("```python\n", 1)[1]
    exec(block.split("```", 1)[0], {})
    (nullity, d_of_s), (trace,) = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert nullity == "9"
    assert abs(float(d_of_s) - 9) <= 1e-12 and abs(float(trace) - 9) <= 1e-12


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


@pytest.mark.parametrize("flag", [["--format", "csv"], ["--histogram"]])
def test_trajectory_kappa_sweep_refuses_a_histogram(capsys, monkeypatch, flag):
    monkeypatch.setattr(cli, "no_click_vs_kappa", lambda *a: pytest.fail("the sweep ran"))
    code = main(["trajectory", "--n", "4", "--s", "2", "--kappa-ratios", "30,100", *flag])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: --kappa-ratios") and captured.err.count("\n") == 1


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
def test_numeric_residual_failure_exits_1(capsys, tmp_path, command):
    # prod g over the pair of 1e-200 couplings is 1e-400, below the float range
    path = tmp_path / "profile.json"
    path.write_text(json.dumps([[1.0, 0.0], [1e-200, 0.0], [1e-200, 0.0], [1.0, 0.0]]))
    code = main([command[0], "--n", "4", *command[1:], "--profile-json", str(path)])
    assert code == 1
    assert "residual" in capsys.readouterr().err


def test_rank_18_9_both_methods_agree(capsys):
    payload = run_json(capsys, "rank", "--n", "18", "--s", "9", "--method", "both")
    modp, svd = payload["data"]["records"]
    assert modp["rank"] == svd["rank"] == payload["data"]["expected_generic_rank"] == 43758
    assert svd["kept_margin"] > 1


def test_rank_numeric_refuses_a_sector_over_the_exact_cap_first(capsys):
    # (23, 11) holds 1352078 states; the refusal comes before the certificate runs
    started = time.perf_counter()
    code = main(["rank", "--n", "23", "--s", "11", "--method", "both"])
    assert code == 1
    assert "over the cap of 705432" in capsys.readouterr().err
    assert time.perf_counter() - started < 0.5


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


@pytest.mark.parametrize("command", ["count", "darkbasis"])
def test_profile_json_of_another_length_is_refused(capsys, tmp_path, command):
    path = tmp_path / "profile.json"
    path.write_text('[[1.0, 0.0], [2.0, 0.0]]')
    code = main([command, "--n", "4", "--s", "0", "--profile-json", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "2 couplings for --n 4" in captured.err


@pytest.mark.parametrize("argv,names", [
    ("trajectory --n 2 --s 1 --kappa-ratio nan", "kappa"),
    ("trajectory --n 2 --s 1 --waiting-factor nan", "t_max"),
    ("trajectory --n 2 --s 1 --kappa-ratios nan,100", "kappa"),
    ("trajectory --n 2 --s 1 --g-max inf", "magnitude_high"),
    ("count --n 4 --s 2 --g-max inf", "magnitude_high"),
    ("protocol --n 2 --s 1 --uniform nan", "uniform coupling"),
    ("trajectory --n 2 --s 0 --uniform nan", "uniform coupling"),
    ("protocol --n 2 --s 1 --profile-json {nan}", "coupling g_2"),
    ("trajectory --n 2 --s 0 --profile-json {nan}", "coupling g_2"),
    # an overlong horizon: exp(dt M) overflows to NaN, or loses monotonicity at 1e16
    ("trajectory --n 3 --s 1 --uniform 1 --waiting-factor 1e38", "t_max = 1e+38"),
    ("trajectory --n 3 --s 1 --uniform 1 --waiting-factor 1e16", "t_max = 1e+16"),
    ("trajectory --n 3 --s 1 --kappa-ratio 1e300", "not finite and non-increasing"),
    ("trajectory --n 3 --s 1 --kappa-ratios 1e300,100", "not finite and non-increasing"),
])
def test_non_finite_numbers_are_a_clean_error(capsys, tmp_path, argv, names):
    path = tmp_path / "nan.json"
    path.write_text("[[1.0, 0.0], [NaN, 0.0]]")
    code = main(argv.format(nan=path).split())
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert names in captured.err


@pytest.mark.parametrize("argv", [
    ["protocol", "--n", "2", "--s", "1", "-o", "{tmp}/dir"],  # IsADirectoryError
    ["protocol", "--n", "2", "--s", "1", "-o", "{tmp}/file/x.json"],  # the parent is a file
    ["protocol", "--n", "2", "--s", "1", "--profile-json", "{tmp}/dir"],
    ["montecarlo", "--n", "2", "--s", "1", "--trials", str(2**63)],
    ["protocol", "--n", "2", "--s", "1", "--profile-json", "{tmp}/boolean.json"],
    ["protocol", "--n", "2", "--s", "1", "--profile-json", "{tmp}/number_label.json"],
    ["protocol", "--n", "2", "--s", "1", "--profile-json", "{tmp}/null_label.json"],
    ["sweep", "--n-list", ""],
    ["sweep", "--n-list", "4,,8"],
    ["count", "--n", "4", "--all-s", "--s", "2"],
    *(["trajectory", "--n", "3", "--s", "1", f"--initial={text}"]
      for text in ("0b01", "1_0", "+01", " 01", "0001")),
], ids=["output-directory", "output-under-a-file", "profile-directory", "trials-2^63",
        "boolean-coupling", "number-label", "null-label", "empty-n-list", "empty-n-token",
        "s-and-all-s", "initial-0b-prefix", "initial-underscore", "initial-plus-sign",
        "initial-space", "initial-over-n"])
def test_every_refusal_prints_one_error_line(capsys, tmp_path, argv):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    (tmp_path / "boolean.json").write_text("[[true, false], [1, 0]]")
    (tmp_path / "number_label.json").write_text('{"couplings": [[1, 0], [1, 0]], "label": 5}')
    (tmp_path / "null_label.json").write_text('{"couplings": [[1, 0], [1, 0]], "label": null}')
    code = main([arg.format(tmp=tmp_path) for arg in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    "count --n 4 --all-s", "rank --n 4 --s 2 --method both", "darkbasis --n 4 --s 2",
    "protocol --n 4 --s 2", "montecarlo --n 4 --s 2 --trials 100", "sweep --n-list 3,4",
    "trajectory --n 2 --s 1 --trajectories 100", "trajectory --n 2 --s 0 --histogram",
    "trajectory --n 2 --s 0 --kappa-ratios 10,100",
])
def test_output_is_strict_json(capsys, argv):
    # RFC 8259 has no NaN or Infinity: nothing that never clicked may print them
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    code, out = run_cli(capsys, *argv.split())
    assert code == 0
    json.loads(out, parse_constant=refuse)


def test_no_click_statistics_are_null(capsys):
    data = run_json(capsys, "trajectory", "--n", "2", "--s", "0")["data"]
    assert data["n_click"] == 0 and data["p_no_click"] == 1.0
    assert data["first_click_times"] == {"count": 0, "mean": None, "std": None,
                                         "min": None, "max": None}


PROFILE_DEFAULTS = {"uniform": None, "disorder": "log3", "g_min": None, "g_max": None,
                    "dist": None, "no_phases": False, "profile_json": None}
COMMON_DEFAULTS = {"seed": 0, "output": None, "config": None}


@pytest.mark.parametrize("argv,own", [
    ("count --n 4", {"s": None, "all_s": False, "exact_cap": 705432}),
    ("rank --n 4 --s 2", {"s": 2, "method": "modp"}),
    ("darkbasis --n 4 --s 2", {"s": 2}),
    ("protocol --n 4 --s 2", {"s": 2, "format": "json"}),
    ("montecarlo --n 4 --s 2", {"s": 2, "trials": 10000}),
    ("trajectory --n 2 --s 1",
     {"n": 2, "s": 1, "initial": None, "kappa_ratio": 100.0, "kappa_ratios": None,
      "trajectories": 10000, "waiting_factor": 50.0, "histogram": False, "format": "json",
      "disorder": "narrow"}),
])
def test_sector_subcommands_parse_to_the_same_namespace(argv, own):
    args = vars(build_parser().parse_args(argv.split()))
    command = argv.split()[0]
    assert args.pop("func") is getattr(cli, f"cmd_{command}")
    assert args == {"command": command, "n": 4, **PROFILE_DEFAULTS, **COMMON_DEFAULTS, **own}


def test_sweep_parses_to_the_same_namespace():
    args = vars(build_parser().parse_args(["sweep"]))
    assert args.pop("func") is cli.cmd_sweep
    assert args == {"command": "sweep", "n_list": "4,8,12,16,20", "format": "json",
                    **COMMON_DEFAULTS}


def test_schema_version_present(capsys):
    payload = run_json(capsys, "count", "--n", "2", "--s", "1")
    assert payload["schema_version"] == 1
    assert "timestamp" in payload["meta"]


def test_main_calls_share_the_parser_but_no_values(capsys):
    assert build_parser() is build_parser()
    first = run_json(capsys, "count", "--n", "4", "--s", "2", "--uniform", "1")["config"]
    second = run_json(capsys, "count", "--n", "4", "--s", "2")["config"]
    assert first["uniform"] == 1.0
    assert second["uniform"] is None


# --------------------------------------------------------------------------
# the streamed record: the bytes json.dumps writes for the record as lists
# --------------------------------------------------------------------------


def listed(payload):
    """The payload with each ndarray in data as nested lists, as records once held them."""
    data = {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in payload["data"].items()}
    return {**payload, "data": data}


@pytest.fixture
def printed(monkeypatch):
    """Gives, for each payload main hands to _dump_json, json.dumps of it as lists."""
    seen = []
    dump = cli._dump_json

    def spy(payload):
        seen.append(payload)
        return dump(payload)

    monkeypatch.setattr(cli, "_dump_json", spy)
    return lambda: [json.dumps(listed(payload), sort_keys=True) + "\n" for payload in seen]


@pytest.mark.parametrize("argv", [
    "darkbasis --n 4 --s 2", "darkbasis --n 4 --s 2 --seed 1",
    "darkbasis --n 6 --s 3", "darkbasis --n 6 --s 3 --seed 1",
    "darkbasis --n 6 --s 3 --uniform 1",
    "darkbasis --n 3 --s 0",  # a 1 x 1 basis
    "darkbasis --n 4 --s 3",  # over half filling: nullity 0, basis []
    "count --n 4 --all-s",
    "protocol --n 4 --s 2", "montecarlo --n 4 --s 2 --trials 100",
    "rank --n 4 --s 2 --method both", "sweep --n-list 4,8",
    "trajectory --n 2 --s 1 --trajectories 100",
    "trajectory --n 2 --s 1 --trajectories 100 --histogram",
    "trajectory --n 2 --s 1 --trajectories 100 --kappa-ratios 10,100",
])
def test_streamed_record_matches_json_dumps(capsys, printed, argv):
    code, out = run_cli(capsys, *argv.split())
    assert code == 0
    assert [out] == printed()


def test_failed_darkbasis_record_is_streamed_the_same_way(capsys, printed, skewed_rows):
    code, out = run_cli(capsys, "darkbasis", "--n", "6", "--s", "3")
    assert code == 2
    assert [out] == printed()


def test_failed_trajectory_record_is_streamed_the_same_way(capsys, monkeypatch, printed):
    from darkcount import trajectory

    curve = trajectory._no_jump_norm_curve

    def leaky(config):  # the exit-2 record of test_trajectory_norm_below_the_projector_exits_2
        times, norms = curve(config)
        return times, 0.999 * norms

    monkeypatch.setattr(trajectory, "_no_jump_norm_curve", leaky)
    code, out = run_cli(capsys, "trajectory", "--n", "2", "--s", "1", "--uniform", "1.0",
                        "--trajectories", "100", "--waiting-factor", "130")
    assert code == 2
    assert [out] == printed()


def test_non_finite_rows_print_as_json_dumps_does():
    array = np.array([[[np.nan, np.inf], [-np.inf, -0.0]], [[0.0, 1e-300], [-2.5, 1e16]]])
    payload = {"command": "x", "data": {"a": array, "b": [np.nan], "z": array[0, 0]}}
    text = "".join(cli._dump_json(payload))
    assert text == json.dumps(listed(payload), sort_keys=True) + "\n"
    assert "[[NaN, Infinity], [-Infinity, -0.0]]" in text


def test_quoted_label_and_config_path_stream_as_json_dumps(capsys, printed, tmp_path):
    label = '"data": null'
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"label": label, "couplings": [[1, 0], [0.5, 0.5], [2, 0]]}))
    config = tmp_path / 'x"data": null.cfg'
    config.write_text('disorder = log1  # "data": null\n')
    code, out = run_cli(capsys, "darkbasis", "--n", "3", "--s", "1",
                        "--profile-json", str(profile), "--config", str(config))
    assert code == 0
    assert [out] == printed()
    assert json.loads(out)["data"]["profile"]["label"] == label


def test_output_file_holds_what_stdout_prints(capsys, monkeypatch, printed, tmp_path):
    monkeypatch.setattr(cli, "_now_iso", lambda: "2000-01-01T00:00:00+00:00")
    path = tmp_path / "basis.json"
    argv = ["darkbasis", "--n", "6", "--s", "3", "--seed", "1", "-o"]
    code, out = run_cli(capsys, *argv, "-")
    assert code == 0
    assert main([*argv, str(path)]) == 0
    text = path.read_text()
    assert [out, text] == printed()
    assert text == out.replace('"output": "-"', f'"output": {json.dumps(str(path))}')


def test_darkbasis_builds_no_per_amplitude_lists(monkeypatch):
    # Printed through nested lists and one whole-record string, the (10, 5)
    # basis peaked at 3,792,000-3,808,000 bytes under tracemalloc (stdout to
    # os.devnull, after one warm-up run); row by row it peaks at 562,000.
    argv = ["darkbasis", "--n", "10", "--s", "5"]
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1_270_000  # a third of the nested-list peak
