"""Tests for the command-line interface and campaign runner."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ranktopo import cli, models
from ranktopo.cli import (
    ExperimentConfig,
    main,
    row_seed,
    rows_to_csv,
    run_campaign,
    run_trial,
)
from ranktopo.estimate import SolverOptions
from ranktopo.graph import PAIRWISE_KINDS

CSV_COLUMNS = ["topology", "d", "n", "trial", "seed", "sq_l2", "sq_lap",
               "rescaled", "converged", "iterations", "grad_norm", "error", "runtime_ms"]


def strip_runtime(csv_text: str) -> str:
    """Drop the wall-clock column, the only nondeterministic field."""
    lines = []
    for line in csv_text.strip().split("\n"):
        lines.append(",".join(line.split(",")[:-1]))
    return "\n".join(lines)


# Per ExperimentConfig field: its flag and value, the value parsed, and a
# config-file key and value; the file value differs from the field's default.
MERGE_CASES = {
    "kinds": (["--kind", "star"], ["star"], "kinds", ["path"]),
    "d_list": (["--d", "6"], [6], "d", [5]),
    "n_list": (["--n", "7"], [7], "n", [8]),
    "family": (["--family", "btl"], "btl", "family", "plackett_luce"),
    "sigma": (["--sigma", "0.5"], 0.5, "sigma", 2.0),
    "B": (["--B", "0.7"], 0.7, "B", 0.9),
    "m": (["--m", "3"], 3, "m", 4),
    "w_gen": (["--w-gen", "gaussian"], "gaussian", "w_gen", "packing"),
    "w_variant": (["--w-variant", "pinv"], "pinv", "w_variant", "sqrt_pinv"),
    "trials": (["--trials", "3"], 3, "trials", 5),
    "base_seed": (["--seed", "9"], 9, "seed", 11),
    "out": (["--out", "flag.csv"], "flag.csv", "out", "file.csv"),
}


class TestSpectrumCommand:
    def test_complete_d4(self, capsys, tmp_path):
        csv_path = tmp_path / "spec.csv"
        code = main(["spectrum", "--kind", "complete", "--d", "4",
                     "--csv", str(csv_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda2"] == pytest.approx(2 / 3, abs=1e-4)
        assert payload["trace_pinv"] == pytest.approx(4.5, abs=1e-9)
        assert payload["classification"] == "optimal"
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "index,eigenvalue"
        assert len(lines) == 5

    def test_path_d10_not_optimal(self, capsys):
        assert main(["spectrum", "--kind", "path", "--d", "10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["classification"] == "indeterminate"
        assert payload["ratio_r"] == pytest.approx(9.1943, abs=1e-3)

    def test_invalid_dimension_fails(self, capsys):
        code = main(["spectrum", "--kind", "hypercube", "--d", "6"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestSimulateCommand:
    CONFIG = dict(kinds=["complete"], d_list=[5], n_list=[200, 400],
                  family="btl", sigma=1.0, B=1.0, trials=3, base_seed=7)

    def test_threads_do_not_change_results(self):
        one = rows_to_csv(run_campaign(ExperimentConfig(**self.CONFIG), threads=1))
        many = rows_to_csv(run_campaign(ExperimentConfig(**self.CONFIG), threads=8))
        assert strip_runtime(one) == strip_runtime(many)

    def test_csv_schema_and_row_replay(self):
        rows = run_campaign(ExperimentConfig(**self.CONFIG), threads=2)
        csv_text = rows_to_csv(rows)
        header = csv_text.split("\n", 1)[0]
        assert header == ",".join(CSV_COLUMNS)
        assert len(rows) == 2 * 3
        # any row reproduces bit-for-bit from its recorded seed
        probe = rows[4]
        replay = run_trial(probe["topology"], probe["d"], probe["n"], "btl",
                           1.0, 1.0, 2, "uniform", probe["seed"])
        assert replay["sq_l2"] == probe["sq_l2"]
        assert replay["sq_lap"] == probe["sq_lap"]
        assert replay["iterations"] == probe["iterations"] > 0
        assert replay["grad_norm"] == probe["grad_norm"] <= 1e-8

    def test_row_seeds_unique_and_stable(self):
        seeds = {row_seed(7, c, t) for c in range(4) for t in range(40)}
        assert len(seeds) == 160
        assert row_seed(7, 1, 2) == row_seed(7, 1, 2)

    def test_cli_writes_file(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(["simulate", "--kind", "complete", "--d", "4", "--n", "100",
                     "--trials", "2", "--seed", "1", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith(",".join(CSV_COLUMNS))
        assert len(text.strip().split("\n")) == 3

    def test_threads_flag_is_refused(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--kind", "complete", "--d", "4", "--n", "100",
                  "--trials", "1", "--out", "-", "--threads", "2"])
        assert excinfo.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "kinds": ["complete"], "d": [4], "n": [100], "family": "btl",
            "trials": 2, "seed": 3, "out": "-",
        }))
        code = main(["simulate", "--config", str(config), "--trials", "1"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2  # the flag overrode trials from the file

    @pytest.fixture
    def merged(self, monkeypatch, tmp_path):
        """Run ``simulate`` with argv and a config file holding a dict, and
        return the config the campaign was given."""
        monkeypatch.chdir(tmp_path)
        seen = []
        monkeypatch.setattr(cli, "run_campaign", lambda config: seen.append(config) or [])

        def run(argv, file):
            (tmp_path / "config.json").write_text(json.dumps(file))
            assert main(["simulate", "--config", "config.json", *argv]) == 0
            return seen.pop()
        return run

    def test_merge_cases_cover_every_field(self):
        assert set(MERGE_CASES) == {f.name for f in dataclasses.fields(ExperimentConfig)}

    @pytest.mark.parametrize("name", list(MERGE_CASES))
    def test_flag_beats_file_beats_default(self, name, merged):
        argv, flag_value, key, file_value = MERGE_CASES[name]
        default = getattr(ExperimentConfig(), name)
        assert file_value != default and flag_value != file_value
        assert getattr(merged([], {}), name) == default
        assert getattr(merged([], {key: file_value}), name) == file_value
        assert getattr(merged(argv, {key: file_value}), name) == flag_value

    def test_empty_out_is_an_error(self, capsys):
        code = main(["simulate", "--d", "4", "--n", "10", "--trials", "1", "--out", ""])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out must be a file path, or - for stdout\n"

    def test_mwise_campaign(self):
        config = ExperimentConfig(kinds=["complete"], d_list=[4], n_list=[300],
                                  family="plackett_luce", m=3, trials=2,
                                  base_seed=0)
        rows = run_campaign(config, threads=1)
        assert len(rows) == 2
        assert all(np.isfinite(r["sq_l2"]) for r in rows)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kinds=["complete"], d_list=[5], n_list=[100],
                             trials=0).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(kinds=["hypercube"], d_list=[6],
                             n_list=[100]).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(kinds=["star"], d_list=[5], n_list=[100],
                             family="plackett_luce", m=3).validate()

    @pytest.mark.parametrize("flags", [
        ["--family", "plackett_luce", "--m", "5", "--d", "4"],
        ["--sigma", "-1"],
        ["--B", "0"],
        ["--n", "0"],
    ], ids=["m_above_d", "negative_sigma", "zero_B", "zero_n"])
    def test_configs_that_fail_every_trial_are_rejected(self, flags, capsys):
        code = main(["simulate", "--trials", "2", "--out", "-", *flags])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_unknown_packing_variant_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kinds": ["path"], "d": [6], "n": [100],
                                      "w_gen": "packing", "w_variant": "bogus",
                                      "trials": 2, "out": "-"}))
        assert main(["simulate", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "bogus" in captured.err

    def test_config_key_that_is_not_read_is_an_error(self, tmp_path, capsys):
        """The file key for d_list is "d"; a file naming the field itself
        would run the default d without a word, so it is refused."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"d_list": [5], "kinds": ["star"], "trials": 1,
                                      "out": "-"}))
        assert main(["simulate", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "d_list" in captured.err

    def test_mwise_trial_refuses_other_kinds(self):
        """A lone Plackett-Luce trial on a kind with no hyper-design is an
        error, not a complete-hyper-design row labelled with that kind."""
        with pytest.raises(ValueError, match="complete hyper-design"):
            run_trial("star", 8, 300, "plackett_luce", 1.0, 1.0, 3, "uniform", 5)

    def test_mwise_campaign_reads_no_beta(self, monkeypatch):
        """The estimator needs no curvature bound, so a campaign never
        evaluates beta."""
        def no_beta(self):
            raise AssertionError("a campaign must not read beta")

        monkeypatch.setattr(models.MWiseLink, "beta", property(no_beta))
        cli._cell.cache_clear()
        rows = run_campaign(ExperimentConfig(kinds=["complete"], d_list=[6], n_list=[1000],
                                             family="plackett_luce", m=3, trials=2),
                            log=io.StringIO())
        assert len(rows) == 2
        assert all(row["converged"] and row["error"] == "" for row in rows)

    def test_failed_trials_do_not_abort(self, monkeypatch, capsys):
        import ranktopo.cli as cli_mod

        original = cli_mod.run_trial
        def explode(kind, d, n, *args, **kwargs):
            if n == 200:
                raise RuntimeError("boom")
            return original(kind, d, n, *args, **kwargs)

        monkeypatch.setattr(cli_mod, "run_trial", explode)
        config = ExperimentConfig(kinds=["complete"], d_list=[4],
                                  n_list=[100, 200], family="btl", trials=2,
                                  base_seed=0)
        rows = run_campaign(config, threads=1)
        assert len(rows) == 4
        failed = [r for r in rows if r["n"] == 200]
        assert all(not r["converged"] for r in failed)
        assert all(np.isnan(r["sq_l2"]) for r in failed)
        assert all(r["iterations"] == 0 and np.isnan(r["grad_norm"]) for r in failed)
        good = [r for r in rows if r["n"] == 100]
        assert all(np.isfinite(r["sq_l2"]) for r in good)

    def test_failed_cell_reports_its_cause(self, monkeypatch, capsys):
        import ranktopo.cli as cli_mod

        original_trial, original_mle = cli_mod.run_trial, cli_mod.mle_ordinal
        def explode(kind, d, n, *args, **kwargs):
            if n == 200:
                raise RuntimeError("boom, at n=200")
            return original_trial(kind, d, n, *args, **kwargs)

        def one_step(batch, design, link, B):
            return original_mle(batch, design, link, B, SolverOptions(max_iters=1))

        monkeypatch.setattr(cli_mod, "run_trial", explode)
        monkeypatch.setattr(cli_mod, "mle_ordinal", one_step)
        code = main(["simulate", "--kind", "complete", "--d", "4", "--n", "100",
                     "--n", "200", "--trials", "2", "--seed", "0", "--out", "-"])
        assert code == 0
        captured = capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        assert [r["error"] for r in rows] == ["", "", "RuntimeError: boom, at n=200",
                                              "RuntimeError: boom, at n=200"]
        assert [r["converged"] for r in rows] == ["False"] * 4
        assert [r["sq_l2"] for r in rows][2:] == ["nan", "nan"]
        assert captured.err.splitlines()[-1] == "rows 4, not converged 2, failed 2"

    def test_topology_with_comma_round_trips(self, capsys):
        code = main(["simulate", "--kind", "complete_bipartite(3,5)", "--d", "8",
                     "--n", "400", "--trials", "2", "--seed", "5", "--out", "-"])
        assert code == 0
        text = capsys.readouterr().out
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2
        for row in rows:
            assert list(row) == CSV_COLUMNS and None not in row.values()
            assert row["topology"] == "complete_bipartite(3,5)"
            assert row["d"] == "8" and row["error"] == ""
        # rows without a comma are written exactly as plain joins
        plain = rows_to_csv(run_campaign(ExperimentConfig(**self.CONFIG)))
        for line, row in zip(plain.splitlines()[1:], csv.DictReader(io.StringIO(plain))):
            assert line == ",".join(row[c] for c in CSV_COLUMNS)

    @pytest.mark.parametrize("family, m", [("thurstone", 2), ("plackett_luce", 3)])
    def test_cell_is_built_once(self, monkeypatch, family, m):
        """The design, the hyper-design and the link are built once per cell,
        whatever the trial count (cells that differ only in n share one
        build), and a lone trial reproduces each row."""
        calls = {"build_topology": 0, "complete_hyper": 0, "plackett_luce": 0,
                 "make_link": 0}
        for name in calls:
            def counted(*args, _build=getattr(cli, name), _name=name):
                calls[_name] += 1
                return _build(*args)
            monkeypatch.setattr(cli, name, counted)
        cli._cell.cache_clear()
        config = ExperimentConfig(kinds=["complete"], d_list=[5, 6], n_list=[300, 600],
                                  family=family, m=m, trials=3, base_seed=11)
        rows = run_campaign(config, log=io.StringIO())
        builds, mwise = 2, family == "plackett_luce"
        # validate() builds each design once more, before any trial.
        assert calls == {"build_topology": 2 * builds, "complete_hyper": builds * mwise,
                         "plackett_luce": builds * mwise, "make_link": builds * (not mwise)}
        assert len(rows) == 2 * 2 * 3
        for row in rows:
            alone = run_trial(row["topology"], row["d"], row["n"], family, 1.0, 1.0, m,
                              "uniform", row["seed"])
            assert {**alone, "trial": row["trial"], "runtime_ms": 0} == \
                {**row, "runtime_ms": 0}

    def test_campaigns_need_no_spectrum(self, monkeypatch, capsys):
        import ranktopo.cli as cli_mod

        def no_spectrum(*args, **kwargs):
            raise AssertionError("campaigns must not decompose the Laplacian")

        monkeypatch.setattr(cli_mod, "spectrum", no_spectrum)
        for family, m in (("thurstone", 2), ("btl", 2), ("plackett_luce", 3)):
            config = ExperimentConfig(kinds=["complete"], d_list=[5], n_list=[500],
                                      family=family, m=m, trials=2, base_seed=3)
            rows = run_campaign(config, log=io.StringIO())
            assert all(r["error"] == "" and r["converged"] for r in rows)
        assert main(["cvo", "--sigma-ord", "1", "--sigma-card", "1", "--empirical",
                     "--d", "4", "--n", "120", "--trials", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["empirical"]["trials"] == 3


class TestEigenvalueOnlyPaths:
    def test_no_eigenvectors_are_computed(self, monkeypatch, capsys):
        from ranktopo.bounds import minimax_bounds
        from ranktopo.cli import complete_hyper
        from ranktopo.graph import build_topology
        from ranktopo.models import make_link, model_params, plackett_luce

        def no_eigh(*args, **kwargs):
            raise AssertionError("eigenvalue-only paths must not compute eigenvectors")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        assert main(["design", "--d", "64", "--n", "1e5", "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)) >= 7
        assert main(["spectrum", "--kind", "path", "--d", "64"]) == 0
        assert json.loads(capsys.readouterr().out)["lambda2"] > 0
        design = build_topology("cycle", 64)
        params = model_params(make_link("btl", 1.0), 1.0)
        for theorem in ("T1_lap", "T2_l2", "T3_paired"):
            assert minimax_bounds(theorem, design, params, 1e5).upper > 0
        hyper, link = complete_hyper(6, 3), plackett_luce(3, 1.0)
        for theorem in ("T4_mwise_lap", "T4_mwise_l2"):
            assert minimax_bounds(theorem, hyper, link, 1e5).upper > 0

    def test_path_spectrum_at_two_to_the_18(self, capsys):
        """No d x d matrix and no zero clamp: the dense Laplacian would need 550 GB,
        and the 1e-10 * lambda_max clamp would report this lambda_2 as 0."""
        d = 1 << 18
        start = time.perf_counter()
        assert main(["spectrum", "--kind", "path", "--d", str(d)]) == 0
        assert time.perf_counter() - start < 2.0
        lambda2 = json.loads(capsys.readouterr().out)["lambda2"]
        assert lambda2 == pytest.approx(4 * math.sin(math.pi / (2 * d)) ** 2 / (d - 1),
                                        rel=1e-12, abs=0)

    @pytest.mark.parametrize("kind", ["path", "cycle", "star", "lattice2d", "hypercube"])
    def test_sparse_design_at_two_to_the_14(self, kind, capsys):
        start = time.perf_counter()
        assert main(["design", "--d", "16384", "--n", "1e5", "--kind", kind, "--json"]) == 0
        assert time.perf_counter() - start < 2.0
        assert json.loads(capsys.readouterr().out)[0]["lambda2"] > 0

    def test_paired_least_squares_needs_no_spectrum(self, monkeypatch):
        from ranktopo.estimate import ls_paired_cardinal
        from ranktopo.graph import build_topology
        from ranktopo.synth import CardinalModel, gen_quality, sample_comparisons, sample_outcomes

        def no_eig(*args, **kwargs):
            raise AssertionError("ls_paired_cardinal must not run an eigensolver")

        monkeypatch.setattr(np.linalg, "eigh", no_eig)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eig)
        design = build_topology("cycle", 32)
        rng = np.random.default_rng(4)
        w_star = gen_quality("uniform", 32, 1.0, rng)
        comps = sample_comparisons(design, 500, rng)
        batch = sample_outcomes(CardinalModel("pair", 0.0), w_star, design, comps, 0)
        result = ls_paired_cardinal(batch, design)
        np.testing.assert_allclose(result.w_hat.values, w_star.values, atol=1e-10)


class TestBoundsCommand:
    def test_t3_value(self, capsys):
        code = main(["bounds", "--theorem", "T3_paired", "--kind", "complete",
                     "--d", "4", "--n", "100", "--sigma", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lower"] == pytest.approx(0.045, abs=1e-9)
        assert payload["upper"] == pytest.approx(0.045, abs=1e-9)

    def test_constructive_positive(self, capsys):
        code = main(["bounds", "--theorem", "T1_lap", "--kind", "complete",
                     "--d", "10", "--n", "10000", "--family", "btl"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "lower" in payload
        code = main(["bounds", "--theorem", "T1_lap", "--kind", "complete",
                     "--d", "10", "--n", "10000", "--family", "btl",
                     "--constructive"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["constructive_lower"] > 0

    def test_inapplicable_n_still_exits_zero(self, capsys):
        code = main(["bounds", "--theorem", "T2_l2", "--kind", "complete",
                     "--d", "10", "--n", "3", "--family", "btl"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["applicable"] is False

    def test_mwise_theorem(self, capsys):
        code = main(["bounds", "--theorem", "T4_mwise_lap", "--kind", "complete",
                     "--d", "6", "--m", "3", "--n", "1000"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0 < payload["lower"] <= payload["upper"]
        assert payload["m"] == 3
        code = main(["bounds", "--theorem", "T4_mwise_lap", "--kind", "star",
                     "--d", "6", "--m", "3", "--n", "1000"])
        assert code == 1

    def test_mwise_bounds_at_m24(self, capsys):
        """The closed-form beta serves any m: the 2^24 corner Hessians an
        eigensolve would need take 77 GB."""
        assert main(["bounds", "--theorem", "T4_mwise_l2", "--kind", "complete",
                     "--d", "40", "--m", "24", "--n", "1e6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0 < payload["lower"] <= payload["upper"] < math.inf

    @pytest.mark.parametrize("theorem", ["T4_mwise_lap", "T4_mwise_l2"])
    def test_mwise_bounds_at_large_B(self, theorem, capsys):
        """Up to B of about 185 the prefactors are finite; from there beta^2
        or the upper prefactor leaves the float range, and the command says so."""
        argv = ["bounds", "--theorem", theorem, "--kind", "complete", "--d", "8",
                "--m", "3", "--n", "1e4", "--B"]
        assert main([*argv, "20"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0 < payload["lower"] <= payload["upper"] < math.inf
        assert payload["prefactors"]["lambda2_H"] > 0
        for B in ("185", "190", "300", "400"):
            assert main([*argv, B]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: B=") and "too wide" in captured.err

    def test_gv_target_overflow_is_an_error(self, capsys):
        """exp overflows in the GV target from d of about 2,386 at alpha=0.01;
        the command reports it as an error, not a traceback."""
        code = main(["bounds", "--theorem", "T1_lap", "--constructive", "--kind", "path",
                     "--d", "2400", "--n", "1e6"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "d=2400" in err and "alpha=0.01" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind, d, alpha", [("cycle", "12", "0.2"), ("star", "24", "0.24")])
    def test_one_vector_packing_is_an_error(self, kind, d, alpha, capsys):
        """A GV target of 1 leaves no pair for Fano; the command says so."""
        code = main(["bounds", "--theorem", "T1_lap", "--kind", kind, "--d", d,
                     "--n", "1e4", "--alpha", alpha, "--constructive"])
        assert code == 1
        assert capsys.readouterr().err == "error: Fano needs a packing of size >= 2, got M=1\n"


    @pytest.mark.parametrize("theorem", ["T3_paired", "T4_mwise_lap", "T4_mwise_l2"])
    def test_constructive_needs_a_fano_pipeline(self, theorem, capsys):
        """Only T1_lap and T2_l2 have a constructive pipeline; another
        theorem's --constructive is refused, not answered with T1_lap's."""
        code = main(["bounds", "--theorem", theorem, "--kind", "complete", "--d", "10",
                     "--n", "10000", "--constructive"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --constructive runs the Fano pipeline of "
                                f"T1_lap and T2_l2 only, not {theorem}\n")

    @pytest.mark.parametrize("theorem, d, n, B, extra", [
        ("T1_lap", "6", "100", "0", []),
        ("T4_mwise_lap", "6", "100", "0", []),
        ("T1_lap", "12", "100", "0", ["--constructive"]),
        ("T1_lap", "6", "0", "1", ["--constructive"]),
        ("T2_l2", "12", "0", "1", ["--constructive"]),
        ("T1_lap", "12", "-5", "1", ["--constructive"]),
        ("T1_lap", "6", "nan", "1", []),
        ("T4_mwise_l2", "6", "nan", "1", []),
        ("T1_lap", "6", "nan", "1", ["--constructive"]),
    ])
    def test_nonpositive_inputs_are_errors(self, theorem, d, n, B, extra, capsys):
        """B <= 0 used to divide by zero, n <= 0 or NaN to crash the
        constructive pipeline or print NaN bounds."""
        code = main(["bounds", "--theorem", theorem, "--kind", "complete", "--d", d,
                     "--n", n, "--B", B, *extra])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


class TestDesignCommand:
    def test_d16_ranking(self, capsys):
        code = main(["design", "--d", "16", "--n", "4000", "--json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        order = [r["kind"].split("(")[0] for r in rows]
        for good in ("complete", "star"):
            for bad in ("path", "barbell", "cycle"):
                assert order.index(good) < order.index(bad)
        # star's connectivity is exactly half of complete's at any d
        by_kind = {r["kind"]: r for r in rows}
        assert by_kind["star"]["lambda2"] * 2 == pytest.approx(
            by_kind["complete"]["lambda2"], rel=1e-9)
        # proxies are reported ascending
        proxies = [r["proxy"] for r in rows]
        assert proxies == sorted(proxies)

    def test_single_kind_table(self, capsys):
        code = main(["design", "--d", "9", "--n", "100", "--kind", "expander"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("expander")

    def test_skipped_kinds_reported_on_stderr(self, capsys):
        assert main(["design", "--d", "10", "--n", "100", "--json"]) == 0
        captured = capsys.readouterr()
        kinds = {r["kind"].split("(")[0] for r in json.loads(captured.out)}
        assert "hypercube" not in kinds and "expander" not in kinds
        err = captured.err.splitlines()
        assert any(line.startswith("skipped hypercube: ") for line in err)
        assert any(line.startswith("skipped expander: ") for line in err)

    def test_explicit_infeasible_kind_fails(self, capsys):
        code = main(["design", "--d", "10", "--n", "100", "--kind", "hypercube"])
        assert code == 1

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_nonpositive_budget_is_an_error(self, n, capsys):
        assert main(["design", "--d", "8", "--n", n]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: n must be positive")


    def test_no_buildable_kind_is_an_error(self, capsys):
        assert main(["design", "--d", "1", "--n", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == "error: no comparison topology builds at d=1"


class TestInlineSplits:
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--kind", "lattice2d(3,4)", "--d", "13"],
        ["spectrum", "--kind", "complete_bipartite(3,4)", "--d", "8"],
        ["bounds", "--theorem", "T1_lap", "--kind", "lattice2d(2,3)", "--d", "8",
         "--n", "100"],
        ["bounds", "--theorem", "T2_l2", "--kind", "complete_bipartite(3,4)", "--d", "8",
         "--n", "100", "--constructive"],
        ["design", "--d", "8", "--n", "100", "--kind", "lattice2d(3,3)"],
        ["design", "--d", "8", "--n", "100", "--kind", "complete_bipartite(4,5)"],
    ])
    def test_split_that_does_not_fit_d_is_an_error(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and " needs d = m1" in captured.err

    @pytest.mark.parametrize("kind, d", [
        ("complete(3,4)", 7), ("star(3,4)", 7), ("path(3,4)", 7), ("cycle(3,4)", 7),
        ("barbell(4,4)", 8), ("hypercube(2,4)", 8), ("expander(2,2)", 49)])
    def test_split_on_a_kind_that_takes_none_is_an_error(self, kind, d, capsys):
        assert main(["spectrum", "--kind", kind, "--d", str(d)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "takes no split" in captured.err

    @pytest.mark.parametrize("kind", ["complete_bipartite(3,5)", "lattice2d(2,4)"])
    def test_split_kinds_keep_their_split(self, kind, capsys):
        assert main(["spectrum", "--kind", kind, "--d", "8"]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == kind

    def test_unknown_kind_with_a_split(self, capsys):
        assert main(["spectrum", "--kind", "wheel(3,4)", "--d", "7"]) == 1
        assert "unknown topology kind" in capsys.readouterr().err


class TestCvoCommand:
    def test_limit_decisions(self, capsys):
        assert main(["cvo", "--sigma-ord", "1", "--sigma-card", "20"]) == 0
        assert json.loads(capsys.readouterr().out)["decision"] == "ordinal_better"
        assert main(["cvo", "--sigma-ord", "10", "--sigma-card", "0.1"]) == 0
        assert json.loads(capsys.readouterr().out)["decision"] == "cardinal_better"
        assert main(["cvo", "--sigma-ord", "1", "--sigma-card", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["decision"] == "indeterminate"

    def test_empirical_flag(self, capsys):
        code = main(["cvo", "--sigma-ord", "1", "--sigma-card", "1",
                     "--empirical", "--d", "4", "--n", "120", "--trials", "5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        emp = payload["empirical"]
        assert emp["ordinal_risk"] > 0 and emp["cardinal_risk"] > 0
        assert emp["trials"] == 5

    def test_empirical_needs_a_trial(self, capsys):
        code = main(["cvo", "--sigma-ord", "1", "--sigma-card", "1",
                     "--empirical", "--trials", "0"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: trials must be >= 1")

    def test_empirical_counts_unconverged_trials(self, capsys, monkeypatch):
        """An unconverged MLE is counted, and its risk still enters the mean."""
        solve, calls = cli.mle_ordinal, []

        def first_unconverged(*args, **kwargs):
            result = solve(*args, **kwargs)
            calls.append(result)
            return dataclasses.replace(result, converged=len(calls) > 1)

        argv = ["cvo", "--sigma-ord", "1", "--sigma-card", "1",
                "--empirical", "--d", "4", "--n", "120", "--trials", "5"]
        assert main(argv) == 0
        want = json.loads(capsys.readouterr().out)["empirical"]
        monkeypatch.setattr(cli, "mle_ordinal", first_unconverged)
        assert main(argv) == 0
        emp = json.loads(capsys.readouterr().out)["empirical"]
        assert len(calls) == 5 and emp["ordinal_not_converged"] == 1
        assert emp["ordinal_risk"] == want["ordinal_risk"]


class TestUnreadFlags:
    """A flag that the chosen path never reads is refused before any work;
    the path that reads it still runs."""

    BOUNDS = ["bounds", "--kind", "complete", "--d", "16", "--n", "1e5", "--theorem"]
    CVO = ["cvo", "--sigma-ord", "1", "--sigma-card", "2"]

    @pytest.mark.parametrize("argv, flag, reader", [
        ([*BOUNDS, "T4_mwise_lap", "--family", "thurstone", "--sigma", "5", "--alpha", "0.2",
          "--seed", "9"], "family", "T4_mwise_lap"),
        ([*BOUNDS, "T4_mwise_l2", "--sigma", "5"], "sigma", "T4_mwise_l2"),
        ([*BOUNDS, "T1_lap", "--m", "7"], "m", "T1_lap"),
        ([*BOUNDS, "T2_l2", "--m", "7", "--constructive"], "m", "T2_l2"),
        ([*BOUNDS, "T3_paired", "--m", "7"], "m", "T3_paired"),
        ([*BOUNDS, "T1_lap", "--alpha", "0.2"], "alpha", "bounds without --constructive"),
        ([*BOUNDS, "T4_mwise_lap", "--seed", "9"], "seed", "bounds without --constructive"),
        ([*CVO, "--trials", "0", "--d", "3"], "d", "cvo without --empirical"),
        ([*CVO, "--n", "100"], "n", "cvo without --empirical"),
        ([*CVO, "--trials", "5"], "trials", "cvo without --empirical"),
        ([*CVO, "--seed", "1"], "seed", "cvo without --empirical"),
    ])
    def test_unread_flag_is_an_error(self, argv, flag, reader, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("work started before the flags were checked")

        for name in ("cvo_decision", "build_topology", "_hyper_builder"):
            monkeypatch.setattr(cli, name, no_work)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --{flag} is not read by {reader}\n"

    @pytest.mark.parametrize("argv", [
        [*BOUNDS, "T1_lap", "--family", "thurstone"],
        [*BOUNDS, "T3_paired", "--sigma", "5"],
        [*BOUNDS, "T4_mwise_l2", "--m", "4"],
        [*BOUNDS, "T1_lap", "--constructive", "--alpha", "0.05"],
        [*BOUNDS, "T2_l2", "--constructive", "--seed", "9"],
        [*CVO, "--empirical", "--d", "4", "--trials", "2"],
        [*CVO, "--empirical", "--n", "120", "--trials", "2"],
        [*CVO, "--empirical", "--trials", "2"],
        [*CVO, "--empirical", "--seed", "1", "--trials", "2"],
    ], ids=["family", "sigma", "m", "alpha", "bounds-seed", "d", "n", "trials", "cvo-seed"])
    def test_read_flag_still_runs(self, argv, capsys):
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("argv, defaults", [
        ([*BOUNDS, "T1_lap"], ["--family", "btl", "--sigma", "1"]),
        ([*BOUNDS, "T4_mwise_lap"], ["--m", "3"]),
        ([*BOUNDS, "T2_l2", "--constructive"], ["--alpha", "0.01", "--seed", "0"]),
        ([*CVO, "--empirical", "--trials", "2"], ["--d", "6", "--n", "600", "--seed", "0"]),
    ])
    def test_omitted_flag_takes_its_default(self, argv, defaults, capsys):
        """A path fills in the default of each flag it reads and was not given."""
        assert main(argv) == 0
        omitted = capsys.readouterr().out
        assert main([*argv, *defaults]) == 0
        assert capsys.readouterr().out == omitted


class TestNanScales:
    """NaN passes a `<= 0` check; every scale is tested with `not x > 0`."""

    @pytest.mark.parametrize("argv", [
        ["cvo", "--sigma-ord", "1", "--sigma-card", "nan"],
        ["cvo", "--sigma-ord", "nan", "--sigma-card", "1"],
        ["cvo", "--sigma-ord", "1", "--sigma-card", "1", "--B", "nan"],
        ["bounds", "--theorem", "T1_lap", "--kind", "complete", "--d", "6", "--n", "100",
         "--B", "nan"],
        ["bounds", "--theorem", "T1_lap", "--kind", "complete", "--d", "6", "--n", "100",
         "--sigma", "nan"],
        ["bounds", "--theorem", "T4_mwise_lap", "--kind", "complete", "--d", "6",
         "--n", "100", "--B", "nan"],
        ["simulate", "--sigma", "nan", "--trials", "1", "--out", "-"],
    ], ids=["cvo-sigma-card", "cvo-sigma-ord", "cvo-B", "T1-B", "T1-sigma", "T4-B",
            "simulate-sigma"])
    def test_nan_is_an_error(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "must be positive" in captured.err


class TestParserReuse:
    COMMANDS = (["design", "--d", "8", "--n", "100", "--kind", "star", "--json"],
                ["spectrum", "--kind", "path", "--d", "8"],
                ["design", "--d", "8", "--n", "100", "--kind", "path", "--json"])

    def test_one_process_prints_what_separate_processes_print(self, capsys):
        """main parses with one shared parser; no call leaves state for the
        next, such as an appended --kind."""
        src = str(Path(cli.__file__).resolve().parents[1])
        separate = [subprocess.run([sys.executable, "-c",
                                    "import sys; sys.path.insert(0, sys.argv[1]); "
                                    "from ranktopo.cli import main; sys.exit(main(sys.argv[2:]))",
                                    src, *argv],
                                   capture_output=True, text=True, check=True).stdout
                    for argv in self.COMMANDS]
        together = []
        for argv in self.COMMANDS:
            assert main(argv) == 0
            together.append(capsys.readouterr().out)
        assert together == separate
        assert [row["kind"] for row in json.loads(together[2])] == ["path"]


class TestGoldenOutputs:
    """sha256 pins of whole outputs, so that work on the sampling and
    solver hot paths cannot change a result without a test noticing.  Each
    pin is the output of the code before that work: every draw, outcome,
    MLE iterate and iteration count feeds the bytes hashed here."""

    def test_simulate_rows(self, capsys):
        """Thurstone and BTL over the eight kinds that build at d=16, n=4000,
        two trials each, with the wall-clock column dropped."""
        kinds = [arg for kind in PAIRWISE_KINDS if kind != "expander"
                 for arg in ("--kind", kind)]
        parts = []
        for family in ("thurstone", "btl"):
            assert main(["simulate", "--d", "16", "--n", "4000", "--family", family,
                         "--trials", "2", "--seed", "0", "--out", "-", *kinds]) == 0
            parts.append(strip_runtime(capsys.readouterr().out))
        text = "\n".join(parts)
        assert len(text.splitlines()) == 2 * (1 + 8 * 2)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "c6749ad44d3eabe15f34bee3ad9decf1556cc23d9ec9a3ff3036d20a2475cd1d"

    def test_simulate_mwise_rows(self, capsys):
        """Plackett-Luce on complete hyper-designs at m=3 (d = 5, 6, 8) and
        m=4 (d = 6, 8), n=3000, three trials each, wall-clock column dropped."""
        parts = []
        for m, d_list in ((3, (5, 6, 8)), (4, (6, 8))):
            ds = [arg for d in d_list for arg in ("--d", str(d))]
            assert main(["simulate", "--family", "plackett_luce", "--kind", "complete",
                         "--m", str(m), *ds, "--n", "3000", "--trials", "3",
                         "--seed", "0", "--out", "-"]) == 0
            parts.append(strip_runtime(capsys.readouterr().out))
        text = "\n".join(parts)
        assert len(text.splitlines()) == 2 + 3 * 5
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "de377f460aede2fa73e2b66c5fc879469a7464fc8f7703721b83b78dec34487f"

    def test_cvo_empirical(self, capsys):
        assert main(["cvo", "--sigma-ord", "1", "--sigma-card", "2", "--empirical",
                     "--d", "6", "--n", "600", "--trials", "10", "--seed", "0"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == \
            "b96cd1351857d5bc892c34aced12657b6c73c8d44036df17dd99f1241fc7eadd"
