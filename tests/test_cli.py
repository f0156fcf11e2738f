import csv
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blackbox_lds import cli
from blackbox_lds.cli import main
from blackbox_lds.stabilize import controller_recovery

SRC = Path(__file__).resolve().parents[1] / "src"


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


PIPELINE_CFG = {
    "experiment": "pipeline",
    "seed": 11,
    "plant": {"kind": "explicit", "A": [[0.5]], "B": [[1.0]], "x1": [0.0]},
    "prior": {"k": 1, "kappa": 1.0, "beta": 1.0},
    "horizon": 150,
    "disturbance": {"kind": "sinusoidal", "omega": 0.2},
    "cost": {"kind": "quadratic"},
    "overrides": {"eps": 1e-3},
    "options": {"use_certified_stability": True, "comparator_iters": 30},
}


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestPipelineCommand:
    def test_outputs_and_structure(self, tmp_path):
        cfg = _write_config(tmp_path, "cfg.json", PIPELINE_CFG)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "steps.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 150
        assert list(rows[0]) == ["t", "phase", "state_norm", "control_norm",
                                 "cost", "cumulative_cost"]
        summary = json.loads(_read(out / "summary.json"))
        assert "regret" in summary
        assert summary["constants_provenance"]["eps"] == "override"
        # summary cumulative cost equals the CSV's final cumulative cost
        assert float(rows[-1]["cumulative_cost"]) == summary["cumulative_cost"]
        assert 0 <= summary["gpc_projection_active_rounds"] <= summary["gpc_steps"]
        assert summary["sdp_iterations"] >= 1
        assert summary["sdp_violation"] <= 1e-9
        assert summary["sdp_affine_residual"] <= 1e-9

    def test_seed_changes_output(self, tmp_path):
        cfg = _write_config(tmp_path, "cfg.json",
                            {**PIPELINE_CFG,
                             "disturbance": {"kind": "clipped_gaussian",
                                             "scale": 0.5}})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["pipeline", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["pipeline", "--config", cfg, "--out", str(out2),
                     "--seed", "12"]) == 0
        assert _read(out1 / "steps.csv") != _read(out2 / "steps.csv")


# one small config per subcommand
CONFIGS = {
    "pipeline": PIPELINE_CFG,
    "sysid": {"experiment": "sysid", "seed": 2,
              "plant": {"kind": "explicit", "A": [[0.5]], "B": [[1.0]]},
              "prior": {"k": 1, "kappa": 1.0, "beta": 1.0},
              "disturbance": {"kind": "clipped_gaussian", "scale": 0.3},
              "eps": 1e-3},
    "recover": {"experiment": "recover", "A_hat": [[1.1, 0.2], [0.0, 0.9]],
                "B_hat": [[1.0], [0.3]], "eps": 1e-6, "kappa_prime": 3.0,
                "gamma_prime": 0.05},
    "lowerbound-rand": {"experiment": "lowerbound-rand", "d_x": 40, "seed": 3,
                        "controller": "certainty_equivalent"},
    "lowerbound-det": {"experiment": "lowerbound-det", "d_x": 12,
                       "controller": "negative_identity"},
}


@pytest.mark.parametrize("subcommand", sorted(CONFIGS))
def test_byte_identical_reruns(tmp_path, subcommand):
    cfg = _write_config(tmp_path, "cfg.json", CONFIGS[subcommand])
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([subcommand, "--config", cfg, "--out", str(out1)]) == 0
    assert main([subcommand, "--config", cfg, "--out", str(out2)]) == 0
    for name in ("steps.csv", "summary.json"):
        assert _read(out1 / name) == _read(out2 / name)
    summary = json.loads(_read(out1 / "summary.json"))
    assert summary["experiment"] == subcommand
    assert summary["seed"] == CONFIGS[subcommand].get("seed")
    assert summary["config"] == CONFIGS[subcommand]
    with open(out1 / "steps.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert summary["cumulative_cost"] == (float(rows[-1]["cumulative_cost"])
                                          if rows else 0.0)


class TestSchemaValidation:
    @pytest.mark.parametrize("path,value", [
        ("prior.kappa", "1.0"),
        ("prior.beta", None),
        ("options.use_certified_stability", "yes"),
        ("options.reidentify", 1),
        ("options.comparator_iters", "5"),
        ("options.comparator_iters", 0),
        ("disturbance.scale", "0.5"),
        ("disturbance.omega", [0.2]),
        ("disturbance.amplitude", True),
        ("disturbance.phases", ["0.1"]),
    ])
    def test_mistyped_value_exit_2(self, tmp_path, capsys, path, value):
        cfg = json.loads(json.dumps(PIPELINE_CFG))
        section, key = path.split(".")
        cfg[section][key] = value
        out = tmp_path / "o"
        assert main(["pipeline", "--config", _write_config(tmp_path, "cfg.json", cfg),
                     "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().out)
        assert (err["error"]["kind"], err["error"]["path"]) == ("config", path)
        assert not out.exists()  # rejected before any round is played

    @pytest.mark.parametrize("plant,cost,path", [
        ({"kind": "explicit", "A": [[0.5]], "B": [[1.0]]},
         {"kind": "weighted_quadratic", "R": [[1.0]]}, "cost.Q"),
        ({"kind": "random", "d_x": 3, "d_u": 2},
         {"kind": "weighted_quadratic", "Q": [[1.0, 0.0, 0.0]] * 3,
          "R": [[1.0, 0.0, 0.0]] * 3}, "cost.R"),
    ])
    def test_weighted_quadratic_needs_square_q_and_r(self, tmp_path, capsys,
                                                     plant, cost, path):
        cfg = {**CONFIGS["sysid"], "plant": plant, "cost": cost}
        out = tmp_path / "o"
        assert main(["sysid", "--config", _write_config(tmp_path, "cfg.json", cfg),
                     "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().out)
        assert (err["error"]["kind"], err["error"]["path"]) == ("config", path)
        assert not out.exists()

    def test_weighted_quadratic_cost_runs(self, tmp_path):
        cost = {"kind": "weighted_quadratic", "Q": [[2.0]], "R": [[0.5]]}
        cfg = {**CONFIGS["sysid"], "cost": cost}
        assert main(["sysid", "--config", _write_config(tmp_path, "cfg.json", cfg),
                     "--out", str(tmp_path / "o")]) == 0

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, "cfg.json",
                            {**PIPELINE_CFG, "bogus": 1})
        assert main(["pipeline", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["kind"] == "config"
        assert err["error"]["path"] == "bogus"

    def test_missing_required_field(self, tmp_path, capsys):
        bad = {k: v for k, v in PIPELINE_CFG.items() if k != "prior"}
        cfg = _write_config(tmp_path, "cfg.json", bad)
        assert main(["pipeline", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["path"] == "prior"

    def test_missing_seed_for_randomized(self, tmp_path, capsys):
        bad = {k: v for k, v in PIPELINE_CFG.items() if k != "seed"}
        cfg = _write_config(tmp_path, "cfg.json", bad)
        assert main(["pipeline", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["path"] == "seed"

    def test_runtime_error_exit_1(self, tmp_path, capsys):
        bad = {**PIPELINE_CFG, "horizon": 2}
        cfg = _write_config(tmp_path, "cfg.json", bad)
        assert main(["pipeline", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["kind"] == "runtime"
        assert err["error"]["phase"] == "sysid"


class TestSetOverrides:
    def test_dot_path_set(self, tmp_path):
        cfg = _write_config(tmp_path, "cfg.json", PIPELINE_CFG)
        out = tmp_path / "o"
        assert main(["pipeline", "--config", cfg, "--out", str(out),
                     "--set", "overrides.eps=1e-4",
                     "--set", "options.comparator_iters=10"]) == 0
        summary = json.loads(_read(out / "summary.json"))
        assert summary["constants"]["eps"] == 1e-4


class TestRandomPlant:
    def test_random_plant_pipeline(self, tmp_path):
        cfg = _write_config(tmp_path, "cfg.json", {
            "experiment": "pipeline",
            "seed": 9,
            "plant": {"kind": "random", "d_x": 2, "d_u": 2,
                      "spectral_radius": 0.7},
            "prior": {"k": 1, "kappa": 30.0, "beta": 1.5},
            "horizon": 200,
            "disturbance": {"kind": "sinusoidal", "omega": 0.3},
            "overrides": {"eps": 1e-4, "kappa_prime": 3.0,
                          "gamma_prime": 0.1},
            "options": {"use_certified_stability": True,
                        "comparator_iters": 20},
        })
        out = tmp_path / "o"
        code = main(["pipeline", "--config", cfg, "--out", str(out)])
        # random instances may violate the supplied existence constants, in
        # which case the run must fail cleanly with a runtime error object
        assert code in (0, 1)
        if code == 0:
            summary = json.loads(_read(out / "summary.json"))
            assert summary["gpc_steps"] > 0

    def test_unknown_override_rejected_at_schema(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, "cfg.json",
                            {**PIPELINE_CFG, "overrides": {"zeta": 1.0}})
        assert main(["pipeline", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["path"] == "overrides.zeta"


class TestLowerboundCommands:
    def test_deterministic_growth_in_json(self, tmp_path):
        cfg = _write_config(tmp_path, "cfg.json",
                            {"experiment": "lowerbound-det", "d_x": 10,
                             "controller": "zero"})
        out = tmp_path / "o"
        assert main(["lowerbound-det", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads(_read(out / "summary.json"))
        assert summary["final_state_norm"] >= 512.0
        assert summary["system_spectral_norm"] <= 2.0 + 1e-12

    def test_construction_drift_is_a_runtime_error(self, tmp_path, capsys):
        # the frozen_random d_x = 200 construction may drift past the 1e-6
        # consistency check; the CLI then reports a runtime error object
        cfg = _write_config(tmp_path, "cfg.json",
                            {"experiment": "lowerbound-det", "d_x": 200,
                             "controller": "frozen_random"})
        code = main(["lowerbound-det", "--config", cfg, "--out",
                     str(tmp_path / "o")])
        assert code in (0, 1)
        if code == 1:
            err = json.loads(capsys.readouterr().out)
            assert err["error"]["kind"] == "runtime"
            assert "construction drifted" in err["error"]["message"]

    @pytest.mark.parametrize("controller,message", [
        # c_t^2 overflows before the last round, then the recursion drifts
        ("frozen_random", "construction drifted"),
        # ||x_t|| overflows to inf at step 326, and with it the final state
        # norm and the costs: neither CSV nor JSON can hold them
        ("negative_identity", "non-finite steps.state_norm at step 326"),
    ])
    def test_overflow_at_400_is_a_runtime_error(self, tmp_path, capsys,
                                                controller, message):
        cfg = _write_config(tmp_path, "cfg.json",
                            {"experiment": "lowerbound-det", "d_x": 400,
                             "controller": controller})
        out = tmp_path / "o"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["lowerbound-det", "--config", cfg, "--out", str(out)])
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["kind"] == "runtime"
        assert message in err["message"]
        assert not out.exists()

    def test_non_finite_summary_value_is_named(self, tmp_path, capsys,
                                               monkeypatch):
        def runner(cfg):
            return [(1, "p", np.ones(2), np.zeros(1), 1.0)], {
                "total_cost": 1.0, "h_sq": [1.0, float("nan")]}

        monkeypatch.setitem(cli._RUNNERS, "lowerbound-det", runner)
        cfg = _write_config(tmp_path, "cfg.json",
                            {"experiment": "lowerbound-det", "d_x": 4})
        out = tmp_path / "o"
        assert main(["lowerbound-det", "--config", cfg, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["message"] == "non-finite summary.h_sq[1]"
        assert not out.exists()

    def test_non_finite_step_is_named_and_nothing_written(self, tmp_path,
                                                          capsys, monkeypatch):
        def runner(cfg):
            steps = [(1, "p", np.ones(2), np.zeros(1), 1.0),
                     (2, "p", np.ones(2), np.zeros(1), float("inf"))]
            return steps, {"total_cost": 1.0}

        monkeypatch.setitem(cli._RUNNERS, "lowerbound-det", runner)
        cfg = _write_config(tmp_path, "cfg.json",
                            {"experiment": "lowerbound-det", "d_x": 4})
        out = tmp_path / "o"
        assert main(["lowerbound-det", "--config", cfg, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["message"] == "non-finite steps.cost at step 2"
        assert not out.exists()

    def test_randomized_trial_summary(self, tmp_path):
        cfg = _write_config(tmp_path, "cfg.json",
                            {"experiment": "lowerbound-rand", "d_x": 80,
                             "gamma": 40.0, "controller": "zero", "seed": 4})
        out = tmp_path / "o"
        assert main(["lowerbound-rand", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads(_read(out / "summary.json"))
        assert summary["steps"] == 10
        assert isinstance(summary["all_doubled"], bool)

    def test_trials_fanout(self, tmp_path):
        cfg = _write_config(tmp_path, "cfg.json",
                            {"experiment": "lowerbound-rand", "d_x": 40,
                             "gamma": 40.0, "controller": "zero", "seed": 0})
        out = tmp_path / "o"
        assert main(["lowerbound-rand", "--config", cfg, "--out", str(out),
                     "--trials", "3"]) == 0
        for i in range(3):
            trial = out / f"trial_{i:04d}"
            assert os.path.exists(trial / "summary.json")
        index = json.loads(_read(out / "trials.json"))
        assert index["trials"] == 3
        seeds = [json.loads(_read(out / f"trial_{i:04d}" / "summary.json"))["seed"]
                 for i in range(3)]
        assert seeds == [0, 1, 2]

    def test_trials_fanout_is_deterministic(self, tmp_path):
        cfg = _write_config(tmp_path, "cfg.json",
                            {"experiment": "lowerbound-rand", "d_x": 40,
                             "gamma": 40.0, "controller": "zero", "seed": 5})
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["lowerbound-rand", "--config", cfg, "--out", str(out),
                         "--trials", "4"]) == 0
            outs.append(out)
        for i in range(4):
            for fname in ("steps.csv", "summary.json"):
                assert _read(outs[0] / f"trial_{i:04d}" / fname) \
                    == _read(outs[1] / f"trial_{i:04d}" / fname)


    def test_trial_matches_single_run_with_its_seed(self, tmp_path):
        cfg = _write_config(tmp_path, "cfg.json",
                            {"experiment": "lowerbound-rand", "d_x": 40,
                             "gamma": 40.0, "controller": "certainty_equivalent",
                             "seed": 7})
        fan = tmp_path / "fan"
        assert main(["lowerbound-rand", "--config", cfg, "--out", str(fan),
                     "--trials", "3"]) == 0
        for i in range(3):
            single = tmp_path / f"single{i}"
            assert main(["lowerbound-rand", "--config", cfg, "--out", str(single),
                         "--seed", str(7 + i)]) == 0
            for fname in ("steps.csv", "summary.json"):
                assert _read(fan / f"trial_{i:04d}" / fname) \
                    == _read(single / fname)


class TestVerboseLogging:
    CFG = {"experiment": "lowerbound-det", "d_x": 4}

    def test_env_read_when_main_runs(self, tmp_path, monkeypatch, capsys):
        cfg = _write_config(tmp_path, "cfg.json", self.CFG)
        out = tmp_path / "o"
        monkeypatch.setenv("BLACKBOX_LDS_VERBOSE", "1")
        assert main(["lowerbound-det", "--config", cfg, "--out", str(out)]) == 0
        assert f"running lowerbound-det -> {out}" in capsys.readouterr().err
        monkeypatch.setenv("BLACKBOX_LDS_VERBOSE", "0")
        assert main(["lowerbound-det", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""

    def test_progress_goes_through_the_package_logger(self, tmp_path,
                                                      monkeypatch, caplog):
        cfg = _write_config(tmp_path, "cfg.json", self.CFG)
        monkeypatch.delenv("BLACKBOX_LDS_VERBOSE", raising=False)
        with caplog.at_level(logging.INFO, logger="blackbox_lds"):
            assert main(["lowerbound-det", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 0
        assert [r.name for r in caplog.records] == ["blackbox_lds"]
        assert caplog.records[0].getMessage().startswith("running lowerbound-det")


class TestSysidAndRecoverCommands:
    def test_sysid_summary(self, tmp_path):
        cfg = _write_config(tmp_path, "cfg.json", {
            "experiment": "sysid",
            "seed": 2,
            "plant": {"kind": "explicit", "A": [[0.5]], "B": [[1.0]], "x1": [0.0]},
            "prior": {"k": 1, "kappa": 1.0, "beta": 1.0},
            "disturbance": {"kind": "sign_adversarial"},
            "eps": 1e-3,
        })
        out = tmp_path / "o"
        assert main(["sysid", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads(_read(out / "summary.json"))
        assert summary["estimate_error_A"] <= 1e-3
        assert summary["estimate_error_B"] <= 1e-3

    def test_recover_summary(self, tmp_path):
        cfg = _write_config(tmp_path, "cfg.json", {
            "experiment": "recover",
            "A_hat": [[0.5]], "B_hat": [[1.0]],
            "eps": 1e-6, "kappa_prime": 2.449489742783178,
            "gamma_prime": 0.08333333333333334,
        })
        out = tmp_path / "o"
        assert main(["recover", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads(_read(out / "summary.json"))
        assert summary["closed_loop_spectral_radius"] < 1.0
        direct = controller_recovery([[0.5]], [[1.0]], 1e-6, 2.449489742783178,
                                     0.08333333333333334)
        assert summary["sdp_iterations"] == direct.sdp_iterations >= 1
        assert summary["sdp_violation"] == direct.sdp_violation <= 1e-9
        assert summary["sdp_affine_residual"] == direct.sdp_affine_residual <= 1e-9


class TestModuleEntryPoint:
    def test_python_m_runs_the_cli_from_a_checkout(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        run = subprocess.run([sys.executable, "-m", "blackbox_lds", "--help"],
                             cwd=tmp_path, env=env, capture_output=True, text=True,
                             timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("usage: blackbox-lds")
        cfg = _write_config(tmp_path, "cfg.json", {
            "experiment": "recover", "A_hat": [[0.5]], "B_hat": [[1.0]],
            "eps": 1e-6, "kappa_prime": 2.0, "gamma_prime": 0.2})
        run = subprocess.run([sys.executable, "-m", "blackbox_lds", "recover",
                              "--config", cfg, "--out", "o"], cwd=tmp_path, env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert json.loads(_read(tmp_path / "o" / "summary.json"))["experiment"] \
            == "recover"
