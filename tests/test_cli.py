import contextlib
import copy
import csv
import hashlib
import io
import json
import logging
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blackbox_lds import cli
from blackbox_lds.cli import main
from blackbox_lds.lds import RunLog
from blackbox_lds.stabilize import RecoveryConstants, controller_recovery

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

    def test_gpc_model_fields(self, tmp_path):
        # summary.json names the pair phase 3 ran on: phase 1's by default,
        # the re-identified one with options.reidentify (test_pipeline's
        # test_reidentify_mode run)
        cfg = _write_config(tmp_path, "cfg.json", PIPELINE_CFG)
        assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        summary = json.loads(_read(tmp_path / "a" / "summary.json"))
        for field in ("A_hat", "B_hat", "estimate_error_A", "estimate_error_B"):
            assert summary["gpc_" + field] == summary[field]
        reidentify = {**PIPELINE_CFG, "seed": 5, "horizon": 400,
                      "options": {"use_certified_stability": True,
                                  "comparator_iters": 40, "reidentify": True}}
        cfg = _write_config(tmp_path, "re.json", reidentify)
        assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        summary = json.loads(_read(tmp_path / "b" / "summary.json"))
        assert max(summary["estimate_error_A"], summary["estimate_error_B"]) <= 1e-7
        err_A = np.array(summary["gpc_A_hat"]) - PIPELINE_CFG["plant"]["A"]
        err_B = np.array(summary["gpc_B_hat"]) - PIPELINE_CFG["plant"]["B"]
        assert summary["gpc_estimate_error_A"] == np.linalg.norm(err_A, 2)
        assert summary["gpc_estimate_error_B"] == np.linalg.norm(err_B, 2)
        assert 0.1 <= np.linalg.norm(np.hstack([err_A, err_B]), 2) <= 0.2

    def test_comparator_fields(self, tmp_path, monkeypatch):
        from blackbox_lds import pipeline
        results = []
        comparator = pipeline.best_dac_in_hindsight

        def spy(*args, **kwargs):
            results.append(comparator(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(pipeline, "best_dac_in_hindsight", spy)
        cfg = _write_config(tmp_path, "cfg.json", PIPELINE_CFG)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads(_read(out / "summary.json"))
        (result,) = results
        assert 1 < result.iterations <= PIPELINE_CFG["options"]["comparator_iters"]
        assert np.isfinite(result.grad_norm)
        assert summary["comparator_cost"] == result.cost
        assert summary["comparator_converged"] == result.converged
        assert summary["comparator_iterations"] == result.iterations
        assert summary["comparator_grad_norm"] == result.grad_norm

    @pytest.mark.parametrize("overrides,options", [
        (PIPELINE_CFG["overrides"], PIPELINE_CFG["options"]),
        # the worst-case path, with a stability pair that keeps H small
        ({"eps": 1e-3, "kappa_tilde": 1.0, "gamma_tilde": 0.5},
         {"comparator_iters": 30}),
    ], ids=["certified", "worst-case"])
    def test_constants_are_those_phase_3_ran(self, tmp_path, monkeypatch,
                                             overrides, options):
        from blackbox_lds import pipeline
        runs = []
        gpc_run = pipeline.gpc_run

        def spy(*args):
            runs.append((args, gpc_run(*args)))
            return runs[-1][1]

        monkeypatch.setattr(pipeline, "gpc_run", spy)
        cfg = {**PIPELINE_CFG, "overrides": overrides, "options": options}
        out = tmp_path / "run"
        assert main(["pipeline", "--config", _write_config(tmp_path, "cfg.json", cfg),
                     "--out", str(out)]) == 0
        summary = json.loads(_read(out / "summary.json"))
        ((_, _, kappa_star, gamma, H, eta, *_), result), = runs
        constants = summary["constants"]
        assert constants["H"] == H == result.M.shape[0]
        assert (constants["kappa_star"], constants["eta"]) == (kappa_star, eta)
        used = summary["stability_used"]
        assert sorted(used) == ["gamma", "kappa", "source"]
        assert used["gamma"] == gamma

    def test_unmeasured_comparator_grad_norm_is_null(self):
        # no accepted step leaves the stationarity measure at inf, which
        # JSON cannot hold
        from blackbox_lds.nsc import HindsightResult
        result = HindsightResult(M=np.zeros((1, 1, 1)), cost=1.0,
                                 grad_norm=float("inf"), iterations=1,
                                 converged=True)
        fields = cli._comparator_fields(result)
        assert fields["comparator_grad_norm"] is None
        assert fields["comparator_iterations"] == 1

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
              "overrides": {"eps": 1e-3}},
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
        # shapes against the scalar plant, caught before any round is played
        ("disturbance.phases", [0.1, 0.2, 0.3]),
        ("plant.x1", [0.0, 1.0]),
        ("plant.x1", 0.0),
        ("plant.A", [[0.5, 0.1]]),
        ("plant.A", [["a"]]),
        ("plant.A", [[]]),
        ("plant.B", [[1.0], [1.0]]),
        ("plant.B", [1.0, 1.0]),
        ("plant.B", [[True]]),
        # a matrix whose rows are not all lists
        ("plant.A", [0.5]),
        ("plant.B", [[1.0], 2.0]),
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
        ({"kind": "explicit", "A": [[0.5]], "B": [[1.0]]},
         {"kind": "weighted_quadratic", "Q": [1.0], "R": [[1.0]]}, "cost.Q"),
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

    @pytest.mark.parametrize("key,value", [
        ("A_hat", [[1.1, 0.2]]),
        ("A_hat", [[1.1, "0.2"], [0.0, 0.9]]),
        ("B_hat", [[1.0], [0.3], [0.0]]),
        ("B_hat", [1.0]),
        ("B_hat", [[1.0], [0.3, 0.1]]),
        ("A_hat", [1.1, 0.2]),
        ("A_hat", [[1.1, 0.2], None]),
    ])
    def test_recover_shapes_exit_2(self, tmp_path, capsys, key, value):
        cfg = {**CONFIGS["recover"], key: value}
        out = tmp_path / "o"
        assert main(["recover", "--config", _write_config(tmp_path, "cfg.json", cfg),
                     "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().out)
        assert (err["error"]["kind"], err["error"]["path"]) == ("config", key)
        assert not out.exists()

    def test_flat_b_is_a_single_input(self, tmp_path):
        cfg = {**CONFIGS["recover"], "B_hat": [1.0, 0.3]}
        assert main(["recover", "--config", _write_config(tmp_path, "cfg.json", cfg),
                     "--out", str(tmp_path / "o")]) == 0

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

    def test_negative_eps_is_refused(self, tmp_path, capsys):
        # it used to exit 0 with nu = 17.95 (eps = 0 gives 6480)
        cfg = _write_config(tmp_path, "cfg.json",
                            {**CONFIGS["recover"], "eps": -1})
        out = tmp_path / "o"
        assert main(["recover", "--config", cfg, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["kind"], err["path"]) == ("config", "eps")
        assert "eps must be finite and >= 0" in err["message"]
        assert not out.exists()

    def test_runtime_error_exit_1(self, tmp_path, capsys):
        bad = {**PIPELINE_CFG, "horizon": 2}
        cfg = _write_config(tmp_path, "cfg.json", bad)
        assert main(["pipeline", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["kind"] == "runtime"
        assert err["error"]["phase"] == "sysid"
        assert err["error"]["reason"] is None  # not a phase-2 rejection

    def test_reidentify_error_names_its_phase(self, tmp_path, capsys):
        # one probing round cannot estimate the k + 1 = 2 impulse blocks
        cfg = _replaced(_replaced(PIPELINE_CFG, "options.reidentify", True),
                        "overrides.T0", 1)
        out = tmp_path / "o"
        assert main(["pipeline", "--config", _write_config(tmp_path, "cfg.json", cfg),
                     "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["kind"], err["phase"], err["reason"]) == ("runtime", "reidentify",
                                                              None)
        assert not out.exists()

    @pytest.mark.parametrize("path,value", [
        ("prior.kappa", 1e200),  # C = 3 kappa^2 k^2 beta^(6k) overflows
        ("overrides.kappa_star", 1e300),  # H's kappa*^2 T overflows
    ])
    def test_overflowing_constants_exit_1(self, tmp_path, capsys, path, value):
        cfg = _replaced(PIPELINE_CFG, path, value)
        out = tmp_path / "o"
        assert main(["pipeline", "--config", _write_config(tmp_path, "cfg.json", cfg),
                     "--out", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["kind"] == "runtime"
        assert not out.exists()


class TestSetOverrides:
    def test_dot_path_set(self, tmp_path):
        cfg = _write_config(tmp_path, "cfg.json", PIPELINE_CFG)
        out = tmp_path / "o"
        assert main(["pipeline", "--config", cfg, "--out", str(out),
                     "--set", "overrides.eps=1e-4",
                     "--set", "options.comparator_iters=10"]) == 0
        summary = json.loads(_read(out / "summary.json"))
        assert summary["constants"]["eps"] == 1e-4


RANDOM_PLANT_CFG = {
    "experiment": "pipeline",
    "seed": 9,
    "plant": {"kind": "random", "d_x": 2, "d_u": 2, "spectral_radius": 0.7,
              "seed": 9},
    "prior": {"k": 1, "kappa": 30.0, "beta": 1.5},
    "horizon": 200,
    "disturbance": {"kind": "sinusoidal", "omega": 0.3},
    "overrides": {"eps": 1e-4, "kappa_prime": 3.0, "gamma_prime": 0.1},
    "options": {"use_certified_stability": True, "comparator_iters": 20},
}


def _replaced(cfg, path, value):
    """A deep copy of cfg with the dotted path set to value."""
    cfg = copy.deepcopy(cfg)
    *parents, key = path.split(".")
    node = cfg
    for part in parents:
        node = node[part]
    node[key] = value
    return cfg


class TestRangeErrors:
    """A value out of range exits 2 naming its field, as a mistyped one does,
    before anything runs or is written."""

    INF = float("inf")  # written as 1e400, which JSON reads as inf

    @pytest.mark.parametrize("base,path,value,trials", [
        ("sysid", "prior.kappa", 0.5, 1),
        ("pipeline", "prior.beta", 0.5, 1),
        ("pipeline", "disturbance.amplitude", 2.0, 1),
        ("sysid", "disturbance.scale", -0.5, 1),
        ("pipeline", "plant.A", [[INF]], 1),
        ("random-plant", "plant.seed", "x", 1),
        ("random-plant", "plant.spectral_radius", "abc", 1),
        ("lowerbound-rand", "controller", ["zero"], 1),
        ("lowerbound-rand", "seed", "x", 2),
        ("lowerbound-rand", "seed", True, 1),
        ("lowerbound-det", "seed", 1.5, 2),
        ("lowerbound-rand", "gamma", -1.0, 1),
        ("lowerbound-det", "d_x", 1, 1),
        ("recover", "eps", -1, 1),
        ("recover", "gamma_prime", -1.0, 1),
        ("pipeline", "overrides.eps", 0.7, 1),
        ("pipeline", "overrides.H", -3, 1),
        # no system is (kappa', gamma')-strongly stable with kappa' < 1 or
        # gamma' > 1; these used to run Dykstra to its plateau and exit 1
        ("recover", "kappa_prime", 0.1, 1),
        ("recover", "gamma_prime", 1.5, 1),
        ("pipeline", "overrides.kappa_prime", 0.5, 1),
        # a non-finite initial state is a config error, not a round-1 failure
        ("pipeline", "plant.x1", [float("nan")], 1),
        ("pipeline", "plant.x1", [INF], 1),
        ("pipeline", "plant.x1", [-INF], 2),
        # derived only: an override would be recorded but never read
        ("pipeline", "overrides.eps0", 1e-9, 1),
        ("pipeline", "overrides.T1", 5, 1),
        # sysid's eps is overrides.eps, as pipeline's is
        ("sysid", "eps", 1e-3, 1),
    ])
    def test_exit_2_naming_the_field(self, tmp_path, capsys, base, path, value,
                                     trials):
        cfg = _replaced(RANDOM_PLANT_CFG if base == "random-plant"
                        else CONFIGS[base], path, value)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg).replace("Infinity", "1e400"))
        out = tmp_path / "o"
        assert main([cfg["experiment"], "--config", str(config), "--out", str(out),
                     "--trials", str(trials)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert (err["kind"], err["path"]) == ("config", path)
        assert not out.exists()


def _fields(cfg, prefix=""):
    for key, value in cfg.items():
        yield prefix + key, value
        if isinstance(value, dict):
            yield from _fields(value, f"{prefix}{key}.")


def _is_json_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _has_type_of(original, value) -> bool:
    """value has the JSON type of the config value it replaces: a count or a
    seed (an int there) needs an int, a float any number, a matrix or a
    vector a list of numbers or of lists of them."""
    if isinstance(original, bool):
        return isinstance(value, bool)
    if isinstance(original, int):
        return isinstance(value, int) and not isinstance(value, bool)
    if isinstance(original, float):
        return _is_json_number(value)
    if isinstance(original, list):
        return isinstance(value, list) and all(
            _is_json_number(v) or isinstance(v, list) and all(map(_is_json_number, v))
            for v in value)
    return isinstance(value, type(original))


_BASES = {**CONFIGS, "random-plant": RANDOM_PLANT_CFG}
_FIELD_CASES = [(base, path, original) for base, cfg in sorted(_BASES.items())
                for path, original in _fields(cfg)]
_POOL = ["x", True, None, [], [["a"]], [0.5], [[1.0], 2.0], -1, 0, 0.7, float("inf")]


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(_FIELD_CASES), value=st.sampled_from(_POOL),
       trials=st.sampled_from([1, 2]))
def test_main_never_raises_on_a_bad_value(case, value, trials):
    """Any one field of a working config replaced by any value of the pool:
    main() returns 0, 1 or 2 and, unless 0, prints one JSON error line,
    which names the field when the value has the wrong JSON type."""
    base, path, original = case
    cfg = _replaced(_BASES[base], path, value)
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "cfg.json")
        with open(config, "w") as fh:
            fh.write(json.dumps(cfg).replace("Infinity", "1e400"))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([_BASES[base]["experiment"], "--config", config,
                         "--out", os.path.join(tmp, "o"), "--trials", str(trials)])
    assert code in (0, 1, 2)
    if code == 0:
        return
    lines = stdout.getvalue().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    if not _has_type_of(original, value):
        assert (code, err["kind"], err["path"]) == (2, "config", path)


class TestRandomPlant:
    def test_random_plant_pipeline(self, tmp_path):
        # decay takes 1827 rounds, so the run needs a horizon past them; the
        # certified H (809 at this horizon) would not fit the GPC rounds left
        cfg = _replaced(_replaced(RANDOM_PLANT_CFG, "horizon", 2500),
                        "overrides.H", 20)
        out = tmp_path / "o"
        assert main(["pipeline", "--config", _write_config(tmp_path, "cfg.json", cfg),
                     "--out", str(out)]) == 0
        summary = json.loads(_read(out / "summary.json"))
        assert summary["constants"]["H"] == 20
        assert summary["decay_steps"] > 0 and summary["gpc_steps"] > 0

    def test_h_refusal_names_only_the_remedies_that_apply(self, tmp_path, capsys):
        # certified stability is already in use, so only the override is left
        cfg = _replaced(RANDOM_PLANT_CFG, "horizon", 2500)
        assert main(["pipeline", "--config", _write_config(tmp_path, "cfg.json", cfg),
                     "--out", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["phase"] == "gpc"
        assert err["message"].endswith("(certified stability constants); "
                                       "lower it with the H override")

    def test_unknown_override_rejected_at_schema(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, "cfg.json",
                            {**PIPELINE_CFG, "overrides": {"zeta": 1.0}})
        assert main(["pipeline", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["path"] == "overrides.zeta"


def _readme_pipeline_config():
    text = (SRC.parent / "README.md").read_text()
    block = text.split("Example pipeline config:\n\n```json\n", 1)[1]
    return json.loads(block.split("```", 1)[0])


class TestProvenance:
    """summary.json records each constant as the run used it, with where it
    came from, on README's example pipeline config: on the certified path
    the certified pair replaces (kappa~, gamma~)."""

    CFG = _readme_pipeline_config()

    @staticmethod
    def _run(tmp_path, cfg):
        out = tmp_path / "o"
        path = _write_config(tmp_path, "cfg.json", cfg)
        assert main(["pipeline", "--config", path, "--out", str(out)]) == 0
        return json.loads(_read(out / "summary.json")), _read(out / "steps.csv")

    @pytest.fixture(scope="class")
    def certified(self, tmp_path_factory):
        return self._run(tmp_path_factory.mktemp("certified"), self.CFG)

    def test_certified_pair_and_its_dependents(self, certified):
        assert self.CFG["options"] == {"use_certified_stability": True}
        summary, _ = certified
        constants, prov = summary["constants"], summary["constants_provenance"]
        used = summary["stability_used"]
        assert used["source"] == "certified"
        assert (constants["kappa_tilde"], constants["gamma_tilde"]) == (
            used["kappa"], used["gamma"])
        assert prov["kappa_tilde"] == prov["gamma_tilde"] == "certified"
        assert constants["H"] == 19
        for name in ("kappa_star", "W", "H", "eta"):
            assert prov[name] == "derived-from-certificate"

    def test_overridden_kappa_star_taints_its_dependents(self, tmp_path):
        summary, _ = self._run(tmp_path, _replaced(self.CFG, "overrides.kappa_star", 5))
        constants, prov = summary["constants"], summary["constants_provenance"]
        assert constants["kappa_star"] == 5.0 and prov["kappa_star"] == "override"
        assert constants["W"] == 2.0 * 5.0 / summary["stability_used"]["gamma"]
        for name in ("W", "H", "eta"):
            assert prov[name] == "derived-from-override"
        assert prov["kappa_tilde"] == prov["gamma_tilde"] == "certified"

    def test_certificate_supersedes_a_kappa_tilde_override(self, tmp_path, certified):
        base, base_steps = certified
        summary, steps = self._run(tmp_path,
                                   _replaced(self.CFG, "overrides.kappa_tilde", 7))
        assert summary["constants"]["kappa_tilde"] == base["stability_used"]["kappa"]
        assert summary["constants"]["kappa_tilde"] != 7.0
        assert summary["constants_provenance"]["kappa_tilde"] == "certified"
        assert steps == base_steps  # the override is not read
        assert summary["constants"] == base["constants"]
        assert summary["constants_provenance"] == base["constants_provenance"]

    def test_worst_case_provenance(self, tmp_path):
        # a small stability pair: the formula's pair gives H = 18252 > T
        overrides = {"eps": 1e-3, "kappa_tilde": 1.0, "gamma_tilde": 0.5}
        summary, _ = self._run(tmp_path, {**self.CFG, "overrides": overrides,
                                          "options": {}})
        assert summary["stability_used"] == {"kappa": 1.0, "gamma": 0.5,
                                             "source": "worst-case"}
        derived = "derived-from-override"
        assert summary["constants_provenance"] == {
            "lam": "default", "C": "default", "kappa_prime": "default",
            "gamma_prime": "default", "eps": "override", "eps0": derived,
            "nu": derived, "kappa_tilde": "override", "gamma_tilde": "override",
            "kappa_star": derived, "W": derived, "H": derived, "eta": derived,
            "T0": "default"}


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
            log = RunLog(2, 1)
            log.append(np.ones(2), np.zeros(1), None, 1.0, "p")
            return log, {"total_cost": 1.0, "h_sq": [1.0, float("nan")]}

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
            log = RunLog(2, 1)
            log.append(np.ones(2), np.zeros(1), None, 1.0, "p")
            log.append(np.ones(2), np.zeros(1), None, float("inf"), "p")
            return log, {"total_cost": 1.0}

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
            "overrides": {"eps": 1e-3},
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
        nu = RecoveryConstants.from_existence(2.449489742783178, 0.08333333333333334,
                                              1e-6, 1).nu
        direct = controller_recovery([[0.5]], [[1.0]], nu)
        assert summary["nu"] == nu
        assert summary["sdp_iterations"] == direct.sdp_iterations >= 1
        assert summary["sdp_violation"] == direct.sdp_violation <= 1e-9
        assert summary["sdp_affine_residual"] == direct.sdp_affine_residual <= 1e-9

    @pytest.mark.parametrize("subcommand,cfg,phase", [
        # Sigma_xx = 4 Sigma_xx + 1 has no PSD solution
        ("recover", {**CONFIGS["recover"], "A_hat": [[2.0]], "B_hat": [[0.0]]},
         None),
        # tr(Sigma) >= Sigma_xx >= 1 exceeds nu: raised from PhaseError("recover")
        ("pipeline", _replaced(PIPELINE_CFG, "overrides.nu", 0.5), "recover"),
    ])
    def test_sdp_rejection_names_its_reason(self, tmp_path, capsys, subcommand,
                                            cfg, phase):
        out = tmp_path / "o"
        assert main([subcommand, "--config", _write_config(tmp_path, "cfg.json", cfg),
                     "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["kind"], err["phase"], err["reason"]) \
            == ("runtime", phase, "certificate")
        assert not out.exists()


# a plant whose prior makes gamma' < 2 eps kappa'^2 at eps = 1e-3: the worst-
# case nu, kappa~ and gamma~ do not exist, and neither run reads them
_NO_EXISTENCE = {"seed": 2, "plant": {"kind": "explicit", "A": [[0.5, 0.1], [0, 0.4]],
                                      "B": [[1], [0.5]]},
                 "prior": {"k": 2, "kappa": 2, "beta": 6}}
_NO_EXISTENCE_RUNS = {
    "sysid": {**_NO_EXISTENCE, "experiment": "sysid", "overrides": {"eps": 1e-3}},
    "pipeline": {**_NO_EXISTENCE, "experiment": "pipeline", "horizon": 2000,
                 "overrides": {"eps": 1e-3, "nu": 200},
                 "options": {"use_certified_stability": True}},
}


class TestConstantsARunReads:
    """A run resolves and checks only the phase constants its phases read."""

    @staticmethod
    def _summary(tmp_path, cfg):
        out = tmp_path / cfg["experiment"]
        assert main([cfg["experiment"], "--config",
                     _write_config(tmp_path, "cfg.json", cfg), "--out", str(out)]) == 0
        return json.loads(_read(out / "summary.json"))

    def test_sysid_reads_eps_lam_and_eps0_only(self, tmp_path):
        # it exited 2 with "overrides.eps: gamma' must exceed 2 eps kappa'^2"
        summary = self._summary(tmp_path, _NO_EXISTENCE_RUNS["sysid"])
        assert (summary["eps"], summary["lam"]) == (1e-3, 48.0)
        assert summary["estimate_error_A"] <= 1e-3
        assert summary["estimate_error_B"] <= 1e-3

    def test_certified_pipeline_reads_the_certified_chain(self, tmp_path):
        summary = self._summary(tmp_path, _NO_EXISTENCE_RUNS["pipeline"])
        used = summary["stability_used"]
        assert used["source"] == "certified"
        assert used["kappa"] == pytest.approx(7.04, abs=5e-3)
        assert used["gamma"] == pytest.approx(0.237, abs=5e-4)
        assert summary["constants"]["H"] == 155
        assert summary["constants"]["nu"] == 200.0
        assert summary["estimate_error_A"] <= 1e-3 and summary["gpc_steps"] > 0

    @pytest.mark.parametrize("subcommand", sorted(_NO_EXISTENCE_RUNS))
    def test_runs_without_from_existence(self, tmp_path, monkeypatch, subcommand):
        def refuse(*args):
            raise AssertionError("from_existence called")

        monkeypatch.setattr(RecoveryConstants, "from_existence", staticmethod(refuse))
        self._summary(tmp_path, _NO_EXISTENCE_RUNS[subcommand])


class TestModuleEntryPoint:
    def test_python_m_runs_the_cli_from_a_checkout(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        run = subprocess.run([sys.executable, "-m", "blackbox_lds", "--help"],
                             cwd=tmp_path, env=env, capture_output=True, text=True,
                             timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("usage: blackbox-lds")
        assert cli._EXIT_CODES in cli.__doc__
        assert run.stdout.endswith(cli._EXIT_CODES)
        cfg = _write_config(tmp_path, "cfg.json", {
            "experiment": "recover", "A_hat": [[0.5]], "B_hat": [[1.0]],
            "eps": 1e-6, "kappa_prime": 2.0, "gamma_prime": 0.2})
        run = subprocess.run([sys.executable, "-m", "blackbox_lds", "recover",
                              "--config", cfg, "--out", "o"], cwd=tmp_path, env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert json.loads(_read(tmp_path / "o" / "summary.json"))["experiment"] \
            == "recover"


def _recover_draw0_config():
    # draw 0 of perfbench's _random_pair(np.random.default_rng(7)): d_x = 16,
    # d_u = 3, spectral radius 1.1, ||B|| = 1
    rng = np.random.default_rng(7)
    d_x, d_u = int(rng.integers(8, 17)), int(rng.integers(2, 5))
    A = rng.normal(size=(d_x, d_x))
    A *= 1.1 / max(abs(np.linalg.eigvals(A)))
    B = rng.normal(size=(d_x, d_u))
    B /= np.linalg.norm(B, 2)
    return {"experiment": "recover", "A_hat": A.tolist(), "B_hat": B.tolist(),
            "eps": 1e-3, "kappa_prime": 3.0, "gamma_prime": 1.0 / 18.0}


class TestBlasThreads:
    """The same config gives the same bytes under 1 and 2 BLAS threads, run
    as `python -m blackbox_lds` in fresh processes (the thread count is read
    when numpy loads)."""

    @staticmethod
    def _digests(tmp_path, cfg, threads):
        config = _write_config(tmp_path, "cfg.json", cfg)
        out = tmp_path / f"threads{threads}"
        n = str(threads)
        env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": n,
               "OMP_NUM_THREADS": n, "MKL_NUM_THREADS": n}
        run = subprocess.run([sys.executable, "-m", "blackbox_lds", cfg["experiment"],
                              "--config", config, "--out", str(out)], env=env,
                             capture_output=True, text=True, timeout=600)
        assert run.returncode == 0, run.stdout + run.stderr
        return {name: hashlib.sha256(_read(out / name)).hexdigest()
                for name in ("steps.csv", "summary.json")}

    @pytest.mark.parametrize("cfg", [
        pytest.param({"experiment": "lowerbound-rand", "d_x": 800, "seed": 3,
                      "controller": "certainty_equivalent"}, id="lowerbound-rand-800"),
        pytest.param({"experiment": "lowerbound-det", "d_x": 200,
                      "controller": "zero"}, id="lowerbound-det-200"),
        pytest.param(_replaced(_replaced(RANDOM_PLANT_CFG, "horizon", 2500),
                               "overrides.H", 20), id="pipeline-2d"),
        pytest.param(_recover_draw0_config(), id="recover-16", marks=pytest.mark.xfail(
            strict=True, reason="AffineProjector inverts a 136x136 matrix, whose "
            "bits depend on the BLAS thread count (ROADMAP item 2 removes it)")),
    ])
    def test_one_and_two_threads_write_the_same_bytes(self, tmp_path, cfg):
        assert self._digests(tmp_path, cfg, 1) == self._digests(tmp_path, cfg, 2)
