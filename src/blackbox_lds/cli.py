"""Experiment runner CLI.

    blackbox-lds <subcommand> --config cfg.json [--set key=value]...
                 [--seed S] [--out DIR] [--trials N]

Set BLACKBOX_LDS_VERBOSE=1 to log progress to stderr (logger "blackbox_lds").

Subcommands: sysid | recover | pipeline | lowerbound-rand | lowerbound-det.
Every run writes a step-level CSV (t, phase, state_norm, control_norm, cost,
cumulative_cost) and a JSON summary with the constants used, phase costs,
regret in simulation mode, certificates, and the seed. pipeline and sysid
set phase constants in overrides (sysid's eps too) and check only those
their phases read. A pipeline summary's constants_provenance gives each
constant's source: "default", "override", "derived-from-override", and on
the certified path "certified" (kappa_tilde and gamma_tilde, superseding
their overrides) and "derived-from-certificate". Identical config + seed
produces byte-identical outputs.

exit codes:
  0  success
  2  config error (a wrong key, type, shape or range): prints
     {"error": {"kind": "config", "path": ...}} and writes nothing
  1  runtime or phase error, such as horizon <= T1 or a non-finite output:
     prints {"error": {"kind": "runtime", "phase": ..., "reason": ...}},
     reason naming the rule of a phase-2 rejection (else null)
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import sys
import traceback
from types import SimpleNamespace

import numpy as np

from . import lowerbound as lb
from .errors import (
    BlackBoxControlError,
    ConfigError,
    DimensionMismatchError,
    NonFiniteValueError,
    SdpInfeasibleError,
)
from .lds import (
    ClippedGaussianDisturbance,
    CostFunction,
    LinearSystem,
    PriorBounds,
    RunLog,
    SignAdversarialDisturbance,
    SinusoidalDisturbance,
    ZeroDisturbance,
)
from .pipeline import identify, run_pipeline
from .plant import BlackBoxPlant
from .stabilize import RecoveryConstants, controller_recovery

log = logging.getLogger("blackbox_lds")

# the --help epilog: the docstring's last paragraph
_EXIT_CODES = "exit codes:" + (__doc__ or "").partition("exit codes:")[2]


@contextlib.contextmanager
def _verbose_to_stderr():
    """While a main() call runs, send the package's INFO records to stderr
    if BLACKBOX_LDS_VERBOSE is set to anything but "" or "0"."""
    if os.environ.get("BLACKBOX_LDS_VERBOSE", "") in ("", "0"):
        yield
        return
    handler = logging.StreamHandler(sys.stderr)
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        yield
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


# -- config pass --------------------------------------------------------------
# the keys an object may hold, by its "kind"
_PLANT_KEYS = {"explicit": {"kind", "A", "B", "x1"},
               "random": {"kind", "d_x", "d_u", "spectral_radius", "seed"}}
_DIST_KEYS = dict.fromkeys(("zero", "clipped_gaussian", "sinusoidal",
                            "sign_adversarial"),
                           {"kind", "scale", "omega", "amplitude", "phases"})
_COST_KEYS = dict.fromkeys(("quadratic", "weighted_quadratic"), {"kind", "Q", "R"})


def _require(cond, path, msg):
    if not cond:
        raise ConfigError(path, msg)


@contextlib.contextmanager
def _under(path):
    """Re-raise a constructor's ConfigError or DimensionMismatchError as a
    ConfigError at path.format(the field it names). Check the constructor's
    arguments before the block: their own errors would be prefixed twice."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(path.format(exc.path), exc.message) from exc
    except DimensionMismatchError as exc:
        raise ConfigError(path.format(exc.operand), str(exc)) from exc


def _require_object(obj, path, keys):
    """obj is a JSON object with no key outside keys; keys given as a dict
    map each allowed "kind" to the keys of that kind."""
    if isinstance(keys, dict):
        _require(isinstance(obj, dict) and "kind" in obj, path,
                 "must be an object with a 'kind'")
        _require(isinstance(obj["kind"], str) and obj["kind"] in keys,
                 f"{path}.kind", f"must be one of {sorted(keys)}")
        keys = keys[obj["kind"]]
    else:
        _require(isinstance(obj, dict), path, "must be an object")
    for key in obj:
        _require(key in keys, f"{path}.{key}", "unknown key")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value, least) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


# the value at path's last key of obj, or default if obj has no such key
def _number(obj, path, default=None):
    value = obj.get(path.rpartition(".")[2], default)
    _require(_is_number(value), path, "must be a number")
    return value


def _count(obj, path, default=None) -> int:
    value = obj.get(path.rpartition(".")[2], default)
    _require(_is_int(value, 1), path, "must be a positive integer")
    return value


def _seed(value, path="seed") -> int:
    _require(_is_int(value, 0), path, "must be a non-negative integer")
    return value


def _array(value, path, ndim=None) -> np.ndarray:
    """value as a float array: a JSON list of numbers (ndim 1) or a list of
    equal-length such lists (ndim 2; None takes either, for a B whose flat
    form is one input). Its shape is the constructors' to check."""
    if ndim is None:
        ndim = 2 if isinstance(value, list) and value and isinstance(value[0], list) else 1
    rows = value if ndim == 2 else [value]
    _require(isinstance(value, list)
             and all(isinstance(row, list) and all(map(_is_number, row))
                     for row in rows)
             and len({len(row) for row in rows}) <= 1, path,
             "must be a list of numbers" if ndim == 1 else
             "must be a matrix as nested lists of numbers")
    return np.array(value, dtype=float)


def _system(p, seed) -> tuple:
    """(LinearSystem, x1) of a plant object."""
    _require_object(p, "plant", _PLANT_KEYS)
    if p["kind"] == "explicit":
        A, B = _array(p.get("A"), "plant.A", 2), _array(p.get("B"), "plant.B")
        with _under("plant.{}"):
            system = LinearSystem(A, B)
        return system, (_array(p["x1"], "plant.x1", 1) if "x1" in p
                        else np.zeros(system.d_x))
    d_x, d_u = _count(p, "plant.d_x"), _count(p, "plant.d_u")
    radius = _number(p, "plant.spectral_radius", 0.9)
    _require(math.isfinite(radius) and radius >= 0, "plant.spectral_radius",
             "must be finite and >= 0")
    rng = np.random.default_rng(_seed(p.get("seed", seed), "plant.seed"))
    A = rng.normal(size=(d_x, d_x))
    rho = max(abs(np.linalg.eigvals(A)))
    if rho > 0:
        A *= radius / rho
    B = rng.normal(size=(d_x, d_u))
    B /= max(np.linalg.norm(B, 2), 1e-12)
    return LinearSystem(A, B), np.zeros(d_x)


def _disturbance(d, d_x, seed):
    _require_object(d, "disturbance", _DIST_KEYS)
    for key in ("scale", "omega", "amplitude"):
        if key in d:
            _number(d, f"disturbance.{key}")
    phases = d.get("phases")
    if "phases" in d and not _is_number(phases):
        phases = _array(phases, "disturbance.phases", 1)
    with _under("disturbance.{}"):
        if d["kind"] == "clipped_gaussian":
            return ClippedGaussianDisturbance(d_x, scale=d.get("scale", 0.5), seed=seed)
        if d["kind"] == "sinusoidal":
            return SinusoidalDisturbance(d_x, omega=d.get("omega", 0.2), phases=phases,
                                         amplitude=d.get("amplitude", 1.0))
        if d["kind"] == "sign_adversarial":
            return SignAdversarialDisturbance(scale=d.get("scale", 1.0))
    return ZeroDisturbance()


def _cost(c, d_x, d_u):
    _require_object(c, "cost", _COST_KEYS)
    if c["kind"] == "quadratic":
        return CostFunction.quadratic()
    Q, R = _array(c.get("Q"), "cost.Q", 2), _array(c.get("R"), "cost.R", 2)
    for key, m, dim in (("Q", Q, d_x), ("R", R, d_u)):
        _require(m.shape == (dim, dim), f"cost.{key}", f"must be a {dim}x{dim} matrix")
    return CostFunction.weighted_quadratic(Q, R)


def _plant_experiment(cfg, seed) -> dict:
    """pipeline's and sysid's plant, system, prior and overrides."""
    system, x1 = _system(cfg["plant"], seed)
    dist = _disturbance(cfg.get("disturbance", {"kind": "zero"}), system.d_x, seed)
    cost = _cost(cfg.get("cost", {"kind": "quadratic"}), system.d_x, system.d_u)
    with _under("plant.{}"):
        plant = BlackBoxPlant(system, dist, cost, x1, seed=seed)
    p = cfg["prior"]
    _require_object(p, "prior", {"k", "kappa", "beta"})
    k = _count(p, "prior.k")
    kappa, beta = _number(p, "prior.kappa"), _number(p, "prior.beta")
    with _under("prior.{}"):
        prior = PriorBounds(k=k, kappa=kappa, beta=beta)
    overrides = cfg.get("overrides", {})
    _require(isinstance(overrides, dict), "overrides", "must be an object")
    for key in overrides:
        _number(overrides, f"overrides.{key}")
    return {"plant": plant, "system": system, "prior": prior, "overrides": overrides}


@contextlib.contextmanager
def _constants_of(exp):
    """A phase constant's ConfigError (raised before round 1) at overrides.
    <name> if its override failed, else as the run's: a derived value did."""
    try:
        yield
    except ConfigError as exc:
        if exc.path not in exp.overrides:
            raise ValueError(str(exc)) from exc
        raise ConfigError(f"overrides.{exc.path}", exc.message) from exc


def _parse_pipeline(cfg, seed) -> dict:
    options = cfg.get("options", {})  # run_pipeline's keyword arguments
    _require_object(options, "options", {"use_certified_stability", "reidentify",
                                         "comparator_iters"})
    for key in ("use_certified_stability", "reidentify"):
        _require(isinstance(options.get(key, False), bool), f"options.{key}",
                 "must be true or false")
    _count(options, "options.comparator_iters", 1)
    horizon = _count(cfg, "horizon")
    return {**_plant_experiment(cfg, seed), "horizon": horizon, "options": options}


def _parse_recover(cfg, seed) -> dict:
    A, B = _array(cfg["A_hat"], "A_hat", 2), _array(cfg["B_hat"], "B_hat")
    with _under("{}_hat"):
        system = LinearSystem(A, B)
    kappa_prime, gamma_prime, eps = (float(_number(cfg, key)) for key in
                                     ("kappa_prime", "gamma_prime", "eps"))
    return {"system": system, "recovery": RecoveryConstants.from_existence(
        kappa_prime, gamma_prime, eps, system.d_x)}


def _parse_lowerbound(cfg, seed) -> dict:
    # d_x's and gamma's ranges are the harnesses' to check
    name = cfg.get("controller", "zero")
    _require(isinstance(name, str) and name in lb.BUILTIN_CONTROLLERS, "controller",
             f"must be one of {sorted(lb.BUILTIN_CONTROLLERS)}")
    return {"d_x": _count(cfg, "d_x"), "controller": name,
            "factory": lb.BUILTIN_CONTROLLERS[name],
            "gamma": float(_number(cfg, "gamma", 40.0))}  # lowerbound-rand's


# subcommand: (required keys, other keys besides "experiment" and "seed", parser)
_SCHEMAS = {
    "pipeline": ({"plant", "prior", "horizon"},
                 {"disturbance", "cost", "overrides", "options"}, _parse_pipeline),
    "sysid": ({"plant", "prior"}, {"disturbance", "cost", "overrides"},
              _plant_experiment),
    "recover": ({"A_hat", "B_hat", "eps", "kappa_prime", "gamma_prime"}, set(),
                _parse_recover),
    "lowerbound-rand": ({"d_x"}, {"gamma", "controller"}, _parse_lowerbound),
    "lowerbound-det": ({"d_x"}, {"controller"}, _parse_lowerbound),
}


def parse_config(subcommand: str, cfg) -> SimpleNamespace:
    """Check cfg against subcommand's schema and build, as it goes, the
    objects its runner uses, held by name with the subcommand, the seed
    (None if cfg has none) and cfg itself. Keys, kinds and JSON types are
    checked here (a number is a non-bool int or float, a seed a non-bool
    int >= 0); shapes and ranges only by the constructors, whose errors
    _under reports under the object's path. Raises ConfigError naming the
    field; nothing runs."""
    _require(subcommand in _SCHEMAS, "experiment", f"unknown subcommand {subcommand}")
    required, optional, parse = _SCHEMAS[subcommand]
    _require(isinstance(cfg, dict), "$", "config must be a JSON object")
    if "experiment" in cfg:
        _require(cfg["experiment"] == subcommand, "experiment",
                 f"config says {cfg['experiment']!r} but subcommand is {subcommand!r}")
    for key in cfg:
        _require(key in required | optional | {"experiment", "seed"}, key,
                 "unknown key")
    for key in sorted(required):
        _require(key in cfg, key, "missing required key")
    _require("seed" in cfg or subcommand not in {"pipeline", "sysid", "lowerbound-rand"},
             "seed", "a seed is mandatory for randomized experiments")
    seed = _seed(cfg["seed"]) if "seed" in cfg else None
    return SimpleNamespace(subcommand=subcommand, seed=seed, config=cfg,
                           **parse(cfg, seed))


# -- serialization ------------------------------------------------------------

def _jsonable(obj):
    """Floats become round-trip-exact; numpy values become plain lists."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _json_text(payload) -> str:
    """payload as sorted, indented JSON text. A NaN or an infinity, which
    JSON cannot hold, raises NonFiniteValueError naming its field."""
    payload = _jsonable(payload)
    try:
        return json.dumps(payload, sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
    except ValueError:
        _name_non_finite(payload, "summary")
        raise


def _name_non_finite(obj, path):
    if isinstance(obj, dict):
        for key, value in obj.items():
            _name_non_finite(value, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            _name_non_finite(value, f"{path}[{i}]")
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise NonFiniteValueError(path)


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


_CSV_COLUMNS = ("t", "phase", "state_norm", "control_norm", "cost",
                "cumulative_cost")


def _csv_text(log) -> str:
    """steps.csv of a RunLog: one row per round with the norms of x_t and
    u_t, the cost and the running cost. The earliest round with a NaN or an
    infinity raises NonFiniteValueError naming its column."""
    lines = [",".join(_CSV_COLUMNS)]
    running = 0.0
    rounds = zip(log.phases, log.states(), log.controls(), log.costs().tolist())
    for t, (phase, x, u, c) in enumerate(rounds, 1):
        running += c
        numbers = (float(np.linalg.norm(x)), float(np.linalg.norm(u)), c, running)
        for column, value in zip(_CSV_COLUMNS[2:], numbers):
            if not math.isfinite(value):
                raise NonFiniteValueError(f"steps.{column}", t)
        lines.append(f"{t},{phase}," + ",".join(format(v, ".17g") for v in numbers))
    return "\n".join(lines) + "\n"


def _comparator_fields(comparator):
    """summary.json's comparator fields, all None outside simulation mode.
    The projected-gradient norm is None when no step was ever accepted
    (the comparator reports it as inf)."""
    if comparator is None:
        return dict.fromkeys(("comparator_cost", "comparator_converged",
                              "comparator_iterations", "comparator_grad_norm"))
    grad_norm = comparator.grad_norm
    return {
        "comparator_cost": comparator.cost,
        "comparator_converged": comparator.converged,
        "comparator_iterations": comparator.iterations,
        "comparator_grad_norm": grad_norm if math.isfinite(grad_norm) else None,
    }


# -- experiments --------------------------------------------------------------
# Each runner takes the parsed experiment and returns its RunLog (recover,
# which plays no round, an empty one) and its own summary fields; dispatch
# writes steps.csv and summary.json, whose total_cost is the log's.

def _run_pipeline_experiment(exp):
    with _constants_of(exp):
        report = run_pipeline(exp.plant, exp.prior, exp.horizon,
                              overrides=exp.overrides, seed=exp.seed, **exp.options)
    def error(estimate, truth):
        return float(np.linalg.norm(estimate - truth, 2))

    gpc_A, gpc_B = report.gpc_model
    return report.log, {
        "constants": report.constants.as_dict(),
        "constants_provenance": report.constants.provenance,
        "stability_used": report.stability_used,
        "phase_costs": report.phase_costs,
        "regret": report.regret_value,
        **_comparator_fields(report.comparator),
        "A_hat": report.estimates.A_hat,
        "B_hat": report.estimates.B_hat,
        "estimate_error_A": error(report.estimates.A_hat, exp.system.A),
        "estimate_error_B": error(report.estimates.B_hat, exp.system.B),
        # the pair phase 3 ran on: phase 1's, or the re-identified one
        "gpc_A_hat": gpc_A,
        "gpc_B_hat": gpc_B,
        "gpc_estimate_error_A": error(gpc_A, exp.system.A),
        "gpc_estimate_error_B": error(gpc_B, exp.system.B),
        "K": report.recovery.K,
        "sdp_witness_norm_L": report.recovery.norm_L,
        "sdp_iterations": report.recovery.sdp_iterations,
        "sdp_violation": report.recovery.sdp_violation,
        "sdp_affine_residual": report.recovery.sdp_affine_residual,
        "nu": report.constants.nu,
        "decay_steps": report.decay_steps,
        "gpc_steps": report.gpc_steps,
        "gpc_projection_active_rounds": report.gpc_result.projection_active_rounds,
        "x_after_sysid_norm": report.x_after_sysid_norm,
        "x_after_decay_norm": report.x_after_decay_norm,
    }


def _run_sysid_experiment(exp):
    with _constants_of(exp):
        bundle, cst = identify(exp.plant, exp.prior, exp.overrides)
    return exp.plant.log, {
        "eps": cst.eps,
        "lam": cst.lam,
        "A_hat": bundle.A_hat,
        "B_hat": bundle.B_hat,
        "estimate_error_A": float(np.linalg.norm(bundle.A_hat - exp.system.A, 2)),
        "estimate_error_B": float(np.linalg.norm(bundle.B_hat - exp.system.B, 2)),
        "x_final_norm": float(np.linalg.norm(bundle.x_final)),
    }


def _run_recover_experiment(exp):
    A_hat, B_hat, rc = exp.system.A, exp.system.B, exp.recovery
    result = controller_recovery(A_hat, B_hat, rc.nu)
    closed = A_hat + B_hat @ result.K
    return RunLog(exp.system.d_x, exp.system.d_u), {
        "K": result.K,
        "nu": rc.nu,
        "kappa_tilde": rc.kappa_tilde,
        "gamma_tilde": rc.gamma_tilde,
        "witness_norm_L": result.norm_L,
        "sdp_iterations": result.sdp_iterations,
        "sdp_violation": result.sdp_violation,
        "sdp_affine_residual": result.sdp_affine_residual,
        "kappa_certified": result.witness.kappa,
        "gamma_certified": result.witness.gamma,
        "closed_loop_spectral_radius": float(max(abs(np.linalg.eigvals(closed)))),
    }


def _run_lowerbound_rand(exp):
    transcript = lb.randomized_lb_trial(exp.factory, exp.d_x, gamma=exp.gamma,
                                        seed=exp.seed)
    return transcript.log, {
        "d_x": transcript.d_x,
        "gamma": transcript.gamma,
        "controller": exp.controller,
        "steps": len(transcript.log),
        "h_sq": transcript.h_sq,
        "all_doubled": transcript.all_doubled,
        "final_state_norm": transcript.final_state_norm,
        "final_state_sq_threshold": 2.0 ** (len(transcript.log) - 1),
        "system_spectral_norm": transcript.system_norm,
        "system_norm_threshold": 3.0 * math.sqrt(transcript.gamma),
    }


def _run_lowerbound_det(exp):
    transcript = lb.deterministic_adversary(exp.factory, exp.d_x)
    return transcript.log, {
        "d_x": transcript.d_x,
        "controller": exp.controller,
        "final_state_norm": transcript.final_state_norm,
        "growth_threshold": 2.0 ** (transcript.d_x - 1),
        "system_spectral_norm": transcript.system_norm,
        "c_diag": [float(v) for v in transcript.c_diag],
        "d_signs": [float(v) for v in transcript.d_signs],
    }


_RUNNERS = {
    "pipeline": _run_pipeline_experiment,
    "sysid": _run_sysid_experiment,
    "recover": _run_recover_experiment,
    "lowerbound-rand": _run_lowerbound_rand,
    "lowerbound-det": _run_lowerbound_det,
}


def dispatch(subcommand: str, cfg: dict, out_dir: str) -> None:
    """Parse and run one experiment, writing steps.csv and summary.json.

    Every number of both files is checked to be finite before either is
    written: a NaN or an infinity raises NonFiniteValueError naming the
    field, and nothing is written. A failed run's frames drop their locals
    before its error propagates, so an error the caller keeps (in a cycle
    with its traceback) does not hold the run's arrays on the heap."""
    try:
        _execute(parse_config(subcommand, cfg), out_dir)
    except BaseException as exc:
        traceback.clear_frames(exc.__traceback__)
        raise


def _execute(exp, out_dir: str) -> None:
    log.info(f"running {exp.subcommand} -> {out_dir}")
    run_log, summary = _RUNNERS[exp.subcommand](exp)
    csv_text = _csv_text(run_log)
    summary.update(experiment=exp.subcommand, seed=exp.seed, config=exp.config,
                   total_cost=run_log.cumulative_cost,
                   cumulative_cost=run_log.cumulative_cost)
    json_text = _json_text(summary)
    os.makedirs(out_dir, exist_ok=True)
    _write_text(os.path.join(out_dir, "steps.csv"), csv_text)
    _write_text(os.path.join(out_dir, "summary.json"), json_text)


# -- argument handling --------------------------------------------------------

def _parse_set(expr: str):
    if "=" not in expr:
        raise ConfigError("--set", f"expected key=value, got {expr!r}")
    key, raw = expr.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def _apply_set(cfg: dict, key: str, value):
    parts = key.split(".")
    node = cfg
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(key, "path traverses a non-object")
    node[parts[-1]] = value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blackbox-lds",
        description="Black-box LTI control experiments: identification, "
                    "controller recovery, full pipeline, and lower-bound attacks.",
        epilog=_EXIT_CODES, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("subcommand", choices=sorted(_SCHEMAS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config entry (dot paths allowed)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--trials", type=int, default=1,
                        help="run N independent trials with seeds S, S+1, ...")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with _verbose_to_stderr():
        return _run(args)


def _run(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": {"kind": "config", "path": args.config,
                                    "message": str(exc)}}, sort_keys=True))
        return 2
    try:
        _require(isinstance(cfg, dict), "$", "config must be a JSON object")
        for expr in args.set:
            key, value = _parse_set(expr)
            _apply_set(cfg, key, value)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.trials < 1:
            raise ConfigError("--trials", "must be >= 1")
        if args.trials == 1:
            runs = [(args.out, cfg)]
        else:
            base_seed = _seed(cfg.get("seed", 0))
            runs = [(os.path.join(args.out, f"trial_{i:04d}"),
                     {**json.loads(json.dumps(cfg)), "seed": base_seed + i})
                    for i in range(args.trials)]
        # all trials parsed before any runs, then run serially: on 2 cores a
        # thread pool ran d_x = 800 lowerbound-rand trials 3-5x slower
        # (GIL-bound rounds against multithreaded BLAS), pipeline no faster
        experiments = [(out, parse_config(args.subcommand, trial_cfg))
                       for out, trial_cfg in runs]
        for out, exp in experiments:
            _execute(exp, out)
        if args.trials > 1:
            _write_text(os.path.join(args.out, "trials.json"),
                        _json_text({"trials": args.trials, "base_seed": base_seed,
                                    "dirs": [out for out, _ in runs]}))
    except ConfigError as exc:
        print(json.dumps({"error": {"kind": "config", "path": exc.path,
                                    "message": str(exc)}}, sort_keys=True))
        return 2
    except (BlackBoxControlError, ValueError) as exc:
        # run_pipeline raises a phase-2 rejection as PhaseError("recover")
        # from it, so its reason is read from the cause too
        rejection = exc if isinstance(exc, SdpInfeasibleError) else exc.__cause__
        reason = rejection.reason if isinstance(rejection, SdpInfeasibleError) else None
        print(json.dumps({"error": {"kind": "runtime",
                                    "phase": getattr(exc, "phase", None),
                                    "reason": reason,
                                    "message": str(exc)}}, sort_keys=True))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
