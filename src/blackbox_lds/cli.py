"""Experiment runner CLI.

    blackbox-lds <subcommand> --config cfg.json [--set key=value]...
                 [--seed S] [--out DIR] [--trials N]

Set BLACKBOX_LDS_VERBOSE=1 to log progress to stderr (logger "blackbox_lds").

Subcommands: sysid | recover | pipeline | lowerbound-rand | lowerbound-det.
Every run writes a step-level CSV (t, phase, state_norm, control_norm, cost,
cumulative_cost) and a JSON summary with the constants used (override
provenance included), phase costs, regret in simulation mode, certificates,
and the seed. Identical config + seed produces byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import sys

import numpy as np

from . import lowerbound as lb
from .errors import BlackBoxControlError, ConfigError, NonFiniteValueError
from .lds import (
    ClippedGaussianDisturbance,
    CostFunction,
    LinearSystem,
    PriorBounds,
    SignAdversarialDisturbance,
    SinusoidalDisturbance,
    ZeroDisturbance,
)
from .pipeline import derive_constants, run_pipeline
from .plant import BlackBoxPlant
from .stabilize import controller_recovery
from .sysid import adv_sys_id, probe_horizon

log = logging.getLogger("blackbox_lds")


def _say(msg):
    log.info(msg)


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


# -- config schema ------------------------------------------------------------

# the keys an object may hold, by its "kind"
_PLANT_KEYS = {"explicit": {"kind", "A", "B", "x1"},
               "random": {"kind", "d_x", "d_u", "spectral_radius", "seed"}}
_DIST_KEYS = dict.fromkeys(("zero", "clipped_gaussian", "sinusoidal",
                            "sign_adversarial"),
                           {"kind", "scale", "omega", "amplitude", "phases"})
_COST_KEYS = dict.fromkeys(("quadratic", "weighted_quadratic"), {"kind", "Q", "R"})

_SCHEMAS = {
    "pipeline": {
        "required": {"plant", "prior", "horizon"},
        "optional": {"experiment", "seed", "disturbance", "cost", "overrides",
                     "options"},
    },
    "sysid": {
        "required": {"plant", "prior"},
        "optional": {"experiment", "seed", "disturbance", "cost", "eps",
                     "overrides"},
    },
    "recover": {
        "required": {"A_hat", "B_hat", "eps", "kappa_prime", "gamma_prime"},
        "optional": {"experiment", "seed"},
    },
    "lowerbound-rand": {
        "required": {"d_x"},
        "optional": {"experiment", "seed", "gamma", "controller"},
    },
    "lowerbound-det": {
        "required": {"d_x"},
        "optional": {"experiment", "seed", "controller"},
    },
}


def _require(cond, path, msg):
    if not cond:
        raise ConfigError(path, msg)


def _require_object(obj, path, keys):
    """obj is a JSON object with no key outside keys; keys given as a dict
    map each allowed "kind" to the keys of that kind."""
    if isinstance(keys, dict):
        _require(isinstance(obj, dict) and "kind" in obj, path,
                 "must be an object with a 'kind'")
        _require(obj["kind"] in keys, f"{path}.kind", f"must be one of {sorted(keys)}")
        keys = keys[obj["kind"]]
    else:
        _require(isinstance(obj, dict), path, "must be an object")
    for key in obj:
        _require(key in keys, f"{path}.{key}", "unknown key")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def validate_config(subcommand: str, cfg: dict) -> dict:
    _require(subcommand in _SCHEMAS, "experiment", f"unknown subcommand {subcommand}")
    schema = _SCHEMAS[subcommand]
    _require(isinstance(cfg, dict), "$", "config must be a JSON object")
    if "experiment" in cfg:
        _require(cfg["experiment"] == subcommand, "experiment",
                 f"config says {cfg['experiment']!r} but subcommand is {subcommand!r}")
    allowed = schema["required"] | schema["optional"]
    for key in cfg:
        _require(key in allowed, key, "unknown key")
    for key in schema["required"]:
        _require(key in cfg, key, "missing required key")
    if "plant" in cfg:  # every schema with a disturbance or a cost has one
        d_x, d_u = _validate_plant(cfg["plant"])
    if "prior" in cfg:
        p = cfg["prior"]
        _require_object(p, "prior", {"k", "kappa", "beta"})
        for key in ("k", "kappa", "beta"):
            _require(key in p, f"prior.{key}", "missing required key")
        _require(_is_count(p["k"]), "prior.k", "must be a positive integer")
        for key in ("kappa", "beta"):
            _require(_is_number(p[key]), f"prior.{key}", "must be a number")
    if "horizon" in cfg:
        _require(_is_count(cfg["horizon"]), "horizon", "must be a positive integer")
    if "disturbance" in cfg:
        d = cfg["disturbance"]
        _require_object(d, "disturbance", _DIST_KEYS)
        for key in ("scale", "omega", "amplitude"):
            _require(_is_number(d.get(key, 0.0)), f"disturbance.{key}",
                     "must be a number")
        _require(_is_number(d.get("phases", 0.0))
                 or _is_vector(d["phases"], d_x), "disturbance.phases",
                 f"must be a number or a list of {d_x} numbers")
    if "cost" in cfg:
        _validate_cost(cfg["cost"], d_x, d_u)
    if "overrides" in cfg:
        _require(isinstance(cfg["overrides"], dict), "overrides",
                 "must be an object")
        from .pipeline import _DERIVABLE
        for key, value in cfg["overrides"].items():
            _require(key in _DERIVABLE, f"overrides.{key}",
                     f"unknown constant (expected one of {sorted(_DERIVABLE)})")
            _require(_is_number(value), f"overrides.{key}", "must be a number")
    if "options" in cfg:
        o = cfg["options"]  # run_pipeline's keyword arguments
        _require_object(o, "options", {"use_certified_stability", "reidentify",
                                       "comparator_iters"})
        for key in ("use_certified_stability", "reidentify"):
            _require(isinstance(o.get(key, False), bool), f"options.{key}",
                     "must be true or false")
        _require(_is_count(o.get("comparator_iters", 1)), "options.comparator_iters",
                 "must be a positive integer")
    if subcommand == "recover":
        _system_shape(cfg["A_hat"], cfg["B_hat"], "A_hat", "B_hat")
    for key in ("eps", "kappa_prime", "gamma_prime", "gamma"):
        if key in cfg:
            _require(_is_number(cfg[key]), key, "must be a number")
    if "controller" in cfg:
        _require(cfg["controller"] in lb.BUILTIN_CONTROLLERS, "controller",
                 f"must be one of {sorted(lb.BUILTIN_CONTROLLERS)}")
    if "d_x" in cfg:
        _require(_is_count(cfg["d_x"]), "d_x", "must be a positive integer")
    if subcommand in {"pipeline", "sysid", "lowerbound-rand"}:
        _require("seed" in cfg and isinstance(cfg["seed"], int), "seed",
                 "a seed is mandatory for randomized experiments")
    return cfg


def _validate_plant(p) -> tuple:
    """(d_x, d_u) of a valid plant object."""
    _require_object(p, "plant", _PLANT_KEYS)
    if p["kind"] == "random":
        for key in ("d_x", "d_u"):
            _require(_is_count(p.get(key)), f"plant.{key}",
                     "must be a positive integer")
        return p["d_x"], p["d_u"]
    d_x, d_u = _system_shape(p.get("A"), p.get("B"), "plant.A", "plant.B")
    _require("x1" not in p or _is_vector(p["x1"], d_x), "plant.x1",
             f"must be a list of {d_x} numbers")
    return d_x, d_u


def _matrix_shape(value):
    """(rows, cols) of a non-empty matrix given as nested lists of numbers,
    else None."""
    if not (isinstance(value, list) and value
            and all(isinstance(row, list) and row for row in value)):
        return None
    cols = len(value[0])
    if not all(len(row) == cols and all(_is_number(v) for v in row)
               for row in value):
        return None
    return len(value), cols


def _is_vector(value, dim) -> bool:
    return (isinstance(value, list) and len(value) == dim
            and all(_is_number(v) for v in value))


def _system_shape(A, B, path_A, path_B) -> tuple:
    """(d_x, d_u) of an explicit pair: A is a d_x-by-d_x matrix of numbers,
    B a d_x-by-d_u one or, for a single input, a flat list of d_x numbers."""
    shape = _matrix_shape(A)
    _require(shape is not None and shape[0] == shape[1], path_A,
             "must be a square matrix as nested lists of numbers")
    d_x = shape[0]
    if _is_vector(B, d_x):
        return d_x, 1
    shape = _matrix_shape(B)
    _require(shape is not None and shape[0] == d_x, path_B,
             f"must be a matrix of {d_x} rows as nested lists of numbers, "
             f"or a list of {d_x} numbers")
    return shape


def _validate_cost(c, d_x, d_u):
    _require_object(c, "cost", _COST_KEYS)
    if c["kind"] != "weighted_quadratic":
        return
    for key, dim in (("Q", d_x), ("R", d_u)):
        _require(key in c, f"cost.{key}", "missing required key")
        _require(_matrix_shape(c[key]) == (dim, dim), f"cost.{key}",
                 f"must be a {dim}x{dim} matrix as nested lists of numbers")


# -- builders -----------------------------------------------------------------

def _build_system(p, seed):
    if p["kind"] == "explicit":
        return LinearSystem(np.array(p["A"], dtype=float),
                            np.array(p["B"], dtype=float)), \
            np.array(p.get("x1", np.zeros(len(p["A"]))), dtype=float)
    rng = np.random.default_rng(p.get("seed", seed))
    d_x, d_u = p["d_x"], p["d_u"]
    radius = float(p.get("spectral_radius", 0.9))
    A = rng.normal(size=(d_x, d_x))
    rho = max(abs(np.linalg.eigvals(A)))
    if rho > 0:
        A *= radius / rho
    B = rng.normal(size=(d_x, d_u))
    B /= max(np.linalg.norm(B, 2), 1e-12)
    return LinearSystem(A, B), np.zeros(d_x)


def _build_disturbance(d, d_x, seed):
    d = d or {"kind": "zero"}
    kind = d["kind"]
    if kind == "zero":
        return ZeroDisturbance()
    if kind == "clipped_gaussian":
        return ClippedGaussianDisturbance(d_x, scale=d.get("scale", 0.5), seed=seed)
    if kind == "sinusoidal":
        return SinusoidalDisturbance(d_x, omega=d.get("omega", 0.2),
                                     phases=d.get("phases"),
                                     amplitude=d.get("amplitude", 1.0))
    return SignAdversarialDisturbance(scale=d.get("scale", 1.0))


def _build_cost(c):
    c = c or {"kind": "quadratic"}
    if c["kind"] == "quadratic":
        return CostFunction.quadratic()
    return CostFunction.weighted_quadratic(np.array(c["Q"], dtype=float),
                                           np.array(c["R"], dtype=float))


# -- serialization ------------------------------------------------------------

def _g17(x) -> str:
    return format(float(x), ".17g")


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


def _csv_text(steps) -> tuple:
    """(steps.csv text, final running cost): one row per (t, phase, x, u,
    cost) step with the norms of x and u, the cost and the running cost. The
    earliest step with a NaN or an infinity raises NonFiniteValueError
    naming its column."""
    lines = [",".join(_CSV_COLUMNS)]
    running = 0.0
    for t, phase, x, u, c in steps:
        running += c
        numbers = (float(np.linalg.norm(x)), float(np.linalg.norm(u)), c, running)
        for column, value in zip(_CSV_COLUMNS[2:], numbers):
            if not math.isfinite(value):
                raise NonFiniteValueError(f"steps.{column}", t)
        lines.append(f"{t},{phase}," + ",".join(map(_g17, numbers)))
    lines.append("")
    return "\n".join(lines), running


def _log_steps(log):
    return zip(range(1, len(log) + 1), log.phases, log.states(),
               log.controls(), log.costs().tolist())


def _transcript_steps(transcript, phase):
    # the adversaries charge ||x||^2 + ||u||^2
    return ((s.t, phase, s.x, s.u, float(s.x @ s.x + s.u @ s.u))
            for s in transcript.steps)


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
# Each runner returns its (t, phase, x, u, cost) steps and its own summary
# fields; dispatch writes steps.csv and summary.json.

def _run_pipeline_experiment(cfg):
    seed = cfg["seed"]
    sys_true, x1 = _build_system(cfg["plant"], seed)
    dist = _build_disturbance(cfg.get("disturbance"), sys_true.d_x, seed)
    cost = _build_cost(cfg.get("cost"))
    prior = PriorBounds(**cfg["prior"])
    plant = BlackBoxPlant(sys_true, dist, cost, x1, seed=seed)
    report = run_pipeline(plant, prior, cfg["horizon"],
                          overrides=cfg.get("overrides"), seed=seed,
                          **cfg.get("options", {}))
    err_A = float(np.linalg.norm(report.estimates.A_hat - sys_true.A, 2))
    err_B = float(np.linalg.norm(report.estimates.B_hat - sys_true.B, 2))
    return _log_steps(report.log), {
        "constants": report.constants.as_dict(),
        "constants_provenance": report.constants.provenance,
        "stability_used": report.stability_used,
        "phase_costs": report.phase_costs,
        "total_cost": report.total_cost,
        "regret": report.regret_value,
        **_comparator_fields(report.comparator),
        "A_hat": report.estimates.A_hat,
        "B_hat": report.estimates.B_hat,
        "estimate_error_A": err_A,
        "estimate_error_B": err_B,
        "K": report.recovery.K,
        "sdp_witness_norm_L": report.recovery.norm_L,
        "sdp_iterations": report.recovery.sdp_iterations,
        "sdp_violation": report.recovery.sdp_violation,
        "sdp_affine_residual": report.recovery.sdp_affine_residual,
        "nu": report.recovery.constants.nu,
        "decay_steps": report.decay_steps,
        "gpc_steps": report.gpc_steps,
        "gpc_projection_active_rounds": report.gpc_result.projection_active_rounds,
        "x_after_sysid_norm": report.x_after_sysid_norm,
        "x_after_decay_norm": report.x_after_decay_norm,
    }


def _run_sysid_experiment(cfg):
    seed = cfg["seed"]
    sys_true, x1 = _build_system(cfg["plant"], seed)
    dist = _build_disturbance(cfg.get("disturbance"), sys_true.d_x, seed)
    cost = _build_cost(cfg.get("cost"))
    prior = PriorBounds(**cfg["prior"])
    # the constants of the shortest horizon run_pipeline accepts, T = T1 + 1
    cst = derive_constants(prior.k, prior.kappa, prior.beta, sys_true.d_x,
                           sys_true.d_u, T=probe_horizon(prior.k, sys_true.d_u) + 2,
                           overrides=cfg.get("overrides"))
    eps = float(cfg.get("eps", cst.eps))
    plant = BlackBoxPlant(sys_true, dist, cost, x1, seed=seed)
    bundle = adv_sys_id(plant, eps, cst.lam, prior.k, prior.kappa)
    return _log_steps(plant.log), {
        "eps": eps,
        "lam": cst.lam,
        "A_hat": bundle.A_hat,
        "B_hat": bundle.B_hat,
        "estimate_error_A": float(np.linalg.norm(bundle.A_hat - sys_true.A, 2)),
        "estimate_error_B": float(np.linalg.norm(bundle.B_hat - sys_true.B, 2)),
        "x_final_norm": float(np.linalg.norm(bundle.x_final)),
        "total_cost": plant.total_cost,
    }


def _run_recover_experiment(cfg):
    A_hat = np.array(cfg["A_hat"], dtype=float)
    B_hat = np.array(cfg["B_hat"], dtype=float)
    result = controller_recovery(A_hat, B_hat, float(cfg["eps"]),
                                 float(cfg["kappa_prime"]),
                                 float(cfg["gamma_prime"]))
    closed = A_hat + (B_hat.reshape(A_hat.shape[0], -1)) @ result.K
    return [], {
        "K": result.K,
        "nu": result.constants.nu,
        "kappa_tilde": result.kappa_tilde,
        "gamma_tilde": result.gamma_tilde,
        "witness_norm_L": result.norm_L,
        "sdp_iterations": result.sdp_iterations,
        "sdp_violation": result.sdp_violation,
        "sdp_affine_residual": result.sdp_affine_residual,
        "kappa_certified": result.kappa_est,
        "gamma_certified": result.gamma_est,
        "closed_loop_spectral_radius": float(max(abs(np.linalg.eigvals(closed)))),
        "total_cost": 0.0,
    }


def _run_lowerbound_rand(cfg):
    factory = lb.BUILTIN_CONTROLLERS[cfg.get("controller", "zero")]
    transcript = lb.randomized_lb_trial(factory, cfg["d_x"],
                                        gamma=float(cfg.get("gamma", 40.0)),
                                        seed=cfg["seed"])
    return _transcript_steps(transcript, "lowerbound-rand"), {
        "d_x": transcript.d_x,
        "gamma": transcript.gamma,
        "controller": cfg.get("controller", "zero"),
        "steps": len(transcript.steps),
        "h_sq": [float(v) for v in transcript.h_sq],
        "all_doubled": transcript.all_doubled,
        "final_state_norm": transcript.final_state_norm,
        "final_state_sq_threshold": 2.0 ** (len(transcript.steps) - 1),
        "system_spectral_norm": transcript.system_norm,
        "system_norm_threshold": 3.0 * math.sqrt(transcript.gamma),
        "total_cost": transcript.total_cost,
    }


def _run_lowerbound_det(cfg):
    factory = lb.BUILTIN_CONTROLLERS[cfg.get("controller", "zero")]
    transcript = lb.deterministic_adversary(factory, cfg["d_x"])
    return _transcript_steps(transcript, "lowerbound-det"), {
        "d_x": transcript.d_x,
        "controller": cfg.get("controller", "zero"),
        "final_state_norm": transcript.final_state_norm,
        "growth_threshold": 2.0 ** (transcript.d_x - 1),
        "system_spectral_norm": transcript.system_norm,
        "c_diag": [float(v) for v in transcript.c_diag],
        "d_signs": [float(v) for v in transcript.d_signs],
        "total_cost": transcript.total_cost,
    }


_RUNNERS = {
    "pipeline": _run_pipeline_experiment,
    "sysid": _run_sysid_experiment,
    "recover": _run_recover_experiment,
    "lowerbound-rand": _run_lowerbound_rand,
    "lowerbound-det": _run_lowerbound_det,
}


def dispatch(subcommand: str, cfg: dict, out_dir: str) -> None:
    """Validate and run one experiment, writing steps.csv and summary.json.

    Every number of both files is checked to be finite before either is
    written: a NaN or an infinity raises NonFiniteValueError naming the
    field, and nothing is written."""
    cfg = validate_config(subcommand, cfg)
    _say(f"running {subcommand} -> {out_dir}")
    steps, summary = _RUNNERS[subcommand](cfg)
    csv_text, cumulative = _csv_text(steps)
    summary.update(experiment=subcommand, seed=cfg.get("seed"), config=cfg,
                   cumulative_cost=cumulative)
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
                    "controller recovery, full pipeline, and lower-bound attacks.")
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
        for expr in args.set:
            key, value = _parse_set(expr)
            _apply_set(cfg, key, value)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.trials < 1:
            raise ConfigError("--trials", "must be >= 1")
        if args.trials == 1:
            dispatch(args.subcommand, dict(cfg), args.out)
        else:
            # a serial loop: on 2 cores a thread pool ran d_x = 800
            # lowerbound-rand trials 3-5x slower (GIL-bound rounds contending
            # with multithreaded BLAS) and pipeline trials no faster
            base_seed = cfg.get("seed", 0)
            dirs = []
            for i in range(args.trials):
                trial_cfg = json.loads(json.dumps(cfg))
                trial_cfg["seed"] = base_seed + i
                dirs.append(os.path.join(args.out, f"trial_{i:04d}"))
                dispatch(args.subcommand, trial_cfg, dirs[-1])
            _write_text(os.path.join(args.out, "trials.json"),
                        _json_text({"trials": args.trials,
                                    "base_seed": base_seed, "dirs": dirs}))
    except ConfigError as exc:
        print(json.dumps({"error": {"kind": "config", "path": exc.path,
                                    "message": str(exc)}}, sort_keys=True))
        return 2
    except (BlackBoxControlError, ValueError) as exc:
        print(json.dumps({"error": {"kind": "runtime",
                                    "phase": getattr(exc, "phase", None),
                                    "message": str(exc)}}, sort_keys=True))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
