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
from .errors import BlackBoxControlError, ConfigError, PhaseError
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
from .sysid import adv_sys_id

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

_DIST_KINDS = {"zero", "clipped_gaussian", "sinusoidal", "sign_adversarial"}
_COST_KINDS = {"quadratic", "weighted_quadratic"}

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
    if "plant" in cfg:
        _validate_plant(cfg["plant"])
    if "prior" in cfg:
        p = cfg["prior"]
        _require(isinstance(p, dict), "prior", "must be an object")
        for key in p:
            _require(key in {"k", "kappa", "beta"}, f"prior.{key}", "unknown key")
        for key in ("k", "kappa", "beta"):
            _require(key in p, f"prior.{key}", "missing required key")
        _require(isinstance(p["k"], int) and p["k"] >= 1, "prior.k",
                 "must be a positive integer")
    if "horizon" in cfg:
        _require(isinstance(cfg["horizon"], int) and cfg["horizon"] >= 1,
                 "horizon", "must be a positive integer")
    if "disturbance" in cfg:
        d = cfg["disturbance"]
        _require(isinstance(d, dict) and "kind" in d, "disturbance",
                 "must be an object with a 'kind'")
        _require(d["kind"] in _DIST_KINDS, "disturbance.kind",
                 f"must be one of {sorted(_DIST_KINDS)}")
        for key in d:
            _require(key in {"kind", "scale", "omega", "amplitude", "phases"},
                     f"disturbance.{key}", "unknown key")
    if "cost" in cfg:
        c = cfg["cost"]
        _require(isinstance(c, dict) and "kind" in c, "cost",
                 "must be an object with a 'kind'")
        _require(c["kind"] in _COST_KINDS, "cost.kind",
                 f"must be one of {sorted(_COST_KINDS)}")
        for key in c:
            _require(key in {"kind", "Q", "R"}, f"cost.{key}", "unknown key")
    if "overrides" in cfg:
        _require(isinstance(cfg["overrides"], dict), "overrides",
                 "must be an object")
        from .pipeline import _DERIVABLE
        for key, value in cfg["overrides"].items():
            _require(key in _DERIVABLE, f"overrides.{key}",
                     f"unknown constant (expected one of {sorted(_DERIVABLE)})")
            _require(isinstance(value, (int, float)) and not isinstance(value, bool),
                     f"overrides.{key}", "must be a number")
    if "options" in cfg:
        o = cfg["options"]
        _require(isinstance(o, dict), "options", "must be an object")
        for key in o:
            _require(key in {"use_certified_stability", "reidentify",
                             "comparator_iters"}, f"options.{key}", "unknown key")
    for key in ("A_hat", "B_hat"):
        if key in cfg:
            _require(isinstance(cfg[key], list), key,
                     "must be a matrix as nested lists")
    for key in ("eps", "kappa_prime", "gamma_prime", "gamma"):
        if key in cfg:
            _require(isinstance(cfg[key], (int, float))
                     and not isinstance(cfg[key], bool), key, "must be a number")
    if "controller" in cfg:
        _require(cfg["controller"] in lb.BUILTIN_CONTROLLERS, "controller",
                 f"must be one of {sorted(lb.BUILTIN_CONTROLLERS)}")
    if "d_x" in cfg:
        _require(isinstance(cfg["d_x"], int) and cfg["d_x"] >= 1, "d_x",
                 "must be a positive integer")
    if subcommand in {"pipeline", "sysid", "lowerbound-rand"}:
        _require("seed" in cfg and isinstance(cfg["seed"], int), "seed",
                 "a seed is mandatory for randomized experiments")
    return cfg


def _validate_plant(p):
    _require(isinstance(p, dict) and "kind" in p, "plant",
             "must be an object with a 'kind'")
    if p["kind"] == "explicit":
        for key in p:
            _require(key in {"kind", "A", "B", "x1"}, f"plant.{key}", "unknown key")
        for key in ("A", "B"):
            _require(key in p and isinstance(p[key], list), f"plant.{key}",
                     "must be a matrix as nested lists")
    elif p["kind"] == "random":
        for key in p:
            _require(key in {"kind", "d_x", "d_u", "spectral_radius", "seed"},
                     f"plant.{key}", "unknown key")
        for key in ("d_x", "d_u"):
            _require(key in p and isinstance(p[key], int) and p[key] >= 1,
                     f"plant.{key}", "must be a positive integer")
    else:
        raise ConfigError("plant.kind", "must be 'explicit' or 'random'")


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


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,phase,state_norm,control_norm,cost,cumulative_cost\n")
        for t, phase, xn, un, c, cc in rows:
            fh.write(f"{t},{phase},{_g17(xn)},{_g17(un)},{_g17(c)},{_g17(cc)}\n")


def _rows_from_log(log):
    rows = []
    running = 0.0
    for r in log.records:
        running += r.cost
        rows.append((r.t, r.phase, float(np.linalg.norm(r.x)),
                     float(np.linalg.norm(r.u)), r.cost, running))
    return rows


# -- experiments --------------------------------------------------------------

def _run_pipeline_experiment(cfg, out_dir):
    seed = cfg["seed"]
    sys_true, x1 = _build_system(cfg["plant"], seed)
    dist = _build_disturbance(cfg.get("disturbance"), sys_true.d_x, seed)
    cost = _build_cost(cfg.get("cost"))
    prior = PriorBounds(**cfg["prior"])
    opts = cfg.get("options", {})
    plant = BlackBoxPlant(sys_true, dist, cost, x1, seed=seed)
    report = run_pipeline(
        plant, prior, cfg["horizon"], overrides=cfg.get("overrides"),
        use_certified_stability=opts.get("use_certified_stability", False),
        reidentify=opts.get("reidentify", False),
        comparator_iters=opts.get("comparator_iters", 200),
        seed=seed, config_echo=cfg)
    rows = _rows_from_log(report.log)
    _write_csv(os.path.join(out_dir, "steps.csv"), rows)
    err_A = float(np.linalg.norm(report.estimates.A_hat - sys_true.A, 2))
    err_B = float(np.linalg.norm(report.estimates.B_hat - sys_true.B, 2))
    summary = {
        "experiment": "pipeline",
        "seed": seed,
        "config": cfg,
        "constants": report.constants.as_dict(),
        "constants_provenance": report.constants.provenance,
        "stability_used": report.stability_used,
        "phase_costs": report.phase_costs,
        "total_cost": report.total_cost,
        "cumulative_cost": rows[-1][-1] if rows else 0.0,
        "regret": report.regret_value,
        "comparator_cost": report.comparator.cost if report.comparator else None,
        "comparator_converged": report.comparator.converged
        if report.comparator else None,
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
    _write_json(os.path.join(out_dir, "summary.json"), summary)


def _run_sysid_experiment(cfg, out_dir):
    seed = cfg["seed"]
    sys_true, x1 = _build_system(cfg["plant"], seed)
    dist = _build_disturbance(cfg.get("disturbance"), sys_true.d_x, seed)
    cost = _build_cost(cfg.get("cost"))
    prior = PriorBounds(**cfg["prior"])
    T1 = sys_true.d_u * (prior.k + 1) + 1
    cst = derive_constants(prior.k, prior.kappa, prior.beta, sys_true.d_x,
                           sys_true.d_u, T=T1 + 1, overrides=cfg.get("overrides"))
    eps = float(cfg.get("eps", cst.eps))
    plant = BlackBoxPlant(sys_true, dist, cost, x1, seed=seed)
    bundle = adv_sys_id(plant, eps, cst.lam, prior.k, prior.kappa)
    rows = _rows_from_log(plant.log)
    _write_csv(os.path.join(out_dir, "steps.csv"), rows)
    summary = {
        "experiment": "sysid",
        "seed": seed,
        "config": cfg,
        "eps": eps,
        "lam": cst.lam,
        "A_hat": bundle.A_hat,
        "B_hat": bundle.B_hat,
        "estimate_error_A": float(np.linalg.norm(bundle.A_hat - sys_true.A, 2)),
        "estimate_error_B": float(np.linalg.norm(bundle.B_hat - sys_true.B, 2)),
        "x_final_norm": float(np.linalg.norm(bundle.x_final)),
        "total_cost": plant.total_cost,
        "cumulative_cost": rows[-1][-1] if rows else 0.0,
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)


def _run_recover_experiment(cfg, out_dir):
    A_hat = np.array(cfg["A_hat"], dtype=float)
    B_hat = np.array(cfg["B_hat"], dtype=float)
    result = controller_recovery(A_hat, B_hat, float(cfg["eps"]),
                                 float(cfg["kappa_prime"]),
                                 float(cfg["gamma_prime"]))
    _write_csv(os.path.join(out_dir, "steps.csv"), [])
    closed = A_hat + (B_hat.reshape(A_hat.shape[0], -1)) @ result.K
    summary = {
        "experiment": "recover",
        "seed": cfg.get("seed"),
        "config": cfg,
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
        "cumulative_cost": 0.0,
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)


def _transcript_rows(transcript, phase):
    rows = []
    running = 0.0
    for s in transcript.steps:
        c = float(s.x @ s.x + s.u @ s.u)
        running += c
        rows.append((s.t, phase, float(np.linalg.norm(s.x)),
                     float(np.linalg.norm(s.u)), c, running))
    return rows


def _run_lowerbound_rand(cfg, out_dir):
    seed = cfg["seed"]
    factory = lb.BUILTIN_CONTROLLERS[cfg.get("controller", "zero")]
    transcript = lb.randomized_lb_trial(factory, cfg["d_x"],
                                        gamma=float(cfg.get("gamma", 40.0)),
                                        seed=seed)
    rows = _transcript_rows(transcript, "lowerbound-rand")
    _write_csv(os.path.join(out_dir, "steps.csv"), rows)
    summary = {
        "experiment": "lowerbound-rand",
        "seed": seed,
        "config": cfg,
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
        "cumulative_cost": rows[-1][-1] if rows else 0.0,
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)


def _run_lowerbound_det(cfg, out_dir):
    factory = lb.BUILTIN_CONTROLLERS[cfg.get("controller", "zero")]
    transcript = lb.deterministic_adversary(factory, cfg["d_x"])
    rows = _transcript_rows(transcript, "lowerbound-det")
    _write_csv(os.path.join(out_dir, "steps.csv"), rows)
    summary = {
        "experiment": "lowerbound-det",
        "seed": cfg.get("seed"),
        "config": cfg,
        "d_x": transcript.d_x,
        "controller": cfg.get("controller", "zero"),
        "final_state_norm": transcript.final_state_norm,
        "growth_threshold": 2.0 ** (transcript.d_x - 1),
        "system_spectral_norm": transcript.system_norm,
        "c_diag": [float(v) for v in transcript.c_diag],
        "d_signs": [float(v) for v in transcript.d_signs],
        "total_cost": transcript.total_cost,
        "cumulative_cost": rows[-1][-1] if rows else 0.0,
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)


_RUNNERS = {
    "pipeline": _run_pipeline_experiment,
    "sysid": _run_sysid_experiment,
    "recover": _run_recover_experiment,
    "lowerbound-rand": _run_lowerbound_rand,
    "lowerbound-det": _run_lowerbound_det,
}


def dispatch(subcommand: str, cfg: dict, out_dir: str) -> None:
    """Validate and run one experiment, writing steps.csv and summary.json."""
    cfg = validate_config(subcommand, cfg)
    os.makedirs(out_dir, exist_ok=True)
    _say(f"running {subcommand} -> {out_dir}")
    _RUNNERS[subcommand](cfg, out_dir)


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
            _write_json(os.path.join(args.out, "trials.json"),
                        {"trials": args.trials, "base_seed": base_seed,
                         "dirs": dirs})
    except ConfigError as exc:
        print(json.dumps({"error": {"kind": "config", "path": exc.path,
                                    "message": str(exc)}}, sort_keys=True))
        return 2
    except PhaseError as exc:
        print(json.dumps({"error": {"kind": "runtime", "phase": exc.phase,
                                    "message": str(exc)}}, sort_keys=True))
        return 1
    except (BlackBoxControlError, ValueError) as exc:
        print(json.dumps({"error": {"kind": "runtime", "phase": None,
                                    "message": str(exc)}}, sort_keys=True))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
