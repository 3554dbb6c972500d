"""Command-line experiment runner.

Subcommands: ``metric`` (two matrix files -> metric report), ``contraction``
(map file -> certified interval), ``process`` (seeded composition runs ->
CSV + summary), ``fcs`` (chain-state clustering and averaging), and
``selftest``.  Every run is fully determined by its config and master seed;
result CSV/JSON files are byte-identical across repeated runs, and the run
manifest (which carries wall-clock timestamps) indexes every emitted file.

Exit codes: 0 success, 2 input or schema error, 3 math-domain error,
4 hypothesis violation, 5 internal error.
"""

from __future__ import annotations

import argparse
import collections
import csv
import datetime
import functools
import hashlib
import io
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .algebra import (
    AlgebraElement,
    State,
    element_from_payload,
    element_to_payload,
    load_element,
    make_algebra,
    random_state,
    trace,
)
from .config import DEFAULT_TOLS, Tolerances
from .errors import (
    DegeneratePairError,
    HennionLabError,
    HypothesisViolationError,
    MathDomainError,
    RejectedInputError,
)
from .fcs import (
    LocalObservable,
    birkhoff_average,
    clustering_experiment,
    product_generator,
    random_unital_generator,
    translation_covariance_check,
)
from .hennion import (
    classify_component,
    hennion_distance,
    line_decomposition,
    m_quantity,
    m_quantity_bisection,
)
from .process import (
    ChannelEnsemble,
    ErgodicDriver,
    EstimatorOptions,
    ProcessPlan,
    derive_seed,
    limit_state_estimate,
    rank_one_collapse_check,
    run_experiment,
)
from .qmaps import (
    SuperOperator,
    contraction_estimate,
    depolarizing_channel,
    from_kraus,
    from_matrix,
    from_strongly_summable,
    is_strict_contraction,
    replacement_channel,
    transpose_map,
)

# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

_ALGEBRA_SCHEMA = {
    "type": "object",
    "properties": {
        "dims": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1},
        "weights": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}, "minItems": 1},
    },
    "required": ["dims", "weights"],
    "additionalProperties": False,
}

_DRIVER_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["iid_shift", "rotation", "cyclic", "constant"]},
        "master_seed": {"type": "integer"},
        "alpha": {"type": "number"},
        "omega0": {"type": "number"},
        "period": {"type": "integer", "minimum": 1},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_ENSEMBLE_SCHEMA = {
    "type": "object",
    "properties": {
        "recipe": {
            "enum": [
                "replacement",
                "depolarizing",
                "transpose",
                "random_kraus",
                "mixture",
                "strongly_summable",
                "interpolated_depolarizing",
            ]
        },
        "eps": {"type": "number"},
        "k": {"type": "integer", "minimum": 1},
        "mix_eps": {"type": "number"},
        "n_pairs": {"type": "integer", "minimum": 1},
        "eta": {"type": "number"},
        "eps_min": {"type": "number"},
        "eps_max": {"type": "number"},
        "components": {"type": "array"},
        "probs": {"type": "array", "items": {"type": "number"}},
        "target": {"type": "object"},
    },
    "required": ["recipe"],
    "additionalProperties": False,
}

_OBSERVABLE_SCHEMA = {
    "type": "object",
    "properties": {
        "basis_index": {"type": "integer", "minimum": 0},
        "blocks": {"type": "array"},
    },
    "additionalProperties": False,
}

_ESTIMATOR_SCHEMA = {
    "type": "object",
    "properties": {
        "n_samples": {"type": "integer", "minimum": 1},
        "refine_iters": {"type": "integer", "minimum": 0},
        # deprecated and ignored; accepted so that existing configs load
        "eta_samples": {"type": "integer", "minimum": 1},
    },
    "additionalProperties": False,
}

_TOLERANCES_SCHEMA = {
    "type": "object",
    "properties": {
        name: {"type": "number"}
        for name in (
            "pos_tol",
            "rank_tol",
            "herm_tol",
            "trace_tol",
            "support_tol",
            "kernel_tol",
            "state_eq_tol",
            "m_product_floor",
            "cert_margin",
        )
    },
    "additionalProperties": False,
}

PROCESS_CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "master_seed": {"type": "integer"},
        "output_dir": {"type": "string"},
        "algebra": _ALGEBRA_SCHEMA,
        "driver": _DRIVER_SCHEMA,
        "ensemble": _ENSEMBLE_SCHEMA,
        "plan": {
            "type": "object",
            "properties": {
                "m_start": {"type": "integer"},
                "n_end": {"type": "integer"},
                "direction": {"enum": ["gamma_right", "phi_left"]},
                "probes": {"type": "integer", "minimum": 2},
                "streams": {"type": "integer", "minimum": 1},
            },
            "required": ["m_start", "n_end"],
            "additionalProperties": False,
        },
        "observable": _OBSERVABLE_SCHEMA,
        "estimator": _ESTIMATOR_SCHEMA,
        "tolerances": _TOLERANCES_SCHEMA,
    },
    "required": ["master_seed", "algebra", "driver", "ensemble", "plan"],
    "additionalProperties": False,
}

FCS_CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "master_seed": {"type": "integer"},
        "output_dir": {"type": "string"},
        "algebra": _ALGEBRA_SCHEMA,
        "bond": _ALGEBRA_SCHEMA,
        "driver": _DRIVER_SCHEMA,
        "generator": {
            "type": "object",
            "properties": {
                "recipe": {"enum": ["product", "random_unital_cp"]},
                "kraus_rank": {"type": "integer", "minimum": 1},
            },
            "required": ["recipe"],
            "additionalProperties": False,
        },
        "plan": {
            "type": "object",
            "properties": {
                "gaps": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                "window": {"type": "integer", "minimum": 1},
                "covariance_shifts": {"type": "array", "items": {"type": "integer"}},
                "birkhoff_n_max": {"type": "integer", "minimum": 0},
                "omega_samples": {"type": "integer", "minimum": 1},
            },
            "required": ["gaps", "window"],
            "additionalProperties": False,
        },
        "observable_a": _OBSERVABLE_SCHEMA,
        "observable_b": _OBSERVABLE_SCHEMA,
        "tolerances": _TOLERANCES_SCHEMA,
    },
    "required": ["master_seed", "algebra", "bond", "driver", "generator", "plan"],
    "additionalProperties": False,
}

MAP_FILE_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["kraus", "matrix", "strongly_summable"]},
        "algebra": _ALGEBRA_SCHEMA,
        "operators": {"type": "array"},
        "matrix": {"type": "array"},
        "pairs": {"type": "array"},
    },
    "required": ["kind", "algebra"],
    "additionalProperties": False,
}

_SCHEMAS = {
    "ensemble": _ENSEMBLE_SCHEMA,
    "map_file": MAP_FILE_SCHEMA,
    "process": PROCESS_CONFIG_SCHEMA,
    "fcs": FCS_CONFIG_SCHEMA,
}


@functools.cache
def _validator(name: str):
    """The validator of a schema in ``_SCHEMAS``, built and meta-checked once."""
    import jsonschema

    schema = _SCHEMAS[name]
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _validate(instance, name: str) -> None:
    """``jsonschema.validate`` against a named schema, raising the same error."""
    import jsonschema

    error = jsonschema.exceptions.best_match(_validator(name).iter_errors(instance))
    if error is not None:
        raise error


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _build_driver(spec: dict, fallback_seed: int) -> ErgodicDriver:
    kind = spec["kind"]
    if kind == "rotation":
        return ErgodicDriver(
            "rotation",
            alpha=spec.get("alpha", (np.sqrt(5.0) - 1.0) / 2.0),
            omega0=spec.get("omega0", 0.0),
        )
    seed = spec.get("master_seed", derive_seed(fallback_seed, "driver"))
    if kind == "cyclic":
        return ErgodicDriver("cyclic", master_seed=seed, period=spec.get("period", 1))
    if kind == "constant":
        return ErgodicDriver("constant")
    return ErgodicDriver("iid_shift", master_seed=seed)


def _build_observable(spec: dict | None, algebra) -> AlgebraElement:
    if spec is None:
        return algebra.basis_element(min(1, algebra.dim - 1))
    if "blocks" in spec:
        elem = element_from_payload({"algebra": {
            "dims": list(algebra.block_dims),
            "weights": [float(c) for c in algebra.trace_weights],
        }, "blocks": spec["blocks"]})
        return algebra.element(blk for blk in elem.blocks)
    return algebra.basis_element(int(spec.get("basis_index", 0)))


def _build_ensemble(spec: dict, algebra) -> ChannelEnsemble:
    recipe = spec["recipe"]
    if recipe == "replacement":
        if "target" in spec:
            target_elem = _build_observable(spec["target"], algebra)
            target = State.from_element(
                target_elem * (1.0 / trace(algebra, target_elem).real)
            )
        else:
            target = algebra.maximally_mixed()
        return ChannelEnsemble.constant(replacement_channel(algebra, target), "replacement")
    if recipe == "depolarizing":
        return ChannelEnsemble.constant(
            depolarizing_channel(algebra, float(spec["eps"])), f"depolarizing({spec['eps']})"
        )
    if recipe == "transpose":
        return ChannelEnsemble.constant(transpose_map(algebra), "transpose")
    if recipe == "random_kraus":
        return ChannelEnsemble.random_kraus(
            algebra, int(spec.get("k", 3)), float(spec.get("mix_eps", 0.25))
        )
    if recipe == "strongly_summable":
        return ChannelEnsemble.strongly_summable_family(
            algebra, int(spec.get("n_pairs", 4)), float(spec.get("eta", 0.5))
        )
    if recipe == "interpolated_depolarizing":
        lo = float(spec.get("eps_min", 0.2))
        hi = float(spec.get("eps_max", 0.8))

        def curve(t: float) -> SuperOperator:
            return depolarizing_channel(algebra, lo + (hi - lo) * t)

        return ChannelEnsemble.interpolated(algebra, curve)
    if recipe == "mixture":
        comps = []
        for sub in spec["components"]:
            _validate(sub, "ensemble")
            sub_e = _build_ensemble(sub, algebra)
            comps.append(sub_e.channel_at(0))
        return ChannelEnsemble.mixture(comps, [float(p) for p in spec["probs"]])
    raise RejectedInputError(f"unknown ensemble recipe {recipe!r}")


def _build_estimator(spec: dict | None) -> EstimatorOptions:
    # the schema admits only EstimatorOptions' fields, all of them integers
    return EstimatorOptions(**{key: int(value) for key, value in (spec or {}).items()})


def _build_tols(spec: dict | None) -> Tolerances:
    if not spec:
        return DEFAULT_TOLS
    return DEFAULT_TOLS.with_overrides(**{k: float(v) for k, v in spec.items()})


def load_map_file(path: str) -> SuperOperator:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    _validate(payload, "map_file")
    algebra = make_algebra(payload["algebra"]["dims"], payload["algebra"]["weights"])

    def read_elem(raw_blocks) -> AlgebraElement:
        return element_from_payload(
            {"algebra": payload["algebra"], "blocks": raw_blocks}
        )

    kind = payload["kind"]
    if kind == "kraus":
        ops = [read_elem(raw) for raw in payload["operators"]]
        return from_kraus(algebra, ops)
    if kind == "strongly_summable":
        pairs = [
            (read_elem(p["a"]), read_elem(p["m"])) for p in payload["pairs"]
        ]
        return from_strongly_summable(algebra, pairs)
    mat = np.array(
        [[complex(c[0], c[1]) for c in row] for row in payload["matrix"]]
    )
    return from_matrix(algebra, mat)


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, float):
        if x != x:
            return "nan"
        return format(x, ".17g")
    return str(x)


def _write_atomic(path: str, data: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _write_json(path: str, obj) -> None:
    _write_atomic(path, json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _write_csv(path: str, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    _write_atomic(path, buf.getvalue())


def _write_dat(path: str, comment: str, rows) -> None:
    lines = [f"# {comment}"]
    for row in rows:
        lines.append(" ".join(_fmt(v) for v in row))
    _write_atomic(path, "\n".join(lines) + "\n")


def _config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _manifest(out_dir: str, config: dict, files: list, passes: dict, started: float) -> None:
    _write_json(
        os.path.join(out_dir, "manifest.json"),
        {
            "config": config,
            "config_hash": _config_hash(config),
            "code_version": __version__,
            "started_utc": datetime.datetime.fromtimestamp(
                started, datetime.timezone.utc
            ).isoformat(),
            "finished_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "files": sorted(files),
            "pass_summary": passes,
        },
    )
    for name in files:
        if not os.path.exists(os.path.join(out_dir, name)):
            raise HennionLabError(f"manifest references a missing file: {name}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_metric(file_x: str, file_y: str, tols: Tolerances = DEFAULT_TOLS) -> dict:
    """Metric report for two state files on a common algebra."""
    ex, ey = load_element(file_x), load_element(file_y)
    if not ex.algebra.compatible(ey.algebra):
        raise RejectedInputError("the two matrix files use different algebras")
    alg = ex.algebra

    def to_state(e: AlgebraElement) -> State:
        t = trace(alg, e).real
        if t <= 0:
            raise MathDomainError("input has non-positive trace")
        return State.from_element(e * (1.0 / t), tols)

    x, y = to_state(ex), to_state(ey)
    mxy = m_quantity(x, y, tols)
    myx = m_quantity(y, x, tols)
    bxy = m_quantity_bisection(x, y, tols=tols)
    byx = m_quantity_bisection(y, x, tols=tols)
    d = hennion_distance(x, y, tols)
    report = {
        "m_xy": mxy.value,
        "m_yx": myx.value,
        "d": d,
        "component_verdict": classify_component(x, y, tols),
        "oracle_delta_m_xy": abs(mxy.value - bxy.value),
        "oracle_delta_m_yx": abs(myx.value - byx.value),
    }
    try:
        ld = line_decomposition(x, y, tols=tols)
        report.update(
            t_plus=ld.t_plus,
            t_minus=ld.t_minus,
            d_from_line=ld.distance,
            oracle_delta_d=abs(d - ld.distance),
        )
    except DegeneratePairError:
        report.update(t_plus=None, t_minus=None, d_from_line=None, oracle_delta_d=0.0)
    return report


def cmd_contraction(
    map_file: str,
    n_samples: int = 64,
    refine: int = 50,
    seed: int = 0,
    out_dir: str | None = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> dict:
    """Certified contraction interval of a map file."""
    s = load_map_file(map_file)
    est = contraction_estimate(
        s,
        n_samples=n_samples,
        refine_iters=refine,
        rng=np.random.default_rng(derive_seed(seed, "contraction")),
        tols=tols,
    )
    report = {
        "lower": est.lower_bound,
        "upper": est.upper_bound,
        "eta": est.eta,
        "upper_method": est.upper_method,
        "verdict": is_strict_contraction(s, est),
        "fixed_point_converged": est.fixed_point_converged,
    }
    if out_dir and est.fixed_point is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "fixed_point.json")
        _write_json(path, element_to_payload(est.fixed_point.element))
        report["fixed_point_path"] = path
    return report


def cmd_process(config: dict, out_dir: str) -> dict:
    """Run the configured composition streams and persist rows + summary."""
    _validate(config, "process")
    started = time.time()
    os.makedirs(out_dir, exist_ok=True)
    tols = _build_tols(config.get("tolerances"))
    master = int(config["master_seed"])
    alg = make_algebra(config["algebra"]["dims"], config["algebra"]["weights"])
    ensemble = _build_ensemble(config["ensemble"], alg)
    plan_spec = config["plan"]
    plan = ProcessPlan(
        m_start=int(plan_spec["m_start"]),
        n_end=int(plan_spec["n_end"]),
        direction=plan_spec.get("direction", "gamma_right"),
        probes=int(plan_spec.get("probes", 3)),
        streams=int(plan_spec.get("streams", 1)),
    )
    observable = _build_observable(config.get("observable"), alg)
    est_opts = _build_estimator(config.get("estimator"))
    cfg_hash = _config_hash(config)

    header = [
        "run_id",
        "direction",
        "length",
        "c_lower",
        "c_upper",
        "spread_l1",
        "residual_inf",
        "nu_hit",
        "log_norm_accum",
    ]
    all_rows = []
    summary_streams = []
    files = []

    for stream in range(plan.streams):
        driver = _build_driver(config["driver"], derive_seed(master, f"driver{stream}"))
        result = run_experiment(
            driver,
            ensemble,
            plan,
            observable=observable,
            est_opts=est_opts,
            probe_seed=derive_seed(master, f"probes{stream}"),
            tols=tols,
        )
        run_id = f"{cfg_hash[:12]}-s{stream}"
        rec = result.record
        for row in result.rows:
            all_rows.append((run_id, rec.direction) + row)
        limit_state_skipped = False
        if rec.direction == "gamma_right":
            try:
                rng = np.random.default_rng(derive_seed(master, f"limit{stream}"))
                probes = [random_state(alg, "full", rng, tols=tols) for _ in range(2)]
                limit, _ = limit_state_estimate(rec, probes, tols)
                limit_path = f"limit_state_s{stream}.json"
                _write_json(
                    os.path.join(out_dir, limit_path),
                    element_to_payload(limit.element),
                )
                files.append(limit_path)
            except HennionLabError:
                limit_state_skipped = True
        collapse = None
        if rec.direction == "gamma_right" and rec.kappa is not None:
            report = rank_one_collapse_check(rec, observable, tols=tols)
            collapse = {
                "E_k_final": report.e_running[-1] if report.e_running else None,
                "stabilized": report.stabilized,
            }
        summary_streams.append(
            {
                "run_id": run_id,
                "C": rec.rate_C,
                "fit_r2": rec.rate_r2,
                "exact_zero": rec.rate_exact_zero,
                "kappa": rec.kappa,
                "D_prefactor": rec.D_prefactor,
                "nu": None if rec.nu_certified is None else rec.nu_certified,
                "nu_optimistic": rec.nu_optimistic,
                "sup_dual_inverse": rec.sup_dual_inverse,
                "sup_dual_inverse_skipped": rec.sup_dual_inverse_skipped,
                "convergence_errors": rec.convergence_errors,
                # rows of runs.csv whose column reads NaN: a failed spread or
                # residual, and every phi_left spread (none is computed)
                "nan_rows": {
                    "spread_l1": sum(1 for r in result.rows if r[3] != r[3]),
                    "residual_inf": sum(1 for r in result.rows if r[4] != r[4]),
                },
                "limit_state_skipped": limit_state_skipped,
                "upper_methods": dict(collections.Counter(e.upper_method for e in rec.c_trace)),
                "collapse": collapse,
                "hypothesis_flag": rec.nu_certified is None,
            }
        )

    _write_csv(os.path.join(out_dir, "runs.csv"), header, all_rows)
    files.append("runs.csv")
    c_values = [float(c) for c in (s["C"] for s in summary_streams) if c is not None]
    summary = {
        "config_hash": cfg_hash,
        "streams": summary_streams,
        "C_mean": float(np.mean(c_values)) if c_values else None,
        "C_std": float(np.std(c_values)) if c_values else None,
        "nu_distribution": sorted(
            [s["nu"] for s in summary_streams if s["nu"] is not None]
        ),
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    files.append("summary.json")
    first = summary_streams[0]["run_id"] if summary_streams else ""
    _write_dat(
        os.path.join(out_dir, "c_of_length.dat"),
        "length  c_lower  c_upper (certified contraction interval)",
        [(r[2], r[3], r[4]) for r in all_rows if r[0] == first],
    )
    files.append("c_of_length.dat")
    _write_dat(
        os.path.join(out_dir, "spread.dat"),
        "length  probe spread (trace norm)",
        [(r[2], r[5]) for r in all_rows if r[0] == first and r[5] == r[5]],
    )
    files.append("spread.dat")
    passes = {
        "all_streams_contracting": all(s["nu"] is not None for s in summary_streams)
    }
    _manifest(out_dir, config, files, passes, started)
    return summary


def cmd_fcs(config: dict, out_dir: str) -> dict:
    """Chain-state clustering, covariance and averaging experiments."""
    _validate(config, "fcs")
    started = time.time()
    os.makedirs(out_dir, exist_ok=True)
    tols = _build_tols(config.get("tolerances"))
    master = int(config["master_seed"])
    site = make_algebra(config["algebra"]["dims"], config["algebra"]["weights"])
    bond = make_algebra(config["bond"]["dims"], config["bond"]["weights"])
    gen_spec = config["generator"]
    if gen_spec["recipe"] == "product":
        generator = product_generator(site, bond)
    else:
        generator = random_unital_generator(
            site, bond, kraus_rank=int(gen_spec.get("kraus_rank", 3))
        )
    driver = _build_driver(config["driver"], derive_seed(master, "driver"))
    plan = config["plan"]
    obs_a = LocalObservable.from_sites(
        site, 0, [_build_observable(config.get("observable_a"), site)]
    )
    obs_b = LocalObservable.from_sites(
        site, 0, [_build_observable(config.get("observable_b"), site)]
    )
    cfg_hash = _config_hash(config)
    files = []

    generator.validate(driver.point_at(0), n_probe=16, tols=tols)
    report = clustering_experiment(
        generator,
        driver,
        obs_a,
        obs_b,
        gaps=[int(g) for g in plan["gaps"]],
        window=int(plan["window"]),
        tols=tols,
    )
    _write_csv(
        os.path.join(out_dir, "decay.csv"),
        ["gap", "corr", "bound_rhs", "pass"],
        [(r.gap, r.corr, r.bound_rhs, int(r.passed)) for r in report.rows],
    )
    files.append("decay.csv")
    _write_dat(
        os.path.join(out_dir, "corr_decay.dat"),
        "gap  |corr|",
        [(r.gap, r.corr) for r in report.rows],
    )
    files.append("corr_decay.dat")

    cov_rows = []
    for k in plan.get("covariance_shifts", [1, 2, 3]):
        dev, budget = translation_covariance_check(
            generator, driver, obs_a, int(k), int(plan["window"]), tols=tols
        )
        cov_rows.append((int(k), dev, budget, int(dev <= budget + 1e-12)))
    _write_csv(
        os.path.join(out_dir, "covariance.csv"),
        ["shift", "deviation", "budget", "pass"],
        cov_rows,
    )
    files.append("covariance.csv")

    birkhoff = None
    n_max = int(plan.get("birkhoff_n_max", 0))
    if n_max > 0:
        birk = birkhoff_average(
            generator,
            driver,
            obs_a,
            n_max=n_max,
            omega_samples=int(plan.get("omega_samples", 2)),
            window=int(plan["window"]),
            est_seed=derive_seed(master, "birkhoff"),
            tols=tols,
        )
        _write_dat(
            os.path.join(out_dir, "birkhoff.dat"),
            "N  |partial average| (first sample)",
            list(zip(birk.n_values, np.abs(birk.partial_averages[0]))),
        )
        files.append("birkhoff.dat")
        birkhoff = {
            "limits": [[z.real, z.imag] for z in birk.limit_estimates],
            "cross_sample_spread": birk.cross_sample_spread,
            "invariance_deviation": birk.invariance_deviation,
            "budget": birk.budget,
        }

    summary = {
        "config_hash": cfg_hash,
        "kappa_fit": report.kappa_fit,
        "E_fit": report.e_fit,
        "window": report.window,
        "degenerate": report.degenerate,
        "all_pass": report.all_pass,
        "flank_upper": [{"gap": r.gap, "flank_upper": r.flank_upper} for r in report.rows],
        "covariance": [
            {"shift": k, "deviation": d, "budget": b, "pass": bool(p)}
            for (k, d, b, p) in cov_rows
        ],
        "birkhoff": birkhoff,
        "seeds": {"master_seed": master},
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    files.append("summary.json")
    passes = {
        "clustering_all_pass": report.all_pass,
        "covariance_all_pass": all(bool(p) for (_, _, _, p) in cov_rows),
    }
    _manifest(out_dir, config, files, passes, started)
    return summary


def cmd_selftest(level: str = "quick") -> int:
    """Run the invariant suites; non-zero exit on any failure."""
    from . import selftest

    checks = selftest.quick_checks() if level == "quick" else selftest.full_checks()
    failures = 0
    for result in selftest.run_checks(checks):
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {result.name} ({result.seconds:.1f}s) {result.detail}")
        failures += 0 if result.passed else 1
    print(f"{'OK' if failures == 0 else 'FAILED'}: {failures} failing check(s)")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hennion-lab",
        description="Projective-metric contraction experiments for channel compositions",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    sub = p.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("metric", help="metric report for two state files")
    pm.add_argument("file_x")
    pm.add_argument("file_y")

    pc = sub.add_parser("contraction", help="certified contraction interval of a map file")
    pc.add_argument("map_file")
    pc.add_argument("--samples", type=int, default=64)
    pc.add_argument("--refine", type=int, default=50)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--out", default=None)

    pp = sub.add_parser("process", help="seeded composition experiment")
    pp.add_argument("--config", required=True)
    pp.add_argument("--seed", type=int, default=None, help="override master_seed")
    pp.add_argument("--out", default=None, help="override output_dir")
    pp.add_argument("--samples", type=int, default=None, help="override estimator samples")

    pf = sub.add_parser("fcs", help="chain-state clustering experiment")
    pf.add_argument("--config", required=True)
    pf.add_argument("--seed", type=int, default=None)
    pf.add_argument("--out", default=None)

    ps = sub.add_parser("selftest", help="invariant suites")
    ps.add_argument("level", nargs="?", default="quick", choices=["quick", "full"])
    return p


def _load_config(path: str, args) -> tuple[dict, str]:
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if args.seed is not None:
        config["master_seed"] = int(args.seed)
    out_dir = args.out or config.get("output_dir")
    if not out_dir:
        raise RejectedInputError("no output directory (set output_dir or pass --out)")
    return config, out_dir


def main(argv=None) -> int:
    import jsonschema

    args = _parser().parse_args(argv)
    try:
        if args.command == "metric":
            report = cmd_metric(args.file_x, args.file_y)
            print(json.dumps(report, sort_keys=True, indent=None if args.json else 1))
            return 0
        if args.command == "contraction":
            report = cmd_contraction(
                args.map_file,
                n_samples=args.samples,
                refine=args.refine,
                seed=args.seed,
                out_dir=args.out,
            )
            print(json.dumps(report, sort_keys=True, indent=None if args.json else 1))
            return 0
        if args.command == "process":
            config, out_dir = _load_config(args.config, args)
            if args.samples is not None:
                config.setdefault("estimator", {})["n_samples"] = int(args.samples)
            summary = cmd_process(config, out_dir)
            print(json.dumps(summary, sort_keys=True, indent=None if args.json else 1))
            return 0
        if args.command == "fcs":
            config, out_dir = _load_config(args.config, args)
            summary = cmd_fcs(config, out_dir)
            print(json.dumps(summary, sort_keys=True, indent=None if args.json else 1))
            return 0
        if args.command == "selftest":
            return cmd_selftest(args.level)
        raise HennionLabError(f"unhandled command {args.command}")
    except (
        RejectedInputError,
        jsonschema.ValidationError,
        FileNotFoundError,
        json.JSONDecodeError,
    ) as exc:
        print(json.dumps({"error": "input", "detail": str(exc)}), file=sys.stderr)
        return 2
    except MathDomainError as exc:
        print(json.dumps({"error": "math_domain", "detail": str(exc)}))
        return 3
    except HypothesisViolationError as exc:
        print(json.dumps({"error": "hypothesis_violation", "detail": str(exc)}))
        return 4
    except Exception as exc:  # noqa: BLE001 - exit-code contract
        print(json.dumps({"error": "internal", "detail": str(exc)}), file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
