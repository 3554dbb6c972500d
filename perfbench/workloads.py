"""The three workloads: inputs from a seed, program set-up, rounds, checks.

A workload object is built from the workload seed (the benchmark's own
input generation, kept out of ``setup_s``), then ``setup`` does the
program's construction work once, and ``run_round`` repeats the same
operations on every call.  ``check`` reads the outputs of the last round.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from hennion_lab import expcli, fcs, process
from hennion_lab.algebra import make_algebra

import checks
import reference


def _pairs(block: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in block]


def _gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _algebra(dims) -> dict:
    return {"dims": list(dims), "weights": [1.0] * len(dims)}


def summable_payload(rng, dims, k: int) -> dict:
    def positive():
        return [_pairs(g @ g.conj().T) for g in (_gaussian(rng, n) for n in dims)]

    pairs = [{"a": positive(), "m": positive()} for _ in range(k)]
    return {"kind": "strongly_summable", "algebra": _algebra(dims), "pairs": pairs}


def depolarizing_payload(q: float, n: int) -> dict:
    # x -> q x + (1-q) Tr(x)/n 1 with Kraus operators sqrt(q) 1 and
    # sqrt((1-q)/n) E_ij, since sum_ij E_ij x E_ji = Tr(x) 1
    ops = [[_pairs(np.sqrt(q) * np.eye(n))]]
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n))
            e[i, j] = np.sqrt((1.0 - q) / n)
            ops.append([_pairs(e)])
    return {"kind": "kraus", "algebra": _algebra([n]), "operators": ops}


def replacement_payload(rng, n: int) -> dict:
    g = _gaussian(rng, n)
    pair = {"a": [_pairs(np.eye(n))], "m": [_pairs(g @ g.conj().T + np.eye(n))]}
    return {"kind": "strongly_summable", "algebra": _algebra([n]), "pairs": [pair]}


class ProcessMixture:
    """``cmd_process`` on the shape of examples_config/process_iid_mixture.json."""

    name = "process_mixture"
    streams, n_end = 1, 60
    ops_per_round = streams * (n_end - 1)
    clock = ("process", "extend_process", "dual_normalized_value")

    def __init__(self, seed: int, out_dir: str):
        rng = np.random.default_rng(seed)
        self.out_dir = out_dir
        self.config = {
            "master_seed": int(rng.integers(1, 2**31)),
            "algebra": {"dims": [2], "weights": [1.0]},
            "driver": {"kind": "iid_shift"},
            "ensemble": {
                "recipe": "mixture",
                "components": [
                    {"recipe": "depolarizing", "eps": 0.5},
                    {"recipe": "depolarizing", "eps": 0.6},
                ],
                "probs": list(checks.PROBS),
            },
            "plan": {"m_start": 1, "n_end": self.n_end, "streams": self.streams},
            "estimator": {"n_samples": 10, "refine_iters": 4, "eta_samples": 8},
        }

    def setup(self) -> None:
        pass

    def run_round(self, clock) -> None:
        expcli.cmd_process(json.loads(json.dumps(self.config)), self.out_dir)

    def check(self) -> list:
        with open(os.path.join(self.out_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        with open(os.path.join(self.out_dir, "runs.csv"), encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        errors = []
        if len(summary["streams"]) != self.streams:
            errors.append(f"{len(summary['streams'])} streams in summary.json")
        for stream in summary["streams"]:
            mine = [
                (int(r["length"]), float(r["c_lower"]), float(r["c_upper"]), float(r["spread_l1"]))
                for r in rows
                if r["run_id"] == stream["run_id"]
            ]
            if len(mine) != self.n_end:
                errors.append(f"{stream['run_id']}: {len(mine)} rows")
            errors += checks.check_process_stream(mine, stream["C"])
        return errors


class ContractionSuite:
    """``cmd_contraction`` at the CLI defaults on a suite of map files.

    The random map is drawn once from ``SUITE_SEED``: the default
    estimator's cost on one map moves by up to a half between draws of the
    same family, and even between bases it is written in, so a median over
    the calls would follow the draw, not the program.  The workload seed
    draws the replacement anchor.  Maps whose one call takes 5-10 s
    (Gaussian Kraus on M4, summable on M4+M2) are left out, so that a run
    holds several rounds.
    """

    name = "contraction_suite"
    clock = None
    SUITE_SEED = 5
    # a fixed retention: the call's cost moves with q (1.15-1.84 s over
    # q in [0.25, 0.79]), which made the median call follow the seed
    DEPOLARIZING_Q = 0.5

    def __init__(self, seed: int, out_dir: str):
        suite = np.random.default_rng(self.SUITE_SEED)
        rng = np.random.default_rng(seed)
        self.out_dir = out_dir
        os.makedirs(os.path.join(out_dir, "maps"), exist_ok=True)
        q = self.DEPOLARIZING_Q
        payloads = [
            ("summable", "summable_m2_m2", summable_payload(suite, [2, 2], 3)),
            ("depolarizing", "depolarizing_m3", depolarizing_payload(q, 3)),
            ("replacement", "replacement_m2", replacement_payload(rng, 2)),
        ]
        self.maps = []
        for kind, name, payload in payloads:
            path = os.path.join(out_dir, "maps", f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            self.maps.append((kind, name, path, self._reference(kind, payload, q, rng)))
        self.ops_per_round = len(self.maps)
        self.reports = {}

    @staticmethod
    def _reference(kind: str, payload: dict, q: float, rng) -> dict:
        if kind == "replacement":
            return {}
        ref = {"sampled": reference.sampled_image_diameter(payload, 64, rng)}
        if kind == "summable":
            ref["cone"] = reference.cone_diameter(payload)
        if kind == "depolarizing":
            ref["exact"] = reference.depolarizing_diameter(q, payload["algebra"]["dims"][0])
        return ref

    def setup(self) -> None:
        pass

    def run_round(self, clock) -> None:
        self.reports = {}
        for _, name, path, _ in self.maps:
            clock.begin()
            try:
                report = expcli.cmd_contraction(path, out_dir=os.path.join(self.out_dir, name))
            except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
                clock.abandon()
                continue
            clock.end()
            self.reports[name] = report

    def check(self) -> list:
        errors = []
        for kind, name, _, ref in self.maps:
            if name in self.reports:
                errors += checks.check_contraction(kind, self.reports[name], ref)
        return errors


class ChainClustering:
    """Clustering, covariance and orbit averages of a random chain state."""

    name = "chain_clustering"
    clock = ("fcs", "psi_of_parts", "psi_of_parts")
    window, pre_run, gaps, shifts, n_max, omega = 12, 16, range(1, 9), (1, 2, 3), 3, 2
    # psi_of_parts calls per round: value_a plus two per gap, two per shift,
    # omega * (2 n_max + 1) + 1 orbit values, and the four direct values
    ops_per_round = 1 + 2 * len(gaps) + 2 * len(shifts) + omega * (2 * n_max + 1) + 1 + 4

    def __init__(self, seed: int, out_dir: str):
        rng = np.random.default_rng(seed)
        self.driver_seed = int(rng.integers(1, 2**62))
        self.est_seed = int(rng.integers(1, 2**31))

        def hermitian():
            g = _gaussian(rng, 2)
            return 0.5 * (g + g.conj().T)

        self.f6 = [hermitian() for _ in range(6)]
        self.f3 = [hermitian() for _ in range(3)]
        self.norms = {
            "a6": float(np.prod([reference.operator_norm([f]) for f in self.f6])),
            "a3": float(np.prod([reference.operator_norm([f]) for f in self.f3])),
        }
        # the estimator psi_of_parts uses by default, for the whole workload
        self.opts = process.EstimatorOptions(n_samples=8, refine_iters=0, eta_samples=8)
        self.outputs = None

    def setup(self) -> None:
        site = make_algebra([2], [1.0])
        self.site, self.bond = site, make_algebra([2], [1.0])
        self.a6 = fcs.LocalObservable.from_sites(site, 0, [site.element([f]) for f in self.f6])
        self.a3 = fcs.LocalObservable.from_sites(site, 0, [site.element([f]) for f in self.f3])
        self.a6_parts = [
            fcs.LocalObservable.from_sites(site, k, [site.element([f])])
            for k, f in enumerate(self.f6)
        ]
        self.one = fcs.LocalObservable.from_sites(site, 0, [site.identity()])

    def run_round(self, clock) -> None:
        generator = fcs.random_unital_generator(self.site, self.bond, kraus_rank=2)
        driver = process.ErgodicDriver("iid_shift", master_seed=self.driver_seed)
        common = {"est_opts": self.opts, "est_seed": self.est_seed}
        report = fcs.clustering_experiment(
            generator,
            driver,
            self.a6,
            self.a3,
            gaps=list(self.gaps),
            window=self.window,
            pre_run_length=self.pre_run,
            **common,
        )
        covariance = [
            (k, *fcs.translation_covariance_check(generator, driver, self.a6, k, self.window, **common))
            for k in self.shifts
        ]
        fcs.birkhoff_average(
            generator,
            driver,
            self.a3,
            n_max=self.n_max,
            omega_samples=self.omega,
            window=self.window,
            **common,
        )

        def psi(parts):
            return fcs.psi_of_parts(generator, driver, parts, self.window, **common).value

        values = {
            "a6": psi([self.a6]),
            "a6_parts": psi(self.a6_parts),
            "a3": psi([self.a3]),
            "one": psi([self.one]),
        }
        self.outputs = (values, [(r.gap, r.corr, r.bound_rhs) for r in report.rows], covariance)

    def check(self) -> list:
        values, decay, covariance = self.outputs
        return checks.check_chain(values, self.norms, decay, covariance)


WORKLOADS = {w.name: w for w in (ProcessMixture, ContractionSuite, ChainClustering)}
