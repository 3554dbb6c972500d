import json
import os

import numpy as np
import pytest

from hennion_lab import make_algebra, qmaps
from hennion_lab.algebra import save_element
from hennion_lab.expcli import (
    cmd_contraction,
    cmd_fcs,
    cmd_metric,
    cmd_process,
    load_map_file,
    main,
)

QUBIT = make_algebra([2], [1.0])


def write_state(path, diag):
    x = QUBIT.element([np.diag(np.asarray(diag, dtype=float))])
    save_element(str(path), x)
    return str(path)


def write_map(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return str(path)


PROCESS_CONFIG = {
    "master_seed": 11,
    "algebra": {"dims": [2], "weights": [1.0]},
    "driver": {"kind": "constant"},
    "ensemble": {"recipe": "depolarizing", "eps": 0.5},
    "plan": {"m_start": 1, "n_end": 12},
    "estimator": {"n_samples": 8, "refine_iters": 0, "eta_samples": 6},
}

FCS_CONFIG = {
    "master_seed": 12,
    "algebra": {"dims": [2], "weights": [1.0]},
    "bond": {"dims": [2], "weights": [1.0]},
    "driver": {"kind": "constant"},
    "generator": {"recipe": "product"},
    "plan": {"gaps": [1, 2], "window": 8},
}

CONFIGS = {"process": PROCESS_CONFIG, "fcs": FCS_CONFIG}


class TestMetricCommand:
    def test_identical_files(self, tmp_path):
        fx = write_state(tmp_path / "x.json", [1.2, 0.8])
        report = cmd_metric(fx, fx)
        assert report["d"] <= 1e-12
        assert report["t_plus"] is None

    def test_hand_computed_pair(self, tmp_path):
        fx = write_state(tmp_path / "x.json", [1.5, 0.5])
        fy = write_state(tmp_path / "y.json", [0.5, 1.5])
        report = cmd_metric(fx, fy)
        assert report["d"] == pytest.approx(0.8, abs=1e-9)
        assert report["d_from_line"] == pytest.approx(0.8, abs=1e-9)
        assert report["t_plus"] == pytest.approx(1.5, abs=1e-8)
        assert report["oracle_delta_d"] <= 1e-6
        assert report["component_verdict"] == "same_component"

    def test_projection_vs_identity(self, tmp_path):
        fx = write_state(tmp_path / "x.json", [2.0, 0.0])
        fy = write_state(tmp_path / "y.json", [1.0, 1.0])
        report = cmd_metric(fx, fy)
        assert report["d"] == 1.0
        assert report["component_verdict"] == "distance_one"

    def test_exit_code_on_missing_file(self, tmp_path, capsys):
        fx = write_state(tmp_path / "x.json", [1.0, 1.0])
        assert main(["metric", fx, str(tmp_path / "nope.json")]) == 2

    def test_exit_code_on_math_domain(self, tmp_path, capsys):
        fx = write_state(tmp_path / "x.json", [1.0, 1.0])
        fy = write_state(tmp_path / "y.json", [1.0, -1.0])  # traceless
        assert main(["metric", fx, fy]) == 3
        assert "math_domain" in capsys.readouterr().out

    def test_exit_code_on_mismatched_algebras(self, tmp_path):
        fx = write_state(tmp_path / "x.json", [1.0, 1.0])
        other = make_algebra([3], [1.0])
        fy = tmp_path / "y.json"
        save_element(str(fy), other.identity())
        assert main(["metric", fx, str(fy)]) == 2


class TestContractionCommand:
    def test_replacement_map_file(self, tmp_path):
        target = [[[1.2, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.8, 0.0]]]
        payload = {
            "kind": "strongly_summable",
            "algebra": {"dims": [2], "weights": [0.5]},
            "pairs": [
                {
                    "a": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
                    "m": [target],
                }
            ],
        }
        path = write_map(tmp_path / "rep.json", payload)
        report = cmd_contraction(path, n_samples=12, refine=0, out_dir=str(tmp_path))
        assert report["verdict"] == "certified_yes"
        assert report["upper"] <= 1e-9
        assert report["upper_method"] == "choi"
        assert os.path.exists(report["fixed_point_path"])

    def test_default_search_needs_no_polish(self, tmp_path, monkeypatch):
        # depolarizing(q) on M3 as Kraus operators sqrt(q) 1 and sqrt((1-q)/3) E_ij;
        # a pure state goes to eigenvalues alpha, beta, beta
        q, n = 0.5, 3
        ops = [np.sqrt(q) * np.eye(n)]
        for i in range(n):
            for j in range(n):
                e = np.zeros((n, n))
                e[i, j] = np.sqrt((1 - q) / 3)
                ops.append(e)
        payload = {
            "kind": "kraus",
            "algebra": {"dims": [n], "weights": [1.0]},
            "operators": [[[[[x, 0.0] for x in r] for r in op]] for op in ops],
        }
        path = write_map(tmp_path / "dep3.json", payload)

        def no_polish(*args, **kwargs):
            raise AssertionError("the default search ran the Nelder-Mead polish")

        monkeypatch.setattr(qmaps, "minimize", no_polish)
        report = cmd_contraction(path)
        alpha, beta = q + (1 - q) / 3, (1 - q) / 3
        exact = (alpha**2 - beta**2) / (alpha**2 + beta**2)
        assert report["lower"] == pytest.approx(exact, rel=1e-9)
        assert report["lower"] <= report["upper"]

    def test_kraus_map_file(self, tmp_path):
        payload = {
            "kind": "kraus",
            "algebra": {"dims": [2], "weights": [1.0]},
            "operators": [
                [[[[0.8, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.8, 0.0]]]],
                [[[[0.6, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.6, 0.0]]]],
            ],
        }
        s = load_map_file(write_map(tmp_path / "k.json", payload))
        assert s.flags.completely_positive == "yes"

    def test_non_faithful_exit_code(self, tmp_path, capsys):
        payload = {
            "kind": "kraus",
            "algebra": {"dims": [2], "weights": [1.0]},
            "operators": [
                [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]],
            ],
        }
        path = write_map(tmp_path / "corner.json", payload)
        assert main(["contraction", path, "--samples", "4", "--refine", "0"]) == 4
        out = capsys.readouterr().out
        assert "hypothesis_violation" in out

    def test_schema_rejects_unknown_keys(self, tmp_path):
        payload = {
            "kind": "kraus",
            "algebra": {"dims": [2], "weights": [1.0]},
            "operators": [],
            "surprise": 1,
        }
        path = write_map(tmp_path / "bad.json", payload)
        assert main(["contraction", path]) == 2


class TestProcessCommand:
    def test_outputs_and_schema(self, tmp_path):
        out = tmp_path / "run"
        summary = cmd_process(dict(PROCESS_CONFIG), str(out))
        assert summary["streams"][0]["C"] == pytest.approx(0.5, abs=1e-3)
        # one certificate per length; depolarizing(0.5) takes one side from each matrix
        assert summary["streams"][0]["upper_methods"] == {"mixed": 12}
        # every image of 1 is invertible, so every length enters sup_dual_inverse
        assert summary["streams"][0]["sup_dual_inverse_skipped"] == 0
        names = sorted(os.listdir(out))
        assert "runs.csv" in names and "summary.json" in names
        assert "manifest.json" in names and "c_of_length.dat" in names
        header = open(out / "runs.csv").readline().strip().split(",")
        assert header == [
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
        manifest = json.loads(open(out / "manifest.json").read())
        for name in manifest["files"]:
            assert os.path.exists(out / name)

    def test_c_of_length_carries_both_bounds(self, tmp_path):
        # a stream that reaches the floor: carried rows read c_lower 0 and
        # the carried c_upper, in the .dat file as in runs.csv
        cfg = {**PROCESS_CONFIG, "ensemble": {"recipe": "depolarizing", "eps": 0.9}}
        cfg["plan"] = {"m_start": 1, "n_end": 20}
        out = tmp_path / "run"
        summary = cmd_process(cfg, str(out))
        assert summary["streams"][0]["upper_methods"].get("carried", 0) > 0
        lines = open(out / "c_of_length.dat").read().splitlines()
        assert lines[0] == "# length  c_lower  c_upper (certified contraction interval)"
        runs = [row.split(",") for row in open(out / "runs.csv").read().splitlines()[1:]]
        assert [line.split() for line in lines[1:]] == [row[2:5] for row in runs]
        assert runs[-1][3] == "0"

    def test_unknown_config_key_rejected(self, tmp_path):
        bad = dict(PROCESS_CONFIG)
        bad["surprise"] = True
        import jsonschema

        with pytest.raises(jsonschema.ValidationError):
            cmd_process(bad, str(tmp_path / "x"))

    def test_determinism_bytes(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cmd_process(dict(PROCESS_CONFIG), str(out_a))
        cmd_process(dict(PROCESS_CONFIG), str(out_b))
        for name in sorted(os.listdir(out_a)):
            if name == "manifest.json":
                continue
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_override_changes_streams(self, tmp_path):
        cfg = dict(PROCESS_CONFIG)
        cfg["ensemble"] = {"recipe": "random_kraus", "k": 2, "mix_eps": 0.4}
        cfg["driver"] = {"kind": "iid_shift"}
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cmd_process(dict(cfg), str(out_a))
        cfg["master_seed"] = 999
        cmd_process(dict(cfg), str(out_b))
        assert (out_a / "runs.csv").read_bytes() != (out_b / "runs.csv").read_bytes()

    @pytest.mark.parametrize("key,value", [("stride", 5), ("polish", True)])
    def test_removed_estimator_keys_exit_2(self, tmp_path, key, value):
        cfg = {**PROCESS_CONFIG, "estimator": {**PROCESS_CONFIG["estimator"], key: value}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["process", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("key,value", [("kappa", 0.3), ("burn_in", 2)])
    def test_removed_plan_keys_exit_2(self, tmp_path, key, value):
        cfg = {**PROCESS_CONFIG, "plan": {**PROCESS_CONFIG["plan"], key: value}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["process", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("direction", ["phi_left", "gamma_right"])
    def test_nan_rows_counted(self, tmp_path, direction):
        # replacement onto a pure state: the image of 1 is singular, so every
        # phi_left residual fails; gamma_right residuals use the dual image of 1;
        # no length enters sup_dual_inverse, in either direction
        pure = [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]
        cfg = {
            **PROCESS_CONFIG,
            "ensemble": {"recipe": "replacement", "target": {"blocks": pure}},
            "plan": {**PROCESS_CONFIG["plan"], "direction": direction},
        }
        out = tmp_path / "run"
        stream = cmd_process(cfg, str(out))["streams"][0]
        rows = [line.split(",") for line in open(out / "runs.csv").read().splitlines()[1:]]
        nan_cells = sum(cell == "nan" for row in rows for cell in row)
        assert sum(stream["nan_rows"].values()) == nan_cells
        assert stream["nan_rows"]["residual_inf"] == (len(rows) if direction == "phi_left" else 0)
        assert stream["limit_state_skipped"] is False
        assert stream["sup_dual_inverse_skipped"] == len(rows) == 12
        assert stream["sup_dual_inverse"] == 0.0

    def test_skipped_limit_state_reported(self, tmp_path, monkeypatch):
        from hennion_lab import expcli
        from hennion_lab.errors import KernelStateError

        def fail(*args, **kwargs):
            raise KernelStateError("probe in the kernel")

        monkeypatch.setattr(expcli, "limit_state_estimate", fail)
        out = tmp_path / "run"
        stream = cmd_process(dict(PROCESS_CONFIG), str(out))["streams"][0]
        assert stream["limit_state_skipped"] is True
        assert not any(name.startswith("limit_state") for name in os.listdir(out))


class TestFcsCommand:
    def test_product_generator_run(self, tmp_path):
        out = tmp_path / "fcs"
        summary = cmd_fcs(dict(FCS_CONFIG), str(out))
        assert summary["all_pass"]
        assert summary["degenerate"]
        rows = open(out / "decay.csv").read().strip().splitlines()
        assert rows[0] == "gap,corr,bound_rhs,pass"
        assert len(rows) == 3

    def test_summary_reports_middle_certificates(self, tmp_path):
        summary = cmd_fcs(dict(FCS_CONFIG), str(tmp_path / "fcs"))
        for key in ("C_hat", "kappa", "prefactors"):
            assert key not in summary
        # the product generator's bond maps are the identity: nothing contracts
        assert summary["flank_upper"] == [
            {"gap": 1, "flank_upper": 1.0},
            {"gap": 2, "flank_upper": 1.0},
        ]

    @pytest.mark.parametrize("key,value", [("kappa", 0.5), ("pre_run_length", 12)])
    def test_removed_plan_keys_exit_2(self, tmp_path, key, value):
        cfg = {**FCS_CONFIG, "plan": {**FCS_CONFIG["plan"], key: value}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["fcs", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2

    def test_removed_estimator_key_exit_2(self, tmp_path):
        cfg = {**FCS_CONFIG, "estimator": {"n_samples": 6}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["fcs", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2

    def test_covariance_rows(self, tmp_path):
        out = tmp_path / "fcs"
        cmd_fcs(dict(FCS_CONFIG), str(out))
        rows = open(out / "covariance.csv").read().strip().splitlines()
        assert rows[0] == "shift,deviation,budget,pass"
        assert all(line.endswith(",1") for line in rows[1:])


class TestCliWiring:
    def test_metric_json_flag(self, tmp_path, capsys):
        fx = write_state(tmp_path / "x.json", [1.5, 0.5])
        fy = write_state(tmp_path / "y.json", [0.5, 1.5])
        assert main(["--json", "metric", fx, fy]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["d"] == pytest.approx(0.8, abs=1e-9)

    def test_process_requires_out(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(PROCESS_CONFIG))
        assert main(["process", "--config", str(cfg_path)]) == 2

    def test_process_config_roundtrip(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(PROCESS_CONFIG))
        code = main([
            "--json",
            "process",
            "--config",
            str(cfg_path),
            "--out",
            str(tmp_path / "out"),
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["C_mean"] == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("command", ["process", "fcs"])
    def test_removed_samples_flag_exit_2(self, tmp_path, command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(CONFIGS[command]))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--samples", "6"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["process", "fcs"])
    def test_tolerances_key_exit_2(self, tmp_path, command):
        # the cutoffs are fixed: a config cannot loosen a certificate
        cfg = {**CONFIGS[command], "tolerances": {"cert_margin": -0.5}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


class TestSchemaValidators:
    BAD = [
        ("process", {**PROCESS_CONFIG, "bogus": 1}),
        ("process", {**PROCESS_CONFIG, "plan": {"m_start": 1}}),
        ("process", {**PROCESS_CONFIG, "master_seed": "eleven"}),
        ("fcs", {**FCS_CONFIG, "algebra": {"dims": "two"}}),
        ("map_file", {"kind": "lindblad", "algebra": {"dims": [2], "weights": [1.0]}}),
        ("ensemble", {"recipe": "depolarizing", "eps": "half"}),
    ]

    @pytest.mark.parametrize("name,instance", BAD)
    def test_errors_match_jsonschema_validate(self, name, instance):
        import jsonschema

        from hennion_lab.expcli import _SCHEMAS, _validate

        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(instance, _SCHEMAS[name])
        with pytest.raises(jsonschema.ValidationError) as got:
            _validate(instance, name)
        assert str(got.value) == str(expected.value)
        assert list(got.value.absolute_path) == list(expected.value.absolute_path)

    def test_valid_configs_pass(self):
        from hennion_lab.expcli import _validate

        _validate(PROCESS_CONFIG, "process")
        _validate(FCS_CONFIG, "fcs")

    def test_validator_is_built_once(self):
        from hennion_lab.expcli import _validator

        assert _validator("process") is _validator("process")
