import json

import numpy as np
import pytest

from zerosum.cli import (
    CSV_HEADER,
    ConfigError,
    SeriesRecord,
    centered_random_game,
    config_to_json,
    emit_csv,
    main,
    parse_config,
    run_preset,
)

MINIMAL = {
    "game": {"random": {"n": 4, "m": 4, "seed": 1}},
    "horizon": 100,
    "agent": {"kind": "MWU", "eta": 0.1},
    "adversary": {"kind": "oblivious_mwu", "eta": 0.5},
}


def doc(**overrides):
    out = json.loads(json.dumps(MINIMAL))
    out.update(overrides)
    return json.dumps(out)


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(doc())
        assert cfg.agent.regularizer == "entropy"
        assert "average_loss" in cfg.metrics
        assert cfg.output is None

    def test_unknown_top_key(self):
        with pytest.raises(ConfigError, match="'extra'"):
            parse_config(doc(extra=1))

    def test_unknown_agent_key(self):
        bad = json.loads(doc())
        bad["agent"]["learningrate"] = 0.1
        with pytest.raises(ConfigError, match="learningrate"):
            parse_config(json.dumps(bad))

    def test_horizon_zero(self):
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(doc(horizon=0))

    def test_eta_must_be_positive(self):
        bad = json.loads(doc())
        bad["agent"]["eta"] = -0.5
        with pytest.raises(ConfigError, match="agent.eta"):
            parse_config(json.dumps(bad))

    def test_b_exponent_resolves_alpha(self):
        cfg = parse_config(
            doc(agent={"kind": "AMWU", "eta": 0.01, "b": 0.5})
        )
        assert cfg.agent.resolved_alpha() == pytest.approx(10.0)

    def test_alpha_and_b_conflict(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(doc(agent={"kind": "AMWU", "eta": 0.01, "alpha": 5, "b": 0.5}))

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config("{not json")

    def test_unknown_metric(self):
        with pytest.raises(ConfigError, match="spectral"):
            parse_config(doc(metrics=["spectral"]))

    def test_metrics_must_be_a_list(self):
        with pytest.raises(ConfigError, match="metrics: must be a list"):
            parse_config(doc(metrics="average_loss"))

    def test_self_play_metrics(self):
        cfg = parse_config(
            doc(agent={"kind": "AMWU", "eta": 0.01, "alpha": 100},
                adversary={"kind": "self_play"})
        )
        assert set(cfg.metrics) == {"exploitability", "kl_to_ne"}

    def test_round_trip(self):
        for document in (
            doc(),
            doc(agent={"kind": "AMWU", "eta": 0.01, "b": 0.5}, metrics=["external_regret"]),
            doc(adversary={"kind": "self_play"},
                agent={"kind": "OMWU", "eta": 1.0, "name": "OMWU1"}),
        ):
            cfg = parse_config(document)
            again = parse_config(config_to_json(cfg))
            assert again == cfg


class TestEmitCsv:
    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_row_count_and_order(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv(
            [SeriesRecord(learner="MWU", metric="m", values=np.array([1.0, 2.0, 3.0]), seed=1)],
            path,
        )
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0] == CSV_HEADER
        assert lines[1] == "1,MWU,m,1,1,"

    def test_significant_digits(self, tmp_path):
        path = tmp_path / "digits.csv"
        emit_csv(
            [SeriesRecord("A", "x", np.array([1 / 3]), seed=2, adversary_eta=0.05)], path
        )
        row = path.read_text().splitlines()[1]
        assert row == "1,A,x,0.333333333333,2,0.05"

    def test_byte_identical_reemission(self, tmp_path):
        rng = np.random.default_rng(0)
        records = [
            SeriesRecord("B", "regret", rng.normal(0, 1, 50), seed=3, adversary_eta=0.1),
            SeriesRecord("A", "loss", rng.uniform(0, 1, 50), seed=1),
        ]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(records, p1)
        emit_csv(records, p2)
        assert p1.read_bytes() == p2.read_bytes()
        # ordering by (learner, metric, seed, t)
        lines = p1.read_text().splitlines()
        assert lines[1].split(",")[1] == "A"
        assert lines[51].split(",")[1] == "B"


class TestPresets:
    def test_unknown_preset(self, tmp_path):
        with pytest.raises(ConfigError, match="valid presets"):
            run_preset("bogus", tmp_path, [1])

    def test_spectral_certificate_preset(self, tmp_path):
        failures = run_preset("spectral-certificate", tmp_path, [1])
        assert failures == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["preset"] == "spectral-certificate"
        body = (tmp_path / "spectral_certificate.csv").read_text()
        assert body.startswith(CSV_HEADER)
        # both update rules certified on matching pennies and 5 games
        assert body.count("spectral_radius_matching_pennies") == 2
        assert body.count("AMWU") == 6
        assert body.count("MWU") == 12  # "AMWU" rows contain "MWU" as a substring

    def test_centered_game_range(self):
        g = centered_random_game(3, 3, 5)
        assert g.payoff.min() >= -1.0 and g.payoff.max() <= 1.0
        assert g.payoff.min() < 0.0 < g.payoff.max()


class TestMainCommands:
    def test_solve_command(self, tmp_path, capsys):
        path = tmp_path / "mp.csv"
        path.write_text("1,-1\n-1,1\n")
        assert main(["solve", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(0.0, abs=1e-9)
        assert out["gap"] <= 1e-9
        np.testing.assert_allclose(out["f_star"], [0.5, 0.5], atol=1e-9)

    def test_certify_command(self, tmp_path, capsys):
        path = tmp_path / "mp_unit.csv"
        path.write_text("1,0\n0,1\n")
        assert main(["certify", str(path), "--eta", "0.1", "--alpha", "10"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["spectral_radius"] == pytest.approx(0.98, abs=0.01)

    def test_run_command_emits_csv(self, tmp_path):
        config_path = tmp_path / "cfg.json"
        out_csv = tmp_path / "series.csv"
        payload = json.loads(doc())
        payload["horizon"] = 50
        payload["metrics"] = ["average_loss"]
        payload["output"] = str(out_csv)
        config_path.write_text(json.dumps(payload))
        assert main(["run", str(config_path)]) == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 51

    def test_bad_config_is_reported(self, tmp_path, capsys):
        config_path = tmp_path / "bad.json"
        config_path.write_text("{}")
        assert main(["run", str(config_path)]) == 2
        assert "game" in capsys.readouterr().err
