import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from zerosum.engine import ADVERSARY_KINDS, AGENT_KINDS, run_config

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

    def test_missing_files_are_reported(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        payload = json.loads(doc())
        payload["game"] = {"csv": str(tmp_path / "missing.csv")}
        config_path.write_text(json.dumps(payload))
        for argv in (
            ["solve", str(tmp_path / "missing.csv")],
            ["run", str(tmp_path / "missing.json")],
            ["run", str(config_path)],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "missing" in err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["certify", "{matrix}", "--eta", "-0.1", "--alpha", "10"], "--eta"),
            (["certify", "{matrix}", "--eta", "0", "--alpha", "10"], "--eta"),
            (["certify", "{matrix}", "--eta", "nan", "--alpha", "10"], "--eta"),
            (["certify", "{matrix}", "--eta", "0.1", "--alpha", "-5"], "--alpha"),
            (["certify", "{matrix}", "--eta", "0.1", "--alpha", "inf"], "--alpha"),
            (["preset", "spectral-certificate", "--out", "{out}", "--seeds", "1,x"], "--seeds"),
        ],
    )
    def test_bad_flag_is_one_error_line(self, tmp_path, capsys, argv, flag):
        matrix = tmp_path / "mp_unit.csv"
        matrix.write_text("1,0\n0,1\n")
        argv = [arg.format(matrix=matrix, out=tmp_path / "out") for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag}: ") and captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()


def _probe(agent=None, adversary=None, **top):
    payload = json.loads(doc(**top))
    if agent is not None:
        payload["agent"] = agent
    if adversary is not None:
        payload["adversary"] = adversary
    return payload


# Bad documents, each with the key its one-line error must name.
PROBES = [
    (_probe(agent={"kind": "AMWU", "eta": 0.1, "alpha": "x"}), "agent.alpha"),
    (_probe(adversary={"kind": "oblivious_mwu", "eta": "x"}), "adversary.eta"),
    (_probe(agent={"kind": "AMWU", "eta": 0.1, "b": -400}), "agent.b"),
    (_probe(agent={"kind": "MWU", "eta": True}), "agent.eta"),
    (_probe(agent={"kind": "MWU", "eta": "1e400"}), "agent.eta"),  # the JSON number 1e400
    (_probe(adversary={"kind": "oblivious_mwu", "eta": 0.5, "recorder_eta": -0.1}), "recorder_eta"),
    (_probe(agent={"kind": "FTRL", "eta": 0.1}, adversary={"kind": "self_play"}), "agent.kind"),
    *[
        (_probe(agent={"kind": k, "eta": 0.1, "alpha": 5}), "alpha")
        for k in ("MWU", "OMWU", "FTRL", "OFTRL")
    ],
    *[
        (_probe(agent={"kind": k, "eta": 0.1, "regularizer": "entropy"}), "regularizer")
        for k in ("AMWU", "MWU", "OMWU")
    ],
    *[(_probe(agent={"kind": k, "eta": 0.1}), "eta") for k in ("BestResponse", "ProdBR")],
    (_probe(agent={"kind": "MWU", "eta": 0.1, "name": 7}), "agent.name"),
    (_probe(game={"csv": 3}), "game.csv"),
    (_probe(agent=["MWU"]), "agent"),
    (_probe(game={"random": 5}), "game.random"),
]


def _text(payload) -> str:
    return json.dumps(payload).replace('"1e400"', "1e400")


class TestBadConfigs:
    @pytest.mark.parametrize("payload,key", PROBES)
    def test_one_error_line_names_the_key(self, tmp_path, capsys, payload, key):
        path = tmp_path / "bad.json"
        path.write_text(_text(payload))
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(_text(payload))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert re.search(rf"\b{re.escape(key)}\b", captured.err)


_AGENT_KEYS = sorted({key for rule in AGENT_KINDS.values() for key in rule.keys} | {"name"})
_PATHS = (
    ["agent", "agent.kind", "agent.learningrate", "adversary.kind", "horizon", "metrics", "output"]
    + [f"agent.{key}" for key in _AGENT_KEYS]
    + ["adversary.eta", "adversary.recorder_eta"]
    + ["game.random", "game.random.n", "game.random.seed"]
)
# Valid and invalid values alike; "1e400" stands for that JSON number.
_VALUES = [
    0.5, 2, 0, -400, True, "x", "1e400", None, {}, "squared_l2", "self_play", ["exploitability"],
]
_DELETE = object()


@st.composite
def _documents(draw):
    """A valid document, then up to two keys set to drawn values or removed.

    Returns the document and the paths of the keys changed."""
    kind = draw(st.sampled_from(sorted(AGENT_KINDS)))
    rule = AGENT_KINDS[kind]
    agent = {"kind": kind}
    for key, value in (("eta", 0.1), ("alpha", 2.0), ("b", 0.5), ("regularizer", "squared_l2"),
                       ("name", "x")):
        if key in rule.keys and (key == "eta" or draw(st.booleans())):
            agent[key] = value
    if "alpha" in agent and "b" in agent:
        del agent["b"]
    adv_kinds = sorted(k for k in ADVERSARY_KINDS if rule.self_play or k != "self_play")
    adversary = {"kind": draw(st.sampled_from(adv_kinds))}
    for key, value in (("eta", 0.3), ("recorder_eta", 0.2)):
        if key in ADVERSARY_KINDS[adversary["kind"]].keys and (key == "eta" or draw(st.booleans())):
            adversary[key] = value
    payload = {
        "game": {"random": {"n": 3, "m": 3, "seed": draw(st.integers(0, 50))}},
        "horizon": 2,
        "agent": agent,
        "adversary": adversary,
    }
    changed = []
    for _ in range(draw(st.sampled_from((1, 2, 0)))):
        path = draw(st.sampled_from(_PATHS))
        *parents, leaf = path.split(".")
        obj = payload
        for part in parents:
            obj = obj.get(part) if isinstance(obj, dict) else None
        if not isinstance(obj, dict):
            continue  # a parent was replaced by an earlier change
        value = draw(st.sampled_from(_VALUES + [_DELETE]))
        if value is _DELETE:
            obj.pop(leaf, None)
        else:
            obj[leaf] = value
        changed.append(path)
    return payload, changed


class TestParseConfigProperty:
    @given(_documents())
    @settings(max_examples=400, deadline=None)
    def test_parses_to_a_runnable_config_or_names_the_key(self, drawn):
        payload, changed = drawn
        try:
            config = parse_config(_text(payload))
        except ConfigError as exc:
            assert changed, f"valid document rejected: {exc}"
            leaves = [path.split(".")[-1] for path in changed]
            assert any(re.search(rf"\b{leaf}\b", str(exc)) for leaf in leaves), (str(exc), changed)
            return
        series = run_config(config)
        assert set(series) == set(config.metrics)
        assert all(np.all(np.isfinite(v)) for v in series.values())
        assert parse_config(config_to_json(config)) == config
