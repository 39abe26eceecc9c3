import copy
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum.cli import (
    CSV_HEADER,
    PRESETS,
    ConfigError,
    SeriesRecord,
    centered_random_game,
    emit_csv,
    main,
    parse_config,
    parse_seeds,
    run_preset,
)
from zerosum import cli, engine
from zerosum.core import MatrixGame, binary_exponent
from zerosum.engine import ADVERSARY_KINDS, AGENT_KINDS, build_agent, grid_run
from zerosum.nash import GAP_TOL, solve_zero_sum
from zerosum.regularizers import ENTROPY

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
        assert cfg.agent.regularizer is None
        assert "average_loss" in cfg.metrics
        assert cfg.output is None
        ftrl = parse_config(doc(agent={"kind": "FTRL", "eta": 0.1})).agent
        assert ftrl.regularizer is None and build_agent([ftrl], 4, 100).reg is ENTROPY

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

    def test_document_must_be_an_object(self):
        with pytest.raises(ConfigError, match=r"^config must be a JSON object$"):
            parse_config("[]")

    def test_metrics_must_be_a_list(self):
        with pytest.raises(ConfigError, match="metrics: must be a list"):
            parse_config(doc(metrics="average_loss"))

    def test_self_play_metrics(self):
        cfg = parse_config(
            doc(agent={"kind": "AMWU", "eta": 0.01, "alpha": 100},
                adversary={"kind": "self_play"})
        )
        assert set(cfg.metrics) == {"exploitability", "kl_to_ne"}


def row_by_row_csv(records, path) -> None:
    """``emit_csv`` as one f-string a row: the oracle of its row templates."""
    records = sorted(records, key=lambda r: (
        r.learner, r.metric, -1 if r.seed is None else r.seed,
        -1.0 if r.adversary_eta is None else r.adversary_eta,
    ))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            prefix = f"{rec.learner},{rec.metric},"
            eta = "" if rec.adversary_eta is None else f"{rec.adversary_eta:.12g}"
            suffix = f",{'' if rec.seed is None else rec.seed},{eta}\n"
            fh.write("".join([f"{t},{prefix}{v:.12g}{suffix}"
                              for t, v in enumerate(rec.values.tolist(), 1)]))


def _python(*args):
    """A fresh Python process that imports this zerosum, run to its end."""
    src = str(Path(cli.__file__).resolve().parents[1])  # the directory holding zerosum
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)


class TestEmitCsv:
    def test_rows_equal_the_row_by_row_writer(self, tmp_path):
        # names holding % (escaped in the row template) or non-ASCII, edge values,
        # short series, and one at last-round's horizon
        values = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 123456789012.5,
                  1e-5, 0.1, 1 / 3]
        records = [
            SeriesRecord(name, metric, np.resize(values, length), seed, eta)
            for name, metric, seed, eta in [("100%", "m", 1, 0.05), ("a%d%%", "x%.12g", None, None),
                                            ("x%.12g", "m", 0, 1 / 3), ("AMWU(α=1)", "m", 2, 0.1)]
            for length in (0, 1, 63, 64, 65, 197)
        ] + [SeriesRecord("AMWU", "kl_to_ne", np.resize(values, 100_000), 5, None)]
        got, expected = tmp_path / "got.csv", tmp_path / "expected.csv"
        emit_csv(records, got)
        row_by_row_csv(records, expected)
        assert got.read_bytes() == expected.read_bytes()
        assert "1,a%d%%,x%.12g,nan,,\n" in got.read_text(encoding="utf-8")

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

    def test_peak_memory_is_one_record_not_the_file(self, tmp_path):
        # rows are written as each record is formatted, not gathered for the whole file
        rng = np.random.default_rng(1)
        records = [SeriesRecord(f"L{i % 5}", "loss", rng.uniform(0, 1, 1000), seed=i // 5,
                                adversary_eta=0.05) for i in range(100)]
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            emit_csv(records, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_text().count("\n") == 100_001
        assert peak < path.stat().st_size / 4

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_peak_rss_growth_of_a_last_round_emit(self, tmp_path):
        # tracemalloc cannot see the RSS that the writer's layout decides.  Last-round's 8
        # series of 1e5 rows grew a fresh process's peak RSS by 18.4 MB written as one bytes %
        # call a series, and by 22.9 MB as a str % call then .encode() (10 runs each); the
        # bound is their midpoint.  The peak is VmHWM, this address space's: ru_maxrss starts
        # a spawned process at its parent's RSS, so under pytest it hid both
        script = textwrap.dedent("""\
            import sys
            import numpy as np
            from zerosum.cli import LAST_ROUND_AGENTS, LAST_ROUND_HORIZON, SeriesRecord, emit_csv

            def peak_kb():
                with open("/proc/self/status") as fh:
                    return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

            rng = np.random.default_rng(0)
            records = [SeriesRecord(spec.name, metric, rng.uniform(0, 1, LAST_ROUND_HORIZON), 1)
                       for spec in LAST_ROUND_AGENTS for metric in ("exploitability", "kl_to_ne")]
            before = peak_kb()
            emit_csv(records, sys.argv[1])
            print(peak_kb() - before)
        """)
        run = _python("-c", script, str(tmp_path / "last_round.csv"))
        assert run.returncode == 0, run.stderr
        assert int(run.stdout) / 1024 < 20.6, f"peak RSS grew {int(run.stdout) / 1024:.2f} MB"


# The reference output: the sha256 of each preset's CSV and manifest at --seeds 1.
REFERENCE_SHA256 = {
    "oblivious-loss": ("892fd0e399515fd39a8de6fbcba5f986e4a41ffee8029b8134da7a5106cecad2",
                       "837c41d09743eef577216bbdf20bad2b77a73e6b60b27a4e95ce750689309534"),
    "nonoblivious-regret": ("4693fee1b34ed9d847181e1cbb9bd7aae2193a3163d2acd97c62f59076b66a3d",
                            "ffb97f1bb950d59d9ad2a05ac9cf481ac9f53d832bd01b494178ea49c2fa7e69"),
    "last-round": ("95a33d34e9de260ff7862c7fae591d123390329786dda42155540e1a7825780b",
                   "87e1ee6be02eba9faa46c04e4789dfb1b798bf03b10afb6dbfd1d67480175827"),
    "spectral-certificate": ("56b0191fd85fdf793fd56a1527fc60949fc5e208272fe5f33ad0b8d4d5d03213",
                             "2f2b345a8990f06e7d26496ae32ed6479aa90458dacf4c245b2e935537ead3e7"),
}
# The sha256 of what ``zerosum demo`` prints, for each flag set (no flags: the defaults).
DEMO_SHA256 = {
    (): "44d501068ee139f66c77768aea5d3b7dd4ed19d86187ee03579403fa4c0a93da",
    ("--seed", "7", "--size", "9", "--horizon", "3000"):
        "decc7d5c34aba81b0b647be98b2a58352584138e9f29c077d5b84174ecc2fda9",
    ("--size", "3", "--horizon", "50"):
        "7f886fbada8d291533981b74f9e00e5aa71d2b4dcd110c2c4bf71338bedef554",
}


class TestPresets:
    # the quick tier checks the bytes of every preset but last-round (4.5 s)
    @pytest.mark.parametrize("name", [
        pytest.param(name, marks=pytest.mark.slow) if name == "last-round" else name
        for name in REFERENCE_SHA256
    ])
    def test_reference_output(self, tmp_path, name):
        assert run_preset(name, tmp_path, [1]) == 0
        written = (tmp_path / PRESETS[name].csv, tmp_path / "manifest.json")
        digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in written)
        assert digests == REFERENCE_SHA256[name]

    def test_preset_command_prints_the_digests(self, tmp_path, capsys):
        out = tmp_path / "D"
        assert main(["preset", "spectral-certificate", "--out", str(out), "--seeds", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        written = [out / PRESETS["spectral-certificate"].csv, out / "manifest.json"]
        assert lines == [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path}"
                         for path in written]

    def test_unknown_preset(self, tmp_path):
        with pytest.raises(ValueError, match=r"^preset: unknown value 'bogus'; choose from "):
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

    def test_failed_config_is_one_failure_line(self, tmp_path, monkeypatch):
        # a grid preset writes the configs that ran, and lists each failed one by index
        vs_mwu = engine._vs_mwu

        def failing_at_04(row, unit, etas, T):
            if 0.4 in etas:
                raise ValueError("replay failed")
            return vs_mwu(row, unit, etas, T)

        agents = (engine.AgentSpec(kind="MWU", eta=0.1, name="MWU"),
                  engine.AgentSpec(kind="ProdBR", name="ProdBR"))
        preset = cli._grid_preset("grid.csv", agents, 20, "oblivious_mwu", ("average_loss",),
                                  (0.4, 0.5))
        monkeypatch.setitem(PRESETS, "grid", preset)
        monkeypatch.setattr(engine, "_vs_mwu", failing_at_04)
        assert run_preset("grid", tmp_path, [1]) == 2
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["failures"] == [f"config {i}: ValueError: replay failed" for i in (0, 1)]
        rows = (tmp_path / "grid.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 * 20 and all(row.endswith(",1,0.5") for row in rows)

    def test_failed_certificate_game_is_one_failure_line(self, tmp_path, monkeypatch):
        radius = cli.spectral_radius_at_ne

        def failing_on_pennies(game, ne, eta, alpha):
            if game.n == 2:
                raise FloatingPointError("radius failed")
            return radius(game, ne, eta, alpha)

        monkeypatch.setattr(cli, "spectral_radius_at_ne", failing_on_pennies)
        assert run_preset("spectral-certificate", tmp_path, [1]) == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["failures"] == ["matching_pennies: FloatingPointError: radius failed"]
        body = (tmp_path / "spectral_certificate.csv").read_text()
        assert "matching_pennies" not in body and body.count("\n") == 1 + 10

    def test_centered_game_range(self):
        g = centered_random_game(3, 3, 5)
        assert g.payoff.min() >= -1.0 and g.payoff.max() <= 1.0
        assert g.payoff.min() < 0.0 < g.payoff.max()

    def test_a_learner_name_means_one_agent(self):
        # within and across cli's agent tables, a shared name is an equal spec, so a
        # learner column names one agent in every grid preset
        tables = [table.values() if isinstance(table, dict) else table
                  for table in vars(cli).values() if isinstance(table, (tuple, dict))]
        by_name = {}
        for spec in (spec for table in tables for spec in table):
            if isinstance(spec, engine.AgentSpec):
                assert by_name.setdefault(spec.display_name, spec) == spec, spec.display_name
        assert set(by_name) >= {"MWU", "OMWU", "AMWU", "OMWU1", "ProdBR"}


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

    def test_certify_pure_saddle(self, tmp_path, capsys):
        # at a pure saddle q is a vertex, so both couplings diag(q) - q q' vanish, and
        # each side's other action keeps its weight times exp(-eta * 1), 1 being its
        # loss gap: the radius is that factor exactly
        path = tmp_path / "saddle.csv"
        path.write_text("1,2\n0,3\n")
        assert main(["certify", str(path), "--eta", "0.1", "--alpha", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["spectral_radius"] == math.exp(-0.1)

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

    def test_run_command_prints_the_summary(self, tmp_path, capsys):
        payload = json.loads(doc())
        payload["horizon"] = 50
        (tmp_path / "cfg.json").write_text(json.dumps(payload))
        assert main(["run", str(tmp_path / "cfg.json")]) == 0
        summary = json.loads(capsys.readouterr().out)
        (outcome,) = grid_run([parse_config(json.dumps(payload))])
        assert set(summary) == set(outcome.series)
        for metric, values in outcome.series.items():
            assert summary[metric] == {"final": values[-1], "mean": np.mean(values),
                                       "std": np.std(values)}

    def test_overflowing_payoff_range_runs(self, tmp_path, capsys):
        # finite entries whose max - min overflows still map onto [0, 1]
        (tmp_path / "m.csv").write_text("1e308,-1e308\n-1e308,1e308\n")
        payload = json.loads(doc(game={"csv": str(tmp_path / "m.csv")}, horizon=20,
                                 adversary={"kind": "self_play"}, agent={"kind": "MWU", "eta": 0.1}))
        (tmp_path / "cfg.json").write_text(json.dumps(payload))
        assert main(["run", str(tmp_path / "cfg.json")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "matrix,argv,message",
        [("1,0\n0,1\n", ["certify", "--eta", "1e300", "--alpha", "1e300"],
          "non-finite Jacobian entries")],
        ids=["certify-extreme-rates"],
    )
    def test_overflow_is_one_error_line(self, tmp_path, capsys, matrix, argv, message):
        # no traceback and no numpy warning ahead of the one error line
        path = tmp_path / "m.csv"
        path.write_text(matrix)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([argv[0], str(path), *argv[1:]]) == 2
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("stake", ["1e308", "5000000"])
    def test_extreme_matrix_solves(self, tmp_path, capsys, stake):
        # pennies at any stake is solved scaled by 2**-e to max|a| in (0.5, 1]: the
        # profile is the prescaled game's, and the value and the gap, taken on the
        # matrix itself, are its own times 2**e, within GAP_TOL * 2**e
        path = tmp_path / "m.csv"
        path.write_text(f"{stake},-{stake}\n-{stake},{stake}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["solve", str(path)]) == 0
        assert caught == []
        captured = capsys.readouterr()
        a = MatrixGame.from_csv(path).payoff
        e = binary_exponent(a)
        ne = solve_zero_sum(MatrixGame(np.ldexp(a, -e)))
        expected = {"f_star": ne.f_star.tolist(), "y_star": ne.y_star.tolist(),
                    "value": math.ldexp(ne.value, e), "gap": math.ldexp(ne.gap, e)}
        assert captured.out == json.dumps(expected, sort_keys=True, indent=2) + "\n"
        assert expected["gap"] <= math.ldexp(GAP_TOL, e)
        assert captured.err == ""

    def test_kl_to_ne_never_reads_below_zero(self, tmp_path, capsys):
        # the iterates of this run lie within rounding of the equilibrium, where
        # the divergence's sum rounded to -1.1e-16
        (tmp_path / "m.csv").write_text("1e308,-1e308\n-1e308,1e308\n")
        payload = json.loads(doc(game={"csv": str(tmp_path / "m.csv")}, horizon=20,
                                 adversary={"kind": "self_play"}, agent={"kind": "MWU", "eta": 0.1},
                                 metrics=["kl_to_ne"]))
        (tmp_path / "cfg.json").write_text(json.dumps(payload))
        assert main(["run", str(tmp_path / "cfg.json")]) == 0
        summary = json.loads(capsys.readouterr().out)["kl_to_ne"]
        assert summary["final"] == summary["mean"] == 0.0

    def test_bad_config_is_reported(self, tmp_path, capsys):
        config_path = tmp_path / "bad.json"
        config_path.write_text("{}")
        assert main(["run", str(config_path)]) == 2
        assert "game" in capsys.readouterr().err

    def test_failed_run_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # a run that raises anything, not only a ValueError, ends in one line naming its type
        def out_of_memory(*args, **kwargs):
            raise MemoryError("cannot allocate the blocks")

        monkeypatch.setattr(engine, "_vs_adversary_batch", out_of_memory)
        out_csv = tmp_path / "series.csv"
        for payload in (doc(), doc(output=str(out_csv))):
            (tmp_path / "cfg.json").write_text(payload)
            assert main(["run", str(tmp_path / "cfg.json")]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: MemoryError: cannot allocate the blocks\n"
        assert not out_csv.exists()

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

    def test_files_that_are_not_utf8_are_named(self, tmp_path, capsys):
        # a Latin-1 byte in the payoff CSV's line 2, or in the config: one error line that
        # names the file, and the CSV's line, whether the CSV is solved or a config's game
        matrix, config_path = tmp_path / "latin1.csv", tmp_path / "cfg.json"
        matrix.write_bytes(b"1,2\n3,\xe9\n")
        payload = json.loads(doc())
        payload["game"] = {"csv": str(matrix)}
        config_path.write_text(json.dumps(payload))
        latin1_config = tmp_path / "latin1.json"
        latin1_config.write_bytes(doc().encode() + b" \xe9\n")
        for argv, where in (
            (["solve", str(matrix)], f"{matrix}:2: "),
            (["run", str(latin1_config)], f"{latin1_config}: "),
            (["run", str(config_path)], f"{matrix}:2: "),
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert where in captured.err

    @pytest.mark.parametrize("where", ["missing/series.csv", "a_directory"])
    def test_bad_output_fails_before_the_run(self, tmp_path, capsys, monkeypatch, where):
        # an output the run could not write is an error before anything is simulated
        (tmp_path / "a_directory").mkdir()
        monkeypatch.setattr(cli, "grid_run", lambda configs: pytest.fail("grid_run was called"))
        output = str(tmp_path / where)
        (tmp_path / "cfg.json").write_text(doc(output=output))
        before = sorted(tmp_path.rglob("*"))
        assert main(["run", str(tmp_path / "cfg.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: output: must be a file in an existing directory, got {output!r}\n")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["certify", "{matrix}", "--eta", "-0.1", "--alpha", "10"], "--eta"),
            (["certify", "{matrix}", "--eta", "0", "--alpha", "10"], "--eta"),
            (["certify", "{matrix}", "--eta", "nan", "--alpha", "10"], "--eta"),
            (["certify", "{matrix}", "--eta", "0.1", "--alpha", "-5"], "--alpha"),
            (["certify", "{matrix}", "--eta", "0.1", "--alpha", "inf"], "--alpha"),
            (["preset", "spectral-certificate", "--out", "{out}", "--seeds", "1,x"], "--seeds"),
            (["preset", "spectral-certificate", "--out", "{out}", "--seeds", ""], "--seeds"),
            (["preset", "spectral-certificate", "--out", "{out}", "--seeds", "1,,2"], "--seeds"),
            (["preset", "oblivious-loss", "--out", "{out}", "--seeds", "1,2,"], "--seeds"),
            (["preset", "last-round", "--out", "{out}", "--seeds", "1.5"], "--seeds"),
            (["preset", "spectral-certificate", "--out", "{out}", "--seeds", "1,1"], "--seeds"),
            (["certify", "{matrix}", "--eta", "1e-400", "--alpha", "10"], "--eta"),  # reads as 0
            (["certify", "{matrix}", "--eta", "0.1", "--alpha", "1e400"], "--alpha"),  # reads as inf
            (["certify", "{matrix}", "--eta", "x", "--alpha", "10"], "--eta"),
            (["certify", "{matrix}", "--eta", "0.1", "--alpha", "x"], "--alpha"),
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

    def test_parallelism_is_an_unknown_flag(self, tmp_path, capsys):
        # batches run one after another, so there is nothing to set
        assert main(["preset", "spectral-certificate", "--out", str(tmp_path / "out"),
                     "--parallelism", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unrecognized arguments: --parallelism 4\n"
        assert not (tmp_path / "out").exists()

    def test_missing_flag_is_one_error_line(self, tmp_path, capsys):
        matrix = tmp_path / "mp_unit.csv"
        matrix.write_text("1,0\n0,1\n")
        assert main(["certify", str(matrix), "--alpha", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the following arguments are required: --eta\n"

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["certify", "--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: zerosum certify")


class TestSeeds:
    """``zerosum preset`` reads ``--seeds`` with ``parse_seeds``; its bad values are
    cases of ``TestMainCommands.test_bad_flag_is_one_error_line``."""

    def test_seeds_and_default(self, tmp_path, monkeypatch):
        assert parse_seeds("3,1,-2") == [3, 1, -2]
        seen, run = [], cli.run_preset
        monkeypatch.setattr(cli, "run_preset",
                            lambda name, out, seeds: seen.append(seeds) or run(name, out, seeds))
        assert main(["preset", "spectral-certificate", "--out", str(tmp_path)]) == 0
        assert seen == [[1, 2, 3, 4, 5]]

    def test_unseeded_preset_files_do_not_depend_on_the_seeds(self, tmp_path):
        # the certificate games are fixed, so its manifest lists no seeds
        files = []
        for seeds in ("1", "1,2,3,4,5"):
            out = tmp_path / seeds
            assert main(["preset", "spectral-certificate", "--out", str(out), "--seeds", seeds]) == 0
            files.append([(out / name).read_bytes()
                          for name in (PRESETS["spectral-certificate"].csv, "manifest.json")])
        assert files[0] == files[1]
        assert json.loads(files[0][1])["seeds"] == []


class TestConvergenceDemo:
    @pytest.mark.parametrize("flags", list(DEMO_SHA256))
    def test_reference_output(self, capsys, flags):
        assert main(["demo", *flags]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == DEMO_SHA256[flags]

    def test_short_horizon_keeps_its_checkpoints(self, capsys):
        assert main(["demo", "--size", "3", "--horizon", "50"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split() == ["agent", "t=25", "t=50"]
        assert all(len(line.split()) == 3 for line in lines[2:5])

    @pytest.mark.parametrize(
        "flags",
        [["--size", "1"], ["--horizon", "1"], ["--size", "3", "--horizon", "0"],
         ["--size", "x"], ["--seed", "x"], ["--bogus"]],
    )
    def test_bad_flag_is_one_error_line(self, capsys, flags):
        assert main(["demo", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        named = "unrecognized arguments: --bogus" if flags == ["--bogus"] else f"{flags[-2]}: "
        assert captured.err.startswith(f"error: {named}") and captured.err.count("\n") == 1

    def test_failed_run_is_one_error_line(self, capsys, monkeypatch):
        def overflow(*args, **kwargs):  # every two-player loop, the replay recordings too
            raise FloatingPointError("overflow")

        monkeypatch.setattr(engine, "_play", overflow)
        assert main(["demo", "--size", "3", "--horizon", "50"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: FloatingPointError") and captured.err.count("\n") == 1


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
    (_probe(adversary={"kind": "oblivious_mwu", "eta": 0.5, "recorder_eta": 0.2}), "recorder_eta"),
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
    (_probe(agent={"kind": "AFTRL", "eta": 0.1, "regularizer": "huber"}), "agent.regularizer"),
    (_probe(agent={"kind": "MWU", "eta": 0.1, "name": "MWU,fast\nx"}), "agent.name"),  # one CSV field
    (_probe(agent={"kind": "MWU", "eta": 0.1, "name": '"MWU'}), "agent.name"),  # written unquoted
    (_probe(game={**MINIMAL["game"], "csv": "m.csv"}), "game"),  # two sources
    (_probe(agent={"kind": "MWU", "eta": 10**400}), "agent.eta"),  # an integer past the floats
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

    @pytest.mark.parametrize("text,key", [
        (doc()[:-1] + ', "horizon": 20}', "horizon"),
        (doc().replace('"eta": 0.1', '"eta": 0.1, "eta": 0.2'), "agent.eta"),
    ], ids=["top-level", "nested"])
    def test_repeated_key_is_named_by_its_path(self, tmp_path, capsys, text, key):
        # JSON would keep the last value; a config says each key once
        path = tmp_path / "repeated.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: repeated key$"):
            parse_config(text)
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {key}: repeated key\n"

    @pytest.mark.parametrize("game,reason", [
        ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
        ("9" * 4301, "Exceeds the limit (4300 digits)"),
    ], ids=["nested-100000-deep", "integer-of-4301-digits"])
    def test_json_it_cannot_read_is_malformed(self, tmp_path, capsys, game, reason):
        path = tmp_path / "unreadable.json"
        path.write_text(doc(game="@").replace('"@"', game))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: malformed JSON: {reason}")
        assert captured.err.count("\n") == 1

    def test_nesting_too_deep_for_the_null_walk_is_malformed(self, tmp_path, capsys, monkeypatch):
        # where the decoder nests deeper than Python's stack, the walk for nulls and repeated
        # keys runs out of it
        deep = {}
        for _ in range(100_000):
            deep = {"a": deep}
        decoded = {**MINIMAL, "agent": deep}
        monkeypatch.setattr(cli, "json", SimpleNamespace(loads=lambda text, **hook: decoded))
        path = tmp_path / "deep.json"
        path.write_text("{}")
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: malformed JSON: maximum recursion depth exceeded")
        assert captured.err.count("\n") == 1

    def test_recorder_rate_is_an_unknown_key(self, tmp_path, capsys):
        # the oblivious replay is MWU(eta) recorded against MWU(eta): one rate
        path = tmp_path / "recorder.json"
        path.write_text(doc(adversary={"kind": "oblivious_mwu", "eta": 0.5, "recorder_eta": 0.5}))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: adversary: unknown key 'recorder_eta'; accepted: eta, kind\n"


_AGENT_KEYS = sorted({key for rule in AGENT_KINDS.values() for key in rule.keys} | {"name"})
_PATHS = (
    ["agent", "agent.kind", "agent.learningrate", "adversary.kind", "horizon", "metrics", "output"]
    + [f"agent.{key}" for key in _AGENT_KEYS]
    + ["adversary.eta", "adversary.recorder_eta"]  # recorder_eta: a key no kind reads
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
    self_plays = rule.build is AGENT_KINDS["MWU"].build  # the multiplicative kinds
    adv_kinds = sorted(k for k in ADVERSARY_KINDS if self_plays or k != "self_play")
    adversary = {"kind": draw(st.sampled_from(adv_kinds))}
    if "eta" in ADVERSARY_KINDS[adversary["kind"]].keys:
        adversary["eta"] = 0.3
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
            obj[leaf] = copy.deepcopy(value)  # the drawn {} or [...] is shared between draws
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
        (outcome,) = grid_run([config])
        assert outcome.error is None, outcome.error
        series = outcome.series
        assert set(series) == set(config.metrics)
        assert all(np.all(np.isfinite(v)) for v in series.values())


class TestModules:
    """The package holds only ``__version__``: each name is imported from its module."""

    MODULES = ("core", "regularizers", "learners", "metrics", "nash", "engine", "cli")

    @pytest.mark.parametrize("module", MODULES)
    def test_each_module_imports_alone(self, module):
        run = _python("-c", f"import zerosum.{module}")
        assert run.returncode == 0, run.stderr

    def test_package_has_no_public_name(self):
        run = _python("-c", "import json, zerosum; print(json.dumps(sorted(vars(zerosum))))")
        assert run.returncode == 0, run.stderr
        names = json.loads(run.stdout)
        assert "__version__" in names
        assert [name for name in names if not name.startswith("_")] == []

    def test_cli_module_runs(self):
        run = _python("-m", "zerosum.cli", "--help")
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("usage: zerosum")

    def test_cli_module_runs_a_command(self, tmp_path, capsys):
        path = tmp_path / "mp.csv"
        path.write_text("1,-1\n-1,1\n")
        run = _python("-m", "zerosum.cli", "solve", str(path))
        assert run.returncode == 0, run.stderr
        assert main(["solve", str(path)]) == 0
        assert json.loads(run.stdout) == json.loads(capsys.readouterr().out)
