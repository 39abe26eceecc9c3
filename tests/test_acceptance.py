"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; the suite is
deterministic end to end (seeded games, seeded streams, no wall-clock
dependence).
"""
import hashlib

import numpy as np
import pytest

from zerosum.cli import (
    CERTIFICATE_3X3_SEEDS,
    MATCHING_PENNIES_UNIT,
    centered_random_game,
    run_preset,
)
from zerosum.core import MatrixGame, Trace, l_norm
from zerosum.engine import (
    AdversarySpec,
    AgentSpec,
    GameSpec,
    SimulationConfig,
    make_random_game,
    run_alone,
)
from zerosum.learners import (
    Aftrl,
    Amd,
    DoublingAftrl,
    Mwu,
    ProdBr,
    amwu_step,
    linear_amwu_step,
)
from zerosum.metrics import beta_close, exploitability, external_regret, forward_comparators
from zerosum.nash import solve_zero_sum, spectral_radius_at_ne
from zerosum.regularizers import ENTROPY, SQUARED_L2, project_to_simplex

LAST_ROUND_SEEDS = (12, 90, 96, 128, 134)


def report(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {status}: {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


def _stream(seed, T, n):
    return np.random.default_rng(seed).uniform(0.0, 1.0, (T, n))


def test_criterion_01_equivalences():
    """alpha=0 recovers the plain learners, alpha=1 the optimistic ones."""
    T, n = 1000, 8
    worst = 0.0
    for seed in range(5):
        xs = _stream(seed, T, n)
        # leader with no exploit weight vs incremental multiplicative weights
        a1, m1 = Aftrl(n, 0.05, 0.0, ENTROPY), Mwu(n, 0.05)
        # leader with exploit weight one vs incremental optimistic update
        a2, o2 = Aftrl(n, 0.05, alpha=1.0), Mwu(n, 0.05, 1.0)
        # euclidean leader vs direct projection oracle
        a3 = Aftrl(n, 0.05, 0.0, SQUARED_L2)
        cum = np.zeros(n)
        for t in range(T):
            worst = max(worst, np.abs(a1.step(xs[t]) - m1.step(xs[t])).max())
            worst = max(worst, np.abs(a2.step(xs[t]) - o2.step(xs[t])).max())
            cum += xs[t]
            worst = max(worst, np.abs(a3.step(xs[t]) - project_to_simplex(-0.05 * cum)).max())

        game = MatrixGame(_stream(100 + seed, n, n))
        opp = np.random.default_rng(200 + seed).dirichlet(np.ones(n), size=T)
        # game side: exploit weight zero vs plain ascent, one vs optimistic; the first
        # step takes the opponent's first strategy as its previous one
        w0 = w1 = f0 = f1 = np.full(n, 1.0 / n)
        prev = opp[0]
        for t in range(T):
            e = f0 * np.exp(0.1 * (game.payoff @ opp[t]))
            f0 = e / e.sum()
            w0 = amwu_step(w0, game, opp[t], prev, "max", 0.1, 0.0)
            worst = max(worst, np.abs(w0 - f0).max())
            e = f1 * np.exp(0.1 * (2.0 * (game.payoff @ opp[t]) - (game.payoff @ prev)))
            f1 = e / e.sum()
            w1 = amwu_step(w1, game, opp[t], prev, "max", 0.1, 1.0)
            worst = max(worst, np.abs(w1 - f1).max())
            prev = opp[t]
    report(1, "equivalence suite, max deviation <= 1e-12", worst <= 1e-12, f"max={worst:.2e}")


def test_criterion_02_lemma_suite():
    """Exact per-round inequalities on every test run; zero violations."""
    violations = []

    def record(name, amount):
        if amount > 1e-9:
            violations.append((name, amount))

    # consecutive-step bounds
    for reg in (ENTROPY, SQUARED_L2):
        for eta in (0.05, 0.3):
            n = 5
            agent = Aftrl(n, eta, 0.0, reg)
            amd = Amd(n, eta, 50.0, reg)
            prev_f, prev_g = agent.start(), amd.secondary
            for x in _stream(1, 1000, n):
                cur = agent.step(x)
                record("ftrl-step", l_norm(cur - prev_f, reg.p) - 2 * eta * n / reg.beta)
                prev_f = cur
                amd.step(x)
                g = amd.secondary
                record("amd-g-step", l_norm(g - prev_g, reg.p) - eta * n / reg.beta)
                prev_g = g

    # one-step-lookahead comparator inequality, 1000 random comparators
    rng = np.random.default_rng(2)
    for reg in (ENTROPY, SQUARED_L2):
        for eta in (0.05, 0.3):
            xs = _stream(3, 500, 5)
            g = forward_comparators(xs, reg, eta)
            gsum = float(np.einsum("ti,ti->", g, xs))
            comparators = rng.dirichlet(np.ones(5), size=1000)
            rvals = np.array([reg.value(p) for p in comparators])
            slack = comparators @ xs.sum(axis=0) + rvals / eta - gsum
            record("lookahead-comparator", float(-slack.min()))

    # leader and mirror-descent regret inequalities at every prefix
    for reg in (ENTROPY, SQUARED_L2):
        for alpha in (1.0, 2.0, 10.0, 100.0):
            for eta, seed in ((0.05, 4), (0.3, 5)):
                xs = _stream(seed, 400, 5)
                T, n = xs.shape
                deltas = np.vstack([xs[0], np.diff(xs, axis=0)])
                qsum = np.cumsum([l_norm(d, reg.q) ** 2 for d in deltas])
                best_fixed = np.cumsum(xs, axis=0).min(axis=1)
                g = forward_comparators(xs, reg, eta)
                gsum_fw = np.cumsum(np.einsum("ti,ti->t", g, xs))

                agent = Aftrl(n, eta, alpha, reg)
                fs = np.empty_like(xs)
                f = agent.start()
                for t in range(T):
                    fs[t] = f
                    f = agent.step(xs[t])
                played = np.cumsum(np.einsum("ti,ti->t", fs, xs))
                lhs = played - best_fixed / alpha - (alpha - 1) / alpha * gsum_fw
                rhs = reg.max_value(n) / (eta * alpha) + (eta * alpha / reg.beta) * qsum
                record("leader-regret", float((lhs - rhs).max()))

                amd = Amd(n, eta, alpha, reg)
                fs, gout = np.empty_like(xs), np.empty_like(xs)
                f = amd.start()
                for t in range(T):
                    fs[t] = f
                    f = amd.step(xs[t])
                    gout[t] = amd.secondary
                played = np.cumsum(np.einsum("ti,ti->t", fs, xs))
                gsum_md = np.cumsum(np.einsum("ti,ti->t", gout, xs))
                lhs = played - best_fixed / alpha - (alpha - 1) / alpha * gsum_md
                rhs = reg.max_value(n) / (eta * alpha) + (eta * alpha / (2 * reg.beta)) * qsum
                record("mirror-regret", float((lhs - rhs).max()))

    # anchored-mixture bounds per prefix, random and adversarial streams
    adversarial = np.zeros((1000, 4))
    adversarial[::2, 0] = 1.0
    adversarial[1::2, 1:] = 1.0
    for label, xs in (("rand-100", _stream(6, 100, 4)),
                      ("rand-1000", _stream(7, 1000, 4)),
                      ("adversarial", adversarial)):
        T, n = xs.shape
        agent = ProdBr(n, horizon=T)
        gs, fl, br = np.empty_like(xs), np.empty_like(xs), np.empty_like(xs)
        for t in range(T):
            gs[t] = agent.current
            fl[t] = agent.ftrl.current
            br[t] = agent.br.current
            agent.step(xs[t])
        gsum = np.cumsum(np.einsum("ti,ti->t", gs, xs))
        fsum = np.cumsum(np.einsum("ti,ti->t", fl, xs))
        brsum = np.cumsum(np.einsum("ti,ti->t", br, xs))
        record(f"prod-vs-leader-{label}", float((gsum - fsum - 2 * np.sqrt(T * np.log(T))).max()))
        record(f"prod-vs-br-{label}", float((gsum - brsum - 2 * np.log(2)).max()))

    # adaptive-restart regret bound on runs with at least one restart
    restarted = 0
    for seed in (8, 9, 10):
        xs = _stream(seed, 1500, 5)
        agent = DoublingAftrl(5, eta0=1.0, alpha=1.0)
        fs = np.empty_like(xs)
        f = agent.start()
        for t in range(xs.shape[0]):
            fs[t] = f
            f = agent.step(xs[t])
        if not agent.restarts:
            continue
        restarted += 1
        regret = external_regret(Trace.from_rounds(fs, xs))[-1]
        deltas = np.vstack([xs[0], np.diff(xs, axis=0)])
        qsum = sum(l_norm(d, agent.reg.q) ** 2 for d in deltas)
        bound = 8 * np.sqrt(qsum) * np.sqrt(agent.alpha * agent.r_max / agent.reg.beta)
        record("doubling-bound", float(regret - bound))
    assert restarted >= 1

    report(2, "lemma suite, zero inequality violations", not violations, f"violations={violations}")


def test_criterion_03_nash_solver():
    """Certified duality gaps and known equilibria."""
    ok = True
    details = []
    known = [
        (MatrixGame(np.array([[1.0, -1.0], [-1.0, 1.0]])), [0.5, 0.5], [0.5, 0.5], 0.0),
        (
            MatrixGame(np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])),
            [1 / 3] * 3,
            [1 / 3] * 3,
            0.0,
        ),
        (MatrixGame(np.array([[3.0, 0.0], [1.0, 2.0]])), [0.25, 0.75], [0.5, 0.5], 1.5),
    ]
    for game, f_ref, y_ref, v_ref in known:
        ne = solve_zero_sum(game)
        if ne.gap > 1e-9 or np.abs(ne.f_star - f_ref).max() > 1e-8 \
                or np.abs(ne.y_star - y_ref).max() > 1e-8 or abs(ne.value - v_ref) > 1e-8:
            ok = False
            details.append(f"known game mismatch: gap={ne.gap}")
    rng = np.random.default_rng(0)
    worst_gap = 0.0
    for k in range(20):
        n = int(rng.integers(2, 51))
        m = int(rng.integers(2, 51))
        ne = solve_zero_sum(make_random_game(n, m, seed=5000 + k))
        worst_gap = max(worst_gap, ne.gap)
    ok = ok and worst_gap <= 1e-9
    report(3, "nash solver certified on known and 20 random games up to 50x50",
           ok, f"worst gap={worst_gap:.2e}{'; ' + '; '.join(details) if details else ''}")


def _self_play_exploitability(seed, kind, eta, alpha=None):
    cfg = SimulationConfig(
        game=GameSpec(kind="random", n=20, m=20, seed=seed),
        horizon=100_000,
        agent=AgentSpec(kind=kind, eta=eta, alpha=alpha),
        adversary=AdversarySpec(kind="self_play"),
        metrics=("exploitability",),
    )
    _, _, series, _ = run_alone(cfg)
    e = series["exploitability"]
    return float(e[99]), float(e[-1])


@pytest.mark.slow
def test_criterion_04_last_round_convergence():
    """Exploit-weighted self-play collapses the duality gap; plain MWU does not."""
    amwu_ok = 0
    mwu_grew = 0
    details = []
    for seed in LAST_ROUND_SEEDS:
        a_100, a_T = _self_play_exploitability(seed, "AMWU", 0.01, 100.0)
        m_100, m_T = _self_play_exploitability(seed, "MWU", 0.01)
        ratio = a_T / a_100
        if ratio < 0.1:
            amwu_ok += 1
        if m_T >= m_100:
            mwu_grew += 1
        details.append(f"s{seed}: ratio={ratio:.3f} mwu {m_100:.3f}->{m_T:.3f}")
    ok = amwu_ok == 5 and mwu_grew >= 4
    report(4, "last-round convergence at T=1e5 vs t=1e2 on 5 seeded 20x20 games",
           ok, f"amwu_ok={amwu_ok}/5 mwu_grew={mwu_grew}/5; " + "; ".join(details))


def test_criterion_05_kl_monotonicity():
    """KL to the equilibrium is non-increasing until the first beta-close round."""
    eta, b = 0.01, 0.5
    alpha = eta ** (b - 1.0)
    beta = eta ** (b / 3.0)
    ok = True
    details = []
    for seed in LAST_ROUND_SEEDS[:3]:
        cfg = SimulationConfig(
            game=GameSpec(kind="random", n=20, m=20, seed=seed),
            horizon=20_000,
            agent=AgentSpec(kind="AMWU", eta=eta, alpha=alpha),
            adversary=AdversarySpec(kind="self_play"),
            metrics=("kl_to_ne",),
        )
        trace_f, trace_y, series, game = run_alone(cfg)
        kl = series["kl_to_ne"]
        first_close = None
        for t in range(trace_f.horizon):
            if beta_close(game, trace_f.strategies[t], trace_y.strategies[t], beta):
                first_close = t
                break
        checked = first_close if first_close is not None else trace_f.horizon - 1
        increases = np.nonzero(np.diff(kl[: checked + 1]) > 1e-10)[0]
        if increases.size:
            ok = False
        details.append(f"s{seed}: first_close_round={None if first_close is None else first_close + 1}")
    report(5, f"KL series non-increasing before the first {beta:.4f}-close round",
           ok, "; ".join(details))


def test_criterion_06_spectral_certificate():
    """Local contraction for the exploit-weighted update, expansion for plain MWU."""
    games = [("matching-pennies", MATCHING_PENNIES_UNIT)] + [
        (f"3x3 seed {s}", centered_random_game(3, 3, s)) for s in CERTIFICATE_3X3_SEEDS
    ]
    ok = True
    details = []
    for label, game in games:
        ne = solve_zero_sum(game)
        assert min(ne.f_star.min(), ne.y_star.min()) > 1e-6, f"{label}: NE not interior"
        rho_a = spectral_radius_at_ne(game, ne, 0.1, 10.0)
        rho_m = spectral_radius_at_ne(game, ne, 0.1, 0.0)
        if not (rho_a < 0.999 and rho_m > 1.001):
            ok = False
        details.append(f"{label}: {rho_a:.4f}/{rho_m:.4f}")
    report(6, "spectral radius < 0.999 with exploit rate 10, > 1.001 without",
           ok, "; ".join(details))


def _oblivious_final_average_loss(seed, agent_spec):
    cfg = SimulationConfig(
        game=GameSpec(kind="random", n=20, m=20, seed=seed),
        horizon=10_000,
        agent=agent_spec,
        adversary=AdversarySpec(kind="oblivious_mwu", eta=0.5),
        metrics=("average_loss",),
    )
    _, series, _ = run_alone(cfg)
    return float(series["average_loss"][-1])


def test_criterion_07_oblivious_ordering():
    """Final average loss: anchored mixture <= exploit-weighted <= plain."""
    ordered = 0
    details = []
    for seed in (1, 2, 3, 4, 5):
        pbr = _oblivious_final_average_loss(seed, AgentSpec(kind="ProdBR"))
        amwu = _oblivious_final_average_loss(seed, AgentSpec(kind="AMWU", eta=0.01, alpha=100.0))
        mwu = _oblivious_final_average_loss(seed, AgentSpec(kind="MWU", eta=0.01))
        if pbr <= amwu <= mwu:
            ordered += 1
        details.append(f"s{seed}: {pbr:.4f} <= {amwu:.4f} <= {mwu:.4f}")
    report(7, "vs MWU(0.5) replay at T=1e4, ordering holds on >= 4 of 5 seeds",
           ordered >= 4, f"ordered={ordered}/5; " + "; ".join(details))


def test_criterion_08_forward_regret_plateau():
    """Forward regret growth flattens against a slow no-regret adversary."""
    T = 10_000
    ok_all = True
    details = []
    for seed in (1, 2, 3, 4, 5):
        cfg = SimulationConfig(
            game=GameSpec(kind="random", n=20, m=20, seed=seed),
            horizon=T,
            agent=AgentSpec(kind="AFTRL", eta=0.01, alpha=100.0),
            adversary=AdversarySpec(kind="nonoblivious_mwu", eta=1.0 / np.sqrt(T)),
            metrics=("forward_regret",),
        )
        _, series, _ = run_alone(cfg)
        fr = series["forward_regret"]
        lhs = fr[T - 1] - fr[T // 10 - 1]
        rhs = 0.05 * (fr[T // 10 - 1] - fr[T // 100 - 1]) + 1.0
        if lhs > rhs:
            ok_all = False
        details.append(f"s{seed}: lhs={lhs:.2f} rhs={rhs:.2f}")
    report(8, "forward-regret growth flattening at T=1e4, 5 seeds", ok_all, "; ".join(details))


def test_criterion_09_linear_variant_proximity():
    """Per-step l1 gap between exponential and linear updates is O(eta^2)."""
    rng = np.random.default_rng(3)
    game = MatrixGame(rng.uniform(0, 1, (5, 5)))
    direction = rng.normal(0, 1, 5)
    direction -= direction.mean()
    etas = np.array([0.1, 0.05, 0.025])
    gaps = []
    for eta in etas:
        total = 0.0
        for _ in range(200):
            f = rng.dirichlet(np.ones(5))
            y = rng.dirichlet(np.ones(5))
            y_prev = np.maximum(y + 0.2 * eta * direction, 0.0)
            y_prev /= y_prev.sum()
            a = amwu_step(f, game, y, y_prev, "max", eta, 1.0)
            c = linear_amwu_step(f, game, y, y_prev, "max", eta, 1.0)
            total += l_norm(a - c, 1)
        gaps.append(total / 200)
    slope = float(np.polyfit(np.log(etas), np.log(gaps), 1)[0])
    report(9, "log-log slope of the linear-variant gap is 2.0 +/- 0.3",
           abs(slope - 2.0) <= 0.3, f"slope={slope:.3f}")


def _hash_csvs(directory):
    out = {}
    for path in sorted(directory.glob("*.csv")):
        out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


@pytest.mark.slow
def test_criterion_10_preset_determinism(tmp_path):
    """Re-running every preset with the same seeds is byte-identical."""
    ok = True
    details = []
    for preset in ("spectral-certificate", "oblivious-loss", "nonoblivious-regret", "last-round"):
        d1 = tmp_path / f"{preset}-a"
        d2 = tmp_path / f"{preset}-b"
        fail1 = run_preset(preset, d1, seeds=[1])
        fail2 = run_preset(preset, d2, seeds=[1])
        h1, h2 = _hash_csvs(d1), _hash_csvs(d2)
        same = fail1 == fail2 == 0 and h1 == h2 and len(h1) > 0
        if not same:
            ok = False
        details.append(f"{preset}: {'identical' if same else 'MISMATCH'}")
    report(10, "preset CSV output byte-identical across reruns", ok, "; ".join(details))
