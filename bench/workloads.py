"""The benchmark's three workloads: inputs, one round of calls, and checks.

A workload is built from ``--seed`` (configs validated, argument lists
parsed) and then runs rounds.  Every round makes the same operations, on
inputs derived from (seed, round index) or, for the fixed campaign cells,
from FIXED_SEED, so the share of operations that fail is the same in
every run.  ``Capture`` records the estimates and
packings a round produces inside ``cli``; the checks compare them, and
the printed outputs, with ``checks`` after the round's clock has stopped.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import inspect
import io
import itertools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

import checks
from tracing import Hooks

LAYERS = ("graph", "models", "synth", "estimate", "bounds", "cli")

# Seed of the campaign cells whose inputs do not depend on --seed.  At
# this seed Thurstone path, cycle and barbell at d=64 and BTL path and
# cycle at d=16 stop at max_iters with projected-gradient norms 19 to
# 12,000 times the tolerance, every time; Thurstone star at d=64
# converges in 2,819 iterations.
FIXED_SEED = 1509

# The residual the solver tests against grad_tolerance is computed with
# its own iterative projection; on these workloads it sits within 1.3e-13
# of the exact-projection residual.  A 0.1% margin covers that and still
# rejects any estimate that stopped short of the tolerance.
RESIDUAL_MARGIN = 1.001

OUT_DIR = ".bench_out"


def load_ranktopo(root: Path) -> dict:
    """Import ranktopo's modules from ``root/src``; refuse any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"ranktopo.{name}") for name in LAYERS}
    origin = Path(modules["cli"].__file__).resolve()
    if src not in origin.parents:
        raise ImportError(f"ranktopo was imported from {origin}, not from {src}")
    return modules


def packing_cap(modules: dict) -> int:
    """How many GV vectors ``fano_pipeline`` keeps by default."""
    return inspect.signature(modules["bounds"].fano_pipeline).parameters["packing_cap"].default


def round_seed(seed: int, r: int, *more: int) -> int:
    return int(np.random.SeedSequence([seed, r, *more]).generate_state(1)[0])


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Capture:
    """Records what the checks need from calls made inside ranktopo.

    Every MLE call, quality draw and GV packing of a round is kept, keyed
    by the campaign trial that made it, (kind, d, n, family, seed), or by
    None outside trials.
    """

    def __init__(self, modules: dict):
        self.trial = None
        self.mle: list[tuple] = []
        self.w_star: dict = {}
        self.packings: list[tuple] = []
        self.hooks = Hooks(modules)
        self.hooks.wrap("cli", "run_trial", self._trial)
        self.hooks.wrap("estimate", "mle_ordinal", self._mle)
        self.hooks.wrap("estimate", "mle_mwise", self._mle)
        self.hooks.wrap("synth", "gen_quality", self._quality)
        self.hooks.wrap("bounds", "gv_packing", self._packing)

    def clear(self) -> None:
        self.mle, self.w_star, self.packings = [], {}, []

    def _trial(self, fn):
        def trial(*args, **kwargs):
            a = _bind(fn, args, kwargs)
            self.trial = (a["kind"], a["d"], a["n"], a["family"], a["seed"])
            try:
                return fn(*args, **kwargs)
            finally:
                self.trial = None
        return trial

    def _mle(self, fn):
        def mle(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.mle.append((self.trial, _bind(fn, args, kwargs), result))
            return result
        return mle

    def _quality(self, fn):
        def quality(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.w_star[self.trial] = result.values
            return result
        return quality

    def _packing(self, fn):
        def packing(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.packings.append((_bind(fn, args, kwargs), result.vectors))
            return result
        return packing


class Laps:
    """Wall time of each timed call of a round, in call order."""

    def __init__(self):
        self.times: list[float] = []
        self._last = time.perf_counter()

    def __call__(self, result=None):
        now = time.perf_counter()
        self.times.append(now - self._last)
        self._last = now
        return result


class Outcome:
    """Operations attempted and failed in a round, and check failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def expect(self, cond: bool, message: str) -> None:
        if not cond:
            self.problems.append(message)


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def mle_ok(record, outcome: Outcome, label: str) -> bool:
    """Converged, feasible, and optimal by the independent residual."""
    _, args, result = record
    if not result.converged:
        return False
    w, B = result.w_hat.values, args["B"]
    outcome.expect(checks.is_feasible(w, B), f"{label}: estimate is infeasible")
    batch, design = args["batch"], args["design"]
    if batch.kind == "ordinal_pair":
        j = np.array([e[0] for e in design.edges])
        k = np.array([e[1] for e in design.edges])
        grad = checks.ordinal_gradient(w, j, k, batch.entry_indices, batch.outcomes,
                                       args["link"].name, args["link"].sigma)
    else:
        grad = checks.mwise_gradient(w, np.array(design.subsets), batch.entry_indices,
                                     batch.outcomes)
    return checks.pg_residual(w, grad, B) <= RESIDUAL_MARGIN * args["opts"].grad_tolerance


class Campaigns:
    """Campaign workloads: ``cli.run_campaign`` with one pool worker."""

    def __init__(self, modules: dict, seed: int):
        self.cli = modules["cli"]
        self.seed = seed
        # One campaign call per cell, so that each is timed on its own.
        self.seeded, self.fixed = (
            [dataclasses.replace(c, kinds=[kind], d_list=[d])
             for c in configs for kind in c.kinds for d in c.d_list]
            for configs in self.configs(self.cli.ExperimentConfig))
        for config in self.seeded + self.fixed:
            config.validate()

    def configs(self, make) -> tuple[list, list]:
        raise NotImplementedError

    def run_round(self, r: int, lap: Laps) -> dict:
        rows = []
        configs = [dataclasses.replace(c, base_seed=round_seed(self.seed, r, i))
                   for i, c in enumerate(self.seeded)] + self.fixed
        for config in configs:
            for row in lap(self.cli.run_campaign(config, threads=1, log=io.StringIO())):
                rows.append((row, (row["topology"], row["d"], row["n"], config.family,
                                   row["seed"])))
        return {"rows": rows}

    def check(self, result: dict, capture: Capture, outcome: Outcome) -> None:
        by_trial = {}
        for record in capture.mle:
            by_trial.setdefault(record[0], []).append(record)
        for row, key in result["rows"]:
            label = "{} d={} n={} {} seed={}".format(*key)
            records = by_trial.get(key, [])
            ok = bool(row["converged"]) and len(records) == 1 \
                and mle_ok(records[0], outcome, label)
            outcome.op(ok)
            if ok:
                self.check_row(row, records[0], capture.w_star[key], outcome, label)

    @staticmethod
    def check_row(row, record, w_star, outcome, label) -> None:
        eigs = checks.closed_form_spectrum(row["topology"], row["d"])
        delta = record[2].w_hat.values - w_star
        sq_l2 = float(delta @ delta)
        outcome.expect(math.isclose(row["sq_l2"], sq_l2, rel_tol=1e-9, abs_tol=1e-15),
                       f"{label}: sq_l2 {row['sq_l2']} != {sq_l2}")
        outcome.expect(checks.seminorm_sandwich_holds(row["sq_l2"], row["sq_lap"], eigs),
                       f"{label}: sq_lap {row['sq_lap']} outside the spectral sandwich")
        design = record[1]["design"]
        if hasattr(design, "edges"):  # pairwise: |D|_L^2 = sum_e w_e (D_j - D_k)^2
            sq_lap = sum(w * (delta[j] - delta[k]) ** 2 for j, k, w in design.edges)
            outcome.expect(math.isclose(row["sq_lap"], sq_lap, rel_tol=1e-8, abs_tol=1e-15),
                           f"{label}: sq_lap {row['sq_lap']} != {sq_lap}")


class CampaignOrdinal(Campaigns):
    """Thurstone and BTL campaigns over five designs, plus ``cvo --empirical``.

    Seeded cells converge well inside max_iters on every seed tried;
    the ill-conditioned cells run on FIXED_SEED inputs.
    """

    name = "campaign_ordinal"
    # cvo runs on FIXED_SEED inputs: on seeded ones about 1 in 400 of its
    # MLE calls (d=6, n=600) ends with converged=False when the line search
    # stalls, which would make the failure count depend on the seed.
    CVO_TRIALS, SIGMA_CARD = 10, 2.0
    CVO_ARGS = ["cvo", "--sigma-ord", "1", "--sigma-card", str(SIGMA_CARD), "--B", "1",
                "--empirical", "--d", "6", "--n", "600", "--trials", str(CVO_TRIALS),
                "--seed", str(FIXED_SEED)]

    def configs(self, make):
        seeded = [make(kinds=["complete", "star"], d_list=[16], n_list=[4000],
                       family=family, trials=2) for family in ("thurstone", "btl")]
        seeded += [make(kinds=["complete"], d_list=[64], n_list=[20000],
                        family=family, trials=1) for family in ("thurstone", "btl")]
        fixed = [make(kinds=["path", "cycle", "barbell", "star"], d_list=[64],
                      n_list=[20000], family="thurstone", trials=1, base_seed=FIXED_SEED),
                 make(kinds=["path", "cycle"], d_list=[16], n_list=[4000],
                      family="btl", trials=1, base_seed=FIXED_SEED)]
        return seeded, fixed

    def __init__(self, modules: dict, seed: int):
        super().__init__(modules, seed)
        self.cli.build_parser().parse_args(self.CVO_ARGS)

    def run_round(self, r: int, lap: Laps) -> dict:
        result = super().run_round(r, lap)
        result["cvo"] = lap(run_cli(self.cli, self.CVO_ARGS))
        return result

    def check(self, result: dict, capture: Capture, outcome: Outcome) -> None:
        super().check(result, capture, outcome)
        code, text = result["cvo"]
        estimates = [rec for rec in capture.mle if rec[0] is None]
        ok = code == 0 and len(estimates) == self.CVO_TRIALS \
            and all([mle_ok(rec, outcome, "cvo") for rec in estimates])
        outcome.op(ok)
        if not ok:
            return
        out = json.loads(text)
        gamma, zeta = checks.link_constants("thurstone", 1.0, 1.0)
        for key, want in (("b_l", 1.0 / zeta), ("b_u", zeta / gamma)):
            outcome.expect(math.isclose(out[key], want, rel_tol=1e-9),
                           f"cvo: {key} {out[key]} != {want}")
        outcome.expect(out["b"] == math.ceil(1.0 / zeta), "cvo: b is not ceil(1/zeta)")
        card = self.SIGMA_CARD ** 2
        expected = ("ordinal_better" if zeta / gamma < card else
                    "cardinal_better" if 1.0 / zeta > card else "indeterminate")
        outcome.expect(out["decision"] == expected, f"cvo: decision {out['decision']}")
        emp = out["empirical"]
        outcome.expect(all(math.isfinite(emp[k]) and emp[k] > 0
                           for k in ("ordinal_risk", "cardinal_risk")),
                       "cvo: empirical risks are not positive and finite")


class CampaignMWise(Campaigns):
    """Plackett-Luce campaigns on complete hyper-designs.

    m=3 cells take the full-grid curvature branch of ``plackett_luce``,
    m=4 cells the Monte-Carlo branch.
    """

    name = "campaign_mwise"

    def configs(self, make):
        return [make(kinds=["complete"], d_list=[5, 6, 8], n_list=[3000],
                     family="plackett_luce", m=3, trials=3),
                make(kinds=["complete"], d_list=[6, 8], n_list=[3000],
                     family="plackett_luce", m=4, trials=2)], []


class Analysis:
    """Spectra, link constants, bound formulas, paired least squares and
    the constructive Fano pipeline; no MLE."""

    name = "analysis"
    LS_D = 256
    MINIMAX_KIND, MINIMAX_D, MINIMAX_N = "cycle", 512, 1e5
    PACKINGS = (("T1_lap", 46, 0.01), ("T2_l2", 48, 0.05))  # (theorem, d, alpha)
    FANO_N = 1e6

    def __init__(self, modules: dict, seed: int):
        self.m = modules
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.sigma, self.B = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 1.5))
        self.commands = [["design", "--d", "512", "--n", "1e5", "--json"]]
        self.commands += [["spectrum", "--kind", kind, "--d", "1024",
                           "--csv", str(Path(OUT_DIR) / f"spectrum_{kind}.csv")]
                          for kind in ("complete", "hypercube")]
        parser = modules["cli"].build_parser()
        for argv in self.commands:
            parser.parse_args(argv)

    def run_round(self, r: int, lap: Laps) -> dict:
        m, s = self.m, round_seed(self.seed, r)
        res = {"commands": [lap(run_cli(m["cli"], argv)) for argv in self.commands]}
        res["params"] = {fam: m["models"].model_params(m["models"].make_link(fam, self.sigma),
                                                       self.B)
                         for fam in ("thurstone", "btl")}
        design = m["graph"].build_topology(self.MINIMAX_KIND, self.MINIMAX_D)
        res["minimax"] = {th: m["bounds"].minimax_bounds(th, design, res["params"]["btl"],
                                                         self.MINIMAX_N)
                          for th in ("T1_lap", "T2_l2", "T3_paired")}
        hyper = m["graph"].HyperDesign(d=8, m=3, subsets=tuple(
            itertools.combinations(range(8), 3)))
        pl = m["models"].plackett_luce(3, self.B)
        res["t4"] = {th: m["bounds"].minimax_bounds(th, hyper, pl, self.MINIMAX_N)
                     for th in ("T4_mwise_lap", "T4_mwise_l2")}
        lap()
        ls_design = m["graph"].build_topology("complete", self.LS_D)
        w_star = m["synth"].gen_quality("gaussian", self.LS_D, 1.0, s)
        entries = m["synth"].even_allocation(len(ls_design.edges), len(ls_design.edges))
        batch = m["synth"].sample_outcomes(m["synth"].CardinalModel("pair", 0.0), w_star,
                                           ls_design, entries, s)
        res["ls"] = (w_star.values, lap(m["estimate"].ls_paired_cardinal(batch, ls_design)))
        res["fano"] = [lap(run_cli(m["cli"], [
            "bounds", "--theorem", theorem, "--kind", "complete", "--d", str(d),
            "--n", str(self.FANO_N), "--alpha", str(alpha), "--constructive",
            "--seed", str(s)])) for theorem, d, alpha in self.PACKINGS]
        return res

    def check(self, res: dict, capture: Capture, outcome: Outcome) -> None:
        (code, text), *spectra = res["commands"]
        outcome.op(code == 0)
        if code == 0:
            self.check_design(json.loads(text), outcome)
        for (code, text), argv in zip(spectra, self.commands[1:]):
            outcome.op(code == 0)
            if code == 0:
                self.check_spectrum(json.loads(text), Path(argv[-1]), outcome)
        for fam, params in res["params"].items():
            outcome.op(True)
            gamma, zeta = checks.link_constants(fam, self.B, self.sigma)
            outcome.expect(math.isclose(params.gamma, gamma, rel_tol=1e-9)
                           and math.isclose(params.zeta, zeta, rel_tol=1e-9),
                           f"{fam}: (gamma, zeta) = ({params.gamma}, {params.zeta}) "
                           f"!= ({gamma}, {zeta})")
        self.check_minimax(res["minimax"], outcome)
        self.check_t4(res["t4"], outcome)
        w_star, est = res["ls"]
        outcome.op(True)
        outcome.expect(float(np.max(np.abs(est.w_hat.values - w_star))) <= 1e-9,
                       "ls_paired_cardinal does not recover w* from noiseless data")
        self.check_fano(res["fano"], capture, outcome)

    def check_design(self, rows, outcome) -> None:
        names = {row["kind"].partition("(")[0] for row in rows}
        expected = {"complete", "star", "path", "cycle", "barbell",
                    "complete_bipartite", "lattice2d", "hypercube"}
        outcome.expect(names == expected, f"design at d=512 lists {sorted(names)}")
        for row in rows:
            eigs = checks.closed_form_spectrum(row["kind"], 512)
            outcome.expect(
                math.isclose(row["lambda2"], eigs[1], rel_tol=1e-7)
                and math.isclose(row["trace_pinv"], checks.trace_pinv(eigs), rel_tol=1e-7)
                and math.isclose(row["proxy"], 512 / (eigs[1] * 1e5), rel_tol=1e-7),
                f"design: {row['kind']} spectrum differs from its closed form")

    def check_spectrum(self, out, csv_path, outcome) -> None:
        eigs = checks.closed_form_spectrum(out["kind"], out["d"])
        got = np.loadtxt(csv_path, delimiter=",", skiprows=1)[:, 1]
        outcome.expect(
            got.shape == eigs.shape and np.allclose(got, eigs, rtol=0, atol=1e-9 * eigs[-1])
            and math.isclose(out["lambda2"], eigs[1], rel_tol=1e-7)
            and math.isclose(out["trace_pinv"], checks.trace_pinv(eigs), rel_tol=1e-7),
            f"spectrum: {out['kind']} d={out['d']} differs from its closed form")

    def check_minimax(self, reports, outcome) -> None:
        gamma, zeta = checks.link_constants("btl", self.B, self.sigma)
        eigs = checks.closed_form_spectrum(self.MINIMAX_KIND, self.MINIMAX_D)
        s2, d, n = self.sigma ** 2, self.MINIMAX_D, self.MINIMAX_N
        want = {
            "T1_lap": (s2 / (zeta * n), zeta / gamma * s2 * d / n),
            "T2_l2": (s2 / n * max(d * d, checks.window_statistic(eigs)),
                      zeta / gamma * s2 * d / (eigs[1] * n)),
            "T3_paired": (s2 * checks.trace_pinv(eigs) / n,) * 2,
        }
        for theorem, report in reports.items():
            outcome.op(True)
            lower, upper = want[theorem]
            outcome.expect(math.isclose(report.upper, upper, rel_tol=1e-7)
                           and math.isclose(report.lower, lower, rel_tol=1e-7),
                           f"{theorem}: bounds ({report.lower}, {report.upper}) differ "
                           "from their closed forms")

    def check_t4(self, reports, outcome) -> None:
        lap, l2 = reports["T4_mwise_lap"], reports["T4_mwise_l2"]
        outcome.op(True)
        outcome.op(True)
        # The complete 3-uniform hypergraph Laplacian on d=8 items is
        # c(dI - 11^T) with trace m(m-1), so lambda_2 = m(m-1)/(d-1) = 6/7.
        outcome.expect(0 < lap.lower and 0 < lap.upper and math.isfinite(lap.upper)
                       and math.isclose(l2.lower, 8 * lap.lower, rel_tol=1e-12)
                       and math.isclose(l2.upper, lap.upper * 7 / 6, rel_tol=1e-9),
                       "T4: m-wise bounds are inconsistent with lambda_2 = 6/7")

    def check_fano(self, runs, capture, outcome) -> None:
        _, zeta = checks.link_constants("btl", 1.0, 1.0)
        for (code, text), (theorem, d, alpha) in zip(runs, self.PACKINGS):
            outcome.op(code == 0)
            if code != 0:
                continue
            value = json.loads(text)["constructive_lower"]
            n = self.FANO_N
            delta_sq = 0.01 * d / (n * zeta) if theorem == "T1_lap" \
                else 0.01 * d * d / (4.0 * n * zeta)
            outcome.expect(0.0 < value <= delta_sq / 2.0,
                           f"fano {theorem} d={d}: {value} outside (0, delta^2/2]")
            packings = [vectors for args, vectors in capture.packings
                        if args["d"] == d and args["alpha"] == alpha]
            outcome.expect(len(packings) == 1, f"fano d={d}: no packing captured")
            for problem in checks.packing_violations(packings[0], d, alpha) if packings else ():
                outcome.problems.append(f"GV packing d={d} alpha={alpha}: {problem}")


WORKLOADS = {w.name: w for w in (CampaignOrdinal, CampaignMWise, Analysis)}
