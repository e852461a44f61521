"""Command-line front end: topology reports, bound evaluation, experiment campaigns.

Campaign trials run one after another; each row's seed is derived from the
base seed, the cell and the trial index, so any row can be replayed alone.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .bounds import PROOF_SET_MAX_D, THEOREMS, cvo_decision, fano_pipeline, minimax_bounds
from .estimate import error_metrics, mean_cardinal, mle_mwise, mle_ordinal
from .graph import (PAIRWISE_KINDS, build_topology, complete_hyper, optimality_report,
                    parse_kind, spectrum)
from .models import make_link, model_params, plackett_luce
from .synth import CardinalModel, even_allocation, gen_quality, sample_comparisons, sample_outcomes

CSV_COLUMNS = ("topology", "d", "n", "trial", "seed", "sq_l2", "sq_lap", "rescaled",
               "converged", "iterations", "grad_norm", "error", "runtime_ms")
FAMILIES = ("thurstone", "btl", "plackett_luce")
QUALITY_GENERATORS = ("gaussian", "uniform", "packing")
PACKING_VARIANTS = ("pinv", "sqrt_pinv")


def row_seed(base_seed: int, cell_index: int, trial: int) -> int:
    """Stable per-row seed; every CSV row can be replayed from it alone."""
    ss = np.random.SeedSequence(entropy=[int(base_seed), int(cell_index), int(trial)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass
class ExperimentConfig:
    kinds: list[str] = field(default_factory=lambda: ["complete"])
    d_list: list[int] = field(default_factory=lambda: [10])
    n_list: list[int] = field(default_factory=lambda: [1000])
    family: str = "thurstone"
    sigma: float = 1.0
    B: float = 1.0
    m: int = 2
    w_gen: str = "uniform"
    w_variant: str = "pinv"
    trials: int = 40
    base_seed: int = 0
    out: str = "results.csv"

    def validate(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.out:
            raise ValueError("out must be a file path, or - for stdout")
        if not self.kinds or not self.d_list or not self.n_list:
            raise ValueError("kinds, d and n lists must be non-empty")
        if min(self.n_list) < 1:
            raise ValueError(f"every n must be >= 1, got {min(self.n_list)}")
        if not (self.sigma > 0 and self.B > 0):
            raise ValueError(f"sigma and B must be positive, got {self.sigma} and {self.B}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown model family {self.family!r}")
        if self.w_gen not in QUALITY_GENERATORS:
            raise ValueError(f"unknown quality generator {self.w_gen!r}")
        if self.w_variant not in PACKING_VARIANTS:
            raise ValueError(f"unknown packing variant {self.w_variant!r}")
        # A value the chosen path never reads must be the one that path implies.
        if self.family == "plackett_luce" and self.sigma != 1:
            raise ValueError(f"sigma={self.sigma} is not read by plackett_luce (unit scale)")
        if self.family != "plackett_luce" and self.m != 2:
            raise ValueError(f"m={self.m} is not read by {self.family} (pairwise)")
        if self.w_gen != "packing" and self.w_variant != "pinv":
            raise ValueError(f"w_variant={self.w_variant} is not read by w_gen {self.w_gen}")
        if self.family == "plackett_luce":
            if not 2 <= self.m <= min(self.d_list):
                raise ValueError(f"m-wise campaigns need 2 <= m <= d, "
                                 f"got m={self.m} and d={min(self.d_list)}")
            for kind in self.kinds:
                _hyper_builder(kind)
        for kind in self.kinds:
            for d in self.d_list:
                build_topology(kind, d)  # raises on incompatible dimensions


def _hyper_builder(kind: str):
    """The builder, called as ``builder(d, m)``, of the hyper-design that
    m-wise campaigns and bounds use for topology ``kind``; only a plain
    ``complete`` names one so far.  ``validate`` checks a kind through it
    without building, so a campaign builds each cell's hyper-design once."""
    if parse_kind(kind) != ("complete", None, None):
        raise ValueError(f"m-wise comparisons support only the complete hyper-design, "
                         f"not kind {kind!r}")
    return complete_hyper


@functools.lru_cache(maxsize=1)
def _cell(kind: str, d: int, family: str, sigma: float, B: float,
          m: int) -> tuple:
    """The design, the design sampled from and the link of a campaign cell.

    A campaign runs its cells one after another, so one entry serves every
    trial of a cell after the first and holds only the cell in progress.
    Only data is kept: the estimator is looked up on every trial.
    """
    design = build_topology(kind, d)
    if family == "plackett_luce":
        return design, _hyper_builder(kind)(d, m), plackett_luce(m, B)
    return design, design, make_link(family, sigma)


def run_trial(kind: str, d: int, n: int, family: str, sigma: float, B: float,
              m: int, w_gen: str, seed: int, w_variant: str = "pinv") -> dict:
    """One campaign cell trial, reproducible from its integer seed.

    ``runtime_ms`` covers sampling and estimation only: the design, the
    hyper-design and the link are built (once per cell, by ``_cell``), and
    w* drawn, before it starts.
    """
    design, target, link = _cell(kind, d, family, sigma, B, m)
    estimate = mle_mwise if family == "plackett_luce" else mle_ordinal
    rng = np.random.default_rng(seed)
    w_star = gen_quality(w_gen, d, B, rng, design=design, variant=w_variant)
    start = time.perf_counter()
    comps = sample_comparisons(target, n, rng)
    batch = sample_outcomes(link, w_star, target, comps, rng)
    result = estimate(batch, target, link, B)
    runtime_ms = (time.perf_counter() - start) * 1000.0
    metrics = error_metrics(result.w_hat, w_star, design)
    return {
        "topology": kind, "d": d, "n": n, "seed": seed,
        "sq_l2": metrics.sq_l2, "sq_lap": metrics.sq_lap,
        "rescaled": n * metrics.sq_l2 / (d * d),
        "converged": result.converged, "iterations": result.iterations,
        "grad_norm": result.grad_norm, "error": "", "runtime_ms": runtime_ms,
    }


def run_campaign(config: ExperimentConfig, threads: int | None = None,
                 log=sys.stderr) -> list[dict]:
    """Run every trial in turn; a failed one gives NaN metrics and its ``error``.

    ``threads`` is ignored; it is kept for compatibility.
    """
    config.validate()
    cells = [(kind, d, n) for kind in config.kinds
             for d in config.d_list for n in config.n_list]
    rows = []
    for cell_index, (kind, d, n) in enumerate(cells):
        for trial in range(config.trials):
            seed = row_seed(config.base_seed, cell_index, trial)
            try:
                row = run_trial(kind, d, n, config.family, config.sigma, config.B,
                                config.m, config.w_gen, seed, config.w_variant)
            except Exception as exc:  # a failed trial must not abort the campaign
                error = f"{type(exc).__name__}: {exc}"
                print(f"trial failed ({kind}, d={d}, n={n}, trial={trial}): {error}",
                      file=log)
                row = dict.fromkeys(CSV_COLUMNS, float("nan"))
                row.update(topology=kind, d=d, n=n, seed=seed, converged=False,
                           iterations=0, error=error)
            row["trial"] = trial
            rows.append(row)
    rows.sort(key=lambda r: (r["topology"], r["d"], r["n"], r["trial"]))
    return rows


def _csv_field(column: str, value) -> str:
    if column == "runtime_ms":
        return f"{float(value):.3f}"
    return repr(float(value)) if isinstance(value, float) else str(value)


def rows_to_csv(rows: list[dict]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([_csv_field(c, r[c]) for c in CSV_COLUMNS] for r in rows)
    return out.getvalue()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_spectrum(args) -> int:
    design = build_topology(args.kind, args.d)
    summary = spectrum(design)
    report = optimality_report(summary)
    out = {
        "kind": design.kind, "d": args.d,
        "lambda2": summary.lambda2, "trace_pinv": summary.trace_pinv,
        "ratio_r": report.ratio_r, "lb_statistic": report.lb_statistic,
        "classification": report.classification,
    }
    print(json.dumps(out))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(summary.to_csv())
    return 0


# The (flag, config-file key) of each ExperimentConfig field not named by both.
_RENAMED = {"kinds": ("kind", "kinds"), "d_list": ("d", "d"), "n_list": ("n", "n"),
            "base_seed": ("seed", "seed")}


def _fits(value, annotation: str) -> bool:
    """Whether a JSON value fits a field annotated ``str``, ``int``, ``float``
    or ``list[...]`` of one of them; a bool is no number, an int is a float."""
    if annotation.startswith("list["):
        return isinstance(value, list) and all(_fits(v, annotation[5:-1]) for v in value)
    kinds = {"str": str, "int": int, "float": (int, float)}[annotation]
    return isinstance(value, kinds) and not isinstance(value, bool)


def _config_from_args(args) -> ExperimentConfig:
    """Each field from its flag, else from the config file, else its default.
    A file that is not a JSON object, a key that names no field and a value
    that does not fit its field are refused."""
    base: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise ValueError(f"config file must hold a JSON object, got {type(base).__name__}")
    names = {f.name: _RENAMED.get(f.name, (f.name, f.name)) for f in fields(ExperimentConfig)}
    if unread := sorted(set(base) - {key for _, key in names.values()}):
        raise ValueError(f"config file keys {unread} are not read")
    merged = {}
    for f in fields(ExperimentConfig):
        flag, key = names[f.name]
        if key in base and not _fits(base[key], f.type):
            raise ValueError(f"config file key {key!r} must be {f.type}, got {base[key]!r}")
        if (value := getattr(args, flag)) is not None:
            merged[f.name] = value
        elif key in base:
            merged[f.name] = base[key]
    return ExperimentConfig(**merged)


def cmd_simulate(args) -> int:
    config = _config_from_args(args)
    rows = run_campaign(config)
    csv_text = rows_to_csv(rows)
    if config.out == "-":
        sys.stdout.write(csv_text)
    else:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        print(f"wrote {len(rows)} rows to {config.out}")
    failed = sum(bool(r["error"]) for r in rows)  # failed rows are also unconverged
    not_converged = sum(not r["converged"] for r in rows) - failed
    print(f"rows {len(rows)}, not converged {not_converged}, failed {failed}", file=sys.stderr)
    return 0


# The theorems whose lower bound the Fano pipeline constructs, with its variant.
_CONSTRUCTIVE = {"T1_lap": "lap", "T2_l2": "l2"}


def _path_flags(args, defaults: dict, read: bool, reader: str) -> None:
    """Flags that one path reads: where it is taken, fill in each default;
    where it is not, refuse any of them that was given."""
    for flag, default in defaults.items():
        if read and getattr(args, flag) is None:
            setattr(args, flag, default)
        elif not read and getattr(args, flag) is not None:
            raise ValueError(f"--{flag} is not read by {reader}")


def cmd_bounds(args) -> int:
    if args.constructive and args.theorem not in _CONSTRUCTIVE:
        raise ValueError(f"--constructive runs the Fano pipeline of "
                         f"{' and '.join(_CONSTRUCTIVE)} only, not {args.theorem}")
    mwise = args.theorem.startswith("T4")
    _path_flags(args, {"family": "btl", "sigma": 1.0}, not mwise, args.theorem)
    _path_flags(args, {"m": 3}, mwise, args.theorem)
    if args.constructive and args.d <= PROOF_SET_MAX_D:
        _path_flags(args, {"seed": 0}, False,
                    f"the three-vector proof set at d <= {PROOF_SET_MAX_D}")
    _path_flags(args, {"alpha": 0.01, "seed": 0}, args.constructive,
                "bounds without --constructive")
    if mwise:
        design, params = _hyper_builder(args.kind)(args.d, args.m), plackett_luce(args.m, args.B)
    else:
        design = build_topology(args.kind, args.d)
        params = model_params(make_link(args.family, args.sigma), args.B)
    if args.constructive:
        value = fano_pipeline(design, params, args.n, alpha=args.alpha,
                              variant=_CONSTRUCTIVE[args.theorem], seed=args.seed)
        print(json.dumps({"constructive_lower": value, "theorem": args.theorem,
                          "kind": design.kind, "d": args.d, "n": args.n,
                          "sigma": args.sigma, "B": args.B}))
        return 0
    print(minimax_bounds(args.theorem, design, params, args.n).to_json())
    return 0


def cmd_design(args) -> int:
    if not args.n > 0:
        raise ValueError(f"n must be positive, got {args.n}")
    kinds = args.kind or list(PAIRWISE_KINDS)
    rows = []
    for kind in kinds:
        try:
            design = build_topology(kind, args.d)
        except ValueError as exc:
            if args.kind:  # explicitly requested kinds must be feasible
                raise
            print(f"skipped {kind}: {exc}", file=sys.stderr)
            continue
        summary = spectrum(design)
        report = optimality_report(summary)
        rows.append({
            "kind": design.kind,
            "proxy": args.d / (summary.lambda2 * args.n),
            "lambda2": summary.lambda2,
            "trace_pinv": summary.trace_pinv,
            "lb_statistic": report.lb_statistic,
            "classification": report.classification,
        })
    if not rows:
        raise ValueError(f"no comparison topology builds at d={args.d}")
    rows.sort(key=lambda r: (r["proxy"], r["kind"]))
    if args.json:
        print(json.dumps(rows))
        return 0
    widths = (24, 14, 12, 12, 14, 14)
    header = ("kind", "proxy", "lambda2", "tr_pinv", "lb_stat", "class")
    print("".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        cells = (r["kind"], f"{r['proxy']:.6g}", f"{r['lambda2']:.6g}",
                 f"{r['trace_pinv']:.6g}", f"{r['lb_statistic']:.6g}",
                 r["classification"])
        print("".join(c.ljust(w) for c, w in zip(cells, widths)))
    return 0


def _empirical_cvo(sigma_ord: float, sigma_card: float, B: float, d: int,
                   n: int, trials: int, seed: int) -> dict:
    """Matched Monte-Carlo risks under even allocation; every trial enters the
    means, and ``ordinal_not_converged`` counts the unconverged ordinal MLEs."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    design = build_topology("complete", d)
    link = make_link("thurstone", sigma_ord)
    num_pairs = design.edge_arrays[0].size
    ord_risk = 0.0
    not_converged = 0
    card_risk = 0.0
    for trial in range(trials):
        rng = np.random.default_rng(row_seed(seed, 0, trial))
        w_star = gen_quality("uniform", d, B, rng)
        comps = even_allocation(num_pairs, n)
        batch = sample_outcomes(link, w_star, design, comps, rng)
        est = mle_ordinal(batch, design, link, B)
        not_converged += not est.converged
        ord_risk += error_metrics(est.w_hat, w_star, design).sq_l2
        items = even_allocation(d, n)
        cbatch = sample_outcomes(CardinalModel("item", sigma_card), w_star, None, items, rng)
        cest = mean_cardinal(cbatch, d)
        card_risk += error_metrics(cest.w_hat, w_star, design).sq_l2
    return {"ordinal_risk": ord_risk / trials, "ordinal_not_converged": not_converged,
            "cardinal_risk": card_risk / trials, "d": d, "n": n, "trials": trials}


def cmd_cvo(args) -> int:
    _path_flags(args, {"d": 6, "n": 600, "trials": 100, "seed": 0}, args.empirical,
                "cvo without --empirical")
    report = cvo_decision(args.sigma_ord, args.sigma_card, args.B)
    out = json.loads(report.to_json())
    if args.empirical:
        out["empirical"] = _empirical_cvo(args.sigma_ord, args.sigma_card, args.B,
                                          args.d, args.n, args.trials, args.seed)
    print(json.dumps(out))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every call shares it."""
    parser = argparse.ArgumentParser(
        prog="ranktopo",
        description="Comparison-topology analysis, estimation experiments and minimax bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="eigenvalues and optimality of a topology")
    p_spec.add_argument("--kind", required=True)
    p_spec.add_argument("--d", type=int, required=True)
    p_spec.add_argument("--csv", help="write index,eigenvalue CSV to this path")
    p_spec.set_defaults(func=cmd_spectrum)

    p_sim = sub.add_parser("simulate", help="run a synthetic estimation campaign")
    p_sim.add_argument("--config", help="JSON config file; flags override its fields")
    p_sim.add_argument("--kind", action="append")
    p_sim.add_argument("--d", action="append", type=int)
    p_sim.add_argument("--n", action="append", type=int)
    p_sim.add_argument("--family", choices=FAMILIES)
    p_sim.add_argument("--sigma", type=float)
    p_sim.add_argument("--B", type=float)
    p_sim.add_argument("--m", type=int)
    p_sim.add_argument("--w-gen", dest="w_gen", choices=QUALITY_GENERATORS)
    p_sim.add_argument("--w-variant", dest="w_variant", choices=PACKING_VARIANTS)
    p_sim.add_argument("--trials", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--out", help="output CSV path, or - for stdout")
    p_sim.set_defaults(func=cmd_simulate)

    p_bounds = sub.add_parser("bounds", help="evaluate minimax bound formulas")
    p_bounds.add_argument("--theorem", required=True, choices=THEOREMS)
    p_bounds.add_argument("--kind", required=True)
    p_bounds.add_argument("--d", type=int, required=True)
    p_bounds.add_argument("--m", type=int, help="subset size, read by T4_* only")
    p_bounds.add_argument("--n", type=float, required=True)
    p_bounds.add_argument("--family", help="read by T1_lap, T2_l2 and T3_paired only")
    p_bounds.add_argument("--sigma", type=float, help="read by T1_lap, T2_l2 and T3_paired only")
    p_bounds.add_argument("--B", type=float, default=1.0)
    p_bounds.add_argument("--constructive", action="store_true",
                          help="run the Fano proof pipeline of T1_lap or T2_l2")
    p_bounds.add_argument("--alpha", type=float, help="read with --constructive only")
    p_bounds.add_argument("--seed", type=int, help="read with --constructive only")
    p_bounds.set_defaults(func=cmd_bounds)

    p_design = sub.add_parser("design", help="rank topologies for a comparison budget")
    p_design.add_argument("--d", type=int, required=True)
    p_design.add_argument("--n", type=float, required=True)
    p_design.add_argument("--kind", action="append",
                          help="repeatable; defaults to every feasible kind")
    p_design.add_argument("--json", action="store_true")
    p_design.set_defaults(func=cmd_design)

    p_cvo = sub.add_parser("cvo", help="cardinal-versus-ordinal elicitation decision")
    p_cvo.add_argument("--sigma-ord", dest="sigma_ord", type=float, required=True)
    p_cvo.add_argument("--sigma-card", dest="sigma_card", type=float, required=True)
    p_cvo.add_argument("--B", type=float, default=1.0)
    p_cvo.add_argument("--empirical", action="store_true")
    for flag in ("--d", "--n", "--trials", "--seed"):
        p_cvo.add_argument(flag, type=int, help="read with --empirical only")
    p_cvo.set_defaults(func=cmd_cvo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
