"""Command-line front door: run scenarios, write reports.

Four subcommands mirror the library layout: ``simulate`` writes the
full potential-outcome table and its observed view, ``true-effect``
computes stratum effects by Monte Carlo and/or quadrature,
``calibrate`` runs the random-split null calibration, and
``paper-demo`` runs the bundled scenario suite and writes a PASS/FAIL
markdown report of the headline claims.

Exit codes: 0 success, 1 runtime or I/O failure, 2 configuration error.
stdout is for humans (4-decimal summaries); machine-readable output
goes to files (CSV floats at 17 significant digits).  Re-running a
command with the same inputs reproduces byte-identical CSV bodies; the
manifest (written last, so its presence marks a complete run) carries
the only timestamp.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .calibration import (ESTIMATORS, CalibrationError, EstimatorError,
                          FitError, check_rounds, fit_sequential_logistic,
                          split_calibrate, write_calibration_csv,
                          write_fit_csv)
from .datagen import (generate, observe, write_observed_csv,
                      write_subjects_csv)
from .params import (ScenarioConfig, is_outcome_null, load_bundled,
                     load_scenario)
from .quadrature import RefinementError, null_stratum_effect
from .strata import (S_BOTH, S_TREATED, EffectEstimate, bias_decomposition,
                     oracle_effect, stratum_sums, write_effects_csv)

Run = tuple[dict, int]  # a subcommand's ({file name: writer}, failed claims)

_MC_AGREEMENT_SIGMAS = 3.5
_CALIBRATION_SIGMAS = 5.0


def _gap_check(a: float, b: float, se: float,
               sigmas: float) -> tuple[float, float, bool]:
    """(gap, bound, agree): whether |a - b| <= sigmas * se."""
    gap, bound = abs(a - b), sigmas * se
    return gap, bound, gap <= bound


def _load_config(args) -> ScenarioConfig:
    cfg = load_scenario(args.scenario)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "n", None) is not None:
        cfg = replace(cfg, n=args.n)
    return cfg


def _oracles(cfg: ScenarioConfig, method: str = "both", threads: int = 1,
             nodes: int = 64):
    """(quad, both, treated, agreement): the closed form, the S_++ and S_*+
    Monte Carlo effects and their ``_gap_check``, None where ``method``
    skips one.  The closed form runs before any subject is drawn, and
    ``quadrature`` draws none; the subjects are streamed in id blocks on
    ``threads`` threads, keeping only their cells' exact sums."""
    quad = (null_stratum_effect(cfg.params, nodes=nodes)
            if method != "mc" else None)
    if method == "quadrature":
        return quad, None, None, None
    sums = stratum_sums(cfg, (S_BOTH, S_TREATED), threads)
    both = oracle_effect(sums, S_BOTH)
    treated = oracle_effect(sums, S_TREATED)
    if quad is None:
        return quad, both, treated, None
    return quad, both, treated, _gap_check(quad, treated.value, treated.se,
                                           _MC_AGREEMENT_SIGMAS)


def _calibration(cfg: ScenarioConfig, control, estimator: str, R: int,
                 threads: int):
    """(cal, truth): the split calibration of the trial's control arm and,
    on an outcome-null scenario, the closed form and the offset-vs-truth
    ``_gap_check`` as (quad, gap, bound, match)."""
    cal = split_calibrate(control, estimator=estimator, R=R,
                          seed=cfg.seed, threads=threads)
    if not is_outcome_null(cfg.params):
        return cal, None
    quad = null_stratum_effect(cfg.params)
    return cal, (quad, *_gap_check(cal.mean_offset, quad, cal.se_offset,
                                   _CALIBRATION_SIGMAS))


def cmd_simulate(args, cfg: ScenarioConfig) -> Run:
    data = generate(cfg)
    obs = observe(data, keep_y_after_dropout=args.keep_y)
    print(f"scenario '{cfg.label}': n={cfg.n}, K={cfg.params.K}, "
          f"seed={cfg.seed}")
    print(f"adherence: arm 0 {data.a[:, 0].mean():.4f}, "
          f"arm 1 {data.a[:, 1].mean():.4f} "
          f"(observed arms: {obs.a.mean():.4f})")
    return {"subjects.csv": lambda p: write_subjects_csv(data, p),
            "observed.csv": lambda p: write_observed_csv(obs, p)}, 0


def cmd_true_effect(args, cfg: ScenarioConfig) -> Run:
    quad, both, mc, agreement = _oracles(cfg, args.method, args.threads,
                                         nodes=args.nodes)
    print(f"scenario '{cfg.label}': n={cfg.n}, seed={cfg.seed}")
    rows = []
    for stratum, est in ((S_BOTH, both), (S_TREATED, mc)):
        if est is not None:
            rows.append((cfg.label, stratum.code, est))
            print(f"{stratum.code} effect (MC, {est.n_members} members): "
                  f"{est.value:.4f} +/- {est.se:.4f}")
    if quad is not None:
        rows.append((cfg.label, S_TREATED.code + "[quadrature]",
                     EffectEstimate(value=quad, se=0.0, n_members=0)))
        print(f"S_*+ effect (quadrature): {quad:.4f}")
    if agreement is not None:
        gap, bound, agree = agreement
        verdict = "AGREE" if agree else "DISAGREE"
        print(f"agreement: |quadrature - MC| = {gap:.4f} vs "
              f"{_MC_AGREEMENT_SIGMAS}*SE = {bound:.4f} -> {verdict}")
    return {"effects.csv": lambda p: write_effects_csv(rows, p)}, 0


def cmd_calibrate(args, cfg: ScenarioConfig) -> Run:
    check_rounds(args.R)  # before any subject is drawn
    obs = observe(cfg, keep_y_after_dropout=True)
    print(f"scenario '{cfg.label}': estimator={args.estimator}, "
          f"R={args.R}, control n={int((obs.t == 0).sum())}")
    # fit.csv's arm-1 fit, before the splits: a singular design
    # (sigma_eta = 0) is reported before any round runs
    fit = fit_sequential_logistic(obs) if args.estimator == "plugin" else None
    control = obs.subset(obs.t == 0)
    del obs  # the split rounds read only the control arm
    cal, truth = _calibration(cfg, control, args.estimator, args.R,
                              args.threads)
    print(f"mean offset: {cal.mean_offset:.4f} +/- {cal.se_offset:.4f} "
          f"({cal.n_failed} failed splits)")
    if truth is not None:
        quad, gap, bound, match = truth
        verdict = "MATCH" if match else "MISMATCH"
        print(f"true stratum effect (quadrature): {quad:.4f}")
        print(f"verdict: |offset - true| = {gap:.4f} vs "
              f"{_CALIBRATION_SIGMAS}*SE = {bound:.4f} -> {verdict}")
    outputs = {"calibration.csv":
               lambda p: write_calibration_csv([(cfg.label, cal)], p)}
    if fit is not None:
        outputs["fit.csv"] = lambda p: write_fit_csv(fit, p)
    return outputs, 0


def _demo_claims(seed_override, threads):
    """Run the bundled suite: (claims, effect rows, calibration rows),
    each claim a (claim, detail, passed) triple."""
    claims = []

    def load(name):
        cfg = load_bundled(name)
        if seed_override is not None:
            cfg = replace(cfg, seed=seed_override + len(claims))
        return cfg

    def near_zero(est):
        return _gap_check(est.value, 0.0, est.se, _MC_AGREEMENT_SIGMAS)[2]

    # 1-2: under a full null the treated-adherent stratum effect is
    # nonzero, a selection bias, while the always-adherent one is zero.
    cfg = load("full_null_demo")
    quad, both, treated, (_, bound, agree) = _oracles(cfg, threads=threads)
    bias = bias_decomposition(cfg, threads)
    effect_rows = [(cfg.label, S_TREATED.code, treated),
                   (cfg.label, S_BOTH.code, both)]
    claims += [
        ("treated-adherent stratum effect is nonzero under the full null",
         f"quadrature {quad:.4f}, MC {treated.value:.4f} +/- "
         f"{treated.se:.4f}; MC = ITT {bias.mean_y1 - bias.mean_y0:.4f} + "
         f"treated shift {bias.shift_treated:.4f} - control shift "
         f"{bias.shift_control:.4f}", quad > bound and agree),
        ("always-adherent stratum effect is zero under the full null",
         f"MC {both.value:.4f} +/- {both.se:.4f}", near_zero(both))]

    # 3-4: either zero loading wipes the effect out.
    for name, what in (("zero_beta3", "outcome loading beta3 = 0"),
                       ("zero_gamma3", "adherence loading gamma3 = 0")):
        cfg = load(name)
        quad, _, est, _ = _oracles(cfg, threads=threads)
        effect_rows.append((cfg.label, S_TREATED.code, est))
        claims.append((
            f"stratum effect vanishes when {what}",
            f"quadrature {quad:.2e}, MC {est.value:.4f} +/- {est.se:.4f}",
            abs(quad) <= 1e-12 and near_zero(est)))

    # 5: control-split calibration misses the truth under a partial null.
    cfg = load("partial_null_gamma2")
    obs = observe(cfg, keep_y_after_dropout=True)
    control = obs.subset(obs.t == 0)
    del obs
    cal, (quad, _, _, match) = _calibration(cfg, control, "plugin", 200,
                                            threads)
    claims.append((
        "control-split calibration misses the stratum effect under a "
        "partial null (gamma2 != 0)",
        f"offset {cal.mean_offset:.4f} +/- {cal.se_offset:.4f} vs true "
        f"{quad:.4f}", not match))

    return claims, effect_rows, [(cfg.label, cal)]


def cmd_paper_demo(args, cfg: None) -> Run:
    claims, effect_rows, calibration_rows = _demo_claims(
        args.seed, args.threads)

    lines = ["# Stratum-effect demonstration report", "",
             "| # | claim | detail | verdict |",
             "|---|-------|--------|---------|"]
    for i, (claim, detail, ok) in enumerate(claims, start=1):
        verdict = "PASS" if ok else "FAIL"
        print(f"claim {i}/{len(claims)}: {claim} -> {verdict}")
        print(f"    {detail}")
        lines.append(f"| {i} | {claim} | {detail} | {verdict} |")
    n_pass = sum(ok for _, _, ok in claims)
    lines += ["", f"{n_pass}/{len(claims)} claims passed."]
    return {"report.md": lambda p: p.write_text("\n".join(lines) + "\n"),
            "effects.csv": lambda p: write_effects_csv(effect_rows, p),
            "calibration.csv": lambda p: write_calibration_csv(
                calibration_rows, p)}, len(claims) - n_pass


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    common.add_argument("--out", default=".",
                        help="output directory (created if missing)")
    threaded = argparse.ArgumentParser(add_help=False)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)  # the CPUs this process may run on
    threaded.add_argument("--threads", type=int, default=cpus,
                          help="worker threads (default: the usable CPUs; "
                               "results do not depend on it)")

    parser = argparse.ArgumentParser(
        prog="stratabias",
        description="Principal-stratum selection-bias simulator and "
                    "numerical oracles.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="write subjects.csv and observed.csv for a "
                            "scenario")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--keep-y", action=argparse.BooleanOptionalAction,
                   default=False,
                   help="record outcomes for non-adherers too "
                        "(default: censored at dropout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("true-effect", parents=[common, threaded],
                       help="stratum effects by Monte Carlo and/or "
                            "quadrature")
    p.add_argument("scenario")
    p.add_argument("--method", choices=("quadrature", "mc", "both"),
                   default="both")
    p.add_argument("--n", type=int, default=None,
                   help="override the scenario's subject count")
    p.add_argument("--nodes", type=int, default=64,
                   help="quadrature nodes per dimension, checked against "
                        "twice as many (default: %(default)s)")
    p.set_defaults(func=cmd_true_effect)

    p = sub.add_parser("calibrate", parents=[common, threaded],
                       help="random-split null calibration on the "
                            "control arm")
    p.add_argument("scenario")
    p.add_argument("--estimator", choices=sorted(ESTIMATORS),
                   default="plugin")
    p.add_argument("--R", type=int, default=200,
                   help="number of random splits")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("paper-demo", parents=[common, threaded],
                       help="run the bundled scenario suite and write a "
                            "PASS/FAIL report")
    p.set_defaults(func=cmd_paper_demo)
    return parser


def main(argv=None) -> int:
    """Run one subcommand, then write its outputs and ``manifest.json``
    into ``--out``, made only now so that a failed run leaves no
    directory.  Failed claims exit 1 after the manifest."""
    args = _build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        cfg = _load_config(args) if "scenario" in args else None
        if getattr(args, "threads", 1) < 1:  # before any subcommand's work
            raise ValueError(f"threads must be >= 1, got {args.threads}")
        outputs, n_failed = args.func(args, cfg)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, write in outputs.items():
            write(out / name)
            print(f"wrote {out / name}")
        manifest = {
            "scenario_label": cfg.label if cfg else "bundled-suite",
            "command": args.command,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "seed": cfg.seed if cfg else args.seed,
            "version": __version__,
            "outputs": list(outputs),
            "duration_seconds": round(time.monotonic() - t0, 3),
        }
        with open(out / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    except (RefinementError, CalibrationError, FitError, EstimatorError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # ParamError, QuadratureError, bad JSON, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if n_failed:
        print(f"{n_failed} claim(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
