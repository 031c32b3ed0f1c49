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
from .calibration import (CalibrationError, EstimatorError, FitError,
                          fit_sequential_logistic, split_calibrate,
                          write_calibration_csv, write_fit_csv)
from .datagen import generate, observe, write_observed_csv, write_subjects_csv
from .params import (ScenarioConfig, is_outcome_null, load_bundled,
                     load_scenario)
from .quadrature import RefinementError, null_stratum_effect
from .strata import (S_BOTH, S_TREATED, EffectEstimate, oracle_effect,
                     write_effects_csv)

Run = tuple[list[Path], int]  # a subcommand's (outputs, failed claims)

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


def cmd_simulate(args, cfg: ScenarioConfig, out: Path) -> Run:
    data = generate(cfg)
    obs = observe(data, keep_y_after_dropout=args.keep_y)
    subjects_path = out / "subjects.csv"
    observed_path = out / "observed.csv"
    write_subjects_csv(data, subjects_path)
    write_observed_csv(obs, observed_path)
    print(f"scenario '{cfg.label}': n={cfg.n}, K={cfg.params.K}, "
          f"seed={cfg.seed}")
    print(f"adherence: arm 0 {data.a[:, 0].mean():.4f}, "
          f"arm 1 {data.a[:, 1].mean():.4f} "
          f"(observed arms: {obs.a.mean():.4f})")
    return [subjects_path, observed_path], 0


def cmd_true_effect(args, cfg: ScenarioConfig, out: Path) -> Run:
    quad = None
    if args.method in ("quadrature", "both"):
        quad = null_stratum_effect(cfg.params, args.nodes)

    print(f"scenario '{cfg.label}': n={cfg.n}, seed={cfg.seed}")
    data = generate(cfg)
    both = oracle_effect(data, S_BOTH)
    rows = [(cfg.label, S_BOTH.code, both)]
    print(f"S_++ effect (MC, {both.n_members} members): "
          f"{both.value:.4f} +/- {both.se:.4f}")

    mc = None
    if args.method in ("mc", "both"):
        mc = oracle_effect(data, S_TREATED)
        rows.append((cfg.label, S_TREATED.code, mc))
        print(f"S_*+ effect (MC, {mc.n_members} members): "
              f"{mc.value:.4f} +/- {mc.se:.4f}")
    if quad is not None:
        rows.append((cfg.label, S_TREATED.code + "[quadrature]",
                     EffectEstimate(value=quad, se=0.0, n_members=0,
                                    stratum=S_TREATED)))
        print(f"S_*+ effect (quadrature): {quad:.4f}")
    if quad is not None and mc is not None:
        gap, bound, agree = _gap_check(quad, mc.value, mc.se,
                                       _MC_AGREEMENT_SIGMAS)
        verdict = "AGREE" if agree else "DISAGREE"
        print(f"agreement: |quadrature - MC| = {gap:.4f} vs "
              f"{_MC_AGREEMENT_SIGMAS}*SE = {bound:.4f} -> {verdict}")

    effects_path = out / "effects.csv"
    write_effects_csv(rows, effects_path)
    return [effects_path], 0


def cmd_calibrate(args, cfg: ScenarioConfig, out: Path) -> Run:
    data = generate(cfg)
    obs = observe(data, keep_y_after_dropout=args.keep_y)
    control = obs.subset(obs.t == 0)
    print(f"scenario '{cfg.label}': estimator={args.estimator}, "
          f"R={args.R}, control n={len(control)}")
    # fitted before the splits: a singular arm-1 design (sigma_eta = 0)
    # fails every split the same way, so it is reported before any runs
    fit = fit_sequential_logistic(obs, arm=1)
    cal = split_calibrate(control, estimator=args.estimator, R=args.R,
                          seed=cfg.seed, threads=args.threads)
    print(f"mean offset: {cal.mean_offset:.4f} +/- {cal.se_offset:.4f} "
          f"({cal.n_failed} failed splits)")
    if is_outcome_null(cfg.params):
        quad = null_stratum_effect(cfg.params)
        gap, bound, match = _gap_check(cal.mean_offset, quad, cal.se_offset,
                                       _CALIBRATION_SIGMAS)
        verdict = "MATCH" if match else "MISMATCH"
        print(f"true stratum effect (quadrature): {quad:.4f}")
        print(f"verdict: |offset - true| = {gap:.4f} vs "
              f"{_CALIBRATION_SIGMAS}*SE = {bound:.4f} -> {verdict}")
    calibration_path = out / "calibration.csv"
    write_calibration_csv([(cfg.label, cal)], calibration_path)
    fit_path = out / "fit.csv"
    write_fit_csv(fit, fit_path)
    return [calibration_path, fit_path], 0


def _demo_claims(seed_override, threads):
    """Run the bundled suite; yields (claim, detail, passed) triples
    plus collected effect and calibration rows for the CSV reports."""
    claims = []
    effect_rows = []
    calibration_rows = []

    def load(name):
        cfg = load_bundled(name)
        if seed_override is not None:
            cfg = replace(cfg, seed=seed_override + len(claims))
        return cfg

    # 1-2: under a full null the treated-adherent stratum effect is
    # nonzero while the always-adherent stratum effect is zero.
    cfg = load("full_null_demo")
    quad = null_stratum_effect(cfg.params)
    data = generate(cfg)
    treated = oracle_effect(data, S_TREATED)
    both = oracle_effect(data, S_BOTH)
    effect_rows += [(cfg.label, S_TREATED.code, treated),
                    (cfg.label, S_BOTH.code, both)]
    _, bound, agree = _gap_check(quad, treated.value, treated.se,
                                 _MC_AGREEMENT_SIGMAS)
    ok = quad > bound and agree
    claims.append((
        "treated-adherent stratum effect is nonzero under the full null",
        f"quadrature {quad:.4f}, MC {treated.value:.4f} +/- "
        f"{treated.se:.4f}", ok))
    claims.append((
        "always-adherent stratum effect is zero under the full null",
        f"MC {both.value:.4f} +/- {both.se:.4f}",
        _gap_check(both.value, 0.0, both.se, _MC_AGREEMENT_SIGMAS)[2]))

    # 3-4: either zero loading wipes the effect out.
    for name, what in (("zero_beta3", "outcome loading beta3 = 0"),
                       ("zero_gamma3", "adherence loading gamma3 = 0")):
        cfg = load(name)
        quad = null_stratum_effect(cfg.params)
        est = oracle_effect(generate(cfg), S_TREATED)
        effect_rows.append((cfg.label, S_TREATED.code, est))
        ok = (abs(quad) <= 1e-12
              and _gap_check(est.value, 0.0, est.se, _MC_AGREEMENT_SIGMAS)[2])
        claims.append((
            f"stratum effect vanishes when {what}",
            f"quadrature {quad:.2e}, MC {est.value:.4f} +/- {est.se:.4f}",
            ok))

    # 5: control-split calibration misses the truth under a partial null.
    cfg = load("partial_null_gamma2")
    quad = null_stratum_effect(cfg.params)
    obs = observe(generate(cfg), keep_y_after_dropout=True)
    cal = split_calibrate(obs.subset(obs.t == 0), estimator="plugin",
                          R=200, seed=cfg.seed, threads=threads)
    calibration_rows.append((cfg.label, cal))
    claims.append((
        "control-split calibration misses the stratum effect under a "
        "partial null (gamma2 != 0)",
        f"offset {cal.mean_offset:.4f} +/- {cal.se_offset:.4f} vs true "
        f"{quad:.4f}", not _gap_check(cal.mean_offset, quad, cal.se_offset,
                                      _CALIBRATION_SIGMAS)[2]))

    return claims, effect_rows, calibration_rows


def cmd_paper_demo(args, cfg: None, out: Path) -> Run:
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

    outputs = [out / "report.md", out / "effects.csv",
               out / "calibration.csv"]
    outputs[0].write_text("\n".join(lines) + "\n")
    write_effects_csv(effect_rows, outputs[1])
    write_calibration_csv(calibration_rows, outputs[2])
    return outputs, len(claims) - n_pass


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    common.add_argument("--out", default=".",
                        help="output directory (created if missing)")
    threaded = argparse.ArgumentParser(add_help=False)
    threaded.add_argument("--threads", type=int,
                          default=os.cpu_count() or 1,
                          help="worker cap for the calibration splits "
                               "(results do not depend on it)")

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

    p = sub.add_parser("true-effect", parents=[common],
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
    p.add_argument("--estimator", choices=("naive", "plugin"),
                   default="plugin")
    p.add_argument("--R", type=int, default=200,
                   help="number of random splits")
    p.add_argument("--keep-y", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="record outcomes for non-adherers (the plug-in "
                        "estimator's outcome model wants this)")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("paper-demo", parents=[common, threaded],
                       help="run the bundled scenario suite and write a "
                            "PASS/FAIL report")
    p.set_defaults(func=cmd_paper_demo)
    return parser


def main(argv=None) -> int:
    """Run one subcommand, then record it in ``manifest.json``.  The
    scenario loads before ``--out`` is made, so a scenario that fails to
    load leaves no directory.  Failed claims exit 1 after the manifest."""
    args = _build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        cfg = _load_config(args) if "scenario" in args else None
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        outputs, n_failed = args.func(args, cfg, out)
        for p in outputs:
            print(f"wrote {p}")
        manifest = {
            "scenario_label": cfg.label if cfg else "bundled-suite",
            "command": args.command,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "seed": cfg.seed if cfg else args.seed,
            "version": __version__,
            "outputs": [p.name for p in outputs],
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
