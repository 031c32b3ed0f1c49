"""Calibrating a stratum-effect estimator against its own null, and
the scenario where that calibration quietly breaks.

An analyst sees only one arm's outcomes per subject, so the oracle
contrast of demo 01 is out of reach.  The plug-in estimator rebuilds
it from fitted pieces (an adherence model on arm 1, an outcome model
on arm 0).  How large would that estimate be under a patient-level
null?  Split calibration answers without new data: repeatedly split
the control arm into two pseudo-arms - true null by construction -
and rerun the estimator.

That logic leans on an exchangeability assumption: a pseudo-trial
built from control subjects must look like a real null trial.  A
"partial null" breaks it - treatment that moves adherence (gamma2=2)
but not the outcome.  The control arm carries no trace of gamma2, so
the calibration lands far from the truth.

Run:  python3 demos/04_split_calibration.py        (a few seconds)
"""

import dataclasses

from stratabias import (estimate_naive, estimate_plugin, generate,
                        load_bundled, null_stratum_effect, observe,
                        split_calibrate)

R = 60


def trial(name, n=100_000):
    cfg = dataclasses.replace(load_bundled(name), n=n)
    return observe(generate(cfg), keep_y_after_dropout=True), cfg


print("--- full null ---------------------------------------------")
obs, cfg = trial("full_null_demo")
truth = null_stratum_effect(cfg.params)
naive = estimate_naive(obs)
plug = estimate_plugin(obs, compute_se=False)
print(f"true stratum effect (quadrature):   {truth:8.4f}")
print(f"naive adherers-vs-adherers:         {naive.value:8.4f} "
      f"+/- {naive.se:.4f}   (blind to the stratum)")
print(f"plug-in estimate:                   {plug.value:8.4f}")

cal = split_calibrate(obs.subset(obs.t == 0), estimator="plugin",
                      R=R, seed=1)
print(f"split-calibrated null offset (R={R}): {cal.mean_offset:6.4f} "
      f"+/- {cal.se_offset:.4f}")
print("=> the offset reproduces the estimator's null value: an "
      "analyst who\n   subtracts it correctly reads this trial as "
      "'no real effect'.")

print("\n--- partial null: gamma2 = 2 moves adherence only ---------")
obs, cfg = trial("partial_null_gamma2")
truth = null_stratum_effect(cfg.params)
plug = estimate_plugin(obs, compute_se=False)
cal = split_calibrate(obs.subset(obs.t == 0), estimator="plugin",
                      R=R, seed=2)
gap = abs(cal.mean_offset - truth)
print(f"true stratum effect (quadrature):   {truth:8.4f}")
print(f"plug-in estimate:                   {plug.value:8.4f}")
print(f"split-calibrated null offset (R={R}): {cal.mean_offset:6.4f} "
      f"+/- {cal.se_offset:.4f}")
print(f"=> offset misses the truth by {gap:.4f} "
      f"({gap / cal.se_offset:.0f} SEs): control-arm splits cannot\n"
      "   mimic a treatment that changes who adheres.")
