"""Simulation and numerical oracles for principal-stratum selection bias.

A randomized trial with post-baseline adherence is simulated at the
potential-outcome level, so stratum membership (who would adhere under
which arm) is known exactly.  The package demonstrates - by Monte Carlo
oracle, by closed-form quadrature, and through observed-data estimators
with a random-split calibration - that the treatment effect restricted
to the stratum adherent under the experimental arm is generally nonzero
even when treatment affects nothing at the patient level, while the
effect in the stratum adherent under both arms is exactly zero.
"""

__version__ = "0.1.0"

from .params import (ModelParams, ParamError, ScenarioConfig,
                     bundled_scenario_names, dump_scenario, is_outcome_null,
                     load_bundled, load_scenario, validate)
from .datagen import (ObservedData, SubjectData, generate, generate_block,
                      observe, write_observed_csv, write_subjects_csv)
from .strata import (EffectEstimate, EmptyStratumError, S_BOTH, S_CONTROL,
                     S_TREATED, StratumLabel, bias_decomposition, members,
                     oracle_effect, tower_check, write_effects_csv)
from .quadrature import QuadratureError, RefinementError, null_stratum_effect
from .calibration import (ESTIMATORS, CalibrationError, EstimatorError,
                          FitError, LogisticFit, SeparationError,
                          SplitCalibration, estimate_naive, estimate_plugin,
                          fit_sequential_logistic, split_calibrate,
                          write_calibration_csv, write_fit_csv)

__all__ = [
    "__version__",
    # params
    "ModelParams", "ParamError", "ScenarioConfig", "bundled_scenario_names",
    "dump_scenario", "is_outcome_null", "load_bundled", "load_scenario",
    "validate",
    # datagen
    "ObservedData", "SubjectData", "generate", "generate_block", "observe",
    "write_observed_csv", "write_subjects_csv",
    # strata
    "EffectEstimate", "EmptyStratumError", "S_BOTH", "S_CONTROL",
    "S_TREATED", "StratumLabel", "bias_decomposition", "members",
    "oracle_effect", "tower_check", "write_effects_csv",
    # quadrature
    "QuadratureError", "RefinementError", "null_stratum_effect",
    # calibration
    "ESTIMATORS", "CalibrationError", "EstimatorError", "FitError",
    "LogisticFit", "SeparationError", "SplitCalibration", "estimate_naive",
    "estimate_plugin", "fit_sequential_logistic", "split_calibrate",
    "write_calibration_csv", "write_fit_csv",
]
