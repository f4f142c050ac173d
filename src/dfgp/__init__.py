"""Dynamic fused Gaussian process data fusion.

Filtering and smoothing of a latent spatio-temporal field observed by
multiple instruments at different footprint resolutions, combining a
low-rank dynamic basis component with a CAR Markov-random-field fine-scale
component, estimated by (stochastic) EM.
"""

__version__ = "0.1.0"

from .basis import BisquareBasis, bisquare_eval, layout_multires
from .car import CARParams, CARStructure, build_adjacency, sample_car, sparse_factorize
from .cv import HoldoutPlan, run_cv, split_holdout
from .dynamics import (FilterResult, PredictionField, SmootherResult,
                       StatePosterior, filter_pass, filter_step, forecast_step,
                       predict_filter, predict_smooth, smoother_pass)
from .estimate import (EstimationResult, EstimatorConfig, SufficientStats, e_step,
                       fit_filtering_sequence, init_params, m_step, run_estimator)
from .exceptions import (FactorizationError, InvalidFootprintError,
                         InvalidParameterError, NumericalError, StructureError)
from .grid import BAUGrid, Observations, build_grid
from .model import AssembledTimeSlice, DFGPParams, ModelData, assemble
from .baselines import ExpCovParams, LocalKrigeSettings, exp_cov, local_krige
from .scoring import crps_gaussian, rmspe
from .synth import InstrumentSpec, ScenarioConfig, observe, scenario_data, simulate_truth
