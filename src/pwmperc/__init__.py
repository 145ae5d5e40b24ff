"""Behavioral simulator for PWM duty-cycle perceptron hardware.

Layers of the package, bottom up:

* signals   - PWM waveforms and supply profiles
* analytic  - closed-form weighted-VAC equilibrium
* transient - event-driven piecewise-exponential RC solver + metrics
* converter - voltage-to-PWM transfer models, cubic fitting, fixed points
* perceptron- composed VAC + converter evaluation, chained stages
* nn        - duty-cycle MAC networks, FP and integer-weight training
* mnist     - IDX ingestion, images kept as pixel bytes
* cli       - reproducible batch experiments emitting CSV + manifest
"""

from .analytic import WeightVector, vac_equilibrium, weighted_dc_sum
from .converter import (ConverterModel, FitResult, FixedPoint, FixedPointScan,
                        find_fixed_points, fit_cubic, is_no_oscillation,
                        stage_map, stage_map_and_slope, stage_map_deriv,
                        v_to_dc)
from .mnist import Dataset, load_idx, load_mnist, subsample
from .nn import (ActivationKind, Network, NetworkConfig, TrainReport,
                 activation, activation_and_slope, activation_deriv, evaluate,
                 integer_weight_delta, train)
from .perceptron import (PerceptronConfig, chain_eval, dynamic_duty_trace,
                         perceptron_eval, response_curve)
from .signals import (ConstantSupply, PiecewiseLinearSupply, PwmSignal,
                      SinusoidSupply, SupplyProfile)
from .transient import (FloatingNodeError, StimulusBatch, TraceMetrics,
                        TransientTrace, VacConfig, VacStimulus, simulate_vac,
                        steady_state, steady_states, sweep, trace_metrics)

__version__ = "0.1.0"
