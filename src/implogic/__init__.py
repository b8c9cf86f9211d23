"""implogic: simulator and design toolkit for memristor-based stateful
implication logic.

The library covers the closed-form set-margin theory for ohmic devices,
numerical bias optimization for nonlinear devices, quasi-static execution
of reset/implication step programs on a two-level device stack under
cycle-to-cycle threshold variation, and compilation of NAND / NOT /
full-adder / ripple-carry-adder micro-programs.
"""

from .device import (DeviceState, LinearIV, Logic, MemristorSpec, SinhIV,
                     ThresholdSample, bottom_device_spec, current,
                     decode_bit, ideal_device_spec, nominal_thresholds,
                     read_conductance, sinh_iv_from_conductances,
                     top_device_spec)
from .margins import (MarginReport, analytic_report, delta_actual,
                      delta_general, delta_ideal_parallel, delta_memory,
                      implied_margins, legacy_load, optimal_bias,
                      optimal_i_l, sweep_rows)
from .montecarlo import YieldReport, estimate_yield
from .optimizer import (Infeasible, OptimizationResult, evaluate_margin,
                        optimize, worst_slack)
from .program import (ExecutionTrace, ImpStep, PlacementInfeasible,
                      ProgramError, ReadStep, ResetStep, Step, StepProgram,
                      WriteStep, compile_full_adder, default_configs,
                      execute, nand_macro, not_macro, ripple_adder_8bit,
                      with_inputs)
from .solver import NodeSolution, NoConvergence, SwitchEvent, solve_pair
from .topology import (Cell, CurrentSourceLoad, ImpConfig, Level,
                       NotAdjacent, Orientation, Polarity, ResistiveLoad,
                       StackTopology, build_adder_stack, build_default_stack)

__version__ = "0.1.0"
