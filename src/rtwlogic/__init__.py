"""Deterministic simulator and analysis toolkit for instantaneous logic
carried by random telegraph wave reference systems.

The package covers the scaled two-reference bit representation that keeps
the complete uniform superposition non-zero, and the time-shifted scheme
that identifies an unknown reference-product string in time linear in the
number of noise-bits, together with exact symbolic oracles and
reproducible Monte Carlo experiments for every probability claim.
"""

# rtw (numpy via rng) first: numpy imported inside algebra's import starts ~20 ms slower
from .rtw import ClockGrid, ReferenceSystem, build_reference_system
from .algebra import (
    FactoredSuperposition,
    ProductString,
    Superposition,
    apply_not,
    evaluate_product,
    evaluate_symbolic,
    expand,
    uniform_superposition,
)
from .experiments import (
    ExperimentReport,
    amplitude_range_experiment,
    identification_benchmark,
    identification_experiment,
    not_gate_demo,
    resolution_bits,
    zero_probability_experiment,
)
from .identify import (
    ErrorBudget,
    IdentificationResult,
    SearchResult,
    VerificationResult,
    baseline_search,
    baseline_verify,
    error_bound,
    required_periods,
    tsinbl_identify,
    verification_error_bound,
    verification_periods,
)
from .signal import (
    SignalTrace,
    multiply_traces,
    product_readouts,
    readout,
    superposition_readouts,
    trace_product,
    trace_selection,
    trace_superposition,
    write_trace_csv,
)

__all__ = [
    "ClockGrid",
    "ErrorBudget",
    "ExperimentReport",
    "FactoredSuperposition",
    "IdentificationResult",
    "ProductString",
    "ReferenceSystem",
    "SearchResult",
    "SignalTrace",
    "Superposition",
    "VerificationResult",
    "amplitude_range_experiment",
    "apply_not",
    "baseline_search",
    "baseline_verify",
    "build_reference_system",
    "error_bound",
    "evaluate_product",
    "evaluate_symbolic",
    "expand",
    "identification_benchmark",
    "identification_experiment",
    "multiply_traces",
    "not_gate_demo",
    "product_readouts",
    "readout",
    "required_periods",
    "resolution_bits",
    "superposition_readouts",
    "trace_product",
    "trace_selection",
    "trace_superposition",
    "tsinbl_identify",
    "uniform_superposition",
    "verification_error_bound",
    "verification_periods",
    "write_trace_csv",
    "zero_probability_experiment",
]

__version__ = "0.1.0"
