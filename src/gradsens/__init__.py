"""gradsens: exceedance probabilities and their parameter sensitivities from a
single Subset Simulation run, via response gradients and kernel smoothing.
"""

__version__ = "0.1.0"

from .model import ModelDomainError, ModelSpec, ResponseModel
from .responses import (BucklingResponse, NormalResponse, PileResponse, SdofResponse,
                        build_model)
from .sensest import (KernelSpec, SensitivityCurve, normalize_curve, sensitivity_direct_mc,
                      sensitivity_subsim)
from .subsim import BinPartition, CcdfCurve, SsConfig, run_subset_simulation
from .benchmarks import (BenchmarkResult, analytic_buckling, analytic_normal,
                         crn_central_difference)

__all__ = [
    "ModelDomainError", "ModelSpec", "ResponseModel",
    "NormalResponse", "BucklingResponse", "SdofResponse", "PileResponse", "build_model",
    "KernelSpec", "SensitivityCurve", "sensitivity_direct_mc", "sensitivity_subsim",
    "normalize_curve", "SsConfig", "BinPartition", "CcdfCurve", "run_subset_simulation",
    "BenchmarkResult", "analytic_normal", "analytic_buckling", "crn_central_difference",
    "__version__",
]
