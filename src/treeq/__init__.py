"""Mixed-precision quantization sandbox.

Builds Hadamard-domain quantized layers with low-rank and block-Monarch
correction branches, and searches per-layer bit-widths with a tree of
Pareto queues evaluated under an environment bit-width.  Everything runs
against a seeded synthetic network so results are exactly reproducible.
"""

from .branches import (
    GmbFactors,
    LrbFactors,
    QuantizedLinear,
    gmb_build_factored,
    gmb_decompose,
    gmb_reconstruct_blocks,
    init_lrb,
    quantize_layer,
)
from .linalg import hadamard, matmul, top_singular_pair, truncated_svd
from .quantizer import (
    DeltaTable,
    QuantizerSpec,
    calibrate_delta,
    default_delta_table,
    quantize_uniform,
    quantize_weight_channelwise,
)
from .search import (
    ParetoEntry,
    ParetoQueue,
    SearchParams,
    SearchResult,
    apply_eng,
    build_frontier,
    dominates,
    leaf_queue,
    merge,
    tss_search,
)
from .baselines import (
    SensitivityTable,
    build_sensitivity_table,
    ip_allocate,
    layer_sensitivity,
    uniform_allocate,
)
from .toymodel import (
    CalibrationSet,
    ModelSpec,
    QuantContext,
    ToyModel,
    end_to_end_mse,
    forward_batch,
    gen_calibration,
    gen_model,
    mean_bitwidth,
)

__version__ = "0.1.0"
