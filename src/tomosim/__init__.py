"""Monte-Carlo simulator and analysis toolkit for adaptive quantum state
tomography with rank-preserving measurement transformations."""

from .analysis import (
    ConvergenceCurve,
    PowerLawFit,
    asymptotic_constant,
    average_curves,
    efficiency_ratio,
    fit_power_law,
    gill_massar_bound,
)
from .estimation import (
    LikelihoodData,
    MeasurementRecord,
    MleOptions,
    log_likelihood,
    mle_estimate,
)
from .protocols import (
    PROTOCOLS,
    MeasurementPlan,
    apply_unitary_freedom,
    complement_minimal,
    complement_to_basis,
    next_plan,
    normalize_with_time,
    rank_preserving_map,
)
from .quantum import (
    DensityMatrix,
    PovmElement,
    bures_sq,
    fidelity,
    haar_unitary,
    maximally_mixed,
    mub_qubit,
    random_bures_mixed,
    random_pure_haar,
)
from .simulator import (
    GroupedRecord,
    RecordStream,
    Schedule,
    SourceModel,
    Trace,
    read_records,
    replay_counts,
    run_tomography,
    sample_counts,
    write_records,
)

__version__ = "0.1.0"
