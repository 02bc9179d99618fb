"""Exact canonical bases, modular grids and trace operators for genus-zero
Gamma_0(N).

The package builds row-reduced canonical bases of the spaces of weakly
holomorphic modular forms with poles only at infinity (and of the subspaces
vanishing at the other cusps), checks the coefficient duality between the
weight-k and weight-(2-k) grids, computes level-lowering traces by
principal-part matching, and classifies exactly when the trace preserves the
duality, including the obstruction products in the generating-function
identities.
"""

from gridforge.qseries import QSeries, PrecisionError, DEFAULT_PREC, as_coeff
from gridforge.generators import (
    EtaQuotient,
    eisenstein,
    phi,
    j_function,
    serre_derivative,
)
from gridforge.leveldata import (
    LevelData,
    GENUS_ZERO_LEVELS,
    get_level,
    v_of,
    u_of,
    cusp_killer,
    registry_dump,
)
from gridforge.seedsynth import SynthesisError, build_family, synthesize_seed
from gridforge.basis import (
    INF,
    HAT,
    CanonicalBasis,
    IntegralityError,
    ModularGrid,
    first_element,
    build_basis,
    build_grid,
    duality_residual,
)
from gridforge.traceops import (
    TraceReport,
    Classification,
    ObstructionPair,
    ObstructionList,
    mk_trivial,
    sk_trivial,
    trace,
    classify,
    obstructions,
    genfun_check,
    genfun_closed_form,
)

__version__ = "0.1.0"
