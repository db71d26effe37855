"""cronlab: pseudospectral harmonic-analysis and gauge-wave toolkit on a periodic box.

Layers, bottom up:

* ``grid``        sampled real and complex fields, transforms, multipliers, norms
* ``lp``          dyadic projections, Besov / spacetime norms, measured inequalities
* ``gauge``       Leray projection, sector and transverse symbols, connection geometry
* ``mkg``         the Coulomb-gauge Maxwell-Klein-Gordon evolution and diagnostics
* ``parametrix``  null-direction phases, the distorted-plane-wave operator and scans
* ``harness``     reproducible experiment suites, CSV artifacts, acceptance records
"""

import os

# One BLAS thread unless the caller set a count: the small matrix products and
# reductions here wake idle OpenBLAS workers, which then spin.  This must run
# before numpy is first imported, which loads BLAS and reads the variables.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .errors import (ConvergenceError, CronlabError, ParameterError, PreconditionError,
                     StructuralError)
from .grid import (FREQUENCY, PHYSICAL, GridSpec, ScalarField, VectorField, apply_multiplier,
                   constant_field, divergence, gradient, inner_product, inverse_laplacian,
                   laplacian, lebesgue_norm, mode_field, partial_derivative, plane_wave,
                   sobolev_norm, to_frequency, to_physical, vector_lebesgue_norm, zero_field)
from .lp import (BandRange, BumpProfile, DEFAULT_BUMP, SpacetimeField, bernstein_ratio,
                 besov_norm, besov_norms, commutator_ratios, project_band, restrict_annulus,
                 spacetime_norm, spacetime_product_ratio)
from .gauge import coulomb_gain_ratios, leray_project, null_form_check
from .exponents import exponents, sigma_window
from .mkg import (ConnectionState, EnergyReport, constraint_residuals, elliptic_a0, evolve,
                  make_compatible_data, step)
from .parametrix import (AnnulusCutoff, DirectionCache, FreeConnection, PhaseFamily,
                         WaveOperator, amplitude_residual, decomposable_surrogate,
                         dispersive_scan, match_data, phase_defect, residual_check,
                         split_phase_at)
from .harness import AcceptanceRecord, ExperimentConfig, run

__all__ = [name for name in dir() if not name.startswith("_")]
