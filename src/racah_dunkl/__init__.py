"""Exact-arithmetic engine for the symmetry algebra of the deformed
Laplacian attached to the hyperplane-reflection group on n coordinates.

Everything computes over exact rationals: sparse polynomials, linear
operators built from Dunkl operators and their sparse exact matrices,
harmonic bases built by one-variable extensions, connection matrices
between the joint eigenbases of maximal commuting chains, the discrete
three-term recurrence governing them, and the recoupling graph that
factors any basis change into single-generator steps.  Verification
sweeps return machine-checkable reports with polynomial witnesses for any
failure.
"""

from .connection import (
    ConnectionMatrix,
    SpanMismatch,
    TridiagonalData,
    connection_matrix,
    fischer_pairing,
    parity_blocks,
    tridiagonal_check,
)
from .graph import (
    Chain,
    RecouplingGraph,
    build_graph,
    connection_pipeline,
    enumerate_chains,
    neighbors,
    path,
)
from .harmonics import (
    HarmonicBasisElement,
    HarmonicLabel,
    basis_to_json_obj,
    build_basis_tower,
    casimir_eigenvalue,
    ck_extend,
    dimension_table,
    enumerate_labels,
    harmonic_space_dim,
    verify_ck,
    verify_power_action_sweep,
    verify_spectral_action,
)
from .linalg import InconsistentSystem, RationalMatrix, matrix_rank, solve_in_span
from .operators import (
    DunklOperators,
    ImageEscapesSpan,
    LinearOperator,
    angular,
    casimir,
    dunkl,
    gamma,
    laplace,
    materialize,
    materialize_on_monomials,
    norm_square_mul,
    normalize_subset,
    su11_triple,
)
from .poly import Monomial, ParameterSet, Polynomial, monomial_basis, poly_space_dim
from .racah import (
    RacahParameters,
    SpectralData,
    module_dimension,
    module_tridiagonal_data,
    racah_parameters,
    racah_recurrence_polys,
    recurrence_coefficients,
    recurrence_table_json,
    spectral_data,
)
from .relations import (
    default_degree_bound,
    verify_casimir_laplacian_commute,
    verify_drinfeld_kohno,
    verify_embedding,
    verify_nested_disjoint_commute,
    verify_racah_relations,
    verify_su11,
)
from .report import CheckResult, Report

__version__ = "0.1.0"
