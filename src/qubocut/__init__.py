"""Divide-and-conquer reduction of QUBO problems to boundary PUBOs.

The workflow: build a MaxCut/QUBO instance over spins, partition its graph
into communities, shrink the boundary, quench each community's core spins,
interpolate the quench tables back into a polynomial over boundary spins,
and solve the reduced instance exactly, with QAOA, or through a weighted
MaxSAT solver, lifting the answer back to all original variables.
"""

from .bitops import (
    as_spins,
    index_to_spins,
    index_to_term,
    spins_to_index,
    term_to_index,
)
from .community import (
    CommunityAssignment,
    detect_multilevel,
    modularity,
    read_membership,
    refine_boundary,
    score_g,
    write_membership,
)
from .errors import (
    DimensionError,
    ExternalSolverError,
    ParameterError,
    PipelineStepError,
    ResourceLimitError,
    SolverIntegrityError,
)
from .graphs import (
    Graph,
    maxcut_to_qubo,
    random_erdos_renyi,
    random_regular,
    read_graph,
    write_graph,
)
from .polynomial import PuboPolynomial, energy_table
from .qaoa import (
    QaoaParams,
    QaoaResult,
    approximation_ratio,
    diagonal_energies,
    expectation,
    mixer_layer,
    run_circuit,
)
from .qaoa import optimize as qaoa_optimize
from .reducer import (
    CommunitySubinstance,
    ReducedInstance,
    lift_solution,
    quench,
    reduce_core_fixed,
    reduce_exact,
    split_energy,
    table_to_polynomial,
)
from .solvers import (
    CSV_HEADER,
    PipelineConfig,
    PipelineReport,
    brute_force_min,
    classical_pipeline,
)
from .wcnf import (
    ExternalSolveResult,
    WcnfInstance,
    parse_wcnf,
    pubo_to_wcnf,
    run_external_solver,
    write_wcnf,
)
from .wht import fwht

__version__ = "0.1.0"
