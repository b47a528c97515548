"""Maximization of monotone diminishing-returns objectives on the bounded
integer lattice, plus a seeded benchmark harness for comparing solvers by
oracle-query cost."""

from .lattice import (
    CountingOracle,
    ExhaustivenessCapError,
    Objective,
    ProblemInstance,
    as_point,
    cardinality,
    check_dr_submodular,
    check_lattice_submodular,
    check_monotone,
    coordinate_product,
    custom_objective,
    leq,
    unit,
    weighted_concave_sqrt,
    weighted_linear,
    zeros,
)
from .solvers import (
    ALGORITHMS,
    DETERMINISTIC_ALGORITHMS,
    AlgorithmConfig,
    PassStats,
    Solution,
    exact_bruteforce,
    greedy_lattice,
    guarantee_bound,
    max_feasible_step,
    sample_size,
    sgl,
    solve,
    soma_dr_i,
    ssg,
    t_bar,
)
from .bench import (
    CSV_HEADER,
    ExperimentGrid,
    GridCell,
    RunRecord,
    expand_grid,
    full_scale_grid,
    generate_instance,
    instance_hash,
    mix_seed,
    parse_grid_file,
    pivot_values,
    read_records,
    run_matrix,
    write_grid_file,
)
from .report import (
    AggregateRow,
    aggregate,
    aggregate_by_n,
    render_pivot,
    render_rows,
    render_series,
    series_queries_vs_b,
    table_by_n,
)

__version__ = "0.1.0"
