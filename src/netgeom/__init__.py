"""netgeom: topology and geometry toolkit for large sparse undirected graphs.

Core pieces:

* graph:      immutable simple graphs, BFS, components, giant core
* generators: appendage graphs with ground-truth roles, double-Pareto degree
              sequences, erased configuration model
* stats:      degree histograms, two-segment power-law fits, senior cohorts,
              path-length distributions
* structure:  dense-core / tentacle / fiber decomposition, depth maps,
              depth-density profiles, personality classification
* embedding:  hop-distance coordinates, Chebyshev distances, reference-set
              reduction with distortion guarantees
* crawl:      frontier-crawl simulation and size estimation from traces
"""
from .graph import (
    Graph,
    EdgeListParseError,
    ComponentLabeling,
    DistanceMap,
    load_edge_list,
    components,
    giant_core,
    induced_subgraph,
    bfs,
)
from .generators import (
    AppendageSpec,
    DoubleParetoSpec,
    generate_appendage_graph,
    generate_double_pareto_degrees,
    configuration_model,
)
from .stats import (
    Histogram,
    DoubleParetoFit,
    SeniorReport,
    PathLengthReport,
    degree_histogram,
    fit_double_pareto,
    senior_stats,
    path_length_report,
)
from .structure import (
    Tentacle,
    Fiber,
    Decomposition,
    GeometricFit,
    DepthMap,
    PersonalityReport,
    decompose,
    tentacle_histogram,
    fiber_histogram,
    depth_map,
    depth_map_per_component,
    depth_density_profile,
    personality_report,
)
from .embedding import (
    Embedding,
    CoverMatrix,
    ReductionResult,
    DistortionReport,
    embed,
    embed_full,
    chebyshev_distance,
    chebyshev_matrix,
    build_cover_matrix,
    reduce_references,
    embedding_distortion,
)
from .crawl import (
    CrawlTrace,
    SizeEstimate,
    RationalFit,
    OdeSolution,
    simulate_crawl,
    estimate_derivative,
    estimate_size,
    fit_rational,
    solve_acquisition_ode,
)

__version__ = "0.1.0"
