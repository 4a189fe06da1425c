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

Each public name below is imported from its module on first access (PEP 562),
so ``import netgeom`` loads no module, and a process loads only the modules
it uses.
"""
from importlib import import_module

_PUBLIC = {
    "graph": (
        "Graph",
        "InputError",
        "EdgeListParseError",
        "ComponentLabeling",
        "DistanceMap",
        "load_edge_list",
        "components",
        "giant_core",
        "induced_subgraph",
        "bfs",
    ),
    "generators": (
        "AppendageSpec",
        "DoubleParetoSpec",
        "generate_appendage_graph",
        "generate_double_pareto_degrees",
        "configuration_model",
    ),
    "stats": (
        "Histogram",
        "DoubleParetoFit",
        "SeniorReport",
        "PathLengthReport",
        "degree_histogram",
        "fit_double_pareto",
        "senior_stats",
        "path_length_report",
    ),
    "structure": (
        "Tentacle",
        "Fiber",
        "Decomposition",
        "GeometricFit",
        "DepthMap",
        "PersonalityReport",
        "decompose",
        "tentacle_histogram",
        "fiber_histogram",
        "depth_map",
        "depth_map_per_component",
        "depth_density_profile",
        "personality_report",
    ),
    "embedding": (
        "Embedding",
        "CoverMatrix",
        "ReductionResult",
        "DistortionReport",
        "embed",
        "embed_full",
        "chebyshev_distance",
        "chebyshev_matrix",
        "build_cover_matrix",
        "reduce_references",
        "embedding_distortion",
    ),
    "crawl": (
        "CrawlTrace",
        "SizeEstimate",
        "RationalFit",
        "OdeSolution",
        "simulate_crawl",
        "estimate_derivative",
        "estimate_size",
        "fit_rational",
        "solve_acquisition_ode",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, or a module of the package, imported when first asked for."""
    if name in _PUBLIC:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value
