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

``_PUBLIC`` below is the one list of public names, by module: each module's
``__all__`` is its entry plus the module's upper-case constants, which have no
``__name__``. Each public name is imported from its module on first access
(PEP 562), so ``import netgeom`` loads no module, and a process loads only the
modules it uses. ``InputError`` is defined here, at the root every module
imports, so that the trace reader raises it without loading ``graph``, which
re-exports it.
"""
from importlib import import_module

# arcs one bounded pass over CSR rows gathers at a time (a row fold, an edge slice, a pass of the
# fifo crawl); defined here, like InputError, so that crawl.py shares it without loading graph.py
_ARC_BUDGET = 1 << 16
# cells a piece of an all-pairs block holds (coords.csv rows, exact-path roots): about one L1 of int16
_CELL_BUDGET = 1 << 14


class InputError(ValueError):
    """Base of the errors raised for malformed input: edge lists and trace files."""


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
        "write_trace_csv",
        "read_trace_csv",
        "TraceParseError",
        "default_window",
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
