"""Minimum-delta edge colouring of graphs with maximum degree three.

A proper 4-edge-colouring of such a graph uses colours alpha, beta, gamma
plus an overflow colour delta; this package computes colourings minimising
the delta class, verifies the structural properties those minima satisfy,
and ships the generators and batch tooling needed to exercise both.

Each export is imported from its module on first use (PEP 562), so that a
command loads only the modules it runs.
"""

__version__ = "0.1.0"

# every export and the submodule that defines it
_EXPORTS = {
    "Colour": "colouring",
    "ColouringKind": "colouring",
    "EdgeColouring": "colouring",
    "KempeComponent": "colouring",
    "KempeDecomposition": "colouring",
    "kempe_decompose": "colouring",
    "kempe_swap": "colouring",
    "properize": "colouring",
    "ClassificationError": "errors",
    "ContractViolationError": "errors",
    "DeltaMinError": "errors",
    "DomainError": "errors",
    "GraphFormatError": "errors",
    "ResourceLimitError": "errors",
    "Graph": "graphs",
    "emit_edge_list": "graphs",
    "emit_graph6": "graphs",
    "enumerate_cubic": "graphs",
    "induced_subgraph": "graphs",
    "isomorphic": "graphs",
    "make_named": "graphs",
    "parse_edge_list": "graphs",
    "parse_graph6": "graphs",
    "random_subcubic": "graphs",
    "Method": "solver",
    "SolveResult": "solver",
    "TwoFactor": "solver",
    "enumerate_two_factors": "solver",
    "find_two_factor": "solver",
    "heuristic_descent": "solver",
    "is_3_edge_colourable": "solver",
    "lemma1_colouring": "solver",
    "resistance_exact": "solver",
    "solve_exact": "solver",
    "ClauseResult": "structure",
    "DeltaClass": "structure",
    "DeltaClassification": "structure",
    "ParitySignature": "structure",
    "VerificationReport": "structure",
    "classify_delta_edges": "structure",
    "parity_signature": "structure",
    "shift_delta": "structure",
    "verify_theorem1": "structure",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    """An export, or one of the submodules that define them (deltamin.solver
    and the like are also looked up by name), imported on first use."""
    from importlib import import_module

    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value  # later lookups skip this function
        return value
    if name in _EXPORTS.values():
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
