"""sexakit: exact base-60 arithmetic and Susa tablet excavation replays.

The package computes only exactly: every number is an arbitrary-precision
rational, every comparison is equality, nothing is ever rounded.  On top
of the number core sit Babylonian units, the scribal solution procedures
(completing the square, sum-difference, division by recognition), canal
geometry, and a corpus of tablet problems that replay and verify every
intermediate "you see N" value of SMT No. 24 and No. 25.

``import sexakit`` loads no submodule.  Each public name loads its own
module on first use (PEP 562), and is then a plain attribute.
"""

__version__ = "0.1.0"

#: Each submodule's public names, in the order of ``__all__``, which
#: lists ``errors`` first.  Each submodule's own ``__all__`` is its entry
#: here.  A process that loads a corpus reaches ``load_corpus`` first, so
#: corpus.py, which imports the rest, is still the first module it
#: compiles: before sexa's digit tables exist, the import peaks lower.
_EXPORTS = {
    "sexa": (
        "Sexa", "parse", "render", "halve", "square", "sqrt_exact",
        "reciprocal", "is_regular"),
    "units": (
        "Dimension", "Quantity", "KUS_PER_NINDAN", "qmul", "qdiv",
        "sar_to_volume_sar", "parse_quantity"),
    "procedures": (
        "Step", "StepTrace", "QuadraticProblem", "SumDifferenceProblem",
        "solve_quadratic_scribal", "solve_sum_difference",
        "divide_by_recognition", "replay_smt24_p2"),
    "geometry": (
        "CanalConstant", "SMALL_CANAL_CONSTANT", "BREADTH_EXCESS",
        "BREADTH_EXCESS_SHARE", "trapezoid_cross_section", "prism_volume",
        "breadths_from_constraints", "length_from_volume",
        "depth_from_labor"),
    "corpus": (
        "PROCEDURES", "ProcedureSpec", "ExpectedStep", "TabletProblem",
        "CheckRow", "ReplayReport", "bundled_corpus_path", "load_corpus",
        "find_problem", "replay"),
}

#: Each public name and the submodule that defines it.
_SOURCES = {"errors": "errors", **{
    name: module for module, names in _EXPORTS.items() for name in names}}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    # Reached only for a name not yet in the module's globals: the value
    # is stored there, so each name pays this once.
    try:
        source = _SOURCES[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module
    module = import_module(f"{__name__}.{source}")
    value = module if name == source else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
