"""Package surface: the exported names and the runtime imports."""

import ast
import importlib
import sys
from pathlib import Path

import gammasum

PUBLIC = {
    "BranchTrackingError",
    "CdfEstimate",
    "ConfigError",
    "ConvergenceError",
    "DerivedParams",
    "DomainError",
    "GammaSumError",
    "GammaSumParams",
    "GfunResult",
    "McResult",
    "MvDerived",
    "MvGammaParams",
    "NormalizationError",
    "NotPositiveDefiniteError",
    "PrecisionError",
    "QuadratureConfig",
    "SeriesResult",
    "SymMatrix",
    "cdf",
    "derive_params",
    "existence_caveat",
    "g_series",
    "gamma_pdf",
    "mc_cdf",
    "mc_mvgamma",
    "mc_qform",
    "mv_cdf",
    "mv_derive",
    "quantile",
    "qform_cdf",
    "qform_eigenvalues",
    "reg_lower_gamma",
    "series_cdf",
    "series_coefficients",
    "__version__",
}

SOURCES = sorted((Path(gammasum.__file__).parent).glob("*.py"))


def test_public_names_are_pinned_and_resolve():
    assert len(gammasum.__all__) == len(set(gammasum.__all__))
    assert set(gammasum.__all__) == PUBLIC
    for name in gammasum.__all__:
        assert getattr(gammasum, name) is not None, name


def test_traced_names_resolve():
    # the benchmark's traced pass binds these by name; a rename fails here
    # instead of crashing the pass
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(), str(path))
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    )
    assert traced
    for module, function in traced:
        mod = importlib.import_module(f"gammasum.{module}")
        assert callable(getattr(mod, function, None)), f"{module}.{function}"


def test_runtime_imports_are_stdlib_and_numpy_only():
    # numpy is the one runtime dependency; test references stay in tests/
    assert len(SOURCES) >= 9
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            for root in roots:
                assert root in allowed, f"{path.name}:{node.lineno} imports {root}"
