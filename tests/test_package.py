"""Package surface: the exported names and the runtime imports."""

import ast
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

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


_P = gammasum.GammaSumParams((1.0, 2.0), (1.0, 3.0))
_I2 = np.eye(2)
_MV = gammasum.MvGammaParams(1.0, _I2)

# every public entry point at one numeric argument, as a function of it
_SCALAR_ARGS = {
    "GammaSumParams": lambda v: gammasum.GammaSumParams((1.0, v), (1.0, 3.0)),
    "cdf": lambda v: gammasum.cdf(_P, v),
    "series_cdf": lambda v: gammasum.series_cdf(_P, v),
    "series_cdf-tol": lambda v: gammasum.series_cdf(_P, 1.0, v),
    "quantile": lambda v: gammasum.quantile(_P, v),
    "qform_cdf": lambda v: gammasum.qform_cdf(_I2, _I2, v),
    "mc_cdf": lambda v: gammasum.mc_cdf(_P, v, 10),
    "mc_cdf-n_samples": lambda v: gammasum.mc_cdf(_P, 1.0, v),
    "mc_qform": lambda v: gammasum.mc_qform(_I2, _I2, v, 10),
    "mc_mvgamma-alpha": lambda v: gammasum.mc_mvgamma(v, _I2, (1, 1), 10),
    "mc_mvgamma-xs": lambda v: gammasum.mc_mvgamma(1, _I2, (v, 1), 10),
    "reg_lower_gamma": lambda v: gammasum.reg_lower_gamma(v, 1),
    "gamma_pdf": lambda v: gammasum.gamma_pdf(1, v),
    "g_series": lambda v: gammasum.g_series(v, 1, 0.3),
    "g_series-y": lambda v: gammasum.g_series(1, 1, v),
    "mv_cdf": lambda v: gammasum.mv_cdf(_MV, (v, v)),
    "mv_cdf-xs": lambda v: gammasum.mv_cdf(_MV, v),
    "MvGammaParams": lambda v: gammasum.MvGammaParams(v, _I2),
}


@pytest.mark.parametrize("value", ["x", None, True, float("nan")])
@pytest.mark.parametrize("entry", sorted(_SCALAR_ARGS))
def test_non_numeric_scalars_raise_domain_error(entry, value):
    # one scalar check serves every entry point: no TypeError or plain
    # ValueError escapes, and a boolean is not taken for 0 or 1
    with pytest.raises(gammasum.DomainError, match="must be (a number|finite|an integer)"):
        _SCALAR_ARGS[entry](value)


def test_series_cdf_rejects_nonpositive_tolerance():
    # unchecked, tol <= 0 builds the whole term budget before failing
    for tol in (0, -1):
        with pytest.raises(gammasum.DomainError, match="tol must be positive"):
            gammasum.series_cdf(_P, 1.0, tol)


def test_every_exported_error_is_raised_somewhere():
    # an exception class no code raises is dead surface; the base class
    # exists to be caught, not raised
    raised = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", None))
    errors = {name for name in gammasum.__all__
              if isinstance(getattr(gammasum, name), type)
              and issubclass(getattr(gammasum, name), BaseException)}
    assert errors - {"GammaSumError"} - raised == set()
