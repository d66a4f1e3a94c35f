"""Every function the benchmark tracer patches exists under the name it patches."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize(
    "module_name, attr", [pytest.param(*target, id=label) for label, target in _targets().items()]
)
def test_traced_target_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        assert method in getattr(module, cls_name).__dict__, f"{module_name}.{attr} is not defined on the class"
    else:
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr} does not exist"
