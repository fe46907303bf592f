"""Keep the example scripts importable, and smoke-run the cheap ones.

Every ``examples/*.py`` is imported (its work sits behind a
``__main__`` guard, so importing it runs nothing), which catches an
example that names something the library no longer has.  The fast
examples then run in-process — import the module and call its entry
points — so a broken example fails CI before a reader runs it.  The
heavyweight ones (full policy comparisons, trace replays) are exercised
through the experiments tests.
"""

import ast
import importlib.util
import pathlib

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "examples"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name", sorted(p.stem for p in EXAMPLES.glob("*.py")))
def test_example_imports(name):
    tree = ast.parse((EXAMPLES / f"{name}.py").read_text())
    assert any(isinstance(node, ast.If) and "__main__" in ast.unparse(node.test)
               for node in tree.body), f"{name}.py has no __main__ guard"
    _load(name)


class TestExampleSmoke:
    def test_slack_explorer_runs(self, capsys):
        module = _load("slack_explorer")
        module.show_plans()
        module.slo_sensitivity()
        out = capsys.readouterr().out
        assert "face-security" in out
        assert "SLO sensitivity" in out

    def test_live_serving_runs(self, capsys):
        module = _load("live_serving")
        # Shrink the demo so the smoke test stays fast (the live arm
        # runs on the suite's virtual time).
        module.DURATION_S = 10.0
        module.main()
        out = capsys.readouterr().out
        assert "sim" in out and "live" in out
        assert "drained=yes" in out

    def test_fault_tolerance_crash_path(self):
        module = _load("fault_tolerance")
        result, crashes = module.run_with_crashes(0.05, seed=1)
        assert result.n_completed == result.n_jobs
        assert crashes >= 0

    def test_fault_tolerance_node_failure_path(self):
        module = _load("fault_tolerance")
        result, destroyed = module.run_with_node_failure(seed=1)
        assert result.n_completed == result.n_jobs
        assert destroyed >= 0
