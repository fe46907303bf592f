"""Documentation consistency checks.

Keep DESIGN.md's per-experiment index and the README honest: every bench
file they reference must exist, the documented policies/tables must match
the code, and the README quickstart must actually run.
"""

import pathlib
import re
import shlex

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]


class TestDesignDoc:
    @pytest.fixture(scope="class")
    def design(self):
        return (REPO / "DESIGN.md").read_text()

    def test_every_referenced_bench_exists(self, design):
        for name in set(re.findall(r"bench_\w+\.py", design)):
            assert (REPO / "benchmarks" / name).exists(), name

    def test_every_bench_file_is_indexed(self, design):
        for bench in (REPO / "benchmarks").glob("bench_*.py"):
            assert bench.name in design, f"{bench.name} missing from DESIGN.md"

    def test_referenced_modules_exist(self, design):
        for dotted in set(re.findall(r"`((?:core|cluster|workflow|traces|"
                                     r"workloads|prediction|metrics|"
                                     r"experiments)\.\w+)`", design)):
            module_path = REPO / "src" / "repro" / (dotted.replace(".", "/") + ".py")
            attr_parent = REPO / "src" / "repro" / (dotted.split(".")[0] + "/" + dotted.split(".")[1] + ".py")
            assert module_path.exists() or attr_parent.exists(), dotted

    def test_paper_match_confirmed(self, design):
        assert "No title collision" in design


class TestReadme:
    @pytest.fixture(scope="class")
    def readme(self):
        return (REPO / "README.md").read_text()

    def test_examples_listed_exist(self, readme):
        for name in set(re.findall(r"`(\w+\.py)`", readme)):
            assert (REPO / "examples" / name).exists(), name

    def test_policies_documented(self, readme):
        from repro.core.policies import POLICY_NAMES
        for policy in POLICY_NAMES:
            assert f"`{policy}`" in readme

    def test_quickstart_code_runs(self, readme):
        blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
        assert blocks, "README must contain a python quickstart block"
        code = blocks[0]
        # Shrink the workload so the doc test stays fast.
        code = code.replace("step_poisson_trace(50.0, 300.0)",
                            "step_poisson_trace(20.0, 60.0)")
        code = code.replace("step_poisson_trace(50.0, 1200.0, seed=99)",
                            "step_poisson_trace(20.0, 400.0, seed=99)")
        code = code.replace("LSTMPredictor()",
                            "LSTMPredictor(epochs=3, hidden=8, layers=1)")
        namespace = {}
        exec(compile(code, "<README quickstart>", "exec"), namespace)


class TestModulePaths:
    """Every ``src/repro/<package>/<module>.py`` DESIGN.md or README.md
    names — with or without the ``src/repro/`` prefix — must exist."""

    @pytest.mark.parametrize("doc", ["DESIGN.md", "README.md"])
    def test_named_source_files_exist(self, doc):
        source = REPO / "src" / "repro"
        packages = "|".join(
            p.name for p in source.iterdir() if (p / "__init__.py").exists())
        named = set(re.findall(
            rf"(?<![\w/])(?:src/repro/)?((?:{packages})/\w+\.py)",
            (REPO / doc).read_text()))
        missing = sorted(path for path in named if not (source / path).exists())
        assert not missing, f"{doc} names source files that do not exist"
        if doc == "DESIGN.md":
            assert "core/poolsurface.py" in named


class TestRemovedSpellings:
    """The docs describe the system that exists: a name the code no
    longer has belongs to CHANGES.md, which is the history."""

    #: Written in pieces, so that grepping the tree for a removed name
    #: finds nothing — this file included.
    REMOVED = ("Fault" "Config", "drain_timeout" "_ms", "--sim-shed" "-expired",
               "MultiTen" "antSystem", "OnlineRe" "trainingPredictor",
               "generate" "_chain", "ExecutionTime" "Model", "load" "_trace",
               "rolling_violation" "_rate", "input" "_scale",
               "timeout_floor" "_wall_s", "hpa_target" "_concurrency",
               "mape" "_window", "spawn_retry" "_backoff_ms",
               "max_moves" "_per_tick", "min_nodes" "_per_shard")

    @pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
    def test_docs_do_not_name_removed_spellings(self, doc):
        text = (REPO / doc).read_text()
        for gone in self.REMOVED:
            assert gone not in text, f"{doc} still names {gone}"


class TestExamples:
    def test_examples_have_docstrings_and_main(self):
        for script in (REPO / "examples").glob("*.py"):
            text = script.read_text()
            assert text.lstrip().startswith(('"""', '#!')), script.name
            assert "__main__" in text, script.name

    def test_at_least_five_examples(self):
        assert len(list((REPO / "examples").glob("*.py"))) >= 5


# Files whose ``python -m repro <subcommand> ...`` command lines must
# keep parsing: removing or renaming a flag cannot leave a dead
# invocation behind in the docs, the CI workflow or the verify recipe.
COMMAND_FILES = ("README.md", "EXPERIMENTS.md", ".github/workflows/ci.yml",
                 ".claude/skills/verify/SKILL.md")
_SHELL_STOPS = {"|", "||", "&&", ";", ">", ">>", "2>&1"}


def documented_commands(text):
    """Yield the argv of every ``python -m repro <subcommand> ...`` in
    *text*: backslash continuations (and the wrapped lines of inline
    code spans) joined, cut at the closing backtick or the first shell
    operator."""
    for match in re.finditer(r"python3? -m repro[ \t]+(?=[a-z])", text):
        rest = text[match.end():]
        line_start = text.rfind("\n", 0, match.start()) + 1
        if text.count("`", line_start, match.start()) % 2:
            # Inside an inline code span, which prose may wrap.
            command = rest.split("`", 1)[0].replace("\n", " ")
        else:
            lines = []
            for line in rest.split("\n"):
                lines.append(line.rstrip().rstrip("\\"))
                if not line.rstrip().endswith("\\"):
                    break
            command = " ".join(lines)
        argv = []
        for token in shlex.split(command, comments=True):
            if token in _SHELL_STOPS:
                break
            argv.append(token)
        yield argv


class TestCommandLines:
    def test_extractor_reads_spans_continuations_and_pipes(self):
        text = (
            "Run `python -m repro run fifer --mix\n  heavy`, then\n"
            "```bash\nPYTHONPATH=src python -m repro serve --policy rscale \\\n"
            "    --faults 'kill-node@1=0;recover-node@2=0' | tee out\n```\n"
            "and `python -m repro.experiments.robustness --quick` is not ours."
        )
        assert list(documented_commands(text)) == [
            ["run", "fifer", "--mix", "heavy"],
            ["serve", "--policy", "rscale", "--faults",
             "kill-node@1=0;recover-node@2=0"],
        ]

    @pytest.mark.parametrize("name", COMMAND_FILES)
    def test_documented_command_lines_parse(self, name):
        from repro.cli import build_parser
        from repro.cluster.faults import FaultTimeline

        commands = list(documented_commands((REPO / name).read_text()))
        assert commands, f"{name}: no python -m repro command lines found"
        for argv in commands:
            try:
                args = build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"{name}: dead invocation: repro {' '.join(argv)}")
            if getattr(args, "faults", None):
                FaultTimeline.parse(args.faults)
