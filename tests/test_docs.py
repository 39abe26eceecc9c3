"""The names that the README and the package's own docstrings and comments
put in backticks exist: a `module.name` reference resolves in that module, and
a CamelCase name is a package attribute, an agent kind or a builtin.  The
README's commands exist: each `zerosum` line names a subcommand, and no line
runs a script."""
import builtins
import importlib
import re
from pathlib import Path

import pytest

from zerosum import engine
from zerosum.cli import main

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", *sorted((ROOT / "src" / "zerosum").glob("*.py"))]
MODULES = {name: importlib.import_module(f"zerosum.{name}")
           for name in ("core", "regularizers", "learners", "metrics", "nash", "engine", "cli")}
DOTTED = re.compile(r"`{1,2}(%s)\.([A-Za-z_]\w*)" % "|".join(MODULES))
CAMEL = re.compile(r"`{1,2}([A-Z][a-z]\w*)")


def references(pattern):
    """(file name, groups) of each match of ``pattern`` in the documents, in order."""
    return [(path.name, groups) for path in DOCS
            for groups in pattern.findall(path.read_text(encoding="utf-8"))]


def test_module_references_resolve():
    refs = references(DOTTED)
    assert refs, "no `module.name` reference found: the pattern no longer reads the documents"
    missing = [f"{doc}: {module}.{name}" for doc, (module, name) in refs
               if not hasattr(MODULES[module], name)]
    assert not missing, missing


def test_camel_case_names_exist():
    refs = references(CAMEL)
    assert refs, "no CamelCase name found: the pattern no longer reads the documents"
    missing = [f"{doc}: {name}" for doc, name in refs
               if name not in engine.AGENT_KINDS and not hasattr(builtins, name)
               and not any(hasattr(module, name) for module in MODULES.values())]
    assert not missing, missing


README = (ROOT / "README.md").read_text(encoding="utf-8")
FENCED = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)


def test_readme_commands_are_subcommands(capsys):
    commands = [line.strip().split()[1] for block in FENCED.findall(README)
                for line in block.splitlines() if line.lstrip().startswith("zerosum ")]
    assert commands, "no `zerosum` line found: the pattern no longer reads the README"
    for command in sorted(set(commands)):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0, command


def test_readme_runs_no_script():
    assert [line for line in README.splitlines() if "python scripts/" in line] == []
