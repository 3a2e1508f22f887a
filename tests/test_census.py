"""The package's surface: every name it exports is used by the program itself, not by its own tests alone,
only its input formats define `to_dict`, and the CLI takes the flags and config keys pinned here."""

import ast
import re
import types
from pathlib import Path

import hypoel
from hypoel import cli

ROOT = Path(__file__).resolve().parents[1]

#: exported names that only tests reach, each kept for the reason given
TEST_ONLY = {
    "apply_operator": "the reference that the in-place spectral pass tests compare against",
    "weighted_norm": "the acceptance tests assert the weighted norm of the packaged fixture",
}


def _program_lines():
    """Each line of the package, bench, demo and tool sources, less __init__.py and test files."""
    for folder in ("src/hypoel", "bench", "demos", "tools"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.name != "__init__.py" and not path.name.startswith("test_"):
                yield from path.read_text(encoding="utf-8").splitlines()


def _used(name: str, lines: list[str]) -> bool:
    """Whether some line names it other than the one that defines it."""
    word = re.compile(rf"\b{name}\b")
    definition = re.compile(rf"^(?:class|def)\s+{name}\b|^{name}\s*[:=]")
    return any(word.search(line) and not definition.match(line) for line in lines)


def test_every_export_has_a_use_outside_the_tests():
    lines = list(_program_lines())
    names = [n for n in hypoel.__all__ if not isinstance(getattr(hypoel, n), types.ModuleType)]
    assert set(TEST_ONLY) <= set(names)
    unused = sorted(n for n in names if not _used(n, lines) and n not in TEST_ONLY)
    assert unused == [], f"exported but reached only by tests: {unused}"
    gained = sorted(n for n in TEST_ONLY if _used(n, lines))
    assert gained == [], f"listed as test-only but used by the program: {gained}"


#: the classes whose dict is an input file format, which their `from_dict` reads back
INPUT_FORMATS = {"BoxDomain", "SymbolPolynomial", "VariableOperator"}


def test_only_input_formats_define_to_dict():
    """Reports are written from the result objects' fields by the CLI's one writer, not by per-class serializers."""
    owners = {
        node.name
        for path in (ROOT / "src/hypoel").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and any(isinstance(f, ast.FunctionDef) and f.name == "to_dict" for f in node.body)
    }
    assert owners == INPUT_FORMATS


#: each subcommand's flags, besides --help; a new one changes this census on purpose
FLAGS = {
    "analyze": {"--symbol", "--rays", "--radii", "--d", "--out"},
    "seq-check": {"--gevrey", "--table", "--pmax", "--power-m", "--inclusion-gevrey", "--out"},
    "strength": {"--p", "--q", "--variable", "--points", "--rays", "--radii", "--out"},
    "verify": {"--check", "--config", "--csv", "--out"},
}


def test_each_subcommand_takes_the_flags_pinned_here():
    (subparsers,) = (a for a in cli.build_parser()._actions if a.dest == "command")
    flags = {
        name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert flags == FLAGS


#: the keys each verify check reads besides `check` and `resolution`: one source for each setting
CHECK_KEYS = {
    "domination": {"operator", "region", "fixture", "lmax", "x0", "delta"},
    "p1": {"symbol", "r_symbol", "omega", "d", "fixtures", "t"},
    "prop31": {"symbol", "omega", "d", "fixtures", "kmax", "deltas"},
    "th1": {"symbol", "omega", "d", "sequence", "fixture", "lmax", "amax", "delta"},
}


def test_each_verify_check_reads_the_keys_pinned_here():
    assert cli._COMMON_KEYS == {"check", "resolution"}
    assert cli._CHECK_KEYS == CHECK_KEYS
