#!/usr/bin/env python
"""Docs/CLI cross-reference checker (the CI ``docs-check`` job).

Flags drift: a doc that still names a flag the CLI renamed, or a CLI
flag the README never documents.  Concretely, it enforces:

1. every ``--flag`` mentioned in README.md or docs/*.md exists in the
   real parser (``repro.cli.build_parser()``), modulo an allowlist of
   external tools' flags (pip, pytest) and ``--prefix-*`` family
   shorthands, which must match at least one real flag;
2. every flag of every ``repro`` subcommand appears somewhere in
   README.md (the flag table / subcommand notes);
3. every ``repro`` subcommand is mentioned in README.md;
4. every ``docs/NAME.md`` cross-reference points at a file that exists;
5. ``docs/README.md`` (the index) links every ``docs/*.md`` file;
6. the spec-key table in ``docs/SERVICE.md`` lists exactly the keys of
   ``repro.core.jobqueue.SPEC_SCHEMA``, and its "`faults` keys:"
   paragraph exactly ``repro.common.faults.EXECUTION_FAULT_KINDS``;
7. every ``zc_*`` metric named in README.md or docs/*.md exists in
   ``repro.core.observe.METRIC_CATALOG`` (a histogram's ``_bucket``,
   ``_sum`` and ``_count`` series included), and every ``zc_family_*``
   shorthand matches at least one catalogued name;
8. every flag that ``build_parser()`` defines is named in at least one
   file under ``tests/``, so an option no test exercises fails the check;
9. every backticked call (`` `name()` `` or `` `dotted.name()` ``) in
   README.md or docs/*.md names real code: its last dotted part is a
   ``def``, a ``class`` or a module-level binding in a ``.py`` file under
   ``src/``, ``tests/``, ``benchmarks/`` or ``tools/``, modulo an
   allowlist of outside names (the standard library's);
10. every module-level import in a ``.py`` file under ``src/``,
    ``tests/``, ``benchmarks/`` or ``tools/`` is used: the module
    references the name it binds (a string annotation counts) or lists it
    in ``__all__``.  An import kept for its side effect says so with
    ``# noqa`` on its line.

Run it from the repository root (or pass the root as argv[1])::

    PYTHONPATH=src python tools/check_docs.py

Exit status 0 when clean, 1 with one line per problem otherwise.
tests/test_docs.py runs the same check in tier-1, so drift fails the
test suite before it ever reaches CI.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import sys
from typing import Dict, Iterator, List, Set, Tuple

#: flags that belong to other tools mentioned in the docs (pip, pytest).
EXTERNAL_FLAGS = {
    "--no-build-isolation",
    "--upgrade",
    "--benchmark-only",
}

#: calls the docs name that are not ours (the standard library's).
EXTERNAL_CALLS = {
    "time.time",
    "Process.is_alive",
}

#: directories whose ``.py`` files define the names rule 9 accepts and
#: rule 10 checks the imports of.
CODE_DIRS = ("src", "tests", "benchmarks", "tools")

#: ``--flag`` or ``--family-*`` tokens.  The trailing ``[a-z0-9]`` stops
#: matches at punctuation (``--store's`` -> ``--store``).
_FLAG_RE = re.compile(r"--[a-z][a-z0-9]*(?:-[a-z0-9]+)*(?:-?\*)?")

#: ``zc_metric_name`` or ``zc_family_*`` tokens.
_METRIC_RE = re.compile(r"\bzc_[a-z0-9_]*(?:[a-z0-9]|\*)")

#: series a histogram exports beside its catalogued name.
_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")

#: backticked calls: `` `name()` `` or `` `dotted.name()` ``.
_CALL_RE = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)\(\)`")

#: a ``def`` or ``class`` at any depth, or a module-level binding.
_DEFINITION_RE = re.compile(
    r"^[ \t]*(?:async[ \t]+)?(?:def|class)[ \t]+([A-Za-z_]\w*)"
    r"|^([A-Za-z_]\w*)[ \t]*(?::[^=\n]*)?=(?!=)", re.MULTILINE)

#: ``docs/NAME.md`` cross-references.
_DOCREF_RE = re.compile(r"docs/[A-Za-z0-9_.-]+\.md")

#: header row of docs/SERVICE.md's spec-key table, and one key row.
_SPEC_TABLE_HEADER = "| spec key |"
_SPEC_ROW_RE = re.compile(r"^\| `([a-z_]+)` \|")

#: docs/SERVICE.md's list of the kinds a spec's ``faults`` accepts:
#: the backticked names before the first dash.
_FAULT_KEYS_RE = re.compile(r"^`faults` keys:([^—]*)", re.MULTILINE)


def collect_cli_surface() -> "tuple[Set[str], Set[str]]":
    """(all --flags, all subcommand names) from the real parser."""
    from repro.cli import build_parser
    parser = build_parser()
    flags: Set[str] = set()
    commands: Set[str] = set()

    def walk(p: argparse.ArgumentParser) -> None:
        for action in p._actions:  # noqa: SLF001 - argparse has no API
            flags.update(s for s in action.option_strings
                         if s.startswith("--"))
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    commands.add(name)
                    walk(child)

    walk(parser)
    return flags, commands


def metric_problem(token: str, catalog: Set[str]) -> str:
    """Why ``token`` names no catalogued metric ("" when it does)."""
    if token.endswith("*"):
        prefix = token[:-1]
        if any(name.startswith(prefix) for name in catalog):
            return ""
        return "metric family %s matches no catalogued metric" % token
    if token in catalog or any(
            token.endswith(suffix) and token[:-len(suffix)] in catalog
            for suffix in _HISTOGRAM_SUFFIXES):
        return ""
    return "%s is not in the metric catalog" % token


def doc_files(root: str) -> List[str]:
    paths = [os.path.join(root, "README.md")]
    docs_dir = os.path.join(root, "docs")
    if os.path.isdir(docs_dir):
        for name in sorted(os.listdir(docs_dir)):
            if name.endswith(".md"):
                paths.append(os.path.join(docs_dir, name))
    return [p for p in paths if os.path.isfile(p)]


def spec_table_keys(text: str) -> List[str]:
    """Keys of the markdown table whose header starts ``| spec key |``."""
    keys: List[str] = []
    lines = iter(text.splitlines())
    for line in lines:
        if line.startswith(_SPEC_TABLE_HEADER):
            next(lines, None)  # the |---| separator row
            for row in lines:
                match = _SPEC_ROW_RE.match(row)
                if match is None:
                    break
                keys.append(match.group(1))
            break
    return keys


def check_spec_table(root: str) -> List[str]:
    """docs/SERVICE.md's spec table against the daemon's SPEC_SCHEMA."""
    from repro.core.jobqueue import SPEC_SCHEMA
    path = os.path.join(root, "docs", "SERVICE.md")
    if not os.path.isfile(path):
        return ["docs/SERVICE.md: missing (documents the spec keys)"]
    with open(path) as handle:
        text = handle.read()
    documented = spec_table_keys(text)
    if not documented:
        return ["docs/SERVICE.md: no spec-key table"]
    problems = ["docs/SERVICE.md: spec key %r is not in SPEC_SCHEMA" % key
                for key in documented if key not in SPEC_SCHEMA]
    problems.extend("docs/SERVICE.md: spec key %r is undocumented" % key
                    for key in SPEC_SCHEMA if key not in documented)
    from repro.common.faults import EXECUTION_FAULT_KINDS
    match = _FAULT_KEYS_RE.search(text)
    kinds = re.findall(r"`([a-z_]+)`", match.group(1)) if match else []
    if sorted(kinds) != sorted(EXECUTION_FAULT_KINDS):
        problems.append("docs/SERVICE.md: `faults` keys %s are not the "
                        "execution fault kinds %s"
                        % (kinds, list(EXECUTION_FAULT_KINDS)))
    return problems


def code_definitions(root: str) -> Set[str]:
    """Names a ``def``, ``class`` or module-level binding introduces in
    the ``.py`` files under :data:`CODE_DIRS`."""
    names: Set[str] = set()
    for top in CODE_DIRS:
        for directory, _, files in os.walk(os.path.join(root, top)):
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(directory, name)) as handle:
                        names.update(
                            match.group(1) or match.group(2)
                            for match in _DEFINITION_RE.finditer(
                                handle.read()))
    return names


def _module_level(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements that run at import time, inside ``if``/``try`` too."""
    for node in body:
        yield node
        if isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse,
                          getattr(node, "finalbody", []),
                          *(handler.body
                            for handler in getattr(node, "handlers", ()))):
                yield from _module_level(block)


def _referenced_names(tree: ast.Module) -> Set[str]:
    """Every name the module loads, string annotations' included."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotation = getattr(node, "annotation", None) \
            or getattr(node, "returns", None)
        for text in (ast.walk(annotation) if annotation else ()):
            if isinstance(text, ast.Constant) and isinstance(text.value, str):
                try:
                    parsed = ast.parse(text.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(sub.id for sub in ast.walk(parsed)
                             if isinstance(sub, ast.Name))
    return names


def unused_imports(path: str) -> List[Tuple[int, str]]:
    """``(line, name)`` of each module-level import ``path`` never uses."""
    with open(path) as handle:
        source = handle.read()
    tree = ast.parse(source, path)
    lines = source.splitlines()
    imported: Dict[str, int] = {}
    used = _referenced_names(tree)
    for node in _module_level(tree.body):
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
        if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                or getattr(node, "module", None) == "__future__" \
                or "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def check_unused_imports(root: str) -> List[str]:
    """Rule 10 over every ``.py`` file under :data:`CODE_DIRS`."""
    problems: List[str] = []
    for code_dir in CODE_DIRS:
        for directory, _, names in sorted(os.walk(os.path.join(root,
                                                               code_dir))):
            for name in sorted(names):
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    problems.extend(
                        "%s:%d: `%s` is imported but never used"
                        % (os.path.relpath(path, root), line, unused)
                        for line, unused in unused_imports(path))
    return problems


def check_flags_tested(root: str, known_flags: Set[str]) -> List[str]:
    """Flags that no file under ``tests/`` names."""
    named: Set[str] = set()
    for directory, _, names in os.walk(os.path.join(root, "tests")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(directory, name)) as handle:
                    named.update(_FLAG_RE.findall(handle.read()))
    return ["tests/: CLI flag %s is named in no test" % flag
            for flag in sorted(known_flags - named - {"--help"})]


def check(root: str) -> List[str]:
    """Run every cross-reference check; return a list of problems."""
    from repro.core.observe import METRIC_CATALOG
    problems: List[str] = []
    known_flags, commands = collect_cli_surface()
    metrics = set(METRIC_CATALOG)
    definitions = code_definitions(root)
    files = doc_files(root)
    readme_text = ""
    flag_mentions: Dict[str, Set[str]] = {}

    for path in files:
        rel = os.path.relpath(path, root)
        with open(path) as handle:
            text = handle.read()
        if rel == "README.md":
            readme_text = text
        for lineno, line in enumerate(text.splitlines(), 1):
            for token in _FLAG_RE.findall(line):
                flag_mentions.setdefault(token, set()).add(rel)
                if token in EXTERNAL_FLAGS:
                    continue
                if token.endswith("*"):
                    prefix = token.rstrip("*").rstrip("-")
                    if not any(f.startswith(prefix + "-")
                               for f in known_flags):
                        problems.append(
                            "%s:%d: flag family %s matches no CLI flag"
                            % (rel, lineno, token))
                elif token not in known_flags:
                    problems.append(
                        "%s:%d: %s is not a flag of any repro subcommand"
                        % (rel, lineno, token))
            for token in _METRIC_RE.findall(line):
                problem = metric_problem(token, metrics)
                if problem:
                    problems.append("%s:%d: %s" % (rel, lineno, problem))
            for token in _CALL_RE.findall(line):
                if (token not in EXTERNAL_CALLS
                        and token.rsplit(".", 1)[-1] not in definitions):
                    problems.append(
                        "%s:%d: `%s()` names no def, class or module-level "
                        "binding in the code" % (rel, lineno, token))
        for ref in _DOCREF_RE.findall(text):
            if not os.path.isfile(os.path.join(root, ref)):
                problems.append("%s: broken cross-reference %s"
                                % (rel, ref))

    # README must document every CLI flag and subcommand.
    for flag in sorted(known_flags):
        if flag == "--help":
            continue
        if flag not in readme_text:
            problems.append("README.md: CLI flag %s is undocumented"
                            % flag)
    for command in sorted(commands):
        if not re.search(r"\b%s\b" % re.escape(command), readme_text):
            problems.append("README.md: subcommand %r is undocumented"
                            % command)

    # the docs index must link every doc.
    index_path = os.path.join(root, "docs", "README.md")
    if not os.path.isfile(index_path):
        problems.append("docs/README.md: missing (the docs index)")
    else:
        with open(index_path) as handle:
            index_text = handle.read()
        for path in files:
            rel = os.path.relpath(path, root)
            name = os.path.basename(path)
            if not rel.startswith("docs") or name == "README.md":
                continue
            if name not in index_text:
                problems.append("docs/README.md: %s is not in the index"
                                % rel)

    problems.extend(check_spec_table(root))
    problems.extend(check_flags_tested(root, known_flags))
    problems.extend(check_unused_imports(root))
    return problems


def main(argv: List[str]) -> int:
    root = argv[1] if len(argv) > 1 else os.getcwd()
    problems = check(root)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print("docs-check: %d problem(s)" % len(problems), file=sys.stderr)
        return 1
    print("docs-check: OK (%d files, every flag accounted for)"
          % len(doc_files(root)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
