#!/usr/bin/env python3
"""Documentation drift gate: the front-door docs must match the code.

Checks (run by CI's ``server`` job and usable locally)::

    PYTHONPATH=src python tools/check_docs.py

1. ``README.md`` exists and is non-trivial.
2. Every ``repro <subcommand>`` / ``python -m repro <subcommand>``
   invocation mentioned in README.md and ARCHITECTURE.md names a real CLI
   subcommand (parsed from ``repro.cli.build_parser``, so new subcommands
   never need this script updated).
3. The README's backend table lists exactly the registered evaluation
   backends (``repro.service.BACKEND_NAMES``): the set of table rows
   whose first cell is a backticked name must equal it, so a stale row
   for a deleted backend fails as surely as a missing one.
4. Every ``examples/*.py`` file referenced in README.md exists, and every
   example on disk is mentioned in README.md.
5. README.md has a ``repro serve`` quickstart, and ARCHITECTURE.md
   documents every request/reply kind the prediction server speaks
   (``repro.service.server.REQUEST_KINDS`` / ``REPLY_KINDS``, so a
   vocabulary change must update the docs in the same commit).
6. README.md documents the persistent artifact store: the ``repro
   cache`` maintenance subcommand, the ``--store-dir`` flag and the
   ``REPRO_STORE_DIR`` environment variable (pulled from
   ``repro.service.store``); ARCHITECTURE.md documents the store's
   version stamp file.
7. ARCHITECTURE.md describes the current wire vocabulary: it never
   mentions ``trace_json`` (the result field protocol 1 carried), and any
   number it gives for ``PROTOCOL`` is ``repro.service.wire.PROTOCOL``.

Exits non-zero with one line per violation.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Words following ``repro`` in prose that are not subcommand invocations.
_NON_COMMAND_WORDS = {"versions"}


def _cli_subcommands() -> set:
    from repro.cli import build_parser

    parser = build_parser()
    for action in parser._subparsers._group_actions:
        return set(action.choices)
    raise AssertionError("CLI parser has no subcommands")


def _mentioned_subcommands(text: str) -> set:
    """Subcommand-shaped words after `repro` in doc text."""
    mentions = set()
    for match in re.finditer(
            r"(?:python -m repro|(?<![-\w])repro)\s+([a-z][a-z0-9-]*)", text):
        word = match.group(1)
        if word not in _NON_COMMAND_WORDS:
            mentions.add(word)
    return mentions


def main() -> int:
    problems = []

    readme = REPO_ROOT / "README.md"
    if not readme.exists():
        print("FAIL: README.md does not exist")
        return 1
    readme_text = readme.read_text()
    if len(readme_text) < 2000:
        problems.append(f"README.md is suspiciously short "
                        f"({len(readme_text)} chars)")

    subcommands = _cli_subcommands()
    architecture = REPO_ROOT / "ARCHITECTURE.md"
    for path, text in [(readme, readme_text),
                       (architecture,
                        architecture.read_text()
                        if architecture.exists() else "")]:
        for word in sorted(_mentioned_subcommands(text)):
            if word not in subcommands:
                problems.append(
                    f"{path.name} mentions `repro {word}`, which is not a "
                    f"CLI subcommand (have: {sorted(subcommands)})")

    from repro.service import BACKEND_NAMES
    table_backends = set(re.findall(r"^\|\s*`([\w-]+)`\s*\|", readme_text,
                                    re.MULTILINE))
    if table_backends != set(BACKEND_NAMES):
        problems.append(
            f"README.md backend table lists {sorted(table_backends)}, but "
            f"the registered backends are {sorted(BACKEND_NAMES)}")

    from repro.service.server import REPLY_KINDS, REQUEST_KINDS
    if "serve" not in _mentioned_subcommands(readme_text):
        problems.append("README.md has no `repro serve` serving quickstart")
    architecture_text = (architecture.read_text()
                         if architecture.exists() else "")
    for kind in (*REQUEST_KINDS, *REPLY_KINDS):
        if not re.search(rf"[`\"']{re.escape(kind)}[`\"']",
                         architecture_text):
            problems.append(
                f"ARCHITECTURE.md does not document the prediction "
                f"server's {kind!r} message kind (its request/response "
                f"vocabulary section must stay in sync with "
                f"repro/service/server.py)")

    from repro.service.store import FORMAT_FILE, STORE_DIR_ENV
    if "cache" not in _mentioned_subcommands(readme_text):
        problems.append("README.md has no `repro cache` store-maintenance "
                        "quickstart")
    for needle, where, text in [("--store-dir", "README.md", readme_text),
                                (STORE_DIR_ENV, "README.md", readme_text),
                                ("--store-dir", "ARCHITECTURE.md",
                                 architecture_text),
                                (FORMAT_FILE, "ARCHITECTURE.md",
                                 architecture_text)]:
        if needle not in text:
            problems.append(f"{where} does not document the artifact "
                            f"store's {needle!r}")

    from repro.service import wire
    if "trace_json" in architecture_text:
        problems.append(
            "ARCHITECTURE.md mentions `trace_json`: pooled results carry "
            "an encoded artifact payload, not a JSON trace")
    for match in re.finditer(r"PROTOCOL`?\s*(?:\(currently|=|is)\s*(\d+)",
                             architecture_text):
        if int(match.group(1)) != wire.PROTOCOL:
            problems.append(
                f"ARCHITECTURE.md says PROTOCOL is {match.group(1)}, but "
                f"repro.service.wire.PROTOCOL is {wire.PROTOCOL}")

    examples_dir = REPO_ROOT / "examples"
    referenced = set(re.findall(r"examples/([\w.]+\.py)", readme_text))
    on_disk = {path.name for path in examples_dir.glob("*.py")}
    for name in sorted(referenced - on_disk):
        problems.append(f"README.md references examples/{name}, "
                        f"which does not exist")
    for name in sorted(on_disk - referenced):
        problems.append(f"examples/{name} is not mentioned in README.md")

    if problems:
        for problem in problems:
            print(f"FAIL: {problem}")
        return 1
    print(f"docs check passed: {len(subcommands)} subcommands, "
          f"{len(BACKEND_NAMES)} backends, {len(on_disk)} examples "
          f"covered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
