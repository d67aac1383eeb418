"""Cache-key completeness: every result-affecting input is in the key.

PR 7's disk tier re-keys simulation results by *content*:
``result_key()`` hashes everything a simulation is a function of.  The
invariant is open-ended in the dangerous direction — adding a new
model/workload attribute read to the engine's dispatch paths without
extending the digest silently serves stale disk entries (the worst cache
bug: wrong answers, no error).

This project rule cross-references two attribute-access sets, both
collected purely from the AST:

* **reads** — every ``model.X`` / ``trace.X`` (and ``self._model.X``)
  attribute access inside the configured dispatch-path modules
  (``simulator/engine.py`` and ``simulator/service.py``, where service
  times are generated);
* **keyed** — every ``model.X`` / ``trace.X`` access inside the digest
  functions of ``simulator/disk_cache.py`` (``_model_digest``,
  ``_trace_digest``, ``result_key``).

Every read must be keyed or appear in the explicit exemption table
(``[tool.repro-lint.cache-key] exempt``), which carries a justification
per attribute — the current exemptions are methods that are pure
functions of keyed fields.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.config import LintConfig
from repro.devtools.lint.engine import Module
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import rule

_MODEL_NAMES = frozenset({"model"})
_TRACE_NAMES = frozenset({"trace"})
_MODEL_SELF_ATTRS = frozenset({"model", "_model"})
_TRACE_SELF_ATTRS = frozenset({"trace", "_trace"})


def _classify_base(node: ast.AST) -> str | None:
    """"model"/"trace" when ``node`` denotes the workload object."""
    if isinstance(node, ast.Name):
        if node.id in _MODEL_NAMES:
            return "model"
        if node.id in _TRACE_NAMES:
            return "trace"
        return None
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        if node.attr in _MODEL_SELF_ATTRS:
            return "model"
        if node.attr in _TRACE_SELF_ATTRS:
            return "trace"
    return None


def _attribute_reads(root: ast.AST) -> Iterator[tuple[str, str, ast.Attribute]]:
    """(kind, attribute, node) for every model/trace attribute access."""
    for node in ast.walk(root):
        if not isinstance(node, ast.Attribute):
            continue
        kind = _classify_base(node.value)
        if kind is not None:
            yield kind, node.attr, node


@rule(
    "cache-key-completeness",
    family="cache-key",
    description=(
        "dispatch-path model/trace reads must be covered by result_key()"
    ),
    rationale=(
        "PR 7's content-addressed disk cache: a result-affecting input"
        " missing from the digest serves stale entries silently — wrong"
        " answers with no error"
    ),
    project=True,
)
def check_cache_key(
    modules: list[Module], config: LintConfig
) -> Iterator[Finding]:
    read_modules = [
        m
        for m in modules
        if any(m.relpath.endswith(s) for s in config.cache_key_read_modules)
    ]
    if not read_modules:
        return
    key_module = next(
        (m for m in modules if m.relpath.endswith(config.cache_key_module)),
        None,
    )
    if key_module is None:
        for m in read_modules:
            yield Finding(
                path=m.relpath,
                line=1,
                col=0,
                rule="cache-key-completeness",
                message=(
                    f"dispatch-path module linted without its key module"
                    f" {config.cache_key_module!r}; lint them together to"
                    " verify key completeness"
                ),
            )
        return

    keyed: set[tuple[str, str]] = set()
    for func in ast.walk(key_module.tree):
        if (
            isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            and func.name in config.cache_key_functions
        ):
            for kind, attr, _node in _attribute_reads(func):
                keyed.add((kind, attr))

    exempt = config.cache_key_exempt
    reported: set[tuple[str, str, int]] = set()
    for m in read_modules:
        for kind, attr, node in _attribute_reads(m.tree):
            if (kind, attr) in keyed or attr in exempt:
                continue
            anchor = (m.relpath, attr, node.lineno)
            if anchor in reported:
                continue
            reported.add(anchor)
            yield m.finding(
                node,
                "cache-key-completeness",
                f"{kind}.{attr} is read on a dispatch path but absent from"
                f" the disk key ({config.cache_key_module}"
                f" {'/'.join(config.cache_key_functions)}); key it or add"
                " a justified [tool.repro-lint.cache-key] exemption",
            )
