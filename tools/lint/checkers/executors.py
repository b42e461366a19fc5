"""RPR005 executor-hygiene checker.

The serving tiers (shard legs, replica write-through, the rebalance
worker) rely on two disciplines that are easy to erode in review:

* exceptions must not be silently swallowed — a bare ``except:`` or a
  broad ``except Exception:`` whose handler never re-raises hides shard
  failures as empty results;
* every future returned by ``executor.submit`` must be consumed via
  ``result()`` (or ``as_completed``), otherwise worker exceptions are
  dropped on the floor and back-pressure disappears.
"""

from __future__ import annotations

import ast

from ..findings import Finding
from ..walker import iter_functions
from .base import Checker

#: Exception names considered too broad to swallow silently.
BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})

#: Call names that consume futures.
FUTURE_CONSUMERS = frozenset({"result", "as_completed"})


def _exception_names(node: ast.expr) -> set[str]:
    """Names in an ``except <expr>`` clause (handles tuples)."""
    if isinstance(node, ast.Tuple):
        names: set[str] = set()
        for elt in node.elts:
            names.update(_exception_names(elt))
        return names
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


class ExecutorHygieneChecker(Checker):
    code = "RPR005"
    name = "executor-hygiene"
    description = (
        "no bare/broad except swallowing exceptions; every "
        "executor.submit future must be consumed"
    )

    def check_file(self, path, tree, source):
        findings: list[Finding] = []
        findings.extend(self._check_excepts(path, tree))
        for func in iter_functions(tree):
            findings.extend(self._check_submits(path, func))
        return findings

    @staticmethod
    def _check_excepts(path: str, tree: ast.Module) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                findings.append(
                    Finding(
                        code=ExecutorHygieneChecker.code,
                        path=path,
                        line=node.lineno,
                        message=(
                            "bare 'except:' swallows every error including "
                            "KeyboardInterrupt; catch a specific exception"
                        ),
                    )
                )
                continue
            broad = _exception_names(node.type) & BROAD_EXCEPTIONS
            if not broad:
                continue
            reraises = any(
                isinstance(inner, ast.Raise) for inner in ast.walk(node)
            )
            if not reraises:
                findings.append(
                    Finding(
                        code=ExecutorHygieneChecker.code,
                        path=path,
                        line=node.lineno,
                        message=(
                            f"broad 'except {sorted(broad)[0]}' never "
                            "re-raises; shard failures disappear as empty "
                            "results — narrow the type or re-raise"
                        ),
                    )
                )
        return findings

    @staticmethod
    def _check_submits(path: str, func) -> list[Finding]:
        submit_lines: list[int] = []
        discarded_lines: list[int] = []
        consumes = False
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                name = None
                if isinstance(node.func, ast.Attribute):
                    name = node.func.attr
                elif isinstance(node.func, ast.Name):
                    name = node.func.id
                if name == "submit" and isinstance(node.func, ast.Attribute):
                    submit_lines.append(node.lineno)
                elif name in FUTURE_CONSUMERS:
                    consumes = True
            elif isinstance(node, ast.Expr) and isinstance(
                node.value, ast.Call
            ):
                call = node.value
                if (
                    isinstance(call.func, ast.Attribute)
                    and call.func.attr == "submit"
                ):
                    discarded_lines.append(call.lineno)
        findings = [
            Finding(
                code=ExecutorHygieneChecker.code,
                path=path,
                line=line,
                message=(
                    f"{func.name} discards the future returned by "
                    "executor.submit; its exception (if any) is lost"
                ),
            )
            for line in discarded_lines
        ]
        if submit_lines and not consumes:
            findings.extend(
                Finding(
                    code=ExecutorHygieneChecker.code,
                    path=path,
                    line=line,
                    message=(
                        f"{func.name} submits work but never consumes the "
                        "futures; call result() or iterate as_completed"
                    ),
                )
                for line in submit_lines
                if line not in discarded_lines
            )
        return findings
