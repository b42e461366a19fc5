"""RPR003 cost-accounting checker.

The paper's maintenance-cost model only works if every page/entry
mutation in the storage engines and index structures is charged to a
``StatsCollector`` counter (``docs/ANALYSIS.md`` describes the rule).  This checker
enforces that at the AST level: inside the scoped modules, any method
that mutates a page container must — directly or through a callee —
touch ``self.stats.<counter>`` or delegate to a storage primitive that
charges internally (``BPlusTree.insert``, ``HeapFile.append``, ...).

Charging is propagated through the class's own call graph with a
fixpoint, so ``BPlusTree._insert`` (which mutates node pages but leaves
the accounting to ``_split_leaf`` and its public caller) is not a false
positive, while a genuinely uncharged mutation still is.

Batch mutators (``insert_many`` / ``delete_many``) edit pages in a loop,
count locally and charge once after it; that is a charging method like
any other.  What the rule must not let through is the same method
leaving early: a ``return`` that follows a mutation with no charge
anywhere before it drops the writes made so far, and is reported.
"Before" is by line number, not by control flow: a charge in an
unrelated earlier branch hides an uncharged return below it.
"""

from __future__ import annotations

import ast

from ..findings import Finding
from ..walker import iter_classes, iter_methods
from .base import Checker

#: Attribute names that hold page/entry containers in the storage and
#: index layers.  Mutating through one of these is a chargeable event.
CONTAINER_ATTRS = frozenset(
    {"entries", "children", "pages", "_pages", "keys", "values"}
)

#: In-place container mutators (``self.entries.append(...)`` etc.).
MUTATING_METHODS = frozenset(
    {"append", "insert", "extend", "pop", "remove", "clear", "update"}
)

#: Storage-primitive calls that charge the shared stats internally;
#: calling one of these on a non-container attribute counts as charging
#: (``self._tree.insert(...)``, ``self.heap.delete_where(...)``).
CHARGING_DELEGATES = frozenset(
    {
        "insert",
        "delete",
        "insert_many",
        "delete_many",
        "append",
        "extend",
        "delete_where",
    }
)


def _is_container_attr(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in CONTAINER_ATTRS


def _chain_attrs(node: ast.AST) -> set[str]:
    """All attribute names along one dotted chain (``a.b.c`` -> {b, c})."""
    attrs: set[str] = set()
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        node = node.value
    return attrs


class _MethodFacts:
    """What one method does, as far as cost accounting is concerned."""

    def __init__(self, method: ast.AST, method_names: set[str]) -> None:
        #: ``(attr, line)`` container mutations performed directly.
        self.mutations: list[tuple[str, int]] = []
        #: Lines that charge directly or through a storage primitive.
        self.charge_lines: list[int] = []
        #: ``(name, line)`` same-class methods invoked through ``self``.
        self.self_calls: list[tuple[str, int]] = []
        self.return_lines: list[int] = []
        for node in ast.walk(method):
            self._observe(node, method_names)

    @property
    def charges(self) -> bool:
        return bool(self.charge_lines)

    @property
    def calls(self) -> set[str]:
        return {name for name, _line in self.self_calls}

    def _observe(self, node: ast.AST, method_names: set[str]) -> None:
        if isinstance(node, ast.Return):
            self.return_lines.append(node.lineno)
        elif isinstance(
            node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)
        ):
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            else:
                targets = [node.target]
            for target in targets:
                base = target
                if isinstance(base, ast.Subscript):
                    base = base.value
                if "stats" in _chain_attrs(target):
                    self.charge_lines.append(target.lineno)
                elif _is_container_attr(base):
                    self.mutations.append((base.attr, target.lineno))
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            receiver = node.func.value
            name = node.func.attr
            if name in MUTATING_METHODS and _is_container_attr(receiver):
                self.mutations.append((receiver.attr, node.lineno))
            elif (
                name in CHARGING_DELEGATES
                and isinstance(receiver, ast.Attribute)
                and not _is_container_attr(receiver)
            ):
                self.charge_lines.append(node.lineno)
            elif (
                isinstance(receiver, ast.Name)
                and receiver.id == "self"
                and name in method_names
            ):
                self.self_calls.append((name, node.lineno))


class CostAccountingChecker(Checker):
    code = "RPR003"
    name = "cost-accounting"
    description = (
        "page/entry mutations in storage and index code must charge a "
        "self.stats counter, directly or via a charging callee"
    )
    scope = ("storage/btree", "storage/heap", "indexes/")

    def check_file(self, path, tree, source):
        findings: list[Finding] = []
        for cls in iter_classes(tree):
            findings.extend(self._check_class(path, cls))
        return findings

    def _check_class(self, path: str, cls: ast.ClassDef) -> list[Finding]:
        methods = {m.name: m for m in iter_methods(cls)}
        facts = {
            name: _MethodFacts(node, set(methods))
            for name, node in methods.items()
        }
        charging = self._charging_fixpoint(facts)
        findings: list[Finding] = []
        for name, fact in facts.items():
            if name.startswith("__"):
                continue  # construction/reset is not a chargeable mutation
            if not fact.mutations:
                continue
            if name in charging:
                findings.extend(
                    self._early_returns(path, cls.name, name, fact, charging)
                )
                continue
            for attr, line in fact.mutations:
                findings.append(
                    Finding(
                        code=self.code,
                        path=path,
                        line=line,
                        message=(
                            f"{cls.name}.{name} mutates '{attr}' but never "
                            "charges a self.stats counter (directly or "
                            "through a callee); the cost model loses this "
                            "write"
                        ),
                    )
                )
        return findings

    def _early_returns(
        self,
        path: str,
        cls_name: str,
        name: str,
        fact: _MethodFacts,
        charging: set[str],
    ) -> list[Finding]:
        """Returns that follow a mutation with no charge before them."""
        charge_lines = fact.charge_lines + [
            line for callee, line in fact.self_calls if callee in charging
        ]
        findings: list[Finding] = []
        for line in fact.return_lines:
            mutated = [attr for attr, at in fact.mutations if at < line]
            if mutated and not any(at <= line for at in charge_lines):
                findings.append(
                    Finding(
                        code=self.code,
                        path=path,
                        line=line,
                        message=(
                            f"{cls_name}.{name} returns after mutating "
                            f"'{mutated[0]}' with no self.stats charge "
                            "before this line; the cost model loses the "
                            "writes made so far"
                        ),
                    )
                )
        return findings

    @staticmethod
    def _charging_fixpoint(facts: dict[str, _MethodFacts]) -> set[str]:
        """Methods that charge, directly or via transitive self-calls."""
        charging = {name for name, fact in facts.items() if fact.charges}
        changed = True
        while changed:
            changed = False
            for name, fact in facts.items():
                if name not in charging and fact.calls & charging:
                    charging.add(name)
                    changed = True
        return charging
