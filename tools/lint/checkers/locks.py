"""RPR001 lock-discipline and RPR002 lock-ordering checkers.

The serving tier guards mutable state behind per-object locks
(``QueryService``, ``LRUCache``, ``ShardTopology``, the shard classes —
see ``docs/ARCHITECTURE.md``).  Two statically checkable conventions
fall out of that design:

* **RPR001** — within a class that creates a ``threading.Lock`` /
  ``RLock``, the attributes written inside any ``with self.<lock>:``
  block form the class's *guarded set*.  A public method that writes a
  guarded attribute outside a lock block is a race waiting for a
  concurrent caller.  Private (underscore) methods are assumed to be
  internal helpers invoked with the lock already held — the pattern
  ``QueryService._flush`` uses — so only public entry points are
  flagged.
* **RPR002** — multi-shard operations must take shard ``add_lock``s in
  ascending shard order (``ShardedQueryService.move_document``).  A
  ``with`` statement acquiring two or more ``add_lock``s is accepted
  only when every lock's owner was produced by a ``sorted(...)`` call
  in the same function (the ascending-order idiom); nested ``add_lock``
  acquisitions are flagged outright because their order cannot be
  proven lexically.
"""

from __future__ import annotations

import ast

from ..findings import Finding
from ..walker import (
    is_public_method,
    iter_classes,
    iter_functions,
    iter_methods,
    lock_attributes,
    walk_with_lock_context,
    written_self_attrs,
)
from .base import Checker


class LockDisciplineChecker(Checker):
    code = "RPR001"
    name = "lock-discipline"
    description = (
        "attributes guarded by a class lock must not be written outside "
        "a lock block in public methods"
    )

    def check_file(self, path, tree, source):
        findings: list[Finding] = []
        for cls in iter_classes(tree):
            locks = lock_attributes(cls)
            if not locks:
                continue
            guarded = self._guarded_attributes(cls, locks)
            if not guarded:
                continue
            for method in iter_methods(cls):
                if not is_public_method(method):
                    continue
                findings.extend(
                    self._unguarded_writes(path, cls, method, locks, guarded)
                )
        return findings

    @staticmethod
    def _guarded_attributes(cls: ast.ClassDef, locks: set[str]) -> set[str]:
        """Attrs written under any of the class's locks, in any method."""
        guarded: set[str] = set()

        def record(node, inside):
            if inside:
                guarded.update(attr for attr, _ in written_self_attrs(node))

        for method in iter_methods(cls):
            walk_with_lock_context(method, False, locks, record)
        # Lock slots themselves are infrastructure, not guarded state.
        return guarded - locks

    @staticmethod
    def _unguarded_writes(path, cls, method, locks, guarded) -> list[Finding]:
        findings: list[Finding] = []

        def check(node, inside):
            if inside:
                return
            for attr, line in written_self_attrs(node):
                if attr in guarded:
                    findings.append(
                        Finding(
                            code=LockDisciplineChecker.code,
                            path=path,
                            line=line,
                            message=(
                                f"{cls.name}.{method.name} writes "
                                f"'self.{attr}' without holding a lock, but "
                                f"the attribute is guarded by "
                                f"{sorted(locks)} elsewhere in the class"
                            ),
                        )
                    )

        walk_with_lock_context(method, False, locks, check)
        return findings


#: Lock attributes that participate in the cross-object ordering
#: protocol (acquired on *other* objects, in ascending shard order).
ORDERED_LOCK_ATTRS = frozenset({"add_lock"})


class LockOrderingChecker(Checker):
    code = "RPR002"
    name = "lock-ordering"
    description = (
        "multi-shard add_lock acquisitions must be provably ordered "
        "(owners produced by sorted(...)) and never nested"
    )

    def check_file(self, path, tree, source):
        findings: list[Finding] = []
        for func in iter_functions(tree):
            findings.extend(self._check_function(path, func))
        return findings

    def _check_function(self, path: str, func) -> list[Finding]:
        findings: list[Finding] = []
        sorted_names = self._sorted_bound_names(func)

        def visit(node, held: bool):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue  # nested defs are visited as functions themselves
                child_held = held
                if isinstance(child, (ast.With, ast.AsyncWith)):
                    owners = self._ordered_lock_owners(child)
                    if owners:
                        if held:
                            findings.append(
                                Finding(
                                    code=self.code,
                                    path=path,
                                    line=child.lineno,
                                    message=(
                                        f"{func.name} nests a shard-lock "
                                        "acquisition inside another held "
                                        "shard lock; take every add_lock in "
                                        "one `with`, in ascending shard order"
                                    ),
                                )
                            )
                        elif len(owners) >= 2 and not all(
                            isinstance(owner, ast.Name)
                            and owner.id in sorted_names
                            for owner in owners
                        ):
                            findings.append(
                                Finding(
                                    code=self.code,
                                    path=path,
                                    line=child.lineno,
                                    message=(
                                        f"{func.name} acquires "
                                        f"{len(owners)} add_locks whose order "
                                        "is not provable; bind the owners "
                                        "with sorted(...) first (ascending "
                                        "shard order)"
                                    ),
                                )
                            )
                        child_held = True
                visit(child, child_held)

        visit(func, False)
        return findings

    @staticmethod
    def _ordered_lock_owners(node) -> list[ast.expr]:
        """Owner expressions of the ordered locks a ``with`` acquires."""
        owners = []
        for item in node.items:
            expr = item.context_expr
            if (
                isinstance(expr, ast.Attribute)
                and expr.attr in ORDERED_LOCK_ATTRS
            ):
                # self.add_lock guards this object only — the ordering
                # protocol concerns locks taken on *other* objects.
                if isinstance(expr.value, ast.Name) and expr.value.id == "self":
                    continue
                owners.append(expr.value)
        return owners

    @staticmethod
    def _sorted_bound_names(func) -> set[str]:
        """Names bound (possibly via tuple unpack) to a sorted(...) call."""
        names: set[str] = set()
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if not (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "sorted"
            ):
                continue
            stack = list(node.targets)
            while stack:
                target = stack.pop()
                if isinstance(target, (ast.Tuple, ast.List)):
                    stack.extend(target.elts)
                elif isinstance(target, ast.Name):
                    names.add(target.id)
        return names
