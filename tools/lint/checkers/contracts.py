"""RPR004 maintenance-contract checker.

Every ``PathIndex`` subclass must make its incremental-maintenance
story explicit (``docs/ANALYSIS.md``): either override the
``_update`` / ``_remove`` hooks, or declare the corresponding
``incremental`` / ``incremental_removal`` flag so the full-rebuild
fall-back is a visible decision rather than a silent default.  An
``EntryBatchIndex`` subclass inherits both hooks, as apply(derive(...));
what it must supply is the derive hook ``_entry_batch``, which both
directions read.  The checker also keeps the ``INDEX_TYPES`` registry
honest: every subclass defined next to a registry must be registered
(the bases named in :data:`CONTRACTS` excepted), and every registry
entry must resolve to a class defined there.

The registry comparison is a whole-run check (:meth:`finalize`): the
classes live in sibling modules of the registry's package, so the
checker accumulates both while files stream past and reconciles them at
the end, grouped by directory so fixture packages stay self-contained.
"""

from __future__ import annotations

import ast
import posixpath

from ..findings import Finding
from ..walker import iter_classes, iter_methods
from .base import Checker

#: Base-class name -> the ``(flag, hook)`` pairs its subclasses must
#: state: declare the flag, or override the hook.
CONTRACTS = {
    "PathIndex": (
        ("incremental", "_update"),
        ("incremental_removal", "_remove"),
    ),
    "EntryBatchIndex": (
        ("incremental", "_entry_batch"),
        ("incremental_removal", "_entry_batch"),
    ),
}

#: Base-class names that opt a class into the maintenance contract.
INDEX_BASES = frozenset(CONTRACTS)

#: The registry mapping ``name -> class`` kept in the package init.
#: (Held as a constant so this file never contains a bare assignment to
#: that name — the checker must not flag itself.)
REGISTRY_NAME = "INDEX_TYPES"


def _base_names(cls: ast.ClassDef) -> set[str]:
    names: set[str] = set()
    for base in cls.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


def _class_level_flags(cls: ast.ClassDef) -> dict[str, ast.expr]:
    """Class-body ``name = value`` assignments (incl. annotated)."""
    flags: dict[str, ast.expr] = {}
    for node in cls.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    flags[target.id] = node.value
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.value is not None:
                flags[node.target.id] = node.value
    return flags


class MaintenanceContractChecker(Checker):
    code = "RPR004"
    name = "maintenance-contract"
    description = (
        "PathIndex subclasses must override _update/_remove (EntryBatchIndex "
        "subclasses _entry_batch) or declare the incremental flags; "
        "INDEX_TYPES must match the class set"
    )

    def __init__(self) -> None:
        #: ``class name -> directory`` for every subclass seen this run.
        self._classes: dict[str, str] = {}
        #: ``(path, line, referenced class names)`` per registry seen.
        self._registries: list[tuple[str, int, set[str]]] = []

    def check_file(self, path, tree, source):
        findings: list[Finding] = []
        directory = posixpath.dirname(path)
        for cls in iter_classes(tree):
            bases = _base_names(cls) & INDEX_BASES
            if not bases:
                continue
            if cls.name not in INDEX_BASES:
                self._classes[cls.name] = directory
            contract = [pair for base in sorted(bases) for pair in CONTRACTS[base]]
            findings.extend(self._check_contract(path, cls, contract))
        self._record_registry(path, tree)
        return findings

    def _check_contract(
        self, path: str, cls: ast.ClassDef, contract: list[tuple[str, str]]
    ) -> list[Finding]:
        findings: list[Finding] = []
        flags = _class_level_flags(cls)
        methods = {m.name for m in iter_methods(cls)}
        for flag, hook in contract:
            declared = flags.get(flag)
            overrides = hook in methods
            if declared is None and not overrides:
                findings.append(
                    Finding(
                        code=self.code,
                        path=path,
                        line=cls.lineno,
                        message=(
                            f"{cls.name} neither overrides {hook} nor "
                            f"declares '{flag}'; state the full-rebuild "
                            "fall-back explicitly "
                            f"({flag} = False) or implement {hook}"
                        ),
                    )
                )
                continue
            if declared is None:
                continue
            value = (
                declared.value
                if isinstance(declared, ast.Constant)
                else None
            )
            if value is True and not overrides:
                findings.append(
                    Finding(
                        code=self.code,
                        path=path,
                        line=declared.lineno,
                        message=(
                            f"{cls.name} declares {flag} = True but does "
                            f"not override {hook}; the flag promises an "
                            "incremental path that does not exist"
                        ),
                    )
                )
            elif value is False and overrides:
                findings.append(
                    Finding(
                        code=self.code,
                        path=path,
                        line=declared.lineno,
                        message=(
                            f"{cls.name} declares {flag} = False yet "
                            f"overrides {hook}; the override is dead "
                            "behind the flag"
                        ),
                    )
                )
        return findings

    def _record_registry(self, path: str, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
                value = node.value
            else:
                continue
            named = any(
                isinstance(t, ast.Name) and t.id == REGISTRY_NAME
                for t in targets
            )
            if not named or not isinstance(value, ast.Dict):
                continue
            referenced = {
                v.id for v in value.values if isinstance(v, ast.Name)
            }
            self._registries.append((path, node.lineno, referenced))

    def finalize(self):
        findings: list[Finding] = []
        for path, line, referenced in self._registries:
            directory = posixpath.dirname(path)
            local = {
                name
                for name, cls_dir in self._classes.items()
                if cls_dir == directory
            }
            for name in sorted(local - referenced):
                findings.append(
                    Finding(
                        code=self.code,
                        path=path,
                        line=line,
                        message=(
                            f"{REGISTRY_NAME} is out of sync: PathIndex "
                            f"subclass {name} is defined in this package "
                            "but not registered"
                        ),
                    )
                )
            for name in sorted(referenced - set(self._classes)):
                findings.append(
                    Finding(
                        code=self.code,
                        path=path,
                        line=line,
                        message=(
                            f"{REGISTRY_NAME} references {name}, which is "
                            "not a PathIndex subclass seen in this run"
                        ),
                    )
                )
        return findings
