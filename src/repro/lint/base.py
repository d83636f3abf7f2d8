"""Rule interface, the per-module node index, and shared AST helpers."""

from __future__ import annotations

import ast
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from typing import (
    ClassVar,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Type,
    TypeVar,
    Union,
    cast,
)

#: Both flavours of function definition, handled uniformly by rules.
AnyFunctionDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]

from repro.lint.findings import Finding
from repro.lint.noqa import expand_suppressions, parse_noqa

_FUNCTION_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Node types the parser shares between all their uses (``Load``,
#: ``Add``, ``Eq``, ...): one instance has no single place in the tree.
_SINGLETON_TYPES = (ast.expr_context, ast.operator, ast.boolop, ast.unaryop, ast.cmpop)

NodeT = TypeVar("NodeT", bound=ast.AST)


@dataclass
class ModuleSource:
    """One parsed module handed to every rule, with its node index.

    ``tree`` is ``None`` when the file failed to parse; the runner then
    emits a single ``SYN001`` finding and skips the rules.

    Construction walks the tree once and indexes it, so no rule and no
    project-graph pass walks it again:

    * :meth:`nodes` -- the nodes of given types, module-wide or below
      one function definition, in ``ast.walk`` order;
    * :meth:`functions` -- every function definition;
    * :meth:`body_nodes` -- a function's own body, without the insides
      of the functions it defines.

    Contexts and operators (``Load``, ``Add``, ``Eq``, ...) are not
    indexed: the parser shares one instance of each between all its
    uses, so read them through their owner (``ctx``, ``op``, ``ops``).
    """

    path: str
    source: str
    tree: Optional[ast.Module]
    suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    #: Every indexed node, in ``ast.walk`` order.
    _nodes: List[ast.AST] = field(default_factory=list, init=False, repr=False)
    #: Node type -> where its nodes sit in ``_nodes``.
    _by_type: Dict[type, List[int]] = field(
        default_factory=lambda: defaultdict(list), init=False, repr=False
    )
    #: Function definition -> every indexed node below it, in walk order.
    _subtrees: Dict[AnyFunctionDef, List[ast.AST]] = field(
        default_factory=dict, init=False, repr=False
    )
    #: Node -> (the innermost function definition above it, whether the
    #: node sits in that function's header: decorators, signature and
    #: return annotation).
    _scopes: Dict[ast.AST, Tuple[Optional[AnyFunctionDef], bool]] = field(
        default_factory=dict, init=False, repr=False
    )
    _aliases: Optional["ImportAliases"] = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.tree is None:
            return
        top: Tuple[Optional[AnyFunctionDef], bool] = (None, False)
        for node in ast.walk(self.tree):
            if isinstance(node, _SINGLETON_TYPES):
                continue
            self._by_type[type(node)].append(len(self._nodes))
            self._nodes.append(node)
            scope = self._scopes.get(node, top)
            outer = scope[0]
            while outer is not None:
                self._subtrees[outer].append(node)
                outer = self._scopes[outer][0]
            if isinstance(node, _FUNCTION_TYPES):
                self._subtrees[node] = []
                for child in ast.iter_child_nodes(node):
                    # A def's statement children are its body; the rest
                    # (arguments, decorators, returns) is its header.
                    self._scopes[child] = (node, not isinstance(child, ast.stmt))
            else:
                for child in ast.iter_child_nodes(node):
                    self._scopes[child] = scope

    @classmethod
    def from_source(cls, path: str, source: str) -> "ModuleSource":
        try:
            tree: Optional[ast.Module] = ast.parse(source, filename=path)
        except SyntaxError:
            tree = None
        module = cls(path=path, source=source, tree=tree)
        module.suppressions = expand_suppressions(
            module.nodes(ast.stmt), parse_noqa(source)
        )
        return module

    def nodes(
        self, *types: Type[NodeT], within: Optional[AnyFunctionDef] = None
    ) -> List[NodeT]:
        """The nodes that are instances of ``types``, in walk order.

        Module-wide by default; with ``within``, only the nodes below
        that function definition (its decorators, signature, body and
        nested definitions, not the definition itself).
        """
        if within is not None:
            found = [
                node for node in self._subtrees[within] if isinstance(node, types)
            ]
        else:
            positions = chain.from_iterable(
                kept for kind, kept in self._by_type.items()
                if issubclass(kind, types)
            )
            found = [self._nodes[position] for position in sorted(positions)]
        return cast(List[NodeT], found)

    def body_nodes(
        self, function: AnyFunctionDef, *types: Type[NodeT]
    ) -> List[NodeT]:
        """The nodes of ``types`` in ``function``'s body, not descending
        into nested function definitions (lambdas and classes count as
        the body's own)."""
        own = (function, False)
        return [
            node for node in self.nodes(*types, within=function)
            if self._scopes[node] == own
        ]

    def functions(
        self, within: Optional[AnyFunctionDef] = None
    ) -> List[AnyFunctionDef]:
        """Every (sync or async) function definition, module-wide or
        below ``within``."""
        found = self.nodes(*_FUNCTION_TYPES, within=within)
        return cast(List[AnyFunctionDef], found)

    def import_aliases(self) -> "ImportAliases":
        """The module's :class:`ImportAliases`, built on first use."""
        if self._aliases is None:
            self._aliases = ImportAliases(self)
        return self._aliases


class ImportAliases:
    """How ``numpy``, ``numpy.random``, ``default_rng`` and the stdlib
    ``random`` module are named, from every import in the module --
    module-level and inside function bodies alike.  RNG001 and the
    project graph's seed sites read the same table."""

    def __init__(self, module: ModuleSource) -> None:
        self.numpy: Set[str] = set()
        self.numpy_random: Set[str] = set()
        self.default_rng: Set[str] = set()
        self.stdlib_random: Set[str] = set()
        for node in module.nodes(ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name == "random":
                    self.stdlib_random.add(bound)
                elif alias.name == "numpy":
                    self.numpy.add(bound)
                elif alias.name == "numpy.random":
                    if alias.asname is not None:
                        self.numpy_random.add(alias.asname)
                    else:
                        self.numpy.add(bound)
        for imported in module.nodes(ast.ImportFrom):
            if imported.module == "numpy":
                for alias in imported.names:
                    if alias.name == "random":
                        self.numpy_random.add(alias.asname or alias.name)
            elif imported.module == "numpy.random":
                for alias in imported.names:
                    if alias.name == "default_rng":
                        self.default_rng.add(alias.asname or alias.name)

    def is_numpy_random(self, node: ast.expr) -> bool:
        """Whether an expression denotes the ``numpy.random`` module."""
        if isinstance(node, ast.Name):
            return node.id in self.numpy_random
        if isinstance(node, ast.Attribute) and node.attr == "random":
            return isinstance(node.value, ast.Name) and node.value.id in self.numpy
        return False

    def is_default_rng(self, func: ast.expr) -> bool:
        """Whether a call target denotes ``numpy.random.default_rng``."""
        if isinstance(func, ast.Name):
            return func.id in self.default_rng
        if isinstance(func, ast.Attribute) and func.attr == "default_rng":
            return self.is_numpy_random(func.value)
        return False


class LintRule:
    """Base class: one stable rule ID plus an AST check.

    Subclasses set :attr:`rule_id` / :attr:`summary` and implement
    :meth:`check`, yielding :class:`~repro.lint.findings.Finding`
    records (noqa filtering happens in the runner, so rules stay pure).
    A check reads the module's node index (:meth:`ModuleSource.nodes`,
    :meth:`ModuleSource.functions`) rather than walking the tree.
    """

    rule_id: ClassVar[str] = "XXX000"
    summary: ClassVar[str] = ""

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: ModuleSource, node: ast.AST, message: str
    ) -> Finding:
        """A finding of this rule anchored at ``node``."""
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.rule_id,
            message=message,
        )


def call_endpoint(func: ast.expr) -> Optional[str]:
    """The terminal name of a call target: ``a.b.c(...)`` -> ``"c"``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` rendered as a string, or ``None`` for non-name chains."""
    parts: List[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))
