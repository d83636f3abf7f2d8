"""Project graph: symbol tables, imports, and a summary call graph.

:class:`ProjectGraph` indexes the parsed modules of one package and
builds the three structures the whole-program rules query:

* a **symbol table** per module -- what each local name means: an
  imported module, an imported symbol, a top-level function, or a class;
* an **import graph** -- which analyzed module each import resolves to;
* a **call graph** with intraprocedural summaries -- for every function
  and method, one :class:`FunctionInfo` carrying its resolved call
  sites plus the local facts the rules need (RNG constructions,
  generator draws, parameter mutations, cache-array taint, pool
  dispatches), so the interprocedural passes never re-walk an AST.

It also owns the tables those facts are recognised by: the one list of
``Generator`` draw methods, the generator constructors, and the pool
dispatch shapes.

Method calls resolve through a deliberately simple type discipline:
``self`` binds to the enclosing class; locals annotated with or
assigned from a project class constructor bind to that class;
``self.attr`` binds through assignments in the class body.  Unresolved
receivers fall back to by-name matching when exactly one project class
defines the method -- an over-approximation that suits reachability
analyses (better a spurious edge than a silently missing one).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.base import AnyFunctionDef, ModuleSource, call_endpoint, dotted_name
from repro.lint.findings import Finding
from repro.lint.rules.mutation import (
    CACHE_ACCESSOR_METHODS,
    CACHE_ATTRIBUTES,
    INPLACE_METHODS,
    enables_write,
)

#: Attribute names conventionally bound to ``numpy.random.Generator``s.
GENERATOR_ATTRS: FrozenSet[str] = frozenset(
    {"rng", "_rng", "generator", "_generator"}
)

#: ``Generator`` methods that consume the stream (``spawn`` included:
#: it advances the seed sequence a child stream is derived from).
DRAW_METHODS: FrozenSet[str] = frozenset(
    {
        "beta",
        "binomial",
        "bytes",
        "chisquare",
        "choice",
        "dirichlet",
        "exponential",
        "f",
        "gamma",
        "geometric",
        "gumbel",
        "hypergeometric",
        "integers",
        "laplace",
        "logistic",
        "lognormal",
        "multinomial",
        "multivariate_hypergeometric",
        "multivariate_normal",
        "negative_binomial",
        "noncentral_chisquare",
        "noncentral_f",
        "normal",
        "pareto",
        "permutation",
        "permuted",
        "poisson",
        "power",
        "random",
        "rayleigh",
        "shuffle",
        "spawn",
        "standard_cauchy",
        "standard_exponential",
        "standard_gamma",
        "standard_normal",
        "standard_t",
        "triangular",
        "uniform",
        "vonmises",
        "wald",
        "weibull",
        "zipf",
    }
)

#: Call endpoints that construct a generator.
GENERATOR_CONSTRUCTORS: FrozenSet[str] = frozenset(
    {"default_rng", "Generator", "RandomState"}
)

#: Constructor endpoints whose module-level result taints a global.
TAINTING_GLOBAL_CALLS: FrozenSet[str] = frozenset(
    {"Instrumentation", "get_instrumentation", "default_rng", "RandomState"}
)

#: ``multiprocessing.Pool`` methods that dispatch a worker function.
POOL_DISPATCH_METHODS: FrozenSet[str] = frozenset(
    {
        "map",
        "map_async",
        "imap",
        "imap_unordered",
        "starmap",
        "starmap_async",
        "apply",
        "apply_async",
    }
)

#: The :class:`repro.parallel.ForkPool` constructor, by call endpoint.
FORK_POOL = "ForkPool"


def _is_fork_pool_call(node: Optional[ast.AST]) -> bool:
    return isinstance(node, ast.Call) and call_endpoint(node.func) == FORK_POOL


def fork_pool_names(module: ModuleSource) -> FrozenSet[str]:
    """Dotted names bound from ``ForkPool(...)`` anywhere in ``module``
    (assignment or ``with ... as``; scopes are not told apart)."""
    targets: List[ast.expr] = []
    for node in module.nodes(ast.Assign, ast.AnnAssign, ast.withitem):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
            _is_fork_pool_call(node.value)
        ):
            targets.extend(
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
        elif (
            isinstance(node, ast.withitem)
            and node.optional_vars is not None
            and _is_fork_pool_call(node.context_expr)
        ):
            targets.append(node.optional_vars)
    names = (dotted_name(target) for target in targets)
    return frozenset(name for name in names if name is not None)


def pool_dispatch(
    node: ast.Call, fork_pools: FrozenSet[str]
) -> Optional[str]:
    """How ``node`` dispatches a worker: ``"fork"``, ``"pool"`` or ``None``.

    ``"fork"`` is a :class:`~repro.parallel.ForkPool` dispatch (the
    receiver is a ``ForkPool(...)`` call or a name in ``fork_pools``);
    ``"pool"`` is any other pool dispatch method on a receiver whose
    name contains "pool".
    """
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr not in POOL_DISPATCH_METHODS:
        return None
    if _is_fork_pool_call(func.value):
        return "fork"
    receiver = dotted_name(func.value)
    if receiver is None:
        return None
    if receiver in fork_pools:
        return "fork"
    return "pool" if "pool" in receiver.lower() else None


# ----------------------------------------------------------------------
# Per-function facts
# ----------------------------------------------------------------------
@dataclass
class CallSite:
    """One resolved (or unresolved) call inside a function body."""

    node: ast.Call
    caller: str
    #: Qualified name of the target when it resolves inside the project.
    callee: Optional[str]
    #: Positional offset of the callee's parameter list relative to the
    #: written arguments (1 for bound-method calls, else 0).
    param_offset: int = 0


@dataclass
class RngSite:
    """A ``numpy.random.default_rng`` construction."""

    node: ast.Call
    #: ``"unseeded"`` | ``"constant"`` | ``"param"`` |
    #: ``"param_none_default"`` | ``"other"``
    kind: str
    #: Parameter feeding the seed, for the ``param*`` kinds.
    param: Optional[str] = None


@dataclass
class DrawSite:
    """A ``Generator`` draw, with its receiver's attribute chain."""

    node: ast.Call
    method: str
    #: Receiver rendered as a name chain, e.g. ``("self", "_network",
    #: "rng")``; local aliases of attribute chains are expanded.
    chain: Tuple[str, ...]


@dataclass
class Mutation:
    """An in-place write whose base is a plain name or ``self.attr``."""

    node: ast.AST
    #: ``"subscript"`` | ``"augassign"`` | ``"inplace"`` | ``"setflags"``
    #: | ``"out="``
    kind: str
    #: The mutated base: a parameter/local name, or ``("self", attr)``.
    base: Tuple[str, ...]


@dataclass
class TaintedArg:
    """A cache-aliased array passed to a callee."""

    site: CallSite
    #: Position in the *written* argument list, or the keyword name.
    position: Optional[int]
    keyword: Optional[str]
    #: Human-readable origin, e.g. ``"evolution()"``.
    origin: str


@dataclass
class PoolDispatch:
    """A ``pool.map(worker, ...)``-style dispatch site."""

    node: ast.Call
    caller: str
    #: The worker argument expression.
    worker: ast.expr
    #: Resolved worker qualified name, when it is a project function.
    worker_qname: Optional[str]
    #: Resolved ``initializer=`` qualified name, when present.
    initializer_qname: Optional[str] = None
    #: A ``ForkPool`` dispatch: the primitive runs the worker under a
    #: fresh observability backend.
    fresh_backend: bool = False


@dataclass
class FunctionInfo:
    """One function or method, with its intraprocedural summary."""

    qname: str
    module: str
    node: AnyFunctionDef
    class_name: Optional[str]
    #: Parameter names in binding order (including ``self``).
    params: List[str]
    #: Parameters whose declared default is the literal ``None``.
    none_default_params: FrozenSet[str]
    calls: List[CallSite] = field(default_factory=list)
    rng_sites: List[RngSite] = field(default_factory=list)
    #: Calls constructing a generator (``GENERATOR_CONSTRUCTORS``).
    generator_constructions: List[ast.Call] = field(default_factory=list)
    draw_sites: List[DrawSite] = field(default_factory=list)
    mutations: List[Mutation] = field(default_factory=list)
    tainted_args: List[TaintedArg] = field(default_factory=list)
    #: ``self.attr = <cache-aliased expr>`` stores: attr -> store node.
    tainted_attr_stores: Dict[str, ast.AST] = field(default_factory=dict)
    pool_dispatches: List[PoolDispatch] = field(default_factory=list)
    get_instrumentation_calls: List[ast.Call] = field(default_factory=list)
    installs_fresh_instrumentation: bool = False
    #: Module-global reads resolved to ``(module, name)`` pairs.
    global_reads: List[Tuple[ast.Name, str, str]] = field(default_factory=list)


@dataclass
class ClassInfo:
    """One class: its methods and single project base, if any."""

    qname: str
    module: str
    node: ast.ClassDef
    methods: Dict[str, str] = field(default_factory=dict)
    base_qname: Optional[str] = None


@dataclass
class ModuleInfo:
    """One parsed module plus its symbol table."""

    name: str
    path: str
    source: ModuleSource
    #: Local name -> fully qualified target (module or symbol).
    symbols: Dict[str, str] = field(default_factory=dict)
    #: Module-level names bound to RNG/instrumentation state -> reason.
    tainted_globals: Dict[str, str] = field(default_factory=dict)
    #: Dotted names bound from ``ForkPool(...)`` anywhere in the module.
    fork_pools: FrozenSet[str] = frozenset()


# ----------------------------------------------------------------------
# The graph
# ----------------------------------------------------------------------
class ProjectGraph:
    """Symbol tables, import graph, and call graph over one package."""

    def __init__(self, root: Path, package: str) -> None:
        self.root = root
        self.package = package
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: callee qname -> call sites targeting it.
        self.callers: Dict[str, List[CallSite]] = {}
        #: method name -> classes defining it (for unique-name fallback).
        self._method_index: Dict[str, List[str]] = {}
        #: class qname -> its self attribute types, shared by its methods.
        self._attr_types: Dict[str, Dict[str, str]] = {}

    # -- construction --------------------------------------------------
    @classmethod
    def build(cls, root: Path, modules: Iterable[ModuleSource]) -> "ProjectGraph":
        """Build every table for the package at ``root`` (a directory
        containing ``__init__.py``) from its already-parsed ``modules``."""
        graph = cls(root, root.name)
        graph._index_modules(modules)
        graph._index_definitions()
        graph._summarise_functions()
        return graph

    def _module_name(self, path: Path) -> str:
        relative = path.relative_to(self.root).with_suffix("")
        parts = [self.package] + list(relative.parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    def _index_modules(self, modules: Iterable[ModuleSource]) -> None:
        for source in sorted(modules, key=lambda module: Path(module.path)):
            if source.tree is None:
                continue  # reported as SYN001 by the per-file rules
            module = ModuleInfo(
                name=self._module_name(Path(source.path)),
                path=source.path,
                source=source,
                fork_pools=fork_pool_names(source),
            )
            self._build_symbol_table(module)
            self.modules[module.name] = module

    # -- symbol tables -------------------------------------------------
    def _build_symbol_table(self, module: ModuleInfo) -> None:
        tree = module.source.tree
        assert tree is not None
        for statement in tree.body:
            if isinstance(statement, ast.Import):
                self._index_import(module, statement)
            elif isinstance(statement, ast.ImportFrom):
                self._index_import_from(module, statement)
            elif isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                module.symbols[statement.name] = (
                    f"{module.name}.{statement.name}"
                )
            elif isinstance(statement, ast.ClassDef):
                module.symbols[statement.name] = (
                    f"{module.name}.{statement.name}"
                )
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                self._index_global(module, statement)
        # Guarded imports (``if TYPE_CHECKING:``) still name symbols.
        for statement in tree.body:
            if isinstance(statement, ast.If):
                for inner in statement.body:
                    if isinstance(inner, ast.Import):
                        self._index_import(module, inner)
                    elif isinstance(inner, ast.ImportFrom):
                        self._index_import_from(module, inner)

    def _index_import(self, module: ModuleInfo, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            module.symbols[bound] = target

    def _resolve_import_module(
        self, module: ModuleInfo, node: ast.ImportFrom
    ) -> Optional[str]:
        if node.level == 0:
            return node.module
        # Relative import: resolve against this module's package.
        parts = module.name.split(".")
        # ``level`` strips the module itself plus (level - 1) packages.
        base = parts[: len(parts) - node.level]
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base) if base else None

    def _index_import_from(
        self, module: ModuleInfo, node: ast.ImportFrom
    ) -> None:
        origin = self._resolve_import_module(module, node)
        if origin is None:
            return
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name
            module.symbols[bound] = f"{origin}.{alias.name}"

    def _index_global(self, module: ModuleInfo, statement: ast.stmt) -> None:
        if isinstance(statement, ast.Assign):
            targets = statement.targets
            value: Optional[ast.expr] = statement.value
        else:
            assert isinstance(statement, ast.AnnAssign)
            targets = [statement.target]
            value = statement.value
        if isinstance(value, ast.Call):
            endpoint = call_endpoint(value.func)
            if endpoint in TAINTING_GLOBAL_CALLS:
                for target in targets:
                    if isinstance(target, ast.Name):
                        module.tainted_globals[target.id] = (
                            f"assigned from {endpoint}()"
                        )

    # -- definitions ---------------------------------------------------
    def _index_definitions(self) -> None:
        """Register every module-level function, class and method.

        Every signature is in place before any summary runs, so call
        resolution sees targets in any module -- a caller is routinely
        parsed before its callee's module.
        """
        for module in self.modules.values():
            tree = module.source.tree
            assert tree is not None
            for statement in tree.body:
                if isinstance(
                    statement, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    self._register_one(module, statement, None)
                elif isinstance(statement, ast.ClassDef):
                    self._index_class(module, statement)
        for info in self.classes.values():
            for method in info.methods:
                self._method_index.setdefault(method, []).append(info.qname)

    def _index_class(self, module: ModuleInfo, statement: ast.ClassDef) -> None:
        qname = f"{module.name}.{statement.name}"
        info = ClassInfo(qname=qname, module=module.name, node=statement)
        for base in statement.bases:
            resolved = self._resolve_symbol_expr(module, base)
            if resolved is not None and self._is_project_name(resolved):
                info.base_qname = resolved
                break
        for item in statement.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = self._register_one(module, item, statement.name)
                info.methods[item.name] = method.qname
        self.classes[qname] = info

    def _is_project_name(self, qname: str) -> bool:
        return qname == self.package or qname.startswith(self.package + ".")

    def _resolve_symbol_expr(
        self, module: ModuleInfo, node: ast.expr
    ) -> Optional[str]:
        """A name or dotted expression resolved through the symbol table."""
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        target = module.symbols.get(head)
        if target is None:
            # A name defined in this module but not yet indexed
            # (e.g. referenced before definition) stays unresolved.
            return None
        return f"{target}.{rest}" if rest else target

    # -- function summaries --------------------------------------------
    def _summarise_functions(self) -> None:
        for info in self.functions.values():
            _SummaryVisitor(self, self.modules[info.module], info).run()
            for site in info.calls:
                if site.callee is not None:
                    self.callers.setdefault(site.callee, []).append(site)

    def _register_one(
        self,
        module: ModuleInfo,
        node: AnyFunctionDef,
        class_name: Optional[str],
    ) -> FunctionInfo:
        prefix = (
            f"{module.name}.{class_name}." if class_name else f"{module.name}."
        )
        qname = prefix + node.name
        args = node.args
        params = [
            argument.arg
            for argument in args.posonlyargs + args.args + args.kwonlyargs
        ]
        none_defaults: Set[str] = set()
        positional = args.posonlyargs + args.args
        for argument, default in zip(
            positional[len(positional) - len(args.defaults):], args.defaults
        ):
            if isinstance(default, ast.Constant) and default.value is None:
                none_defaults.add(argument.arg)
        for argument, kw_default in zip(args.kwonlyargs, args.kw_defaults):
            if (
                isinstance(kw_default, ast.Constant)
                and kw_default.value is None
            ):
                none_defaults.add(argument.arg)
        info = FunctionInfo(
            qname=qname,
            module=module.name,
            node=node,
            class_name=class_name,
            params=params,
            none_default_params=frozenset(none_defaults),
        )
        self.functions[qname] = info
        return info

    # -- queries -------------------------------------------------------
    def resolve_call(
        self,
        module: ModuleInfo,
        info: FunctionInfo,
        node: ast.Call,
        local_types: Dict[str, str],
        attr_types: Dict[str, str],
    ) -> Tuple[Optional[str], int]:
        """``(callee qname, param offset)`` for one call expression."""
        func = node.func
        if isinstance(func, ast.Name):
            resolved = self._resolve_symbol_expr(module, func)
            if resolved is None:
                return None, 0
            return self._as_callable(resolved), 0
        if not isinstance(func, ast.Attribute):
            return None, 0
        receiver = func.value
        method = func.attr
        # self.method() -> own class (walking single project bases).
        if (
            isinstance(receiver, ast.Name)
            and receiver.id == "self"
            and info.class_name is not None
        ):
            target = self._lookup_method(
                f"{module.name}.{info.class_name}", method
            )
            if target is not None:
                return target, 1
        # module.func() through an imported module alias; a direct hit
        # is a module-level function or ``Class.method``.
        resolved = self._resolve_symbol_expr(module, func)
        if resolved is not None and self._is_project_name(resolved):
            callable_q = self._as_callable(resolved)
            if callable_q is not None and callable_q in self.functions:
                return callable_q, 0
        # instance.method() through a locally typed receiver.
        receiver_type: Optional[str] = None
        if isinstance(receiver, ast.Name):
            receiver_type = local_types.get(receiver.id)
        elif (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == "self"
        ):
            receiver_type = attr_types.get(receiver.attr)
        if receiver_type is not None:
            target = self._lookup_method(receiver_type, method)
            if target is not None:
                return target, 1
        # Fallback: the method name is defined by exactly one class.
        owners = self._method_index.get(method, [])
        if len(owners) == 1:
            return self.classes[owners[0]].methods[method], 1
        return None, 0

    def _lookup_method(self, owner: Optional[str], method: str) -> Optional[str]:
        """``method`` on the class ``owner``, or on its project bases."""
        while owner is not None:
            cls = self.classes.get(owner)
            if cls is None:
                return None
            target = cls.methods.get(method)
            if target is not None:
                return target
            owner = cls.base_qname
        return None

    def _as_callable(self, qname: str) -> Optional[str]:
        """Map a resolved symbol to a function: itself or ``__init__``."""
        if qname in self.functions:
            return qname
        cls = self.classes.get(qname)
        if cls is not None:
            init = cls.methods.get("__init__")
            if init is not None:
                return init
            if cls.base_qname is not None:
                return self._as_callable(cls.base_qname)
            return None
        return qname if self._is_project_name(qname) else None

    def reachable(self, roots: Sequence[str]) -> Set[str]:
        """Function qnames transitively callable from ``roots``."""
        seen: Set[str] = set()
        frontier = [root for root in roots if root in self.functions]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            info = self.functions.get(current)
            if info is None:
                continue
            for site in info.calls:
                if site.callee is not None and site.callee not in seen:
                    frontier.append(site.callee)
        return seen

    def entry_points(self) -> List[str]:
        """CLI entry functions: everything defined in a ``cli`` module."""
        roots: List[str] = []
        for qname, info in self.functions.items():
            if info.module.rsplit(".", 1)[-1] == "cli":
                roots.append(qname)
        return sorted(roots)

    def iter_functions(self) -> Iterator[FunctionInfo]:
        for qname in sorted(self.functions):
            yield self.functions[qname]

    def module_of(self, info: FunctionInfo) -> ModuleInfo:
        return self.modules[info.module]

    def finding(
        self, info: FunctionInfo, node: ast.AST, rule: str, message: str
    ) -> Finding:
        """A ``rule`` finding at ``node``, inside the function ``info``."""
        return Finding(
            path=self.module_of(info).path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=rule,
            message=message,
            symbol=info.qname,
        )


# ----------------------------------------------------------------------
# The intraprocedural summary pass
# ----------------------------------------------------------------------
class _SummaryVisitor:
    """One linear pass over a function body, filling a FunctionInfo."""

    def __init__(
        self, graph: ProjectGraph, module: ModuleInfo, info: FunctionInfo
    ) -> None:
        self.graph = graph
        self.module = module
        self.info = info
        #: local name -> project class qname (constructor/annotation).
        self.local_types: Dict[str, str] = {}
        #: self attribute name -> project class qname.
        self.attr_types: Dict[str, str] = {}
        #: local name -> attribute chain it aliases.
        self.chain_aliases: Dict[str, Tuple[str, ...]] = {}
        #: cache-aliased locals -> origin description.
        self.tainted_locals: Dict[str, str] = {}
        self.local_names: Set[str] = set(info.params)

    def run(self) -> None:
        self._seed_types_from_annotations()
        if self.info.class_name is not None:
            qname = f"{self.module.name}.{self.info.class_name}"
            if qname not in self.graph._attr_types:
                self.graph._attr_types[qname] = self._class_attr_types(qname)
            self.attr_types = self.graph._attr_types[qname]
        for name in self.module.source.nodes(ast.Name, within=self.info.node):
            if isinstance(name.ctx, ast.Store):
                self.local_names.add(name.id)
        for statement in self.info.node.body:
            self._visit(statement)

    # -- typing seeds --------------------------------------------------
    def _annotation_class(self, node: Optional[ast.expr]) -> Optional[str]:
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.Subscript):  # Optional[X] / "X" in brackets
            node = node.slice
        resolved = self.graph._resolve_symbol_expr(self.module, node)
        if resolved is not None and resolved in self.graph.classes:
            return resolved
        # A bare class name annotated in its own defining module.
        if isinstance(node, ast.Name):
            own = f"{self.module.name}.{node.id}"
            if own in self.graph.classes:
                return own
        return None

    def _seed_types_from_annotations(self) -> None:
        args = self.info.node.args
        for argument in args.posonlyargs + args.args + args.kwonlyargs:
            annotated = self._annotation_class(argument.annotation)
            if annotated is not None:
                self.local_types[argument.arg] = annotated

    def _class_attr_types(self, qname: str) -> Dict[str, str]:
        attr_types: Dict[str, str] = {}
        cls = self.graph.classes.get(qname)
        if cls is None:
            return attr_types
        for item in cls.node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                annotated = self._annotation_class(item.annotation)
                if annotated is not None:
                    attr_types[item.target.id] = annotated
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in self.module.source.nodes(ast.Assign, within=item):
                for target in inner.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and isinstance(inner.value, ast.Call)
                    ):
                        constructed = self.graph._resolve_symbol_expr(
                            self.module, inner.value.func
                        )
                        if (
                            constructed is not None
                            and constructed in self.graph.classes
                        ):
                            attr_types[target.attr] = constructed
        return attr_types

    # -- traversal -----------------------------------------------------
    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # nested scopes get their own pass / are opaque
        if isinstance(node, ast.Assign):
            self._visit_assign(node)
        elif isinstance(node, ast.AnnAssign):
            self._visit_annassign(node)
        elif isinstance(node, ast.AugAssign):
            self._visit_augassign(node)
        elif isinstance(node, ast.Call):
            self._visit_call(node)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            self._visit_name_load(node)
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    # -- assignments ---------------------------------------------------
    def _chain_of(self, node: ast.expr) -> Optional[Tuple[str, ...]]:
        dotted = dotted_name(node)
        if dotted is None:
            return None
        parts = tuple(dotted.split("."))
        head = parts[0]
        alias = self.chain_aliases.get(head)
        if alias is not None:
            return alias + parts[1:]
        return parts

    def _expr_taint(self, node: ast.expr) -> Optional[str]:
        """Origin description when ``node`` aliases a cache array."""
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            if node.func.attr in CACHE_ACCESSOR_METHODS:
                return f"{node.func.attr}()"
        if isinstance(node, ast.Attribute):
            if node.attr in CACHE_ATTRIBUTES:
                return f".{node.attr}"
        if isinstance(node, ast.Name):
            return self.tainted_locals.get(node.id)
        return None

    def _visit_assign(self, node: ast.Assign) -> None:
        self._flag_store_targets(node.targets)
        taint = self._expr_taint(node.value)
        chain = self._chain_of(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if taint is not None:
                    self.tainted_locals[target.id] = taint
                else:
                    self.tainted_locals.pop(target.id, None)
                if chain is not None and len(chain) > 1:
                    self.chain_aliases[target.id] = chain
                else:
                    self.chain_aliases.pop(target.id, None)
                if isinstance(node.value, ast.Call):
                    constructed = self.graph._resolve_symbol_expr(
                        self.module, node.value.func
                    )
                    if (
                        constructed is not None
                        and constructed in self.graph.classes
                    ):
                        self.local_types[target.id] = constructed
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and taint is not None
            ):
                self.info.tainted_attr_stores[target.attr] = target

    def _visit_annassign(self, node: ast.AnnAssign) -> None:
        if not isinstance(node.target, ast.Name):
            return
        annotated = self._annotation_class(node.annotation)
        if annotated is not None:
            self.local_types[node.target.id] = annotated
        if node.value is not None:
            taint = self._expr_taint(node.value)
            if taint is not None:
                self.tainted_locals[node.target.id] = taint

    def _mutation_base(self, node: ast.expr) -> Optional[Tuple[str, ...]]:
        if isinstance(node, ast.Name):
            return (node.id,)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return ("self", node.attr)
        return None

    def _flag_store_targets(self, targets: List[ast.expr]) -> None:
        for target in targets:
            if isinstance(target, ast.Subscript):
                base = self._mutation_base(target.value)
                if base is not None:
                    self.info.mutations.append(
                        Mutation(node=target, kind="subscript", base=base)
                    )

    def _visit_augassign(self, node: ast.AugAssign) -> None:
        target = node.target
        inner = target.value if isinstance(target, ast.Subscript) else target
        base = self._mutation_base(inner)
        if base is not None:
            self.info.mutations.append(
                Mutation(node=node, kind="augassign", base=base)
            )

    # -- calls ---------------------------------------------------------
    def _classify_rng_seed(self, node: ast.Call) -> RngSite:
        if not node.args and not node.keywords:
            return RngSite(node=node, kind="unseeded")
        seed: Optional[ast.expr] = node.args[0] if node.args else None
        if seed is None:
            for keyword in node.keywords:
                if keyword.arg == "seed":
                    seed = keyword.value
        if seed is None:
            return RngSite(node=node, kind="other")
        if isinstance(seed, ast.Constant):
            return RngSite(node=node, kind="constant")
        if isinstance(seed, (ast.List, ast.Tuple)) and all(
            isinstance(element, ast.Constant) for element in seed.elts
        ):
            return RngSite(node=node, kind="constant")
        if isinstance(seed, ast.Name) and seed.id in self.info.params:
            kind = (
                "param_none_default"
                if seed.id in self.info.none_default_params
                else "param"
            )
            return RngSite(node=node, kind=kind, param=seed.id)
        return RngSite(node=node, kind="other")

    def _keyword_qname(self, node: ast.Call, name: str) -> Optional[str]:
        for keyword in node.keywords:
            if keyword.arg == name and isinstance(keyword.value, ast.Name):
                resolved = self.graph._resolve_symbol_expr(
                    self.module, keyword.value
                )
                if resolved is not None:
                    return self.graph._as_callable(resolved)
        return None

    def _visit_call(self, node: ast.Call) -> None:
        func = node.func
        endpoint = call_endpoint(func)

        if self.module.source.import_aliases().is_default_rng(func):
            self.info.rng_sites.append(self._classify_rng_seed(node))
        if endpoint in GENERATOR_CONSTRUCTORS:
            self.info.generator_constructions.append(node)

        if endpoint == "get_instrumentation":
            self.info.get_instrumentation_calls.append(node)
        if endpoint == "use_instrumentation":
            self.info.installs_fresh_instrumentation = True

        if isinstance(func, ast.Attribute):
            # Generator draws, with alias-expanded receiver chains.
            if func.attr in DRAW_METHODS:
                chain = self._chain_of(func.value)
                if chain is not None:
                    self.info.draw_sites.append(
                        DrawSite(node=node, method=func.attr, chain=chain)
                    )
            # In-place mutations through a method or setflags.
            base = self._mutation_base(func.value)
            if base is not None:
                if func.attr in INPLACE_METHODS:
                    self.info.mutations.append(
                        Mutation(node=node, kind="inplace", base=base)
                    )
                elif func.attr == "setflags" and enables_write(node):
                    self.info.mutations.append(
                        Mutation(node=node, kind="setflags", base=base)
                    )
            # Pool dispatches.
            kind = pool_dispatch(node, self.module.fork_pools)
            if kind is not None and node.args:
                worker = node.args[0]
                worker_qname: Optional[str] = None
                if isinstance(worker, ast.Name):
                    resolved = self.graph._resolve_symbol_expr(
                        self.module, worker
                    )
                    if resolved is not None:
                        worker_qname = self.graph._as_callable(resolved)
                self.info.pool_dispatches.append(
                    PoolDispatch(
                        node=node,
                        caller=self.info.qname,
                        worker=worker,
                        worker_qname=worker_qname,
                        fresh_backend=kind == "fork",
                    )
                )
        if endpoint == "Pool":
            initializer = self._keyword_qname(node, "initializer")
            if initializer is not None:
                self.info.pool_dispatches.append(
                    PoolDispatch(
                        node=node,
                        caller=self.info.qname,
                        worker=node.func,
                        worker_qname=None,
                        initializer_qname=initializer,
                    )
                )

        # ``np.<func>(..., out=<base>)`` mutates its ``out`` argument.
        for keyword in node.keywords:
            if keyword.arg == "out":
                base = self._mutation_base(keyword.value)
                if base is not None:
                    self.info.mutations.append(
                        Mutation(node=node, kind="out=", base=base)
                    )

        callee, offset = self.graph.resolve_call(
            self.module, self.info, node, self.local_types, self.attr_types
        )
        site = CallSite(
            node=node,
            caller=self.info.qname,
            callee=callee,
            param_offset=offset,
        )
        self.info.calls.append(site)

        # Cache-aliased arguments handed to a callee.
        for position, argument in enumerate(node.args):
            origin = self._expr_taint(argument)
            if origin is not None:
                self.info.tainted_args.append(
                    TaintedArg(
                        site=site,
                        position=position,
                        keyword=None,
                        origin=origin,
                    )
                )
        for keyword in node.keywords:
            if keyword.arg is None:
                continue
            origin = self._expr_taint(keyword.value)
            if origin is not None:
                self.info.tainted_args.append(
                    TaintedArg(
                        site=site,
                        position=None,
                        keyword=keyword.arg,
                        origin=origin,
                    )
                )

    # -- global reads --------------------------------------------------
    def _visit_name_load(self, node: ast.Name) -> None:
        if node.id in self.local_names or node.id in ("self", "cls"):
            return
        if node.id in self.module.tainted_globals:
            self.info.global_reads.append(
                (node, self.module.name, node.id)
            )
            return
        resolved = self.module.symbols.get(node.id)
        if resolved is None or "." not in resolved:
            return
        origin_module, _, symbol = resolved.rpartition(".")
        origin = self.graph.modules.get(origin_module)
        if origin is not None and symbol in origin.tainted_globals:
            self.info.global_reads.append((node, origin_module, symbol))
