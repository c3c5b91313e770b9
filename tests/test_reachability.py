"""Every public top-level def, class and method in ``src/fflab`` is reached
from a command.

Reachability is by name.  The roots are ``main`` itself, the one entry point,
and the names that ``cli.main`` mentions.  A top-level statement of the
package is reached when a reached statement mentions the name it defines, as a
bare name or as an attribute; module-level assignments count as statements, so
a dispatch table such as ``cli.SUITES`` carries its entries.  A top-level
function that more than one module defines is told apart by module: a bare
name means the one in its own module or the one a ``from .m import`` brings
in, and ``alias.name`` the one in the module that ``alias`` imports; any other
mention of it means every module's.  A method is reached when its class is
reached and reached code mentions the method's name as an attribute or a bare
name; dunder methods come with their class, and a class statement's own
mentions leave out its method bodies.  Imports mention nothing.  Matching by
name can only over-approximate, so this check may miss dead code but never
flags code that a command uses.

Every exception class of the package is also named by some ``except`` clause
of the package: ``cli.main`` turns any ``FFLabError`` into exit 2, so a
subclass earns its place only where code tells it apart.
"""

import ast
from collections import Counter
from dataclasses import dataclass, field as dc_field

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)

# Public definitions kept although no command reaches them, with the reason.
# Each one is also followed as a root, so what it uses is kept with it.
# (surfaces also keeps an unused import of fourier_inverse for the benchmark's
# tracer; imports are not definitions, so test_imports.py allows it instead.)
ALLOWED_UNREACHED = {
    "certificates.NormCertificate.from_dict": (
        "round-trip check that a certificate reparses bit-exactly, in the restriction tests"
    ),
    "kakeya.verify_lower": "the benchmark tracer wraps it by name",
    "kakeya.recheck_lower": "the benchmark tracer wraps it by name",
    "kakeya.incidence_chain_counts": "the benchmark tracer wraps it by name until phase spans land",
    "kakeya.slope_projections": "the benchmark tracer wraps it by name until phase spans land",
    "surfaces.restriction": "the benchmark tracer wraps it by name until phase spans land",
    "kakeya.incidence_to_kakeya_exponents": "the exponent calculus of acceptance criterion 13",
    "grid.index_point": "reference decoder of the transform tests",
    "grid.point_index": "scalar oracle of flat_points in the grid, surface and acceptance tests",
    "surfaces.surface_inner": "adjoint oracle of the surface tests",
    "field.Field.im_part": "scalar reference for im_arrays in the field and Heisenberg tests",
    "field.Field.dot": "scalar reference for dot_arrays in the field, grid and surface tests",
    "kakeya.line_sum_grid": "one-row reference of the line-sum tests; the tracer wraps it by name",
}


@dataclass
class Scope:
    """What a mention in one module means.

    ``shared`` holds the top-level function names that more than one module
    defines, ``defines`` this module's top-level function names, ``modules``
    its package imports ``alias -> module`` and ``names`` its package imports
    ``name -> "module.name"``.  The empty scope matches by bare name only.
    """

    module: str = ""
    shared: frozenset = frozenset()
    defines: frozenset = frozenset()
    modules: dict = dc_field(default_factory=dict)
    names: dict = dc_field(default_factory=dict)

    def key(self, sub: ast.AST) -> str | None:
        """The name a node mentions, as ``module.name`` when it is shared and
        the node says which module's it is."""
        if isinstance(sub, ast.Name):
            if sub.id in self.shared and sub.id in self.defines:
                return f"{self.module}.{sub.id}"
            imported = self.names.get(sub.id, "")
            return imported if imported.rsplit(".", 1)[-1] in self.shared else sub.id
        if isinstance(sub, ast.Attribute):
            module = self.modules.get(getattr(sub.value, "id", None))
            return f"{module}.{sub.attr}" if module and sub.attr in self.shared else sub.attr
        return None


BY_NAME = Scope()


def _mentions(*nodes: ast.AST, scope: Scope = BY_NAME) -> set[str]:
    return {key for node in nodes for sub in ast.walk(node) if (key := scope.key(sub))}


def _own_mentions(stmt: ast.stmt, scope: Scope) -> set[str]:
    """Names a statement mentions; a class leaves out its method bodies."""
    if not isinstance(stmt, ast.ClassDef):
        return _mentions(stmt, scope=scope)
    rest = [s for s in stmt.body if not isinstance(s, FUNCTIONS)]
    return _mentions(*stmt.decorator_list, *stmt.bases, *stmt.keywords, *rest, scope=scope)


def scopes(sources: dict[str, str]) -> dict[str, Scope]:
    """Each module's scope; a function defined in two modules is shared."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defines = {
        module: frozenset(s.name for s in tree.body if isinstance(s, FUNCTIONS))
        for module, tree in trees.items()
    }
    counts = Counter(name for names in defines.values() for name in names)
    shared = frozenset(name for name, count in counts.items() if count > 1)
    out = {}
    for module, tree in trees.items():
        modules, names = {}, {}
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:
                    local = alias.asname or alias.name
                    if stmt.module is None:
                        modules[local] = alias.name
                    else:
                        names[local] = f"{stmt.module}.{alias.name}"
        out[module] = Scope(module, shared, defines[module], modules, names)
    return out


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, DEFINITIONS):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    )
    return [t.id for t in targets if isinstance(t, ast.Name)]


def root_names(sources: dict[str, str]) -> set[str]:
    """``main`` itself and the names ``cli.main`` mentions."""
    tree = ast.parse(sources["cli"])
    (main,) = [s for s in tree.body if isinstance(s, ast.FunctionDef) and s.name == "main"]
    return _mentions(main, scope=scopes(sources)["cli"]) | {"main"}


def unreached(sources: dict[str, str], roots: set[str], allowed) -> list[str]:
    """Public top-level defs, classes and methods reached neither from roots nor
    from allowed."""
    Entry = tuple[str, ast.stmt, Scope]
    statements: dict[str, list[Entry]] = {}
    methods: dict[str, list[Entry]] = {}  # class qual -> its methods
    by_method_name: dict[str, list[tuple[str, Entry]]] = {}
    public = []
    for module, scope in scopes(sources).items():
        for stmt in ast.parse(sources[module]).body:
            for name in _defined_names(stmt):
                qual = f"{module}.{name}"
                statements.setdefault(name, []).append((qual, stmt, scope))
                if isinstance(stmt, DEFINITIONS) and not name.startswith("_"):
                    public.append(qual)
                if not isinstance(stmt, ast.ClassDef):
                    continue
                for meth in stmt.body:
                    if isinstance(meth, FUNCTIONS):
                        entry = (f"{qual}.{meth.name}", meth, scope)
                        methods.setdefault(qual, []).append(entry)
                        by_method_name.setdefault(meth.name, []).append((qual, entry))
                        if not meth.name.startswith("_"):
                            public.append(entry[0])
    # a top-level entry roots its own module's definition, a method entry its name
    pending = set(roots) | {q if q.count(".") == 1 else q.rsplit(".", 1)[1] for q in allowed}
    seen: set[str] = set()
    seen_names: set[str] = set()  # the bare names of seen, for methods
    reached: set[str] = set()

    def reach(qual: str, stmt: ast.stmt, scope: Scope) -> None:
        if qual not in reached:
            reached.add(qual)
            pending.update(_own_mentions(stmt, scope) - seen)

    while pending:
        key = pending.pop()
        name = key.rsplit(".", 1)[-1]
        seen.add(key)
        seen_names.add(name)
        for qual, stmt, scope in statements.get(name, []):
            if key not in (name, qual):
                continue
            reach(qual, stmt, scope)
            for mqual, meth, _ in methods.get(qual, []):
                dunder = meth.name.startswith("__") and meth.name.endswith("__")
                if dunder or meth.name in seen_names:
                    reach(mqual, meth, scope)
        for cls, entry in by_method_name.get(name, []):
            if cls in reached:
                reach(*entry)
    return sorted(q for q in public if q not in reached and q not in allowed)


def test_every_public_definition_is_reached(sources):
    assert unreached(sources, root_names(sources), ALLOWED_UNREACHED) == []


def test_allowlist_holds_only_unreached_definitions(sources):
    roots = root_names(sources)
    for qual in ALLOWED_UNREACHED:
        rest = {k: v for k, v in ALLOWED_UNREACHED.items() if k != qual}
        assert qual in unreached(sources, roots, rest), f"{qual} is reached; drop its entry"


def test_an_added_unreached_definition_fails(sources):
    roots = root_names(sources)
    sources["kakeya"] += "\n\ndef orphan_helper(field):\n    return field.order\n"
    sources["grid"] += "\n\nclass OrphanReport:\n    count: int = 0\n"
    anchor = "    def frobenius_arrays(self, a)"
    sources["field"] = sources["field"].replace(
        anchor, "    def orphan_method(self):\n        return self.order\n\n" + anchor, 1
    )
    assert unreached(sources, roots, ALLOWED_UNREACHED) == [
        "field.Field.orphan_method", "grid.OrphanReport", "kakeya.orphan_helper",
    ]
    # once a command mentions it, it is reached
    sources["cli"] = sources["cli"].replace(
        "    parser = build_parser()\n",
        "    parser = build_parser()\n    orphan_helper\n    parser.orphan_method\n",
        1,
    )
    assert unreached(sources, root_names(sources), ALLOWED_UNREACHED) == ["grid.OrphanReport"]


def test_a_same_named_orphan_in_a_second_module_fails(sources):
    # kakeya.verify_lowers is reached as kk.verify_lowers; a namesake elsewhere is not
    sources["restriction"] += (
        "\n\ndef verify_lowers(certs):\n    return [verify_lower(c) for c in certs]\n"
    )
    roots = root_names(sources)
    assert unreached(sources, roots, ALLOWED_UNREACHED) == ["restriction.verify_lowers"]
    # a from-import makes a bare name in cli mean restriction's
    for anchor, added in (
        ("from .reports import", "from .restriction import verify_lowers\n"),
        ("    parser = build_parser()\n", "    verify_lowers\n"),
    ):
        sources["cli"] = sources["cli"].replace(anchor, added + anchor, 1)
    assert unreached(sources, root_names(sources), ALLOWED_UNREACHED) == []


def uncaught_exceptions(sources: dict[str, str]) -> list[str]:
    """Exception classes of the package that no ``except`` clause names.

    A class is an exception class when one of its bases is ``Exception``,
    ``BaseException`` or another exception class of the package.  A refusal
    that nothing tells apart from ``FFLabError`` needs no class of its own.
    """
    bases: dict[str, tuple[str, set[str]]] = {}
    caught: set[str] = set()
    for module, text in sources.items():
        tree = ast.parse(text)
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                bases[stmt.name] = (f"{module}.{stmt.name}", _mentions(*stmt.bases))
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= _mentions(node.type)
    errors = {"Exception", "BaseException"}
    while grown := {name for name, (_, b) in bases.items() if b & errors} - errors:
        errors |= grown
    return sorted(bases[name][0] for name in errors & set(bases) if name not in caught)


def test_every_exception_class_is_caught(sources):
    assert uncaught_exceptions(sources) == []


def test_an_added_uncaught_exception_fails(sources):
    sources["errors"] += "\n\nclass OrphanError(FFLabError):\n    pass\n"
    sources["kakeya"] += "\n\ndef _orphan(n):\n    raise OrphanError(f'n = {n}')\n"
    assert uncaught_exceptions(sources) == ["errors.OrphanError"]
    # once an except clause names it, it is told apart, so it may stay
    sources["cli"] = sources["cli"].replace(
        "except NoClosedFormError:",
        "except (NoClosedFormError, OrphanError):",
        1,
    )
    assert uncaught_exceptions(sources) == []
