"""`src/jetcover` keeps only what a command, a checker, an export or the
benchmark reaches, and imports only what it uses.

The walk is by name over the AST of `src/jetcover/*.py`; nothing is
imported or edited.  Its roots are:

- `cli.main` and the checkers (`ROOTS` below);
- every name in `jetcover.__all__`;
- every package name the benchmark uses: the functions `SPANNED` and the
  classes of the methods `COUNTED` in `perfbench/tracing.py`, the classes
  whose members its observers read, and each `jc.<module>.<name>` in
  `perfbench/workloads.py`.

A definition reaches every top-level definition that a name or a
`module.name` in its node (decorators, defaults, annotations, quoted ones
too, and body) resolves to, through the module's imports, those inside
functions included, and through re-exports.  A class is reached whole.
Statements at module level other than definitions run on import, so
what they name is reached too.  An observer reads members of the values
it is handed; a member name that no package class defines belongs to a
builtin value (``denominator``, ``encode``) and roots nothing.

A finding names its `file:line`: a top-level definition that no root
reaches, an import its module never uses (`jetcover/__init__` re-exports
and ``from __future__`` are exempt), or a root name that resolves to
nothing.

Two more rules hold the module graph: the package's relative imports
form no cycle, and no import statement sits inside a function.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "jetcover"
TRACING = REPO / "perfbench" / "tracing.py"
WORKLOADS = REPO / "perfbench" / "workloads.py"

# the CLI's entry point and the checkers, as (module, name)
ROOTS = (
    ("cli", "main"),
    ("covering", "check_certificate"),
    ("jetcovering", "check_membership"),
    ("flatpoly", "certify_degree"),
    ("jetcovering", "verify_semiconjugacy"),
)


def _where(path: Path, line: int) -> str:
    return f"{path.relative_to(REPO)}:{line}"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _literal(tree: ast.Module, name: str):
    """The module-level `name = <literal>` of `tree`, as its node."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise LookupError(name)


def _named(path: Path, tree: ast.Module, name: str):
    """(tuple of strings, file:line) for each tuple in the literal `name`."""
    return [(ast.literal_eval(e), _where(path, e.lineno)) for e in _literal(tree, name).elts]


class Module:
    """One source file: its top-level definitions, what each import binds,
    and the statements at module level that are no definition."""

    def __init__(self, name: str, path: Path):
        self.name, self.path, self.tree = name, path, _parse(path)
        self.defs = {}  # name -> node
        self.imports = {}  # bound name -> (("module", m) | ("name", m, n) | ("outside",), line)
        self.runs = []  # statements run on import that define nothing
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.defs[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            self.defs[leaf.id] = node
            elif not isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            ):  # neither an import nor the docstring
                self.runs.append(node)
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                # from .m import n (or jetcover.m) binds a definition, from . import m a module
                dotted = node.module or ""
                inside = node.level == 1 or dotted.split(".")[0] == "jetcover"
                package = dotted if node.level == 1 else dotted[len("jetcover."):]
                for alias in node.names:
                    target = (("name", package, alias.name) if inside and package
                              else ("module", alias.name) if inside else ("outside",))
                    self.imports[alias.asname or alias.name] = (target, node.lineno)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    self.imports[bound] = (("outside",), node.lineno)


def load_package():
    return {path.stem: Module(path.stem, path) for path in sorted(PACKAGE.glob("*.py"))}


def resolve(modules, module: str, name: str, seen=()):
    """(module, name) of the top-level definition that `name`, as bound in
    `module`, is, through re-exports; None if it is none."""
    mod = modules.get(module)
    if mod is None or (module, name) in seen:
        return None
    if name in mod.defs:
        return module, name
    target, _ = mod.imports.get(name, (("outside",), 0))
    if target[0] == "name":
        return resolve(modules, target[1], target[2], seen + ((module, name),))
    return None


def _annotations(node):
    """The quoted annotations under `node`, parsed."""
    for sub in ast.walk(node):
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = sub.args
            notes = [a.annotation for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                            args.vararg, args.kwarg) if a is not None]
            notes.append(sub.returns)
        elif isinstance(sub, ast.AnnAssign):
            notes = [sub.annotation]
        else:
            continue
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                yield ast.parse(note.value, mode="eval")


def references(modules, mod: Module, node):
    """The top-level definitions that `node` names, as (module, name)."""
    found = set()
    for tree in (node, *_annotations(node)):
        for sub in ast.walk(tree):
            hit = None
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                hit = resolve(modules, mod.name, sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                target, _ = mod.imports.get(sub.value.id, (("outside",), 0))
                if target[0] == "module":
                    hit = resolve(modules, target[1], sub.attr)
            if hit is not None:
                found.add(hit)
    return found


def _members(node: ast.ClassDef):
    """The names a class defines for its instances: fields, methods,
    properties, `__slots__` and the attributes its methods set on self."""
    out = set()
    for sub in node.body:
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.add(sub.name)
        elif isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
            out.add(sub.target.id)
        elif isinstance(sub, ast.Assign):
            for target in sub.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    out.update(ast.literal_eval(sub.value))
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
            out.add(sub.attr)
    return out


def _resolved(modules, named):
    """The definitions that the roots in `named`, each a (module, name) or
    a (module, class, method) with its file:line, resolve to, and a finding
    per root that resolves to nothing."""
    roots, problems = set(), []
    for (module, name, *member), where in named:
        hit = resolve(modules, module, name)
        node = hit and modules[hit[0]].defs[hit[1]]
        if hit is None or member and not (
                isinstance(node, ast.ClassDef) and member[0] in _members(node)):
            problems.append(f"{where}: {'.'.join((module, name, *member))} resolves to nothing")
        else:
            roots.add(hit)
    return roots, problems


def own_roots(modules):
    return _resolved(modules, _named(Path(__file__), _parse(Path(__file__)), "ROOTS"))


def export_roots(modules):
    init = modules["__init__"]
    listed = _literal(init.tree, "__all__").elts
    return _resolved(modules, [(("__init__", e.value), _where(init.path, e.lineno)) for e in listed])


def benchmark_roots(modules):
    """The package names `perfbench/` uses."""
    tracing = _parse(TRACING)
    named = _named(TRACING, tracing, "SPANNED") + _named(TRACING, tracing, "COUNTED")
    for sub in ast.walk(_parse(WORKLOADS)):  # jc.<module>.<name>, self.jc.<module>.<name>
        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Attribute) and (
                isinstance(sub.value.value, ast.Name) and sub.value.value.id == "jc"
                or isinstance(sub.value.value, ast.Attribute) and sub.value.value.attr == "jc"):
            named.append(((sub.value.attr, sub.attr), _where(WORKLOADS, sub.lineno)))
    roots, problems = _resolved(modules, named)
    # the members the observers read, in them and in the tracing functions they call
    functions = {n.name: n for n in tracing.body if isinstance(n, ast.FunctionDef)}
    todo, observers = [v.id for v in _literal(tracing, "OBSERVERS").values], set()
    while todo:
        name = todo.pop()
        if name not in observers:
            observers.add(name)
            todo += [c.func.id for c in ast.walk(functions[name])
                     if isinstance(c, ast.Call) and getattr(c.func, "id", None) in functions]
    read = {sub.attr for name in observers for sub in ast.walk(functions[name])
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    roots |= {(mod.name, name) for mod in modules.values() for name, node in mod.defs.items()
              if isinstance(node, ast.ClassDef) and read & _members(node)}
    return roots, problems


def reached(modules, roots):
    """Every top-level definition reached from `roots` or from module-level code."""
    todo = list(roots)
    for mod in modules.values():
        for node in mod.runs:
            todo += references(modules, mod, node)
    seen = set()
    while todo:
        hit = todo.pop()
        if hit not in seen:
            seen.add(hit)
            mod = modules[hit[0]]
            todo += references(modules, mod, mod.defs[hit[1]])
    return seen


def unreached(modules, roots):
    """A finding per top-level definition that no root reaches; dunder
    names (`__version__`, `__all__`) are module metadata."""
    seen = reached(modules, roots)
    return [
        f"{_where(mod.path, node.lineno)}: {name} is reached from no root"
        for mod in modules.values() for name, node in mod.defs.items()
        if (mod.name, name) not in seen and not (name.startswith("__") and name.endswith("__"))
    ]


def unused_imports(modules):
    out = []
    for mod in modules.values():
        if mod.name == "__init__":
            continue  # its imports are the re-exports
        used = {sub.id for tree in (mod.tree, *_annotations(mod.tree)) for sub in ast.walk(tree)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        out += [f"{_where(mod.path, line)}: import of {bound} is never used"
                for bound, (_, line) in mod.imports.items() if bound not in used]
    return out


def findings(benchmark: bool = True):
    """Every finding of the walk, by file and line; `benchmark=False`
    leaves out the benchmark's roots."""
    modules = load_package()
    roots, problems = set(), []
    for part in (own_roots, export_roots, benchmark_roots)[:3 if benchmark else 2]:
        more, trouble = part(modules)
        roots |= more
        problems += trouble
    found = problems + unreached(modules, roots) + unused_imports(modules)
    return sorted(found, key=lambda f: (f.split(":")[0], int(f.split(":")[1])))


def test_every_definition_is_reached_and_every_import_used():
    found = findings()
    assert not found, "\n".join(found)


def test_the_benchmark_alone_keeps_the_exact_pullback_step():
    # what only the benchmark reaches: the tracer spans it, no command,
    # checker or export calls it; the walk must see this or it proves nothing
    found = findings(benchmark=False)
    assert [f.split(": ", 1)[1] for f in found] == ["greedy_pullback_step is reached from no root"]


def module_imports(modules):
    """Each module to the package modules its relative imports name,
    wherever they sit: ``from .m import n`` names m, ``from . import m`` m."""
    graph = {}
    for mod in modules.values():
        graph[mod.name] = set()
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module] if node.module else [a.name for a in node.names]
                graph[mod.name].update(n for n in names if n in modules)
    return graph


def test_the_module_graph_is_acyclic():
    graph, done, path = module_imports(load_package()), set(), []

    def visit(name):
        assert name not in path, " -> ".join(path[path.index(name):] + [name])
        if name not in done:
            path.append(name)
            for target in sorted(graph[name]):
                visit(target)
            path.pop()
            done.add(name)

    for name in sorted(graph):
        visit(name)


def test_no_import_sits_inside_a_function():
    found = [
        f"{_where(mod.path, sub.lineno)}: import inside {node.name}"
        for mod in load_package().values() for node in ast.walk(mod.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for sub in ast.walk(node) if isinstance(sub, (ast.Import, ast.ImportFrom))
    ]
    assert not found, "\n".join(found)
