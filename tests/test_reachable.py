"""Every def in src/hybrid2pc is reached by a program: the h2pc commands
or perfbench. A def that only tests call belongs in tests/.

The scan is by name, not a call graph: a def reached only from dead code
passes it."""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]

# Defs no program calls that stay in src/, each with its reason.
ALLOWED = {
    "ml.nn_oracle": "cleartext reference for nn_infer, which the tests compare against",
    "ml.svm_oracle": "cleartext reference for svm_classify, which the tests compare against",
    "circuits.simulate": "per-gate reference interpreter for run_spans, garble and GMW",
    "ml.cifar10_like_net": "the CIFAR-scale planning yardstick (ROADMAP item 6)",
    "ml.save_net": "writes the weight files that load_net reads",
    "transport.ByteLedger.wire_bytes": "reads the ledger's wire column, which README's "
                                       "accounting conventions define",
}


def _defs(tree):
    """(qualified name, name, is_method, node) for every module-level
    function and every method of a module-level class, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, False, node
        elif isinstance(node, ast.ClassDef):
            for m in node.body:
                if (isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (m.name.startswith("__") and m.name.endswith("__"))):
                    yield f"{node.name}.{m.name}", m.name, True, m


def _references(tree, module, modules):
    """(line, kind, key) for every reference in one parsed file: kind
    "qual" keys (module, name) for module-level defs, "attr" keys a name
    reached as an attribute or a string constant."""
    aliases = {}  # local name -> module of the package it binds
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname and a.name.split(".")[-1] in modules:
                    aliases[a.asname] = a.name.split(".")[-1]
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                if a.name in modules:
                    aliases[a.asname or a.name] = a.name

    def named(node):  # the package module an expression names, if any
        name = (aliases.get(node.id, node.id) if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        return name if name in modules else None

    for node in ast.walk(tree):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Name) and module is not None:
            yield line, "qual", (module, node.id)
        elif isinstance(node, ast.Attribute):
            yield line, "attr", node.attr
            if named(node.value):
                yield line, "qual", (named(node.value), node.attr)
        elif isinstance(node, ast.Call):
            # getattr(module, "name") and wrappers called the same way
            mods = [named(a) for a in node.args if named(a)]
            for a in node.args:
                if isinstance(a, ast.Constant) and isinstance(a.value, str):
                    yield from ((line, "qual", (m, a.value)) for m in mods)
        elif isinstance(node, ast.ImportFrom) and node.module:
            source = node.module.split(".")[-1]
            for a in node.names:
                yield line, "qual", (source, a.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield line, "attr", node.value


def unreached(package: Path, *callers: Path):
    """(module.name, file, line) for each def in package's modules that no
    code in package or under callers references outside its own body.

    Module-level defs count only through qualified references:
    module.name, from .module import name, a bare name in their own
    module, or a string passed next to the module in one call, as in
    getattr(module, "name"). Methods count through any attribute or
    string constant of their name, so getattr and perfbench's wrappers
    reach them.
    """
    files = sorted(package.glob("*.py")) + sorted(f for d in callers for f in d.rglob("*.py"))
    modules = {f.stem for f in package.glob("*.py")}
    trees = {f: ast.parse(f.read_text(), filename=str(f)) for f in files}
    refs = {}  # (kind, key) -> [(file, line)]
    for f, tree in trees.items():
        module = f.stem if f.parent == package else None
        for line, kind, key in _references(tree, module, modules):
            refs.setdefault((kind, key), []).append((f, line))
    out = []
    for f in sorted(package.glob("*.py")):
        for qual, name, is_method, node in _defs(trees[f]):
            key = ("attr", name) if is_method else ("qual", (f.stem, name))
            if not any(rf != f or not node.lineno <= line <= node.end_lineno
                       for rf, line in refs.get(key, ())):
                out.append((f"{f.stem}.{qual}", f, node.lineno))
    return out


SYNTHETIC = {
    "core.py": '''
def dead(n):
    return dead(n - 1) if n else 0

def by_attribute():
    return 2

class Engine:
    def step(self):
        return self.step

    def hooked(self):
        return 3

def by_string():
    return 4
''',
    "user.py": '''
from . import core

def main():
    core.by_attribute()
    getattr(core, "by_string")()
    getattr(core.Engine(), "hooked")()
    return core.Engine().step

main()
''',
}


def test_scan_flags_a_dead_def_and_passes_attribute_and_string_references(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    for name, source in SYNTHETIC.items():
        (pkg / name).write_text(source)
    # dead and Engine.step each name themselves; only step is named elsewhere
    found = [(name, line) for name, _, line in unreached(pkg)]
    assert found == [("core.dead", 2)]
    # the same names, reached from outside the package only
    (pkg / "user.py").unlink()
    outside = tmp_path / "bench"
    outside.mkdir()
    (outside / "run.py").write_text(SYNTHETIC["user.py"].replace("from . import core",
                                                                 "from pkg import core"))
    assert [n for n, _, _ in unreached(pkg, outside)] == ["core.dead"]
    assert [n for n, _, _ in unreached(pkg)] == ["core.dead", "core.by_attribute",
                                                 "core.Engine.step", "core.Engine.hooked",
                                                 "core.by_string"]


def test_every_def_in_src_is_reached_by_a_program():
    found = unreached(ROOT / "src" / "hybrid2pc", ROOT / "perfbench")
    names = {name for name, _, _ in found}
    stray = [f"{name} ({f.relative_to(ROOT)}:{line})" for name, f, line in found
             if name not in ALLOWED]
    assert not stray, "defs no program reaches:\n" + "\n".join(stray)
    # an allowlisted def that a program now calls, or that is gone, leaves the list
    assert set(ALLOWED) <= names, sorted(set(ALLOWED) - names)
    assert len(ALLOWED) <= 6
