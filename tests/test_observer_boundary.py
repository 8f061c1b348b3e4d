"""The observer boundary: the machine is the only reader of the
installed observers, and the model layers never import them.

``Machine.__init__`` reads ``obs.current()`` and ``tracing.current()``
once; everything below it takes ``machine.registry`` and
``machine.tracer``.  The fault plane sits outside the machine the same
way: the machine is handed an injector and never imports
``repro.faults``.  An AST walk over ``src/repro`` keeps it that way.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: Model layers that must not import anything from ``repro.obs``.
MODEL_LAYERS = ("core", "kernel", "mem", "interconnect")

#: Layers that must not import anything from ``repro.faults``.
FAULT_FREE_LAYERS = ("sim",) + MODEL_LAYERS


def _modules(*parts):
    root = SRC.joinpath(*parts)
    for path in sorted(root.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _imports(node, package):
    """True if ``node`` imports ``repro.<package>`` or anything in it."""
    full = "repro." + package
    if isinstance(node, ast.Import):
        return any(alias.name == full or alias.name.startswith(full + ".")
                   for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if module == full or module.startswith(full + "."):
            return True
        return module == "repro" and any(alias.name == package
                                         for alias in node.names)
    return False


def _offenders(layers, package):
    found = []
    for layer in layers:
        for path, tree in _modules(layer):
            for node in ast.walk(tree):
                if _imports(node, package):
                    found.append("%s:%d" % (path.relative_to(SRC),
                                            node.lineno))
    return found


class _CurrentCalls(ast.NodeVisitor):
    """Collects every ``current()`` call with its enclosing scope."""

    def __init__(self):
        self.scope = []
        self.found = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Call(self, node):
        func = node.func
        name = (func.attr if isinstance(func, ast.Attribute)
                else getattr(func, "id", None))
        if name == "current":
            self.found.append((".".join(self.scope), ast.unparse(func)))
        self.generic_visit(node)


def test_model_layers_import_nothing_from_obs():
    assert _offenders(MODEL_LAYERS, "obs") == []


def test_machine_and_model_layers_import_nothing_from_faults():
    assert _offenders(FAULT_FREE_LAYERS, "faults") == []


def test_only_machine_init_reads_the_installed_observers():
    calls = []
    for path, tree in _modules():
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith("obs/"):
            continue
        visitor = _CurrentCalls()
        visitor.visit(tree)
        calls += [(rel, scope, func) for scope, func in visitor.found]
    assert sorted(calls) == [
        ("sim/machine.py", "Machine.__init__", "obs.current"),
        ("sim/machine.py", "Machine.__init__", "tracing.current"),
    ]
