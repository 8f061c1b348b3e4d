"""The observer boundary: the model fires probe points and holds no
observer.

``Machine.__init__`` makes one call into ``repro.obs``, ``obs.attach``,
which registers the installed metrics registry and trace collector on
the machine's probe points; only ``repro.obs`` reads what is
installed.  No layer of the model imports ``repro.obs`` or holds a
registry or a tracer: the collector's spans come from the ``mark``
point, every metric from a probe or a counter the model keeps.  The
fault plane sits outside the machine the same way: the machine is
handed an injector and never imports ``repro.faults``; the chaos
campaign traces a run through the conformance driver in
``repro.verify``, so ``faults/`` imports nothing from ``repro.obs``
either.  Four functions build a machine.  An AST walk over
``src/repro`` keeps it that way.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: Layers below the machine.
MODEL_LAYERS = ("core", "kernel", "mem", "interconnect")

#: Layers that must not import anything from ``repro.obs`` and hold no
#: registry: the model, the fault plane and the workloads.
OBSERVER_FREE_LAYERS = MODEL_LAYERS + ("faults", "workloads")

#: Layers that must not import anything from ``repro.faults``.
FAULT_FREE_LAYERS = ("sim",) + MODEL_LAYERS

#: Layers that fire the ``mark`` probe point and hold no tracer.
TRACER_FREE_LAYERS = ("sim", "faults") + MODEL_LAYERS


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


def _names(layers, word):
    """Every name or attribute of ``layers`` that contains ``word``."""
    found = []
    for layer in layers:
        for path, tree in _modules(layer):
            for node in ast.walk(tree):
                name = (node.attr if isinstance(node, ast.Attribute)
                        else getattr(node, "id", None)
                        or getattr(node, "arg", None) or "")
                if word in name:
                    found.append("%s:%d %s" % (path.relative_to(SRC),
                                               node.lineno, name))
    return found


class _CurrentCalls(ast.NodeVisitor):
    """Collects every ``current()`` call (or every call of ``name``)
    with its enclosing scope."""

    def __init__(self, name="current"):
        self.name = name
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
        if name == self.name:
            self.found.append((".".join(self.scope), ast.unparse(func)))
        self.generic_visit(node)


class _ObsUses(_CurrentCalls):
    """Collects every ``repro.obs`` import and every ``obs.*`` call
    with its enclosing scope."""

    def visit_Import(self, node):
        if _imports(node, "obs"):
            self.found.append((".".join(self.scope), ast.unparse(node)))

    visit_ImportFrom = visit_Import

    def visit_Call(self, node):
        func = node.func
        if (isinstance(func, ast.Attribute)
                and getattr(func.value, "id", None) == "obs"):
            self.found.append((".".join(self.scope), ast.unparse(node)))
        self.generic_visit(node)


def test_model_layers_import_nothing_from_obs():
    found = []
    for layer in OBSERVER_FREE_LAYERS:
        for path, tree in _modules(layer):
            found += [(path.relative_to(SRC).as_posix(), ast.unparse(node))
                      for node in ast.walk(tree) if _imports(node, "obs")]
    assert found == []


def test_model_layers_hold_no_registry():
    """No name, attribute or parameter of the model, the fault plane
    or the workloads mentions a registry; the machine holds none
    either."""
    assert _names(OBSERVER_FREE_LAYERS + ("sim",), "registry") == []


def test_machine_and_model_layers_import_nothing_from_faults():
    assert _offenders(FAULT_FREE_LAYERS, "faults") == []


def test_model_layers_hold_no_tracer():
    """No name or attribute of the model mentions a tracer: no
    ``machine.tracer`` read, no ``_tracer`` handle, no local alias."""
    assert _names(TRACER_FREE_LAYERS, "tracer") == []


def test_only_machine_init_reads_the_installed_observers():
    """``current()`` is called only inside ``repro.obs``, and the one
    way in from the simulator is ``obs.attach`` in
    ``Machine.__init__``."""
    calls = []
    for path, tree in _modules():
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith("obs/"):
            continue
        visitor = _CurrentCalls()
        visitor.visit(tree)
        calls += [(rel, scope, func) for scope, func in visitor.found]
    assert calls == []
    uses = []
    for path, tree in _modules("sim"):
        rel = path.relative_to(SRC).as_posix()
        visitor = _ObsUses()
        visitor.visit(tree)
        uses += [(rel,) + use for use in visitor.found]
    assert uses == [
        ("sim/machine.py", "", "from repro import obs"),
        ("sim/machine.py", "Machine.__init__", "obs.attach(self)"),
    ]


#: Every function of ``src/`` that builds a ``Machine``: a harness cell,
#: the bench replay, the one conformance driver (litmus, fuzz and chaos)
#: and the latency microbenchmark.
MACHINE_BUILDERS = [
    ("harness/session.py", "execute_spec"),
    ("sim/replay.py", "build_machine"),
    ("verify/runner.py", "run_litmus"),
    ("workloads/microbench.py", "LatencyProbe.__init__"),
]


def test_four_functions_build_a_machine():
    """A new path that builds and runs a machine would need its own
    observers, fault plane and ``close``; it takes one of these
    instead."""
    calls = []
    for path, tree in _modules():
        visitor = _CurrentCalls("Machine")
        visitor.visit(tree)
        calls += [(path.relative_to(SRC).as_posix(), scope)
                  for scope, _func in visitor.found]
    assert calls == MACHINE_BUILDERS
