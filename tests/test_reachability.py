"""Every definition in the package is reached from an entry point.

An AST pass over ``src/emofuse``. A module-level function or class, or a
public method (no leading ``_``), is live when it is reached, through the
bodies of live definitions, from a root:

- the module-level statements of each module (``__init__.py``, which only
  re-exports, is no root);
- ``cli.main``;
- every reference in ``perfbench/``: attribute and import names, the
  ``"module.attr"`` span strings, and ``TENSOR_OPS`` read as ``tensor.<op>``;
- every reference in ``tests/test_acceptance.py``;
- ``ALLOWED``, each entry with its reason.

How a reference counts:

- A module-level name counts when module-qualified (``T.tanh``) or imported
  by name (``from .alignment import word_entries``); a bare attribute such as
  ``np.tanh`` or ``seen.add`` does not.
- A classmethod or staticmethod counts when reached as ``<Class>.m``,
  ``cls.m`` or ``self.m``; other methods count by attribute name.
- A class's body, its private and dunder methods included, is reached with
  the class; each public method must be reached on its own.
- Nothing in ``gradcheck.py`` makes a ``tensor`` definition live: the
  checker is not a caller.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "emofuse"

# Reached by nothing in the repository, and why each stays.
ALLOWED = {
    "estimator.ParamsMixin.set_params": "sklearn protocol: clone and grid search set "
                                        "hyper-parameters through it",
    "estimator.EmotionRecognizer.score": "sklearn protocol: model selection scores an "
                                         "estimator through it",
    "estimator.LowLevelFeatureExtractor": "the library's audio-to-features transformer "
                                          "(README, Library)",
    "estimator.LowLevelFeatureExtractor.fit_transform": "sklearn protocol: a pipeline "
                                                        "calls fit_transform",
    "tensor.sum_all": "the scalariser every gradient check wraps around the op it checks",
}

# Live only through perfbench. The tensor ops go once the benchmark stops
# tracing them; the estimator's persistence moves to ALLOWED if perfbench
# stops serving from a reloaded model.
PERFBENCH_ONLY = {
    **{f"tensor.{op}": "in TENSOR_OPS; the tracer raises on a missing attribute"
       for op in ("conv1d_same", "tanh", "add", "add_bias", "slice_rows", "slice_cols",
                  "pad_stack_time_major")},
    "tensor.maxpool_steps": "in TENSOR_OPS; bilstm_max pools inside the op, so the model "
                            "no longer calls it",
    "tensor.mean_cols": "in TENSOR_OPS; conv_relu_stack pools inside the op, so the model "
                        "no longer calls it",
    "dsp.FrameFeatureMatrix.n_frames": "perfbench's frame counter reads it off "
                                       "utterance_features' result",
    "estimator.EmotionRecognizer": "the library's classifier (README, Library), which "
                                   "no entry point of the package constructs",
    "estimator.EmotionRecognizer.save": "the estimator's persistence (README, Library)",
    "estimator.EmotionRecognizer.load": "the estimator's persistence (README, Library)",
}

# Kept although they look unused:
# - alignment.AlignmentMatrix: perfbench's _count_assigned isinstance-checks
#   pooling arguments against it (build_alignment also returns it);
# - model.py's re-import of temporal_align_pool: perfbench/tests asserts the
#   traced model.temporal_align_pool is alignment's.


def _is_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef))


def _is_public_method(node) -> bool:
    return isinstance(node, ast.FunctionDef) and not node.name.startswith("_")


class Package:
    """The package's definitions, each with the definitions its body references."""

    def __init__(self, package: Path = PACKAGE):
        trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
        self.exports = {}   # name -> module or definition key, as __init__ binds it
        for node in ast.walk(trees.pop("__init__")):
            if isinstance(node, ast.ImportFrom):
                self.exports.update({a.asname or a.name: f"{node.module}.{a.name}"
                                     for a in node.names})
        self.modules = set(trees)
        bodies = {}                          # key -> nodes its body consists of
        self.by_attr = {}                    # method name -> keys of methods so named
        self.class_methods = {}              # key of a class/staticmethod -> class name
        for module, tree in trees.items():
            for node in filter(_is_def, tree.body):
                key = f"{module}.{node.name}"
                if not isinstance(node, ast.ClassDef):
                    bodies[key] = [node]
                    continue
                bodies[key] = node.bases + node.keywords + node.decorator_list + [
                    n for n in node.body if not _is_public_method(n)]
                for method in filter(_is_public_method, node.body):
                    bodies[f"{key}.{method.name}"] = [method]
                    self.by_attr.setdefault(method.name, []).append(f"{key}.{method.name}")
                    if any(isinstance(d, ast.Name) and d.id in ("classmethod", "staticmethod")
                           for d in method.decorator_list):
                        self.class_methods[f"{key}.{method.name}"] = node.name
        self.defs = set(bodies)
        self.refs = {key: self.references(nodes, key.split(".")[0], trees[key.split(".")[0]])
                     for key, nodes in bodies.items()}
        self.top_level_refs = set().union(*(
            self.references([n for n in tree.body if not _is_def(n)], module, tree)
            for module, tree in trees.items()))

    def _aliases(self, tree: ast.AST) -> dict:
        """Local name -> ("module", name) or ("def", key), from the imports of
        the package in tree; module "" is the package itself."""
        out = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == "emofuse":
                        # without "as", "import emofuse.x" binds the package
                        bound = a.name.partition(".")[2] if a.asname else ""
                        out[a.asname or "emofuse"] = ("module", bound)
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    source = node.module or ""
                elif node.module.split(".")[0] == "emofuse":
                    source = node.module.partition(".")[2]
                else:
                    continue
                for a in node.names:
                    target = (("def", f"{source}.{a.name}") if source
                              else ("module", a.name) if a.name in self.modules
                              else ("def", self.exports.get(a.name)))
                    out[a.asname or a.name] = target
        return out

    def _module_of(self, node, aliases) -> str | None:
        """The package module an expression names; "" for the package itself."""
        if isinstance(node, ast.Name) and aliases.get(node.id, (None,))[0] == "module":
            return aliases[node.id][1]
        if isinstance(node, ast.Attribute) and self._module_of(node.value, aliases) == "" \
                and node.attr in self.modules:
            return node.attr
        return None

    def references(self, nodes, module: str | None, tree: ast.Module, strings: bool = False,
                   imports: bool = False) -> set[str]:
        """Definition keys that nodes reference. ``module`` is the package module
        the file is (its own names count bare); ``strings`` reads "module.attr"
        constants and ``imports`` counts names imported by name."""
        aliases = self._aliases(tree)
        found = set()
        for node in (n for root in nodes for n in ast.walk(root)):
            if isinstance(node, ast.Name):
                kind, target = aliases.get(node.id, (None, None))
                found.add(target if kind == "def" else f"{module}.{node.id}")
            elif isinstance(node, ast.Attribute):
                owner = self._module_of(node.value, aliases)
                if owner == "":
                    found.add(self.exports.get(node.attr))
                elif owner is not None:
                    found.add(f"{owner}.{node.attr}")
                receiver = getattr(node.value, "id", getattr(node.value, "attr", None))
                for key in self.by_attr.get(node.attr, ()):
                    owner_class = self.class_methods.get(key)
                    if owner_class is None or receiver in (owner_class, "cls", "self"):
                        found.add(key)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
            elif imports and isinstance(node, (ast.Import, ast.ImportFrom)):
                found.update(target for kind, target in self._aliases(node).values()
                             if kind == "def")
        if module == "gradcheck":
            found = {key for key in found if not key.startswith("tensor.")}
        return found & self.defs

    def reach(self, roots) -> set[str]:
        live, todo = set(), list(roots)
        while todo:
            key = todo.pop()
            if key not in live:
                live.add(key)
                todo.extend(self.refs.get(key, ()))
        return live


PKG = Package()


def roots(perfbench: bool = True) -> set[str]:
    """Every root but ALLOWED; with perfbench=False, perfbench's references
    are withheld."""
    out = PKG.top_level_refs | {"cli.main"}
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    out |= PKG.references([acceptance], None, acceptance, imports=True)
    for path in sorted((ROOT / "perfbench").rglob("*.py")) if perfbench else ():
        tree = ast.parse(path.read_text())
        out |= PKG.references([tree], None, tree, strings=True, imports=True)
        for node in tree.body:
            if isinstance(node, ast.Assign) and \
                    [getattr(t, "id", None) for t in node.targets] == ["TENSOR_OPS"]:
                out |= {f"tensor.{op}" for op in ast.literal_eval(node.value)}
    return out


def test_every_definition_is_reached():
    dead = PKG.defs - PKG.reach(roots() | set(ALLOWED))
    assert not dead, ("definitions nothing reaches; delete them, or allow-list them "
                      f"with a reason: {sorted(dead)}")


def test_allow_list_holds_only_unreached_definitions():
    stale = set(ALLOWED) - (PKG.defs - PKG.reach(roots()))
    assert not stale, f"allow-listed, but undefined or reached anyway: {sorted(stale)}"


def test_perfbench_only_set_is_pinned():
    everything = PKG.reach(roots() | set(ALLOWED))
    only = everything - PKG.reach(roots(perfbench=False) | set(ALLOWED))
    assert only == set(PERFBENCH_ONLY), (
        f"live only through perfbench: {sorted(only)}; pinned: {sorted(PERFBENCH_ONLY)}")


def test_only_qualified_or_imported_names_count():
    tree = ast.parse("import numpy as np\n"
                     "from . import model as M, tensor as T\n"
                     "from .alignment import word_entries\n"
                     "def f(seen, x):\n"
                     "    np.tanh(x); seen.add(x); x.from_arrays(x); x.named()\n"
                     "    T.relu(x); word_entries(x); M.ModelParams.from_arrays(x)\n")
    expected = {"tensor.relu", "alignment.word_entries", "model.ModelParams",
                "model.ModelParams.from_arrays", "model.ModelParams.named"}
    assert PKG.references(tree.body[-1:], "data", tree) == expected
    assert PKG.references(tree.body[-1:], "gradcheck", tree) == expected - {"tensor.relu"}
