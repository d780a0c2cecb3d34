"""The public-surface rule: every public function, class, method and
property in src/qlorakit is used by the kit itself (src/ outside the
package's re-export list, scripts/, perfbench/) or named by an acceptance
criterion (tests/test_acceptance.py). A public name that only tests call
is dead weight and goes."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qlorakit"


def _sources() -> list[Path]:
    return [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]


def public_definitions(paths) -> dict[str, str]:
    """'module.name' or 'module.Class.name' -> bare name, for every public
    module-level function and class and every public method or property."""
    found = {}
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        found[f"{path.stem}.{node.name}.{item.name}"] = item.name
    return found


def referenced_names(paths) -> set[str]:
    """Names used as a Name, an Attribute or an import alias; strings and
    docstrings do not count."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    users = (_sources() + sorted((ROOT / "scripts").glob("*.py"))
             + sorted((ROOT / "perfbench").glob("*.py"))
             + [ROOT / "tests" / "test_acceptance.py"])
    used = referenced_names(users)
    unused = sorted(q for q, name in public_definitions(_sources()).items() if name not in used)
    assert not unused, f"public names with no caller outside the tests: {unused}"


def test_the_scan_sees_definitions_and_references(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text('"""kept, dropped"""\n'
                   "def kept(): pass\n"
                   "def dropped(): pass\n"
                   "def _private(): pass\n"
                   "class Box:\n"
                   "    def method(self): pass\n"
                   "    @property\n"
                   "    def prop(self): return 'prop'\n"
                   "    def __len__(self): return 0\n")
    user = tmp_path / "user.py"
    user.write_text("from mod import kept as alias\nBox().method()\nprint('dropped')\n")
    assert public_definitions([src]) == {"mod.kept": "kept", "mod.dropped": "dropped",
                                         "mod.Box": "Box", "mod.Box.method": "method",
                                         "mod.Box.prop": "prop"}
    assert {"kept", "Box", "method"} <= referenced_names([user])
    assert not {"dropped", "prop"} & referenced_names([user])


def test_every_perfbench_binding_point_resolves():
    """perfbench/tracing.py wraps the names in its BINDINGS from outside the
    package; a rename in src/ would silently zero that span's metrics. Every
    target resolves except `qlorakit.tasks:forward`, unbound since inference
    moved to `forward_batch`. Its example counter reads the window from
    loss_and_grads' third argument: a traced train counts every window and
    every example of every epoch."""
    from qlorakit import trainer
    from qlorakit.model import ToyModelSpec, init_adapters, init_model_params
    from qlorakit.optim import TrainConfig

    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    model_spec = ToyModelSpec(vocab_size=23, d_model=8, n_layers=1, n_heads=2, d_ff=8,
                              n_classes=3, max_seq_len=6)
    dataset = [([1 + i % 5] * (1 + i % 6), i % 3) for i in range(21)]
    cfg = TrainConfig(batch_size=2, grad_accum_steps=2, epochs=3, warmup_steps=0)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        bound = len(tracer._restore)
        trainer.train(dataset, init_model_params(model_spec, 1), model_spec,
                      init_adapters(model_spec, 2, 4.0, 2), cfg)
    finally:
        tracer.uninstall()
    assert tracer.unbound == ["qlorakit.tasks:forward"]
    assert bound + 1 == sum(map(len, tracing.BINDINGS.values()))
    assert tracer.counts["model.loss_and_grads.examples"] == len(dataset) * cfg.epochs
    assert tracer.aggregate()["model.loss_and_grads"]["calls"] == trainer.planned_steps(
        len(dataset), cfg) == 18
