"""Import layering, checked on the source text (nothing is imported).

``repro.wire`` is the part of the wire contract every hop shares, so it
may depend on nothing else in the package; ``repro.api`` sits on top
of ``repro.serving`` — the replica router forwards v1 bodies without
importing the schemas that type them; and the ``/v1/stats`` table in
``serving/telemetry.py`` is standard library only, so the router and
offline readers of server-emitted stats can import it alone.  The
engine (``repro.tensor``) runs each kernel on its caller's thread: the
serving callers are where the cores go, so it imports no executor.  It
also has one scratch allocator, the buffer pool in
``repro.tensor.allocator``, which plan replays share with everything else.
And there is one HTTP stack: both servers subclass the framing in
``repro.wire``, and nothing runs an event loop.  Batches are cut by
budget in one place, the micro-batcher, which the prediction service
builds once and keeps for its lifetime.  And no gather pays for a
buffered ``take(..., out=)``.  Each fused op has one implementation,
called directly: the one test that imports the package checks that
``repro.tensor.kernels`` holds no dispatch state and plans key on shape.
Each op is one ``Function`` subclass with its own ``infer``, and the
engine's node count needs no per-thread bookkeeping.  The front door of
a ``--replicas`` fleet (the CLI parser, the supervisor, the router)
runs no forward, so it loads neither numpy nor scipy: a fresh
interpreter checks that, and ``repro.serving`` exports lazily so that
importing the router does not import the prediction service.
"""

import ast
import os
import re
import subprocess
import sys
import threading
from importlib import import_module
from types import SimpleNamespace
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"


def imports_of(source: str, package: tuple[str, ...]) -> set[str]:
    """Absolute dotted names of everything ``source`` imports, at any depth.

    ``package`` is the package the module lives in, which is what its
    relative imports are relative to.
    """
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            module = ".".join((*base, *filter(None, [node.module])))
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def imports_of_file(path: Path) -> set[str]:
    return imports_of(path.read_text(), ("repro", *path.relative_to(PACKAGE).parts[:-1]))


def is_under(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def test_the_walk_resolves_relative_and_nested_imports():
    source = "def f():\n    from ..api import schemas\n    import repro.api.client\n"
    found = imports_of(source, ("repro", "serving"))
    assert found == {"repro.api", "repro.api.schemas", "repro.api.client"}


def test_wire_imports_nothing_from_the_package():
    offenders = {m for m in imports_of_file(PACKAGE / "wire.py") if is_under(m, "repro")}
    assert offenders == set()


def test_the_telemetry_table_imports_only_the_standard_library():
    modules = imports_of_file(PACKAGE / "serving" / "telemetry.py")
    offenders = {m for m in modules if m.split(".")[0] not in sys.stdlib_module_names}
    assert offenders == set()
    assert "repro.serving.telemetry" in imports_of_file(PACKAGE / "serving" / "router.py")


def test_the_fleet_front_door_imports_only_the_standard_library():
    allowed = ("repro.wire", *(f"repro.serving.{m}" for m in ("telemetry", "router", "faults")))
    for name in ("router.py", "replicas.py"):
        offenders = {
            module
            for module in imports_of_file(PACKAGE / "serving" / name)
            if module.split(".")[0] not in sys.stdlib_module_names
            and not any(is_under(module, package) for package in allowed)
        }
        assert offenders == set(), name


def test_the_fleet_front_door_loads_no_numeric_stack():
    """A fresh interpreter builds the CLI parser and imports the fleet's modules."""
    probe = (
        "import sys\n"
        "from repro.cli import build_parser\n"
        "build_parser().parse_args(['serve', '--http', '0', '--replicas', '1', "
        "'--backend', 'numpy'])\n"
        "import repro.serving.replicas, repro.serving.router, repro.serving.faults, repro.wire\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_every_serving_export_resolves():
    import repro.serving as serving

    for name in serving.__all__:
        defining = import_module(f"repro.serving.{serving._MODULE_OF[name]}")
        assert getattr(serving, name) is getattr(defining, name), name
    with pytest.raises(AttributeError):
        serving.NotAnExport  # noqa: B018


def test_backend_choices_name_the_engine_backend():
    from repro.cli import BACKENDS
    from repro.tensor import kernels

    assert BACKENDS == (kernels.BACKEND,)


def test_serving_never_imports_the_api_package():
    sources = sorted((PACKAGE / "serving").rglob("*.py"))
    assert (PACKAGE / "serving" / "router.py") in sources
    offenders = {
        (path.name, module)
        for path in sources
        for module in imports_of_file(path)
        if is_under(module, "repro.api")
    }
    assert offenders == set()
    assert "repro.wire" in imports_of_file(PACKAGE / "serving" / "router.py")


def test_the_buffer_pool_is_the_only_scratch_allocator():
    """Only ``repro.tensor.allocator`` defines an ``acquire(shape, dtype)``."""
    owners = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name == "acquire":
                names = [arg.arg for arg in node.args.args]
                if names[-2:] == ["shape", "dtype"]:
                    owners.add(".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts))
    assert owners == {"repro.tensor.allocator"}


def test_the_engine_starts_no_thread_pools():
    sources = sorted((PACKAGE / "tensor").rglob("*.py"))
    assert (PACKAGE / "tensor" / "kernels.py") in sources
    offenders = {
        (path.name, module)
        for path in sources
        for module in imports_of_file(path)
        if is_under(module, "concurrent.futures")
    }
    assert offenders == set()


def test_one_http_stack():
    """No module imports ``asyncio``; only ``repro.wire`` subclasses stdlib's handler."""
    sources = sorted(PACKAGE.rglob("*.py"))
    assert (PACKAGE / "serving" / "router.py") in sources
    event_loops = {
        path.name for path in sources if any(is_under(m, "asyncio") for m in imports_of_file(path))
    }
    assert event_loops == set()
    handlers = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                ast.unparse(base).split(".")[-1] == "BaseHTTPRequestHandler" for base in node.bases
            ):
                handlers.add(".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts))
    assert handlers == {"repro.wire"}


def test_budget_chunking_lives_in_the_batcher():
    """Only ``serving/batcher.py`` names ``first_chunk_size``; ``self._batcher`` is set once."""
    users = {
        path.relative_to(PACKAGE).as_posix()
        for path in sorted(PACKAGE.rglob("*.py"))
        if "first_chunk_size" in path.read_text()
    }
    assert users == {"serving/batcher.py"}
    tree = ast.parse((PACKAGE / "serving" / "service.py").read_text())
    assignments = [
        target
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if ast.unparse(target) == "self._batcher"
    ]
    assert len(assignments) == 1


def test_no_buffered_take_into_out():
    """No ``take(..., out=...)`` under the default ``mode="raise"``.

    numpy buffers ``out`` in that mode so a bad index cannot leave it half
    written, which costs a full copy; ``out[...] = a[idx]`` or a ufunc
    with ``out=`` over fancy-indexed operands raises the same
    ``IndexError`` without it.
    """
    offenders = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            keywords = {keyword.arg: keyword.value for keyword in node.keywords}
            if ast.unparse(node.func).split(".")[-1] != "take" or "out" not in keywords:
                continue
            mode = keywords.get("mode")
            if mode is None or (isinstance(mode, ast.Constant) and mode.value == "raise"):
                offenders.add((path.relative_to(PACKAGE).as_posix(), node.lineno))
    assert offenders == set()


def test_one_implementation_per_kernel():
    """No per-thread dispatch state, no name → implementation table, no
    dispatch mode in the plan key, and no fusion switch anywhere."""
    from repro.tensor import kernels
    from repro.tensor.plan import bucket, plan_key

    for name, value in vars(kernels).items():
        if name.startswith("__"):
            continue
        assert not isinstance(value, threading.local), name
        assert not (isinstance(value, type) and issubclass(value, threading.local)), name
        assert not (isinstance(value, dict) and any(map(callable, value.values()))), name
    batch = SimpleNamespace(num_nodes=600, num_edges=1000, num_graphs=3)
    assert plan_key(batch) == (bucket(600), bucket(1000), bucket(3))
    users = {
        path.relative_to(PACKAGE).as_posix()
        for path in sorted(PACKAGE.rglob("*.py"))
        if re.search(r"\bfusion", path.read_text(), re.IGNORECASE)
    }
    assert users == set()


def test_each_op_is_one_function():
    """``repro.tensor.kernels`` defines only ``Function`` subclasses; each
    op under ``src`` but ``CheckpointFunction`` has its own ``infer``, and
    ``Function`` has none to fall back on; ``repro.tensor.core`` finalizes
    nothing but its incidence-cache entries."""
    bases, methods = {}, {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                key = (module, node.name)
                bases[key] = {ast.unparse(base).split(".")[-1] for base in node.bases}
                methods[key] = {
                    item.name for item in node.body if isinstance(item, ast.FunctionDef)
                }
    ops: set = set()
    while True:
        names = {"Function"} | {name for _, name in ops}
        grown = {key for key, parents in bases.items() if parents & names}
        if grown == ops:
            break
        ops = grown
    assert "infer" not in methods[("tensor/core.py", "Function")]
    assert ("tensor/kernels.py", "FusedLinear") in ops
    assert {key for key in bases if key[0] == "tensor/kernels.py"} <= ops
    lacking = {key for key in ops if "infer" not in methods[key]}
    assert lacking == {("tensor/checkpoint.py", "CheckpointFunction")}

    finalizers = set()
    for node in ast.parse((PACKAGE / "tensor" / "core.py").read_text()).body:
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and ast.unparse(call.func).endswith("finalize"):
                finalizers.add(getattr(node, "name", ast.unparse(node)))
    assert finalizers == {"_incidence"}
