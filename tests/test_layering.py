"""Import layering, checked on the source text (nothing is imported).

``repro.wire`` is the part of the wire contract every hop shares, so it
may depend on nothing else in the package; ``repro.api`` sits on top
of ``repro.serving`` — the replica router forwards v1 bodies without
importing the schemas that type them; and the ``/v1/stats`` table in
``serving/telemetry.py`` is standard library only, so the router and
offline readers of server-emitted stats can import it alone.  The
engine (``repro.tensor``) runs each kernel on its caller's thread: the
serving workers are where the cores go, so it imports no executor.  It
also has one scratch allocator, the buffer pool in
``repro.tensor.allocator``, which plan replays share with everything else.
"""

import ast
import sys
from pathlib import Path

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
