"""Run parameters are arguments: the program's only environment reads are
the cache directory and the backend test seam, and it never writes.

A result-affecting parameter read from ``os.environ`` is invisible to
the result cache (which hashes a task's kwargs) and to spawned workers'
callers, so this guard keeps the channel closed.
"""

import ast
import pathlib

import repro

#: (file relative to src/repro, enclosing function) allowed to read
ALLOWED_READS = {
    ("runner/cache.py", "default_cache_dir"),
    ("sim/engine.py", "default_backend"),
}


def _environment_uses(tree):
    """Every use of the process environment in ``tree`` as ``(enclosing
    function, lineno, is_read)``; a read is ``os.environ.get(...)``,
    ``os.environ[...]`` in load context, or ``os.getenv(...)``.
    Everything else that touches it (subscript store/delete, ``pop``,
    ``update``, ``putenv``, passing the mapping around) counts as a write."""
    parents = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node

    def enclosing(node):
        while node in parents:
            node = parents[node]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return node.name
        return "<module>"

    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "os"):
            continue
        if node.attr in ("putenv", "unsetenv"):
            yield enclosing(node), node.lineno, False
        elif node.attr == "getenv":
            yield enclosing(node), node.lineno, True
        elif node.attr in ("environ", "environb"):
            user = parents[node]
            read = (
                isinstance(user, ast.Attribute) and user.attr == "get"
            ) or (
                isinstance(user, ast.Subscript) and isinstance(user.ctx, ast.Load)
            )
            yield enclosing(node), node.lineno, read


def test_environment_is_read_in_two_places_and_never_written():
    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # `from os import environ` would slip past the attribute walk
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {a.name for a in node.names}
                if names & {"environ", "environb", "getenv", "putenv", "unsetenv"}:
                    offenders.append(f"{rel}:{node.lineno} imports {sorted(names)} from os")
        for func, lineno, read in _environment_uses(tree):
            if not read:
                offenders.append(f"{rel}:{lineno} writes the environment in {func}()")
            elif (rel, func) not in ALLOWED_READS:
                offenders.append(f"{rel}:{lineno} reads the environment in {func}()")
    assert not offenders, "\n".join(offenders)


def test_the_guard_sees_reads_and_writes():
    src = (
        "import os\n"
        "def f():\n"
        "    a = os.environ.get('A')\n"
        "    b = os.environ['B']\n"
        "    c = os.getenv('C')\n"
        "def g():\n"
        "    os.environ['D'] = '1'\n"
        "    os.environ.pop('E', None)\n"
        "    os.putenv('F', '1')\n"
        "    del os.environ['G']\n"
    )
    uses = sorted(_environment_uses(ast.parse(src)), key=lambda u: u[1])
    assert [(f, r) for f, _, r in uses] == [("f", True)] * 3 + [("g", False)] * 4
