import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "amala"


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so no check in the package may use one
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert list(SRC.glob("*.py")) and found == []


# calls whose bits depend on the BLAS kernel or SIMD level the CPU selects
# (np.dot and kin, np.exp, np.log) or on the Python version (math.hypot, the
# builtin sum, compensated from 3.12 on); the hashed files must not
NUMPY_BANNED = ("dot", "vdot", "inner", "matmul", "einsum", "exp", "log")
BANNED = {f"{mod}.{fn}" for mod in ("np", "numpy") for fn in NUMPY_BANNED} | {"math.hypot"}
# the one matrix product: the library-only Fisher estimate, which no run calls
MATMUL_ALLOWED = {"diagnostics.empirical_fisher"}


def bit_contract_violations(source: str, module: str) -> tuple[list, set]:
    """(banned references as "module:line name", functions holding an @)."""
    tree = ast.parse(source)
    owner = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner[id(node)] = f"{module}.{fn.name}"  # inner functions are walked later and win
    banned, matmul = [], set()
    for node in ast.walk(tree):
        name = None
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if f"{node.value.id}.{node.attr}" in BANNED:
                name = f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.Name) and node.id == "sum" and isinstance(node.ctx, ast.Load):
            name = "sum"
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "math"):
            name = ",".join(a.name for a in node.names if f"{node.module}.{a.name}" in BANNED) or None
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            matmul.add(owner.get(id(node), module))
        if name:
            banned.append(f"{module}:{node.lineno} {name}")
    return sorted(banned), matmul


def test_bit_contract_check_finds_each_banned_form():
    source = (
        "import math\nimport numpy as np\nfrom numpy import einsum, sqrt\nfrom math import hypot, log\n"
        "a = np.dot(x, x) + np.exp(1.0) + math.hypot(3.0, 4.0) + sum([1.0])\n"
        "b = x @ x\n"
        "def f(x):\n    def g(y):\n        return y @ y\n    x @= x\n    return g(x)\n"
    )
    banned, matmul = bit_contract_violations(source, "m")
    assert banned == ["m:3 einsum", "m:4 hypot", "m:5 math.hypot", "m:5 np.dot", "m:5 np.exp", "m:5 sum"]
    assert matmul == {"m", "m.f", "m.g"}


def test_package_keeps_the_bit_contract():
    # hashed bytes come from elementwise + - * /, np.add.reduce, math
    # transcendentals, left-to-right float loops and (the ACF) numpy's FFT
    banned, matmul = [], set()
    for path in sorted(SRC.glob("*.py")):
        found, products = bit_contract_violations(path.read_text(), path.stem)
        banned += found
        matmul |= products
    assert banned == [] and matmul == MATMUL_ALLOWED
